//! Array-backed binary heap and the one *upheap*/*downheap* pair every
//! heap in this crate runs on.
//!
//! The implementation follows §3.1 of the paper: the heap is a complete
//! binary tree stored in a contiguous array where the node with index `i`
//! has its parent at `(i - 1) / 2` and its children at `2i + 1` and
//! `2i + 2`. Adding a record appends it at the end and bubbles it up
//! (*upheap*); popping the top replaces the root with the last element and
//! sinks it down (*downheap*). Both operations are `O(log n)`.
//!
//! # Cached keys
//!
//! Every heap keeps a `u64` key per record in an array of its own beside
//! the records. `sift_up` and `sift_down` move a hole through both arrays,
//! holding the moving record and its key aside, and compare keys: the
//! smaller key orders first. Only equal keys call the heap's full order
//! `before(a, b)`, out of line. A heap's keys must agree with its full
//! order — whenever two keys differ, the record with the smaller one
//! orders strictly first — so every record lands in the slot a sift under
//! the full order alone would give it, duplicates included; debug builds
//! assert that agreement on every comparison the keys decide.
//! A heap of records without a key gives every record the same one, and
//! the full order decides every comparison. [`BinaryHeap`], both sides of
//! the [`DualHeap`](crate::DualHeap) and [`heapsort_by`](crate::heapsort_by)
//! all run on this one pair.
//!
//! Unlike `std::collections::BinaryHeap`, [`BinaryHeap`] is a min-heap,
//! can be bounded to a fixed capacity (replacement selection works with a
//! fixed memory budget) and exposes [`BinaryHeap::debug_validate`] so tests
//! can check the heap property after arbitrary operation sequences. Wrap
//! records in [`std::cmp::Reverse`] for a max-heap.

use std::cmp::Ordering;
use std::fmt;

/// `true` when `a` (cached key `a_key`) belongs strictly closer to the root
/// than `b` (cached key `b_key`): differing keys decide, equal keys fall
/// back to the full order `before`.
#[inline]
fn precedes<T>(
    a_key: u64,
    a: &T,
    b_key: u64,
    b: &T,
    before: &mut impl FnMut(&T, &T) -> bool,
) -> bool {
    if a_key != b_key {
        debug_assert!(
            if a_key < b_key {
                before(a, b)
            } else {
                before(b, a)
            },
            "cached key order disagrees with the heap order"
        );
        return a_key < b_key;
    }
    precedes_on_tie(a, b, before)
}

/// Decides between two records with equal keys under the full order.
///
/// Kept out of line, as in the merge's loser tree: the key comparison
/// stays a few instructions in the sift loops.
#[inline(never)]
fn precedes_on_tie<T>(a: &T, b: &T, before: &mut impl FnMut(&T, &T) -> bool) -> bool {
    before(a, b)
}

/// Bubbles the record at `idx` up until its parent orders before it
/// (*upheap*, §3.1.1). `keys[i]` is the cached key of `data[i]`, and
/// `before(a, b)` is `true` when `a` belongs strictly closer to the root
/// than `b`.
pub(crate) fn sift_up<T: Clone>(
    data: &mut [T],
    keys: &mut [u64],
    idx: usize,
    mut before: impl FnMut(&T, &T) -> bool,
) {
    let keys = &mut keys[..data.len()];
    let (record, key) = (data[idx].clone(), keys[idx]);
    let mut hole = idx;
    while hole > 0 {
        let parent = (hole - 1) / 2;
        if !precedes(key, &record, keys[parent], &data[parent], &mut before) {
            break;
        }
        data[hole] = data[parent].clone();
        keys[hole] = keys[parent];
        hole = parent;
    }
    if hole != idx {
        data[hole] = record;
        keys[hole] = key;
    }
}

/// Sinks the record at `idx` until no child orders before it (*downheap*,
/// §3.1.1), under the same keys and `before` as [`sift_up`].
///
/// The better child is picked arithmetically (the right one only when it
/// orders strictly before the left, so ties go left), leaving one
/// data-dependent branch per level: whether to keep sinking.
pub(crate) fn sift_down<T: Clone>(
    data: &mut [T],
    keys: &mut [u64],
    idx: usize,
    mut before: impl FnMut(&T, &T) -> bool,
) {
    let len = data.len();
    let keys = &mut keys[..len];
    let Some(record) = data.get(idx).cloned() else {
        return;
    };
    let key = keys[idx];
    let mut hole = idx;
    loop {
        let left = 2 * hole + 1;
        if left >= len {
            break;
        }
        let right = left + 1;
        let right_first = right < len
            && precedes(
                keys[right],
                &data[right],
                keys[left],
                &data[left],
                &mut before,
            );
        let child = left + usize::from(right_first);
        if !precedes(keys[child], &data[child], key, &record, &mut before) {
            break;
        }
        data[hole] = data[child].clone();
        keys[hole] = keys[child];
        hole = child;
    }
    if hole != idx {
        data[hole] = record;
        keys[hole] = key;
    }
}

/// A heap's array: its records in heap order, with the cached key of
/// `records[i]` at `keys[i]`.
#[derive(Clone)]
pub(crate) struct HeapArray<T> {
    pub(crate) records: Vec<T>,
    pub(crate) keys: Vec<u64>,
}

impl<T> HeapArray<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        HeapArray {
            records: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Removes every record and returns them in heap-array order.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.keys = Vec::new();
        std::mem::take(&mut self.records)
    }

    /// Replaces every cached key with `key_of` of its record.
    pub(crate) fn rekey(&mut self, mut key_of: impl FnMut(&T) -> u64) {
        for (key, record) in self.keys.iter_mut().zip(&self.records) {
            *key = key_of(record);
        }
    }

    /// The first index whose record orders before its parent's, or whose
    /// cached key is not `key_of` of its record, if any.
    pub(crate) fn first_violation(
        &self,
        mut before: impl FnMut(&T, &T) -> bool,
        mut key_of: impl FnMut(&T) -> u64,
    ) -> Option<usize> {
        let data = &self.records;
        (0..data.len()).find(|&i| {
            self.keys.get(i) != Some(&key_of(&data[i]))
                || (i > 0 && before(&data[i], &data[(i - 1) / 2]))
        })
    }
}

impl<T: Clone> HeapArray<T> {
    /// Appends `record` with its cached `key` and bubbles it up.
    pub(crate) fn push(&mut self, record: T, key: u64, before: impl FnMut(&T, &T) -> bool) {
        let last = self.records.len();
        self.records.push(record);
        self.keys.push(key);
        sift_up(&mut self.records, &mut self.keys, last, before);
    }

    /// Removes the root: the last record takes its place and sinks.
    pub(crate) fn pop(&mut self, before: impl FnMut(&T, &T) -> bool) -> Option<T> {
        if self.records.is_empty() {
            return None;
        }
        let top = self.records.swap_remove(0);
        self.keys.swap_remove(0);
        sift_down(&mut self.records, &mut self.keys, 0, before);
        Some(top)
    }

    /// Puts `record` with its cached `key` in the root's place and sinks
    /// it; returns the old root, or `None` (keeping `record`) when empty.
    pub(crate) fn replace_top(
        &mut self,
        record: T,
        key: u64,
        before: impl FnMut(&T, &T) -> bool,
    ) -> Option<T> {
        if self.records.is_empty() {
            self.push(record, key, before);
            return None;
        }
        let old = std::mem::replace(&mut self.records[0], record);
        self.keys[0] = key;
        sift_down(&mut self.records, &mut self.keys, 0, before);
        Some(old)
    }
}

/// The min-heap order of [`BinaryHeap`].
#[inline]
fn less<T: Ord>(a: &T, b: &T) -> bool {
    a.cmp(b) == Ordering::Less
}

/// A bounded, array-backed binary min-heap.
///
/// A heap built with [`bounded`](BinaryHeap::bounded),
/// [`unbounded`](BinaryHeap::unbounded) or
/// [`from_vec`](BinaryHeap::from_vec) orders its records by `Ord` alone. One
/// built with [`keyed`](BinaryHeap::keyed) caches a `u64` key per record and
/// compares keys first (see the [module docs](self)); that is how
/// replacement selection's heap of [`RunRecord`](crate::RunRecord)s runs.
///
/// # Examples
///
/// ```
/// use std::cmp::Reverse;
/// use twrs_heaps::BinaryHeap;
///
/// let mut heap = BinaryHeap::bounded(8);
/// for x in [5, 1, 4, 2, 3] {
///     heap.push(x).unwrap();
/// }
/// assert_eq!(heap.peek(), Some(&1));
/// assert_eq!(heap.pop(), Some(1));
/// assert_eq!(heap.pop(), Some(2));
/// assert_eq!(heap.len(), 3);
///
/// // `Reverse` turns it into a max-heap.
/// let mut max = BinaryHeap::from_vec(vec![Reverse(5), Reverse(9), Reverse(2)]);
/// assert_eq!(max.pop(), Some(Reverse(9)));
/// ```
#[derive(Clone)]
pub struct BinaryHeap<T> {
    array: HeapArray<T>,
    capacity: usize,
    /// The run the cached keys are relative to.
    run: u64,
    /// A record's cached key while `run` is the current run.
    key: fn(&T, u64) -> u64,
}

/// Error returned by [`BinaryHeap::push`] when the heap is already at its
/// fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFull;

impl fmt::Display for HeapFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap is at capacity")
    }
}

impl std::error::Error for HeapFull {}

impl<T: Ord + Clone> BinaryHeap<T> {
    /// Creates an empty heap that holds at most `capacity` records.
    ///
    /// Nothing is reserved up front: the backing array grows with the
    /// records pushed, so a budget far beyond the input costs nothing.
    pub fn bounded(capacity: usize) -> Self {
        // No key: every record gets the same one, so `Ord` decides.
        Self::keyed(capacity, |_, _| 0)
    }

    /// Creates an unbounded heap.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Creates an empty heap of at most `capacity` records that caches
    /// `key(record, run)` beside each record, where `run` is the heap's
    /// current run (0 until [`start_run`](BinaryHeap::start_run)).
    ///
    /// The keys must agree with `Ord`: whenever two records' keys differ,
    /// the one with the smaller key is the smaller record. Equal keys fall
    /// back to `Ord`, so a coarse key is fine. Debug builds assert the
    /// agreement; a key that breaks it misorders the heap.
    ///
    /// # Examples
    ///
    /// Replacement selection's heap: current-run records order by their
    /// sort key (here the value itself), next-run records after them all.
    ///
    /// ```
    /// use twrs_heaps::{BinaryHeap, RunRecord};
    ///
    /// let mut heap = BinaryHeap::keyed(4, |r: &RunRecord<u64>, run| r.heap_key(run, r.value));
    /// heap.push(RunRecord::new(30, 0)).unwrap();
    /// heap.push(RunRecord::new(10, 1)).unwrap();
    /// heap.push(RunRecord::new(20, 0)).unwrap();
    /// assert_eq!(heap.pop(), Some(RunRecord::new(20, 0)));
    /// assert_eq!(heap.pop(), Some(RunRecord::new(30, 0)));
    /// heap.start_run(1);
    /// assert_eq!(heap.pop(), Some(RunRecord::new(10, 1)));
    /// ```
    pub fn keyed(capacity: usize, key: fn(&T, u64) -> u64) -> Self {
        BinaryHeap {
            array: HeapArray::with_capacity(0),
            capacity,
            run: 0,
            key,
        }
    }

    /// Builds an unbounded heap from an existing vector in `O(n)` using
    /// Floyd's bottom-up heapify.
    pub fn from_vec(data: Vec<T>) -> Self {
        let mut array = HeapArray {
            keys: vec![0; data.len()],
            records: data,
        };
        for i in (0..array.len() / 2).rev() {
            sift_down(&mut array.records, &mut array.keys, i, less);
        }
        BinaryHeap {
            array,
            ..Self::unbounded()
        }
    }

    /// Number of records currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// `true` when the heap stores no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of records the heap may hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when the heap is at its fixed capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Returns a reference to the smallest record without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.array.records.first()
    }

    /// Adds a record, restoring the heap property with the *upheap*
    /// procedure of §3.1.1.
    ///
    /// Returns [`HeapFull`] if the heap is at capacity; the record is handed
    /// back inside the error so the caller does not lose it.
    pub fn push(&mut self, value: T) -> Result<(), (HeapFull, T)> {
        if self.is_full() {
            return Err((HeapFull, value));
        }
        let key = (self.key)(&value, self.run);
        self.array.push(value, key, less);
        Ok(())
    }

    /// Removes and returns the smallest record, restoring the heap property
    /// with the *downheap* procedure of §3.1.1.
    pub fn pop(&mut self) -> Option<T> {
        self.array.pop(less)
    }

    /// Pops the top record and pushes a replacement in a single pass.
    ///
    /// This is the inner-loop operation of replacement selection
    /// (Algorithm 1): the run generator writes the top it peeked at, and
    /// the freshly read input record takes its place, so the heap size
    /// never changes. It costs a single `downheap` instead of a `pop`
    /// followed by a `push`; the generator pops only once the input is
    /// exhausted.
    pub fn replace_top(&mut self, value: T) -> Option<T> {
        let key = (self.key)(&value, self.run);
        self.array.replace_top(value, key, less)
    }

    /// Makes `run` the heap's current run and recomputes every cached key
    /// in one pass. The records stay where they are: keys that agree with
    /// `Ord` for any current run leave a valid heap valid.
    pub fn start_run(&mut self, run: u64) {
        self.run = run;
        let key = self.key;
        self.array.rekey(|record| key(record, run));
    }

    /// Removes every record and returns them in heap-array order
    /// (not sorted).
    pub fn drain(&mut self) -> Vec<T> {
        self.array.take()
    }

    /// Removes every record and returns them in ascending order.
    pub fn drain_sorted(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Iterates over the stored records in unspecified (heap-array) order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.array.records.iter()
    }

    /// Checks the heap property and every cached key over the whole array.
    ///
    /// Intended for tests: returns the index of the first violating node
    /// (one out of order with its parent, or with a stale key), or `None`
    /// when the heap is valid.
    pub fn debug_validate(&self) -> Option<usize> {
        let (key, run) = (self.key, self.run);
        self.array.first_violation(less, |record| key(record, run))
    }
}

impl<T: fmt::Debug> fmt::Debug for BinaryHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryHeap")
            .field("len", &self.array.len())
            .field("capacity", &self.capacity)
            .field("run", &self.run)
            .field("data", &self.array.records)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunRecord;
    use std::cmp::Reverse;

    /// Wraps every value for a max-heap.
    fn max_heap(values: &[i32]) -> BinaryHeap<Reverse<i32>> {
        BinaryHeap::from_vec(values.iter().copied().map(Reverse).collect())
    }

    #[test]
    fn min_heap_pops_ascending() {
        let mut heap = BinaryHeap::bounded(16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(x).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn max_heap_pops_descending() {
        let mut heap = BinaryHeap::bounded(16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(Reverse(x)).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained: Vec<i32> = heap.drain_sorted().into_iter().map(|r| r.0).collect();
        assert_eq!(drained, vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn paper_figure_3_3_insertion_example() {
        // Figure 3.3: inserting 91 into the max heap {93, 88, 82, 66, 20, 42, 7}
        // bubbles it up past 66 and 88 but not past 93.
        let mut heap = max_heap(&[93, 88, 82, 66, 20, 42, 7]);
        assert_eq!(heap.debug_validate(), None);
        heap.push(Reverse(91)).unwrap();
        assert_eq!(heap.peek(), Some(&Reverse(93)));
        assert_eq!(heap.debug_validate(), None);
        // After the upheap the second level must contain 91 and 82.
        let level_two: Vec<i32> = heap.iter().skip(1).take(2).map(|r| r.0).collect();
        assert!(level_two.contains(&91));
        assert!(level_two.contains(&82));
    }

    #[test]
    fn paper_figure_3_4_deletion_example() {
        // Figure 3.4: removing the top of {93, 91, 82, 88, 20, 42, 7, 66}
        // leaves 91 at the root.
        let mut heap = max_heap(&[93, 91, 82, 88, 20, 42, 7, 66]);
        assert_eq!(heap.pop(), Some(Reverse(93)));
        assert_eq!(heap.peek(), Some(&Reverse(91)));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut heap = BinaryHeap::bounded(2);
        heap.push(1).unwrap();
        heap.push(2).unwrap();
        let err = heap.push(3);
        assert!(matches!(err, Err((HeapFull, 3))));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn replace_top_keeps_size_and_order() {
        let mut heap = BinaryHeap::from_vec(vec![2, 5, 9, 7, 6]);
        let old = heap.replace_top(4);
        assert_eq!(old, Some(2));
        assert_eq!(heap.len(), 5);
        assert_eq!(heap.peek(), Some(&4));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn replace_top_on_empty_heap_inserts() {
        let mut heap: BinaryHeap<i32> = BinaryHeap::bounded(4);
        assert_eq!(heap.replace_top(3), None);
        assert_eq!(heap.peek(), Some(&3));
    }

    #[test]
    fn from_vec_heapifies() {
        let heap = BinaryHeap::from_vec(vec![9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(heap.peek(), Some(&1));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut heap = BinaryHeap::bounded(8);
        for x in [3, 3, 1, 1, 2, 2] {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.drain_sorted(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn unbounded_heap_grows() {
        let mut heap = BinaryHeap::unbounded();
        for x in 0..1000 {
            heap.push(Reverse(x)).unwrap();
        }
        assert_eq!(heap.len(), 1000);
        assert_eq!(heap.peek(), Some(&Reverse(999)));
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut heap: BinaryHeap<u64> = BinaryHeap::bounded(4);
        assert!(heap.is_empty());
        assert_eq!(heap.pop(), None);
        assert_eq!(heap.peek(), None);
        assert_eq!(heap.debug_validate(), None);
    }

    /// Replacement selection's key rule over `u64` records whose sort key
    /// is the value itself.
    fn run_keyed(capacity: usize) -> BinaryHeap<RunRecord<u64>> {
        BinaryHeap::keyed(capacity, |r: &RunRecord<u64>, run| r.heap_key(run, r.value))
    }

    #[test]
    fn keyed_heap_orders_runs_first_and_rekeys_on_a_new_run() {
        let mut heap = run_keyed(8);
        for (value, run) in [(40, 0), (5, 1), (60, 0), (1, 1), (40, 0)] {
            heap.push(RunRecord::new(value, run)).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        assert_eq!(heap.pop(), Some(RunRecord::new(40, 0)));
        assert_eq!(
            heap.replace_top(RunRecord::new(2, 1)),
            Some(RunRecord::new(40, 0))
        );
        assert_eq!(heap.pop(), Some(RunRecord::new(60, 0)));
        // Run 1 is current now: its records take their sort keys.
        heap.start_run(1);
        assert_eq!(heap.debug_validate(), None);
        let values: Vec<u64> = heap.drain_sorted().into_iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1, 2, 5]);
    }

    #[test]
    fn a_stale_key_fails_validation() {
        let mut heap = run_keyed(4);
        heap.push(RunRecord::new(7, 1)).unwrap();
        heap.push(RunRecord::new(3, 1)).unwrap();
        assert_eq!(heap.debug_validate(), None);
        heap.run = 1;
        assert_eq!(heap.debug_validate(), Some(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cached key order disagrees with the heap order")]
    fn a_non_monotone_key_trips_the_debug_check() {
        let mut heap = BinaryHeap::keyed(4, |r: &RunRecord<u64>, run| r.heap_key(run, !r.value));
        heap.push(RunRecord::new(1, 0)).unwrap();
        heap.push(RunRecord::new(2, 0)).unwrap();
    }

    #[test]
    fn a_budget_beyond_any_input_reserves_nothing() {
        let mut heap = BinaryHeap::bounded(usize::MAX);
        for x in [3, 1, 2] {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.capacity(), usize::MAX);
        assert_eq!(heap.drain_sorted(), vec![1, 2, 3]);
    }
}
