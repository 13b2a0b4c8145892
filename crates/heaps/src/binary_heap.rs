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
//! `sift_up` and `sift_down` work over a slice under a caller-supplied
//! `before(a, b)` order, so [`BinaryHeap`], both sides of the
//! [`DualHeap`](crate::DualHeap) and [`heapsort_by`](crate::heapsort_by)
//! share them.
//!
//! Unlike `std::collections::BinaryHeap`, [`BinaryHeap`] is a min-heap,
//! can be bounded to a fixed capacity (replacement selection works with a
//! fixed memory budget) and exposes [`BinaryHeap::debug_validate`] so tests
//! can check the heap property after arbitrary operation sequences. Wrap
//! records in [`std::cmp::Reverse`] for a max-heap.

use std::cmp::Ordering;
use std::fmt;

/// Bubbles the record at `idx` up until its parent orders before it
/// (*upheap*, §3.1.1). `before(a, b)` is `true` when `a` belongs strictly
/// closer to the root than `b`.
pub(crate) fn sift_up<T>(data: &mut [T], mut idx: usize, mut before: impl FnMut(&T, &T) -> bool) {
    while idx > 0 {
        let parent = (idx - 1) / 2;
        if !before(&data[idx], &data[parent]) {
            break;
        }
        data.swap(idx, parent);
        idx = parent;
    }
}

/// Sinks the record at `idx` until no child orders before it (*downheap*,
/// §3.1.1), under the same `before` as [`sift_up`].
///
/// The better child is picked arithmetically (the right one only when it
/// orders strictly before the left, so ties go left), leaving one
/// data-dependent branch per level: whether to keep sinking.
pub(crate) fn sift_down<T>(data: &mut [T], mut idx: usize, mut before: impl FnMut(&T, &T) -> bool) {
    let len = data.len();
    loop {
        let left = 2 * idx + 1;
        if left >= len {
            break;
        }
        let right = left + 1;
        let child = left + usize::from(right < len && before(&data[right], &data[left]));
        if !before(&data[child], &data[idx]) {
            break;
        }
        data.swap(idx, child);
        idx = child;
    }
}

/// Appends `value` to the heap in `data` and restores the heap property.
pub(crate) fn push_by<T>(data: &mut Vec<T>, value: T, before: impl FnMut(&T, &T) -> bool) {
    data.push(value);
    let last = data.len() - 1;
    sift_up(data, last, before);
}

/// Removes the root of the heap in `data`: the last record takes its place
/// and sinks.
pub(crate) fn pop_by<T>(data: &mut Vec<T>, before: impl FnMut(&T, &T) -> bool) -> Option<T> {
    if data.is_empty() {
        return None;
    }
    let top = data.swap_remove(0);
    sift_down(data, 0, before);
    Some(top)
}

/// The first index whose record orders before its parent's, if any.
pub(crate) fn first_violation<T>(
    data: &[T],
    mut before: impl FnMut(&T, &T) -> bool,
) -> Option<usize> {
    (1..data.len()).find(|&i| before(&data[i], &data[(i - 1) / 2]))
}

/// The min-heap order of [`BinaryHeap`].
#[inline]
fn less<T: Ord>(a: &T, b: &T) -> bool {
    a.cmp(b) == Ordering::Less
}

/// A bounded, array-backed binary min-heap.
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
    data: Vec<T>,
    capacity: usize,
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

impl<T: Ord> BinaryHeap<T> {
    /// Creates an empty heap that holds at most `capacity` records.
    ///
    /// Nothing is reserved up front: the backing array grows with the
    /// records pushed, so a budget far beyond the input costs nothing.
    pub fn bounded(capacity: usize) -> Self {
        BinaryHeap {
            data: Vec::new(),
            capacity,
        }
    }

    /// Creates an unbounded heap.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Builds an unbounded heap from an existing vector in `O(n)` using
    /// Floyd's bottom-up heapify.
    pub fn from_vec(mut data: Vec<T>) -> Self {
        for i in (0..data.len() / 2).rev() {
            sift_down(&mut data, i, less);
        }
        BinaryHeap {
            data,
            capacity: usize::MAX,
        }
    }

    /// Number of records currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the heap stores no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum number of records the heap may hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` when the heap is at its fixed capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.data.len() >= self.capacity
    }

    /// Returns a reference to the smallest record without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
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
        push_by(&mut self.data, value, less);
        Ok(())
    }

    /// Removes and returns the smallest record, restoring the heap property
    /// with the *downheap* procedure of §3.1.1.
    pub fn pop(&mut self) -> Option<T> {
        pop_by(&mut self.data, less)
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
        if self.data.is_empty() {
            self.data.push(value);
            return None;
        }
        let old = std::mem::replace(&mut self.data[0], value);
        sift_down(&mut self.data, 0, less);
        Some(old)
    }

    /// Removes every record and returns them in heap-array order
    /// (not sorted).
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Removes every record and returns them in ascending order.
    pub fn drain_sorted(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.data.len());
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Iterates over the stored records in unspecified (heap-array) order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Checks the heap property over the whole array.
    ///
    /// Intended for tests: returns the index of the first violating node, or
    /// `None` when the heap is valid.
    pub fn debug_validate(&self) -> Option<usize> {
        first_violation(&self.data, less)
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for BinaryHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryHeap")
            .field("len", &self.data.len())
            .field("capacity", &self.capacity)
            .field("data", &self.data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
