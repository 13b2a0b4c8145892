//! The dual heap of two-way replacement selection (§4.1).
//!
//! 2WRS keeps two heaps in memory: the **TopHeap**, a min-heap whose pops
//! form an increasing stream, and the **BottomHeap**, a max-heap whose pops
//! form a decreasing stream. Because the share of memory each heap needs
//! changes with the input, the paper stores both in a single fixed array
//! growing from its two ends (Figure 4.3), so either heap can grow exactly
//! when the other shrinks.
//!
//! [`DualHeap`] keeps that rule — one capacity shared by both sides, so a
//! push fails only when the two heaps together hold `capacity` records —
//! but stores each side in its own vector. A fixed array with a movable
//! gap needs an occupancy tag per slot in safe Rust, which costs a test on
//! every comparison; two vectors need none, and they grow with the records
//! they hold instead of reserving the whole budget up front.
//!
//! The heap holds [`RunRecord`]s and fixes the paper's order itself: both
//! sides order by run first, so records marked for the next run sink below
//! every current-run record (§3.3); within a run the TopHeap is ascending
//! and the BottomHeap descending. A heap built with [`DualHeap::keyed`]
//! answers that order from cached keys: each side keeps one `u64` per
//! record beside its records — the record's sort key on the TopHeap, its
//! complement on the BottomHeap, through [`RunRecord::heap_key`] — and
//! compares `(run, value)` only where two keys tie. Both sides run the
//! crate's one keyed `sift_up`/`sift_down` pair.
//!
//! At the start of every run, 2WRS re-sorts the records it holds and splits
//! them between the two sides; [`DualHeap::start_run`] installs the two
//! parts in `O(n)`, since an ascending array already is a min-heap and a
//! descending one a max-heap.

use crate::binary_heap::HeapArray;
use crate::RunRecord;
use std::cmp::Ordering;
use std::fmt;

/// Identifies one of the two heaps stored in a [`DualHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapSide {
    /// The min-heap producing the increasing output stream (stream 1).
    Top,
    /// The max-heap producing the decreasing output stream (stream 4).
    Bottom,
}

impl HeapSide {
    /// The other side.
    #[inline]
    pub fn opposite(self) -> HeapSide {
        match self {
            HeapSide::Top => HeapSide::Bottom,
            HeapSide::Bottom => HeapSide::Top,
        }
    }
}

/// The TopHeap order: earlier runs first, then smaller records.
#[inline]
fn top_before<T: Ord>(a: &RunRecord<T>, b: &RunRecord<T>) -> bool {
    a.cmp(b) == Ordering::Less
}

/// The BottomHeap order: earlier runs first, then larger records.
#[inline]
fn bottom_before<T: Ord>(a: &RunRecord<T>, b: &RunRecord<T>) -> bool {
    a.run.cmp(&b.run).then_with(|| b.value.cmp(&a.value)) == Ordering::Less
}

/// Two heaps of run-tagged records under one shared capacity.
///
/// # Examples
///
/// ```
/// use twrs_heaps::{DualHeap, HeapSide, RunRecord};
///
/// // Cache each record's value as its sort key.
/// let mut dual: DualHeap<u32> = DualHeap::keyed(8, |v| u64::from(*v));
/// dual.push(HeapSide::Top, RunRecord::new(50, 0)).unwrap();
/// dual.push(HeapSide::Top, RunRecord::new(52, 0)).unwrap();
/// dual.push(HeapSide::Bottom, RunRecord::new(40, 0)).unwrap();
/// dual.push(HeapSide::Bottom, RunRecord::new(38, 0)).unwrap();
/// // A record marked for the next run sinks on either side.
/// dual.push(HeapSide::Bottom, RunRecord::new(45, 1)).unwrap();
///
/// // The top side pops ascending, the bottom side pops descending.
/// assert_eq!(dual.peek(HeapSide::Top), Some(&RunRecord::new(50, 0)));
/// assert_eq!(dual.pop(HeapSide::Bottom), Some(RunRecord::new(40, 0)));
/// assert_eq!(dual.pop(HeapSide::Bottom), Some(RunRecord::new(38, 0)));
/// assert_eq!(dual.pop(HeapSide::Bottom), Some(RunRecord::new(45, 1)));
/// assert_eq!(dual.pop(HeapSide::Top), Some(RunRecord::new(50, 0)));
///
/// // Run 1 starts on whatever is left, re-sorted and split at index 0:
/// // all of it forms the new TopHeap.
/// let mut held: Vec<u32> = dual.drain().into_iter().map(RunRecord::into_value).collect();
/// held.sort_unstable();
/// dual.start_run(1, held, 0);
/// assert_eq!(dual.pop(HeapSide::Top), Some(RunRecord::new(52, 1)));
/// ```
#[derive(Clone)]
pub struct DualHeap<T> {
    /// The TopHeap in standard array layout.
    top: HeapArray<RunRecord<T>>,
    /// The BottomHeap in standard array layout.
    bottom: HeapArray<RunRecord<T>>,
    /// Records the two sides may hold together.
    capacity: usize,
    /// Cumulative pops per side, used by the Useful heuristics.
    pops: [u64; 2],
    /// The run the cached keys are relative to.
    run: u64,
    /// Projects a value onto the sort key the TopHeap caches (the
    /// BottomHeap caches its complement).
    sort_key: fn(&T) -> u64,
}

/// Error returned when pushing into a full [`DualHeap`]; carries the value
/// back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualHeapFull<T>(pub T);

impl<T: fmt::Debug> fmt::Display for DualHeapFull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dual heap is at capacity; rejected {:?}", self.0)
    }
}

impl<T: fmt::Debug> std::error::Error for DualHeapFull<T> {}

impl<T: Ord + Clone> DualHeap<T> {
    /// Creates an empty dual heap whose two sides together hold at most
    /// `capacity` records and order them by `(run, value)` alone. Nothing
    /// is reserved up front.
    pub fn new(capacity: usize) -> Self {
        Self::keyed(capacity, |_| 0)
    }

    /// Creates an empty dual heap like [`new`](DualHeap::new) that caches
    /// each record's `sort_key(&value)` beside it, through
    /// [`RunRecord::heap_key`], and compares `(run, value)` only where two
    /// keys tie.
    ///
    /// `sort_key` must be monotone with `Ord` (`a <= b` implies
    /// `sort_key(a) <= sort_key(b)`); a coarse key is fine. Debug builds
    /// assert it on every comparison the keys decide; a key that breaks it
    /// misorders both sides.
    pub fn keyed(capacity: usize, sort_key: fn(&T) -> u64) -> Self {
        DualHeap {
            top: HeapArray::with_capacity(0),
            bottom: HeapArray::with_capacity(0),
            capacity,
            pops: [0, 0],
            run: 0,
            sort_key,
        }
    }

    /// Total capacity shared by the two heaps.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently stored on `side`.
    #[inline]
    pub fn len_of(&self, side: HeapSide) -> usize {
        self.side(side).len()
    }

    /// Total number of records stored across both heaps.
    #[inline]
    pub fn len(&self) -> usize {
        self.top.len() + self.bottom.len()
    }

    /// `true` when both heaps are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the two heaps together hold `capacity` records.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Records either heap may still take.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    /// Number of records popped from `side` since construction (or the last
    /// [`DualHeap::reset_pop_counters`] call). Used by the *Useful*
    /// heuristics, which measure the usefulness of a heap as records output
    /// divided by size (§4.2).
    #[inline]
    pub fn pops_from(&self, side: HeapSide) -> u64 {
        self.pops[side as usize]
    }

    /// Resets the per-side pop counters (used at run boundaries).
    pub fn reset_pop_counters(&mut self) {
        self.pops = [0, 0];
    }

    /// Returns a reference to the root record of `side` without removing it.
    #[inline]
    pub fn peek(&self, side: HeapSide) -> Option<&RunRecord<T>> {
        self.side(side).records.first()
    }

    /// Pushes a record onto `side`.
    ///
    /// Fails with [`DualHeapFull`], handing the record back, when the two
    /// heaps together already hold `capacity` records, regardless of which
    /// side the record was destined for.
    pub fn push(
        &mut self,
        side: HeapSide,
        record: RunRecord<T>,
    ) -> Result<(), DualHeapFull<RunRecord<T>>> {
        if self.is_full() {
            return Err(DualHeapFull(record));
        }
        let key = self.key_of(side, &record);
        match side {
            HeapSide::Top => self.top.push(record, key, top_before),
            HeapSide::Bottom => self.bottom.push(record, key, bottom_before),
        }
        Ok(())
    }

    /// Pops the root record of `side`, shrinking that heap by one and
    /// freeing room either heap may subsequently use (Figure 4.4).
    pub fn pop(&mut self, side: HeapSide) -> Option<RunRecord<T>> {
        let record = match side {
            HeapSide::Top => self.top.pop(top_before),
            HeapSide::Bottom => self.bottom.pop(bottom_before),
        }?;
        self.pops[side as usize] += 1;
        Some(record)
    }

    /// Starts run `run` on `sorted`, the records the (empty) heap will hold
    /// in ascending order: the first `split` of them form the BottomHeap,
    /// the rest the TopHeap, every one tagged `run`, and `run` becomes the
    /// run the cached keys are relative to.
    ///
    /// Both sides are installed as they are, in `O(n)` with their keys
    /// computed in the same pass: the upper part in ascending order is a
    /// valid min-heap, and the lower part reversed a valid max-heap. Each
    /// side pops its records in the same order as if they had been pushed
    /// one at a time.
    ///
    /// # Panics
    ///
    /// When the heap is not empty, `sorted` does not fit its capacity or
    /// `split` exceeds `sorted.len()`.
    pub fn start_run(&mut self, run: u64, mut sorted: Vec<T>, split: usize) {
        assert!(
            self.is_empty() && sorted.len() <= self.capacity && split <= sorted.len(),
            "a run starts on an empty dual heap with records that fit it"
        );
        self.run = run;
        sorted[..split].reverse();
        self.bottom = HeapArray::with_capacity(split);
        self.top = HeapArray::with_capacity(sorted.len() - split);
        for (i, value) in sorted.into_iter().enumerate() {
            let side = if i < split {
                HeapSide::Bottom
            } else {
                HeapSide::Top
            };
            let record = RunRecord::new(value, run);
            let key = self.key_of(side, &record);
            let array = match side {
                HeapSide::Top => &mut self.top,
                HeapSide::Bottom => &mut self.bottom,
            };
            array.records.push(record);
            array.keys.push(key);
        }
    }

    /// Drains every record from both heaps in unspecified order.
    pub fn drain(&mut self) -> Vec<RunRecord<T>> {
        let mut records = self.top.take();
        records.extend(self.bottom.take().into_iter().rev());
        records
    }

    /// Iterates over the records of `side` in unspecified (heap-array)
    /// order.
    pub fn iter_side(&self, side: HeapSide) -> std::slice::Iter<'_, RunRecord<T>> {
        self.side(side).records.iter()
    }

    /// Validates both heap properties, every cached key and the shared
    /// capacity. Returns a description of the first violation found, or
    /// `None` when the structure is consistent. Intended for tests.
    pub fn debug_validate(&self) -> Option<String> {
        if self.len() > self.capacity {
            return Some(format!(
                "overfull: top_len={} bottom_len={} capacity={}",
                self.top.len(),
                self.bottom.len(),
                self.capacity
            ));
        }
        let top_key = |record: &RunRecord<T>| self.key_of(HeapSide::Top, record);
        if let Some(i) = self.top.first_violation(top_before, top_key) {
            return Some(format!("heap property or key violated on Top at index {i}"));
        }
        let bottom_key = |record: &RunRecord<T>| self.key_of(HeapSide::Bottom, record);
        if let Some(i) = self.bottom.first_violation(bottom_before, bottom_key) {
            return Some(format!(
                "heap property or key violated on Bottom at index {i}"
            ));
        }
        None
    }

    /// The key `side` caches for `record`.
    #[inline]
    fn key_of(&self, side: HeapSide, record: &RunRecord<T>) -> u64 {
        let key = (self.sort_key)(&record.value);
        match side {
            HeapSide::Top => record.heap_key(self.run, key),
            HeapSide::Bottom => record.heap_key(self.run, !key),
        }
    }

    fn side(&self, side: HeapSide) -> &HeapArray<RunRecord<T>> {
        match side {
            HeapSide::Top => &self.top,
            HeapSide::Bottom => &self.bottom,
        }
    }
}

impl<T> fmt::Debug for DualHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DualHeap")
            .field("capacity", &self.capacity)
            .field("top_len", &self.top.len())
            .field("bottom_len", &self.bottom.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(value: u32) -> RunRecord<u32> {
        RunRecord::new(value, 0)
    }

    fn values(records: impl IntoIterator<Item = RunRecord<u32>>) -> Vec<u32> {
        records.into_iter().map(|r| r.value).collect()
    }

    fn drain_side(dual: &mut DualHeap<u32>, side: HeapSide) -> Vec<RunRecord<u32>> {
        std::iter::from_fn(|| dual.pop(side)).collect()
    }

    /// Builds the two heaps of Figure 4.2 under a 14-record capacity.
    fn paper_figure_4_3() -> DualHeap<u32> {
        let mut dual = DualHeap::new(14);
        // BottomHeap (max heap) of Figure 4.2: {33, 28, 32, 16, 20, 22, 4}.
        for v in [33, 28, 32, 16, 20, 22, 4] {
            dual.push(HeapSide::Bottom, rec(v)).unwrap();
        }
        // TopHeap (min heap) of Figure 4.2: {52, 54, 72, 75, 64, 81, 77}.
        for v in [52, 54, 72, 75, 64, 81, 77] {
            dual.push(HeapSide::Top, rec(v)).unwrap();
        }
        dual
    }

    #[test]
    fn figure_4_3_roots() {
        let dual = paper_figure_4_3();
        assert!(dual.is_full());
        assert_eq!(dual.peek(HeapSide::Bottom), Some(&rec(33)));
        assert_eq!(dual.peek(HeapSide::Top), Some(&rec(52)));
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn figure_4_4_and_4_5_grow_at_the_expense_of_the_other() {
        // Removing the BottomHeap root (33) frees one slot...
        let mut dual = paper_figure_4_3();
        assert_eq!(dual.pop(HeapSide::Bottom), Some(rec(33)));
        assert_eq!(dual.len_of(HeapSide::Bottom), 6);
        assert_eq!(dual.free(), 1);
        assert_eq!(dual.debug_validate(), None);
        // ...which the TopHeap can then use (Figure 4.5: insert 53).
        dual.push(HeapSide::Top, rec(53)).unwrap();
        assert_eq!(dual.len_of(HeapSide::Top), 8);
        assert!(dual.is_full());
        assert_eq!(dual.peek(HeapSide::Top), Some(&rec(52)));
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn push_fails_only_when_shared_array_is_full() {
        let mut dual: DualHeap<u32> = DualHeap::new(4);
        dual.push(HeapSide::Top, rec(1)).unwrap();
        dual.push(HeapSide::Top, rec(2)).unwrap();
        dual.push(HeapSide::Bottom, rec(3)).unwrap();
        dual.push(HeapSide::Bottom, rec(4)).unwrap();
        let err = dual.push(HeapSide::Top, rec(5));
        assert_eq!(err, Err(DualHeapFull(rec(5))));
        assert_eq!(dual.len(), 4);
    }

    #[test]
    fn top_side_pops_ascending_bottom_side_descending() {
        let mut dual: DualHeap<i64> = DualHeap::new(32);
        let values = [14, 3, 99, -7, 42, 0, 23, 8];
        for &v in &values {
            dual.push(HeapSide::Top, RunRecord::new(v, 0)).unwrap();
            dual.push(HeapSide::Bottom, RunRecord::new(v, 0)).unwrap();
        }
        let ascending: Vec<i64> = std::iter::from_fn(|| dual.pop(HeapSide::Top))
            .map(RunRecord::into_value)
            .collect();
        let descending: Vec<i64> = std::iter::from_fn(|| dual.pop(HeapSide::Bottom))
            .map(RunRecord::into_value)
            .collect();
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(ascending, sorted);
        sorted.reverse();
        assert_eq!(descending, sorted);
    }

    #[test]
    fn next_run_records_sink_on_both_sides() {
        let mut dual: DualHeap<u32> = DualHeap::new(8);
        for (value, run) in [(10, 1), (50, 0), (5, 1), (60, 0)] {
            dual.push(HeapSide::Top, RunRecord::new(value, run))
                .unwrap();
            dual.push(HeapSide::Bottom, RunRecord::new(value, run))
                .unwrap();
        }
        let top = drain_side(&mut dual, HeapSide::Top);
        let bottom = drain_side(&mut dual, HeapSide::Bottom);
        let tagged = |records: Vec<RunRecord<u32>>| -> Vec<(u32, u64)> {
            records.into_iter().map(|r| (r.value, r.run)).collect()
        };
        assert_eq!(tagged(top), vec![(50, 0), (60, 0), (5, 1), (10, 1)]);
        assert_eq!(tagged(bottom), vec![(60, 0), (50, 0), (10, 1), (5, 1)]);
    }

    #[test]
    fn one_sided_use_is_equivalent_to_a_single_heap() {
        // When the TopHeap occupies the whole memory and the BottomHeap stays
        // empty, the structure degenerates to plain replacement selection
        // (§4.1 "If the TopHeap grows to occupy the whole memory ... the
        // algorithm is equivalent to RS").
        let mut dual: DualHeap<u32> = DualHeap::new(16);
        for v in [9, 1, 8, 2, 7, 3, 6, 4, 5] {
            dual.push(HeapSide::Top, rec(v)).unwrap();
        }
        assert_eq!(dual.len_of(HeapSide::Bottom), 0);
        let out = values(drain_side(&mut dual, HeapSide::Top));
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn pop_counters_track_usefulness_inputs() {
        let mut dual: DualHeap<u32> = DualHeap::new(8);
        dual.push(HeapSide::Top, rec(1)).unwrap();
        dual.push(HeapSide::Top, rec(2)).unwrap();
        dual.push(HeapSide::Bottom, rec(3)).unwrap();
        dual.pop(HeapSide::Top);
        dual.pop(HeapSide::Top);
        dual.pop(HeapSide::Bottom);
        dual.pop(HeapSide::Bottom);
        assert_eq!(dual.pops_from(HeapSide::Top), 2);
        assert_eq!(dual.pops_from(HeapSide::Bottom), 1);
        dual.reset_pop_counters();
        assert_eq!(dual.pops_from(HeapSide::Top), 0);
    }

    #[test]
    fn drain_empties_both_sides() {
        let mut dual = paper_figure_4_3();
        let all = dual.drain();
        assert_eq!(all.len(), 14);
        assert!(dual.is_empty());
        assert_eq!(dual.debug_validate(), None);
    }

    #[test]
    fn empty_heap_edge_cases() {
        let mut dual: DualHeap<u32> = DualHeap::new(0);
        assert!(dual.is_full());
        assert!(dual.is_empty());
        assert_eq!(dual.pop(HeapSide::Top), None);
        assert_eq!(dual.pop(HeapSide::Bottom), None);
        assert_eq!(dual.push(HeapSide::Top, rec(1)), Err(DualHeapFull(rec(1))));
    }

    #[test]
    fn a_budget_beyond_any_input_reserves_nothing() {
        let mut dual: DualHeap<u32> = DualHeap::new(usize::MAX);
        dual.push(HeapSide::Top, rec(2)).unwrap();
        dual.push(HeapSide::Bottom, rec(1)).unwrap();
        assert_eq!(dual.free(), usize::MAX - 2);
        assert_eq!(dual.pop(HeapSide::Top), Some(rec(2)));
    }

    #[test]
    fn start_run_pops_like_pushing_the_sample_one_record_at_a_time() {
        let sample: Vec<u32> = (0..41).map(|i| (i * 37) % 23).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        for split in [0, 1, 17, 40, 41] {
            let mut installed = DualHeap::keyed(64, |v: &u32| u64::from(*v >> 2));
            installed.start_run(3, sorted.clone(), split);
            assert_eq!(installed.debug_validate(), None);
            let mut pushed = DualHeap::keyed(64, |v: &u32| u64::from(*v >> 2));
            pushed.start_run(3, Vec::new(), 0);
            for (i, &v) in sorted.iter().enumerate() {
                let side = if i < split {
                    HeapSide::Bottom
                } else {
                    HeapSide::Top
                };
                pushed.push(side, RunRecord::new(v, 3)).unwrap();
            }
            for side in [HeapSide::Top, HeapSide::Bottom] {
                assert_eq!(installed.len_of(side), pushed.len_of(side));
                assert_eq!(
                    drain_side(&mut installed, side),
                    drain_side(&mut pushed, side)
                );
            }
        }
    }

    #[test]
    fn start_run_rekeys_records_of_the_new_run() {
        let mut dual = DualHeap::keyed(8, |v: &u32| u64::from(*v));
        // Deferred records wait for run 1 with the largest key on both
        // sides...
        dual.push(HeapSide::Top, RunRecord::new(5, 1)).unwrap();
        dual.push(HeapSide::Top, RunRecord::new(50, 0)).unwrap();
        dual.push(HeapSide::Bottom, RunRecord::new(60, 1)).unwrap();
        dual.push(HeapSide::Bottom, RunRecord::new(7, 0)).unwrap();
        assert_eq!(dual.debug_validate(), None);
        assert_eq!(dual.pop(HeapSide::Top), Some(RunRecord::new(50, 0)));
        assert_eq!(dual.pop(HeapSide::Bottom), Some(RunRecord::new(7, 0)));
        // ...and run on their own sort keys once run 1 starts.
        let mut held: Vec<u32> = values(dual.drain());
        held.sort_unstable();
        dual.start_run(1, held, 1);
        assert_eq!(dual.debug_validate(), None);
        dual.push(HeapSide::Bottom, RunRecord::new(3, 1)).unwrap();
        dual.push(HeapSide::Top, RunRecord::new(70, 1)).unwrap();
        assert_eq!(values(drain_side(&mut dual, HeapSide::Top)), vec![60, 70]);
        assert_eq!(values(drain_side(&mut dual, HeapSide::Bottom)), vec![5, 3]);
    }

    #[test]
    #[should_panic(expected = "a run starts on an empty dual heap")]
    fn start_run_rejects_a_sample_beyond_the_capacity() {
        let mut dual: DualHeap<u32> = DualHeap::new(2);
        dual.start_run(0, vec![1, 2, 3], 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cached key order disagrees with the heap order")]
    fn a_non_monotone_sort_key_trips_the_debug_check() {
        // A sort key that runs against the values' order.
        let mut dual = DualHeap::keyed(4, |v: &u64| !*v);
        dual.push(HeapSide::Top, RunRecord::new(1, 0)).unwrap();
        dual.push(HeapSide::Top, RunRecord::new(2, 0)).unwrap();
    }

    #[test]
    fn iter_side_visits_only_that_side() {
        let dual = paper_figure_4_3();
        let top = values(dual.iter_side(HeapSide::Top).copied());
        let bottom = values(dual.iter_side(HeapSide::Bottom).copied());
        assert_eq!(top.len(), 7);
        assert_eq!(bottom.len(), 7);
        assert!(top.iter().all(|v| *v >= 52));
        assert!(bottom.iter().all(|v| *v <= 33));
    }
}
