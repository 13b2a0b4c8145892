//! Array-backed binary heap with explicit `upheap`/`downheap` procedures.
//!
//! The implementation follows §3.1 of the paper: the heap is a complete
//! binary tree stored in a contiguous array where the node with index `i`
//! has its parent at `(i - 1) / 2` and its children at `2i + 1` and
//! `2i + 2`. Adding a record appends it at the end and bubbles it up
//! (*upheap*); popping the top replaces the root with the last element and
//! sinks it down (*downheap*). Both operations are `O(log n)`.
//!
//! Unlike `std::collections::BinaryHeap`, this heap:
//!
//! * can be bounded to a fixed capacity (replacement selection works with a
//!   fixed memory budget),
//! * can be either a min-heap or a max-heap at runtime ([`HeapKind`]),
//!   which is what lets the TopHeap and BottomHeap of 2WRS share code,
//! * exposes [`BinaryHeap::debug_validate`] so tests can check the heap
//!   property after arbitrary operation sequences.

use std::cmp::Ordering;
use std::fmt;

/// Whether the heap keeps the smallest (`Min`) or the largest (`Max`)
/// element at the root.
///
/// The paper's TopHeap is a min-heap producing an increasing output stream,
/// and the BottomHeap is a max-heap producing a decreasing output stream
/// (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// Root holds the minimum element; popping yields a non-decreasing
    /// sequence.
    Min,
    /// Root holds the maximum element; popping yields a non-increasing
    /// sequence.
    Max,
}

impl HeapKind {
    /// Returns `true` when `a` should be closer to the root than `b`.
    #[inline]
    pub fn before<T: Ord>(self, a: &T, b: &T) -> bool {
        match self {
            HeapKind::Min => a.cmp(b) == Ordering::Less,
            HeapKind::Max => a.cmp(b) == Ordering::Greater,
        }
    }

    /// The opposite heap kind.
    #[inline]
    pub fn opposite(self) -> HeapKind {
        match self {
            HeapKind::Min => HeapKind::Max,
            HeapKind::Max => HeapKind::Min,
        }
    }
}

/// A bounded, array-backed binary heap.
///
/// # Examples
///
/// ```
/// use twrs_heaps::{BinaryHeap, HeapKind};
///
/// let mut heap = BinaryHeap::with_capacity(HeapKind::Min, 8);
/// for x in [5, 1, 4, 2, 3] {
///     heap.push(x).unwrap();
/// }
/// assert_eq!(heap.peek(), Some(&1));
/// assert_eq!(heap.pop(), Some(1));
/// assert_eq!(heap.pop(), Some(2));
/// assert_eq!(heap.len(), 3);
/// ```
#[derive(Clone)]
pub struct BinaryHeap<T> {
    kind: HeapKind,
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
    /// Creates an empty heap of the given kind with a fixed capacity.
    ///
    /// The backing array is allocated once; the heap never reallocates.
    pub fn with_capacity(kind: HeapKind, capacity: usize) -> Self {
        BinaryHeap {
            kind,
            data: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Creates an unbounded heap of the given kind.
    pub fn unbounded(kind: HeapKind) -> Self {
        BinaryHeap {
            kind,
            data: Vec::new(),
            capacity: usize::MAX,
        }
    }

    /// Builds an unbounded heap from an existing vector in `O(n)` using
    /// Floyd's bottom-up heapify.
    pub fn from_vec(kind: HeapKind, data: Vec<T>) -> Self {
        let mut heap = BinaryHeap {
            kind,
            data,
            capacity: usize::MAX,
        };
        heap.heapify();
        heap
    }

    /// The heap kind (min or max).
    #[inline]
    pub fn kind(&self) -> HeapKind {
        self.kind
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

    /// Returns a reference to the top record (minimum for a min-heap,
    /// maximum for a max-heap) without removing it.
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
        self.data.push(value);
        self.upheap(self.data.len() - 1);
        Ok(())
    }

    /// Removes and returns the top record, restoring the heap property with
    /// the *downheap* procedure of §3.1.1.
    pub fn pop(&mut self) -> Option<T> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let top = self.data.pop();
        if !self.data.is_empty() {
            self.downheap(0);
        }
        top
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
        self.downheap(0);
        Some(old)
    }

    /// Removes every record and returns them in heap-array order
    /// (not sorted).
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Removes every record and returns them in sorted output order
    /// (ascending for a min-heap, descending for a max-heap).
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

    /// Restores the heap property over the whole array (Floyd heapify).
    fn heapify(&mut self) {
        if self.data.len() < 2 {
            return;
        }
        for i in (0..self.data.len() / 2).rev() {
            self.downheap(i);
        }
    }

    /// Bubble the record at `idx` up until its parent orders before it.
    fn upheap(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.kind.before(&self.data[idx], &self.data[parent]) {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    /// Sink the record at `idx` down until both children order after it.
    ///
    /// The better child is picked arithmetically (the right one only when
    /// it orders strictly before the left, so ties go left), leaving one
    /// data-dependent branch per level: whether to keep sinking.
    fn downheap(&mut self, mut idx: usize) {
        let len = self.data.len();
        loop {
            let left = 2 * idx + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = left
                + usize::from(right < len && self.kind.before(&self.data[right], &self.data[left]));
            if !self.kind.before(&self.data[child], &self.data[idx]) {
                break;
            }
            self.data.swap(idx, child);
            idx = child;
        }
    }

    /// Checks the heap property over the whole array.
    ///
    /// Intended for tests: returns the index of the first violating node, or
    /// `None` when the heap is valid.
    pub fn debug_validate(&self) -> Option<usize> {
        for i in 1..self.data.len() {
            let parent = (i - 1) / 2;
            if self.kind.before(&self.data[i], &self.data[parent]) {
                return Some(i);
            }
        }
        None
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for BinaryHeap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BinaryHeap")
            .field("kind", &self.kind)
            .field("len", &self.data.len())
            .field("capacity", &self.capacity)
            .field("data", &self.data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_heap_pops_ascending() {
        let mut heap = BinaryHeap::with_capacity(HeapKind::Min, 16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(x).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn max_heap_pops_descending() {
        let mut heap = BinaryHeap::with_capacity(HeapKind::Max, 16);
        for x in [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] {
            heap.push(x).unwrap();
            assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        assert_eq!(drained, vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn paper_figure_3_3_insertion_example() {
        // Figure 3.3: inserting 91 into the max heap {93, 88, 82, 66, 20, 42, 7}
        // bubbles it up past 66 and 88 but not past 93.
        let mut heap = BinaryHeap::from_vec(HeapKind::Max, vec![93, 88, 82, 66, 20, 42, 7]);
        assert_eq!(heap.debug_validate(), None);
        heap.push(91).unwrap();
        assert_eq!(heap.peek(), Some(&93));
        assert_eq!(heap.debug_validate(), None);
        // After the upheap the second level must contain 91 and 82.
        let level_two: Vec<i32> = heap.iter().skip(1).take(2).copied().collect();
        assert!(level_two.contains(&91));
        assert!(level_two.contains(&82));
    }

    #[test]
    fn paper_figure_3_4_deletion_example() {
        // Figure 3.4: removing the top of {93, 91, 82, 88, 20, 42, 7, 66}
        // leaves 91 at the root.
        let mut heap = BinaryHeap::from_vec(HeapKind::Max, vec![93, 91, 82, 88, 20, 42, 7, 66]);
        assert_eq!(heap.pop(), Some(93));
        assert_eq!(heap.peek(), Some(&91));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut heap = BinaryHeap::with_capacity(HeapKind::Min, 2);
        heap.push(1).unwrap();
        heap.push(2).unwrap();
        let err = heap.push(3);
        assert!(matches!(err, Err((HeapFull, 3))));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn replace_top_keeps_size_and_order() {
        let mut heap = BinaryHeap::from_vec(HeapKind::Min, vec![2, 5, 9, 7, 6]);
        let old = heap.replace_top(4);
        assert_eq!(old, Some(2));
        assert_eq!(heap.len(), 5);
        assert_eq!(heap.peek(), Some(&4));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn replace_top_on_empty_heap_inserts() {
        let mut heap: BinaryHeap<i32> = BinaryHeap::with_capacity(HeapKind::Min, 4);
        assert_eq!(heap.replace_top(3), None);
        assert_eq!(heap.peek(), Some(&3));
    }

    #[test]
    fn from_vec_heapifies() {
        let heap = BinaryHeap::from_vec(HeapKind::Min, vec![9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(heap.peek(), Some(&1));
        assert_eq!(heap.debug_validate(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut heap = BinaryHeap::with_capacity(HeapKind::Min, 8);
        for x in [3, 3, 1, 1, 2, 2] {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.drain_sorted(), vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn unbounded_heap_grows() {
        let mut heap = BinaryHeap::unbounded(HeapKind::Max);
        for x in 0..1000 {
            heap.push(x).unwrap();
        }
        assert_eq!(heap.len(), 1000);
        assert_eq!(heap.peek(), Some(&999));
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(HeapKind::Min, 4);
        assert!(heap.is_empty());
        assert_eq!(heap.pop(), None);
        assert_eq!(heap.peek(), None);
        assert_eq!(heap.debug_validate(), None);
    }
}
