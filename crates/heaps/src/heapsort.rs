//! Heapsort (§3.2), the internal sorting algorithm replacement selection is
//! built on.
//!
//! The paper describes heapsort with a separate heap next to the input
//! array: every record is pushed into the heap and then popped back out in
//! order, giving the familiar `O(n log n)` bound. [`heapsort_via_heap`] is
//! that literal formulation; [`heapsort`] and [`heapsort_by`] sort in place
//! on the crate's one `sift_down`, with every cached key equal, so the
//! comparison decides every step. The run generators themselves never sort
//! with heapsort: the module is an executable description of §3.2 and an
//! independent sorting oracle for tests.

use crate::binary_heap::sift_down;
use crate::BinaryHeap;
use std::cmp::Ordering;

/// Sorts a slice ascending using heapsort (§3.2).
///
/// # Examples
///
/// ```
/// let mut values = vec![5, 3, 9, 1, 4];
/// twrs_heaps::heapsort(&mut values);
/// assert_eq!(values, vec![1, 3, 4, 5, 9]);
/// ```
pub fn heapsort<T: Ord + Clone>(slice: &mut [T]) {
    heapsort_by(slice, T::cmp)
}

/// Sorts a slice with heapsort using a caller-supplied comparison.
///
/// The comparison defines the ascending order of the result, mirroring
/// [`slice::sort_by`].
pub fn heapsort_by<T: Clone, F>(slice: &mut [T], mut compare: F)
where
    F: FnMut(&T, &T) -> Ordering,
{
    // Build a max-heap (by `compare`) over the slice itself, then repeatedly
    // move the root to the back of the shrinking heap region. The records
    // carry no key: all keys are equal, so they never need to move.
    let mut after = |a: &T, b: &T| compare(a, b) == Ordering::Greater;
    let n = slice.len();
    let mut keys = vec![0; n];
    for i in (0..n / 2).rev() {
        sift_down(slice, &mut keys, i, &mut after);
    }
    for end in (1..n).rev() {
        slice.swap(0, end);
        sift_down(&mut slice[..end], &mut keys, 0, &mut after);
    }
}

/// Sorts a `Vec` by moving it through an auxiliary binary heap, exactly as
/// §3.2 describes (push everything, pop everything).
///
/// This is slower than [`heapsort`] because of the extra allocation but is a
/// literal transcription of the paper's algorithm, and serves as an oracle in
/// tests.
pub fn heapsort_via_heap<T: Ord + Clone>(values: Vec<T>) -> Vec<T> {
    BinaryHeap::from_vec(values).drain_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_integers() {
        let mut v = vec![5, 2, 9, 1, 7, 3, 8, 6, 4, 0];
        heapsort(&mut v);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_with_custom_comparator_descending() {
        let mut v = vec![5, 2, 9, 1, 7];
        heapsort_by(&mut v, |a, b| b.cmp(a));
        assert_eq!(v, vec![9, 7, 5, 2, 1]);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let mut empty: Vec<u32> = vec![];
        heapsort(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![42];
        heapsort(&mut one);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn handles_duplicates() {
        let mut v = vec![3, 1, 3, 1, 2, 2, 3];
        heapsort(&mut v);
        assert_eq!(v, vec![1, 1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let mut asc: Vec<u32> = (0..100).collect();
        heapsort(&mut asc);
        assert_eq!(asc, (0..100).collect::<Vec<_>>());
        let mut desc: Vec<u32> = (0..100).rev().collect();
        heapsort(&mut desc);
        assert_eq!(desc, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn via_heap_matches_std_sort() {
        let values = vec![17_i32, -4, 33, 0, 12, -4, 99, 5];
        let mut expected = values.clone();
        expected.sort();
        assert_eq!(heapsort_via_heap(values), expected);
    }

    #[test]
    fn matches_std_sort_on_medium_input() {
        // Deterministic pseudo-random data without pulling in `rand` here.
        let mut v: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        heapsort(&mut v);
        assert_eq!(v, expected);
    }
}
