//! Property-based tests for the heap structures.

use proptest::prelude::*;
use std::cmp::Ordering;
use twrs_heaps::{heapsort, heapsort_by, BinaryHeap, DualHeap, HeapKind, HeapSide, RunRecord};

/// Ordered by `key` alone; `tag` tells records with equal keys apart, so a
/// test can see where each duplicate ends up.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    key: u8,
    tag: u16,
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Tagged {}

impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The textbook two-comparison sift of §3.1.1: the left child first, the
/// right one only when it orders strictly before the best so far.
fn reference_downheap(data: &mut [Tagged], kind: HeapKind) {
    let mut idx = 0;
    loop {
        let (left, right) = (2 * idx + 1, 2 * idx + 2);
        let mut best = idx;
        if left < data.len() && kind.before(&data[left], &data[best]) {
            best = left;
        }
        if right < data.len() && kind.before(&data[right], &data[best]) {
            best = right;
        }
        if best == idx {
            return;
        }
        data.swap(idx, best);
        idx = best;
    }
}

fn layout(heap: &BinaryHeap<Tagged>) -> Vec<(u8, u16)> {
    heap.iter().map(|t| (t.key, t.tag)).collect()
}

proptest! {
    /// Popping a min-heap yields the input in ascending order.
    #[test]
    fn min_heap_sorts(values in prop::collection::vec(any::<i64>(), 0..256)) {
        let mut heap = BinaryHeap::unbounded(HeapKind::Min);
        for &v in &values {
            heap.push(v).unwrap();
            prop_assert_eq!(heap.debug_validate(), None);
        }
        let drained = heap.drain_sorted();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(drained, expected);
    }

    /// Popping a max-heap yields the input in descending order.
    #[test]
    fn max_heap_sorts_descending(values in prop::collection::vec(any::<i64>(), 0..256)) {
        let heap = BinaryHeap::from_vec(HeapKind::Max, values.clone());
        prop_assert_eq!(heap.debug_validate(), None);
        let mut heap = heap;
        let drained = heap.drain_sorted();
        let mut expected = values;
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(drained, expected);
    }

    /// `replace_top` behaves like pop-then-push.
    #[test]
    fn replace_top_equivalent_to_pop_push(
        initial in prop::collection::vec(any::<i32>(), 1..128),
        replacement in any::<i32>(),
    ) {
        let mut a = BinaryHeap::from_vec(HeapKind::Min, initial.clone());
        let mut b = BinaryHeap::from_vec(HeapKind::Min, initial);
        let via_replace = a.replace_top(replacement);
        let via_pop = b.pop();
        b.push(replacement).unwrap();
        prop_assert_eq!(via_replace, via_pop);
        prop_assert_eq!(a.drain_sorted(), b.drain_sorted());
    }

    /// `replace_top` and `pop` sift exactly like the two-comparison
    /// reference, duplicates included: every record, down to which of two
    /// equal keys sits where, ends in the same array slot.
    #[test]
    fn sift_matches_the_two_comparison_reference(
        initial in prop::collection::vec((0u8..4, any::<u16>()), 1..96),
        ops in prop::collection::vec((0u8..6, any::<u16>()), 0..96),
        max_heap in any::<bool>(),
    ) {
        let kind = if max_heap { HeapKind::Max } else { HeapKind::Min };
        let tagged = |(key, tag): (u8, u16)| Tagged { key, tag };
        let mut heap = BinaryHeap::from_vec(kind, initial.into_iter().map(tagged).collect());
        let mut reference: Vec<Tagged> = heap.iter().copied().collect();
        for (key, tag) in ops {
            if key >= 4 {
                // Pop: the last record moves to the root and sinks.
                heap.pop();
                let last = reference.len() - 1;
                reference.swap(0, last);
                reference.pop();
            } else {
                heap.replace_top(tagged((key, tag)));
                reference[0] = tagged((key, tag));
            }
            reference_downheap(&mut reference, kind);
            prop_assert_eq!(
                layout(&heap),
                reference.iter().map(|t| (t.key, t.tag)).collect::<Vec<_>>()
            );
            if reference.is_empty() {
                break;
            }
        }
    }

    /// An arbitrary interleaving of pushes and pops never violates the heap
    /// property and the popped prefix is always consistent with a heap.
    #[test]
    fn heap_invariant_under_mixed_ops(ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..512)) {
        let mut heap = BinaryHeap::unbounded(HeapKind::Min);
        for (is_pop, value) in ops {
            if is_pop {
                heap.pop();
            } else {
                heap.push(value).unwrap();
            }
            prop_assert_eq!(heap.debug_validate(), None);
        }
    }

    /// The dual heap splits any input into an ascending stream and a
    /// descending stream that together contain every record.
    #[test]
    fn dual_heap_partitions_input(
        values in prop::collection::vec(any::<i32>(), 0..256),
        sides in prop::collection::vec(any::<bool>(), 0..256),
    ) {
        let n = values.len();
        let mut dual: DualHeap<i32> = DualHeap::new(n.max(1));
        for (i, &v) in values.iter().enumerate() {
            let side = if *sides.get(i).unwrap_or(&true) { HeapSide::Top } else { HeapSide::Bottom };
            dual.push(side, v).unwrap();
            prop_assert_eq!(dual.debug_validate(), None);
        }
        let mut ascending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Top) { ascending.push(v); }
        let mut descending = Vec::new();
        while let Some(v) = dual.pop(HeapSide::Bottom) { descending.push(v); }
        prop_assert!(ascending.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(descending.windows(2).all(|w| w[0] >= w[1]));
        let mut all: Vec<i32> = ascending.into_iter().chain(descending).collect();
        all.sort_unstable();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// Heapsort agrees with the standard library sort.
    #[test]
    fn heapsort_matches_std(values in prop::collection::vec(any::<i64>(), 0..512)) {
        let mut ours = values.clone();
        heapsort(&mut ours);
        let mut expected = values;
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    /// Heapsort with a reversed comparator agrees with a reversed std sort.
    #[test]
    fn heapsort_by_matches_std(values in prop::collection::vec(any::<i64>(), 0..512)) {
        let mut ours = values.clone();
        heapsort_by(&mut ours, |a, b| b.cmp(a));
        let mut expected = values;
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(ours, expected);
    }

    /// Run-tagged records always surface lower runs before higher runs in a
    /// min-heap, regardless of their values.
    #[test]
    fn run_records_respect_run_major_order(
        entries in prop::collection::vec((0u64..4, any::<i32>()), 1..256),
    ) {
        let mut heap = BinaryHeap::unbounded(HeapKind::Min);
        for &(run, value) in &entries {
            heap.push(RunRecord::new(value, run)).unwrap();
        }
        let drained = heap.drain_sorted();
        prop_assert!(drained.windows(2).all(|w| w[0].run <= w[1].run));
        prop_assert!(drained
            .windows(2)
            .all(|w| w[0].run < w[1].run || w[0].value <= w[1].value));
    }
}
