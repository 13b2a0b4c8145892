//! Property-based tests for the heap structures.

use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap as StdHeap;
use twrs_heaps::{heapsort, heapsort_by, BinaryHeap, DualHeap, HeapSide, RunRecord};

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
fn reference_downheap<T: Ord>(data: &mut [T]) {
    let mut idx = 0;
    loop {
        let (left, right) = (2 * idx + 1, 2 * idx + 2);
        let mut best = idx;
        if left < data.len() && data[left] < data[best] {
            best = left;
        }
        if right < data.len() && data[right] < data[best] {
            best = right;
        }
        if best == idx {
            return;
        }
        data.swap(idx, best);
        idx = best;
    }
}

/// Drives `replace_top` and `pop` on a heap of `wrap`ped records and on the
/// reference, asserting after every step that each record, down to which of
/// two equal keys sits where, is in the same array slot.
fn sift_matches_reference<T: Ord + Copy>(
    initial: Vec<(u8, u16)>,
    ops: Vec<(u8, u16)>,
    wrap: impl Fn(Tagged) -> T,
    unwrap: impl Fn(&T) -> Tagged,
) {
    let tagged = |(key, tag): (u8, u16)| wrap(Tagged { key, tag });
    let layout = |records: &[T]| -> Vec<(u8, u16)> {
        records
            .iter()
            .map(&unwrap)
            .map(|t| (t.key, t.tag))
            .collect()
    };
    let mut heap = BinaryHeap::from_vec(initial.into_iter().map(tagged).collect());
    let mut reference: Vec<T> = heap.iter().copied().collect();
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
        reference_downheap(&mut reference);
        assert_eq!(layout(heap.iter().as_slice()), layout(&reference));
        if reference.is_empty() {
            break;
        }
    }
}

/// The textbook upheap of §3.1.1 for the last record of `data`.
fn reference_upheap<T: Ord>(data: &mut [T]) {
    let mut idx = data.len() - 1;
    while idx > 0 && data[idx] < data[(idx - 1) / 2] {
        data.swap(idx, (idx - 1) / 2);
        idx = (idx - 1) / 2;
    }
}

/// A coarse sort key: eight values share one, so most comparisons between
/// nearby records tie and fall back to the full order.
fn coarse(t: &Tagged) -> u64 {
    u64::from(t.key >> 3)
}

/// Run-tagged records as a keyed heap orders them: `Top` is the TopHeap
/// order (runs first, ascending values), `Bottom` the BottomHeap order
/// (runs first, descending values), each as a plain `Ord` for the
/// reference.
type Top = RunRecord<Tagged>;
type Bottom = RunRecord<Reverse<Tagged>>;

/// Applies one step to `reference` as the two-comparison heap would: push
/// (`op` 0–1), replace the top (2–3; a push when empty) or pop (4–5).
fn reference_step<T: Ord>(reference: &mut Vec<T>, op: u8, record: T) {
    match op {
        0 | 1 => {
            reference.push(record);
            reference_upheap(reference);
        }
        2 | 3 if !reference.is_empty() => {
            reference[0] = record;
            reference_downheap(reference);
        }
        2 | 3 => reference.push(record),
        _ if reference.is_empty() => {}
        _ => {
            let last = reference.len() - 1;
            reference.swap(0, last);
            reference.pop();
            reference_downheap(reference);
        }
    }
}

/// Drives a keyed [`BinaryHeap`] and the reference through the same
/// pushes, replacements and pops of run-tagged records, the heap's current
/// run being `current`, and checks after every step that each record, down
/// to which of two equal ones sits where, is in the same slot.
fn keyed_sift_matches_reference<T: Ord + Copy + std::fmt::Debug>(
    current: u64,
    ops: Vec<(u8, u64, u8, u16)>,
    wrap: impl Fn(u64, Tagged) -> T,
    key: fn(&T, u64) -> u64,
) {
    let mut heap = BinaryHeap::keyed(usize::MAX, key);
    heap.start_run(current);
    let mut reference: Vec<T> = Vec::new();
    for (op, run, key, tag) in ops {
        let record = wrap(run, Tagged { key, tag });
        match op {
            0 | 1 => heap.push(record).unwrap(),
            2 | 3 => {
                heap.replace_top(record);
            }
            _ => {
                heap.pop();
            }
        }
        reference_step(&mut reference, op, record);
        assert_eq!(heap.debug_validate(), None);
        assert_eq!(
            format!("{:?}", heap.iter().as_slice()),
            format!("{reference:?}")
        );
    }
}

/// The order in which a [`DualHeap`] side pops, as a key for
/// `std::collections::BinaryHeap` (which pops its largest element): the
/// TopHeap pops the smallest `(run, value)`, the BottomHeap the earliest run
/// and within it the largest value.
type TopKey = Reverse<(u64, i32)>;
type BottomKey = (Reverse<u64>, i32);

proptest! {
    /// Popping a min-heap yields the input in ascending order.
    #[test]
    fn min_heap_sorts(values in prop::collection::vec(any::<i64>(), 0..256)) {
        let mut heap = BinaryHeap::unbounded();
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
        let mut heap = BinaryHeap::from_vec(values.iter().copied().map(Reverse).collect());
        prop_assert_eq!(heap.debug_validate(), None);
        let drained: Vec<i64> = heap.drain_sorted().into_iter().map(|r| r.0).collect();
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
        let mut a = BinaryHeap::from_vec(initial.clone());
        let mut b = BinaryHeap::from_vec(initial);
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
        if max_heap {
            sift_matches_reference(initial, ops, Reverse, |r: &Reverse<Tagged>| r.0);
        } else {
            sift_matches_reference(initial, ops, |t| t, |t: &Tagged| *t);
        }
    }

    /// With coarse cached keys (many ties) and run tags 0–3 around the
    /// current run, keyed `push`, `replace_top` and `pop` sift exactly like
    /// the two-comparison reference under the full run-first order, on the
    /// TopHeap and the BottomHeap order alike: every record, down to which
    /// of two equal ones sits where, ends in the same array slot.
    #[test]
    fn keyed_sift_matches_the_two_comparison_reference(
        current in 0u64..4,
        ops in prop::collection::vec((0u8..6, 0u64..4, 0u8..64, any::<u16>()), 0..160),
        descending in any::<bool>(),
    ) {
        if descending {
            keyed_sift_matches_reference(
                current,
                ops,
                |run, t| RunRecord::new(Reverse(t), run),
                |r: &Bottom, run| r.heap_key(run, !coarse(&r.value.0)),
            );
        } else {
            keyed_sift_matches_reference(
                current,
                ops,
                |run, t| RunRecord::new(t, run),
                |r: &Top, run| r.heap_key(run, coarse(&r.value)),
            );
        }
    }

    /// Both sides of a keyed [`DualHeap`] sift like the two-comparison
    /// reference under their full orders, with coarse keys and run tags
    /// 0–3, slot for slot.
    #[test]
    fn dual_heap_keyed_sift_matches_the_two_comparison_reference(
        current in 0u64..4,
        ops in prop::collection::vec((0u8..4, 0u64..4, 0u8..64, any::<u16>()), 0..160),
    ) {
        let mut dual = DualHeap::keyed(usize::MAX, coarse);
        dual.start_run(current, Vec::new(), 0);
        let mut top: Vec<Top> = Vec::new();
        let mut bottom: Vec<Bottom> = Vec::new();
        for (op, run, key, tag) in ops {
            // Bit 0 picks the side, bit 1 a pop over a push.
            let (on_top, is_pop) = (op & 1 == 0, op & 2 != 0);
            let value = Tagged { key, tag };
            let op = if is_pop { 4 } else { 0 };
            if on_top {
                if is_pop {
                    dual.pop(HeapSide::Top);
                } else {
                    dual.push(HeapSide::Top, RunRecord::new(value, run)).unwrap();
                }
                reference_step(&mut top, op, RunRecord::new(value, run));
            } else {
                if is_pop {
                    dual.pop(HeapSide::Bottom);
                } else {
                    dual.push(HeapSide::Bottom, RunRecord::new(value, run)).unwrap();
                }
                reference_step(&mut bottom, op, RunRecord::new(Reverse(value), run));
            }
            prop_assert_eq!(dual.debug_validate(), None);
            let layout = |side| -> Vec<(u64, u8, u16)> {
                dual.iter_side(side).map(|r| (r.run, r.value.key, r.value.tag)).collect()
            };
            prop_assert_eq!(
                layout(HeapSide::Top),
                top.iter().map(|r| (r.run, r.value.key, r.value.tag)).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                layout(HeapSide::Bottom),
                bottom.iter().map(|r| (r.run, r.value.0.key, r.value.0.tag)).collect::<Vec<_>>()
            );
        }
    }

    /// An arbitrary interleaving of pushes and pops never violates the heap
    /// property and the popped prefix is always consistent with a heap.
    #[test]
    fn heap_invariant_under_mixed_ops(ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..512)) {
        let mut heap = BinaryHeap::unbounded();
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
            dual.push(side, RunRecord::new(v, 0)).unwrap();
            prop_assert_eq!(dual.debug_validate(), None);
        }
        let ascending: Vec<i32> =
            std::iter::from_fn(|| dual.pop(HeapSide::Top)).map(RunRecord::into_value).collect();
        let descending: Vec<i32> =
            std::iter::from_fn(|| dual.pop(HeapSide::Bottom)).map(RunRecord::into_value).collect();
        prop_assert!(ascending.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(descending.windows(2).all(|w| w[0] >= w[1]));
        let mut all: Vec<i32> = ascending.into_iter().chain(descending).collect();
        all.sort_unstable();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// Any interleaving of pushes and pops on both sides, with run tags
    /// 0–3, peeks and pops exactly like two standard-library heaps keyed to
    /// the same order; a push fails exactly when the two sides together
    /// hold `capacity` records and hands the record back.
    #[test]
    fn dual_heap_matches_two_reference_heaps(
        capacity in 0usize..24,
        ops in prop::collection::vec((0u8..6, 0u64..4, any::<i32>()), 0..256),
    ) {
        let mut dual: DualHeap<i32> = DualHeap::new(capacity);
        let mut top: StdHeap<TopKey> = StdHeap::new();
        let mut bottom: StdHeap<BottomKey> = StdHeap::new();
        let (mut top_pops, mut bottom_pops) = (0, 0);
        for (op, run, value) in ops {
            let record = RunRecord::new(value, run);
            match op {
                // Push onto the top (0, 1) or the bottom (2, 3) side.
                0..=3 => {
                    let side = if op < 2 { HeapSide::Top } else { HeapSide::Bottom };
                    let full = top.len() + bottom.len() == capacity;
                    match dual.push(side, record) {
                        Err(rejected) => {
                            prop_assert!(full);
                            prop_assert_eq!(rejected.0, record);
                        }
                        Ok(()) => {
                            prop_assert!(!full);
                            match side {
                                HeapSide::Top => top.push(Reverse((run, value))),
                                HeapSide::Bottom => bottom.push((Reverse(run), value)),
                            }
                        }
                    }
                }
                4 => {
                    let expected = top.pop().map(|Reverse((run, value))| RunRecord::new(value, run));
                    top_pops += u64::from(expected.is_some());
                    prop_assert_eq!(dual.pop(HeapSide::Top), expected);
                }
                _ => {
                    let expected = bottom.pop().map(|(Reverse(run), value)| RunRecord::new(value, run));
                    bottom_pops += u64::from(expected.is_some());
                    prop_assert_eq!(dual.pop(HeapSide::Bottom), expected);
                }
            }
            prop_assert_eq!(dual.debug_validate(), None);
            prop_assert_eq!(
                dual.peek(HeapSide::Top).copied(),
                top.peek().map(|&Reverse((run, value))| RunRecord::new(value, run))
            );
            prop_assert_eq!(
                dual.peek(HeapSide::Bottom).copied(),
                bottom.peek().map(|&(Reverse(run), value)| RunRecord::new(value, run))
            );
            prop_assert_eq!(dual.len_of(HeapSide::Top), top.len());
            prop_assert_eq!(dual.len_of(HeapSide::Bottom), bottom.len());
            prop_assert_eq!(dual.is_full(), top.len() + bottom.len() == capacity);
            prop_assert_eq!(dual.pops_from(HeapSide::Top), top_pops);
            prop_assert_eq!(dual.pops_from(HeapSide::Bottom), bottom_pops);
        }
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
        let mut heap = BinaryHeap::unbounded();
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
