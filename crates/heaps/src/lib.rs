//! Heap data structures for replacement-selection style run generation.
//!
//! This crate provides the in-memory substrate of the paper *"Two-way
//! Replacement Selection"* (VLDB 2010):
//!
//! * [`BinaryHeap`] — a classic array-backed binary heap with explicit
//!   `upheap`/`downheap` procedures (paper §3.1), parameterised over the
//!   ordering so the same code serves as a min-heap (TopHeap) and a
//!   max-heap (BottomHeap). Classic replacement selection runs Algorithm 1
//!   on it as one sift per record: it writes the top it
//!   [`peek`](BinaryHeap::peek)s at, and the next input record takes the
//!   top's place through [`replace_top`](BinaryHeap::replace_top); it pops
//!   only once the input is exhausted.
//! * [`DualHeap`] — the paper's §4.1 structure: a TopHeap (min-heap) and a
//!   BottomHeap (max-heap) stored in **one fixed array**, growing toward
//!   each other so one heap can grow at the expense of the other without
//!   dynamic allocation.
//! * [`RunRecord`] — a record tagged with the run it belongs to; records
//!   marked for the *next* run order after every record of the *current*
//!   run (and symmetrically for the max heap), which is how both RS and
//!   2WRS keep next-run records at the bottom of the heap (§3.3).
//! * [`heapsort`](mod@heapsort) — the §3.2 internal sorting algorithm, used both as a
//!   pedagogical baseline and as the victim-buffer sorter fallback.
//!
//! The heaps are deliberately simple, allocation-free after construction and
//! fully safe; every operation is `O(log n)` and the structures expose
//! `debug_validate` hooks used by the test-suite property tests.
//!
//! Everything here is generic over any `Ord` payload: the sort pipeline
//! instantiates these structures with `RunRecord<R>` for every
//! `twrs_storage::SortableRecord` it sorts, so no heap code ever names a
//! concrete record type.

#![warn(missing_docs)]

pub mod binary_heap;
pub mod dual_heap;
pub mod heapsort;
pub mod run_record;

pub use binary_heap::{BinaryHeap, HeapKind};
pub use dual_heap::{DualHeap, HeapSide, NaturalOrder, TwoWayOrder};
pub use heapsort::{heapsort, heapsort_by};
pub use run_record::RunRecord;
