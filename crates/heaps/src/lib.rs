//! Heap data structures for replacement-selection style run generation.
//!
//! This crate provides the in-memory substrate of the paper *"Two-way
//! Replacement Selection"* (VLDB 2010). Every heap here runs on one
//! *upheap*/*downheap* pair (§3.1) over a slice under a `before(a, b)`
//! order:
//!
//! * [`BinaryHeap`] — a classic array-backed binary min-heap (wrap records
//!   in [`std::cmp::Reverse`] for a max-heap). Classic replacement
//!   selection runs Algorithm 1 on it as one sift per record: it writes the
//!   top it [`peek`](BinaryHeap::peek)s at, and the next input record takes
//!   the top's place through [`replace_top`](BinaryHeap::replace_top); it
//!   pops only once the input is exhausted.
//! * [`DualHeap`] — the paper's §4.1 structure: a TopHeap (min-heap) and a
//!   BottomHeap (max-heap) under **one shared capacity**, so one heap grows
//!   exactly when the other shrinks. Each side is its own vector rather
//!   than one end of a single fixed array: that layout needs an occupancy
//!   tag per slot in safe Rust and a test of it on every comparison.
//! * [`RunRecord`] — a record tagged with the run it belongs to; records
//!   marked for the *next* run order after every record of the *current*
//!   run, which is how both RS and 2WRS keep next-run records at the bottom
//!   of the heap (§3.3). The dual heap holds `RunRecord`s and applies this
//!   run-first order on both sides.
//! * [`heapsort`](mod@heapsort) — the §3.2 internal sorting algorithm, kept
//!   as an executable description of the paper and as a test oracle.
//!
//! The heaps are deliberately simple and fully safe. They reserve nothing
//! up front: each grows with the records it holds and never past its
//! capacity, so a memory budget far beyond the input costs nothing. Every
//! operation is `O(log n)` and the structures expose `debug_validate` hooks
//! used by the test-suite property tests.
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

pub use binary_heap::BinaryHeap;
pub use dual_heap::{DualHeap, HeapSide};
pub use heapsort::{heapsort, heapsort_by};
pub use run_record::RunRecord;
