//! Heap data structures for replacement-selection style run generation.
//!
//! This crate provides the in-memory substrate of the paper *"Two-way
//! Replacement Selection"* (VLDB 2010). Every heap here runs on one keyed
//! *upheap*/*downheap* pair (§3.1): each heap keeps a cached `u64` key per
//! record in an array beside its records, a sift compares keys, and only
//! equal keys fall back, out of line, to the heap's full `before(a, b)`
//! order. Keys must agree with that order wherever they differ (debug
//! builds assert it), so every record lands in the slot the full order
//! alone would give it:
//!
//! * [`BinaryHeap`] — a classic array-backed binary min-heap (wrap records
//!   in [`std::cmp::Reverse`] for a max-heap). Classic replacement
//!   selection runs Algorithm 1 on it as one sift per record: it writes the
//!   top it [`peek`](BinaryHeap::peek)s at, and the next input record takes
//!   the top's place through [`replace_top`](BinaryHeap::replace_top); it
//!   pops only once the input is exhausted. Built with
//!   [`keyed`](BinaryHeap::keyed) it caches each record's key for the
//!   current run and re-keys them all when a run starts
//!   ([`start_run`](BinaryHeap::start_run)).
//! * [`DualHeap`] — the paper's §4.1 structure: a TopHeap (min-heap) and a
//!   BottomHeap (max-heap) under **one shared capacity**, so one heap grows
//!   exactly when the other shrinks. Each side is its own pair of vectors
//!   rather than one end of a single fixed array: that layout needs an
//!   occupancy tag per slot in safe Rust and a test of it on every
//!   comparison. A run starts by installing both sides from a sorted sample
//!   in `O(n)` ([`DualHeap::start_run`]).
//! * [`RunRecord`] — a record tagged with the run it belongs to; records
//!   marked for the *next* run order after every record of the *current*
//!   run, which is how both RS and 2WRS keep next-run records at the bottom
//!   of the heap (§3.3). [`RunRecord::heap_key`] is the one rule that
//!   answers this run-first order from cached keys: a current-run record's
//!   sort key (its complement on the BottomHeap), `0` for an earlier run
//!   and `u64::MAX` for a later one.
//! * [`heapsort`](mod@heapsort) — the §3.2 internal sorting algorithm, kept
//!   as an executable description of the paper and as a test oracle.
//!
//! The heaps are deliberately simple and fully safe: a sift moves a hole
//! through the arrays and records move by `Clone`. They reserve nothing up
//! front: each grows with the records it holds and never past its
//! capacity, so a memory budget far beyond the input costs nothing. Every
//! operation is `O(log n)` and the structures expose `debug_validate` hooks
//! used by the test-suite property tests.
//!
//! Everything here is generic over any `Ord + Clone` payload and takes the
//! sort-key projection as a plain function: the sort pipeline instantiates
//! these structures with `RunRecord<R>` and `R::sort_key` for every
//! `twrs_storage::SortableRecord` it sorts, so no heap code ever names a
//! concrete record type. A heap built without a key
//! ([`BinaryHeap::bounded`], [`DualHeap::new`], heapsort) gives every
//! record the same one, and `Ord` decides every comparison.

#![warn(missing_docs)]

pub mod binary_heap;
pub mod dual_heap;
pub mod heapsort;
pub mod run_record;

pub use binary_heap::BinaryHeap;
pub use dual_heap::{DualHeap, HeapSide};
pub use heapsort::{heapsort, heapsort_by};
pub use run_record::RunRecord;
