//! Input workloads for the two-way replacement selection evaluation.
//!
//! Chapter 5 of the paper evaluates run generation on six characteristic
//! input distributions — *sorted*, *reverse sorted*, *alternating*,
//! *random*, *mixed balanced* and *mixed imbalanced* (Figure 5.1) — arguing
//! that realistic database inputs are combinations of these basic shapes
//! (e.g. sorting an anticorrelated column produces reverse-sorted input).
//! This crate provides:
//!
//! * [`record::Record`] — the fixed-size record sorted throughout the
//!   reproduction (a 64-bit key plus a 64-bit payload/row id);
//! * [`distributions::Distribution`] — seeded generators for the six
//!   distributions with the same ±U(1,1000) jitter the paper adds to make
//!   replicated executions differ;
//! * [`composite`] — the anticorrelated-columns database scenario used to
//!   motivate the basic shapes;
//! * [`dataset`] — helpers to materialise a workload onto a storage device
//!   and measure how sorted an input already is;
//! * [`user_event::UserEvent`] — a second, wider record type (32-byte
//!   event) with a monotone mapping from [`record::Record`], so every
//!   distribution can be replayed through the generic pipeline.
//!
//! Beyond the paper's six shapes, [`distributions::DistributionKind`] adds
//! *almost-sorted* (bounded displacement) and *duplicate-heavy* (low key
//! cardinality) inputs for the scenario matrix of `twrs-bench`, and
//! [`arrivals::ArrivalTrace`] generates deterministic multi-tenant
//! job-arrival traces for the sort-service contention scenarios.

#![warn(missing_docs)]

pub mod arrivals;
pub mod composite;
pub mod dataset;
pub mod distributions;
pub mod record;
pub mod user_event;

pub use arrivals::{ArrivalTrace, JobArrival};
pub use composite::AnticorrelatedTable;
pub use dataset::{materialize, read_dataset, sortedness, DatasetStats};
pub use distributions::{Distribution, DistributionKind, KEY_RANGE};
pub use record::Record;
pub use user_event::UserEvent;
