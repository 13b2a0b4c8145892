//! Two-way Replacement Selection (2WRS) — the primary contribution of the
//! paper *"Two-way Replacement Selection"* (Martínez-Palau, Domínguez-Sal,
//! Larriba-Pey; VLDB 2010).
//!
//! Classic replacement selection generates long runs for random and
//! already-sorted inputs but collapses to memory-sized runs on
//! reverse-sorted or mixed inputs. 2WRS generalises it with:
//!
//! * **two heaps** sharing one memory budget (a min *TopHeap* feeding an
//!   increasing stream and a max *BottomHeap* feeding a decreasing stream),
//!   so ascending and descending trends in the input are both captured;
//! * an **input buffer** — a FIFO sample of the upcoming input used by the
//!   input heuristic to decide which heap receives each record;
//! * a **victim buffer** capturing records that fall in the gap between the
//!   two emitted streams, producing two extra streams per run;
//! * configurable **input and output heuristics** (§4.2), whose interaction
//!   the paper analyses with ANOVA in Chapter 5.
//!
//! The entry point is [`TwoWayReplacementSelection`], which implements the
//! [`twrs_extsort::RunGenerator`] and [`twrs_extsort::ShardableGenerator`]
//! traits and therefore plugs directly into [`twrs_extsort::SortJob`]:
//!
//! ```
//! use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
//! use twrs_extsort::SortJob;
//! use twrs_storage::{ModelId, SimDevice};
//! use twrs_workloads::{Distribution, DistributionKind};
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(1_000));
//! let input = Distribution::new(DistributionKind::ReverseSorted, 10_000, 1).records();
//! let report = SortJob::new(twrs).on(&device).run_iter(input, "sorted").unwrap();
//! // Reverse-sorted input: 2WRS produces a single run (Theorem 4), where
//! // classic RS would have produced 10 memory-sized runs.
//! assert_eq!(report.num_runs(), 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod heuristics;
pub mod input_buffer;
pub mod streams;
pub mod two_way;
pub mod victim;

pub use config::{BufferSetup, TwrsConfig};
pub use heuristics::input::InputHeuristic;
pub use heuristics::output::OutputHeuristic;
pub use input_buffer::InputBuffer;
pub use two_way::{TwoWayReplacementSelection, TwrsRunStats};
pub use victim::VictimBuffer;
