//! External merge-sort substrate: run generation baselines, the merge
//! phase, distribution sort and the end-to-end external sorter.
//!
//! The paper's contribution (two-way replacement selection, crate
//! `twrs-core`) is one *run-generation* algorithm inside a larger external
//! sorting pipeline (Chapter 2). This crate provides everything else that
//! pipeline needs, so 2WRS and the baselines can be compared apples to
//! apples:
//!
//! * [`run_generation`] — the [`run_generation::RunGenerator`] trait, the
//!   description of a generated run set and unified cursors over forward and
//!   reverse (Appendix A) run files;
//! * [`load_sort_store`] — the Load-Sort-Store baseline of §2.1.1;
//! * [`replacement_selection`] — classic replacement selection (Algorithm 1);
//! * [`merge`] — the k-way merge with a tournament (loser) tree, multi-pass
//!   merging with a configurable fan-in and per-run read-ahead (§2.1.2,
//!   §6.1.1), plus polyphase merge (Table 2.1);
//! * [`distribution_sort`] — external bucket/distribution sort (§2.2);
//! * [`sort_job`] — [`sort_job::SortJob`], the builder-style front door
//!   and the only way to run a sort
//!   (`SortJob::new(g).on(&device).threads(n).run_iter(input, "out")`);
//! * [`sorter`] — the staged pipeline a job runs (generate → reduce →
//!   finish), the run-generation + merge pipeline measured in Chapter 6,
//!   instrumented with per-phase I/O and timing reports;
//! * [`sink`] — the [`sink::RecordSink`] output abstraction: the final
//!   merge pass drains into a device file, a `Vec`, a callback or a bounded
//!   channel (`run_iter`/`run_file` are thin wrappers over the file sink);
//! * [`stream`] — [`stream::SortedStream`], the pull-style counterpart: the
//!   final k-way merge is suspended and performed lazily on `next()`, so a
//!   streaming consumer pays **zero** final-output write I/O;
//! * [`service`] — [`service::SortService`], the multi-tenant front end:
//!   a bounded job queue with round-robin tenant fairness, an admission
//!   controller leasing per-job memory from one global budget
//!   (`sum(per-job budgets) <= global` at every rebalance), and a
//!   submission-handle API (`submit` → [`service::JobHandle`] with
//!   `wait`/`try_status`/`cancel`), with per-tenant
//!   [`service::Priority`] classes weighting both the dequeue
//!   rotation and the memory grant;
//! * [`cancel`] — [`cancel::CancellationToken`], the cooperative
//!   cancellation flag the service threads into the phase loops so a
//!   *running* job observes `cancel()` at the next phase/page boundary,
//!   cleans up its spill files and completes as `Canceled`;
//! * [`parallel`] — the pipeline's stages at `threads > 1`: run
//!   generation fans out over budget-divided worker threads, spill writes
//!   move to dedicated writer threads behind bounded channels, and the
//!   merge prefetches every input run in the background. Produces output
//!   byte-identical to a one-thread job.

#![warn(missing_docs)]

pub mod cancel;
pub mod distribution_sort;
pub mod error;
pub mod load_sort_store;
pub mod merge;
pub mod parallel;
pub mod replacement_selection;
pub mod run_generation;
pub mod service;
pub mod sink;
pub mod sort_job;
pub mod sorter;
pub mod stream;
pub mod sync;

pub use cancel::CancellationToken;
pub use error::{Result, SortError};
pub use load_sort_store::LoadSortStore;
pub use merge::kway::{KWayMerger, MergeConfig};
pub use merge::polyphase::{polyphase_merge, polyphase_schedule};
pub use parallel::{shard_budget, ShardReport, ShardableGenerator, SpillWriteDevice};
pub use replacement_selection::ReplacementSelection;
pub use run_generation::{
    BudgetedGenerator, Device, ForwardRunBuilder, ReverseRunBuilder, RunCursor, RunGenerator,
    RunHandle, RunSet,
};
pub use service::{
    CompletedJob, GrantPolicy, JobHandle, JobStatus, LatencyPercentiles, MemoryArbiter, Priority,
    RebalanceEvent, RebalanceKind, ServiceConfig, ServiceReport, SortService, TenantReport,
};
pub use sink::{CallbackSink, ChannelSink, FileSink, RecordSink, VecSink};
pub use sort_job::{BoundSortJob, SortJob, SortJobReport};
pub use sorter::{FinalPassKind, PhaseReport, SortReport, SorterConfig};
pub use stream::SortedStream;
