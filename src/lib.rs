//! Facade crate for the *Two-way Replacement Selection* (VLDB 2010)
//! reproduction.
//!
//! The implementation lives in the workspace member crates; this crate
//! re-exports them under stable names so applications can depend on a single
//! crate, and hosts the repository-level examples and cross-crate
//! integration tests.
//!
//! * [`heaps`] — binary heap, shared dual-heap array, heapsort.
//! * [`storage`] — page devices (real and simulated), run files, the
//!   Appendix A reverse-record file format, I/O accounting and the
//!   [`SortableRecord`](storage::SortableRecord) trait every record type
//!   sorted by the pipeline implements.
//! * [`workloads`] — the default paper record and the six evaluation input
//!   distributions.
//! * [`extsort`] — run-generation trait and baselines (classic replacement
//!   selection, Load-Sort-Store), k-way and polyphase merging, distribution
//!   sort, and the [`SortJob`](extsort::SortJob) builder that runs the
//!   external sort pipeline at any thread count.
//! * [`core`] — two-way replacement selection itself (the paper's
//!   contribution).
//! * [`analysis`] — ANOVA, the design-of-experiments runner, the snowplow
//!   model of RS and the closed-form run-length theory.
//!
//! # Quick start
//!
//! One builder drives the whole pipeline. Pick a run-generation algorithm,
//! bind a device, and run:
//!
//! ```
//! use two_way_replacement_selection::prelude::*;
//!
//! // An in-memory simulated disk and a reverse-sorted input — the worst
//! // case of classic replacement selection.
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let input = Distribution::new(DistributionKind::ReverseSorted, 50_000, 7);
//!
//! let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(1_000));
//! let report = SortJob::new(twrs)
//!     .on(&device)
//!     .verify(true)
//!     .run_iter(input.records(), "sorted")
//!     .expect("sort succeeds");
//!
//! assert_eq!(report.report.records, 50_000);
//! // Theorem 4: a single run, where RS would have produced 50.
//! assert_eq!(report.report.num_runs, 1);
//! ```
//!
//! # Going parallel
//!
//! The thread count is the only thing that changes; `threads(1)` (the
//! default) runs every stage inline on the calling thread, anything larger
//! shards run generation over worker threads, moves spill writes to
//! dedicated writer threads and prefetches every merge input in the
//! background. The *total* memory budget is unchanged — each shard's
//! generator gets `memory / threads` records — and the sorted output is
//! **byte-identical** across thread counts:
//!
//! ```
//! use two_way_replacement_selection::prelude::*;
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let input = Distribution::new(DistributionKind::MixedBalanced, 20_000, 7);
//!
//! let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(1_000));
//! let report = SortJob::new(twrs)
//!     .on(&device)
//!     .threads(4)
//!     .verify(true)
//!     .run_iter(input.records(), "sorted")
//!     .expect("sort succeeds");
//!
//! assert_eq!(report.report.records, 20_000);
//! assert_eq!(report.shards.as_ref().map(Vec::len), Some(4));
//! // Aggregated I/O counters reconcile with the per-shard sums.
//! assert!(report.io_is_consistent());
//! ```
//!
//! # Bring your own record type
//!
//! Every layer of the pipeline is generic over
//! [`SortableRecord`](storage::SortableRecord): a fixed-size serialization,
//! a total order, and an optional cached `u64` key projection that feeds the
//! 2WRS heuristics. The paper's `Record` (64-bit key + 64-bit payload) is
//! just the default. A 32-byte event record with an 8-byte string-prefix
//! key sorts through the exact same machinery:
//!
//! ```
//! use two_way_replacement_selection::prelude::*;
//! use two_way_replacement_selection::storage::{FixedSizeRecord, SortableRecord};
//!
//! #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
//! struct UserEvent {
//!     /// First 8 bytes of the user id; lexicographic order.
//!     prefix: [u8; 8],
//!     timestamp: u64,
//!     payload: [u8; 16],
//! }
//!
//! impl FixedSizeRecord for UserEvent {
//!     const SIZE: usize = 32;
//!
//!     fn write_to(&self, buf: &mut [u8]) {
//!         buf[0..8].copy_from_slice(&self.prefix);
//!         buf[8..16].copy_from_slice(&self.timestamp.to_le_bytes());
//!         buf[16..32].copy_from_slice(&self.payload);
//!     }
//!
//!     fn read_from(buf: &[u8]) -> Self {
//!         UserEvent {
//!             prefix: buf[0..8].try_into().expect("8 bytes"),
//!             timestamp: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
//!             payload: buf[16..32].try_into().expect("16 bytes"),
//!         }
//!     }
//! }
//!
//! impl SortableRecord for UserEvent {
//!     // The cached-key hook: a u64 projection of the leading sort key,
//!     // monotone with respect to Ord. The merge decides comparisons on it
//!     // whenever two keys differ, and the 2WRS heuristics use it.
//!     fn sort_key(&self) -> u64 {
//!         u64::from_be_bytes(self.prefix)
//!     }
//! }
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let events = (0..5_000u64).rev().map(|i| UserEvent {
//!     prefix: (i % 257 * 1_000_003).to_be_bytes(),
//!     timestamp: i,
//!     payload: [0; 16],
//! });
//! let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(500));
//! let report = SortJob::new(twrs)
//!     .on(&device)
//!     .verify(true)
//!     .run_iter(events, "events-sorted")
//!     .expect("sort succeeds");
//! assert_eq!(report.report.records, 5_000);
//! ```
//!
//! # Streaming consumers
//!
//! `run_iter` always pays one full write pass for the final output file.
//! When the caller only wants to *iterate* the sorted records once — top-k,
//! merge-join, dedup, a bulk load into another system — that pass is pure
//! waste. Two alternatives remove it:
//!
//! * [`SortJob::stream_iter`](extsort::BoundSortJob::stream_iter) (and
//!   `stream_file` / `stream_file_as` for materialised datasets) returns a
//!   lazy [`SortedStream`]: run generation and the
//!   intermediate merge passes run eagerly, but the final k-way merge is
//!   suspended and performed on `next()`. No output file is ever written —
//!   the stream's report pins `final_pass_pages_written == 0`. The stream
//!   owns the sort's spill files and removes them when it is consumed,
//!   closed or dropped, so even a `take(k)` that abandons the stream early
//!   leaves the device clean.
//! * [`SortJob::sink_iter`](extsort::BoundSortJob::sink_iter) drains the
//!   final merge into any [`RecordSink`](extsort::RecordSink): a
//!   [`VecSink`](extsort::VecSink), a [`CallbackSink`](extsort::CallbackSink),
//!   a bounded [`ChannelSink`](extsort::ChannelSink) feeding a consumer
//!   thread, or a [`FileSink`](extsort::FileSink) (which is exactly what
//!   `run_iter` wraps).
//!
//! Top-k without a final write pass:
//!
//! ```
//! use two_way_replacement_selection::prelude::*;
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let input = Distribution::new(DistributionKind::RandomUniform, 20_000, 3);
//!
//! let stream = SortJob::new(ReplacementSelection::new(500))
//!     .on(&device)
//!     .threads(2)
//!     .stream_iter(input.records())
//!     .expect("sort runs");
//! assert_eq!(stream.report().final_pass, FinalPassKind::Streamed);
//! assert_eq!(stream.report().final_pass_pages_written(), 0);
//!
//! let top_10: Vec<Record> = stream.take(10).collect::<Result<_, _>>().unwrap();
//! assert!(top_10.windows(2).all(|w| w[0] <= w[1]));
//! // The abandoned stream cleaned its spill files up on drop.
//! assert!(device.list().is_empty());
//! ```
//!
//! A merge-join over two independently sorted streams works the same way —
//! see `examples/merge_join.rs`; `examples/top_k.rs` measures the pages the
//! stream saves against `run_iter`.
//!
//! # Many jobs, one budget: the sort service
//!
//! Every blocking entry point above runs *one* job with the memory its
//! generator asks for. A [`SortService`](extsort::SortService) runs a
//! *stream* of jobs from many tenants under one global memory budget:
//! [`submit`](extsort::SortService::submit) returns a
//! [`JobHandle`](extsort::JobHandle) immediately (with `wait`,
//! `try_status` and `cancel`), workers pick jobs up in per-tenant
//! round-robin order, and a global
//! [`MemoryArbiter`](extsort::MemoryArbiter) re-leases each job's budget
//! at admission so `sum(per-job budgets) <= global` holds at every
//! rebalance point. Submitted jobs run through the same staged pipeline as
//! the blocking `run_*`/`sink_*`/`stream_*` calls, so a service job's
//! output is byte-identical to the same job run directly.
//!
//! Cancellation is cooperative preemption: `cancel()` sets a
//! [`CancellationToken`](extsort::CancellationToken) the pipeline polls at
//! phase and page boundaries, so even a *running* job stops promptly,
//! deletes its spill files, returns its whole lease and completes
//! `Canceled`. Tenants can be weighted with
//! [`ServiceConfig::tenant_priority`](extsort::ServiceConfig::tenant_priority):
//! a [`Priority`](extsort::Priority) weight scales both the tenant's share
//! of queue turns and its per-job memory cap under either grant policy.
//!
//! ```
//! use two_way_replacement_selection::prelude::*;
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let service = SortService::new(ServiceConfig::new(300).workers(2)).unwrap();
//! let handles: Vec<JobHandle> = (0..4)
//!     .map(|i| {
//!         let input = Distribution::new(DistributionKind::RandomUniform, 2_000, i);
//!         let job = SortJob::new(ReplacementSelection::new(200)).on(&device);
//!         service
//!             .submit(format!("tenant-{}", i % 2), job, input.records(), format!("out-{i}"))
//!             .unwrap()
//!     })
//!     .collect();
//! for handle in handles {
//!     let done = handle.wait().unwrap();
//!     assert_eq!(done.report.report.records, 2_000);
//!     assert!(done.granted_memory <= 300);
//! }
//! let report = service.shutdown();
//! assert_eq!(report.jobs_completed, 4);
//! assert!(report.max_leased <= report.global_memory_records);
//! ```
//!
//! # Migrating from the pre-builder entry points
//!
//! | before                                                   | after                                                        |
//! |----------------------------------------------------------|--------------------------------------------------------------|
//! | `RunCursor::open(…)` (implicitly `Record`)               | `RecordRunCursor::open(…)` or `RunCursor::<R>::open(…)`      |
//! | `run_iter(it, "out")` + `RecordRunCursor` scan of `"out"` | `stream_iter(it)` — same records, no `"out"` file, no final write pass |
//! | `run_iter(it, "out")` + custom post-processing of `"out"` | `sink_iter(it, &mut sink)` with a [`RecordSink`](extsort::RecordSink) |
//! | a loop of blocking `run_iter` calls over many datasets    | `SortService::submit(tenant, job, input, output)` per dataset, then `JobHandle::wait` — same outputs, jobs overlap under the global budget |
//! | hand-rolled worker threads + per-job memory bookkeeping   | [`SortService`](extsort::SortService) with a [`MemoryArbiter`](extsort::MemoryArbiter); the arbiter enforces `sum(leases) <= global` at every rebalance |
//! | killing a worker thread to abandon a sort                 | `JobHandle::cancel()` — the running job observes its [`CancellationToken`](extsort::CancellationToken) at the next phase/page boundary, deletes its spill files, returns its lease and completes `Canceled` |
//! | a dedicated "high-priority" service instance per tenant tier | one service with [`ServiceConfig::tenant_priority`](extsort::ServiceConfig::tenant_priority)`("gold", `[`Priority::with_weight`](extsort::Priority::with_weight)`(3))` — weighted queue turns and memory caps, one global budget |
//! | a hard-wired device constructor in CLI/bench plumbing     | parse a [`DeviceSpec`](storage::DeviceSpec) (`"sim:nvme"`, `"real:/path:8192"`) and [`build`](storage::DeviceSpec::build) it — the returned [`AnyDevice`](storage::AnyDevice) plugs into every job/service entry point |
//!
//! `run_file` and `stream_file` are provided for the default [`Record`] by
//! the [`RecordJobExt`] extension trait in the [`prelude`]; for any other
//! record type use `run_file_as::<R>` / `stream_file_as::<R>`, since a file
//! name cannot reveal its record type.

#![warn(missing_docs)]

pub use twrs_analysis as analysis;
pub use twrs_core as core;
pub use twrs_extsort as extsort;
pub use twrs_heaps as heaps;
pub use twrs_storage as storage;
pub use twrs_workloads as workloads;

use extsort::{BoundSortJob, Device, Result, ShardableGenerator, SortJobReport, SortedStream};
use workloads::Record;

/// Cursor over runs of the default paper [`Record`] —
/// the pre-redesign `RunCursor`, which was not generic.
pub type RecordRunCursor = extsort::RunCursor<Record>;

/// Reader over datasets of the default paper [`Record`].
pub type RecordRunReader = storage::RunReader<Record>;

/// Record-typed `run_file` and `stream_file` for the
/// [`SortJob`](extsort::SortJob) builder, specialised to the default paper
/// [`Record`].
///
/// Exported by the [`prelude`]; for other record types use
/// `run_file_as::<R>` / `stream_file_as::<R>`.
pub trait RecordJobExt {
    /// Sorts a materialised dataset of default records into the forward
    /// run file `output` on the job's device.
    fn run_file(self, input: &str, output: &str) -> Result<SortJobReport>;

    /// Sorts a materialised dataset of default records into a lazy
    /// [`SortedStream`] — same record sequence as
    /// [`run_file`](RecordJobExt::run_file)'s output file, but merged on
    /// read with zero final-pass write I/O.
    fn stream_file(self, input: &str) -> Result<SortedStream<Record>>;
}

impl<G: ShardableGenerator, D: Device> RecordJobExt for BoundSortJob<G, D> {
    fn run_file(self, input: &str, output: &str) -> Result<SortJobReport> {
        self.run_file_as::<Record>(input, output)
    }

    fn stream_file(self, input: &str) -> Result<SortedStream<Record>> {
        self.stream_file_as::<Record>(input)
    }
}

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::{RecordJobExt, RecordRunCursor, RecordRunReader};
    pub use twrs_core::{
        BufferSetup, InputHeuristic, OutputHeuristic, TwoWayReplacementSelection, TwrsConfig,
    };
    pub use twrs_extsort::{
        BoundSortJob, BudgetedGenerator, CallbackSink, CancellationToken, ChannelSink,
        CompletedJob, FileSink, FinalPassKind, GrantPolicy, JobHandle, JobStatus, LoadSortStore,
        MergeConfig, Priority, RecordSink, ReplacementSelection, RunCursor, RunGenerator,
        RunHandle, ServiceConfig, ServiceReport, ShardableGenerator, SortJob, SortJobReport,
        SortReport, SortService, SortedStream, SorterConfig, VecSink,
    };
    pub use twrs_storage::{
        AnyDevice, DeviceSpec, DirectIoStatus, ModelId, RealFileDevice, ScopedDevice, SimDevice,
        SortableRecord, SpillNamer, StorageDevice, StripedDevice,
    };
    pub use twrs_workloads::{ArrivalTrace, Distribution, DistributionKind, JobArrival, Record};
}
