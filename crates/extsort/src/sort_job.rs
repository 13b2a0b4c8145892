//! The builder-style front door of the whole sorting pipeline.
//!
//! [`SortJob`] is the only way to run a sort: it describes the work once
//! and runs it through the staged pipeline of [`sorter`](crate::sorter):
//!
//! ```
//! use twrs_extsort::{ReplacementSelection, SortJob};
//! use twrs_storage::{ModelId, SimDevice};
//! use twrs_workloads::{Distribution, DistributionKind};
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let input = Distribution::new(DistributionKind::RandomUniform, 10_000, 7);
//! let report = SortJob::new(ReplacementSelection::new(200))
//!     .on(&device)
//!     .threads(4)
//!     .verify(true)
//!     .run_iter(input.records(), "sorted")
//!     .expect("sort succeeds");
//! assert_eq!(report.report.records, 10_000);
//! assert_eq!(report.threads, 4);
//! ```
//!
//! `threads(1)` (the default) runs every stage inline on the calling
//! thread; any larger count shards run generation over worker threads, and
//! on a device with wall-clock latency also spills through writer threads
//! and reads merge input through prefetch threads. Every thread count
//! produces **byte-identical** output for the same input, so it is purely a
//! performance knob. The record type is a free parameter: `run_iter`
//! infers it from the input iterator, `run_file_as` takes it explicitly (a
//! file name cannot reveal it).

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::merge::kway::MergeConfig;
use crate::parallel::{ShardReport, ShardableGenerator};
use crate::run_generation::{Device, Feed};
use crate::sink::RecordSink;
use crate::sorter::{FinalPassKind, Output, PhaseReport, Pipeline, SortReport};
use crate::stream::{unique_namespace, SortedStream};
use twrs_storage::{IoStatsSnapshot, SortableRecord};

/// The report of one [`SortJob`] run: the per-phase [`SortReport`], how the
/// final pass delivered the output and, when the job ran sharded, the
/// per-shard breakdown of run generation.
///
/// Phases are attributed from device-level snapshot deltas at every thread
/// count, so run generation includes coordinator-side input reads (e.g.
/// the `run_file` dataset scan). The shards perform all of the phase's
/// *writes*, so for a sharded job the aggregated `pages_written` equals
/// the field-wise shard sum ([`shard_io_sum`](SortJobReport::shard_io_sum))
/// by construction; shard seeks are measured by each shard's private head
/// model (see [`ScopedDevice`](twrs_storage::ScopedDevice)).
#[derive(Debug, Clone)]
pub struct SortJobReport {
    /// Aggregated per-phase report, identical in shape at every thread
    /// count (directly comparable across thread counts).
    pub report: SortReport,
    /// Number of generation threads the job used (1 = every stage inline).
    pub threads: usize,
    /// Per-shard breakdown of the run-generation phase; `None` when the
    /// job ran on one thread.
    pub shards: Option<Vec<ShardReport>>,
    /// How the final merge pass delivered the output: a device file
    /// (`run_iter`/`run_file`), a caller [`RecordSink`] (`sink_iter`), or a
    /// suspended [`SortedStream`] (`stream_iter`/`stream_file_as`). The
    /// bench suite uses this together with
    /// [`final_pass_pages_written`](SortJobReport::final_pass_pages_written)
    /// to attribute the write pass a streaming consumer saves.
    pub final_pass: FinalPassKind,
}

impl SortJobReport {
    /// `true` when the job sharded run generation over worker threads.
    pub fn is_parallel(&self) -> bool {
        self.shards.is_some()
    }

    /// Pages written by the final merge pass alone — `0` for a streamed
    /// job, the output-file write for a file job.
    pub fn final_pass_pages_written(&self) -> u64 {
        self.report.final_pass_pages_written
    }

    /// Number of runs the generation phase produced.
    pub fn num_runs(&self) -> usize {
        self.report.num_runs
    }

    /// Average run length in records.
    pub fn average_run_length(&self) -> f64 {
        self.report.average_run_length
    }

    /// The phases the job measured, in pipeline order: run generation,
    /// merge and (when enabled) the verification scan.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseReport> {
        [&self.report.run_generation, &self.report.merge]
            .into_iter()
            .chain(self.report.verify.as_ref())
    }

    /// Pages read across every measured phase (including the optional
    /// verification scan).
    pub fn total_pages_read(&self) -> u64 {
        self.phases().map(|p| p.pages_read).sum()
    }

    /// Pages written across every measured phase.
    pub fn total_pages_written(&self) -> u64 {
        self.phases().map(|p| p.pages_written).sum()
    }

    /// Seeks across every measured phase.
    pub fn total_seeks(&self) -> u64 {
        self.phases().map(|p| p.seeks).sum()
    }

    /// Simulated I/O time across every measured phase — deterministic on
    /// the simulated device, which makes it comparable across machines.
    pub fn total_simulated_io(&self) -> std::time::Duration {
        self.phases().map(|p| p.simulated_io).sum()
    }

    /// Wall-clock time across every measured phase.
    pub fn total_wall(&self) -> std::time::Duration {
        self.phases().map(|p| p.wall).sum()
    }

    /// Input records sorted per wall-clock second, over all phases; `0.0`
    /// when the job finished too fast for the clock to register.
    pub fn records_per_second(&self) -> f64 {
        let secs = self.total_wall().as_secs_f64();
        if secs > 0.0 {
            self.report.records as f64 / secs
        } else {
            0.0
        }
    }

    /// Field-wise sum of the per-shard run-generation I/O counters (zero
    /// for a job that did not shard its input).
    pub fn shard_io_sum(&self) -> IoStatsSnapshot {
        let shards = self.shards.as_deref().unwrap_or_default();
        shards
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, s| acc.merged(&s.io))
    }

    /// `true` when the report's I/O accounting is internally consistent —
    /// the invariant the equivalence suite pins. For a sharded job:
    ///
    /// * the aggregated run-generation `pages_written` equals the
    ///   field-wise sum of the per-shard counters (the shards perform all
    ///   of the phase's writes);
    /// * the aggregated `pages_read` covers at least the shards' own reads
    ///   (the remainder is coordinator-side input reading, which belongs
    ///   to the phase but to no shard);
    /// * the shard record counts sum to the total.
    ///
    /// Trivially `true` for a one-thread job, whose phases are measured
    /// directly on the device.
    pub fn io_is_consistent(&self) -> bool {
        let Some(shards) = &self.shards else {
            return true;
        };
        let sum = self.shard_io_sum();
        let gen = &self.report.run_generation;
        let records: u64 = shards.iter().map(|s| s.records).sum();
        sum.counters.pages_written == gen.pages_written
            && gen.pages_read >= sum.counters.pages_read
            && records == self.report.records
    }
}

/// Builder describing a sort before a device is attached; created with
/// [`SortJob::new`] and bound to a device with [`SortJob::on`].
///
/// See the [module documentation](self) for the full chain.
#[derive(Debug, Clone)]
pub struct SortJob<G> {
    pub(crate) generator: G,
    pub(crate) threads: usize,
    pub(crate) merge: MergeConfig,
    pub(crate) verify: bool,
    pub(crate) cancel: CancellationToken,
}

impl<G> SortJob<G> {
    /// Starts describing a sort that uses `generator` for run generation.
    ///
    /// Defaults: one thread (every stage inline), no verification pass, and
    /// the default [`MergeConfig`].
    pub fn new(generator: G) -> Self {
        SortJob {
            generator,
            threads: 1,
            merge: MergeConfig::default(),
            verify: false,
            cancel: CancellationToken::new(),
        }
    }

    /// Sets the number of generation threads. `1` (the default) runs every
    /// stage inline on the calling thread; larger counts shard run
    /// generation with the generator's memory budget divided across shards.
    /// On a device with wall-clock latency
    /// ([`has_wall_clock_latency`](twrs_storage::StorageDevice::has_wall_clock_latency))
    /// they also spill through writer threads and read merge input through
    /// prefetch threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the post-merge verification scan (reported in
    /// its own phase window, never polluting the merge attribution).
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the merge-phase configuration (fan-in and per-run read-ahead).
    /// A fan-in below 2 fails the job before any I/O.
    pub fn merge(mut self, merge: MergeConfig) -> Self {
        self.merge = merge;
        self
    }

    /// Installs a cooperative [`CancellationToken`]. The pipeline's phase
    /// loops poll it at phase/page boundaries; once a clone of the
    /// token is [`cancel`](CancellationToken::cancel)ed, the job stops at
    /// the next boundary, removes its spill files (and any partial output)
    /// and returns [`SortError::Canceled`]. The
    /// [`SortService`](crate::service::SortService) wires the token of
    /// every submitted job to its [`JobHandle`](crate::service::JobHandle).
    pub fn cancel_token(mut self, cancel: CancellationToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Binds the job to a storage device, after which it can run.
    ///
    /// The device handle is cloned; every [`Device`] in this workspace is a
    /// cheap shared handle onto the same underlying storage.
    pub fn on<D: Device>(self, device: &D) -> BoundSortJob<G, D> {
        BoundSortJob {
            job: self,
            device: device.clone(),
        }
    }

    /// Rejects a job no sort can run — no thread, or a merge fan-in below
    /// 2 — so that it fails before any I/O, or before a service queues it.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(SortError::InvalidConfig(
                "a sort job needs at least one thread".into(),
            ));
        }
        if self.merge.fan_in < 2 {
            return Err(SortError::InvalidConfig(
                "merge fan-in must be at least 2".into(),
            ));
        }
        Ok(())
    }
}

/// A [`SortJob`] bound to a device: the runnable form of the builder.
///
/// All of [`SortJob`]'s setters are available here too, so the chain order
/// does not matter.
#[derive(Debug, Clone)]
pub struct BoundSortJob<G, D: Device> {
    pub(crate) job: SortJob<G>,
    pub(crate) device: D,
}

impl<G, D: Device> BoundSortJob<G, D> {
    /// Sets the number of generation threads; see [`SortJob::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.job = self.job.threads(threads);
        self
    }

    /// Enables or disables the verification scan; see [`SortJob::verify`].
    pub fn verify(mut self, verify: bool) -> Self {
        self.job = self.job.verify(verify);
        self
    }

    /// Sets the merge-phase configuration; see [`SortJob::merge`].
    pub fn merge(mut self, merge: MergeConfig) -> Self {
        self.job = self.job.merge(merge);
        self
    }

    /// Installs a cooperative cancellation token; see
    /// [`SortJob::cancel_token`].
    pub fn cancel_token(mut self, cancel: CancellationToken) -> Self {
        self.job = self.job.cancel_token(cancel);
        self
    }

    /// Sorts the records produced by `input` into the forward run file
    /// `output` on the bound device and returns the unified report.
    pub fn run_iter<R: SortableRecord>(
        self,
        mut input: impl Iterator<Item = R>,
        output: &str,
    ) -> Result<SortJobReport>
    where
        G: ShardableGenerator,
    {
        Pipeline::new(self, format!("sort-{output}"))?
            .run(Feed::Iter(&mut input), Output::File(output))
    }

    /// Sorts the records produced by `input` straight into `sink`: the
    /// final merge pass drains into the sink, so a non-file sink performs
    /// **zero final-output page writes** — no output file exists at all.
    ///
    /// The report's `final_pass` is [`FinalPassKind::Sink`]; the
    /// verification flag is file-specific and ignored (the sink receives
    /// ascending records by construction). If the sink fails mid-drain the
    /// job removes every remaining run and spill file before returning the
    /// error.
    pub fn sink_iter<R: SortableRecord, K>(
        self,
        mut input: impl Iterator<Item = R>,
        mut sink: &mut K,
    ) -> Result<SortJobReport>
    where
        G: ShardableGenerator,
        K: RecordSink<R> + ?Sized,
    {
        Pipeline::new(self, unique_namespace("sort-sink"))?
            .run(Feed::Iter(&mut input), Output::Sink(&mut sink))
    }

    /// Sorts the records produced by `input` into a lazy [`SortedStream`]:
    /// run generation and the intermediate merge passes execute eagerly,
    /// but the final k-way merge is suspended into the returned iterator
    /// and performed on `next()` — no output file and zero final-pass write
    /// I/O. At `threads > 1` on a device with wall-clock latency, one
    /// background prefetch thread per surviving run keeps feeding the
    /// stream.
    ///
    /// The stream yields exactly the record sequence `run_iter` would have
    /// written, owns the sort's spill files, and removes them when it is
    /// consumed, [`close`](SortedStream::close)d or dropped. Its
    /// [`report`](SortedStream::report) snapshot has
    /// `final_pass == `[`FinalPassKind::Streamed`].
    pub fn stream_iter<R: SortableRecord>(
        self,
        mut input: impl Iterator<Item = R>,
    ) -> Result<SortedStream<R>>
    where
        G: ShardableGenerator,
    {
        Pipeline::new(self, unique_namespace("sort-stream"))?.stream(Feed::Iter(&mut input))
    }

    /// Sorts a dataset of `R` records previously materialised on the bound
    /// device into a lazy [`SortedStream`]; the streaming counterpart of
    /// [`run_file_as`](BoundSortJob::run_file_as). Call as
    /// `.stream_file_as::<MyRecord>(…)` (a file name cannot reveal its
    /// record type); the facade crate provides a `stream_file` extension
    /// method for the default paper record.
    ///
    /// A corrupt or truncated input surfaces as an error, never a panic: a
    /// header the file cannot hold fails before the sort starts, and a page
    /// that fails to read ends the sort after run generation, before any
    /// merge. The sort's spill files are removed before the error is
    /// returned.
    pub fn stream_file_as<R: SortableRecord>(self, input: &str) -> Result<SortedStream<R>>
    where
        G: ShardableGenerator,
    {
        self.job.validate()?;
        let input = Feed::dataset(&self.device, input)?;
        Pipeline::new(self, unique_namespace("sort-stream"))?.stream(input)
    }

    /// Sorts a dataset of `R` records previously materialised on the bound
    /// device (see `twrs_workloads::materialize`) into the forward run file
    /// `output`.
    ///
    /// The record type cannot be inferred from the file names, so call
    /// this as `.run_file_as::<MyRecord>(…)`. For the default paper record
    /// the facade crate provides a `run_file` extension method. A corrupt
    /// or truncated input surfaces as an error, never a panic: a header the
    /// file cannot hold fails before the sort starts, and a page that fails
    /// to read ends the sort after run generation, before any merge, so
    /// `output` is never created.
    pub fn run_file_as<R: SortableRecord>(self, input: &str, output: &str) -> Result<SortJobReport>
    where
        G: ShardableGenerator,
    {
        self.job.validate()?;
        let input = Feed::<R>::dataset(&self.device, input)?;
        Pipeline::new(self, format!("sort-{output}"))?.run(input, Output::File(output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SortError;
    use crate::load_sort_store::LoadSortStore;
    use crate::replacement_selection::ReplacementSelection;
    use twrs_storage::RunReader;
    use twrs_storage::{ModelId, SimDevice};
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn read_records(device: &SimDevice, name: &str) -> Vec<Record> {
        RunReader::<Record>::open(device, name)
            .unwrap()
            .read_all()
            .unwrap()
    }

    #[test]
    fn sequential_and_parallel_paths_agree() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::MixedBalanced, 3_000, 3);
        let seq = SortJob::new(ReplacementSelection::new(100))
            .on(&device)
            .verify(true)
            .run_iter(input.records(), "seq")
            .unwrap();
        let par = SortJob::new(ReplacementSelection::new(100))
            .on(&device)
            .threads(3)
            .verify(true)
            .run_iter(input.records(), "par")
            .unwrap();
        assert!(!seq.is_parallel());
        assert!(par.is_parallel());
        assert_eq!(par.shards.as_ref().map(Vec::len), Some(3));
        assert!(seq.io_is_consistent());
        assert!(par.io_is_consistent());
        assert_eq!(read_records(&device, "seq"), read_records(&device, "par"));
    }

    #[test]
    fn setters_compose_in_any_order() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 500, 9);
        let report = SortJob::new(LoadSortStore::new(64))
            .threads(2)
            .on(&device)
            .merge(MergeConfig {
                fan_in: 3,
                read_ahead_records: 16,
            })
            .verify(true)
            .run_iter(input.records(), "out")
            .unwrap();
        assert_eq!(report.threads, 2);
        assert_eq!(report.report.records, 500);
    }

    #[test]
    fn aggregate_accessors_sum_every_phase() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 2_000, 5);
        let job = SortJob::new(ReplacementSelection::new(100))
            .on(&device)
            .verify(true)
            .run_iter(input.records(), "out")
            .unwrap();
        let report = &job.report;
        let verify = report.verify.expect("verify phase present");
        assert_eq!(job.phases().count(), 3);
        assert_eq!(
            job.total_pages_read(),
            report.run_generation.pages_read + report.merge.pages_read + verify.pages_read
        );
        assert_eq!(
            job.total_pages_written(),
            report.run_generation.pages_written + report.merge.pages_written + verify.pages_written
        );
        assert_eq!(
            job.total_seeks(),
            report.run_generation.seeks + report.merge.seeks + verify.seeks
        );
        assert_eq!(job.num_runs(), report.num_runs);
        assert_eq!(job.average_run_length(), report.average_run_length);
        assert!(job.total_simulated_io() > std::time::Duration::ZERO);
        // 2000 records in some positive wall time.
        assert!(job.records_per_second() >= 0.0);
    }

    #[test]
    fn zero_threads_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let result = SortJob::new(LoadSortStore::new(64))
            .on(&device)
            .threads(0)
            .run_iter(std::iter::empty::<Record>(), "out");
        assert!(matches!(result, Err(SortError::InvalidConfig(_))));
    }
}
