//! The sort pipeline behind [`SortJob`](crate::SortJob): run generation
//! followed by a multi-pass k-way merge, in three stages.
//!
//! This is the pipeline the paper times in Chapter 6: the run-generation
//! algorithm (classic RS, Load-Sort-Store or 2WRS from the `twrs-core`
//! crate) is a plug-in, the merge phase and its fan-in are shared, and the
//! report splits wall-clock time and I/O between the two phases exactly like
//! the "run" and "total" series of Figures 6.2–6.7.
//!
//! 1. **generate** runs the generator inline on the calling thread at one
//!    thread; with more, it shards the input over worker threads (see
//!    [`parallel`](crate::parallel)).
//! 2. **reduce** merges the runs down to at most the merge fan-in: first
//!    per disk (sharded sorts on a stripe only), then by intermediate merge
//!    passes.
//! 3. **finish** runs the final merge step into a [`RecordSink`] — file
//!    output is a [`FileSink`] followed by the optional verify scan — or
//!    starts it and suspends it into a [`SortedStream`]. The step is the
//!    one every intermediate pass runs (see [`kway`](crate::merge::kway)):
//!    only the sink differs.
//!
//! Helper threads run only where there is latency to hide: at
//! `threads > 1` on a device that has wall-clock latency
//! ([`StorageDevice::has_wall_clock_latency`](twrs_storage::StorageDevice::has_wall_clock_latency)),
//! each shard spills through a writer thread and every run of the merge
//! passes after the per-disk reduction is read by a prefetch thread.
//! Anywhere else every run is written by its shard and read inline, so
//! each disk head has one reader at a time and
//! the page-level I/O order — with it every seek counter and simulated
//! nanosecond — is deterministic at any thread count. At one thread the
//! pipeline spawns no thread and creates no channel at all.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::merge::kway::{merge_step, reduce_to_fan_in, Merge, MergeConfig, MergeReport};
use crate::parallel::{generate_sharded, reduce_per_disk, ShardReport, ShardableGenerator};
use crate::run_generation::{Device, Feed, RecordSource, RunHandle, RunSet};
use crate::sink::{FileSink, RecordSink};
use crate::sort_job::{BoundSortJob, SortJobReport};
use crate::stream::SortedStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twrs_storage::{IoStatsSnapshot, RunReader, SortableRecord, SpillNamer};

/// Wall-clock time and I/O attributed to one phase of the sort.
#[derive(Debug, Clone, Copy)]
pub struct PhaseReport {
    /// Wall-clock time spent in the phase.
    pub wall: Duration,
    /// Pages read from the device during the phase.
    pub pages_read: u64,
    /// Pages written to the device during the phase.
    pub pages_written: u64,
    /// Seeks performed during the phase.
    pub seeks: u64,
    /// Elapsed time predicted by the device's disk model for the phase's
    /// I/O (deterministic; useful with the simulated device).
    pub simulated_io: Duration,
}

impl PhaseReport {
    pub(crate) fn from_delta(wall: Duration, delta: IoStatsSnapshot) -> Self {
        PhaseReport {
            wall,
            pages_read: delta.counters.pages_read,
            pages_written: delta.counters.pages_written,
            seeks: delta.counters.seeks,
            simulated_io: delta.simulated_time(),
        }
    }

    /// Wall-clock time plus the simulated I/O time; a deterministic proxy
    /// for total elapsed time on the in-memory device.
    pub fn modelled_total(&self) -> Duration {
        self.wall + self.simulated_io
    }
}

/// How the final merge pass of a sort delivered its output.
///
/// Every sort reduces its runs to at most the merge fan-in with
/// intermediate passes; the *final* pass is where the output shapes
/// diverge, and where the write I/O of a sort can disappear entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalPassKind {
    /// Drained into a named forward run file on the device
    /// (`run_iter` / `run_file`): one full write pass over the output.
    File,
    /// Drained into a caller-provided [`RecordSink`]; the device sees only
    /// whatever the sink itself writes (nothing, for the in-memory sinks).
    Sink,
    /// Suspended into a lazy [`SortedStream`] that merges on read: zero
    /// final-pass writes by construction.
    Streamed,
}

/// Per-phase report of one external sort; the `report` field of
/// [`SortJobReport`], which also says how the final pass delivered the
/// output.
#[derive(Debug, Clone)]
pub struct SortReport {
    /// Label of the run-generation algorithm ("RS", "2WRS", "LSS", …).
    pub generator: &'static str,
    /// Number of records sorted.
    pub records: u64,
    /// Number of runs the generation phase produced.
    pub num_runs: usize,
    /// Average run length in records.
    pub average_run_length: f64,
    /// Average run length divided by the memory budget (Table 5.13 metric).
    pub relative_run_length: f64,
    /// Run-generation phase cost.
    pub run_generation: PhaseReport,
    /// Merge phase cost.
    pub merge: PhaseReport,
    /// Cost of the optional post-merge verification scan
    /// ([`SortJob::verify`](crate::SortJob::verify)); `None` when
    /// verification was disabled.
    /// Reported separately so the extra read pass never pollutes the merge
    /// phase's I/O attribution.
    pub verify: Option<PhaseReport>,
    /// Merge statistics (steps and rewrite passes). For a streamed sort
    /// this covers the intermediate passes only — the suspended final pass
    /// has not produced output when the report is taken.
    pub merge_report: MergeReport,
    /// Pages the final merge pass alone wrote, out of
    /// [`merge`](SortReport::merge)'s total: the output-file write for
    /// [`FinalPassKind::File`], whatever the sink wrote for
    /// [`FinalPassKind::Sink`], and always `0` for
    /// [`FinalPassKind::Streamed`] — the write pass a streaming consumer
    /// saves.
    pub final_pass_pages_written: u64,
}

impl SortReport {
    /// Total wall-clock time of both phases.
    pub fn total_wall(&self) -> Duration {
        self.run_generation.wall + self.merge.wall
    }

    /// Total modelled time (wall + simulated I/O) of both phases.
    pub fn total_modelled(&self) -> Duration {
        self.run_generation.modelled_total() + self.merge.modelled_total()
    }
}

/// Drop guard that removes a sort's spill files — and the output file,
/// once the sort has created it — unless the sort succeeded. Covers the
/// error paths and a generator or merge panic alike: both unwind through
/// the guard instead of orphaning run files on the device.
struct SpillSweeper<D: Device> {
    device: D,
    namer: Arc<SpillNamer>,
    /// The output file this sort created, if any. A file that merely
    /// carries the output's name before the final pass is not the sort's
    /// to remove.
    output: Option<String>,
    armed: bool,
}

impl<D: Device> SpillSweeper<D> {
    /// Records that the sort has created its output file `name`, which a
    /// failure from now on must remove.
    fn created_output(&mut self, name: &str) {
        self.output = Some(name.to_string());
    }

    /// Disarms the guard: the sort succeeded, and whatever spill files are
    /// left now belong to the caller (a [`SortedStream`]) or its cleanup.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<D: Device> Drop for SpillSweeper<D> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let _ = self.namer.cleanup(&self.device);
        if let Some(output) = &self.output {
            if self.device.exists(output) {
                let _ = self.device.remove(output);
            }
        }
    }
}

/// Where the final merge pass delivers a completed sort.
pub(crate) enum Output<'a, R> {
    /// A forward run file of this name on the sort's device, created at
    /// the start of the final pass and then optionally verified.
    File(&'a str),
    /// A caller-provided sink.
    Sink(&'a mut dyn RecordSink<R>),
}

/// What the generate stage left on the device.
struct Generated {
    /// Every run, in shard order when the input was sharded.
    run_set: RunSet,
    /// Per-shard breakdown; `None` for an inline (one-thread) generation.
    shards: Option<Vec<ShardReport>>,
    /// The generation phase's cost.
    phase: PhaseReport,
    /// Device snapshot that closed the generation phase.
    after: IoStatsSnapshot,
}

/// One sort job on its way through the stages.
pub(crate) struct Pipeline<G, D> {
    generator: G,
    threads: usize,
    /// Whether spill writers and prefetch threads run: at `threads > 1` on
    /// a device with wall-clock latency.
    helpers: bool,
    merge: MergeConfig,
    /// Whether a file output is scanned afterwards.
    verify: bool,
    cancel: CancellationToken,
    device: D,
    namer: Arc<SpillNamer>,
}

impl<G: ShardableGenerator, D: Device> Pipeline<G, D> {
    /// Prepares `job` to run with its spill files named inside
    /// `namespace`; rejects a job no sort can run before any I/O.
    pub(crate) fn new(job: BoundSortJob<G, D>, namespace: String) -> Result<Self> {
        let BoundSortJob { job, device } = job;
        job.validate()?;
        Ok(Pipeline {
            generator: job.generator,
            threads: job.threads,
            helpers: job.threads > 1 && device.has_wall_clock_latency(),
            merge: job.merge,
            verify: job.verify,
            cancel: job.cancel,
            device,
            namer: Arc::new(SpillNamer::new(namespace)),
        })
    }

    /// Runs every stage and delivers the sorted records to `output`.
    ///
    /// Spill files are removed on success *and* on error; a sort that
    /// fails after creating its output file also removes that file.
    pub(crate) fn run<R: SortableRecord, I: Iterator<Item = R>>(
        mut self,
        input: Feed<R, I>,
        output: Output<'_, R>,
    ) -> Result<SortJobReport> {
        // One I/O client for the duration of the run: on a striped device
        // every concurrently executing job fair-shares the simulated
        // bandwidth (see `twrs_storage::contention`); on plain
        // devices this is a no-op.
        let _io_client = self.device.attach_io_client();
        let (file, final_pass) = match &output {
            Output::File(name) => (Some(*name), FinalPassKind::File),
            Output::Sink(_) => (None, FinalPassKind::Sink),
        };
        let mut sweeper = self.sweeper();
        let mut source = RecordSource::new(input, self.cancel.clone());
        let generated = self.generate(&mut source)?;
        let started = Instant::now();
        let (remaining, mut merge_report) = self.reduce::<R>(&generated)?;
        let final_writes = self.finish(&remaining, output, &mut merge_report, &mut sweeper)?;
        let after_merge = self.device.stats();
        let merge = PhaseReport::from_delta(started.elapsed(), after_merge.since(&generated.after));
        let records = generated.run_set.records;
        let mut report = self.report(generated, merge, merge_report, final_pass, final_writes);
        if let (Some(name), true) = (file, self.verify) {
            report.report.verify = Some(self.verify::<R>(name, records, &after_merge)?);
        }
        sweeper.disarm();
        self.namer.cleanup(&self.device)?;
        Ok(report)
    }

    /// Runs generate and reduce, then opens and starts the final merge and
    /// suspends it into a [`SortedStream`] that owns the remaining spill
    /// files.
    pub(crate) fn stream<R: SortableRecord, I: Iterator<Item = R>>(
        mut self,
        input: Feed<R, I>,
    ) -> Result<SortedStream<R>> {
        let _io_client = self.device.attach_io_client();
        let sweeper = self.sweeper();
        let mut source = RecordSource::new(input, self.cancel.clone());
        let generated = self.generate(&mut source)?;
        let started = Instant::now();
        let (remaining, merge_report) = self.reduce::<R>(&generated)?;
        // The merge window closes at the suspension point, before any
        // input is opened: reads performed on behalf of the consumer (head
        // pages, read-ahead, prefetch threads) belong to consumption, not to
        // the phases — which also keeps the phase counters deterministic.
        let merge = PhaseReport::from_delta(
            started.elapsed(),
            self.device.stats().since(&generated.after),
        );
        let read_ahead = self.merge.read_ahead_records;
        let mut last = Merge::open(&self.device, &remaining, read_ahead, self.helpers)?;
        let report = self.report(generated, merge, merge_report, FinalPassKind::Streamed, 0);
        last.start()?;
        let Pipeline { device, namer, .. } = self;
        let cleanup = Box::new(move || namer.cleanup(&device).map_err(SortError::from));
        sweeper.disarm();
        Ok(SortedStream::new(last, report, cleanup))
    }

    fn sweeper(&self) -> SpillSweeper<D> {
        SpillSweeper {
            device: self.device.clone(),
            namer: Arc::clone(&self.namer),
            output: None,
            armed: true,
        }
    }

    /// The generate stage, in its own snapshot window.
    ///
    /// The phase is attributed from the device-level delta, so
    /// coordinator-side input reads (a `run_file` input dataset, or any
    /// caller iterator that reads the same device) land in
    /// `run_generation` at every thread count; the per-shard scoped
    /// statistics break down the work the shards themselves did (all of the
    /// phase's writes).
    fn generate<R: SortableRecord, I: Iterator<Item = R>>(
        &mut self,
        source: &mut RecordSource<R, I>,
    ) -> Result<Generated> {
        let before = self.device.stats();
        let started = Instant::now();
        let (run_set, shards) = if self.threads == 1 {
            let set = self.generator.generate(&self.device, &self.namer, source)?;
            (set, None)
        } else {
            let (set, shards) = generate_sharded(
                &self.generator,
                self.threads,
                self.helpers,
                &self.device,
                &self.namer,
                &self.cancel,
                source,
            )?;
            (set, Some(shards))
        };
        // A read error or a cancel only ends the input early; fail here, so
        // the prefix never passes for a completed generation phase and no
        // merge starts.
        source.check()?;
        self.cancel.check()?;
        let wall = started.elapsed();
        let after = self.device.stats();
        Ok(Generated {
            run_set,
            shards,
            phase: PhaseReport::from_delta(wall, after.since(&before)),
            after,
        })
    }

    /// The reduce stage: merges the generated runs down to at most the
    /// merge fan-in — per disk first for a sharded sort on a stripe — and
    /// returns the survivors with the report of the steps taken.
    fn reduce<R: SortableRecord>(
        &self,
        generated: &Generated,
    ) -> Result<(Vec<RunHandle>, MergeReport)> {
        let runs = generated.run_set.runs.clone();
        let (runs, disk_report) = match &generated.shards {
            Some(shards) if self.device.stripe_members() > 1 => reduce_per_disk::<D, R>(
                &self.device,
                &self.namer,
                runs,
                shards,
                self.merge,
                &self.cancel,
            )?,
            _ => (runs, MergeReport::default()),
        };
        let (runs, mut report) = reduce_to_fan_in::<R>(
            &self.device,
            &self.namer,
            runs,
            self.merge,
            self.merge.fan_in,
            self.helpers,
            &self.cancel,
        )?;
        report.merge_steps += disk_report.merge_steps;
        report.records_written += disk_report.records_written;
        Ok((runs, report))
    }

    /// The finish stage of a completed sort: the final merge step into
    /// `output`, folded into `report`. Returns the pages the pass wrote —
    /// the output file, header page included, or whatever a sink wrote.
    ///
    /// An output file is created right after the inputs are opened, inside
    /// the pass's snapshot window; on a stripe its member therefore follows
    /// from file-creation order like every other file's. From then on
    /// `sweeper` removes it if the sort fails.
    fn finish<R: SortableRecord>(
        &self,
        runs: &[RunHandle],
        output: Output<'_, R>,
        report: &mut MergeReport,
        sweeper: &mut SpillSweeper<D>,
    ) -> Result<u64> {
        let before = self.device.stats();
        let (device, cancel) = (&self.device, &self.cancel);
        let (read_ahead, prefetch) = (self.merge.read_ahead_records, self.helpers);
        report.output_records = match output {
            Output::File(name) => {
                merge_step(device, runs, read_ahead, prefetch, cancel, report, || {
                    let file = FileSink::<R>::create(device, name)?;
                    sweeper.created_output(name);
                    Ok(file)
                })?
            }
            Output::Sink(sink) => {
                merge_step(device, runs, read_ahead, prefetch, cancel, report, || {
                    Ok(sink)
                })?
            }
        };
        Ok(self.device.stats().counters.pages_written - before.counters.pages_written)
    }

    /// The verification scan of an output file, in its own snapshot window
    /// starting at `after_merge`, so its read pass is attributed to the
    /// `verify` report, never to the merge phase.
    fn verify<R: SortableRecord>(
        &self,
        output: &str,
        records: u64,
        after_merge: &IoStatsSnapshot,
    ) -> Result<PhaseReport> {
        let started = Instant::now();
        verify_sorted::<R>(&self.device, output, records)?;
        Ok(PhaseReport::from_delta(
            started.elapsed(),
            self.device.stats().since(after_merge),
        ))
    }

    fn report(
        &self,
        generated: Generated,
        merge: PhaseReport,
        merge_report: MergeReport,
        final_pass: FinalPassKind,
        final_pass_pages_written: u64,
    ) -> SortJobReport {
        let run_set = generated.run_set;
        SortJobReport {
            report: SortReport {
                generator: self.generator.label(),
                records: run_set.records,
                num_runs: run_set.num_runs(),
                average_run_length: run_set.average_run_length(),
                relative_run_length: run_set.relative_run_length(self.generator.memory_records()),
                run_generation: generated.phase,
                merge,
                verify: None,
                merge_report,
                final_pass_pages_written,
            },
            threads: self.threads,
            shards: generated.shards,
            final_pass,
        }
    }
}

/// Checks that the run `output` is sorted and contains `expected_records`
/// records.
pub fn verify_sorted<R: SortableRecord>(
    device: &dyn twrs_storage::StorageDevice,
    output: &str,
    expected_records: u64,
) -> Result<()> {
    let mut reader = RunReader::<R>::open(device, output)?;
    let mut count = 0u64;
    let mut previous: Option<R> = None;
    while let Some(record) = reader.next_record()? {
        if let Some(prev) = &previous {
            if &record < prev {
                return Err(SortError::VerificationFailed(format!(
                    "output not sorted at record {count}: {record:?} < {prev:?}"
                )));
            }
        }
        previous = Some(record);
        count += 1;
    }
    if count != expected_records {
        return Err(SortError::VerificationFailed(format!(
            "output has {count} records, expected {expected_records}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::replacement_selection::ReplacementSelection;
    use crate::sort_job::SortJob;
    use twrs_storage::ModelId;
    use twrs_storage::{SimDevice, StorageDevice};
    use twrs_workloads::{materialize, Distribution, DistributionKind, Record};

    fn sorted_merge() -> MergeConfig {
        MergeConfig {
            fan_in: 8,
            read_ahead_records: 64,
        }
    }

    #[test]
    fn rs_pipeline_sorts_random_input() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 10_000, 1).records();
        let report = SortJob::new(ReplacementSelection::new(200))
            .merge(sorted_merge())
            .verify(true)
            .on(&device)
            .run_iter(input, "out")
            .unwrap()
            .report;
        assert_eq!(report.records, 10_000);
        assert_eq!(report.generator, "RS");
        assert!(report.num_runs > 1);
        assert!(report.relative_run_length > 1.5);
        assert!(report.merge_report.output_records == 10_000);
    }

    #[test]
    fn lss_pipeline_sorts_and_reports_phases() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::MixedBalanced, 4_000, 3).records();
        let report = SortJob::new(LoadSortStore::new(128))
            .merge(sorted_merge())
            .verify(true)
            .on(&device)
            .run_iter(input, "out")
            .unwrap()
            .report;
        assert_eq!(report.records, 4_000);
        assert!(report.run_generation.pages_written > 0);
        assert!(report.merge.pages_read > 0);
        assert!(report.total_modelled() >= report.total_wall());
    }

    #[test]
    fn sort_file_reads_materialised_dataset() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let dist = Distribution::new(DistributionKind::ReverseSorted, 3_000, 9);
        materialize(&device, "input", dist.records()).unwrap();
        let report = SortJob::new(ReplacementSelection::new(100))
            .merge(sorted_merge())
            .verify(true)
            .on(&device)
            .run_file_as::<Record>("input", "out")
            .unwrap()
            .report;
        assert_eq!(report.records, 3_000);
        // Reverse-sorted input is RS's worst case: runs equal to memory.
        assert_eq!(report.num_runs, 30);
    }

    #[test]
    fn verification_catches_missing_records() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        // Manually write an unsorted "output" and check the verifier trips.
        let mut writer = twrs_storage::RunWriter::<Record>::create(&device, "bad").unwrap();
        writer.push(&Record::from_key(5)).unwrap();
        writer.push(&Record::from_key(1)).unwrap();
        writer.finish().unwrap();
        assert!(matches!(
            verify_sorted::<Record>(&device, "bad", 2),
            Err(SortError::VerificationFailed(_))
        ));
        // Sorted but wrong count.
        let mut writer = twrs_storage::RunWriter::<Record>::create(&device, "short").unwrap();
        writer.push(&Record::from_key(1)).unwrap();
        writer.finish().unwrap();
        assert!(matches!(
            verify_sorted::<Record>(&device, "short", 2),
            Err(SortError::VerificationFailed(_))
        ));
    }

    #[test]
    fn verify_pass_reads_are_excluded_from_the_merge_phase() {
        // Same input and configuration twice, once with and once without
        // the verification scan: the merge phase's attributed I/O must be
        // identical, and the scan must show up only in the `verify` report.
        let sort = |verify: bool| {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let input = Distribution::new(DistributionKind::RandomUniform, 5_000, 11).records();
            SortJob::new(ReplacementSelection::new(128))
                .on(&device)
                .merge(MergeConfig {
                    fan_in: 4,
                    read_ahead_records: 32,
                })
                .verify(verify)
                .run_iter(input, "out")
                .unwrap()
                .report
        };
        let plain = sort(false);
        let verified = sort(true);
        assert!(plain.verify.is_none());
        let verify_phase = verified.verify.expect("verify phase reported");
        // The pinning assertions: merge-phase attribution is byte-for-byte
        // the same whether or not the verification pass runs afterwards.
        assert_eq!(verified.merge.pages_read, plain.merge.pages_read);
        assert_eq!(verified.merge.pages_written, plain.merge.pages_written);
        assert_eq!(verified.merge.seeks, plain.merge.seeks);
        // The scan itself is a pure read pass over the output.
        assert!(verify_phase.pages_read > 0);
        assert_eq!(verify_phase.pages_written, 0);
    }

    #[test]
    fn empty_input_sorts_to_empty_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let report = SortJob::new(LoadSortStore::new(16))
            .merge(sorted_merge())
            .verify(true)
            .on(&device)
            .run_iter(std::iter::empty::<Record>(), "out")
            .unwrap()
            .report;
        assert_eq!(report.records, 0);
        assert_eq!(report.num_runs, 0);
    }

    #[test]
    fn temporary_files_are_cleaned_up() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 2_000, 4).records();
        SortJob::new(ReplacementSelection::new(64))
            .merge(sorted_merge())
            .verify(true)
            .on(&device)
            .run_iter(input, "final")
            .unwrap();
        let files = device.list();
        assert_eq!(files, vec!["final".to_string()]);
    }
}
