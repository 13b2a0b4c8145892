//! Multi-pass k-way merging with a bounded fan-in (§2.1.2, §6.1.1).
//!
//! The merge phase combines the runs left by run generation into one sorted
//! file. Merging everything at once is not always best: every run being
//! merged needs its own input buffer, and with many runs the disk head
//! bounces between their files, so the paper measures an optimal fan-in of
//! about 10 on its hardware (Figure 6.1). [`KWayMerger`] therefore merges at
//! most `fan_in` runs per step, queueing intermediate outputs until a single
//! run remains, and reads every input run through a read-ahead buffer whose
//! size models the per-run input buffer of the paper's implementation.

use crate::cancel::{CancellationToken, CANCEL_CHECK_INTERVAL};
use crate::error::{Result, SortError};
use crate::merge::loser_tree::LoserTree;
use crate::run_generation::{Device, RunCursor, RunHandle};
use crate::sink::{FileSink, RecordSink};
use std::collections::VecDeque;
use twrs_storage::{SortableRecord, SpillNamer};

/// Configuration of the k-way merge phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// Maximum number of runs merged in one step (the paper's fan-in; its
    /// experiments settle on 10).
    pub fan_in: usize,
    /// Per-run read-ahead buffer, in records. Larger buffers turn the
    /// interleaved page reads of a merge step into longer sequential bursts,
    /// trading memory for fewer seeks — the same trade-off as the paper's
    /// per-run input buffers.
    pub read_ahead_records: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            fan_in: 10,
            read_ahead_records: 256,
        }
    }
}

/// Outcome of a merge phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Number of k-way merge steps executed.
    pub merge_steps: u32,
    /// Number of records written across every step, including intermediate
    /// runs (a proxy for merge I/O volume).
    pub records_written: u64,
    /// Number of records in the final output.
    pub output_records: u64,
}

impl MergeReport {
    /// Average number of times each output record was rewritten during the
    /// merge (1.0 when a single step sufficed).
    pub fn write_passes(&self) -> f64 {
        if self.output_records == 0 {
            0.0
        } else {
            self.records_written as f64 / self.output_records as f64
        }
    }
}

/// The multi-pass k-way merger.
#[derive(Debug, Clone, Default)]
pub struct KWayMerger {
    config: MergeConfig,
    cancel: CancellationToken,
}

impl KWayMerger {
    /// Creates a merger with the given configuration.
    pub fn new(config: MergeConfig) -> Self {
        KWayMerger {
            config,
            cancel: CancellationToken::new(),
        }
    }

    /// Installs a cooperative cancellation token, checked at the start of
    /// every merge step and every [`CANCEL_CHECK_INTERVAL`] merged records.
    pub fn with_cancel(mut self, cancel: CancellationToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> MergeConfig {
        self.config
    }

    /// Merges `runs` into a single forward run named `output` on `device`.
    ///
    /// Intermediate runs are created through `namer` and removed as soon as
    /// they have been consumed. Returns the merge report; the output file is
    /// a normal forward run readable with
    /// [`RunCursor`].
    pub fn merge_into<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        runs: Vec<RunHandle>,
        output: &str,
    ) -> Result<MergeReport> {
        let ReducedRuns {
            remaining,
            mut report,
        } = reduce_to_fan_in::<BufferedCursor<R>, R, D>(
            device,
            namer,
            runs,
            self.config,
            &self.cancel,
        )?;
        // The final step always writes `output`: an empty run when there
        // was no input, a copy when a single run is left.
        let written = merge_step::<BufferedCursor<R>, R, D>(
            device,
            &remaining,
            output,
            self.config.read_ahead_records,
            &self.cancel,
        )?;
        if !remaining.is_empty() {
            report.merge_steps += 1;
        }
        report.records_written += written;
        report.output_records = written;
        Ok(report)
    }
}

/// The runs left after the intermediate merge passes, plus the partial
/// [`MergeReport`] those passes accumulated. At most `fan_in` runs remain,
/// so one final merge step — into a file, a sink, or a suspended
/// [`SortedStream`](crate::stream::SortedStream) — finishes the sort.
pub(crate) struct ReducedRuns {
    /// The surviving runs, at most `fan_in` of them, in queue order.
    pub(crate) remaining: Vec<RunHandle>,
    /// Steps and records of the intermediate passes only
    /// (`output_records` still zero — the final pass has not run).
    pub(crate) report: MergeReport,
}

/// The intermediate half of the multi-pass merge scheduler: batches at
/// most `fan_in` runs per step and queues the intermediate outputs until
/// no more than `fan_in` runs remain, removing consumed inputs as it goes.
/// Every step reads its inputs through sources of type `S`. The final pass
/// over the survivors is the caller's business — that is where the file,
/// sink and stream outputs diverge.
pub(crate) fn reduce_to_fan_in<S, R, D>(
    device: &D,
    namer: &SpillNamer,
    runs: Vec<RunHandle>,
    merge: MergeConfig,
    cancel: &CancellationToken,
) -> Result<ReducedRuns>
where
    S: RunSource<R>,
    R: SortableRecord,
    D: Device,
{
    if merge.fan_in < 2 {
        return Err(SortError::InvalidConfig(
            "merge fan-in must be at least 2".into(),
        ));
    }
    let mut report = MergeReport::default();
    let mut queue: VecDeque<RunHandle> = runs.into();
    while queue.len() > merge.fan_in {
        // Pass boundary: the merge scheduler observes a cancel() between
        // any two intermediate passes.
        cancel.check()?;
        let batch: Vec<RunHandle> = queue.drain(..merge.fan_in).collect();
        let name = namer.next_name("merge");
        let written =
            merge_step::<S, R, D>(device, &batch, &name, merge.read_ahead_records, cancel)?;
        report.merge_steps += 1;
        report.records_written += written;
        queue.push_back(RunHandle::Forward(name));
    }
    Ok(ReducedRuns {
        remaining: queue.into(),
        report,
    })
}

/// One merge step: opens every run of `batch` as an `S` source, merges
/// them into the new forward run `output` and removes them, since nothing
/// reads a merged input again; returns the records written.
pub(crate) fn merge_step<S, R, D>(
    device: &D,
    batch: &[RunHandle],
    output: &str,
    read_ahead: usize,
    cancel: &CancellationToken,
) -> Result<u64>
where
    S: RunSource<R>,
    R: SortableRecord,
    D: Device,
{
    // Step boundary: a cancel() lands here before the batch's sources
    // are even opened.
    cancel.check()?;
    let mut sources = open_sources::<S, R, D>(device, batch, read_ahead)?;
    let mut sink = FileSink::create(device, output)?;
    let written = merge_sources(&mut sources, &mut sink, cancel)?;
    sources.into_iter().for_each(S::close);
    for handle in batch {
        remove_run(device, handle)?;
    }
    Ok(written)
}

/// Opens one `S` source per run of `runs`, in order.
pub(crate) fn open_sources<S, R, D>(
    device: &D,
    runs: &[RunHandle],
    read_ahead: usize,
) -> Result<Vec<S>>
where
    S: RunSource<R>,
    R: SortableRecord,
    D: Device,
{
    runs.iter()
        .map(|run| S::open(device, run, read_ahead))
        .collect()
}

/// A stream of ascending records feeding one leaf of the merge tree.
pub(crate) trait MergeSource<R: SortableRecord> {
    /// The next record of the stream, or `None` at the end.
    fn next_record(&mut self) -> Result<Option<R>>;
}

/// A [`MergeSource`] that reads one run: a [`BufferedCursor`] reading
/// inline, or a background prefetch thread
/// ([`PrefetchSource`](crate::parallel::PrefetchSource)). A merge stage picks
/// the type once, so its merge loop is compiled for exactly one of them.
pub(crate) trait RunSource<R: SortableRecord>: MergeSource<R> + Sized {
    /// Starts reading `run` on `device`, `read_ahead` records at a time.
    fn open<D: Device>(device: &D, run: &RunHandle, read_ahead: usize) -> Result<Self>;

    /// Releases a fully merged source; a reader thread's panic resumes
    /// here instead of being swallowed by a plain drop.
    fn close(self) {}
}

impl<R: SortableRecord> MergeSource<R> for BufferedCursor<R> {
    fn next_record(&mut self) -> Result<Option<R>> {
        BufferedCursor::next_record(self)
    }
}

impl<R: SortableRecord> RunSource<R> for BufferedCursor<R> {
    fn open<D: Device>(device: &D, run: &RunHandle, read_ahead: usize) -> Result<Self> {
        Ok(BufferedCursor::new(
            RunCursor::open(device, run)?,
            read_ahead,
        ))
    }
}

/// Drains `sources` through a loser tree into `sink`, then finishes the
/// sink; returns the number of records delivered. Every merge step and the
/// final pass of file and sink outputs go through here, which is what makes
/// `run_iter`'s output byte-identical to a hand-rolled [`FileSink`] drain.
pub(crate) fn merge_sources<R, S, K>(
    sources: &mut [S],
    sink: &mut K,
    cancel: &CancellationToken,
) -> Result<u64>
where
    R: SortableRecord,
    S: MergeSource<R>,
    K: RecordSink<R> + ?Sized,
{
    let heads = sources
        .iter_mut()
        .map(|s| s.next_record())
        .collect::<Result<_>>()?;
    let mut tree = LoserTree::new(heads);
    let mut written = 0u64;
    if !sources.is_empty() {
        loop {
            // Page-grained cancellation point: roughly one output page of
            // small records between checks, so a running merge observes
            // cancel() within a bounded amount of I/O.
            if written % CANCEL_CHECK_INTERVAL == 0 {
                cancel.check()?;
            }
            let Some(record) = tree.pop() else { break };
            sink.push(record)?;
            written += 1;
            tree.refill(sources[tree.winner()].next_record()?);
        }
    }
    sink.finish()?;
    Ok(written)
}

/// Removes a run (and, for reverse runs, all its part files) from the
/// device.
pub(crate) fn remove_run(
    device: &dyn twrs_storage::StorageDevice,
    handle: &RunHandle,
) -> Result<()> {
    match handle {
        RunHandle::Forward(name) => {
            if device.exists(name) {
                device.remove(name)?;
            }
        }
        RunHandle::Reverse(name) => {
            let mut part = 0;
            loop {
                let part_name = format!("{name}.part{part}");
                if device.exists(&part_name) {
                    device.remove(&part_name)?;
                    part += 1;
                } else {
                    break;
                }
            }
        }
        RunHandle::Chain(parts) => {
            for part in parts {
                remove_run(device, part)?;
            }
        }
    }
    Ok(())
}

/// A run cursor with a read-ahead buffer, refilled `read_ahead` records at
/// a time with one batch read.
pub(crate) struct BufferedCursor<R: SortableRecord> {
    cursor: RunCursor<R>,
    /// The unread records of the last refill, in *descending* order, so
    /// the next one is popped off the end.
    buffer: Vec<R>,
    read_ahead: usize,
    exhausted: bool,
}

impl<R: SortableRecord> BufferedCursor<R> {
    pub(crate) fn new(cursor: RunCursor<R>, read_ahead: usize) -> Self {
        let read_ahead = read_ahead.max(1);
        BufferedCursor {
            buffer: Vec::with_capacity(buffer_capacity(read_ahead, &cursor)),
            cursor,
            read_ahead,
            exhausted: false,
        }
    }

    pub(crate) fn next_record(&mut self) -> Result<Option<R>> {
        if self.buffer.is_empty() && !self.exhausted {
            let read = self.cursor.read_batch(&mut self.buffer, self.read_ahead)?;
            self.exhausted = read < self.read_ahead;
            self.buffer.reverse();
        }
        Ok(self.buffer.pop())
    }
}

/// The records one refill of a `read_ahead` buffer can hold: never more
/// than the run has, so a read-ahead beyond any run length allocates only
/// what the run needs.
pub(crate) fn buffer_capacity<R: SortableRecord>(
    read_ahead: usize,
    cursor: &RunCursor<R>,
) -> usize {
    usize::try_from(cursor.len()).map_or(read_ahead, |len| read_ahead.min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::run_generation::{RunGenerator, RunSet};
    use twrs_storage::ModelId;
    use twrs_storage::{SimDevice, SpillNamer, StorageDevice};
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn make_runs(device: &SimDevice, namer: &SpillNamer, records: u64, memory: usize) -> RunSet {
        let mut generator = LoadSortStore::new(memory);
        let mut input = Distribution::new(DistributionKind::RandomUniform, records, 99).records();
        generator.generate(device, namer, &mut input).unwrap()
    }

    fn read_output(device: &SimDevice, name: &str) -> Vec<Record> {
        let mut cursor =
            RunCursor::<Record>::open(device, &RunHandle::Forward(name.into())).unwrap();
        cursor.read_all().unwrap()
    }

    #[test]
    fn merges_to_a_single_sorted_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let set = make_runs(&device, &namer, 5_000, 250);
        assert_eq!(set.num_runs(), 20);
        let merger = KWayMerger::new(MergeConfig {
            fan_in: 4,
            read_ahead_records: 64,
        });
        let report = merger
            .merge_into::<_, Record>(&device, &namer, set.runs.clone(), "sorted")
            .unwrap();
        assert_eq!(report.output_records, 5_000);
        let output = read_output(&device, "sorted");
        assert_eq!(output.len(), 5_000);
        assert!(output.windows(2).all(|w| w[0] <= w[1]));
        // With fan-in 4 and 20 runs more than one step is needed.
        assert!(report.merge_steps > 1);
        assert!(report.write_passes() > 1.0);
    }

    #[test]
    fn single_step_when_fan_in_covers_all_runs() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let set = make_runs(&device, &namer, 2_000, 250);
        let merger = KWayMerger::new(MergeConfig {
            fan_in: 16,
            read_ahead_records: 64,
        });
        let report = merger
            .merge_into::<_, Record>(&device, &namer, set.runs, "sorted")
            .unwrap();
        assert_eq!(report.merge_steps, 1);
        assert_eq!(report.records_written, 2_000);
        assert!((report.write_passes() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn single_run_is_copied_to_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let set = make_runs(&device, &namer, 100, 1_000);
        assert_eq!(set.num_runs(), 1);
        let merger = KWayMerger::default();
        let report = merger
            .merge_into::<_, Record>(&device, &namer, set.runs, "sorted")
            .unwrap();
        assert_eq!(report.output_records, 100);
        assert_eq!(read_output(&device, "sorted").len(), 100);
    }

    #[test]
    fn empty_run_list_produces_empty_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let merger = KWayMerger::default();
        let report = merger
            .merge_into::<_, Record>(&device, &namer, Vec::new(), "sorted")
            .unwrap();
        assert_eq!(report.output_records, 0);
        assert!(read_output(&device, "sorted").is_empty());
    }

    #[test]
    fn intermediate_runs_are_cleaned_up() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let set = make_runs(&device, &namer, 3_000, 100);
        let merger = KWayMerger::new(MergeConfig {
            fan_in: 3,
            read_ahead_records: 32,
        });
        merger
            .merge_into::<_, Record>(&device, &namer, set.runs, "sorted")
            .unwrap();
        // Only the final output (plus the original unsorted input, which we
        // never created here) should remain on the device.
        let files = device.list();
        assert_eq!(files, vec!["sorted".to_string()]);
    }

    #[test]
    fn fan_in_below_two_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("m");
        let merger = KWayMerger::new(MergeConfig {
            fan_in: 1,
            read_ahead_records: 32,
        });
        assert!(matches!(
            merger.merge_into::<_, Record>(&device, &namer, Vec::new(), "out"),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn larger_read_ahead_reduces_seeks() {
        let build = |read_ahead: usize| -> u64 {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("m");
            let set = make_runs(&device, &namer, 20_000, 1_000);
            device.reset_stats();
            let merger = KWayMerger::new(MergeConfig {
                fan_in: 20,
                read_ahead_records: read_ahead,
            });
            merger
                .merge_into::<_, Record>(&device, &namer, set.runs, "sorted")
                .unwrap();
            device.stats().counters.seeks
        };
        let few = build(1);
        let many = build(1024);
        assert!(
            many < few,
            "read-ahead should reduce seeks: {many} !< {few}"
        );
    }
}
