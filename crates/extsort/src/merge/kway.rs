//! Multi-pass k-way merging with a bounded fan-in (§2.1.2, §6.1.1).
//!
//! The merge phase combines the runs left by run generation into one sorted
//! output. Merging everything at once is not always best: every run being
//! merged needs its own input buffer, and with many runs the disk head
//! bounces between their files, so the paper measures an optimal fan-in of
//! about 10 on its hardware (Figure 6.1). The planner therefore merges at
//! most `fan_in` runs per step until few enough runs remain: `fan_in` for
//! the final pass, or one for a stripe member's reducer (see
//! [`parallel`](crate::parallel)). It plans the steps as a merge tree from
//! the record counts every [`RunHandle`] carries: the first step merges
//! just enough of the shortest runs that every later step can merge
//! `fan_in`, and each later step merges the `fan_in` shortest runs left,
//! merge outputs included (Huffman's pattern, Knuth §5.4.9). Long runs —
//! 2WRS's on mixed input, say — stay out of the intermediate steps, and no
//! record is rewritten more often than a tree of that fan-in needs.
//!
//! Every merge is one `Merge`: a step's inputs and the loser tree over their
//! head records. Each input is a run opened through [`RunHandle::open`],
//! whatever its format, and every merge writes its output through a sink;
//! a file output is a [`FileSink`], a forward run created after the step
//! reads its inputs' headers and before their first records, which fixes
//! the order of the step's page reads and writes (see `merge_step`). An
//! intermediate step, a per-disk reducer's step, [`KWayMerger`] and the
//! final pass into a file or a sink drain it into a sink in one loop; a
//! [`SortedStream`](crate::SortedStream) holds it suspended and takes one
//! record per `next()`. Every input run is read
//! through the record source run generation reads too (see
//! [`run_generation`](crate::run_generation)), refilled a read-ahead at a
//! time, whose size models the per-run input buffer of the paper's
//! implementation. The refill reads the run inline, or — in a threaded sort
//! on a device with wall-clock latency — takes the next message of a
//! prefetch thread per run. A merge input carries no cancellation token,
//! since one that stopped early would pass for a short run; the drain loop
//! polls the job's token instead.

use crate::cancel::{CancellationToken, CANCEL_CHECK_INTERVAL};
use crate::error::{Result, SortError};
use crate::merge::loser_tree::LoserTree;
use crate::run_generation::{Device, RecordSource, RunHandle};
use crate::sink::{FileSink, RecordSink};
use twrs_storage::{remove_run_files, SortableRecord, SpillNamer, StorageDevice};

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
}

impl KWayMerger {
    /// Creates a merger with the given configuration.
    pub fn new(config: MergeConfig) -> Self {
        KWayMerger { config }
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
    /// [`RunReader::open`](twrs_storage::RunReader::open).
    pub fn merge_into<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        runs: Vec<RunHandle>,
        output: &str,
    ) -> Result<MergeReport> {
        // Nothing cancels a stand-alone merge.
        let cancel = CancellationToken::new();
        let config = self.config;
        let (remaining, mut report) =
            reduce_to_fan_in::<R>(device, namer, runs, config, config.fan_in, false, &cancel)?;
        // The final step always writes `output`: an empty run when there
        // was no input, a copy when a single run is left.
        report.output_records = merge_step(
            device,
            &remaining,
            config.read_ahead_records,
            false,
            &cancel,
            &mut report,
            || FileSink::<R>::create(device, output),
        )?;
        Ok(report)
    }
}

/// The merge planner: merges the runs holding the fewest records until
/// `stop_at` runs remain; returns the survivors with the report of the
/// steps taken. `stop_at` is `fan_in` before a final pass, and 1 for a
/// stripe member's reducer, whose last step merges the few runs left into
/// one. Every step reads its inputs inline, or through prefetch threads
/// with `prefetch` set.
///
/// This is Huffman's optimal merge pattern with dummy runs (Knuth, TAOCP
/// Vol. 3 §5.4.9): when `(runs − stop_at) mod (fan_in − 1)` is a nonzero
/// `r`, the first step merges the `r + 1` shortest runs, and every later
/// step the `fan_in` shortest, so the steps are as few as a queue's,
/// ⌈(runs − stop_at) / (fan_in − 1)⌉, and every record is written as few
/// times as a tree of that fan-in allows. A step's inputs keep the order
/// of `runs`, a tie goes to the earlier run, and each step's output joins
/// the end, so the plan depends on nothing but the runs' lengths.
pub(crate) fn reduce_to_fan_in<R: SortableRecord>(
    device: &dyn StorageDevice,
    namer: &SpillNamer,
    mut runs: Vec<RunHandle>,
    merge: MergeConfig,
    stop_at: usize,
    prefetch: bool,
    cancel: &CancellationToken,
) -> Result<(Vec<RunHandle>, MergeReport)> {
    // A fan-in of 1 would merge one run into one run forever.
    if merge.fan_in < 2 {
        return Err(SortError::InvalidConfig(
            "merge fan-in must be at least 2".into(),
        ));
    }
    let mut report = MergeReport::default();
    let excess = runs.len().saturating_sub(stop_at) % (merge.fan_in - 1);
    let mut width = if excess == 0 {
        merge.fan_in
    } else {
        excess + 1
    };
    while runs.len() > stop_at {
        // Pass boundary: the merge planner observes a cancel() between any
        // two steps.
        cancel.check()?;
        let batch = take_shortest(&mut runs, width);
        let name = namer.next_name("merge");
        let records = merge_step(
            device,
            &batch,
            merge.read_ahead_records,
            prefetch,
            cancel,
            &mut report,
            || FileSink::<R>::create(device, &name),
        )?;
        runs.push(RunHandle::Forward { name, records });
        width = merge.fan_in;
    }
    Ok((runs, report))
}

/// Removes the `count` runs holding the fewest records from `runs`, a tie
/// going to the earlier run, and returns them in their order in `runs`.
fn take_shortest(runs: &mut Vec<RunHandle>, count: usize) -> Vec<RunHandle> {
    let mut by_length: Vec<usize> = (0..runs.len()).collect();
    // A stable sort keeps tied runs in order.
    by_length.sort_by_key(|&i| runs[i].records());
    let mut taken = vec![false; runs.len()];
    for &i in &by_length[..count] {
        taken[i] = true;
    }
    let mut taken = taken.into_iter();
    let (batch, rest) = std::mem::take(runs)
        .into_iter()
        .partition(|_| taken.next() == Some(true));
    *runs = rest;
    batch
}

/// One merge step: opens every run of `runs` as a merge input, creates the
/// step's sink with `output`, merges the inputs into it and removes them,
/// since nothing reads a merged input again. Counts the step in `report`
/// and returns the records written.
///
/// Pages move in one order for every step: the inputs' headers, then
/// whatever creating the sink writes, then each input's first records, then
/// the merge.
pub(crate) fn merge_step<R: SortableRecord, K: RecordSink<R>>(
    device: &dyn StorageDevice,
    runs: &[RunHandle],
    read_ahead: usize,
    prefetch: bool,
    cancel: &CancellationToken,
    report: &mut MergeReport,
    output: impl FnOnce() -> Result<K>,
) -> Result<u64> {
    // Step boundary: a cancel() lands here before any input is opened.
    cancel.check()?;
    let mut merge = Merge::open(device, runs, read_ahead, prefetch)?;
    let sink = output()?;
    merge.start()?;
    let written = merge.drain(sink, cancel)?;
    // Prefetch threads end and are joined before their files go.
    drop(merge);
    for run in runs {
        for file in run.physical() {
            remove_run_files(device, file.name())?;
        }
    }
    report.merge_steps += u32::from(!runs.is_empty());
    report.records_written += written;
    Ok(written)
}

/// One merge step's inputs and the loser tree over their head records:
/// every merge of a sort runs through one.
pub(crate) struct Merge<R: SortableRecord> {
    inputs: Vec<RecordSource<R>>,
    tree: LoserTree<R>,
}

impl<R: SortableRecord> Merge<R> {
    /// Opens one input per run of `runs`, in order, reading only their
    /// headers; with `prefetch`, a prefetch thread per run then takes over
    /// its reader.
    pub(crate) fn open(
        device: &dyn StorageDevice,
        runs: &[RunHandle],
        read_ahead: usize,
        prefetch: bool,
    ) -> Result<Self> {
        let inputs = runs
            .iter()
            .map(|run| RecordSource::merge_input(device, run, read_ahead, prefetch))
            .collect::<Result<_>>()?;
        Ok(Merge {
            inputs,
            tree: LoserTree::new(Vec::new()),
        })
    }

    /// Reads every input's first record and plays the tree over them.
    pub(crate) fn start(&mut self) -> Result<()> {
        let heads = self
            .inputs
            .iter_mut()
            .map(RecordSource::next_record)
            .collect::<Result<_>>()?;
        self.tree = LoserTree::new(heads);
        Ok(())
    }

    /// Takes the smallest head record out of the tree, or `None` once every
    /// input is exhausted. [`refill`](Merge::refill) must follow before the
    /// next `pop`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<R> {
        self.tree.pop()
    }

    /// Hands the tree the next record of the input the last
    /// [`pop`](Merge::pop) emptied.
    #[inline]
    pub(crate) fn refill(&mut self) -> Result<()> {
        let next = self.inputs[self.tree.winner()].next_record()?;
        self.tree.refill(next);
        Ok(())
    }

    /// Drains the started merge into `sink` and finishes the sink; returns
    /// the records written.
    pub(crate) fn drain(
        &mut self,
        mut sink: impl RecordSink<R>,
        cancel: &CancellationToken,
    ) -> Result<u64> {
        let mut written = 0u64;
        loop {
            // Page-grained cancellation point: roughly one output page of
            // small records between checks, so a running merge observes
            // cancel() within a bounded amount of I/O.
            if written % CANCEL_CHECK_INTERVAL == 0 {
                cancel.check()?;
            }
            let Some(record) = self.pop() else { break };
            sink.push(record)?;
            written += 1;
            self.refill()?;
        }
        sink.finish()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::run_generation::{RunBuilder, RunGenerator, RunSet};
    use twrs_storage::ModelId;
    use twrs_storage::RunReader;
    use twrs_storage::{SimDevice, SpillNamer, StorageDevice, StorageError};
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn make_runs(device: &SimDevice, namer: &SpillNamer, records: u64, memory: usize) -> RunSet {
        let mut generator = LoadSortStore::new(memory);
        let mut input = Distribution::new(DistributionKind::RandomUniform, records, 99).records();
        generator.generate(device, namer, &mut input).unwrap()
    }

    fn read_output(device: &SimDevice, name: &str) -> Vec<Record> {
        let mut reader = RunReader::<Record>::open(device, name).unwrap();
        reader.read_all().unwrap()
    }

    /// The keys of run `i` of `lengths`: `j · lengths + i` for each `j`
    /// below its length.
    fn keys_of(lengths: &[u64], i: u64) -> Vec<u64> {
        (0..lengths[i as usize])
            .map(|j| j * lengths.len() as u64 + i)
            .collect()
    }

    /// Writes one forward run per length, in order, holding `keys_of`.
    fn runs_of(device: &SimDevice, namer: &SpillNamer, lengths: &[u64]) -> Vec<RunHandle> {
        let mut builder = RunBuilder::forward(device, namer);
        let mut runs = Vec::new();
        for i in 0..lengths.len() as u64 {
            builder.push_sorted(&keys_of(lengths, i)).unwrap();
            builder.finish_run(&mut runs).unwrap();
        }
        runs
    }

    /// Every key of `runs` on `device`, sorted, after checking that each
    /// run is sorted.
    fn keys_in(device: &SimDevice, runs: &[RunHandle]) -> Vec<u64> {
        let mut keys = Vec::new();
        for run in runs {
            let records = run.open::<u64>(device).unwrap().read_all().unwrap();
            assert!(records.windows(2).all(|w| w[0] <= w[1]));
            keys.extend(records);
        }
        keys.sort_unstable();
        keys
    }

    /// Plans `runs` down to `stop_at` at `fan_in` on `device`.
    fn reduce(
        device: &SimDevice,
        namer: &SpillNamer,
        runs: Vec<RunHandle>,
        fan_in: usize,
        stop_at: usize,
    ) -> (Vec<RunHandle>, MergeReport) {
        let merge = MergeConfig {
            fan_in,
            read_ahead_records: 8,
        };
        let cancel = CancellationToken::new();
        reduce_to_fan_in::<u64>(device, namer, runs, merge, stop_at, false, &cancel).unwrap()
    }

    /// The steps and the records written of a queue that merges its first
    /// `fan_in` runs and appends the result until `stop_at` runs remain.
    fn queue_tree(lengths: &[u64], fan_in: usize, stop_at: usize) -> (u32, u64) {
        let mut queue: std::collections::VecDeque<u64> = lengths.iter().copied().collect();
        let (mut steps, mut written) = (0, 0);
        while queue.len() > stop_at {
            let merged: u64 = queue.drain(..fan_in.min(queue.len())).sum();
            queue.push_back(merged);
            (steps, written) = (steps + 1, written + merged);
        }
        (steps, written)
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
    fn the_planner_merges_the_shortest_runs_first() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("p");
        let lengths = [3, 1, 2, 2, 5, 2];
        let runs = runs_of(&device, &namer, &lengths);
        let (left, report) = reduce(&device, &namer, runs, 3, 3);
        // (6 − 3) mod 2 = 1: the first step merges the two shortest runs,
        // the 1 and the first 2 (a tie goes to the earlier run); the second
        // merges the other two 2s and the generated 3, which is older than
        // the first step's output. A queue writes 6 + 9 records instead.
        assert_eq!(report.merge_steps, 2);
        assert_eq!(report.records_written, 3 + 7);
        assert_eq!(queue_tree(&lengths, 3, 3), (2, 6 + 9));
        // The survivors keep generation order, merge outputs last.
        let created = namer.created();
        let survivors: Vec<(&str, u64)> =
            left.iter().map(|run| (run.name(), run.records())).collect();
        assert_eq!(
            survivors,
            [(&*created[4], 5), (&*created[6], 3), (&*created[7], 7)]
        );
        let mut expected: Vec<u64> = (0..6).flat_map(|i| keys_of(&lengths, i)).collect();
        expected.sort_unstable();
        assert_eq!(keys_in(&device, &left), expected);
    }

    #[test]
    fn a_reducer_plans_its_runs_down_to_one() {
        // Unequal runs, as a stripe member's reducer sees them.
        let lengths: Vec<u64> = (0..23_u64).map(|i| 1 + (i * 37) % 60).collect();
        let mut expected: Vec<u64> = (0..23).flat_map(|i| keys_of(&lengths, i)).collect();
        expected.sort_unstable();
        for fan_in in 2..=8 {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("r");
            let runs = runs_of(&device, &namer, &lengths);
            let (left, report) = reduce(&device, &namer, runs, fan_in, 1);
            let (steps, written) = queue_tree(&lengths, fan_in, 1);
            assert_eq!(report.merge_steps, steps, "fan-in {fan_in}");
            assert_eq!(report.merge_steps, 22_u32.div_ceil(fan_in as u32 - 1));
            assert!(report.records_written <= written, "fan-in {fan_in}");
            assert_eq!(left.len(), 1);
            assert_eq!(left[0].records(), expected.len() as u64);
            assert_eq!(keys_in(&device, &left), expected);
            assert_eq!(device.list(), [left[0].name()], "inputs are removed");
        }
    }

    #[test]
    fn a_handle_whose_count_disagrees_fails_before_any_output() {
        for fan_in in [2, 10] {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("c");
            let mut runs = runs_of(&device, &namer, &[40, 30, 50]);
            let RunHandle::Forward { records, .. } = &mut runs[1] else {
                unreachable!("runs_of writes forward runs")
            };
            *records += 1;
            let before = device.list();
            let merged = KWayMerger::new(MergeConfig {
                fan_in,
                read_ahead_records: 8,
            })
            .merge_into::<_, u64>(&device, &namer, runs, "sorted");
            // At fan-in 2 the first step, at 10 the final one, opens the
            // run and fails before it creates its output.
            assert!(
                matches!(
                    merged,
                    Err(SortError::Storage(StorageError::CorruptHeader(_)))
                ),
                "fan-in {fan_in}: {merged:?}"
            );
            assert_eq!(device.list(), before, "fan-in {fan_in}");
        }
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
