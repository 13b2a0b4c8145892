//! Property-based tests for the external-sort substrate: every
//! run-generation algorithm and both merge strategies must sort arbitrary
//! inputs correctly, the storage round trip must be lossless, the planned
//! merge tree must take a queue's steps and write no more records, the
//! loser tree must merge stably whatever `sort_key` a record type provides,
//! and the batched spill writer must leave exactly the pages direct writes
//! do.

use proptest::prelude::*;
use std::collections::VecDeque;
use twrs_extsort::merge::loser_tree::LoserTree;
use twrs_extsort::{
    polyphase_merge, KWayMerger, LoadSortStore, MergeConfig, ReplacementSelection, RunBuilder,
    RunGenerator, SortJob, SpillWriteDevice,
};
use twrs_storage::ModelId;
use twrs_storage::{
    FixedSizeRecord, PageFile, RunReader, SimDevice, SortableRecord, SpillNamer, StorageDevice,
};
use twrs_workloads::Record;

fn records_from(keys: &[u64]) -> Vec<Record> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| Record::new(*k, i as u64))
        .collect()
}

fn sorted_copy(records: &[Record]) -> Vec<Record> {
    let mut sorted = records.to_vec();
    sorted.sort_unstable();
    sorted
}

/// A `(key, payload)` test record ordered by key, then payload, whose
/// `sort_key` is given by the optional closure-like expression; without
/// one it keeps the trait's constant default.
macro_rules! keyed_record {
    ($name:ident $(, |$r:ident| $key:expr)?) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct $name {
            key: u64,
            payload: u64,
        }

        impl From<(u64, u64)> for $name {
            fn from((key, payload): (u64, u64)) -> Self {
                $name { key, payload }
            }
        }

        impl FixedSizeRecord for $name {
            const SIZE: usize = 16;

            fn write_to(&self, buf: &mut [u8]) {
                buf[0..8].copy_from_slice(&self.key.to_le_bytes());
                buf[8..16].copy_from_slice(&self.payload.to_le_bytes());
            }

            fn read_from(buf: &[u8]) -> Self {
                $name {
                    key: twrs_storage::u64_le_at(buf, 0),
                    payload: twrs_storage::u64_le_at(buf, 8),
                }
            }
        }

        impl SortableRecord for $name {
            $(fn sort_key(&self) -> u64 {
                let $r = self;
                $key
            })?
        }
    };
}

keyed_record!(ExactKey, |r| r.key);
keyed_record!(CoarseKey, |r| r.key >> 8);
keyed_record!(DefaultKey);

/// Merges `sources` (each sorted first) through a [`LoserTree`] driven
/// directly and checks the output, with the source every record came
/// from, against a stable sort by `(record, source index)`.
fn assert_tree_merges_stably<T>(sources: &[Vec<(u64, u64)>])
where
    T: SortableRecord + From<(u64, u64)>,
{
    let runs: Vec<Vec<T>> = sources
        .iter()
        .map(|source| {
            let mut run: Vec<T> = source.iter().map(|&pair| T::from(pair)).collect();
            run.sort();
            run
        })
        .collect();
    let mut cursors: Vec<_> = runs.iter().map(|run| run.iter().cloned()).collect();
    let heads = cursors.iter_mut().map(|cursor| cursor.next()).collect();
    let mut tree = LoserTree::new(heads);
    let mut merged = Vec::new();
    while let Some(record) = tree.pop() {
        let source = tree.winner();
        merged.push((record, source));
        tree.refill(cursors[source].next());
    }
    let mut expected: Vec<(T, usize)> = runs
        .iter()
        .enumerate()
        .flat_map(|(source, run)| run.iter().map(move |record| (record.clone(), source)))
        .collect();
    expected.sort();
    assert_eq!(merged, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Classic replacement selection produces sorted runs covering exactly
    /// the input multiset for arbitrary keys and memory budgets.
    #[test]
    fn replacement_selection_runs_are_sorted_and_complete(
        keys in prop::collection::vec(0u64..100_000, 0..1_500),
        memory in 1usize..300,
    ) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("prop-rs");
        let input = records_from(&keys);
        let mut generator = ReplacementSelection::new(memory);
        let mut iter = input.clone().into_iter();
        let set = generator.generate(&device, &namer, &mut iter).unwrap();
        prop_assert_eq!(set.records as usize, input.len());

        let mut all: Vec<Record> = Vec::new();
        for handle in &set.runs {
            let run = handle.open::<Record>(&device)
                .unwrap()
                .read_all()
                .unwrap();
            prop_assert!(run.windows(2).all(|w| w[0] <= w[1]));
            all.extend(run);
        }
        all.sort_unstable();
        prop_assert_eq!(all, sorted_copy(&input));
    }

    /// The end-to-end sorter (RS run generation + multi-pass k-way merge)
    /// equals a std sort for arbitrary inputs, fan-ins and read-ahead sizes.
    #[test]
    fn external_sorter_matches_std_sort(
        keys in prop::collection::vec(0u64..1_000_000, 0..1_500),
        memory in 2usize..200,
        fan_in in 2usize..8,
        read_ahead in 1usize..512,
    ) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = records_from(&keys);
        let report = SortJob::new(ReplacementSelection::new(memory))
            .on(&device)
            .merge(MergeConfig { fan_in, read_ahead_records: read_ahead })
            .verify(true)
            .run_iter(input.clone().into_iter(), "out")
            .unwrap();
        prop_assert_eq!(report.report.records as usize, input.len());

        let output = RunReader::<Record>::open(&device, "out")
            .unwrap()
            .read_all()
            .unwrap();
        prop_assert_eq!(output, sorted_copy(&input));
    }

    /// A sharded sort equals a std sort (and therefore the one-thread
    /// sort) for arbitrary inputs, thread counts, fan-ins and read-aheads —
    /// and its I/O accounting is honest: the aggregated counters are
    /// exactly the shard sums, and splitting the memory budget across
    /// shards never *reduces* the spill volume below the one-thread sort's.
    #[test]
    fn parallel_sorter_matches_sequential_and_accounts_io(
        keys in prop::collection::vec(0u64..1_000_000, 0..1_200),
        memory in 4usize..150,
        threads in 1usize..8,
        fan_in in 2usize..8,
        read_ahead in 1usize..256,
    ) {
        let input = records_from(&keys);
        let sort = |device: &SimDevice, threads: usize| {
            SortJob::new(ReplacementSelection::new(memory))
                .on(device)
                .threads(threads)
                .merge(MergeConfig { fan_in, read_ahead_records: read_ahead })
                .verify(true)
                .run_iter(input.clone().into_iter(), "out")
                .unwrap()
        };

        // One-thread reference on its own device.
        let seq_report = sort(&SimDevice::with_model(ModelId::Hdd7200), 1).report;

        // The same total budget and merge parameters over `threads` threads.
        let par_device = SimDevice::with_model(ModelId::Hdd7200);
        let report = sort(&par_device, threads);

        // Output equals the sorted input (hence the one-thread output).
        let output = RunReader::<Record>::open(&par_device, "out")
            .unwrap()
            .read_all()
            .unwrap();
        prop_assert_eq!(output, sorted_copy(&input));
        prop_assert_eq!(report.report.records as usize, input.len());

        // Honest accounting: the shards own all generation writes, and the
        // phase's reads cover everything the shards read…
        prop_assert!(report.io_is_consistent());
        if let Some(shards) = &report.shards {
            let sum = report.shard_io_sum();
            prop_assert_eq!(sum.counters.pages_written, report.report.run_generation.pages_written);
            prop_assert!(report.report.run_generation.pages_read >= sum.counters.pages_read);
            // …every shard that generated runs also reports the writes for
            // them…
            for shard in shards {
                prop_assert!(shard.num_runs == 0 || shard.io.counters.pages_written > 0);
            }
        }
        // …and dividing memory across shards can only produce more runs
        // and more spill pages than the single big heap, never fewer
        // (dropped I/O would show up here as an impossible decrease).
        prop_assert!(report.report.num_runs >= seq_report.num_runs || threads == 1);
        prop_assert!(
            report.report.run_generation.pages_written
                >= seq_report.run_generation.pages_written
        );
    }

    /// Polyphase merge and k-way merge agree on the same run set.
    #[test]
    fn polyphase_and_kway_agree(
        keys in prop::collection::vec(0u64..50_000, 1..1_200),
        memory in 8usize..120,
        tapes in 3usize..6,
    ) {
        let input = records_from(&keys);

        let run_and_merge = |use_polyphase: bool| -> Vec<Record> {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("prop-merge");
            let mut generator = LoadSortStore::new(memory);
            let mut iter = input.clone().into_iter();
            let set = generator.generate(&device, &namer, &mut iter).unwrap();
            if use_polyphase {
                polyphase_merge::<_, Record>(&device, &namer, set.runs, tapes, "out").unwrap();
            } else {
                KWayMerger::new(MergeConfig { fan_in: tapes.max(2), read_ahead_records: 64 })
                    .merge_into::<_, Record>(&device, &namer, set.runs, "out")
                    .unwrap();
            }
            RunReader::<Record>::open(&device, "out")
                .unwrap()
                .read_all()
                .unwrap()
        };

        let polyphase = run_and_merge(true);
        let kway = run_and_merge(false);
        prop_assert_eq!(&polyphase, &kway);
        prop_assert_eq!(polyphase, sorted_copy(&input));
    }
}

/// The steps and the records written, final pass included, of a merge
/// that queues its runs: it merges the first `fan_in` and appends the
/// result until at most `fan_in` remain.
fn queue_tree(lengths: &[u64], fan_in: usize) -> (u32, u64) {
    let mut queue: VecDeque<u64> = lengths.iter().copied().collect();
    let (mut steps, mut written) = (0, 0);
    while queue.len() > fan_in {
        let merged: u64 = queue.drain(..fan_in).sum();
        queue.push_back(merged);
        (steps, written) = (steps + 1, written + merged);
    }
    let last: u64 = queue.iter().sum();
    (steps + u32::from(!queue.is_empty()), written + last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The planned merge tree sorts runs of any lengths at any fan-in in
    /// as many steps as a queue of runs takes, and writes no more records.
    #[test]
    fn planned_merge_takes_a_queues_steps_and_writes_no_more(
        lengths in prop::collection::vec(1u64..=2_000, 0..41),
        fan_in in 2usize..=12,
    ) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("prop-plan");
        let mut builder = RunBuilder::forward(&device, &namer);
        let mut runs = Vec::new();
        let mut input = Vec::new();
        for (i, &length) in (0u64..).zip(&lengths) {
            let mut keys: Vec<u64> = (0..length)
                .map(|j| (i * 2_654_435_761 + j * 40_503) % 5_000)
                .collect();
            keys.sort_unstable();
            builder.push_sorted(&keys).unwrap();
            builder.finish_run(&mut runs).unwrap();
            input.extend(keys);
        }
        let report = KWayMerger::new(MergeConfig { fan_in, read_ahead_records: 64 })
            .merge_into::<_, u64>(&device, &namer, runs, "out")
            .unwrap();
        let output = RunReader::<u64>::open(&device, "out").unwrap().read_all().unwrap();
        input.sort_unstable();
        prop_assert_eq!(output, input);
        let (steps, written) = queue_tree(&lengths, fan_in);
        prop_assert_eq!(report.merge_steps, steps);
        prop_assert!(
            report.records_written <= written,
            "planned {} > queued {}", report.records_written, written
        );
        prop_assert_eq!(device.list(), vec!["out".to_string()]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The loser tree's key fast path and its `Ord` fallback produce the
    /// stable merge for exact, coarse (`key >> 8`, many ties between
    /// distinct records) and constant (`sort_key` never decides) keys, over
    /// 1–17 sources full of duplicates, including which source each fully
    /// tied record leaves from.
    #[test]
    fn loser_tree_merges_stably_for_any_sort_key(
        sources in prop::collection::vec(
            prop::collection::vec((0u64..600, 0u64..2), 0..40),
            1..18,
        ),
    ) {
        assert_tree_merges_stably::<ExactKey>(&sources);
        assert_tree_merges_stably::<CoarseKey>(&sources);
        assert_tree_merges_stably::<DefaultKey>(&sources);
    }
}

/// Every page of every file on `device`, by name.
fn device_pages(device: &SimDevice) -> Vec<(String, Vec<Vec<u8>>)> {
    device
        .list()
        .into_iter()
        .map(|name| {
            let mut file = device.open(&name).unwrap();
            let pages = (0..file.num_pages())
                .map(|index| {
                    let mut page = vec![0u8; device.page_size()];
                    file.read_page(index, &mut page).unwrap();
                    page
                })
                .collect();
            (name, pages)
        })
        .collect()
}

/// One file of the spill-writer property: the same file created on the
/// spill device and directly on a reference device.
struct Twin {
    spill: Box<dyn PageFile>,
    direct: Box<dyn PageFile>,
    /// Writes issued so far; the write pattern's position.
    writes: u64,
    /// The page written last, which a header-style rewrite targets.
    last: Option<u64>,
}

impl Twin {
    fn write(&mut self, page: u64, data: &[u8]) {
        self.spill.write_page(page, data).unwrap();
        self.direct.write_page(page, data).unwrap();
        self.last = Some(page);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page writes to one to three files — in order, back to front as
    /// reverse part files are written, or sparse, plus rewrites of the page
    /// written last as a run's header is rewritten — mixed with file
    /// flushes, reads, handle drops and device barriers leave the wrapped
    /// device holding exactly the pages the same sequence writes directly,
    /// with the same page counts, at any queue depth (batches below, at and
    /// above 16 pages).
    #[test]
    fn spill_writer_matches_direct_writes(
        files in 1usize..4,
        depth in 1usize..40,
        ops in prop::collection::vec((0u8..11, 0usize..3, 0u64..48), 0..300),
    ) {
        let inner = SimDevice::with_model(ModelId::Hdd7200);
        let direct = SimDevice::with_model(ModelId::Hdd7200);
        let spill = SpillWriteDevice::new(inner.clone(), depth);
        let page_size = direct.page_size();
        let mut generation = 0u32;
        let mut create = |slot: usize| {
            generation += 1;
            let name = format!("f{slot}.{generation}");
            Twin {
                spill: spill.create(&name).unwrap(),
                direct: direct.create(&name).unwrap(),
                writes: 0,
                last: None,
            }
        };
        let mut twins: Vec<Twin> = (0..files).map(&mut create).collect();
        for (step, &(kind, file, arg)) in ops.iter().enumerate() {
            let slot = file % files;
            let twin = &mut twins[slot];
            match kind {
                // Writes, in the slot's pattern, and rewrites.
                0..=6 => {
                    let page = match (kind, twin.last, slot) {
                        (6, Some(last), _) => last,
                        (_, _, 0) => twin.writes,
                        (_, _, 1) => 47 - twin.writes % 48,
                        _ => arg,
                    };
                    twin.writes += 1;
                    let mut data = vec![(step % 251) as u8; page_size];
                    data[..8].copy_from_slice(&page.to_le_bytes());
                    twin.write(page, &data);
                    prop_assert_eq!(twin.spill.num_pages(), twin.direct.num_pages());
                }
                7 => {
                    twin.spill.flush().unwrap();
                    twin.direct.flush().unwrap();
                }
                8 if twin.direct.num_pages() > 0 => {
                    let index = arg % twin.direct.num_pages();
                    let mut through = vec![0u8; page_size];
                    let mut expected = vec![0u8; page_size];
                    twin.spill.read_page(index, &mut through).unwrap();
                    twin.direct.read_page(index, &mut expected).unwrap();
                    prop_assert!(through == expected, "page {} of slot {}", index, slot);
                }
                // A dropped handle may leave writes pending; the slot goes
                // on with a new file.
                9 => twins[slot] = create(slot),
                10 => spill.barrier().unwrap(),
                _ => {}
            }
        }
        spill.barrier().unwrap();
        for twin in &twins {
            prop_assert_eq!(twin.spill.num_pages(), twin.direct.num_pages());
        }
        prop_assert!(device_pages(&inner) == device_pages(&direct));
    }
}
