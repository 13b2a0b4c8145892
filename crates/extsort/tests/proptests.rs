//! Property-based tests for the external-sort substrate: every
//! run-generation algorithm and both merge strategies must sort arbitrary
//! inputs correctly, and the storage round trip must be lossless.

use proptest::prelude::*;
use twrs_extsort::{
    polyphase_merge, KWayMerger, LoadSortStore, MergeConfig, ReplacementSelection, RunCursor,
    RunGenerator, RunHandle, SortJob,
};
use twrs_storage::ModelId;
use twrs_storage::{SimDevice, SpillNamer};
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
            let run = RunCursor::<Record>::open(&device, handle)
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

        let output = RunCursor::<Record>::open(&device, &RunHandle::Forward("out".into()))
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
        let output = RunCursor::<Record>::open(&par_device, &RunHandle::Forward("out".into()))
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
            RunCursor::<Record>::open(&device, &RunHandle::Forward("out".into()))
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
