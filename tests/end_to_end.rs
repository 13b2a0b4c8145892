//! End-to-end integration tests across the workspace: full sorts on both
//! device backends, every run-generation algorithm, and the merge
//! strategies, all verified for correctness.

mod common;

use common::file_bytes;
use two_way_replacement_selection::extsort::polyphase_merge;
use two_way_replacement_selection::extsort::sorter::verify_sorted;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::workloads::{materialize, read_dataset};

fn full_sort_and_verify<G: ShardableGenerator, D: StorageDevice + Clone + Send + 'static>(
    device: &D,
    generator: G,
    kind: DistributionKind,
    records: u64,
) {
    let input = Distribution::new(kind, records, 17).records();
    let report = SortJob::new(generator)
        .on(device)
        .merge(MergeConfig {
            fan_in: 6,
            read_ahead_records: 256,
        })
        .verify(true)
        .run_iter(input, "sorted")
        .expect("sort succeeds");
    assert_eq!(report.report.records, records);
    verify_sorted::<Record>(device, "sorted", records).expect("output verified");
    device.remove("sorted").expect("cleanup");
}

#[test]
fn every_generator_sorts_every_distribution_on_the_simulated_device() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    for kind in DistributionKind::paper_set() {
        full_sort_and_verify(&device, LoadSortStore::new(200), kind, 5_000);
        full_sort_and_verify(&device, ReplacementSelection::new(200), kind, 5_000);
        full_sort_and_verify(
            &device,
            TwoWayReplacementSelection::new(TwrsConfig::recommended(200)),
            kind,
            5_000,
        );
    }
}

#[test]
fn twrs_sorts_on_the_real_file_device() {
    let device = RealFileDevice::temp().expect("temporary directory");
    full_sort_and_verify(
        &device,
        TwoWayReplacementSelection::new(TwrsConfig::recommended(300)),
        DistributionKind::MixedBalanced,
        8_000,
    );
}

#[test]
fn threaded_sorts_on_the_real_file_device_match_one_thread() {
    // Shard workers, spill writers and prefetch threads on real files:
    // every thread count writes the one-thread output byte for byte and
    // leaves nothing but that output behind.
    let device = RealFileDevice::temp().expect("temporary directory");
    let sort = |threads: usize| {
        let output = format!("sorted-{threads}");
        let input = Distribution::new(DistributionKind::MixedBalanced, 20_000, 17).records();
        let report = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
            300,
        )))
        .on(&device)
        .threads(threads)
        .merge(MergeConfig {
            fan_in: 4,
            read_ahead_records: 100,
        })
        .verify(true)
        .run_iter(input, &output)
        .expect("sort succeeds");
        assert_eq!(report.threads, threads);
        assert_eq!(device.list(), vec![output.clone()], "threads = {threads}");
        let bytes = file_bytes(&device, &output);
        device.remove(&output).expect("cleanup");
        bytes
    };
    let expected = sort(1);
    for threads in [2, 4] {
        assert!(sort(threads) == expected, "threads = {threads}");
    }
}

#[test]
fn materialised_datasets_round_trip_and_sort() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let dist = Distribution::new(DistributionKind::MixedBalanced, 10_000, 3);
    let expected: Vec<Record> = dist.collect();
    materialize(&device, "table", expected.iter().copied()).expect("materialise");
    let mut reader = read_dataset(&device, "table").expect("open dataset");
    assert_eq!(reader.read_all().expect("read dataset"), expected);

    let report = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        250,
    )))
    .on(&device)
    .run_file("table", "table_sorted")
    .expect("sort succeeds");
    assert_eq!(report.report.records, 10_000);

    let mut sorted = expected;
    sorted.sort_unstable();
    let mut reader = RunReader::<Record>::open(&device, "table_sorted").expect("open output");
    assert_eq!(reader.read_all().expect("read output"), sorted);
}

#[test]
fn polyphase_merge_agrees_with_kway_merge() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("poly-vs-kway");
    let mut generator = LoadSortStore::new(250);
    let input: Vec<Record> = Distribution::new(DistributionKind::RandomUniform, 6_000, 5).collect();
    let mut iter = input.clone().into_iter();
    let set = generator
        .generate(&device, &namer, &mut iter)
        .expect("run generation succeeds");

    // Merge one copy with polyphase and compare against a std sort.
    polyphase_merge::<_, Record>(&device, &namer, set.runs, 4, "poly_out")
        .expect("polyphase succeeds");
    let mut reader = RunReader::<Record>::open(&device, "poly_out").expect("open output");
    let merged = reader.read_all().expect("read output");
    let mut expected = input;
    expected.sort_unstable();
    assert_eq!(merged, expected);
}

#[test]
fn io_accounting_splits_phases() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(DistributionKind::RandomUniform, 8_000, 2);
    let report = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        200,
    )))
    .on(&device)
    .run_iter(input.records(), "out")
    .expect("sort succeeds")
    .report;
    // Run generation writes the runs; the merge reads them back and writes
    // the output: both phases show I/O and the totals are consistent. (Run
    // generation may write slightly more than the merge reads because the
    // reverse-file format pre-allocates its fixed-size part files.)
    assert!(report.run_generation.pages_written > 0);
    assert!(report.merge.pages_read > 0);
    assert!(report.merge.pages_read * 2 >= report.run_generation.pages_written);
    assert!(report.merge.pages_written > 0);
    assert!(report.total_modelled() >= report.run_generation.modelled_total());
}
