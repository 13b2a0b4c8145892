//! Stream/file equivalence: `stream_iter` must yield exactly the record
//! sequence `run_iter` writes to its output file — byte-identical once
//! re-encoded — for every generator and thread count, while performing zero
//! final-output page writes.

mod common;

use common::file_bytes;
use proptest::prelude::*;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::RunWriter;

/// Runs `run_iter` and `stream_iter` on separate fresh devices for the same
/// input, re-encodes the streamed records through a `RunWriter`, and
/// compares the exact file bytes (headers, payloads, padding).
fn assert_stream_matches_file<G>(make: impl Fn() -> G, threads: usize, label: &str)
where
    G: ShardableGenerator,
{
    let input = || Distribution::new(DistributionKind::MixedBalanced, 6_000, 17).records();

    let file_device = SimDevice::with_model(ModelId::Hdd7200);
    let file_report = SortJob::new(make())
        .on(&file_device)
        .threads(threads)
        .run_iter(input(), "out")
        .expect("file sort runs");
    assert_eq!(file_report.final_pass, FinalPassKind::File);
    assert!(
        file_report.final_pass_pages_written() > 0,
        "{label}: the file path pays a final write pass"
    );

    let stream_device = SimDevice::with_model(ModelId::Hdd7200);
    let stream = SortJob::new(make())
        .on(&stream_device)
        .threads(threads)
        .stream_iter(input())
        .expect("stream sort runs");
    let report = stream.report().clone();
    assert_eq!(report.final_pass, FinalPassKind::Streamed);
    assert_eq!(
        report.final_pass_pages_written(),
        0,
        "{label}: a stream never writes final-pass pages"
    );
    assert_eq!(report.threads, threads);
    assert_eq!(stream.expected_records(), 6_000);
    assert!(report.io_is_consistent(), "{label}: shard accounting");

    let records: Vec<Record> = stream
        .collect::<Result<_, _>>()
        .expect("stream yields no errors");
    assert_eq!(records.len(), 6_000, "{label}");
    // A fully drained stream has already removed its spill files.
    assert_eq!(
        stream_device.list(),
        Vec::<String>::new(),
        "{label}: drained stream leaves the device clean"
    );

    let mut writer = RunWriter::<Record>::create(&stream_device, "reencoded").unwrap();
    for record in &records {
        writer.push(record).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(
        file_bytes(&file_device, "out"),
        file_bytes(&stream_device, "reencoded"),
        "{label}: stream output is byte-identical to the run_iter file"
    );
}

#[test]
fn stream_matches_file_for_every_generator_and_thread_count() {
    for threads in [1, 4] {
        assert_stream_matches_file(
            || ReplacementSelection::new(200),
            threads,
            &format!("RS t{threads}"),
        );
        assert_stream_matches_file(
            || LoadSortStore::new(200),
            threads,
            &format!("LSS t{threads}"),
        );
        assert_stream_matches_file(
            || TwoWayReplacementSelection::new(TwrsConfig::recommended(200)),
            threads,
            &format!("2WRS t{threads}"),
        );
    }
}

#[test]
fn empty_input_streams_nothing_and_leaves_no_files() {
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let stream = SortJob::new(ReplacementSelection::new(64))
            .on(&device)
            .threads(threads)
            .stream_iter(std::iter::empty::<Record>())
            .expect("empty sort runs");
        assert_eq!(stream.expected_records(), 0);
        assert_eq!(stream.count(), 0);
        assert_eq!(device.list(), Vec::<String>::new(), "threads {threads}");
    }
}

#[test]
fn single_record_round_trips_through_the_stream() {
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let stream = SortJob::new(LoadSortStore::new(64))
            .on(&device)
            .threads(threads)
            .stream_iter(std::iter::once(Record::new(42, 7)))
            .expect("sort runs");
        let records: Vec<Record> = stream.collect::<Result<_, _>>().unwrap();
        assert_eq!(records, vec![Record::new(42, 7)]);
        assert_eq!(device.list(), Vec::<String>::new(), "threads {threads}");
    }
}

#[test]
fn stream_file_matches_run_file_on_a_materialised_dataset() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let dist = Distribution::new(DistributionKind::ReverseSorted, 4_000, 9);
    two_way_replacement_selection::workloads::materialize(&device, "input", dist.records())
        .unwrap();

    let file_report = SortJob::new(ReplacementSelection::new(150))
        .on(&device)
        .run_file("input", "out")
        .expect("run_file sorts");
    assert_eq!(file_report.report.records, 4_000);

    let stream = SortJob::new(ReplacementSelection::new(150))
        .on(&device)
        .stream_file("input")
        .expect("stream_file sorts");
    let streamed: Vec<Record> = stream.collect::<Result<_, _>>().unwrap();
    let filed = RunReader::<Record>::open(&device, "out")
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(streamed, filed);
    // Only the dataset and run_file's output remain — no stream leftovers.
    assert_eq!(device.list(), vec!["input".to_string(), "out".to_string()]);
}

#[test]
fn sink_iter_delivers_the_same_sequence_with_zero_device_writes() {
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 5_000, 23);
        let mut sink = VecSink::new();
        let report = SortJob::new(ReplacementSelection::new(150))
            .on(&device)
            .threads(threads)
            .sink_iter(input.records(), &mut sink)
            .expect("sink sort runs");
        assert_eq!(report.final_pass, FinalPassKind::Sink);
        assert_eq!(
            report.final_pass_pages_written(),
            0,
            "an in-memory sink writes no device pages in the final pass"
        );
        assert_eq!(report.report.records, 5_000);
        let collected = sink.into_vec();
        assert_eq!(collected.len(), 5_000);
        assert!(collected.windows(2).all(|w| w[0] <= w[1]));

        let mut expected: Vec<Record> = input.records().collect();
        expected.sort_unstable();
        assert_eq!(collected, expected, "threads {threads}");
        assert_eq!(device.list(), Vec::<String>::new(), "threads {threads}");
    }
}

/// The three ways a sort can deliver its output.
#[derive(Debug, Clone, Copy)]
enum OutputKind {
    File,
    Sink,
    Stream,
}

/// One sort on a fresh two-disk stripe: the records it delivered, its
/// report, and each stripe member's seek count once the output was
/// delivered (before a file output is read back).
fn sort_on_stripe<G: ShardableGenerator>(
    generator: G,
    threads: usize,
    output: OutputKind,
) -> (Vec<Record>, SortJobReport, Vec<u64>) {
    let device: AnyDevice = "striped:2:sim:hdd-7200"
        .parse::<DeviceSpec>()
        .and_then(|spec| spec.build())
        .expect("stripe builds");
    let input = Distribution::new(DistributionKind::RandomUniform, 6_000, 29).records();
    let job = SortJob::new(generator)
        .on(&device)
        .threads(threads)
        .merge(MergeConfig {
            fan_in: 4,
            read_ahead_records: 64,
        });
    let member_seeks = |device: &AnyDevice| -> Vec<u64> {
        let stripe = device.as_striped().expect("a striped device");
        stripe
            .member_stats()
            .iter()
            .map(|m| m.counters.seeks)
            .collect()
    };
    match output {
        OutputKind::File => {
            let report = job.run_iter(input, "out").expect("file sort runs");
            let seeks = member_seeks(&device);
            let records = RunReader::<Record>::open(&device, "out")
                .and_then(|mut reader| reader.read_all())
                .expect("output readable");
            (records, report, seeks)
        }
        OutputKind::Sink => {
            let mut sink = VecSink::new();
            let report = job.sink_iter(input, &mut sink).expect("sink sort runs");
            (sink.into_vec(), report, member_seeks(&device))
        }
        OutputKind::Stream => {
            let stream = job.stream_iter(input).expect("stream sort runs");
            let report = stream.report().clone();
            let records = stream.collect::<Result<_, _>>().expect("stream drains");
            (records, report, member_seeks(&device))
        }
    }
}

#[test]
fn output_kind_changes_only_the_final_pass_on_a_stripe() {
    fn check<G: ShardableGenerator>(make: impl Fn() -> G) {
        let reference_device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::RandomUniform, 6_000, 29).records();
        let reference = SortJob::new(make())
            .on(&reference_device)
            .run_iter(input, "out")
            .expect("single-disk sort runs");
        let expected = RunReader::<Record>::open(&reference_device, "out")
            .and_then(|mut reader| reader.read_all())
            .expect("reference output readable");
        assert_eq!(expected.len() as u64, reference.report.records);

        for threads in [1, 2, 4] {
            let [file, sink, stream] = [OutputKind::File, OutputKind::Sink, OutputKind::Stream]
                .map(|output| {
                    let (records, report, seeks) = sort_on_stripe(make(), threads, output);
                    let label = format!(
                        "{} {output:?}, {threads} thread(s)",
                        report.report.generator
                    );
                    assert_eq!(records, expected, "{label}: records");
                    let (_, _, repeat_seeks) = sort_on_stripe(make(), threads, output);
                    assert_eq!(seeks, repeat_seeks, "{label}: per-member seeks repeat");
                    (report.report, label)
                });
            let (file, label) = file;
            let (sink, _) = sink;
            let (stream, _) = stream;

            // Run generation does not know where the output goes.
            for other in [&sink, &stream] {
                assert_eq!(other.num_runs, file.num_runs, "{label}: runs");
                let (a, b) = (&other.run_generation, &file.run_generation);
                assert_eq!(a.pages_read, b.pages_read, "{label}: generation reads");
                assert_eq!(
                    a.pages_written, b.pages_written,
                    "{label}: generation writes"
                );
                assert_eq!(a.seeks, b.seeks, "{label}: generation seeks");
            }
            // File and sink both run the final pass inside the merge phase;
            // the stream suspends it.
            let steps = file.merge_report.merge_steps;
            assert_eq!(sink.merge_report.merge_steps, steps, "{label}: sink steps");
            assert_eq!(
                stream.merge_report.merge_steps + 1,
                steps,
                "{label}: stream steps"
            );
            // Only the output file's own pages tell the merge phases apart.
            let before_final = file.merge.pages_written - file.final_pass_pages_written;
            assert_eq!(
                sink.merge.pages_written, before_final,
                "{label}: sink writes"
            );
            assert_eq!(
                stream.merge.pages_written, before_final,
                "{label}: stream writes"
            );
            assert_eq!(
                sink.merge.pages_read, file.merge.pages_read,
                "{label}: sink reads"
            );
        }
    }

    check(|| ReplacementSelection::new(300));
    check(|| LoadSortStore::new(300));
    check(|| TwoWayReplacementSelection::new(TwrsConfig::recommended(300)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stream equals a `std` sort of the same input for arbitrary key
    /// multisets, memory budgets and thread counts.
    #[test]
    fn stream_matches_std_sort(
        keys in prop::collection::vec(0u64..100_000, 0..1_200),
        memory in 8usize..200,
        threads in 1usize..5,
    ) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input: Vec<Record> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Record::new(*k, i as u64))
            .collect();
        let stream = SortJob::new(ReplacementSelection::new(memory))
            .on(&device)
            .threads(threads)
            .stream_iter(input.clone().into_iter())
            .unwrap();
        prop_assert_eq!(stream.expected_records() as usize, input.len());
        let streamed: Vec<Record> = stream.collect::<Result<_, _>>().unwrap();
        let mut expected = input;
        expected.sort_unstable();
        prop_assert_eq!(streamed, expected);
        prop_assert_eq!(device.list(), Vec::<String>::new());
    }
}
