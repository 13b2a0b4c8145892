//! Pinning suite for the `SortJob` builder front door.
//!
//! * `threads(1)` and `threads(4)` produce **byte-identical** output files;
//! * builder defaults equal an explicit default configuration
//!   field-for-field on a fixed seed;
//! * a corrupt/truncated input dataset surfaces as an `Err` from
//!   `run_file` / `stream_file`, never a panic (regression for the old
//!   `.expect("input dataset is readable")` paths), and leaves nothing but
//!   the dataset on the device.

mod common;

use common::file_bytes;
use two_way_replacement_selection::extsort::SortError;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::{PageBuf, StorageError};
use two_way_replacement_selection::workloads::materialize;

const SEED: u64 = 20_107;
const RECORDS: u64 = 5_000;
const MEMORY: usize = 250;

fn input() -> Distribution {
    Distribution::new(DistributionKind::MixedBalanced, RECORDS, SEED)
}

#[test]
fn one_thread_and_four_threads_produce_byte_identical_output() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let one = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        MEMORY,
    )))
    .on(&device)
    .threads(1)
    .verify(true)
    .run_iter(input().records(), "one")
    .expect("1-thread job succeeds");
    let four = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        MEMORY,
    )))
    .on(&device)
    .threads(4)
    .verify(true)
    .run_iter(input().records(), "four")
    .expect("4-thread job succeeds");

    assert!(!one.is_parallel());
    assert!(four.is_parallel());
    assert_eq!(one.report.records, RECORDS);
    assert_eq!(four.report.records, RECORDS);
    assert!(four.io_is_consistent());
    assert_eq!(
        file_bytes(&device, "one"),
        file_bytes(&device, "four"),
        "thread count must not change a single output byte"
    );
}

#[test]
fn builder_defaults_match_an_explicit_default_configuration() {
    let sort = |job: SortJob<ReplacementSelection>| {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let report = job
            .on(&device)
            .run_iter(input().records(), "out")
            .expect("builder sorts");
        (report, file_bytes(&device, "out"))
    };
    let (defaults, default_bytes) = sort(SortJob::new(ReplacementSelection::new(MEMORY)));
    let (explicit, explicit_bytes) = sort(
        SortJob::new(ReplacementSelection::new(MEMORY))
            .threads(1)
            .config(SorterConfig::default()),
    );

    // Defaults: one thread, no shards, no verification pass.
    assert_eq!(defaults.threads, 1);
    assert!(defaults.shards.is_none());
    assert!(defaults.report.verify.is_none());
    // Same defaults ⇒ same report, field for field (wall-clock aside).
    let (d, e) = (&defaults.report, &explicit.report);
    assert_eq!(d.generator, e.generator);
    assert_eq!(d.records, e.records);
    assert_eq!(d.num_runs, e.num_runs);
    assert_eq!(d.average_run_length, e.average_run_length);
    assert_eq!(d.relative_run_length, e.relative_run_length);
    assert_eq!(d.merge_report, e.merge_report);
    assert_eq!(
        d.run_generation.pages_written,
        e.run_generation.pages_written
    );
    assert_eq!(d.run_generation.pages_read, e.run_generation.pages_read);
    assert_eq!(d.run_generation.seeks, e.run_generation.seeks);
    assert_eq!(d.merge.pages_written, e.merge.pages_written);
    assert_eq!(d.merge.pages_read, e.merge.pages_read);
    assert_eq!(d.merge.seeks, e.merge.seeks);
    assert_eq!(default_bytes, explicit_bytes);
}

#[test]
fn builder_config_matches_the_merge_and_verify_setters() {
    let cfg = SorterConfig {
        merge: MergeConfig {
            fan_in: 3,
            read_ahead_records: 32,
        },
        verify: true,
    };
    let config_device = SimDevice::with_model(ModelId::Hdd7200);
    let config_report = SortJob::new(LoadSortStore::new(MEMORY))
        .config(cfg)
        .on(&config_device)
        .run_iter(input().records(), "out")
        .unwrap();

    let setters_device = SimDevice::with_model(ModelId::Hdd7200);
    let setters_report = SortJob::new(LoadSortStore::new(MEMORY))
        .on(&setters_device)
        .merge(cfg.merge)
        .verify(cfg.verify)
        .run_iter(input().records(), "out")
        .unwrap();

    assert_eq!(
        config_report.report.merge_report,
        setters_report.report.merge_report
    );
    assert!(config_report.report.verify.is_some());
    assert_eq!(
        file_bytes(&config_device, "out"),
        file_bytes(&setters_device, "out")
    );
}

/// Writes a structurally valid run-file header claiming `claimed` records
/// but provides only one (partial) data page, so reading past it fails.
fn write_truncated_dataset(device: &SimDevice, name: &str, claimed: u64) {
    let page_size = device.page_size();
    let mut file = device.create(name).expect("create dataset");
    let mut header = PageBuf::new(page_size);
    let bytes = header.as_bytes_mut();
    bytes[0..4].copy_from_slice(&0x5457_5253u32.to_le_bytes()); // "TWRS" magic
    bytes[4..8].copy_from_slice(&16u32.to_le_bytes()); // Record::SIZE
    bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
    file.write_page(0, header.as_bytes()).expect("write header");
    // One data page only — far fewer than `claimed` records' worth.
    let data = PageBuf::new(page_size);
    file.write_page(1, data.as_bytes()).expect("write one page");
    file.flush().expect("flush");
}

/// Sorts the dataset `input` with both `run_file` and `stream_file` at
/// `threads`; each must fail with an error `expected` accepts and leave
/// nothing but the dataset on the device — no spill file, no partial
/// output.
fn assert_sorting_file_fails(
    device: &SimDevice,
    input: &str,
    threads: usize,
    expected: fn(&SortError) -> bool,
) {
    let job = || {
        SortJob::new(ReplacementSelection::new(MEMORY))
            .on(device)
            .threads(threads)
    };
    let file = job().run_file(input, "out");
    assert!(
        matches!(&file, Err(error) if expected(error)),
        "run_file ({threads} threads): got {file:?}"
    );
    assert_eq!(
        device.list(),
        vec![input.to_string()],
        "run_file ({threads} threads)"
    );
    let stream = job().stream_file(input);
    assert!(
        matches!(&stream, Err(error) if expected(error)),
        "stream_file ({threads} threads): got {stream:?}"
    );
    assert_eq!(
        device.list(),
        vec![input.to_string()],
        "stream_file ({threads} threads)"
    );
}

fn is_storage_error(error: &SortError) -> bool {
    matches!(error, SortError::Storage(_))
}

#[test]
fn sequential_sort_file_reports_truncated_input_as_an_error() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    write_truncated_dataset(&device, "truncated", 100_000);
    assert_sorting_file_fails(&device, "truncated", 1, is_storage_error);
}

#[test]
fn parallel_sort_file_reports_truncated_input_as_an_error() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    write_truncated_dataset(&device, "truncated", 100_000);
    assert_sorting_file_fails(&device, "truncated", 4, is_storage_error);
}

#[test]
fn sort_job_run_file_reports_truncated_input_as_an_error() {
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        write_truncated_dataset(&device, "truncated", 50_000);
        let result = SortJob::new(LoadSortStore::new(MEMORY))
            .on(&device)
            .threads(threads)
            .run_file("truncated", "out");
        assert!(
            result.is_err(),
            "truncated input must fail ({threads} threads)"
        );
        assert!(
            !device.exists("out"),
            "partial output left behind ({threads} threads)"
        );
    }
}

#[test]
fn sort_file_still_works_on_healthy_input() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    materialize(&device, "input", input().records()).expect("materialise");
    let report = SortJob::new(ReplacementSelection::new(MEMORY))
        .on(&device)
        .verify(true)
        .run_file("input", "out")
        .expect("healthy dataset sorts");
    assert_eq!(report.report.records, RECORDS);
}

#[test]
fn record_size_mismatch_is_an_error_not_a_panic() {
    // A dataset of u64 keys read as 16-byte Records: the header record
    // size does not match, which must surface from `open`, as an error.
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let mut writer =
        two_way_replacement_selection::storage::RunWriter::<u64>::create(&device, "keys")
            .expect("create dataset");
    for k in 0..1_000u64 {
        writer.push(&k).expect("write key");
    }
    writer.finish().expect("finish");

    for threads in [1, 4] {
        assert_sorting_file_fails(&device, "keys", threads, |error| {
            matches!(error, SortError::Storage(StorageError::CorruptHeader(_)))
        });
    }
}
