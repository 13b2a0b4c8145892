//! Equivalence suite for sharded sort jobs.
//!
//! A one-thread [`SortJob`] is the reference implementation; a job with
//! more threads must be *observably identical* for every input shape and
//! thread count. For all six paper distributions and thread counts
//! {1, 2, 4, 7} this suite pins that:
//!
//! * the sorted output file is **byte-identical** (page-for-page) to the
//!   one-thread output on the same seed;
//! * the record counts match, and the parallel run-set totals are
//!   internally consistent (shard records and run counts sum to the
//!   aggregated totals);
//! * the aggregated run-generation I/O counters equal the field-wise sum of
//!   the per-shard counters, and the page counters also reconcile with what
//!   the shared device actually observed (no silently dropped accounting).
//!
//! Degenerate inputs — empty, a single record, fewer records than shards —
//! get the same treatment.

use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::IoStatsSnapshot;

const SEED: u64 = 41;
const MEMORY: usize = 300;
const RECORDS: u64 = 6_000;
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn merge_config() -> MergeConfig {
    MergeConfig {
        fan_in: 6,
        read_ahead_records: 128,
    }
}

/// Every page of `name` on `device`, so comparisons cover the exact bytes
/// (headers, payloads and trailing-page padding included).
fn file_bytes(device: &SimDevice, name: &str) -> Vec<u8> {
    let mut file = device.open(name).expect("output exists");
    let mut bytes = Vec::new();
    let mut page = vec![0u8; device.page_size()];
    for index in 0..file.num_pages() {
        file.read_page(index, &mut page).expect("page readable");
        bytes.extend_from_slice(&page);
    }
    bytes
}

/// Sorts `kind` on one thread on a fresh device; returns the output bytes
/// and the report.
fn sort_sequential<G: ShardableGenerator>(
    generator: G,
    kind: DistributionKind,
    records: u64,
) -> (Vec<u8>, SortReport) {
    let (bytes, report, _) = sort_parallel(generator, kind, records, 1);
    (bytes, report.report)
}

/// Sorts `kind` with `threads` threads on a fresh device; returns the
/// output bytes, the report and the device-level total page counters so
/// accounting can be reconciled externally.
fn sort_parallel<G: ShardableGenerator>(
    generator: G,
    kind: DistributionKind,
    records: u64,
    threads: usize,
) -> (Vec<u8>, SortJobReport, IoStatsSnapshot) {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(kind, records, SEED).records();
    let report = SortJob::new(generator)
        .on(&device)
        .threads(threads)
        .merge(merge_config())
        .verify(true)
        .run_iter(input, "out")
        .expect("sort succeeds");
    // Snapshot the device before reading the output back, so the totals
    // cover exactly the sort's own traffic.
    let totals = device.stats();
    (file_bytes(&device, "out"), report, totals)
}

/// The invariants every report must satisfy, against its one-thread
/// reference.
fn assert_equivalent(
    label: &str,
    threads: usize,
    seq_bytes: &[u8],
    seq: &SortReport,
    par_bytes: &[u8],
    par: &SortJobReport,
    device_totals: &IoStatsSnapshot,
) {
    let context = format!("{label}, {threads} thread(s)");
    // Output stream: byte-identical, not merely equal as a record multiset.
    assert_eq!(par_bytes, seq_bytes, "output bytes differ ({context})");
    assert_eq!(par.report.records, seq.records, "record count ({context})");
    assert_eq!(par.threads, threads, "thread count echoed ({context})");
    assert!(par.io_is_consistent(), "io consistency ({context})");
    // A one-thread job generates inline and has no shards to reconcile.
    if let Some(shards) = &par.shards {
        assert_eq!(shards.len(), threads, "one report per shard ({context})");

        // Run-set totals: shard sums equal the aggregated totals.
        let shard_records: u64 = shards.iter().map(|s| s.records).sum();
        let shard_runs: usize = shards.iter().map(|s| s.num_runs).sum();
        assert_eq!(
            shard_records, par.report.records,
            "shard records ({context})"
        );
        assert_eq!(
            shard_runs, par.report.num_runs,
            "shard run counts ({context})"
        );

        // I/O accounting: aggregated counters are the shard sums…
        let sum = par.shard_io_sum();
        assert_eq!(
            sum.counters.pages_written, par.report.run_generation.pages_written,
            "aggregated generation writes ({context})"
        );
    } else {
        assert_eq!(
            threads, 1,
            "only a one-thread job has no shards ({context})"
        );
    }
    // …and nothing was dropped: generation + merge + verify page traffic
    // accounts for everything the shared device saw.
    let accounted_written = par.report.run_generation.pages_written
        + par.report.merge.pages_written
        + par.report.verify.map_or(0, |v| v.pages_written);
    let accounted_read = par.report.run_generation.pages_read
        + par.report.merge.pages_read
        + par.report.verify.map_or(0, |v| v.pages_read);
    assert_eq!(
        accounted_written, device_totals.counters.pages_written,
        "pages written reconcile with the device ({context})"
    );
    assert_eq!(
        accounted_read, device_totals.counters.pages_read,
        "pages read reconcile with the device ({context})"
    );

    // One thread is the reference algorithm with the full budget: its run
    // set must match the reference exactly.
    if threads == 1 {
        assert_eq!(par.report.num_runs, seq.num_runs, "run count ({context})");
    }
}

fn equivalence_for_generator<G, F>(make: F)
where
    G: ShardableGenerator,
    F: Fn() -> G,
{
    for kind in DistributionKind::paper_set() {
        let (seq_bytes, seq) = sort_sequential(make(), kind, RECORDS);
        for threads in THREADS {
            let (par_bytes, par, totals) = sort_parallel(make(), kind, RECORDS, threads);
            assert_equivalent(
                kind.label(),
                threads,
                &seq_bytes,
                &seq,
                &par_bytes,
                &par,
                &totals,
            );
        }
    }
}

#[test]
fn twrs_parallel_output_is_byte_identical_across_distributions_and_threads() {
    equivalence_for_generator(|| TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)));
}

#[test]
fn classic_rs_parallel_output_is_byte_identical_across_distributions_and_threads() {
    equivalence_for_generator(|| ReplacementSelection::new(MEMORY));
}

#[test]
fn lss_parallel_output_is_byte_identical_across_distributions_and_threads() {
    equivalence_for_generator(|| LoadSortStore::new(MEMORY));
}

#[test]
fn empty_input_is_equivalent_for_every_thread_count() {
    let (seq_bytes, seq) = sort_sequential(
        TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
        DistributionKind::RandomUniform,
        0,
    );
    for threads in THREADS {
        let (par_bytes, par, totals) = sort_parallel(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            DistributionKind::RandomUniform,
            0,
            threads,
        );
        assert_equivalent(
            "empty", threads, &seq_bytes, &seq, &par_bytes, &par, &totals,
        );
        assert_eq!(par.report.records, 0);
        assert_eq!(par.report.num_runs, 0);
    }
}

#[test]
fn single_record_is_equivalent_for_every_thread_count() {
    let (seq_bytes, seq) = sort_sequential(
        TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
        DistributionKind::Sorted,
        1,
    );
    for threads in THREADS {
        let (par_bytes, par, totals) = sort_parallel(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            DistributionKind::Sorted,
            1,
            threads,
        );
        assert_equivalent(
            "one record",
            threads,
            &seq_bytes,
            &seq,
            &par_bytes,
            &par,
            &totals,
        );
        assert_eq!(par.report.records, 1);
    }
}

#[test]
fn input_smaller_than_one_shard_is_equivalent() {
    // Seven threads, five records: some shards see no input at all, and no
    // shard fills even one round-robin parcel.
    for records in [2u64, 5] {
        let (seq_bytes, seq) = sort_sequential(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            DistributionKind::ReverseSorted,
            records,
        );
        let (par_bytes, par, totals) = sort_parallel(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            DistributionKind::ReverseSorted,
            records,
            7,
        );
        assert_equivalent("tiny input", 7, &seq_bytes, &seq, &par_bytes, &par, &totals);
        assert_eq!(par.report.records, records);
    }
}

#[test]
fn sort_file_attributes_input_reads_to_run_generation() {
    // When the input is a materialised dataset, the coordinator reads it
    // from the same device the shards spill to. Those reads belong to the
    // run-generation phase (its device-level delta attributes them there
    // at every thread count) and must not be dropped from the accounting.
    use two_way_replacement_selection::workloads::materialize;

    let kind = DistributionKind::RandomUniform;
    let records = RECORDS;

    let materialized = || {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        materialize(
            &device,
            "input",
            Distribution::new(kind, records, SEED).records(),
        )
        .expect("materialize input");
        device
    };
    let job = |threads: usize| {
        SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
            MEMORY,
        )))
        .threads(threads)
        .merge(merge_config())
        .verify(true)
    };

    // One-thread reference via run_file.
    let seq_device = materialized();
    let seq = job(1)
        .on(&seq_device)
        .run_file("input", "out")
        .expect("one-thread run_file succeeds")
        .report;

    for threads in THREADS {
        let device = materialized();
        let before = device.stats();
        let par = job(threads)
            .on(&device)
            .run_file("input", "out")
            .expect("run_file succeeds");
        let after = device.stats();

        assert_eq!(
            file_bytes(&device, "out"),
            file_bytes(&seq_device, "out"),
            "byte-identical output ({threads} threads)"
        );
        assert!(par.io_is_consistent(), "{threads} threads");

        // Input reads are attributed to run generation at every thread
        // count — not dropped.
        assert!(
            par.report.run_generation.pages_read > par.shard_io_sum().counters.pages_read,
            "input reads show up in the phase ({threads} threads)"
        );
        // With one thread the generator is the reference algorithm with
        // the full budget, so the phase reads match exactly; with more
        // shards the generators' own reads (2WRS reverse part files) may
        // differ slightly, but never below the input scan itself.
        if threads == 1 {
            assert_eq!(
                par.report.run_generation.pages_read, seq.run_generation.pages_read,
                "same generation reads as the reference (1 thread)"
            );
        }

        // Every page the device saw during the sort is attributed to
        // exactly one phase — except the input file's header page, which
        // `run_file` reads when opening the dataset, before any phase
        // window starts (at every thread count).
        let sorted_delta = after.since(&before);
        let accounted_read = par.report.run_generation.pages_read
            + par.report.merge.pages_read
            + par.report.verify.map_or(0, |v| v.pages_read);
        let accounted_written = par.report.run_generation.pages_written
            + par.report.merge.pages_written
            + par.report.verify.map_or(0, |v| v.pages_written);
        let header_read = 1;
        assert_eq!(
            accounted_read + header_read,
            sorted_delta.counters.pages_read
        );
        assert_eq!(accounted_written, sorted_delta.counters.pages_written);
    }
}

// Note: conservation of the total memory budget across shard splits is
// covered at the unit level (`twrs_core::config` tests assert the sum, the
// per-shard minimum and the seed offsets; `twrs_extsort::parallel` tests
// pin `shard_budget` itself), so this suite does not repeat it.
