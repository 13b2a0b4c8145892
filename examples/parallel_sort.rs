//! Parallel external sort: the same pipeline as `quickstart`, sharded
//! across worker threads.
//!
//! ```text
//! cargo run --release --example parallel_sort
//! ```
//!
//! The example sorts one million random records twice through the same
//! `SortJob` builder — once with `threads(1)` (the sequential pipeline) and
//! once with one thread per available core — and compares the reports. The
//! parallel path divides the *same* total memory budget across its shards
//! (here: 10 000 records split over N workers, so per-shard heaps shrink as
//! threads grow); each shard writes its own runs. Spill-writer and merge
//! prefetch threads start only on a device with wall-clock latency (real
//! files), so this `SimDevice` sort runs none. Its output is
//! byte-identical to the sequential path's.

use two_way_replacement_selection::extsort::sorter::verify_sorted;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::workloads::materialize;

fn main() {
    let records: u64 = 1_000_000;
    let memory: usize = 10_000;
    // At least two shards so the example exercises the sharded path even
    // on a single-CPU machine (threads(1) would select the sequential
    // pipeline).
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(DistributionKind::RandomUniform, records, 42);
    materialize(&device, "input", input.records()).expect("write input dataset");
    println!("input: {records} random records, {memory} records of sort memory");

    let merge = MergeConfig {
        fan_in: 10,
        read_ahead_records: 1_024,
    };

    // --- Single-threaded reference -------------------------------------
    let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(memory));
    let seq = SortJob::new(twrs)
        .on(&device)
        .merge(merge)
        .run_file("input", "sorted-seq")
        .expect("sequential sort succeeds")
        .report;
    println!(
        "\nsequential          : {:?} wall ({} runs, {} merge steps)",
        seq.total_wall(),
        seq.num_runs,
        seq.merge_report.merge_steps
    );

    // --- Parallel sort --------------------------------------------------
    // The generator is the same; `shard()` hands each worker a copy whose
    // memory budget is `memory / threads` (remainder to the first shards),
    // so total memory stays fixed no matter the thread count.
    let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(memory));
    let par = SortJob::new(twrs)
        .on(&device)
        .threads(threads)
        .merge(merge)
        .run_file("input", "sorted-par")
        .expect("parallel sort succeeds");

    println!(
        "parallel ({threads} threads){}: {:?} wall ({} runs, {} merge steps)",
        if threads < 10 { " " } else { "" },
        par.report.total_wall(),
        par.report.num_runs,
        par.report.merge_report.merge_steps
    );
    let speedup = seq.total_wall().as_secs_f64() / par.report.total_wall().as_secs_f64().max(1e-9);
    println!("speedup             : {speedup:.2}x");

    println!("\nper-shard breakdown (run generation):");
    for shard in par.shards.as_deref().unwrap_or_default() {
        println!(
            "  shard {:>2}: {:>8} records, {:>4} runs, {:>6} pages written, {:>5} seeks",
            shard.shard,
            shard.records,
            shard.num_runs,
            shard.io.counters.pages_written,
            shard.io.counters.seeks
        );
    }
    assert!(
        par.io_is_consistent(),
        "aggregated I/O equals the shard sums"
    );

    // --- The two outputs are the same file, byte for byte ---------------
    verify_sorted::<Record>(&device, "sorted-seq", records).expect("sequential output verified");
    verify_sorted::<Record>(&device, "sorted-par", records).expect("parallel output verified");
    let mut seq_file = device.open("sorted-seq").expect("open sequential output");
    let mut par_file = device.open("sorted-par").expect("open parallel output");
    assert_eq!(seq_file.num_pages(), par_file.num_pages());
    let mut a = vec![0u8; device.page_size()];
    let mut b = vec![0u8; device.page_size()];
    for page in 0..seq_file.num_pages() {
        seq_file.read_page(page, &mut a).expect("read");
        par_file.read_page(page, &mut b).expect("read");
        assert_eq!(a, b, "outputs diverge at page {page}");
    }
    println!(
        "\noutputs are byte-identical ({} pages)",
        seq_file.num_pages()
    );
}
