//! Quickstart: sort a dataset that does not fit in memory with two-way
//! replacement selection.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example materialises one million random records on a simulated disk,
//! sorts them with the recommended 2WRS configuration through the standard
//! external-sort pipeline, verifies the output and prints a phase-by-phase
//! report. Swap `SimDevice` for `RealFileDevice::temp()` to run against
//! real files.

use two_way_replacement_selection::extsort::sorter::verify_sorted;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::workloads::{materialize, Record};

fn main() {
    let records: u64 = 1_000_000;
    let memory: usize = 10_000;

    // 1. A storage device. The simulated device keeps everything in memory
    //    and models disk seeks and transfers, which makes the example fast
    //    and deterministic.
    let device = SimDevice::with_model(ModelId::Hdd7200);

    // 2. Materialise an unsorted dataset on the device, as a database would
    //    have it on disk before an ORDER BY.
    let input = Distribution::new(DistributionKind::RandomUniform, records, 42);
    materialize(&device, "input", input.records()).expect("write input dataset");
    println!("input: {records} random records ({memory} records of sort memory)");

    // 3. Describe the sort: 2WRS with the paper's recommended configuration
    //    (both buffers, 2 % of memory, Mean input heuristic, Random output
    //    heuristic), merged with the fan-in found optimal in §6.1.1. The
    //    `SortJob` builder fronts the whole pipeline; `.threads(n)` would
    //    run the same job sharded over n workers.
    let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(memory));

    // 4. Sort.
    let report = SortJob::new(twrs)
        .on(&device)
        .merge(MergeConfig {
            fan_in: 10,
            read_ahead_records: 1_024,
        })
        .run_file("input", "sorted")
        .expect("external sort succeeds")
        .report;

    // 5. Verify and report.
    verify_sorted::<Record>(&device, "sorted", records).expect("output is sorted and complete");
    println!("runs generated      : {}", report.num_runs);
    println!(
        "average run length  : {:.0} records ({:.2}x memory)",
        report.average_run_length, report.relative_run_length
    );
    println!(
        "run generation      : {:?} wall, {} pages written, {} seeks",
        report.run_generation.wall,
        report.run_generation.pages_written,
        report.run_generation.seeks
    );
    println!(
        "merge phase         : {:?} wall, {} merge steps, {} pages read, {} seeks",
        report.merge.wall,
        report.merge_report.merge_steps,
        report.merge.pages_read,
        report.merge.seeks
    );
    println!(
        "modelled total time : {:?} (wall + simulated I/O)",
        report.total_modelled()
    );
    println!("output verified: 'sorted' contains {records} records in order");
}
