//! A database-flavoured scenario: sorting by an anticorrelated column.
//!
//! Chapter 7 of the paper motivates 2WRS with database operators: a table
//! stored sorted by column `a` must be re-sorted by column `b`, and when the
//! two columns are anticorrelated the sort operator receives a
//! reverse-sorted input — exactly the case where classic replacement
//! selection produces its shortest runs. This example builds such a table,
//! runs both algorithms through the full external-sort pipeline and compares
//! the run counts and modelled sorting times.
//!
//! ```text
//! cargo run --release --example database_sort
//! ```

use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::workloads::AnticorrelatedTable;

fn sort_with<G: ShardableGenerator>(generator: G, table: &AnticorrelatedTable) -> SortReport {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    SortJob::new(generator)
        .on(&device)
        .merge(MergeConfig {
            fan_in: 10,
            read_ahead_records: 1_024,
        })
        .verify(true)
        .run_iter(table.sort_by_b_input(), "by_b")
        .expect("sort succeeds")
        .report
}

fn main() {
    let rows: u64 = 500_000;
    let memory: usize = 5_000;

    // A table with 500 000 rows, stored in `a` order, whose column `b` is
    // anticorrelated with `a` (b ≈ max − a plus noise).
    let table = AnticorrelatedTable::new(rows, 3).with_noise(1_000);
    println!(
        "table: {rows} rows sorted by column a; sorting by the anticorrelated column b\n\
         sort memory: {memory} records\n"
    );

    let rs = sort_with(ReplacementSelection::new(memory), &table);
    let twrs = sort_with(
        TwoWayReplacementSelection::new(TwrsConfig::recommended(memory)),
        &table,
    );

    for report in [&rs, &twrs] {
        println!(
            "{:<5} runs: {:>6}   avg run: {:>8.0} records   merge steps: {}   modelled total: {:?}",
            report.generator,
            report.num_runs,
            report.average_run_length,
            report.merge_report.merge_steps,
            report.total_modelled()
        );
    }
    let speedup = rs.total_modelled().as_secs_f64() / twrs.total_modelled().as_secs_f64();
    println!(
        "\n2WRS sorts the anticorrelated column {speedup:.1}x faster than classic RS\n\
         (the paper reports about 2.5x for this input class at its scale)."
    );
}
