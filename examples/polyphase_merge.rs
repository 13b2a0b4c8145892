//! Table 2.1 — the polyphase merge schedule of the paper's six-tape
//! example — then polyphase vs multi-pass k-way merging of one run set on a
//! simulated disk.
//!
//! ```text
//! cargo run --release --example polyphase_merge
//! ```

use std::fmt::Write;
use std::time::Instant;
use two_way_replacement_selection::extsort::{polyphase_merge, polyphase_schedule, KWayMerger};
use two_way_replacement_selection::prelude::*;

/// Table 2.1: the runs on each tape after every step of the polyphase
/// merge that starts from the paper's distribution `{8, 10, 3, 0, 8, 11}`.
fn table_2_1() -> String {
    let tapes: String = (1..=6)
        .map(|t| format!("{:>8}", format!("tape {t}")))
        .collect();
    let mut table = format!("{:<8}{tapes}\n", "step");
    for (step, runs) in polyphase_schedule(&[8, 10, 3, 0, 8, 11]).iter().enumerate() {
        let runs: String = runs.iter().map(|n| format!("{n:>8}")).collect();
        let _ = writeln!(table, "{:<8}{runs}", format!("Step {step}"));
    }
    table
}

fn main() {
    println!("Table 2.1 — polyphase merge with 6 tapes (runs on each tape)\n");
    print!("{}", table_2_1());

    let (runs, per_run) = (40u64, 2_048u64);
    println!("\nMerging {runs} runs of {per_run} records on a simulated hdd-7200:\n");
    println!("{:<22}{:>12}{:>8}", "strategy", "time", "seeks");
    for (strategy, polyphase) in [("k-way (fan-in 10)", false), ("polyphase (6 tapes)", true)] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("merge");
        let mut input =
            Distribution::new(DistributionKind::RandomUniform, runs * per_run, 3).records();
        let run_set = LoadSortStore::new(per_run as usize)
            .generate(&device, &namer, &mut input)
            .expect("run generation succeeds")
            .runs;
        device.reset_stats();
        let started = Instant::now();
        let merge = MergeConfig {
            fan_in: 10,
            read_ahead_records: 256,
        };
        match polyphase {
            true => polyphase_merge::<_, Record>(&device, &namer, run_set, 6, "sorted").map(drop),
            false => KWayMerger::new(merge)
                .merge_into::<_, Record>(&device, &namer, run_set, "sorted")
                .map(drop),
        }
        .expect("merge succeeds");
        let stats = device.stats();
        let time = stats.simulated_time() + started.elapsed();
        println!(
            "{strategy:<22}{:>9.1} ms{:>8}",
            time.as_secs_f64() * 1_000.0,
            stats.counters.seeks
        );
    }
    println!("\nTime is the simulated disk time plus the measured CPU time.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_1_matches_the_paper() {
        let table = table_2_1();
        let rows: Vec<&str> = table.lines().skip(1).collect();
        // Seven rows: the initial state plus six steps.
        assert_eq!(rows.len(), 7);
        assert!(rows[0].starts_with("Step 0"));
        assert!(rows[6].starts_with("Step 6"));
        let last: Vec<&str> = rows[6].split_whitespace().skip(2).collect();
        assert_eq!(last, ["1", "0", "0", "0", "0", "0"]);
    }
}
