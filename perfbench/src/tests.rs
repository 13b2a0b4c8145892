//! Whole-workload checks at reduced size: the tracing wrappers change
//! nothing the program does, one seed repeats every count exactly, and a
//! held-out seed passes every output check.

use crate::metrics::Outcome;
use crate::service::{self, ServiceSpec};
use crate::single::{self, RunConfig, SingleSpec};
use crate::WORKLOADS;

const SEED: u64 = 5;

/// Seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 9_001;

fn small(spec: SingleSpec) -> SingleSpec {
    SingleSpec {
        records: 60_000,
        ..spec
    }
}

const SMALL_SERVICE: ServiceSpec = ServiceSpec {
    job_records: 3_000,
    rate: 200.0,
    warmup_jobs: 9,
};

/// Runs `workload` at reduced size and asserts that every check passed:
/// each output, and — because every run also sorts through the wrappers —
/// that the traced sorts moved exactly the untraced sorts' counters.
fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let config = RunConfig {
        seed,
        seconds: 0.2,
        trace,
    };
    let (outcome, _) = match workload {
        "merge_deep" => single::run(&small(single::MERGE_DEEP), &config),
        "twrs_stream" => single::run(&small(single::TWRS_STREAM), &config),
        "sharded_stripe" => single::run(&small(single::SHARDED_STRIPE), &config),
        _ => service::run(&SMALL_SERVICE, &config),
    };
    assert!(
        outcome.correct(),
        "{workload} seed {seed} trace {trace}: {:?}",
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn wrappers_are_transparent_and_counts_repeat() {
    let repeatable = [
        (
            false,
            &["write_amp", "read_amp", "space_amp", "sim_io_s"][..],
        ),
        (true, &["rungen.runs", "merge.steps"][..]),
    ];
    for workload in WORKLOADS {
        for (trace, names) in repeatable {
            let first = run(workload, SEED, trace);
            let second = run(workload, SEED, trace);
            for name in names {
                // The most pages held at once on the parallel engine depends
                // on how the two disks' reducers interleave their creates and
                // removes, so it is not an exact count there.
                if workload == "sharded_stripe" && *name == "space_amp" {
                    continue;
                }
                let value = value(&first, name);
                assert!(value > 0.0, "{workload} {name} is {value}");
                assert_eq!(value, self::value(&second, name), "{workload} {name}");
            }
        }
    }
}

#[test]
fn held_out_seed_passes_every_check() {
    for workload in WORKLOADS {
        run(workload, HELD_OUT_SEED, false);
        run(workload, HELD_OUT_SEED, true);
    }
}
