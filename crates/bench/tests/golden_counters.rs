//! Golden deterministic-I/O counters: one small scenario per generator.
//!
//! The CI baseline gate (`bench_suite --check-baseline` against
//! `crates/bench/baseline.json`) pins the whole quick matrix, but it only
//! runs in CI. These tests pin the exact page, seek and run counts of one
//! scenario per run-generation algorithm so a plain `cargo test -q` catches
//! accounting or algorithmic drift too — on any machine, because the
//! simulated device makes the counters pure functions of the scenario.
//!
//! The pinned values are intentionally the same as the corresponding
//! baseline entries: if one of these tests fails, the baseline gate would
//! fail for the same reason, and both must be updated in the same PR
//! (`cargo run --release --bin bench_suite -- --quick --update-baseline`).

use twrs_bench::suite::{run_scenario, DeterministicCounters, GeneratorKind, Scenario, SinkMode};
use twrs_workloads::DistributionKind;

fn base_scenario(generator: GeneratorKind, sink: SinkMode) -> Scenario {
    Scenario {
        sink,
        ..Scenario::new(generator, DistributionKind::RandomUniform, 6_000, 300)
    }
}

fn golden(generator: GeneratorKind, sink: SinkMode, expected: DeterministicCounters) {
    let scenario = base_scenario(generator, sink);
    let result = run_scenario(&scenario).expect("scenario runs");
    assert_eq!(
        result.deterministic(),
        expected,
        "deterministic counters drifted for {} — if intentional, update this \
         test AND crates/bench/baseline.json in the same PR",
        scenario.id()
    );
}

#[test]
fn rs_random_counters_are_pinned() {
    golden(
        GeneratorKind::Rs,
        SinkMode::File,
        DeterministicCounters {
            pages_read: 71,
            pages_written: 84,
            final_pass_pages_written: 26,
            runs: 11,
            seeks: 45,
        },
    );
}

#[test]
fn lss_random_counters_are_pinned() {
    golden(
        GeneratorKind::Lss,
        SinkMode::File,
        DeterministicCounters {
            pages_read: 102,
            pages_written: 125,
            final_pass_pages_written: 26,
            runs: 20,
            seeks: 69,
        },
    );
}

#[test]
fn twrs_random_counters_are_pinned() {
    golden(
        GeneratorKind::Twrs,
        SinkMode::File,
        DeterministicCounters {
            pages_read: 116,
            pages_written: 139,
            final_pass_pages_written: 26,
            runs: 11,
            seeks: 82,
        },
    );
}

#[test]
fn streamed_sorts_write_zero_final_pass_pages() {
    // The headline invariant of the sink axis, pinned per generator: a
    // streamed sort never pays the final write pass its file twin pays,
    // and its generation/run structure is identical to the twin's.
    for generator in GeneratorKind::all() {
        let file = run_scenario(&base_scenario(generator, SinkMode::File)).unwrap();
        let stream = run_scenario(&base_scenario(generator, SinkMode::Stream)).unwrap();
        let file_det = file.deterministic();
        let stream_det = stream.deterministic();
        assert_eq!(
            stream_det.final_pass_pages_written, 0,
            "{:?}: streamed final pass must write nothing",
            generator
        );
        assert_eq!(file_det.final_pass_pages_written, 26, "{generator:?}");
        assert_eq!(stream_det.runs, file_det.runs, "{generator:?}");
        // The stream's phase totals stop at the suspension point: exactly
        // the file twin's writes minus the final pass.
        assert_eq!(
            stream_det.pages_written,
            file_det.pages_written - file_det.final_pass_pages_written,
            "{generator:?}"
        );
    }
}

/// The number after `prefix` in a scenario id — the thread count after
/// `-t` (`...-t1-stream`), the stripe width after `-d` (`...-t4-d4`) — or
/// `None` without such a segment (service ids, single-disk ids).
fn number_in_id(id: &str, prefix: &str) -> Option<u64> {
    id.match_indices(prefix).find_map(|(pos, _)| {
        let segment = id[pos + prefix.len()..].split('-').next()?;
        segment.parse().ok()
    })
}

#[test]
fn striped_twrs_counters_are_pinned() {
    // The striped slice: 4 shards on a 4-disk stripe, one per member.
    // Pinned to the committed baseline entry for
    // 2wrs-random-record-n6000-m300-t4-d4.
    let scenario = Scenario {
        threads: 4,
        disks: 4,
        ..base_scenario(GeneratorKind::Twrs, SinkMode::File)
    };
    let result = run_scenario(&scenario).expect("scenario runs");
    assert_eq!(
        result.deterministic(),
        DeterministicCounters {
            pages_read: 237,
            pages_written: 289,
            final_pass_pages_written: 26,
            runs: 45,
            seeks: 189,
        },
        "deterministic counters drifted for {} — if intentional, update this \
         test AND crates/bench/baseline.json in the same PR",
        scenario.id()
    );
    // The per-disk breakdown folds exactly into those totals.
    assert_eq!(result.per_disk.len(), 4);
    assert_eq!(
        result.per_disk.iter().map(|d| d.seeks).sum::<u64>(),
        189,
        "{}: member seeks fold into the pinned total",
        scenario.id()
    );
}

#[test]
fn baseline_pins_seeks_exactly_for_single_threaded_scenarios() {
    // Every disk head of a simulated sort has one reader at a time at any
    // thread count (see the `suite::baseline` docs), so every entry of the
    // committed file pins a seek count: single- and multi-threaded
    // scenarios on one disk, striped scenarios (`-d<n>` ids) and service
    // scenarios (single-threaded jobs on private device scopes) alike.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let text = std::fs::read_to_string(path).expect("committed baseline exists");
    let baseline = twrs_bench::suite::Json::parse(&text).expect("baseline parses");
    let scenarios = baseline
        .get("scenarios")
        .and_then(|s| s.as_obj())
        .expect("scenarios object");
    let mut single = 0;
    let mut multi = 0;
    let mut striped = 0;
    let mut service = 0;
    for (id, entry) in scenarios {
        let seeks = entry.get("seeks").expect("seeks field is always present");
        assert!(
            seeks.as_u64().is_some(),
            "{id}: every scenario must pin a concrete seek count"
        );
        if id.starts_with("service-") {
            service += 1;
        } else if number_in_id(id, "-d").is_some() {
            striped += 1;
            assert!(
                number_in_id(id, "-t").is_some_and(|t| t > 1),
                "{id}: the striped slice runs multi-threaded sorts"
            );
        } else {
            match number_in_id(id, "-t") {
                Some(1) => single += 1,
                Some(_) => multi += 1,
                None => panic!("{id}: id encodes no thread count"),
            }
        }
    }
    assert!(
        single > 0 && multi > 0 && striped > 0 && service > 0,
        "all four classes pinned"
    );
}

#[test]
fn golden_scenarios_match_the_committed_baseline() {
    // The values pinned above must agree with crates/bench/baseline.json,
    // so the off-CI golden tests and the CI gate can never drift apart.
    // The baseline lives next to this crate; CARGO_MANIFEST_DIR makes the
    // lookup independent of the test's working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let text = std::fs::read_to_string(path).expect("committed baseline exists");
    let baseline = twrs_bench::suite::Json::parse(&text).expect("baseline parses");
    let scenarios = baseline.get("scenarios").expect("scenarios object");
    for (slug, pinned) in [
        ("rs", (71, 84, 11, 45)),
        ("lss", (102, 125, 20, 69)),
        ("2wrs", (116, 139, 11, 82)),
    ] {
        let id = format!("{slug}-random-record-n6000-m300-t1");
        let entry = scenarios.get(&id).unwrap_or_else(|| panic!("{id} pinned"));
        let get = |k: &str| entry.get(k).and_then(|v| v.as_u64()).unwrap();
        assert_eq!(
            (
                get("pages_read"),
                get("pages_written"),
                get("runs"),
                get("seeks")
            ),
            (pinned.0, pinned.1, pinned.2, pinned.3),
            "{id}: golden test and baseline.json disagree"
        );
        assert_eq!(
            get("final_pass_pages_written"),
            26,
            "{id}: final-pass pin and baseline.json disagree"
        );
        // And the stream twin is pinned to zero final-pass pages — the
        // invariant `--check-baseline` gates in CI.
        let stream_entry = scenarios
            .get(&format!("{id}-stream"))
            .unwrap_or_else(|| panic!("{id}-stream pinned"));
        assert_eq!(
            stream_entry
                .get("final_pass_pages_written")
                .and_then(|v| v.as_u64()),
            Some(0),
            "{id}-stream: the baseline must pin zero final-pass pages"
        );
    }
}
