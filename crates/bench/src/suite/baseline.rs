//! The deterministic-metrics regression gate.
//!
//! Under the simulated device, pages read/written, run counts and (on the
//! sequential path) seeks are pure functions of the scenario — identical on
//! every machine. `crates/bench/baseline.json` pins them for the quick
//! matrix; CI re-runs the matrix and fails on any drift, so an accounting
//! or algorithmic regression cannot land silently. Intentional changes
//! update the baseline in the same PR via `bench_suite --update-baseline`.
//!
//! Baseline schema (`"schema": "twrs-bench-baseline/v1"`): a `scenarios`
//! object keyed by scenario id — single-sort ids and `service-`-prefixed
//! multi-job ids share the namespace — each value the scenario's
//! `deterministic` block from the bench report.
//!
//! ## `seeks` semantics
//!
//! The `seeks` field is an explicit `Option`: `null` **only** encodes "not
//! deterministic for this scenario", never "zero" or "unknown". Seek counts
//! depend on the order reads pass through the device's disk head, so:
//!
//! * **single-threaded scenarios** (`-t1` ids) always pin a concrete
//!   number — a `null` there would silently drop coverage and is itself a
//!   drift (`counter_drift` treats a `Some`/`None` disagreement between
//!   baseline and measurement as a failure, in both directions);
//! * **multi-threaded scenarios** (`-t4` ids) pin `null`, because the
//!   interleaving of generation and prefetch threads through the shared
//!   head is scheduler-dependent;
//! * **striped scenarios** (`-d<n>` ids, `disks > 1`) pin a concrete
//!   number again even at `-t4`: each shard spills to its own stripe
//!   member and the per-disk reduction keeps every member head
//!   single-reader, so no scheduler-dependent interleaving ever reaches a
//!   head (the per-member breakdown also rides in the bench report);
//! * **service scenarios** (`service-` ids) pin a concrete sum even though
//!   jobs run concurrently: every job is single-threaded on its own
//!   [`ScopedDevice`](twrs_storage::ScopedDevice) scope (a private head),
//!   so the per-job counts — and their order-independent sum — stay
//!   deterministic.
//!
//! The `baseline_pins_seeks_exactly_for_single_threaded_scenarios` test in
//! `tests/golden_counters.rs` enforces this contract on the committed file.

use super::json::Json;
use super::report::{deterministic_json, BenchReport};
use super::runner::DeterministicCounters;

/// Identifier of the baseline format.
pub const BASELINE_SCHEMA: &str = "twrs-bench-baseline/v1";

/// One divergence between the baseline and a fresh run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Scenario id the drift belongs to.
    pub scenario: String,
    /// Human-readable description of what changed.
    pub detail: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.scenario, self.detail)
    }
}

/// Serializes the deterministic subset of `report` as a baseline document.
pub fn baseline_from_report(report: &BenchReport) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(BASELINE_SCHEMA.into())),
        ("matrix", Json::Str(report.matrix.into())),
        (
            "scenarios",
            Json::Obj(
                report
                    .results
                    .iter()
                    .map(|r| (r.scenario.id(), deterministic_json(&r.deterministic())))
                    .chain(
                        report
                            .service_results
                            .iter()
                            .map(|r| (r.scenario.id(), deterministic_json(&r.deterministic()))),
                    )
                    .collect(),
            ),
        ),
    ])
}

fn counter_drift(
    drifts: &mut Vec<Drift>,
    scenario: &str,
    field: &str,
    baseline: Option<&Json>,
    measured: Option<u64>,
) {
    let pinned = baseline.and_then(Json::as_u64);
    // A null (or absent) field on either side means "not comparable here"
    // — that is itself a drift unless both sides agree it is absent.
    match (pinned, measured) {
        (Some(p), Some(m)) if p == m => {}
        (None, None) => {}
        (Some(p), Some(m)) => drifts.push(Drift {
            scenario: scenario.to_string(),
            detail: format!("{field}: baseline {p}, measured {m}"),
        }),
        (Some(p), None) => drifts.push(Drift {
            scenario: scenario.to_string(),
            detail: format!("{field}: baseline {p}, but no longer measured"),
        }),
        (None, Some(m)) => drifts.push(Drift {
            scenario: scenario.to_string(),
            detail: format!("{field}: measured {m}, but not pinned in the baseline"),
        }),
    }
}

/// Compares a fresh report against a parsed baseline document. Returns
/// every drift found: counter mismatches, scenarios missing from the
/// baseline, stale baseline entries the matrix no longer produces, and
/// matrix/schema mismatches.
pub fn compare(baseline: &Json, report: &BenchReport) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if baseline.get("schema").and_then(Json::as_str) != Some(BASELINE_SCHEMA) {
        drifts.push(Drift {
            scenario: "<baseline>".into(),
            detail: format!("unrecognized schema (expected {BASELINE_SCHEMA})"),
        });
        return drifts;
    }
    if baseline.get("matrix").and_then(Json::as_str) != Some(report.matrix) {
        drifts.push(Drift {
            scenario: "<baseline>".into(),
            detail: format!(
                "baseline pins matrix {:?}, report ran {:?}",
                baseline.get("matrix").and_then(Json::as_str).unwrap_or("?"),
                report.matrix
            ),
        });
        return drifts;
    }
    let empty = Json::Obj(vec![]);
    let pinned = baseline.get("scenarios").unwrap_or(&empty);

    // Single-sort and multi-job service scenarios share the namespace and
    // the deterministic-block shape, so one pass gates both.
    let measured: Vec<(String, DeterministicCounters)> = report
        .results
        .iter()
        .map(|r| (r.scenario.id(), r.deterministic()))
        .chain(
            report
                .service_results
                .iter()
                .map(|r| (r.scenario.id(), r.deterministic())),
        )
        .collect();

    for (id, det) in &measured {
        let Some(entry) = pinned.get(id) else {
            drifts.push(Drift {
                scenario: id.clone(),
                detail: "scenario not in the baseline (run `bench_suite --update-baseline`)".into(),
            });
            continue;
        };
        // For stream scenarios `final_pass_pages_written` pins the headline
        // invariant: zero final-pass pages, forever.
        for (field, value) in [
            ("pages_read", Some(det.pages_read)),
            ("pages_written", Some(det.pages_written)),
            (
                "final_pass_pages_written",
                Some(det.final_pass_pages_written),
            ),
            ("runs", Some(det.runs)),
            ("seeks", det.seeks),
        ] {
            counter_drift(&mut drifts, id, field, entry.get(field), value);
        }
    }

    // Baseline entries whose scenario the matrix no longer produces.
    if let Some(pairs) = pinned.as_obj() {
        for (id, _) in pairs {
            if !measured.iter().any(|(m, _)| m == id) {
                drifts.push(Drift {
                    scenario: id.clone(),
                    detail: "stale baseline entry: scenario not in the current matrix".into(),
                });
            }
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::matrix::{GeneratorKind, Scenario, ScenarioMatrix};
    use twrs_workloads::DistributionKind;

    fn report() -> BenchReport {
        let matrix = ScenarioMatrix {
            name: "quick",
            scenarios: [1, 4]
                .map(|threads| Scenario {
                    threads,
                    ..Scenario::new(GeneratorKind::Lss, DistributionKind::Sorted, 1_000, 100)
                })
                .to_vec(),
        };
        BenchReport::run(&matrix, "test", |_| {}).unwrap()
    }

    #[test]
    fn fresh_baseline_has_no_drift() {
        let report = report();
        let baseline = baseline_from_report(&report);
        // Through a render/parse round trip, exactly like CI reads the
        // committed file.
        let parsed = Json::parse(&baseline.render()).unwrap();
        assert_eq!(compare(&parsed, &report), Vec::new());
    }

    #[test]
    fn perturbed_counter_is_detected() {
        let report = report();
        let mut baseline = baseline_from_report(&report);
        // Perturb one pinned pages_written value.
        let Json::Obj(ref mut pairs) = baseline else {
            panic!()
        };
        let scenarios = pairs.iter_mut().find(|(k, _)| k == "scenarios").unwrap();
        let Json::Obj(ref mut entries) = scenarios.1 else {
            panic!()
        };
        let Json::Obj(ref mut first) = entries[0].1 else {
            panic!()
        };
        let pw = first
            .iter_mut()
            .find(|(k, _)| k == "pages_written")
            .unwrap();
        pw.1 = Json::counter(999_999);
        let drifts = compare(&baseline, &report);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].detail.contains("pages_written"));
        assert!(drifts[0].detail.contains("999999"));
    }

    #[test]
    fn missing_and_stale_scenarios_are_detected() {
        let mut report = report();
        let baseline = baseline_from_report(&report);
        // Drop one scenario from the report: its baseline entry is stale.
        let removed = report.results.pop().unwrap();
        let drifts = compare(&baseline, &report);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].scenario, removed.scenario.id());
        assert!(drifts[0].detail.contains("stale"));
        // And an empty baseline reports every scenario as missing.
        let empty = Json::obj(vec![
            ("schema", Json::Str(BASELINE_SCHEMA.into())),
            ("matrix", Json::Str("quick".into())),
            ("scenarios", Json::Obj(vec![])),
        ]);
        let drifts = compare(&empty, &report);
        assert_eq!(
            drifts.len(),
            report.results.len() + report.service_results.len(),
            "service scenarios are gated too"
        );
        assert!(drifts[0].detail.contains("not in the baseline"));
    }

    #[test]
    fn matrix_and_schema_mismatches_short_circuit() {
        let report = report();
        let wrong_matrix = Json::obj(vec![
            ("schema", Json::Str(BASELINE_SCHEMA.into())),
            ("matrix", Json::Str("full".into())),
            ("scenarios", Json::Obj(vec![])),
        ]);
        let drifts = compare(&wrong_matrix, &report);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].detail.contains("matrix"));
        let wrong_schema = Json::obj(vec![("schema", Json::Str("nope/v0".into()))]);
        let drifts = compare(&wrong_schema, &report);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].detail.contains("schema"));
    }
}
