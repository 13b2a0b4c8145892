//! The machine-readable `BENCH_<id>.json` report and its markdown summary.
//!
//! Schema (`"schema": "twrs-bench-suite/v1"`):
//!
//! ```json
//! {
//!   "schema": "twrs-bench-suite/v1",
//!   "id": "pr4",
//!   "matrix": "quick",
//!   "scenario_count": 50,
//!   "disk_model": { "seek_us": 8000, "rotational_us": 4200, "transfer_page_us": 50 },
//!   "scenarios": [
//!     {
//!       "id": "rs-random-record-n6000-m300-t1",
//!       "generator": "RS", "distribution": "random", "record_type": "record",
//!       "sink": "file", "device": "hdd-7200", "disks": 1,
//!       "final_pass_pages_written": 97,
//!       "records": 6000, "memory_records": 300, "threads": 1, "seed": 42,
//!       "wall_us": 1234, "simulated_io_us": 56789, "records_per_sec": 4861448.2,
//!       "runs": 10, "merge_steps": 2, "avg_run_length": 600.0,
//!       "relative_run_length": 2.0, "predicted_relative_run_length": 2.0,
//!       "phases": {
//!         "run_generation": { "wall_us": 1, "pages_read": 0, "pages_written": 24, "seeks": 0, "simulated_io_us": 1200 },
//!         "merge": { "..." : "same shape" },
//!         "verify": { "..." : "same shape, or null for sink/stream scenarios" }
//!       },
//!       "deterministic": { "pages_read": 48, "pages_written": 48, "final_pass_pages_written": 97, "runs": 10, "seeks": 13 },
//!       "per_disk": [ { "pages_read": 24, "pages_written": 24, "seeks": 7 } ],
//!       "io_consistent": true
//!     }
//!   ]
//! }
//! ```
//!
//! Wall-clock fields vary by machine; everything under `deterministic` is
//! identical everywhere (`seeks` is `null` for multi-threaded scenarios,
//! where read interleaving through the one shared disk head is
//! scheduler-dependent — except on striped scenarios, `"disks" > 1`, where
//! shard-pinned spills and the per-disk reduction keep every member head
//! single-reader and seeks concrete again) and is what the CI baseline
//! gate pins. `per_disk` lists each stripe member's counters in stripe
//! order (empty on single-disk scenarios); the runner verifies the fold
//! against the device totals before reporting. `"sink": "stream"` scenarios run through
//! `SortJob::stream_iter`; their pinned `final_pass_pages_written` is `0` —
//! the gated "stream writes zero final-pass pages" invariant — and their
//! phase metrics cover generation plus the intermediate merge passes only
//! (the suspended final merge happens while the runner drains the stream).

use super::json::Json;
use super::matrix::ScenarioMatrix;
use super::runner::{run_scenario, suite_disk_model, PhaseMetrics, ScenarioResult};
use super::service::{run_service_scenario, service_slice, ServiceScenarioResult};
use std::fmt::Write as _;
use twrs_extsort::LatencyPercentiles;

/// Identifier of the report format, bumped on breaking schema changes.
pub const SCHEMA: &str = "twrs-bench-suite/v1";

/// A column-aligned text table with a title: what the CLI prints, and
/// what a paper figure renders as.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already formatted cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as right-aligned plain text under a `== title ==`
    /// line.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut line = String::new();
            for (cell, &width) in cells.iter().zip(&widths) {
                let _ = write!(line, "{cell:>width$}  ");
            }
            line.trim_end().to_string()
        };
        let header = line(&self.header);
        let mut out = format!(
            "== {} ==\n{header}\n{}\n",
            self.title,
            "-".repeat(header.len())
        );
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a GitHub-flavoured markdown section.
    pub fn to_markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = format!("### {}\n\n{}", self.title, line(&self.header));
        out.push_str(&format!("|{}\n", "---:|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

/// A fully executed scenario matrix.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Caller-chosen report id (e.g. the PR number or CI run id).
    pub id: String,
    /// Name of the matrix that was run (`"quick"` / `"full"`).
    pub matrix: &'static str,
    /// Per-scenario measurements, in matrix order.
    pub results: Vec<ScenarioResult>,
    /// Multi-job service scenario measurements (the matrix's service
    /// slice; empty for matrices without one).
    pub service_results: Vec<ServiceScenarioResult>,
}

impl BenchReport {
    /// Runs every scenario of `matrix` and collects the results. The
    /// optional `progress` callback receives each scenario id as it
    /// finishes (the CLI prints them; tests pass `None`-like no-ops).
    pub fn run(
        matrix: &ScenarioMatrix,
        id: impl Into<String>,
        mut progress: impl FnMut(&str),
    ) -> Result<Self, String> {
        let mut results = Vec::with_capacity(matrix.len());
        for scenario in &matrix.scenarios {
            let result = run_scenario(scenario)?;
            if !result.io_consistent {
                return Err(format!(
                    "scenario {}: I/O accounting did not reconcile",
                    scenario.id()
                ));
            }
            progress(&scenario.id());
            results.push(result);
        }
        let mut service_results = Vec::new();
        for scenario in service_slice(matrix.name) {
            let result = run_service_scenario(&scenario)?;
            progress(&scenario.id());
            service_results.push(result);
        }
        Ok(BenchReport {
            id: id.into(),
            matrix: matrix.name,
            results,
            service_results,
        })
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let model = suite_disk_model();
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            ("id", Json::Str(self.id.clone())),
            ("matrix", Json::Str(self.matrix.into())),
            ("scenario_count", Json::counter(self.results.len() as u64)),
            (
                "disk_model",
                Json::obj(vec![
                    ("seek_us", Json::Num(model.seek_us)),
                    ("rotational_us", Json::Num(model.rotational_us)),
                    ("transfer_page_us", Json::Num(model.transfer_page_us)),
                ]),
            ),
            (
                "scenarios",
                Json::Arr(self.results.iter().map(scenario_json).collect()),
            ),
            (
                "service_scenario_count",
                Json::counter(self.service_results.len() as u64),
            ),
            (
                "service_scenarios",
                Json::Arr(self.service_results.iter().map(service_json).collect()),
            ),
        ])
    }

    /// Renders the summary tables as GitHub-flavoured markdown: the rows
    /// the CLI prints, plus a note on what the service columns measure.
    pub fn to_markdown(&self) -> String {
        let mut out = self.to_table().to_markdown();
        if let Some(service) = self.service_table() {
            out.push_str(
                "\n## Service scenarios\n\nQueue latency is submission → memory lease held; \
                 sort latency is execution only; cancel latency is cancel request → the probe \
                 job completing as Canceled. All three are wall-clock (reported, not gated); \
                 the page/run/seek sums are deterministic and baseline-gated. `grants` lists \
                 each tenant's fixed-share memory grant — in a `service-prio-` scenario the \
                 weighted tenant's share is proportionally larger.\n\n",
            );
            out.push_str(&service.to_markdown());
        }
        out
    }

    /// The plain-text summary of the service slice, in the CLI table
    /// style; `None` when the matrix had no service scenarios.
    pub fn service_table(&self) -> Option<Table> {
        if self.service_results.is_empty() {
            return None;
        }
        let mut table = Table::new(
            format!("service scenarios — {} matrix", self.matrix),
            &[
                "scenario",
                "jobs",
                "grants",
                "queue p50",
                "queue p99",
                "sort p50",
                "sort p99",
                "cancel p50",
                "cancel p95",
                "pages R",
                "pages W",
                "runs",
                "seeks",
            ],
        );
        for result in &self.service_results {
            let det = result.deterministic();
            let grants = result
                .tenant_grants
                .iter()
                .map(|(_, grant)| grant.to_string())
                .collect::<Vec<_>>()
                .join("/");
            table.row(vec![
                result.scenario.id(),
                result.jobs_completed.to_string(),
                grants,
                format!("{:.2}ms", result.queue_latency.p50.as_secs_f64() * 1_000.0),
                format!("{:.2}ms", result.queue_latency.p99.as_secs_f64() * 1_000.0),
                format!("{:.2}ms", result.sort_latency.p50.as_secs_f64() * 1_000.0),
                format!("{:.2}ms", result.sort_latency.p99.as_secs_f64() * 1_000.0),
                format!("{:.2}ms", result.cancel_latency.p50.as_secs_f64() * 1_000.0),
                format!("{:.2}ms", result.cancel_latency.p95.as_secs_f64() * 1_000.0),
                det.pages_read.to_string(),
                det.pages_written.to_string(),
                det.runs.to_string(),
                det.seeks.map_or("-".to_string(), |s| s.to_string()),
            ]);
        }
        Some(table)
    }

    /// The per-scenario summary the CLI prints to stdout.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "bench suite `{}` — {} matrix, {} scenarios",
                self.id,
                self.matrix,
                self.results.len()
            ),
            &[
                "scenario", "krec/s", "runs", "avg run", "rel", "pred", "pages R", "pages W",
                "final W", "seeks", "sim I/O",
            ],
        );
        for result in &self.results {
            let det = result.deterministic();
            table.row(vec![
                result.scenario.id(),
                format!("{:.0}", result.records_per_sec / 1_000.0),
                det.runs.to_string(),
                format!("{:.1}", result.average_run_length),
                format!("{:.2}", result.relative_run_length),
                result
                    .predicted_relative_run_length
                    .map_or("-".to_string(), |p| format!("{p:.2}")),
                det.pages_read.to_string(),
                det.pages_written.to_string(),
                det.final_pass_pages_written.to_string(),
                det.seeks.map_or("-".to_string(), |s| s.to_string()),
                format!("{:.1}ms", result.simulated_io_us as f64 / 1_000.0),
            ]);
        }
        table
    }
}

fn phase_json(phase: &PhaseMetrics) -> Json {
    Json::obj(vec![
        ("wall_us", Json::counter(phase.wall_us)),
        ("pages_read", Json::counter(phase.pages_read)),
        ("pages_written", Json::counter(phase.pages_written)),
        ("seeks", Json::counter(phase.seeks)),
        ("simulated_io_us", Json::counter(phase.simulated_io_us)),
    ])
}

fn scenario_json(result: &ScenarioResult) -> Json {
    let scenario = &result.scenario;
    let det = result.deterministic();
    Json::obj(vec![
        ("id", Json::Str(scenario.id())),
        ("generator", Json::Str(scenario.generator.label().into())),
        (
            "distribution",
            Json::Str(scenario.distribution.label().into()),
        ),
        ("record_type", Json::Str(scenario.record_type.slug().into())),
        ("sink", Json::Str(scenario.sink.slug().into())),
        ("device", Json::Str(scenario.device.name().into())),
        ("disks", Json::counter(scenario.disks as u64)),
        (
            "final_pass_pages_written",
            Json::counter(result.final_pass_pages_written),
        ),
        (
            "record_size_bytes",
            Json::counter(scenario.record_type.size_bytes() as u64),
        ),
        ("records", Json::counter(scenario.records)),
        ("memory_records", Json::counter(scenario.memory as u64)),
        ("threads", Json::counter(scenario.threads as u64)),
        ("seed", Json::counter(scenario.seed)),
        ("wall_us", Json::counter(result.wall_us)),
        ("simulated_io_us", Json::counter(result.simulated_io_us)),
        ("records_per_sec", Json::Num(result.records_per_sec)),
        ("runs", Json::counter(result.num_runs)),
        ("merge_steps", Json::counter(u64::from(result.merge_steps))),
        ("avg_run_length", Json::Num(result.average_run_length)),
        ("relative_run_length", Json::Num(result.relative_run_length)),
        (
            "predicted_relative_run_length",
            result
                .predicted_relative_run_length
                .map_or(Json::Null, Json::Num),
        ),
        (
            "phases",
            Json::obj(vec![
                ("run_generation", phase_json(&result.run_generation)),
                ("merge", phase_json(&result.merge)),
                (
                    "verify",
                    result.verify.as_ref().map_or(Json::Null, phase_json),
                ),
            ]),
        ),
        ("deterministic", deterministic_json(&det)),
        (
            "per_disk",
            Json::Arr(
                result
                    .per_disk
                    .iter()
                    .map(|disk| {
                        Json::obj(vec![
                            ("pages_read", Json::counter(disk.pages_read)),
                            ("pages_written", Json::counter(disk.pages_written)),
                            ("seeks", Json::counter(disk.seeks)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("io_consistent", Json::Bool(result.io_consistent)),
    ])
}

fn latency_json(latency: &LatencyPercentiles) -> Json {
    Json::obj(vec![
        ("p50_us", Json::counter(latency.p50.as_micros() as u64)),
        ("p95_us", Json::counter(latency.p95.as_micros() as u64)),
        ("p99_us", Json::counter(latency.p99.as_micros() as u64)),
        ("max_us", Json::counter(latency.max.as_micros() as u64)),
    ])
}

fn service_json(result: &ServiceScenarioResult) -> Json {
    let scenario = &result.scenario;
    Json::obj(vec![
        ("id", Json::Str(scenario.id())),
        ("jobs", Json::counter(scenario.jobs as u64)),
        ("tenants", Json::counter(scenario.tenants as u64)),
        ("workers", Json::counter(scenario.workers as u64)),
        (
            "global_memory_records",
            Json::counter(scenario.global_memory as u64),
        ),
        ("records_per_job", Json::counter(scenario.records)),
        (
            "memory_records_per_job",
            Json::counter(scenario.memory as u64),
        ),
        ("seed", Json::counter(scenario.seed)),
        (
            "jobs_completed",
            Json::counter(result.jobs_completed as u64),
        ),
        (
            "granted_memory_records",
            Json::counter(result.granted_memory as u64),
        ),
        ("max_leased", Json::counter(result.max_leased as u64)),
        ("high_weight", Json::counter(scenario.high_weight as u64)),
        (
            "tenant_grants",
            Json::Arr(
                result
                    .tenant_grants
                    .iter()
                    .map(|(tenant, grant)| {
                        Json::obj(vec![
                            ("tenant", Json::Str(tenant.clone())),
                            ("granted_memory_records", Json::counter(*grant as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("jobs_canceled", Json::counter(result.jobs_canceled as u64)),
        ("wall_us", Json::counter(result.wall_us)),
        ("queue_latency", latency_json(&result.queue_latency)),
        ("sort_latency", latency_json(&result.sort_latency)),
        ("cancel_latency", latency_json(&result.cancel_latency)),
        ("deterministic", deterministic_json(&result.deterministic())),
    ])
}

pub(crate) fn deterministic_json(det: &super::runner::DeterministicCounters) -> Json {
    Json::obj(vec![
        ("pages_read", Json::counter(det.pages_read)),
        ("pages_written", Json::counter(det.pages_written)),
        (
            "final_pass_pages_written",
            Json::counter(det.final_pass_pages_written),
        ),
        ("runs", Json::counter(det.runs)),
        ("seeks", det.seeks.map_or(Json::Null, Json::counter)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::matrix::{GeneratorKind, Scenario};
    use twrs_workloads::DistributionKind;

    fn tiny_matrix() -> ScenarioMatrix {
        let scenarios = [1usize, 4]
            .into_iter()
            .map(|threads| Scenario {
                threads,
                ..Scenario::new(
                    GeneratorKind::Rs,
                    DistributionKind::RandomUniform,
                    1_500,
                    128,
                )
            })
            .collect();
        ScenarioMatrix {
            name: "quick",
            scenarios,
        }
    }

    #[test]
    fn renders_aligned_columns() {
        let mut table = Table::new("Demo", &["name", "value"]);
        table.row(vec!["alpha".into(), "1".into()]);
        table.row(vec!["b".into(), "12345".into()]);
        assert_eq!(
            table.render(),
            "== Demo ==\n name  value\n------------\nalpha      1\n    b  12345\n"
        );
        assert_eq!(table.rows().len(), 2);
        assert_eq!(
            table.to_markdown(),
            "### Demo\n\n| name | value |\n|---:|---:|\n| alpha | 1 |\n| b | 12345 |\n"
        );
    }

    #[test]
    fn report_serializes_and_reparses() {
        let report = BenchReport::run(&tiny_matrix(), "test", |_| {}).unwrap();
        let text = report.to_json().render();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("matrix").and_then(Json::as_str), Some("quick"));
        let scenarios = parsed.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(scenarios.len(), 2);
        let first = &scenarios[0];
        assert_eq!(first.get("generator").and_then(Json::as_str), Some("RS"));
        assert_eq!(first.get("threads").and_then(Json::as_u64), Some(1));
        let det = first.get("deterministic").unwrap();
        assert!(det.get("pages_written").and_then(Json::as_u64).unwrap() > 0);
        assert!(det.get("seeks").and_then(Json::as_u64).is_some());
        // The 4-thread scenario reports null seeks.
        let det4 = scenarios[1].get("deterministic").unwrap();
        assert_eq!(det4.get("seeks"), Some(&Json::Null));
        // Single-disk scenarios carry an empty per-disk breakdown.
        assert_eq!(first.get("disks").and_then(Json::as_u64), Some(1));
        let per_disk = first.get("per_disk").and_then(Json::as_arr).unwrap();
        assert!(per_disk.is_empty());
    }

    #[test]
    fn striped_scenarios_serialize_their_per_disk_breakdown() {
        let matrix = ScenarioMatrix {
            name: "striped-report-test",
            scenarios: vec![Scenario {
                threads: 4,
                disks: 2,
                ..Scenario::new(
                    GeneratorKind::Twrs,
                    DistributionKind::RandomUniform,
                    1_500,
                    128,
                )
            }],
        };
        let report = BenchReport::run(&matrix, "test", |_| {}).unwrap();
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        let scenario = &parsed.get("scenarios").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(scenario.get("disks").and_then(Json::as_u64), Some(2));
        // Striped multi-threaded scenarios pin concrete seeks...
        let det = scenario.get("deterministic").unwrap();
        let total_seeks = det.get("seeks").and_then(Json::as_u64).expect("concrete");
        // ...and the serialized members fold back into the totals.
        let per_disk = scenario.get("per_disk").and_then(Json::as_arr).unwrap();
        assert_eq!(per_disk.len(), 2);
        let fold: u64 = per_disk
            .iter()
            .map(|d| d.get("seeks").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(fold, total_seeks);
        assert!(per_disk
            .iter()
            .all(|d| d.get("pages_written").and_then(Json::as_u64).unwrap() > 0));
    }

    #[test]
    fn markdown_and_table_cover_every_scenario() {
        let report = BenchReport::run(&tiny_matrix(), "test", |_| {}).unwrap();
        let markdown = report.to_markdown();
        let table = report.to_table().render();
        for result in &report.results {
            assert!(markdown.contains(&result.scenario.id()));
            assert!(table.contains(&result.scenario.id()));
        }
        assert!(markdown.contains("| scenario |"));
    }

    #[test]
    fn progress_callback_sees_every_scenario_id() {
        let matrix = tiny_matrix();
        let mut seen = Vec::new();
        BenchReport::run(&matrix, "test", |id| seen.push(id.to_string())).unwrap();
        // Matrix scenarios first, then the matrix's service slice.
        let mut expected: Vec<String> = matrix.scenarios.iter().map(Scenario::id).collect();
        expected.extend(
            crate::suite::service::service_slice(matrix.name)
                .iter()
                .map(|s| s.id()),
        );
        assert_eq!(seen, expected);
    }

    #[test]
    fn service_slice_rides_in_report_markdown_and_json() {
        let report = BenchReport::run(&tiny_matrix(), "test", |_| {}).unwrap();
        assert!(
            !report.service_results.is_empty(),
            "quick includes the slice"
        );
        let markdown = report.to_markdown();
        assert!(markdown.contains("## Service scenarios"));
        assert!(markdown.contains("queue p50"));
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        let services = parsed
            .get("service_scenarios")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(services.len(), report.service_results.len());
        let first = &services[0];
        assert!(first
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("service-"));
        let queue = first.get("queue_latency").unwrap();
        assert!(queue.get("p50_us").and_then(Json::as_u64).is_some());
        assert!(queue.get("p99_us").and_then(Json::as_u64).is_some());
        let cancel = first.get("cancel_latency").unwrap();
        assert!(cancel.get("p50_us").and_then(Json::as_u64).is_some());
        assert!(cancel.get("p95_us").and_then(Json::as_u64).is_some());
        let grants = first.get("tenant_grants").and_then(Json::as_arr).unwrap();
        assert!(!grants.is_empty());
        assert!(grants[0].get("tenant").and_then(Json::as_str).is_some());
        assert!(first.get("jobs_canceled").and_then(Json::as_u64).is_some());
        // The quick matrix includes a weighted scenario whose priority
        // tenant's grant is at least twice the other tenant's.
        let prio = services
            .iter()
            .find(|s| {
                s.get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .starts_with("service-prio-")
            })
            .expect("quick matrix includes the priority scenario");
        let prio_grants = prio.get("tenant_grants").and_then(Json::as_arr).unwrap();
        let grant_of = |i: usize| {
            prio_grants[i]
                .get("granted_memory_records")
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(grant_of(0) >= 2 * grant_of(1));
        assert!(markdown.contains("cancel p50"));
        // Aggregate counters are present and non-null seeks (single-threaded jobs).
        let det = first.get("deterministic").unwrap();
        assert!(det.get("seeks").and_then(Json::as_u64).is_some());
        assert!(report
            .service_table()
            .unwrap()
            .render()
            .contains("service-"));
    }
}
