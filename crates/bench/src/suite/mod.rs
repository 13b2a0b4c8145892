//! The scenario-matrix bench suite: machine-readable `BENCH_<id>.json`
//! reports and the deterministic-I/O regression gate.
//!
//! The criterion benches under `benches/` give wall-clock numbers but
//! persist nothing comparable. This module is the measurement backbone
//! that does:
//!
//! 1. [`matrix`] declares *what* to measure — run-generation algorithm ×
//!    input distribution × memory budget × thread count × record type,
//!    with a reduced [`ScenarioMatrix::quick`] for PR CI and a
//!    [`ScenarioMatrix::full`] evaluation matrix; [`figures`] declares the
//!    paper's sort-based tables and figures the same way and lays their
//!    results out as the paper does;
//! 2. [`runner`] executes each scenario through the `SortJob` front door
//!    on a fresh `SimDevice` and captures throughput, run counts (measured
//!    vs. the `twrs-analysis` closed-form prediction) and per-phase pages,
//!    seeks and simulated I/O time;
//! 3. [`report`] serializes the results as `BENCH_<id>.json` (schema
//!    `twrs-bench-suite/v1`) plus a markdown summary, and holds the text
//!    [`Table`] everything prints;
//! 4. [`baseline`] compares the machine-independent counters against the
//!    committed `crates/bench/baseline.json` and reports any drift — the
//!    CI regression gate;
//! 5. [`json`] is the self-contained JSON writer/parser underneath (the
//!    offline build has no `serde`; see `crates/compat/`);
//! 6. [`cli`] is the `bench_suite` binary's argument handling and flow;
//! 7. [`service`] is the multi-job slice: each matrix replays a seeded
//!    arrival trace against a `SortService` under a contended global
//!    memory budget, reporting queue/sort latency percentiles
//!    (wall-clock, ungated) and aggregate per-job I/O counters
//!    (deterministic, baseline-gated). `bench_suite --service` runs only
//!    this slice.
//!
//! ```no_run
//! use twrs_bench::suite::{BenchReport, ScenarioMatrix};
//!
//! let report = BenchReport::run(&ScenarioMatrix::quick(), "demo", |_| {}).unwrap();
//! std::fs::write("BENCH_demo.json", report.to_json().render()).unwrap();
//! println!("{}", report.to_markdown());
//! ```

pub mod baseline;
pub mod cli;
pub mod figures;
pub mod json;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod service;

pub use baseline::{baseline_from_report, compare, Drift, BASELINE_SCHEMA};
pub use figures::{Figure, Scale};
pub use json::Json;
pub use matrix::{GeneratorKind, RecordType, Scenario, ScenarioMatrix, SinkMode};
pub use report::{BenchReport, Table, SCHEMA};
pub use runner::{run_scenario, DeterministicCounters, PhaseMetrics, ScenarioResult};
pub use service::{run_service_scenario, service_slice, ServiceScenario, ServiceScenarioResult};
