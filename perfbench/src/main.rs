//! End-to-end and per-layer benchmark of the external-sort pipeline.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md`) through the public API on simulated
//! devices, checks every output, prints each metric with its unit and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with the tracing wrappers and reports the per-layer metrics,
//! and writes its spans as CSV under `perfbench-traces/` beside the binary.

mod check;
mod metrics;
mod service;
mod single;
mod sys;
#[cfg(test)]
mod tests;
mod trace;
mod traced;

use metrics::Outcome;
use single::RunConfig;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Recorder;

/// The workloads, in report order.
const WORKLOADS: [&str; 4] = [
    "merge_deep",
    "twrs_stream",
    "sharded_stripe",
    "service_open",
];

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args { workload, config })
}

fn run_workload(name: &str, config: &RunConfig) -> (Outcome, Arc<Recorder>) {
    match name {
        "merge_deep" => single::run(&single::MERGE_DEEP, config),
        "twrs_stream" => single::run(&single::TWRS_STREAM, config),
        "sharded_stripe" => single::run(&single::SHARDED_STRIPE, config),
        _ => service::run(&service::SERVICE_OPEN, config),
    }
}

/// Where a traced run writes its spans: beside the binary, inside the build
/// directory, one file per workload that the next traced run replaces.
fn trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .join("perfbench-traces")
            .join(format!("{workload}.csv")),
    )
}

/// Prints the metrics as a table on stdout and the problems on stderr.
fn print_table(workload: &str, outcome: &Outcome) {
    println!(
        "# {workload}: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    for m in &outcome.metrics {
        println!("{workload:<16} {:<22} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in outcome.problems.iter().take(20) {
        eprintln!("{workload}: {problem}");
    }
}

/// The result line; with `prefixed`, metric names carry their workload
/// (`all` mode).
fn json_line(results: &[(&str, Outcome)], prefixed: bool) -> String {
    let correct = results.iter().all(|(_, o)| o.correct());
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = String::new();
    for (workload, outcome) in results {
        for m in &outcome.metrics {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let name = if prefixed {
                format!("{workload}/{}", m.name)
            } else {
                m.name.to_string()
            };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in names {
        let (outcome, recorder) = run_workload(name, &args.config);
        if args.config.trace {
            if let Some(path) = trace_path(name) {
                if let Err(e) = recorder.write_csv(&path) {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                }
            }
        }
        print_table(name, &outcome);
        results.push((name, outcome));
    }
    println!("{}", json_line(&results, results.len() > 1));
    ExitCode::SUCCESS
}
