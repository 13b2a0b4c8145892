//! Argument parsing and top-level flow of the `bench_suite` binary.
//!
//! Lives in the library so the whole flow — including flag handling and
//! exit codes — is unit-testable; the binary is a one-line wrapper around
//! [`run`].

use super::baseline::{baseline_from_report, compare};
use super::figures::{self, Figure, Scale};
use super::json::Json;
use super::matrix::ScenarioMatrix;
use super::report::{BenchReport, Table};
use super::runner::per_disk_counters;
use super::service::service_slice;
use std::path::Path;

/// Default location of the committed baseline, relative to the workspace
/// root (where both CI and `cargo run` execute).
pub const DEFAULT_BASELINE: &str = "crates/bench/baseline.json";

const USAGE: &str = "\
bench_suite — run the scenario-matrix bench suite

USAGE:
    bench_suite [OPTIONS]

OPTIONS:
    --quick                Run the reduced PR-CI matrix (default: full matrix)
    --service              Run only the multi-job service slice of the selected
                           matrix (queue-latency percentiles; skips the
                           single-sort scenarios and the baseline gate)
    --id <ID>              Report id, used in the default output name [default: local]
    --out <PATH>           Write the JSON report here [default: BENCH_<id>.json]
    --markdown <PATH>      Also write a markdown summary table
    --baseline <PATH>      Baseline file for the deterministic-metrics gate
                           [default: crates/bench/baseline.json]
    --check-baseline       Compare deterministic counters against the baseline;
                           exit 1 on any drift
    --update-baseline      Rewrite the baseline from this run (commit the result)
    --figure <ID>          Run one of the paper's sort figures instead of a matrix
                           and print it as the paper's table: 5.13, 5.4, 6.1,
                           6.2 … 6.7, or all (no baseline gate)
    --scale <SCALE>        Size of a --figure run: quick, laptop or paper
                           [default: laptop]
    --list                 Print the scenario ids of the selected matrix and exit
    --smoke <SPEC>         Run one small end-to-end sort on the device described
                           by SPEC (e.g. \"real:\" for an O_DIRECT-capable temp
                           directory, \"sim:nvme\", or a stripe such as
                           \"striped:[sim:nvme,real:]\"), report the direct-I/O
                           status — plus per-member counters for stripes — and
                           exit. Skips the matrix and the baseline.
    -h, --help             Print this help
";

/// Parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// Run the reduced matrix.
    pub quick: bool,
    /// Run only the service slice of the selected matrix.
    pub service: bool,
    /// Report id.
    pub id: String,
    /// JSON output path (defaults to `BENCH_<id>.json`).
    pub out: String,
    /// Optional markdown output path.
    pub markdown: Option<String>,
    /// Baseline path.
    pub baseline: String,
    /// Compare against the baseline and fail on drift.
    pub check_baseline: bool,
    /// Rewrite the baseline from this run.
    pub update_baseline: bool,
    /// The paper figures to run instead of a matrix.
    pub figures: Option<Vec<Figure>>,
    /// Size of a figure run.
    pub scale: Option<Scale>,
    /// Only list scenario ids.
    pub list: bool,
    /// Run one small sort on the device described by this spec and exit.
    pub smoke: Option<String>,
    /// Print usage and exit.
    pub help: bool,
}

impl Options {
    /// Parses the argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            id: "local".to_string(),
            baseline: DEFAULT_BASELINE.to_string(),
            ..Options::default()
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--quick" => options.quick = true,
                "--service" => options.service = true,
                "--id" => options.id = value("--id")?,
                "--out" => options.out = value("--out")?,
                "--markdown" => options.markdown = Some(value("--markdown")?),
                "--baseline" => options.baseline = value("--baseline")?,
                "--check-baseline" => options.check_baseline = true,
                "--update-baseline" => options.update_baseline = true,
                "--figure" => {
                    let id = value("--figure")?;
                    let figures = match id.as_str() {
                        "all" => Some(Figure::all().to_vec()),
                        number => Figure::parse(number).map(|figure| vec![figure]),
                    };
                    let expected = "5.13, 5.4, 6.1, 6.2 … 6.7 or all";
                    options.figures =
                        Some(figures.ok_or(format!("unknown figure {id} (expected {expected})"))?);
                }
                "--scale" => {
                    let name = value("--scale")?;
                    let expected = "quick, laptop or paper";
                    options.scale = Some(
                        Scale::parse(&name)
                            .ok_or(format!("unknown scale {name} (expected {expected})"))?,
                    );
                }
                "--list" => options.list = true,
                "--smoke" => options.smoke = Some(value("--smoke")?),
                "-h" | "--help" => options.help = true,
                other => return Err(format!("unknown option {other} (see --help)")),
            }
        }
        if options.out.is_empty() {
            options.out = format!("BENCH_{}.json", options.id);
        }
        let gated = options.check_baseline || options.update_baseline;
        if options.check_baseline && options.update_baseline {
            return Err("--check-baseline and --update-baseline are mutually exclusive".into());
        }
        if options.smoke.is_some() && gated {
            return Err(
                "--smoke runs one standalone scenario outside the matrix; the baseline \
                 gate only applies to matrix runs"
                    .into(),
            );
        }
        if options.figures.is_some() && (options.quick || options.service || gated) {
            return Err(
                "--figure runs the figure's own scenarios; it takes no --quick, --service or \
                 baseline flag (the quick matrix holds every figure at quick scale)"
                    .into(),
            );
        }
        if options.scale.is_some() && options.figures.is_none() {
            return Err("--scale sizes a --figure run; the matrices have fixed sizes".into());
        }
        if options.service && gated {
            return Err(
                "--service runs only the service slice; the baseline covers the whole \
                 matrix, so gate or update it with a plain --quick / full run (the slice \
                 is always included there)"
                    .into(),
            );
        }
        Ok(options)
    }

    fn scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::LAPTOP)
    }

    fn matrix(&self) -> ScenarioMatrix {
        if let Some(figures) = &self.figures {
            return ScenarioMatrix {
                name: "figures",
                scenarios: figures::scenarios(figures, self.scale()),
            };
        }
        let mut matrix = if self.quick {
            ScenarioMatrix::quick()
        } else {
            ScenarioMatrix::full()
        };
        if self.service {
            // Keep the matrix name (it selects the service slice) but drop
            // the single-sort scenarios.
            matrix.scenarios.clear();
        }
        matrix
    }
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one small end-to-end sort on the device a spec string describes —
/// the CI `real-device-smoke` step. Reports the backend's direct-I/O
/// decision (`O_DIRECT` or the fallback reason) and fails if the sort or
/// its verification fails, so the real-file path is exercised on every CI
/// run even though its wall-clock numbers are machine-dependent.
pub fn run_smoke(spec_text: &str) -> Result<i32, String> {
    use twrs_extsort::{ReplacementSelection, SortJob};
    use twrs_storage::{DeviceSpec, StorageDevice};
    use twrs_workloads::Distribution;
    use twrs_workloads::DistributionKind;

    let spec: DeviceSpec = spec_text
        .parse()
        .map_err(|e| format!("--smoke {spec_text}: {e}"))?;
    let device = spec
        .build()
        .map_err(|e| format!("--smoke {spec_text}: {e}"))?;
    match device.direct_io() {
        Some(status) => println!("smoke device `{spec}`: real files, {status}"),
        None => println!("smoke device `{spec}`: simulated"),
    }
    if let Some(stripe) = device.as_striped() {
        println!(
            "smoke device `{spec}`: stripe of {} members",
            stripe.members()
        );
    }

    let records = 3_000u64;
    let input = Distribution::new(
        DistributionKind::RandomUniform,
        records,
        super::matrix::MATRIX_SEED,
    );
    let report = SortJob::new(ReplacementSelection::new(200))
        .on(&device)
        .verify(true)
        .run_iter(input.records(), "smoke-sorted")
        .map_err(|e| format!("smoke sort failed on `{spec}`: {e}"))?;
    let stats = device.stats();
    if report.report.records != records {
        return Err(format!(
            "smoke sort on `{spec}`: {} of {records} records",
            report.report.records
        ));
    }
    if stats.counters.pages_written == 0 || stats.counters.pages_read == 0 {
        return Err(format!(
            "smoke sort on `{spec}` moved no pages (written {}, read {})",
            stats.counters.pages_written, stats.counters.pages_read
        ));
    }
    let per_disk = per_disk_counters(&device, &format!("smoke sort on `{spec}`"))?;
    for (index, disk) in per_disk.iter().enumerate() {
        println!(
            "  disk {index}: {} pages written / {} read, {} seeks",
            disk.pages_written, disk.pages_read, disk.seeks
        );
    }
    println!(
        "smoke ok: {} records in {} runs, {} pages written / {} read, {} seeks",
        report.report.records,
        report.num_runs(),
        stats.counters.pages_written,
        stats.counters.pages_read,
        stats.counters.seeks
    );
    Ok(0)
}

/// Runs the suite for the given arguments. Returns the process exit code
/// (`0` success, `1` baseline drift); hard failures come back as `Err` and
/// also exit `1`.
pub fn run(args: &[String]) -> Result<i32, String> {
    let options = Options::parse(args)?;
    if options.help {
        println!("{USAGE}");
        return Ok(0);
    }
    if let Some(spec) = &options.smoke {
        return run_smoke(spec);
    }
    let matrix = options.matrix();
    if options.list {
        for scenario in &matrix.scenarios {
            println!("{}", scenario.id());
        }
        for scenario in service_slice(matrix.name) {
            println!("{}", scenario.id());
        }
        return Ok(0);
    }

    eprintln!(
        "running {} matrix: {} scenarios + {} service scenarios",
        matrix.name,
        matrix.len(),
        service_slice(matrix.name).len()
    );
    let report = BenchReport::run(&matrix, options.id.clone(), |id| eprintln!("  done {id}"))?;

    write_file(&options.out, &report.to_json().render())?;
    eprintln!("wrote {}", options.out);
    let tables = match &options.figures {
        Some(figures) => figures::tables(figures, options.scale(), &report.results)?,
        None => [Some(report.to_table()), report.service_table()]
            .into_iter()
            .flatten()
            .collect(),
    };
    let join =
        |render: fn(&Table) -> String| tables.iter().map(render).collect::<Vec<_>>().join("\n");
    let markdown = match options.figures {
        Some(_) => join(Table::to_markdown),
        None => report.to_markdown(),
    };
    if let Some(path) = &options.markdown {
        write_file(path, &markdown)?;
        eprintln!("wrote {path}");
    }
    print!("{}", join(Table::render));

    if options.update_baseline {
        write_file(&options.baseline, &baseline_from_report(&report).render())?;
        eprintln!("baseline updated: {}", options.baseline);
        return Ok(0);
    }
    if options.check_baseline {
        if !Path::new(&options.baseline).exists() {
            return Err(format!(
                "baseline {} not found; run with --update-baseline first",
                options.baseline
            ));
        }
        let text = std::fs::read_to_string(&options.baseline)
            .map_err(|e| format!("cannot read {}: {e}", options.baseline))?;
        let baseline =
            Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", options.baseline))?;
        let drifts = compare(&baseline, &report);
        if drifts.is_empty() {
            eprintln!(
                "baseline gate: {} scenarios match {}",
                report.results.len() + report.service_results.len(),
                options.baseline
            );
        } else {
            eprintln!(
                "baseline gate FAILED: {} drift(s) against {}",
                drifts.len(),
                options.baseline
            );
            for drift in &drifts {
                eprintln!("  {drift}");
            }
            eprintln!(
                "if the change is intentional, refresh the baseline in this PR:\n  \
                 cargo run --release --bin bench_suite -- --quick --update-baseline"
            );
            return Ok(1);
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn defaults_and_derived_output_name() {
        let options = parse(&[]).unwrap();
        assert!(!options.quick);
        assert_eq!(options.out, "BENCH_local.json");
        assert_eq!(options.baseline, DEFAULT_BASELINE);
        let options = parse(&["--id", "pr4"]).unwrap();
        assert_eq!(options.out, "BENCH_pr4.json");
        let options = parse(&["--quick", "--out", "x.json"]).unwrap();
        assert!(options.quick);
        assert_eq!(options.out, "x.json");
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_conflicts() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--check-baseline", "--update-baseline"]).is_err());
        // The service slice is gated as part of the full/quick runs; a
        // slice-only run cannot meaningfully face the whole-matrix baseline.
        assert!(parse(&["--service", "--check-baseline"]).is_err());
        assert!(parse(&["--service", "--update-baseline"]).is_err());
    }

    #[test]
    fn figure_and_scale_are_validated() {
        let options = parse(&["--figure", "all", "--scale", "quick"]).unwrap();
        assert_eq!(options.figures.as_deref(), Some(&Figure::all()[..]));
        assert_eq!(options.matrix().len(), 106);
        let options = parse(&["--figure", "5.13"]).unwrap();
        assert_eq!(options.scale(), Scale::LAPTOP, "laptop by default");
        assert_eq!(options.matrix().len(), 30);
        // Bad input is an error, never a silent fallback.
        assert!(parse(&["--figure", "9.9"])
            .unwrap_err()
            .contains("unknown figure 9.9"));
        assert!(parse(&["--figure", "6.2", "--scale", "quikc"])
            .unwrap_err()
            .contains("unknown scale quikc"));
        assert!(parse(&["--scale", "quick"]).is_err());
        assert!(parse(&["--figure", "6.1", "--check-baseline"]).is_err());
        assert!(parse(&["--figure", "6.1", "--quick"]).is_err());
        assert_eq!(
            run(&["--figure", "6.1", "--list"].map(String::from)).unwrap(),
            0
        );
    }

    #[test]
    fn service_mode_keeps_the_slice_and_drops_the_single_sorts() {
        let options = parse(&["--quick", "--service"]).unwrap();
        assert!(options.service);
        let matrix = options.matrix();
        assert_eq!(matrix.name, "quick");
        assert!(matrix.is_empty(), "single-sort scenarios dropped");
        assert!(!service_slice(matrix.name).is_empty());
    }

    #[test]
    fn smoke_runs_on_a_striped_spec_and_folds_member_counters() {
        // Simulated members keep this fast; the fold check inside
        // `run_smoke` is the real assertion.
        assert_eq!(run_smoke("striped:2:sim:nvme").unwrap(), 0);
    }

    #[test]
    fn list_and_help_short_circuit_without_running_the_matrix() {
        // Running the whole matrix is the binary's job (and CI's); here we
        // only exercise the flows that must not touch the filesystem.
        assert_eq!(
            run(&["--quick".to_string(), "--list".to_string()]).unwrap(),
            0
        );
        assert_eq!(run(&["--help".to_string()]).unwrap(), 0);
    }
}
