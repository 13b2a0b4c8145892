//! The paper's sort-based artefacts as scenario matrices.
//!
//! Table 5.13 and Figures 5.4 and 6.1–6.7 are all sorts, so each
//! [`Figure`] is a list of ordinary [`Scenario`]s, which the runner
//! measures, the report records and — at [`Scale::QUICK`], inside the
//! quick matrix — the baseline pins. [`Figure::table`] lays the results
//! out as the paper's table (`bench_suite --figure <id>`). Every figure
//! keeps its historical input seed: 42 for Table 5.13, 5 for Figure 5.4,
//! 7 for Figure 6.1 and 11 for the timing figures.

use super::matrix::{buffers_of, GeneratorKind, Scenario};
use super::report::Table;
use super::runner::{PhaseMetrics, ScenarioResult};
use std::ops::RangeInclusive;
use std::time::Duration;
use twrs_analysis::theory;
use twrs_core::{BufferSetup, TwrsConfig};
use twrs_extsort::MergeConfig;
use twrs_storage::ModelId;
use twrs_workloads::DistributionKind;

/// The input size and memory budget a figure is measured at; each figure's
/// sweep scales from it. The presets keep the paper's input-to-memory
/// ratios. Figure 6.1 merges a fixed run set and ignores the scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Input records.
    pub records: u64,
    /// Memory budget, in records.
    pub memory: usize,
}

impl Scale {
    /// 20 K records with 400 memory: the scale the quick matrix runs.
    pub const QUICK: Scale = Scale::new(20_000, 400);
    /// 200 K records with 2 K memory (100:1, the order of the paper's
    /// 25 M : 100 K); finishes in seconds.
    pub const LAPTOP: Scale = Scale::new(200_000, 2_000);
    /// The paper's run-length scale (§5.2): 25 M records, 100 K memory.
    pub const PAPER: Scale = Scale::new(25_000_000, 100_000);

    /// `records` input records sorted with `memory` records of memory.
    pub const fn new(records: u64, memory: usize) -> Scale {
        Scale { records, memory }
    }

    /// Parses `quick`, `laptop` or `paper`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::QUICK),
            "laptop" => Some(Scale::LAPTOP),
            "paper" => Some(Scale::PAPER),
            _ => None,
        }
    }
}

/// Seed of Figure 5.4's input.
const BUFFER_SWEEP_SEED: u64 = 5;
/// Seed of Figure 6.1's input.
const FAN_IN_SEED: u64 = 7;
/// Seed of the timing figures' inputs.
const TIMING_SEED: u64 = 11;

/// The merge of every timing figure: §6.1.1's optimal fan-in of 10 and a
/// generous read-ahead (16 KiB per run, like the paper's per-run input
/// buffers), so the merge is not artificially seek-bound.
const TIMING_MERGE: MergeConfig = MergeConfig {
    fan_in: 10,
    read_ahead_records: 1_024,
};

/// Figure 5.4's buffer fractions: the paper's factor β (§5.2) plus a
/// finer sweep up to 20 %.
const BUFFER_FRACTIONS: [f64; 7] = [0.0002, 0.002, 0.01, 0.02, 0.05, 0.1, 0.2];

/// One sort-based artefact of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Table 5.13: run length / memory of LSS, RS and three 2WRS setups.
    RunLengths,
    /// Figure 5.4: 2WRS run length on random input as the buffers grow.
    BufferSweep,
    /// Figure 6.1: merge cost of a fixed run set as the fan-in grows.
    FanIn,
    /// Figure 6.2: RS vs 2WRS timing, random input, memory swept.
    RandomVsMemory,
    /// Figure 6.3: RS vs 2WRS timing, random input, input swept.
    RandomVsInput,
    /// Figure 6.4: RS vs 2WRS timing, mixed input, memory swept.
    MixedVsMemory,
    /// Figure 6.5: RS vs 2WRS timing, mixed input, input swept.
    MixedVsInput,
    /// Figure 6.6: RS vs 2WRS timing, alternating input, sections swept.
    AlternatingSections,
    /// Figure 6.7: RS vs 2WRS timing, reverse-sorted input, input swept.
    ReverseVsInput,
}

impl Figure {
    /// Every figure, in paper order.
    pub fn all() -> [Figure; 9] {
        [
            Figure::RunLengths,
            Figure::BufferSweep,
            Figure::FanIn,
            Figure::RandomVsMemory,
            Figure::RandomVsInput,
            Figure::MixedVsMemory,
            Figure::MixedVsInput,
            Figure::AlternatingSections,
            Figure::ReverseVsInput,
        ]
    }

    /// The paper's number for the artefact (`5.13` is a table).
    pub fn number(self) -> &'static str {
        match self {
            Figure::RunLengths => "5.13",
            Figure::BufferSweep => "5.4",
            Figure::FanIn => "6.1",
            Figure::RandomVsMemory => "6.2",
            Figure::RandomVsInput => "6.3",
            Figure::MixedVsMemory => "6.4",
            Figure::MixedVsInput => "6.5",
            Figure::AlternatingSections => "6.6",
            Figure::ReverseVsInput => "6.7",
        }
    }

    /// Parses a paper number (`5.13`, `5.4`, `6.1`, `6.2` … `6.7`).
    pub fn parse(number: &str) -> Option<Figure> {
        Figure::all().into_iter().find(|f| f.number() == number)
    }

    /// The figure's sorts at `scale`, in the order [`Figure::table`]
    /// expects their results.
    pub fn scenarios(self, scale: Scale) -> Vec<Scenario> {
        let Scale { records, memory } = scale;
        match self {
            Figure::RunLengths => {
                let columns = [
                    (GeneratorKind::Lss, TwrsConfig::recommended(memory)),
                    (GeneratorKind::Rs, TwrsConfig::recommended(memory)),
                    (GeneratorKind::Twrs, TwrsConfig::table_5_13_cfg1(memory)),
                    (GeneratorKind::Twrs, TwrsConfig::table_5_13_cfg2(memory)),
                    (GeneratorKind::Twrs, TwrsConfig::table_5_13_cfg3(memory)),
                ];
                DistributionKind::paper_set()
                    .into_iter()
                    .flat_map(|distribution| {
                        columns.map(|(generator, config)| Scenario {
                            buffers: buffers_of(&config),
                            ..Scenario::new(generator, distribution, records, memory)
                        })
                    })
                    .collect()
            }
            Figure::BufferSweep => BUFFER_FRACTIONS
                .into_iter()
                .map(|fraction| Scenario {
                    seed: BUFFER_SWEEP_SEED,
                    buffers: (BufferSetup::Both, fraction),
                    ..Scenario::new(
                        GeneratorKind::Twrs,
                        DistributionKind::RandomUniform,
                        records,
                        memory,
                    )
                })
                .collect(),
            Figure::FanIn => fan_in_scenarios(64, 4_096, 2..=18),
            Figure::RandomVsMemory | Figure::MixedVsMemory => {
                // Memory from records/1000 to records/10 (the paper's 1 GB
                // with 1 K–1 M records of memory).
                let distribution = self.timing_distribution();
                [1_000u64, 250, 100, 25, 10]
                    .into_iter()
                    .flat_map(|divisor| {
                        let memory = ((records / divisor) as usize).max(16);
                        timing_pair(distribution, records, memory)
                    })
                    .collect()
            }
            Figure::RandomVsInput | Figure::MixedVsInput | Figure::ReverseVsInput => {
                // Input from 25 % to 100 % of the scale (the paper's
                // 100 MB – 1 GB).
                let distribution = self.timing_distribution();
                [25u64, 50, 100]
                    .into_iter()
                    .flat_map(|percent| {
                        let records = (records * percent / 100).max(1_000);
                        timing_pair(distribution, records, memory)
                    })
                    .collect()
            }
            Figure::AlternatingSections => [1u32, 2, 5, 10, 25, 50, 100]
                .into_iter()
                .flat_map(|sections| {
                    timing_pair(DistributionKind::Alternating { sections }, records, memory)
                })
                .collect(),
        }
    }

    fn timing_distribution(self) -> DistributionKind {
        match self {
            Figure::RandomVsMemory | Figure::RandomVsInput => DistributionKind::RandomUniform,
            Figure::MixedVsMemory | Figure::MixedVsInput => DistributionKind::MixedBalanced,
            _ => DistributionKind::ReverseSorted,
        }
    }

    /// Lays out this figure's results — one per scenario of
    /// [`Figure::scenarios`], in that order — as the paper's table.
    pub fn table(self, results: &[ScenarioResult]) -> Table {
        match self {
            Figure::RunLengths => run_length_table(results),
            Figure::BufferSweep => {
                let mut table = Table::new(
                    "Figure 5.4 — run length vs buffer size (random input)",
                    &["buffer size (% of memory)", "run length / memory"],
                );
                for result in results {
                    table.row(vec![
                        format!("{:.2}%", result.scenario.buffers.1 * 100.0),
                        fmt_relative(result.relative_run_length),
                    ]);
                }
                table
            }
            Figure::FanIn => fan_in_table(results),
            _ => self.timing_table(results),
        }
    }

    fn timing_table(self, results: &[ScenarioResult]) -> Table {
        let x_label = match self {
            Figure::RandomVsMemory | Figure::MixedVsMemory => "memory (records)",
            Figure::AlternatingSections => "sections",
            _ => "input (records)",
        };
        let mut table = Table::new(
            format!("Figure {} — RS vs 2WRS timing", self.number()),
            &[
                x_label,
                "RS run",
                "RS total",
                "2WRS run",
                "2WRS total",
                "RS runs",
                "2WRS runs",
                "speedup",
            ],
        );
        for pair in results.chunks_exact(2) {
            let (rs, twrs) = (&pair[0], &pair[1]);
            let x = match (self, rs.scenario.distribution) {
                (_, DistributionKind::Alternating { sections }) => u64::from(sections),
                (Figure::RandomVsMemory | Figure::MixedVsMemory, _) => rs.scenario.memory as u64,
                _ => rs.scenario.records,
            };
            let (rs_run, rs_total) = modelled_times(rs);
            let (twrs_run, twrs_total) = modelled_times(twrs);
            table.row(vec![
                x.to_string(),
                fmt_duration(rs_run),
                fmt_duration(rs_total),
                fmt_duration(twrs_run),
                fmt_duration(twrs_total),
                rs.num_runs.to_string(),
                twrs.num_runs.to_string(),
                format!("{:.2}x", speedup(rs, twrs)),
            ]);
        }
        table
    }
}

/// The scenarios of several figures at one scale, in figure order, each
/// sort listed once (at laptop scale Figures 6.2 and 6.3 share a point,
/// as do 6.4 and 6.5).
pub fn scenarios(figures: &[Figure], scale: Scale) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for scenario in figures.iter().flat_map(|f| f.scenarios(scale)) {
        if !scenarios.contains(&scenario) {
            scenarios.push(scenario);
        }
    }
    scenarios
}

/// Each figure's table, built from the results of a run that included
/// its scenarios at `scale`.
pub fn tables(
    figures: &[Figure],
    scale: Scale,
    results: &[ScenarioResult],
) -> Result<Vec<Table>, String> {
    let result = |scenario: &Scenario| {
        let found = results.iter().find(|r| r.scenario == *scenario);
        found
            .cloned()
            .ok_or(format!("no result for {}", scenario.id()))
    };
    figures
        .iter()
        .map(|figure| {
            let mine: Result<Vec<_>, _> = figure.scenarios(scale).iter().map(result).collect();
            Ok(figure.table(&mine?))
        })
        .collect()
}

/// Figure 6.1's sorts: `runs` runs of `records_per_run` random records,
/// cut by Load-Sort-Store with memory equal to the run size, then merged
/// with each fan-in on the `sata-ssd` model. As in the paper's
/// implementation the read-ahead budget is fixed — two runs' worth of
/// records — and divided by the fan-in, so a larger fan-in reads each run
/// in smaller bursts and seeks more.
pub fn fan_in_scenarios(
    runs: u64,
    records_per_run: u64,
    fan_ins: RangeInclusive<usize>,
) -> Vec<Scenario> {
    fan_ins
        .map(|fan_in| Scenario {
            device: ModelId::SataSsd,
            seed: FAN_IN_SEED,
            merge: MergeConfig {
                fan_in,
                read_ahead_records: 2 * records_per_run as usize / fan_in.max(1),
            },
            ..Scenario::new(
                GeneratorKind::Lss,
                DistributionKind::RandomUniform,
                runs * records_per_run,
                records_per_run as usize,
            )
        })
        .collect()
}

/// The fan-in of the result with the least simulated merge I/O.
pub fn best_fan_in(results: &[ScenarioResult]) -> Option<usize> {
    results
        .iter()
        .min_by_key(|r| r.merge.simulated_io_us)
        .map(|r| r.scenario.merge.fan_in)
}

fn fan_in_table(results: &[ScenarioResult]) -> Table {
    let best = best_fan_in(results).map_or("-".to_string(), |k| k.to_string());
    let mut table = Table::new(
        format!("Figure 6.1 — merge cost vs fan-in (least simulated I/O at fan-in {best})"),
        &[
            "fan-in",
            "merge steps",
            "seeks",
            "pages",
            "sim merge I/O",
            "merge wall",
        ],
    );
    for r in results {
        table.row(vec![
            r.scenario.merge.fan_in.to_string(),
            r.merge_steps.to_string(),
            r.merge.seeks.to_string(),
            (r.merge.pages_read + r.merge.pages_written).to_string(),
            fmt_duration(Duration::from_micros(r.merge.simulated_io_us)),
            fmt_duration(Duration::from_micros(r.merge.wall_us)),
        ]);
    }
    table
}

fn run_length_table(results: &[ScenarioResult]) -> Table {
    let (records, memory) = results
        .first()
        .map_or((0, 0), |r| (r.scenario.records, r.scenario.memory));
    let mut table = Table::new(
        format!("Table 5.13 — average run length / memory ({records} records, {memory} memory)"),
        &[
            "input",
            "LSS",
            "RS",
            "2WRS cfg1",
            "2WRS cfg2",
            "2WRS cfg3",
            "RS paper",
            "2WRS paper",
        ],
    );
    for row in results.chunks(5) {
        let kind = row[0].scenario.distribution;
        let mut cells = vec![kind.label().to_string()];
        cells.extend(row.iter().map(|r| fmt_relative(r.relative_run_length)));
        for expected in [
            theory::rs_expected_relative_run_length(kind, records, memory),
            theory::twrs_expected_relative_run_length(kind, records, memory),
        ] {
            cells.push(fmt_relative(expected.relative_run_length(records, memory)));
        }
        table.row(cells);
    }
    table
}

/// Modelled run-generation and total (generation plus merge) time of a
/// sort, as the paper's Chapter 6 plots them: measured CPU wall time plus
/// the simulated device's I/O time.
fn modelled_times(result: &ScenarioResult) -> (Duration, Duration) {
    let phase = |p: &PhaseMetrics| Duration::from_micros(p.wall_us + p.simulated_io_us);
    let run = phase(&result.run_generation);
    (run, run + phase(&result.merge))
}

/// The total-time speedup of 2WRS over RS on one input (>1 means 2WRS is
/// faster).
pub fn speedup(rs: &ScenarioResult, twrs: &ScenarioResult) -> f64 {
    let total = |r| modelled_times(r).1.as_secs_f64();
    total(rs) / total(twrs).max(1e-9)
}

/// The RS and 2WRS sorts of one timing-figure point.
fn timing_pair(distribution: DistributionKind, records: u64, memory: usize) -> [Scenario; 2] {
    [GeneratorKind::Rs, GeneratorKind::Twrs].map(|generator| Scenario {
        seed: TIMING_SEED,
        merge: TIMING_MERGE,
        ..Scenario::new(generator, distribution, records, memory)
    })
}

/// Formats a duration compactly (ms below 10 s, seconds above).
fn fmt_duration(d: Duration) -> String {
    match d.as_secs_f64() {
        secs if secs < 10.0 => format!("{:.1} ms", secs * 1_000.0),
        secs => format!("{secs:.2} s"),
    }
}

/// Formats a relative run length, as `inf` when a single run makes it
/// unbounded in the paper's notation.
fn fmt_relative(value: f64) -> String {
    match value {
        value if value > 10_000.0 => "inf".to_string(),
        value => format!("{value:.2}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::matrix::MATRIX_SEED;

    #[test]
    fn figures_and_scales_parse_by_name_only() {
        for figure in Figure::all() {
            assert_eq!(Figure::parse(figure.number()), Some(figure));
        }
        assert_eq!(Figure::parse("6.4"), Some(Figure::MixedVsMemory));
        assert_eq!(Figure::parse("9.9"), None);
        assert_eq!(Scale::parse("quick"), Some(Scale::QUICK));
        assert_eq!(Scale::parse("quikc"), None);
        // Every preset keeps the paper's order of input-to-memory ratio.
        for scale in [Scale::QUICK, Scale::LAPTOP, Scale::PAPER] {
            assert!(scale.records / scale.memory as u64 >= 50);
        }
    }

    #[test]
    fn figures_keep_their_seeds_and_sizes_and_list_each_sort_once() {
        let quick = |figure: Figure| figure.scenarios(Scale::QUICK);
        let seeds = |figure: Figure| quick(figure).iter().map(|s| s.seed).max();
        assert_eq!(quick(Figure::RunLengths).len(), 30);
        assert_eq!(seeds(Figure::RunLengths), Some(MATRIX_SEED));
        assert_eq!(quick(Figure::BufferSweep).len(), 7);
        assert_eq!(seeds(Figure::BufferSweep), Some(5));
        // Figure 6.1 merges 64 runs of 4,096 records at every scale.
        for scale in [Scale::QUICK, Scale::LAPTOP, Scale::PAPER] {
            let fan_in = Figure::FanIn.scenarios(scale);
            assert_eq!(fan_in.len(), 17);
            assert!(fan_in
                .iter()
                .all(|s| s.records == 64 * 4_096 && s.seed == 7));
            assert_eq!(fan_in[0].merge.read_ahead_records, 8_192 / 2);
        }
        let timing: Vec<Scenario> = Figure::all()[3..].iter().flat_map(|f| quick(*f)).collect();
        assert_eq!(timing.len(), 52);
        assert!(timing
            .iter()
            .all(|s| s.seed == 11 && s.merge == TIMING_MERGE));
        // At laptop scale Figure 6.3's full-size point is Figure 6.2's
        // records/100 point (and likewise for 6.5 and 6.4).
        let listed = |scale| Figure::all().iter().map(|f| f.scenarios(scale).len()).sum();
        assert_eq!(
            scenarios(&Figure::all(), Scale::QUICK).len(),
            listed(Scale::QUICK)
        );
        assert_eq!(
            scenarios(&Figure::all(), Scale::LAPTOP).len(),
            listed(Scale::LAPTOP) - 4
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
    }

    #[test]
    fn relative_formatting() {
        assert_eq!(fmt_relative(2.0), "2.00");
        assert_eq!(fmt_relative(1e9), "inf");
    }
}
