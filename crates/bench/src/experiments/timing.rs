//! Figures 6.2–6.7: run-generation and total sorting time of RS vs 2WRS.
//!
//! The paper plots, for each input distribution, the time of the
//! run-generation phase and of the whole sort (run generation plus merge) as
//! the available memory or the input size grows. The experiments here use
//! the simulated device, so the reported time is the modelled I/O time plus
//! the measured CPU time of each phase — deterministic across machines and
//! faithful to the paper's trends (who wins and by how much), though not to
//! its absolute seconds.

use crate::report::{fmt_duration, Table};
use std::time::Duration;
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{MergeConfig, ReplacementSelection, ShardableGenerator, SortJob};
use twrs_storage::ModelId;
use twrs_storage::SimDevice;
use twrs_workloads::{Distribution, DistributionKind};

/// Which figure of Chapter 6 to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingFigure {
    /// Figure 6.2: random input, sweep the memory size.
    RandomVsMemory,
    /// Figure 6.3: random input, sweep the input size.
    RandomVsInput,
    /// Figure 6.4: mixed input, sweep the memory size.
    MixedVsMemory,
    /// Figure 6.5: mixed input, sweep the input size.
    MixedVsInput,
    /// Figure 6.6: alternating input, sweep the number of sections.
    AlternatingSections,
    /// Figure 6.7: reverse-sorted input, sweep the input size.
    ReverseVsInput,
}

impl TimingFigure {
    /// All figures, in paper order.
    pub fn all() -> [TimingFigure; 6] {
        [
            TimingFigure::RandomVsMemory,
            TimingFigure::RandomVsInput,
            TimingFigure::MixedVsMemory,
            TimingFigure::MixedVsInput,
            TimingFigure::AlternatingSections,
            TimingFigure::ReverseVsInput,
        ]
    }

    /// The paper figure number.
    pub fn figure_number(&self) -> &'static str {
        match self {
            TimingFigure::RandomVsMemory => "6.2",
            TimingFigure::RandomVsInput => "6.3",
            TimingFigure::MixedVsMemory => "6.4",
            TimingFigure::MixedVsInput => "6.5",
            TimingFigure::AlternatingSections => "6.6",
            TimingFigure::ReverseVsInput => "6.7",
        }
    }

    /// Parses `6.2`..`6.7`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|f| f.figure_number() == name)
    }
}

/// One point of a timing figure: both algorithms measured at one x value.
#[derive(Debug, Clone, Copy)]
pub struct TimingPoint {
    /// The x axis value (memory in records, input size in records, or the
    /// number of sections, depending on the figure).
    pub x: u64,
    /// RS run-generation time.
    pub rs_run: Duration,
    /// RS total sorting time.
    pub rs_total: Duration,
    /// 2WRS run-generation time.
    pub twrs_run: Duration,
    /// 2WRS total sorting time.
    pub twrs_total: Duration,
    /// Number of runs RS generated.
    pub rs_runs: usize,
    /// Number of runs 2WRS generated.
    pub twrs_runs: usize,
}

impl TimingPoint {
    /// The total-time speedup of 2WRS over RS (>1 means 2WRS is faster).
    pub fn speedup(&self) -> f64 {
        self.rs_total.as_secs_f64() / self.twrs_total.as_secs_f64().max(1e-9)
    }
}

fn sort_with<G: ShardableGenerator>(
    generator: G,
    kind: DistributionKind,
    records: u64,
    fan_in: usize,
) -> (Duration, Duration, usize) {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(kind, records, 11).records();
    let report = SortJob::new(generator)
        .on(&device)
        .merge(MergeConfig {
            fan_in,
            // A generous per-run read-ahead (16 KiB per run), mirroring the
            // paper's per-run input buffers, so the simulated merge is not
            // artificially seek-bound.
            read_ahead_records: 1_024,
        })
        .run_iter(input, "sorted")
        // twrs-lint: allow(no-lib-panic) bench drivers treat device failure as fatal by design
        .expect("sort succeeds")
        .report;
    (
        report.run_generation.modelled_total(),
        report.total_modelled(),
        report.num_runs,
    )
}

fn measure_point(kind: DistributionKind, records: u64, memory: usize, x: u64) -> TimingPoint {
    // The fan-in of 10 found optimal in §6.1.1 is used for every timing
    // experiment, as in the paper.
    let fan_in = 10;
    let (rs_run, rs_total, rs_runs) =
        sort_with(ReplacementSelection::new(memory), kind, records, fan_in);
    let (twrs_run, twrs_total, twrs_runs) = sort_with(
        TwoWayReplacementSelection::new(TwrsConfig::recommended(memory)),
        kind,
        records,
        fan_in,
    );
    TimingPoint {
        x,
        rs_run,
        rs_total,
        twrs_run,
        twrs_total,
        rs_runs,
        twrs_runs,
    }
}

/// Runs one timing figure. `records` and `memory` set the baseline scale;
/// the figure's own sweep multiplies or divides them as the paper does
/// (memory swept over three orders of magnitude, input size over one).
pub fn measure(figure: TimingFigure, records: u64, memory: usize) -> Vec<TimingPoint> {
    match figure {
        TimingFigure::RandomVsMemory | TimingFigure::MixedVsMemory => {
            let kind = if figure == TimingFigure::RandomVsMemory {
                DistributionKind::RandomUniform
            } else {
                DistributionKind::MixedBalanced
            };
            // Memory from records/1000 to records/10 (the paper's 1 GB with
            // 1k–1M records of memory).
            [1_000u64, 250, 100, 25, 10]
                .into_iter()
                .map(|divisor| {
                    let mem = ((records / divisor) as usize).max(16);
                    measure_point(kind, records, mem, mem as u64)
                })
                .collect()
        }
        TimingFigure::RandomVsInput | TimingFigure::MixedVsInput | TimingFigure::ReverseVsInput => {
            let kind = match figure {
                TimingFigure::RandomVsInput => DistributionKind::RandomUniform,
                TimingFigure::MixedVsInput => DistributionKind::MixedBalanced,
                _ => DistributionKind::ReverseSorted,
            };
            // Input from 25 % to 100 % of the configured size (the paper's
            // 100 MB – 1 GB).
            [25u64, 50, 100]
                .into_iter()
                .map(|percent| {
                    let n = (records * percent / 100).max(1_000);
                    measure_point(kind, n, memory, n)
                })
                .collect()
        }
        TimingFigure::AlternatingSections => {
            // Figure 6.6 sweeps the number of sorted/reverse-sorted sections
            // at fixed input and memory.
            [1u32, 2, 5, 10, 25, 50, 100]
                .into_iter()
                .map(|sections| {
                    measure_point(
                        DistributionKind::Alternating { sections },
                        records,
                        memory,
                        u64::from(sections),
                    )
                })
                .collect()
        }
    }
}

/// Renders a timing figure as a table.
pub fn render(figure: TimingFigure, points: &[TimingPoint]) -> Table {
    let x_label = match figure {
        TimingFigure::RandomVsMemory | TimingFigure::MixedVsMemory => "memory (records)",
        TimingFigure::AlternatingSections => "sections",
        _ => "input (records)",
    };
    let mut table = Table::new(
        format!("Figure {} — RS vs 2WRS timing", figure.figure_number()),
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
    for p in points {
        table.row(vec![
            p.x.to_string(),
            fmt_duration(p.rs_run),
            fmt_duration(p.rs_total),
            fmt_duration(p.twrs_run),
            fmt_duration(p.twrs_total),
            p.rs_runs.to_string(),
            p.twrs_runs.to_string(),
            format!("{:.2}x", p.speedup()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_sorted_shows_the_paper_speedup() {
        // Figure 6.7: 2WRS is clearly faster than RS on reverse-sorted
        // input (the paper measures ~2.5× at its input-to-memory ratios).
        let points = measure(TimingFigure::ReverseVsInput, 40_000, 400);
        let last = points.last().unwrap();
        assert!(
            last.twrs_runs < last.rs_runs,
            "2WRS must generate fewer runs"
        );
        assert!(
            last.speedup() > 1.3,
            "expected a clear speedup at full input, got {:.2}",
            last.speedup()
        );
        // Every point keeps 2WRS at least competitive.
        assert!(points.iter().all(|p| p.speedup() > 0.9));
    }

    #[test]
    fn random_input_is_roughly_a_tie() {
        // Figures 6.2/6.3: the paper finds both algorithms equivalent on
        // random input. At laptop scale 2WRS pays a visible per-run overhead
        // for storing each run as several stream files (every extra file is
        // an extra merge-phase seek), which amortises away at the paper's
        // run sizes; see EXPERIMENTS.md. Here we only require 2WRS to stay
        // within a small constant factor and to generate the same number of
        // runs.
        let points = measure(TimingFigure::RandomVsInput, 40_000, 400);
        let last = points.last().unwrap();
        assert!(
            (0.3..1.7).contains(&last.speedup()),
            "speedup {:.2} out of the expected band",
            last.speedup()
        );
        let ratio = last.twrs_runs as f64 / last.rs_runs as f64;
        assert!((0.8..1.25).contains(&ratio), "run counts diverge: {ratio}");
    }

    #[test]
    fn mixed_input_favors_twrs() {
        // Figures 6.4/6.5: 2WRS is clearly faster on mixed input.
        let points = measure(TimingFigure::MixedVsInput, 40_000, 400);
        let last = points.last().unwrap();
        assert!(last.speedup() > 1.3, "speedup {:.2}", last.speedup());
    }

    #[test]
    fn alternating_speedup_decreases_with_more_sections() {
        // Figure 6.6: with few sections 2WRS wins big; with many sections
        // the input approaches random and the two algorithms converge.
        let points = measure(TimingFigure::AlternatingSections, 20_000, 200);
        let few = points.iter().find(|p| p.x == 2).unwrap();
        let many = points.iter().find(|p| p.x == 100).unwrap();
        assert!(few.speedup() > many.speedup());
        assert!(few.speedup() > 1.2);
    }

    #[test]
    fn figures_parse_and_render() {
        assert_eq!(
            TimingFigure::parse("6.4"),
            Some(TimingFigure::MixedVsMemory)
        );
        assert_eq!(TimingFigure::parse("9.9"), None);
        let points = measure(TimingFigure::RandomVsMemory, 5_000, 100);
        let table = render(TimingFigure::RandomVsMemory, &points);
        assert_eq!(table.len(), points.len());
    }
}
