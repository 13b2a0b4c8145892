//! Named metrics and the order statistics they are reported with.

use twrs_analysis::stats::descriptive::quantile;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor. An empty float sum is `-0.0`; report it as `0`.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: value + 0.0,
        unit,
    }
}

/// Median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile, interpolated between order statistics (0 for no
/// samples).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    quantile(values, q)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions or jobs attempted in the timed region.
    pub attempted: u64,
    /// Of those, the ones that returned an error or failed the output check.
    pub failed: u64,
    /// Every failed check, timed or not; empty when the run is correct.
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Context printed with the table, never part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}
