//! Offline stand-in for the `criterion` crate.
//!
//! Source-compatible with the subset of the criterion 0.5 API this
//! workspace's benches use: benchmark groups, `Bencher::iter`,
//! [`BenchmarkId`], [`Throughput`], `criterion_group!` and
//! `criterion_main!`. Instead of criterion's statistical machinery it runs
//! `sample_size` samples (default 10) of a short calibrated wall-clock loop
//! and prints the minimum, median and 95th-percentile time per iteration
//! over those samples (plus throughput at the median when configured) —
//! good enough for smoke runs, for reading a before/after difference
//! against its spread, and for `cargo bench --no-run` compile gating. See
//! `crates/compat/README.md`.

use std::fmt;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a computed value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self { id: name.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        Self { id: name }
    }
}

/// Samples taken per benchmark unless a group sets
/// [`sample_size`](BenchmarkGroup::sample_size) (criterion's default is
/// 100; the stub keeps smoke runs short).
const DEFAULT_SAMPLES: usize = 10;

/// Wall-clock budget for all samples of one benchmark together.
const BUDGET: Duration = Duration::from_millis(200);

/// Times a single benchmark body.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Iterations in each sample.
    iterations: u64,
    /// Seconds per iteration of each sample, ascending once measured.
    per_iter: Vec<f64>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples: samples.max(1),
            iterations: 0,
            per_iter: Vec::new(),
        }
    }

    /// Calls `routine` repeatedly and records the wall-clock time per
    /// iteration of each sample.
    ///
    /// The routine is warmed up once and timed once to calibrate how many
    /// iterations one sample runs (a handful on slow bodies, up to a few
    /// thousand on fast ones) so that all samples together take about
    /// 200 ms — a deliberate simplification of criterion's adaptive
    /// sampling that keeps `cargo bench` smoke runs fast.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let probe_start = Instant::now();
        black_box(routine());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));
        let per_sample = BUDGET.as_nanos() / self.samples as u128;
        self.iterations = (per_sample / probe.as_nanos()).clamp(1, 2_000) as u64;
        self.per_iter = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..self.iterations {
                    black_box(routine());
                }
                start.elapsed().as_secs_f64() / self.iterations as f64
            })
            .collect();
        self.per_iter.sort_by(f64::total_cmp);
    }

    /// The `q`-quantile (nearest rank) of the per-iteration times.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.per_iter.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.per_iter[rank - 1]
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        if self.per_iter.is_empty() {
            println!("{label:<50} (not run)");
            return;
        }
        let per_iter = self.quantile(0.5);
        let mut line = format!(
            "{label:<50} min {:>10}  median {:>10}  p95 {:>10} /iter  ({} samples × {} iters)",
            format_seconds(self.quantile(0.0)),
            format_seconds(per_iter),
            format_seconds(self.quantile(0.95)),
            self.per_iter.len(),
            self.iterations
        );
        match throughput {
            Some(Throughput::Elements(n)) if per_iter > 0.0 => {
                line.push_str(&format!("  ({:.3e} elem/s)", n as f64 / per_iter));
            }
            Some(Throughput::Bytes(n)) if per_iter > 0.0 => {
                line.push_str(&format!("  ({:.3e} B/s)", n as f64 / per_iter));
            }
            _ => {}
        }
        println!("{line}");
    }
}

fn format_seconds(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many samples each benchmark of the group takes (at least
    /// one); the time budget is split between them.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs `routine` as a benchmark named `id`.
    pub fn bench_function<R>(&mut self, id: impl Into<BenchmarkId>, mut routine: R) -> &mut Self
    where
        R: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into());
        if !self.criterion.matches(&label) {
            return self;
        }
        let mut bencher = Bencher::new(self.samples);
        routine(&mut bencher);
        bencher.report(&label, self.throughput);
        self
    }

    /// Runs `routine` with a borrowed input as a benchmark named `id`.
    pub fn bench_with_input<I: ?Sized, R>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: R,
    ) -> &mut Self
    where
        R: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Finishes the group. (No-op in the stub; criterion prints summaries
    /// here.)
    pub fn finish(self) {}
}

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Applies the substring filter passed on the command line, mirroring
    /// `cargo bench -- <filter>`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    fn matches(&self, label: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| label.contains(f))
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("── {name} ──");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<R>(&mut self, id: impl Into<BenchmarkId>, mut routine: R) -> &mut Self
    where
        R: FnMut(&mut Bencher),
    {
        let label = id.into().to_string();
        if self.matches(&label) {
            let mut bencher = Bencher::new(DEFAULT_SAMPLES);
            routine(&mut bencher);
            bencher.report(&label, None);
        }
        self
    }
}

/// Parses the arguments cargo passes to a `harness = false` bench binary.
///
/// Recognizes a positional substring filter; flags criterion understands
/// (`--bench`, `--test`, `--nocapture`, ...) are accepted and ignored so
/// `cargo bench`/`cargo test` invocations work unchanged.
#[doc(hidden)]
pub fn criterion_from_args() -> Criterion {
    let mut criterion = Criterion::default();
    for arg in std::env::args().skip(1) {
        if !arg.starts_with('-') {
            criterion = criterion.with_filter(arg);
        }
    }
    criterion
}

/// Declares a group function running each listed benchmark target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Declares `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::criterion_from_args();
            $( $group(&mut criterion); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("compat");
        group.throughput(Throughput::Elements(16));
        group.sample_size(10);
        group.bench_function("sum", |b| b.iter(|| (0..16u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs_end_to_end() {
        let mut criterion = Criterion::default();
        benches(&mut criterion);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut criterion = Criterion::default().with_filter("no-such-bench");
        // Must not run the body at all: a panicking routine proves skipping.
        criterion
            .benchmark_group("g")
            .bench_function("skipped", |_| panic!("should not run"));
    }

    #[test]
    fn sample_size_sets_the_samples_summarised() {
        for (samples, expected) in [(3, 3), (0, 1)] {
            let mut bencher = Bencher::new(samples);
            bencher.iter(|| (0..64u64).sum::<u64>());
            assert_eq!(bencher.per_iter.len(), expected);
            assert!(bencher.iterations >= 1);
            let (min, median, p95) = (
                bencher.quantile(0.0),
                bencher.quantile(0.5),
                bencher.quantile(0.95),
            );
            assert!(min <= median && median <= p95);
        }
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let mut bencher = Bencher::new(10);
        bencher.per_iter = (1..=10).map(f64::from).collect();
        assert_eq!(bencher.quantile(0.0), 1.0);
        assert_eq!(bencher.quantile(0.5), 5.0);
        assert_eq!(bencher.quantile(0.95), 10.0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
