//! Design of experiments: the full crossed factorial experiment of §5.2.
//!
//! The paper evaluates 2WRS over four configuration factors (buffer setup,
//! buffer size, input heuristic, output heuristic), executing every
//! combination with several random seeds and recording the number of runs
//! generated. [`paper_factorial_experiment`] reproduces that experiment at a
//! configurable scale and returns a [`FactorialData`] ready for the ANOVA of
//! [`crate::anova`], together with the raw observation list (the
//! `anova_analysis` example prints both).

use crate::anova::FactorialData;
use twrs_core::{
    BufferSetup, InputHeuristic, OutputHeuristic, TwoWayReplacementSelection, TwrsConfig,
};
use twrs_extsort::RunGenerator;
use twrs_storage::ModelId;
use twrs_storage::SimDevice;
use twrs_storage::SpillNamer;
use twrs_workloads::{Distribution, DistributionKind};

/// The factor levels of the paper's experiment (Table 5.1).
#[derive(Debug, Clone)]
pub struct PaperFactors {
    /// Levels of the buffer-setup factor (α).
    pub buffer_setups: Vec<BufferSetup>,
    /// Levels of the buffer-size factor (β), as fractions of memory.
    pub buffer_fractions: Vec<f64>,
    /// Levels of the input-heuristic factor (γ).
    pub input_heuristics: Vec<InputHeuristic>,
    /// Levels of the output-heuristic factor (δ).
    pub output_heuristics: Vec<OutputHeuristic>,
    /// Seeds used to replicate every configuration.
    pub seeds: Vec<u64>,
}

impl Default for PaperFactors {
    fn default() -> Self {
        PaperFactors {
            buffer_setups: BufferSetup::all().to_vec(),
            buffer_fractions: vec![0.0002, 0.002, 0.02, 0.2],
            input_heuristics: InputHeuristic::all().to_vec(),
            output_heuristics: OutputHeuristic::all().to_vec(),
            seeds: vec![1, 2, 3, 4, 5],
        }
    }
}

impl PaperFactors {
    /// A reduced factor grid (two levels per factor, two seeds) for quick
    /// tests and laptop-scale sweeps.
    pub fn reduced() -> Self {
        PaperFactors {
            buffer_setups: vec![BufferSetup::Both, BufferSetup::InputOnly],
            buffer_fractions: vec![0.002, 0.02],
            input_heuristics: vec![InputHeuristic::Mean, InputHeuristic::Random],
            output_heuristics: vec![OutputHeuristic::Random, OutputHeuristic::Alternate],
            seeds: vec![1, 2],
        }
    }

    /// Number of configurations (excluding seed replication).
    pub fn configurations(&self) -> usize {
        self.buffer_setups.len()
            * self.buffer_fractions.len()
            * self.input_heuristics.len()
            * self.output_heuristics.len()
    }

    /// Total number of algorithm executions the experiment performs.
    pub fn executions(&self) -> usize {
        self.configurations() * self.seeds.len()
    }
}

/// One observation of the factorial experiment: a configuration, its factor
/// level indices, and the measured number of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPoint {
    /// Level indices of (buffer setup, buffer size, input heuristic, output
    /// heuristic).
    pub levels: [usize; 4],
    /// The seed used for this replication.
    pub seed: u64,
    /// Number of runs 2WRS generated.
    pub runs: f64,
    /// Average run length relative to the memory size.
    pub relative_run_length: f64,
}

/// Convenience alias describing the factor/level labels of the experiment.
pub type FactorLevels = (Vec<String>, Vec<Vec<String>>);

/// Factor and level names of the paper experiment, for building
/// [`FactorialData`].
pub fn factor_levels(factors: &PaperFactors) -> FactorLevels {
    (
        vec![
            "buffer-setup".into(),
            "buffer-size".into(),
            "input-heuristic".into(),
            "output-heuristic".into(),
        ],
        vec![
            factors
                .buffer_setups
                .iter()
                .map(|s| s.label().to_string())
                .collect(),
            factors
                .buffer_fractions
                .iter()
                .map(|f| format!("{}%", f * 100.0))
                .collect(),
            factors
                .input_heuristics
                .iter()
                .map(|h| h.label().to_string())
                .collect(),
            factors
                .output_heuristics
                .iter()
                .map(|h| h.label().to_string())
                .collect(),
        ],
    )
}

/// Runs the full crossed factorial experiment of §5.2 for one input
/// distribution: every combination of the factor levels is executed once per
/// seed, measuring the number of runs 2WRS generates.
///
/// Returns the populated [`FactorialData`] (response variable: number of
/// runs, as in the paper) and the raw per-execution points.
pub fn paper_factorial_experiment(
    kind: DistributionKind,
    records: u64,
    memory: usize,
    factors: &PaperFactors,
) -> (FactorialData, Vec<ExperimentPoint>) {
    let (factor_names, level_names) = factor_levels(factors);
    let mut data = FactorialData::new(factor_names, level_names);
    let mut points = Vec::with_capacity(factors.executions());

    for (i_setup, setup) in factors.buffer_setups.iter().enumerate() {
        for (i_frac, fraction) in factors.buffer_fractions.iter().enumerate() {
            for (i_in, input_h) in factors.input_heuristics.iter().enumerate() {
                for (i_out, output_h) in factors.output_heuristics.iter().enumerate() {
                    for seed in &factors.seeds {
                        let config = TwrsConfig::recommended(memory)
                            .with_buffers(*setup, *fraction)
                            .with_heuristics(*input_h, *output_h)
                            .with_seed(*seed);
                        let outcome = run_once(kind, records, config, *seed);
                        data.push(vec![i_setup, i_frac, i_in, i_out], outcome.0);
                        points.push(ExperimentPoint {
                            levels: [i_setup, i_frac, i_in, i_out],
                            seed: *seed,
                            runs: outcome.0,
                            relative_run_length: outcome.1,
                        });
                    }
                }
            }
        }
    }
    (data, points)
}

/// Executes 2WRS once and returns (number of runs, relative run length).
fn run_once(kind: DistributionKind, records: u64, config: TwrsConfig, seed: u64) -> (f64, f64) {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("doe");
    let memory = config.memory_records;
    let mut generator = TwoWayReplacementSelection::new(config);
    // The paper adds the U(1, 1000) jitter exactly so replicated executions
    // differ; the seed controls both the jitter and the Random heuristics.
    let mut input = Distribution::new(kind, records, seed).records();
    let set = generator
        .generate(&device, &namer, &mut input)
        // twrs-lint: allow(no-lib-panic) DOE sweeps run on an in-memory SimDevice; aborting on failure is intended
        .expect("experiment execution must succeed");
    (set.num_runs() as f64, set.relative_run_length(memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anova::FactorialAnova;

    #[test]
    fn factor_grid_sizes() {
        let full = PaperFactors::default();
        assert_eq!(full.configurations(), 3 * 4 * 6 * 5);
        assert_eq!(full.executions(), 3 * 4 * 6 * 5 * 5);
        let reduced = PaperFactors::reduced();
        assert_eq!(reduced.configurations(), 16);
        assert_eq!(reduced.executions(), 32);
    }

    #[test]
    fn factor_levels_match_grid() {
        let factors = PaperFactors::default();
        let (names, levels) = factor_levels(&factors);
        assert_eq!(names.len(), 4);
        assert_eq!(levels[0].len(), 3);
        assert_eq!(levels[1].len(), 4);
        assert_eq!(levels[2].len(), 6);
        assert_eq!(levels[3].len(), 5);
    }

    #[test]
    fn reduced_experiment_runs_and_fits() {
        let factors = PaperFactors::reduced();
        let (data, points) =
            paper_factorial_experiment(DistributionKind::RandomUniform, 4_000, 100, &factors);
        assert_eq!(data.len(), factors.executions());
        assert_eq!(points.len(), factors.executions());
        // All executions sorted the same input size, so the relative run
        // length is positive everywhere.
        assert!(points.iter().all(|p| p.relative_run_length > 0.5));
        // The ANOVA machinery accepts the data.
        let table = FactorialAnova::fit(&data, &[vec![0], vec![1], vec![2], vec![3]]);
        assert!(table.total_sum_of_squares >= 0.0);
        assert_eq!(table.terms.len(), 4);
    }

    #[test]
    fn sorted_input_is_configuration_independent() {
        // §5.2.1: with sorted input every configuration produces one run, so
        // the response variance is zero.
        let factors = PaperFactors::reduced();
        let (data, points) =
            paper_factorial_experiment(DistributionKind::Sorted, 2_000, 100, &factors);
        assert!(points.iter().all(|p| p.runs == 1.0));
        let table = FactorialAnova::fit(&data, &[vec![0], vec![1], vec![2], vec![3]]);
        assert!(table.total_sum_of_squares.abs() < 1e-9);
    }

    /// The main-effects model of Table 5.2 over the paper's four factors.
    fn main_effects(data: &FactorialData) -> crate::anova::AnovaTable {
        FactorialAnova::fit(data, &[vec![0], vec![1], vec![2], vec![3]])
    }

    #[test]
    fn random_input_is_dominated_by_buffer_size() {
        // Tables 5.2/5.3: for random input the only factor that matters is
        // the fraction of memory taken away from the heaps.
        let (data, _) = paper_factorial_experiment(
            DistributionKind::RandomUniform,
            8_000,
            200,
            &PaperFactors::reduced(),
        );
        let model = main_effects(&data);
        let buffer_size = &model.terms[1];
        for (i, term) in model.terms.iter().enumerate() {
            if i != 1 {
                assert!(
                    buffer_size.sum_of_squares >= term.sum_of_squares,
                    "buffer size should dominate, but {} has SS {} > {}",
                    term.name,
                    term.sum_of_squares,
                    buffer_size.sum_of_squares
                );
            }
        }
    }

    #[test]
    fn mixed_input_buffer_setup_matters() {
        // §5.2.5/Figure 5.5: on mixed input the configurations without the
        // victim buffer behave very differently, so the buffer-setup factor
        // carries real variance.
        let (data, _) = paper_factorial_experiment(
            DistributionKind::MixedBalanced,
            8_000,
            200,
            &PaperFactors::reduced(),
        );
        let model = main_effects(&data);
        assert!(model.terms[0].sum_of_squares > 0.0);
        assert!(model.total_sum_of_squares > 0.0);
        // The first-order interaction model, fitted with WLS weights per
        // buffer-size level as in §5.2.5, fits.
        let mut weighted = data.clone();
        weighted.weight_by_factor_variance(1);
        let mut terms: Vec<Vec<usize>> = (0..4).map(|f| vec![f]).collect();
        terms.extend((0..4).flat_map(|a| (a + 1..4).map(move |b| vec![a, b])));
        assert!(FactorialAnova::fit(&weighted, &terms).r_squared >= 0.0);
    }

    #[test]
    fn tukey_and_per_input_summaries_are_well_formed() {
        let factors = PaperFactors::reduced();
        let (data, _) =
            paper_factorial_experiment(DistributionKind::MixedBalanced, 4_000, 100, &factors);
        let model = main_effects(&data);
        assert!(!FactorialAnova::tukey(&data, 2, &model).is_empty());
        assert!(model.to_text().contains("R^2"));
        // Figure 5.2 summarises the number of runs per paper input.
        for kind in DistributionKind::paper_set() {
            let (_, points) = paper_factorial_experiment(kind, 2_000, 100, &factors);
            assert_eq!(points.len(), factors.executions(), "{kind:?}");
            assert!(points.iter().all(|p| p.runs >= 1.0), "{kind:?}");
        }
    }
}
