//! Run the paper's Chapter 5 statistical analysis: a crossed factorial
//! experiment over the 2WRS configuration factors, ANOVA models of the
//! number of runs generated (Tables 5.2–5.11), Tukey pairwise comparisons
//! of both heuristic factors, and Figure 5.2's per-input summary.
//!
//! ```text
//! cargo run --release --example anova_analysis [-- --full]
//! ```
//!
//! The default reduced grid (two levels per factor, two seeds) finishes in
//! seconds; `--full` runs the paper's complete grid (360 configurations ×
//! 5 seeds).

use two_way_replacement_selection::analysis::anova::FactorialAnova;
use two_way_replacement_selection::analysis::doe::{paper_factorial_experiment, PaperFactors};
use two_way_replacement_selection::prelude::DistributionKind;

fn main() {
    let factors = match std::env::args().nth(1).as_deref() {
        None => PaperFactors::reduced(),
        Some("--full") => PaperFactors::default(),
        Some(other) => {
            eprintln!("anova_analysis: unknown argument {other} (expected --full)");
            std::process::exit(2);
        }
    };
    let records: u64 = 20_000;
    let memory: usize = 400;

    for kind in [
        DistributionKind::RandomUniform,
        DistributionKind::MixedBalanced,
    ] {
        println!(
            "=== {} input — {} executions ({} records, {} memory) ===\n",
            kind.label(),
            factors.executions(),
            records,
            memory
        );
        let (data, _) = paper_factorial_experiment(kind, records, memory, &factors);

        // Main effects only (Tables 5.2/5.3).
        let main_terms: Vec<Vec<usize>> = (0..4).map(|f| vec![f]).collect();
        let main_effects = FactorialAnova::fit(&data, &main_terms);
        println!("Main-effects model:\n{}", main_effects.to_text());

        // Every first-order interaction, fitted with WLS weights derived
        // from the per-buffer-size variance (§5.2.5, Tables 5.5/5.6).
        let mut weighted = data.clone();
        weighted.weight_by_factor_variance(1);
        let mut terms = main_terms;
        terms.extend((0..4).flat_map(|a| (a + 1..4).map(move |b| vec![a, b])));
        println!(
            "First-order interaction model with WLS weights:\n{}",
            FactorialAnova::fit(&weighted, &terms).to_text()
        );

        // Tukey comparisons of both heuristic factors (Tables 5.7/5.8).
        for factor in [2, 3] {
            println!("Tukey pairwise comparisons — {}:", data.factor_name(factor));
            let levels = data.levels_of(factor);
            for c in FactorialAnova::tukey(&data, factor, &main_effects) {
                println!(
                    "  {:>10} vs {:<10}  mean diff {:>8.2}  q {:>6.2}  significance {:.3}",
                    levels[c.level_a],
                    levels[c.level_b],
                    c.mean_difference,
                    c.q_statistic,
                    c.significance
                );
            }
        }
        println!();
    }

    // Figure 5.2: how the number of runs spreads over all configurations,
    // per input dataset.
    println!("Figure 5.2 — number of runs by input dataset (over all configurations):");
    println!("{:<18}{:>8}{:>10}{:>8}", "input", "min", "mean", "max");
    for kind in DistributionKind::paper_set() {
        let (_, points) = paper_factorial_experiment(kind, records, memory, &factors);
        let runs: Vec<f64> = points.iter().map(|p| p.runs).collect();
        println!(
            "{:<18}{:>8.0}{:>10.1}{:>8.0}",
            kind.label(),
            runs.iter().cloned().fold(f64::INFINITY, f64::min),
            runs.iter().sum::<f64>() / runs.len() as f64,
            runs.iter().cloned().fold(0.0, f64::max)
        );
    }
    println!(
        "\nFor random input the buffer-size factor dominates (Tables 5.2/5.3);\n\
         for mixed input the buffer setup and the heuristics matter (§5.2.5)."
    );
}
