//! Integration tests asserting the *shapes* of the paper's headline results
//! (Table 5.13, Figures 5.4 and 6.1–6.7 and the Chapter 6 conclusions) —
//! who wins, and roughly by how much. The figure tests run the bench
//! suite's figure matrices, the same sorts `bench_suite --figure` prints.

use two_way_replacement_selection::analysis::model::SnowplowModel;
use two_way_replacement_selection::analysis::theory;
use two_way_replacement_selection::prelude::*;
use twrs_bench::suite::figures::{best_fan_in, fan_in_scenarios, speedup};
use twrs_bench::suite::{run_scenario, Figure, GeneratorKind, Scale, Scenario, ScenarioResult};

const RECORDS: u64 = 60_000;
const MEMORY: usize = 600;

/// The relative run length of one sort, through the bench suite's runner.
fn relative_run_length(generator: GeneratorKind, kind: DistributionKind) -> f64 {
    let scenario = Scenario::new(generator, kind, RECORDS, MEMORY);
    let result = run_scenario(&Scenario {
        seed: 23,
        ..scenario
    });
    result.expect("scenario runs").relative_run_length
}

#[test]
fn table_5_13_shape_holds() {
    for kind in DistributionKind::paper_set() {
        let rs = relative_run_length(GeneratorKind::Rs, kind);
        let twrs = relative_run_length(GeneratorKind::Twrs, kind);
        // 2WRS is never meaningfully worse than RS...
        assert!(
            twrs >= rs * 0.85,
            "{kind:?}: 2WRS {twrs:.2} clearly below RS {rs:.2}"
        );
        // ...and is far better wherever the paper says so.
        match kind {
            DistributionKind::ReverseSorted
            | DistributionKind::MixedBalanced
            | DistributionKind::MixedImbalanced { .. } => {
                assert!(
                    twrs >= rs * 3.0,
                    "{kind:?}: expected a large 2WRS advantage, got {twrs:.2} vs {rs:.2}"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn measured_run_lengths_track_the_theory_oracles() {
    for kind in DistributionKind::paper_set() {
        let rs = relative_run_length(GeneratorKind::Rs, kind);
        let expected = theory::rs_expected_relative_run_length(kind, RECORDS, MEMORY)
            .relative_run_length(RECORDS, MEMORY);
        assert!(
            rs >= expected * 0.6 && rs <= expected * 1.8,
            "{kind:?}: RS measured {rs:.2}, theory {expected:.2}"
        );
    }
}

#[test]
fn snowplow_model_and_measured_rs_agree_on_random_input() {
    // The §3.6 model predicts the measured RS run length for random input.
    let model_run_length = SnowplowModel::uniform(256)
        .simulate(6)
        .last()
        .expect("snapshots")
        .run_length;
    let measured = relative_run_length(GeneratorKind::Rs, DistributionKind::RandomUniform);
    assert!(
        (model_run_length - measured).abs() < 0.4,
        "model {model_run_length:.2} vs measured {measured:.2}"
    );
}

#[test]
fn chapter_6_conclusion_fewer_runs_means_fewer_merge_steps() {
    // The mechanism behind every Chapter 6 speedup: 2WRS generates fewer
    // runs on structured input, so the merge phase does less work.
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let config = SorterConfig {
        merge: MergeConfig {
            fan_in: 10,
            read_ahead_records: 512,
        },
        verify: true,
    };
    let input = || Distribution::new(DistributionKind::ReverseSorted, RECORDS, 3).records();

    let rs_report = SortJob::new(ReplacementSelection::new(MEMORY))
        .config(config)
        .on(&device)
        .run_iter(input(), "rs_out")
        .unwrap()
        .report;

    let twrs_report = SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        MEMORY,
    )))
    .config(config)
    .on(&device)
    .run_iter(input(), "twrs_out")
    .unwrap()
    .report;

    assert!(twrs_report.num_runs < rs_report.num_runs / 10);
    assert!(twrs_report.merge_report.merge_steps <= rs_report.merge_report.merge_steps);
    assert!(
        twrs_report.merge_report.records_written <= rs_report.merge_report.records_written,
        "2WRS should rewrite no more data during the merge"
    );
    assert!(twrs_report.total_modelled() < rs_report.total_modelled());
}

/// Runs scenarios through the bench suite's runner (verify on).
fn run(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    scenarios
        .iter()
        .map(|s| run_scenario(s).expect("scenario runs"))
        .collect()
}

/// The (RS, 2WRS) result pairs of a timing figure swept from `records`
/// and `memory`, one per x value.
fn timing(figure: Figure, records: u64, memory: usize) -> Vec<[ScenarioResult; 2]> {
    let results = run(&figure.scenarios(Scale::new(records, memory)));
    let pairs = results.chunks_exact(2);
    pairs
        .map(|pair| [pair[0].clone(), pair[1].clone()])
        .collect()
}

#[test]
fn table_shape_matches_the_paper_at_quick_scale() {
    let results = run(&Figure::RunLengths.scenarios(Scale::QUICK));
    assert_eq!(results.len(), 30);
    // Relative run lengths of one input: LSS, RS, 2WRS cfg1, cfg2, cfg3.
    let row = |label: &str| -> [f64; 5] {
        let row = results
            .chunks(5)
            .find(|row| row[0].scenario.distribution.label() == label)
            .expect("row present");
        std::array::from_fn(|i| row[i].relative_run_length)
    };

    // Sorted: every algorithm based on replacement selection produces a
    // single run (LSS stays at 1).
    let [lss, rs, _, _, twrs] = row("sorted");
    assert!(rs > 10.0);
    assert!(twrs > 10.0);
    assert!((lss - 1.0).abs() < 0.05);

    // Reverse sorted: the headline result — RS collapses to 1.0 while
    // 2WRS produces a single run.
    let [_, rs, _, _, twrs] = row("reverse-sorted");
    assert!((rs - 1.0).abs() < 0.1);
    assert!(twrs > 10.0);

    // Random: RS and 2WRS are equivalent at about twice the memory.
    let [_, rs, _, _, twrs] = row("random");
    assert!((1.5..2.5).contains(&rs));
    assert!((1.4..2.5).contains(&twrs));

    // Mixed: 2WRS with the victim buffer beats RS by a wide margin.
    for label in ["mixed", "mixed-imbalanced"] {
        let [_, rs, _, _, twrs] = row(label);
        assert!(twrs > 2.0 * rs, "{label}: 2WRS {twrs:.2} vs RS {rs:.2}");
    }

    assert_eq!(Figure::RunLengths.table(&results).rows().len(), 6);
}

#[test]
fn larger_buffers_do_not_help_random_input() {
    let results = run(&Figure::BufferSweep.scenarios(Scale::QUICK));
    let at = |fraction: f64| {
        results
            .iter()
            .find(|r| r.scenario.buffers.1 == fraction)
            .expect("swept fraction")
            .relative_run_length
    };
    let (small, large) = (at(0.002), at(0.2));
    // Figure 5.4: the run length decreases as the buffers grow (the heaps
    // shrink); allow a little measurement noise.
    assert!(
        large <= small * 1.05,
        "20% buffers ({large:.2}) should not beat 0.2% buffers ({small:.2})"
    );
    // And both stay in the replacement-selection ballpark.
    assert!(small > 1.2 && large > 1.0);
    assert_eq!(Figure::BufferSweep.table(&results).rows().len(), 7);
}

#[test]
fn curve_is_u_shaped_with_an_interior_optimum() {
    // Figure 6.1 on simulated merge I/O, which is deterministic (on the
    // sata-ssd model the CPU time is as large as the I/O time).
    let results = run(&fan_in_scenarios(32, 2_048, 2..=16));
    assert_eq!(results.len(), 15);
    let io = |r: &ScenarioResult| r.merge.simulated_io_us;
    let best_point = results.iter().min_by_key(|r| io(r)).unwrap();
    let best = best_point.scenario.merge.fan_in;
    assert_eq!(best_fan_in(&results), Some(best));
    let (first, last) = (&results[0], &results[14]);
    // The defining property of Figure 6.1: neither extreme is optimal.
    assert!(io(best_point) < io(first), "fan-in 2 should not be optimal");
    assert!(
        io(best_point) < io(last),
        "the largest fan-in should not be optimal"
    );
    assert!(best > first.scenario.merge.fan_in);
    // Larger fan-ins seek more per pass than the optimum.
    assert!(last.merge.seeks > best_point.merge.seeks);
    // Fewer merge passes as the fan-in grows.
    assert!(first.merge_steps > last.merge_steps);
}

#[test]
fn render_includes_every_fan_in() {
    let results = run(&fan_in_scenarios(8, 512, 2..=5));
    assert_eq!(Figure::FanIn.table(&results).rows().len(), 4);
}

#[test]
fn reverse_sorted_shows_the_paper_speedup() {
    // Figure 6.7: 2WRS is clearly faster than RS on reverse-sorted input
    // (the paper measures ~2.5× at its input-to-memory ratios).
    let points = timing(Figure::ReverseVsInput, 40_000, 400);
    let [rs, twrs] = points.last().unwrap();
    assert!(twrs.num_runs < rs.num_runs, "2WRS must generate fewer runs");
    assert!(
        speedup(rs, twrs) > 1.3,
        "expected a clear speedup at full input, got {:.2}",
        speedup(rs, twrs)
    );
    // Every point keeps 2WRS at least competitive.
    assert!(points.iter().all(|[rs, twrs]| speedup(rs, twrs) > 0.9));
}

#[test]
fn random_input_is_roughly_a_tie() {
    // Figures 6.2/6.3: the paper finds both algorithms equivalent on
    // random input. At this scale 2WRS pays a visible per-run overhead for
    // storing each run as several stream files (every extra file is an
    // extra merge-phase seek), which amortises away at the paper's run
    // sizes. Here we only require 2WRS to stay within a small constant
    // factor and to generate the same number of runs.
    let points = timing(Figure::RandomVsInput, 40_000, 400);
    let [rs, twrs] = points.last().unwrap();
    assert!(
        (0.3..1.7).contains(&speedup(rs, twrs)),
        "speedup {:.2} out of the expected band",
        speedup(rs, twrs)
    );
    let ratio = twrs.num_runs as f64 / rs.num_runs as f64;
    assert!((0.8..1.25).contains(&ratio), "run counts diverge: {ratio}");
}

#[test]
fn mixed_input_favors_twrs() {
    // Figures 6.4/6.5: 2WRS is clearly faster on mixed input.
    let points = timing(Figure::MixedVsInput, 40_000, 400);
    let [rs, twrs] = points.last().unwrap();
    assert!(speedup(rs, twrs) > 1.3, "speedup {:.2}", speedup(rs, twrs));
}

#[test]
fn alternating_speedup_decreases_with_more_sections() {
    // Figure 6.6: with few sections 2WRS wins big; with many sections the
    // input approaches random and the two algorithms converge.
    let points = timing(Figure::AlternatingSections, 20_000, 200);
    let at = |sections: u32| {
        let distribution = DistributionKind::Alternating { sections };
        let [rs, twrs] = points
            .iter()
            .find(|[rs, _]| rs.scenario.distribution == distribution)
            .unwrap();
        speedup(rs, twrs)
    };
    assert!(at(2) > at(100));
    assert!(at(2) > 1.2);
}

#[test]
fn figures_parse_and_render() {
    assert_eq!(Figure::parse("6.4"), Some(Figure::MixedVsMemory));
    assert_eq!(Figure::parse("9.9"), None);
    let results = run(&Figure::RandomVsMemory.scenarios(Scale::new(5_000, 100)));
    assert_eq!(results.len(), 10);
    assert_eq!(Figure::RandomVsMemory.table(&results).rows().len(), 5);
}
