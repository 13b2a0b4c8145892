//! Integration tests asserting the *shapes* of the paper's headline results
//! (Table 5.13 and the Chapter 6 conclusions) at laptop scale — who wins,
//! and roughly by how much.

use two_way_replacement_selection::analysis::model::SnowplowModel;
use two_way_replacement_selection::analysis::theory;
use two_way_replacement_selection::prelude::*;

const RECORDS: u64 = 60_000;
const MEMORY: usize = 600;

fn relative_run_length<G: RunGenerator>(mut generator: G, kind: DistributionKind) -> f64 {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("shapes");
    let memory = generator.memory_records();
    let mut input = Distribution::new(kind, RECORDS, 23).records();
    generator
        .generate(&device, &namer, &mut input)
        .expect("run generation succeeds")
        .relative_run_length(memory)
}

#[test]
fn table_5_13_shape_holds() {
    for kind in DistributionKind::paper_set() {
        let rs = relative_run_length(ReplacementSelection::new(MEMORY), kind);
        let twrs = relative_run_length(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            kind,
        );
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
        let rs = relative_run_length(ReplacementSelection::new(MEMORY), kind);
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
    let measured = relative_run_length(
        ReplacementSelection::new(MEMORY),
        DistributionKind::RandomUniform,
    );
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
