//! Pins the exact decisions of two-way replacement selection.
//!
//! Each of the six paper distributions (6,000 records, seed 5) runs through
//! 2WRS with a 300-record budget under 20 configurations: every input
//! heuristic with the *Random* output heuristic, every output heuristic
//! with the *Mean* input heuristic, and every buffer setup at fractions
//! 0.002, 0.02 and 0.2 with the recommended heuristics. For each one the
//! test fixes every [`TwrsRunStats`] field, the run count, the pages
//! written and the seeks of reading every run back on `sim:hdd-7200`.
//!
//! The heuristics read the dual heap's side lengths, pop counts and roots,
//! and the emission path reads the stream boundaries, so a change to the
//! heap or stream bookkeeping that alters any single decision moves at
//! least one figure here.

use twrs_core::{
    BufferSetup, InputHeuristic, OutputHeuristic, TwoWayReplacementSelection, TwrsConfig,
    TwrsRunStats,
};
use twrs_extsort::RunGenerator;
use twrs_storage::{ModelId, SimDevice, SpillNamer, StorageDevice};
use twrs_workloads::{Distribution, DistributionKind, Record};

const RECORDS: u64 = 6_000;
const SEED: u64 = 5;
const MEMORY: usize = 300;

/// The 20 configurations, in the order of the pinned rows.
fn configs() -> Vec<(String, TwrsConfig)> {
    let base = TwrsConfig::recommended(MEMORY);
    let mut configs = Vec::new();
    for input in InputHeuristic::all() {
        let config = base.with_heuristics(input, OutputHeuristic::Random);
        configs.push((format!("{}/random", input.label()), config));
    }
    for output in OutputHeuristic::all() {
        let config = base.with_heuristics(InputHeuristic::Mean, output);
        configs.push((format!("mean/{}", output.label()), config));
    }
    for setup in BufferSetup::all() {
        for fraction in [0.002, 0.02, 0.2] {
            let config = base.with_buffers(setup, fraction);
            configs.push((format!("{} {fraction}", setup.label()), config));
        }
    }
    configs
}

/// One pinned configuration: the eight [`TwrsRunStats`] fields (streams
/// 1–4, victim, deferred, cross-emitted, runs), then the run count, the
/// pages written and the seeks of reading the runs back.
type Row = [u64; 11];

fn row(stats: TwrsRunStats, runs: usize, pages_written: u64, seeks: u64) -> Row {
    [
        stats.stream1_records,
        stats.stream2_records,
        stats.stream3_records,
        stats.stream4_records,
        stats.victim_records,
        stats.deferred_records,
        stats.cross_emitted_records,
        stats.runs,
        runs as u64,
        pages_written,
        seeks,
    ]
}

/// Generates the runs of `input` under `config`, reads every run back
/// (checking that it is sorted and that no record is lost) and returns the
/// pinned figures.
fn generate(config: TwrsConfig, input: &[Record]) -> Row {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("exact");
    let mut generator = TwoWayReplacementSelection::new(config);
    let set = generator
        .generate(&device, &namer, &mut input.iter().cloned())
        .expect("2WRS generates its runs");
    let mut all = Vec::with_capacity(input.len());
    for handle in &set.runs {
        let run = handle
            .open::<Record>(&device)
            .expect("run opens")
            .read_all()
            .expect("run reads back");
        assert!(run.windows(2).all(|w| w[0] <= w[1]), "unsorted run");
        all.extend(run);
    }
    all.sort_unstable();
    let mut expected = input.to_vec();
    expected.sort_unstable();
    assert!(all == expected, "the runs do not hold exactly the input");
    let io = device.stats().counters;
    row(
        generator.stats(),
        set.num_runs(),
        io.pages_written,
        io.seeks,
    )
}

/// Runs every configuration over `kind` and compares with `expected`,
/// reporting all mismatches at once as ready-to-paste rows.
fn check(kind: DistributionKind, expected: &[Row]) {
    let input = Distribution::new(kind, RECORDS, SEED).collect();
    let actual: Vec<(String, Row)> = configs()
        .into_iter()
        .map(|(label, config)| (label, generate(config, &input)))
        .collect();
    let matches =
        actual.len() == expected.len() && actual.iter().zip(expected).all(|((_, a), e)| a == e);
    let render = |(label, r): &(String, Row)| {
        let figures: Vec<String> = r.iter().map(u64::to_string).collect();
        format!("[{}], // {label}", figures.join(", "))
    };
    assert!(
        matches,
        "{}: 2WRS decisions differ from the pinned rows; actual:\n{}",
        kind.label(),
        actual.iter().map(render).collect::<Vec<_>>().join("\n")
    );
    // Every record leaves through exactly one of the four streams.
    for (_, r) in &actual {
        assert_eq!(r[0] + r[1] + r[2] + r[3], RECORDS);
        assert_eq!(r[7], r[8]);
    }
}

#[test]
fn sorted_input_pins_exact_decisions() {
    check(
        DistributionKind::Sorted,
        &[
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // random/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // alternate/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // median/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // useful/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // balancing/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/random
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/alternate
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/useful
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/balancing
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // mean/min-distance
            [5851, 0, 0, 149, 0, 0, 0, 1, 1, 27, 4],  // input 0.002
            [5853, 0, 0, 147, 0, 0, 0, 1, 1, 27, 4],  // input 0.02
            [5880, 0, 0, 120, 0, 0, 0, 1, 1, 27, 4],  // input 0.2
            [5850, 0, 0, 150, 1, 0, 0, 1, 1, 27, 4],  // both 0.002
            [5853, 0, 0, 147, 3, 0, 0, 1, 1, 27, 4],  // both 0.02
            [5876, 0, 0, 124, 30, 0, 0, 1, 1, 27, 4], // both 0.2
            [5850, 0, 0, 150, 1, 0, 0, 1, 1, 27, 4],  // victim 0.002
            [5855, 0, 0, 145, 6, 0, 0, 1, 1, 27, 4],  // victim 0.02
            [5896, 0, 0, 104, 60, 0, 0, 1, 1, 28, 4], // victim 0.2
        ],
    );
}

#[test]
fn reverse_sorted_input_pins_exact_decisions() {
    check(
        DistributionKind::ReverseSorted,
        &[
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // random/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // alternate/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // median/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // useful/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // balancing/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/random
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/alternate
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/useful
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/balancing
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // mean/min-distance
            [150, 0, 0, 5850, 0, 0, 0, 1, 1, 28, 6],  // input 0.002
            [147, 0, 0, 5853, 0, 0, 0, 1, 1, 28, 6],  // input 0.02
            [120, 0, 0, 5880, 0, 0, 0, 1, 1, 28, 6],  // input 0.2
            [149, 0, 0, 5851, 1, 0, 0, 1, 1, 28, 6],  // both 0.002
            [146, 0, 0, 5854, 3, 0, 0, 1, 1, 28, 6],  // both 0.02
            [123, 0, 0, 5877, 30, 0, 0, 1, 1, 28, 6], // both 0.2
            [149, 0, 0, 5851, 1, 0, 0, 1, 1, 28, 6],  // victim 0.002
            [146, 0, 0, 5854, 6, 0, 0, 1, 1, 28, 6],  // victim 0.02
            [123, 0, 0, 5877, 60, 0, 0, 1, 1, 28, 6], // victim 0.2
        ],
    );
}

#[test]
fn alternating_input_pins_exact_decisions() {
    check(
        DistributionKind::Alternating { sections: 50 },
        &[
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // random/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // alternate/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // mean/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // median/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // useful/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // balancing/random
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // mean/random
            [3185, 7, 13, 2795, 53, 0, 0, 11, 11, 105, 70], // mean/alternate
            [1964, 2, 10, 4024, 45, 0, 0, 11, 11, 90, 62], // mean/useful
            [2972, 3, 15, 3010, 51, 0, 0, 11, 11, 106, 68], // mean/balancing
            [3287, 3, 12, 2698, 48, 0, 0, 11, 11, 100, 66], // mean/min-distance
            [3100, 0, 0, 2900, 0, 0, 0, 11, 11, 72, 44],   // input 0.002
            [3216, 0, 0, 2784, 0, 0, 0, 12, 12, 75, 48],   // input 0.02
            [2082, 0, 0, 3918, 0, 0, 0, 13, 13, 76, 52],   // input 0.2
            [3121, 0, 0, 2879, 11, 0, 0, 11, 11, 73, 44],  // both 0.002
            [3140, 3, 11, 2846, 47, 0, 0, 11, 11, 98, 64], // both 0.02
            [2097, 0, 56, 3847, 446, 0, 0, 13, 13, 112, 76], // both 0.2
            [3121, 0, 0, 2879, 11, 0, 0, 11, 11, 73, 44],  // victim 0.002
            [3282, 0, 13, 2705, 79, 0, 0, 11, 11, 92, 58], // victim 0.02
            [2249, 0, 100, 3651, 880, 3, 0, 13, 13, 112, 76], // victim 0.2
        ],
    );
}

#[test]
fn random_input_pins_exact_decisions() {
    check(
        DistributionKind::RandomUniform,
        &[
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // random/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // alternate/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // mean/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // median/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // useful/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // balancing/random
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // mean/random
            [3203, 9, 16, 2772, 58, 0, 0, 11, 11, 110, 72], // mean/alternate
            [1887, 4, 10, 4099, 47, 0, 0, 11, 11, 93, 64], // mean/useful
            [3053, 5, 15, 2927, 53, 0, 0, 11, 11, 107, 68], // mean/balancing
            [3090, 5, 13, 2892, 51, 0, 0, 11, 11, 104, 66], // mean/min-distance
            [3341, 0, 0, 2659, 0, 0, 0, 11, 11, 71, 44],   // input 0.002
            [3133, 0, 0, 2867, 0, 0, 0, 11, 11, 72, 44],   // input 0.02
            [2806, 0, 0, 3194, 0, 0, 0, 14, 14, 78, 56],   // input 0.2
            [3280, 0, 0, 2720, 11, 0, 0, 11, 11, 72, 44],  // both 0.002
            [3060, 0, 10, 2930, 43, 0, 0, 11, 11, 88, 56], // both 0.02
            [2882, 0, 68, 3050, 458, 0, 0, 13, 13, 107, 76], // both 0.2
            [3280, 0, 0, 2720, 11, 0, 0, 11, 11, 72, 44],  // victim 0.002
            [3228, 3, 25, 2744, 94, 0, 0, 11, 11, 96, 62], // victim 0.02
            [3020, 0, 70, 2910, 850, 1, 0, 13, 13, 109, 76], // victim 0.2
        ],
    );
}

#[test]
fn mixed_balanced_input_pins_exact_decisions() {
    check(
        DistributionKind::MixedBalanced,
        &[
            [1349, 1354, 1356, 1941, 2719, 1, 0, 3, 3, 45, 20], // random/random
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // alternate/random
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/random
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // median/random
            [1349, 1354, 1356, 1941, 2719, 1, 0, 3, 3, 45, 20], // useful/random
            [1349, 1354, 1356, 1941, 2719, 1, 0, 3, 3, 45, 20], // balancing/random
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/random
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/alternate
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/useful
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/balancing
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // mean/min-distance
            [3063, 0, 0, 2937, 0, 0, 0, 10, 10, 61, 40],        // input 0.002
            [3040, 0, 0, 2960, 0, 0, 0, 10, 10, 62, 40],        // input 0.02
            [3060, 0, 0, 2940, 0, 0, 0, 10, 10, 64, 40],        // input 0.2
            [2941, 0, 0, 3059, 10, 0, 0, 10, 10, 62, 40],       // both 0.002
            [1646, 1352, 1355, 1647, 2713, 0, 0, 2, 2, 35, 12], // both 0.02
            [1631, 1365, 1371, 1633, 2796, 0, 0, 2, 2, 35, 12], // both 0.2
            [2941, 0, 0, 3059, 10, 0, 0, 10, 10, 62, 40],       // victim 0.002
            [1646, 1355, 1351, 1648, 2718, 0, 0, 2, 2, 35, 12], // victim 0.02
            [1646, 1350, 1356, 1648, 2826, 0, 0, 2, 2, 35, 12], // victim 0.2
        ],
    );
}

#[test]
fn mixed_imbalanced_input_pins_exact_decisions() {
    check(
        DistributionKind::MixedImbalanced {
            descending_per_ascending: 3,
        },
        &[
            [1319, 0, 0, 4681, 12, 0, 0, 4, 4, 39, 16], // random/random
            [2174, 5, 4, 3817, 33, 0, 0, 8, 8, 70, 44], // alternate/random
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // mean/random
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // median/random
            [2581, 46, 30, 3343, 106, 8, 0, 10, 10, 105, 74], // useful/random
            [1319, 0, 0, 4681, 12, 0, 0, 4, 4, 39, 16], // balancing/random
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // mean/random
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // mean/alternate
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // mean/useful
            [2593, 46, 30, 3331, 106, 8, 0, 10, 10, 105, 74], // mean/balancing
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // mean/min-distance
            [2205, 0, 0, 3795, 0, 0, 0, 8, 8, 55, 32],  // input 0.002
            [1507, 0, 0, 4493, 0, 0, 0, 5, 5, 43, 20],  // input 0.02
            [1720, 0, 0, 4280, 0, 0, 0, 7, 7, 53, 28],  // input 0.2
            [1932, 0, 0, 4068, 7, 0, 0, 7, 7, 50, 28],  // both 0.002
            [2579, 46, 30, 3345, 106, 8, 0, 10, 10, 105, 74], // both 0.02
            [740, 2064, 702, 2494, 2856, 7, 0, 3, 3, 45, 20], // both 0.2
            [1932, 0, 0, 4068, 7, 0, 0, 7, 7, 50, 28],  // victim 0.002
            [747, 2031, 681, 2541, 2730, 2, 0, 3, 3, 44, 20], // victim 0.02
            [735, 2077, 689, 2499, 2946, 15, 0, 3, 3, 43, 20], // victim 0.2
        ],
    );
}
