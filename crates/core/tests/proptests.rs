//! Property-based tests for two-way replacement selection.
//!
//! These check the hard invariants — every generated run is sorted, no
//! record is lost or duplicated, the memory budget is respected — for
//! arbitrary inputs and arbitrary configurations, which is exactly where
//! hand-written examples tend to miss corner cases.

use proptest::prelude::*;
use twrs_core::{
    BufferSetup, InputHeuristic, OutputHeuristic, TwoWayReplacementSelection, TwrsConfig,
};
use twrs_extsort::RunGenerator;
use twrs_storage::ModelId;
use twrs_storage::{SimDevice, SpillNamer};
use twrs_workloads::Record;

fn heuristic_pair(seed: u64) -> (InputHeuristic, OutputHeuristic) {
    let inputs = InputHeuristic::all();
    let outputs = OutputHeuristic::all();
    (
        inputs[(seed % inputs.len() as u64) as usize],
        outputs[((seed / 7) % outputs.len() as u64) as usize],
    )
}

fn setup_for(seed: u64) -> BufferSetup {
    BufferSetup::all()[(seed % 3) as usize]
}

/// Runs 2WRS over `keys` and returns (per-run record vectors, total).
fn run_twrs(keys: &[u64], memory: usize, config_seed: u64) -> (Vec<Vec<Record>>, u64) {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("prop");
    let (input_h, output_h) = heuristic_pair(config_seed);
    let config = TwrsConfig::recommended(memory)
        .with_heuristics(input_h, output_h)
        .with_buffers(
            setup_for(config_seed),
            [0.002, 0.02, 0.2][(config_seed % 3) as usize],
        )
        .with_seed(config_seed);
    let mut generator = TwoWayReplacementSelection::new(config);
    let mut input = keys
        .iter()
        .enumerate()
        .map(|(i, k)| Record::new(*k, i as u64));
    let set = generator.generate(&device, &namer, &mut input).unwrap();
    let mut runs = Vec::new();
    for handle in &set.runs {
        let mut reader = handle.open(&device).unwrap();
        runs.push(reader.read_all().unwrap());
    }
    (runs, set.records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every run is sorted and the union of the runs is exactly the input,
    /// for arbitrary keys, memory budgets, heuristics and buffer setups.
    #[test]
    fn runs_are_sorted_and_complete(
        keys in prop::collection::vec(0u64..1_000_000, 0..2_000),
        memory in 1usize..200,
        config_seed in 0u64..1_000,
    ) {
        let (runs, total) = run_twrs(&keys, memory, config_seed);
        prop_assert_eq!(total as usize, keys.len());
        let mut all = Vec::new();
        for run in &runs {
            prop_assert!(run.windows(2).all(|w| w[0] <= w[1]), "unsorted run");
            all.extend(run.iter().map(|r| r.key));
        }
        let mut expected = keys.clone();
        expected.sort_unstable();
        all.sort_unstable();
        prop_assert_eq!(all, expected);
    }

    /// Runs generated from already-sorted input collapse to a single run
    /// regardless of the configuration (Theorem 2).
    #[test]
    fn sorted_input_always_one_run(
        mut keys in prop::collection::vec(0u64..1_000_000, 2..1_000),
        memory in 2usize..100,
        config_seed in 0u64..1_000,
    ) {
        keys.sort_unstable();
        let (runs, _) = run_twrs(&keys, memory, config_seed);
        prop_assert_eq!(runs.len(), 1);
    }

    /// Runs generated from reverse-sorted input collapse to a single run
    /// regardless of the configuration (Theorem 4).
    #[test]
    fn reverse_sorted_input_always_one_run(
        mut keys in prop::collection::vec(0u64..1_000_000, 2..1_000),
        memory in 2usize..100,
        config_seed in 0u64..1_000,
    ) {
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let (runs, _) = run_twrs(&keys, memory, config_seed);
        prop_assert_eq!(runs.len(), 1);
    }

    /// 2WRS with the recommended configuration never produces more runs than
    /// the Load-Sort-Store bound of ceil(n / memory) (Theorem 7 corollary:
    /// every run is at least a memory's worth except the last).
    #[test]
    fn never_more_runs_than_load_sort_store(
        keys in prop::collection::vec(0u64..1_000_000, 1..2_000),
        memory in 4usize..200,
    ) {
        let (runs, _) = run_twrs(&keys, memory, 0);
        let lss_runs = keys.len().div_ceil(memory);
        // Allow one extra run for the records still in memory when the
        // input ends plus boundary effects of the buffers.
        prop_assert!(
            runs.len() <= lss_runs + 2,
            "2WRS produced {} runs, LSS bound is {}",
            runs.len(),
            lss_runs
        );
    }
}
