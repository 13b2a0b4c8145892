//! Polyphase merge (§2.1.2, Table 2.1).
//!
//! Polyphase merge was designed for the tape era: with `k + 1` tapes, runs
//! are distributed unevenly over `k` of them and each step performs k-way
//! merges onto the single empty tape until one input tape runs dry; that
//! tape becomes the next output. The algorithm keeps every tape busy and
//! avoids the redistribution passes a naive tape merge would need.
//!
//! Two entry points are provided: [`polyphase_schedule`] computes only the
//! per-step run counts (which is exactly what Table 2.1 of the paper shows),
//! and [`polyphase_merge`] actually merges record runs stored on a device
//! using the same schedule.

use crate::error::{Result, SortError};
use crate::merge::kway::{KWayMerger, MergeConfig};
use crate::run_generation::{Device, RunHandle};
use std::collections::VecDeque;
use twrs_storage::{RunWriter, SortableRecord, SpillNamer};

/// Computes the evolution of the number of runs on each tape during a
/// polyphase merge, starting from `initial` (one entry per tape, at least
/// one of them zero).
///
/// The returned vector contains the tape contents **after** each step,
/// starting with the initial state — the rows of Table 2.1.
pub fn polyphase_schedule(initial: &[u64]) -> Vec<Vec<u64>> {
    let mut tapes: Vec<u64> = initial.to_vec();
    let mut steps = vec![tapes.clone()];
    if tapes.iter().filter(|t| **t > 0).count() < 2 {
        return steps;
    }
    // The output tape is an empty one; if none is empty the caller's
    // distribution is invalid for polyphase, fall back to using the smallest
    // tape after emptying it into the others is not meaningful, so just pick
    // an empty tape or stop.
    loop {
        let non_empty = tapes.iter().filter(|t| **t > 0).count();
        let total: u64 = tapes.iter().sum();
        if total <= 1 || non_empty <= 1 {
            break;
        }
        let output = match tapes.iter().position(|t| *t == 0) {
            Some(idx) => idx,
            None => break,
        };
        // Merge until the input tape with the fewest runs becomes empty.
        let merges = tapes
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != output && **t > 0)
            .map(|(_, t)| *t)
            .min()
            .unwrap_or(0);
        if merges == 0 {
            break;
        }
        for (i, tape) in tapes.iter_mut().enumerate() {
            if i == output {
                *tape += merges;
            } else if *tape > 0 {
                *tape -= merges;
            }
        }
        steps.push(tapes.clone());
    }
    steps
}

/// Merges `runs` into the forward run `output` using a polyphase merge over
/// `num_tapes` tapes (`num_tapes - 1`-way merges).
///
/// The initial runs are distributed round-robin over `num_tapes - 1` tapes;
/// the remaining tape starts empty and receives the first merge output. The
/// function returns the number of merge steps (individual k-way merges)
/// performed.
pub fn polyphase_merge<D: Device, R: SortableRecord>(
    device: &D,
    namer: &SpillNamer,
    runs: Vec<RunHandle>,
    num_tapes: usize,
    output: &str,
) -> Result<u32> {
    if num_tapes < 3 {
        return Err(SortError::InvalidConfig(
            "polyphase merge needs at least 3 tapes".into(),
        ));
    }
    // An inner merger used to combine one run from each input tape; the
    // fan-in is always large enough for a single step.
    let merger = KWayMerger::new(MergeConfig {
        fan_in: num_tapes.max(2),
        read_ahead_records: 256,
    });

    let mut tapes: Vec<VecDeque<RunHandle>> = vec![VecDeque::new(); num_tapes];
    for (i, run) in runs.into_iter().enumerate() {
        tapes[i % (num_tapes - 1)].push_back(run);
    }
    let mut merge_steps = 0u32;

    loop {
        let total_runs: usize = tapes.iter().map(VecDeque::len).sum();
        if total_runs == 0 {
            // No input at all: create an empty output run.
            RunWriter::<R>::create(device, output)?.finish()?;
            return Ok(merge_steps);
        }
        if total_runs == 1 {
            // Copy the surviving run to the output name.
            let last: Vec<RunHandle> = tapes.iter_mut().filter_map(|t| t.pop_front()).collect();
            merger.merge_into::<D, R>(device, namer, last, output)?;
            return Ok(merge_steps + 1);
        }
        // If a merge round emptied every tape except the previous output
        // tape, redistribute its runs so the next round has at least two
        // input tapes (classic polyphase avoids this with a Fibonacci
        // distribution and dummy runs; redistribution is the simple general
        // fallback).
        let non_empty: Vec<usize> = (0..num_tapes).filter(|i| !tapes[*i].is_empty()).collect();
        if let [loaded] = non_empty[..] {
            let runs: Vec<RunHandle> = tapes[loaded].drain(..).collect();
            let targets: Vec<usize> = (0..num_tapes)
                .filter(|i| *i != loaded)
                .take(num_tapes - 1)
                .collect();
            for (i, run) in runs.into_iter().enumerate() {
                tapes[targets[i % targets.len()]].push_back(run);
            }
        }
        let output_tape = match tapes.iter().position(VecDeque::is_empty) {
            Some(idx) => idx,
            None => {
                return Err(SortError::InvalidConfig(
                    "polyphase merge requires one empty tape".into(),
                ));
            }
        };
        // Perform merges until some input tape becomes empty.
        loop {
            let input_indices: Vec<usize> = (0..num_tapes)
                .filter(|i| *i != output_tape && !tapes[*i].is_empty())
                .collect();
            if input_indices.len() < 2 {
                // Fewer than two inputs: nothing more to do in this step.
                break;
            }
            let batch: Vec<RunHandle> = input_indices
                .iter()
                .filter_map(|i| tapes[*i].pop_front())
                .collect();
            let name = namer.next_name("tape");
            let records = merger
                .merge_into::<D, R>(device, namer, batch, &name)?
                .output_records;
            merge_steps += 1;
            tapes[output_tape].push_back(RunHandle::Forward { name, records });
            if input_indices.iter().any(|i| tapes[*i].is_empty()) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::run_generation::RunGenerator;
    use twrs_storage::{ModelId, RunReader, SimDevice};
    use twrs_workloads::{Distribution, DistributionKind, Record};

    /// Reads a polyphase output for verification.
    fn read_output<D: Device, R: SortableRecord>(device: &D, output: &str) -> Result<Vec<R>> {
        Ok(RunReader::<R>::open(device, output)?.read_all()?)
    }

    #[test]
    fn schedule_matches_paper_table_2_1() {
        let steps = polyphase_schedule(&[8, 10, 3, 0, 8, 11]);
        // Every row of Table 2.1.
        let expected: Vec<Vec<u64>> = vec![
            vec![8, 10, 3, 0, 8, 11],
            vec![5, 7, 0, 3, 5, 8],
            vec![2, 4, 3, 0, 2, 5],
            vec![0, 2, 1, 2, 0, 3],
            vec![1, 1, 0, 1, 0, 2],
            vec![0, 0, 1, 0, 0, 1],
            vec![1, 0, 0, 0, 0, 0],
        ];
        assert_eq!(steps, expected);
        let last = steps.last().unwrap();
        assert_eq!(last.iter().sum::<u64>(), 1);
        assert_eq!(last.iter().filter(|t| **t > 0).count(), 1);
    }

    #[test]
    fn schedule_with_single_tape_is_trivial() {
        let steps = polyphase_schedule(&[1, 0, 0]);
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn merge_produces_sorted_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("pp");
        let mut generator = LoadSortStore::new(100);
        let mut input = Distribution::new(DistributionKind::RandomUniform, 2_500, 21).records();
        let set = generator.generate(&device, &namer, &mut input).unwrap();
        assert_eq!(set.num_runs(), 25);

        let steps = polyphase_merge::<_, Record>(&device, &namer, set.runs, 4, "sorted").unwrap();
        assert!(steps > 1);
        let output = read_output::<_, Record>(&device, "sorted").unwrap();
        assert_eq!(output.len(), 2_500);
        assert!(output.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_single_run_copies_it() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("pp");
        let mut generator = LoadSortStore::new(1_000);
        let mut input = Distribution::new(DistributionKind::RandomUniform, 300, 2).records();
        let set = generator.generate(&device, &namer, &mut input).unwrap();
        polyphase_merge::<_, Record>(&device, &namer, set.runs, 4, "sorted").unwrap();
        let output = read_output::<_, Record>(&device, "sorted").unwrap();
        assert_eq!(output.len(), 300);
    }

    #[test]
    fn merge_empty_input() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("pp");
        polyphase_merge::<_, Record>(&device, &namer, Vec::new(), 4, "sorted").unwrap();
        let output = read_output::<_, Record>(&device, "sorted").unwrap();
        assert!(output.is_empty());
    }

    #[test]
    fn too_few_tapes_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("pp");
        assert!(matches!(
            polyphase_merge::<_, Record>(&device, &namer, Vec::new(), 2, "out"),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn merge_preserves_multiset() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("pp");
        let input: Vec<Record> =
            Distribution::new(DistributionKind::MixedBalanced, 1_200, 5).collect();
        let mut generator = LoadSortStore::new(64);
        let mut iter = input.clone().into_iter();
        let set = generator.generate(&device, &namer, &mut iter).unwrap();
        polyphase_merge::<_, Record>(&device, &namer, set.runs, 5, "sorted").unwrap();
        let mut output = read_output::<_, Record>(&device, "sorted").unwrap();
        let mut expected = input;
        output.sort_unstable();
        expected.sort_unstable();
        assert_eq!(output, expected);
    }

    #[test]
    fn both_merge_strategies_run() {
        use twrs_storage::StorageDevice;
        // Polyphase (6 tapes) and multi-pass k-way (fan-in 10) merging of
        // the same 12 runs both complete, and both pay seeks on a disk.
        let merge = |polyphase: bool| {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("cmp");
            let mut input =
                Distribution::new(DistributionKind::RandomUniform, 12 * 512, 3).records();
            let runs = LoadSortStore::new(512)
                .generate(&device, &namer, &mut input)
                .unwrap()
                .runs;
            device.reset_stats();
            if polyphase {
                polyphase_merge::<_, Record>(&device, &namer, runs, 6, "out").unwrap();
            } else {
                crate::KWayMerger::new(crate::MergeConfig {
                    fan_in: 10,
                    read_ahead_records: 256,
                })
                .merge_into::<_, Record>(&device, &namer, runs, "out")
                .unwrap();
            }
            assert_eq!(
                read_output::<_, Record>(&device, "out").unwrap().len(),
                12 * 512
            );
            device.stats().counters.seeks
        };
        assert!(merge(false) > 0);
        assert!(merge(true) > 0);
    }
}
