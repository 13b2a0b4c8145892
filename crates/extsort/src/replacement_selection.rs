//! Classic replacement selection (Chapter 3, Algorithm 1).
//!
//! Replacement selection keeps a min-heap of `memory_records` records. At
//! each step the smallest current-run record leaves the heap and is appended
//! to the run on disk; a fresh record is read from the input and, if it is
//! smaller than the record just written, it cannot belong to the current run
//! and is marked for the *next* run (it still enters the heap, but ordered
//! after every current-run record). When the heap's top record belongs to
//! the next run, every record in memory does, so the current run is closed
//! and a new one starts.
//!
//! On uniformly random input the expected run length is twice the memory
//! (the snowplow argument of §3.5); on sorted input a single run is
//! produced; on reverse-sorted input every run has exactly the memory size —
//! the weakness 2WRS addresses.

use crate::error::{Result, SortError};
use crate::parallel::{shard_budget, ShardableGenerator};
use crate::run_generation::{Device, ForwardRunBuilder, RunGenerator, RunSet};
use twrs_heaps::{BinaryHeap, HeapKind, RunRecord};
use twrs_storage::{SortableRecord, SpillNamer};

/// Classic replacement selection run generation.
#[derive(Debug, Clone)]
pub struct ReplacementSelection {
    memory_records: usize,
}

impl ReplacementSelection {
    /// Creates the algorithm with a heap of `memory_records` records.
    pub fn new(memory_records: usize) -> Self {
        ReplacementSelection { memory_records }
    }
}

impl ShardableGenerator for ReplacementSelection {
    fn shard(&self, index: usize, shards: usize) -> Self {
        ReplacementSelection::new(shard_budget(self.memory_records, index, shards))
    }
}

impl crate::run_generation::BudgetedGenerator for ReplacementSelection {
    fn with_budget(&self, memory_records: usize) -> Self {
        ReplacementSelection::new(memory_records)
    }
}

impl RunGenerator for ReplacementSelection {
    fn label(&self) -> &'static str {
        "RS"
    }

    fn memory_records(&self) -> usize {
        self.memory_records
    }

    fn generate<D: Device, R: SortableRecord>(
        &mut self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
    ) -> Result<RunSet> {
        if self.memory_records == 0 {
            return Err(SortError::InvalidConfig(
                "replacement selection needs a heap of at least one record".into(),
            ));
        }
        let mut heap: BinaryHeap<RunRecord<R>> =
            BinaryHeap::with_capacity(HeapKind::Min, self.memory_records);

        // Phase 1: fill the heap (heap.fill in Algorithm 1). No record needs
        // a next-run mark because nothing has been output yet.
        while heap.len() < self.memory_records {
            match input.next() {
                Some(record) => heap
                    .push(RunRecord::new(record, 0))
                    // twrs-lint: allow(no-lib-panic) the fill loop stops at `memory_records` capacity
                    .expect("heap cannot be full during the fill phase"),
                None => break,
            }
        }

        let mut runs = Vec::new();
        let mut total = 0u64;
        let mut current_run = 0u64;
        let mut builder = ForwardRunBuilder::new(device, namer);

        while let Some(top) = heap.peek() {
            // Did the top record open the next run?
            if top.run > current_run {
                total += builder.finish_run(&mut runs)?;
                builder = ForwardRunBuilder::new(device, namer);
                current_run = top.run;
            }
            builder.push(&top.value)?;

            // Read the next input record and let it take the top's place in
            // one sift, marking it for the next run when it can no longer
            // join the current one. Only an exhausted input shrinks the heap.
            match input.next() {
                Some(next) => {
                    let run = if next < top.value {
                        current_run + 1
                    } else {
                        current_run
                    };
                    heap.replace_top(RunRecord::new(next, run));
                }
                None => {
                    heap.pop();
                }
            }
        }
        total += builder.finish_run(&mut runs)?;

        Ok(RunSet {
            runs,
            records: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_generation::RunCursor;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn run_rs(memory: usize, input: Vec<Record>) -> (SimDevice, RunSet) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("rs");
        let mut generator = ReplacementSelection::new(memory);
        let mut iter = input.into_iter();
        let set = generator.generate(&device, &namer, &mut iter).unwrap();
        (device, set)
    }

    fn check_runs_sorted_and_complete(device: &SimDevice, set: &RunSet, mut expected: Vec<Record>) {
        let mut all: Vec<Record> = Vec::new();
        for handle in &set.runs {
            let mut cursor = RunCursor::<Record>::open(device, handle).unwrap();
            let run = cursor.read_all().unwrap();
            assert!(
                run.windows(2).all(|w| w[0] <= w[1]),
                "run {handle:?} is not sorted"
            );
            all.extend(run);
        }
        assert_eq!(all.len(), expected.len());
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn sorted_input_yields_one_run() {
        // Theorem 1.
        let input = Distribution::exact(DistributionKind::Sorted, 5_000).collect();
        let (device, set) = run_rs(100, input.clone());
        assert_eq!(set.num_runs(), 1);
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn reverse_sorted_input_yields_memory_sized_runs() {
        // Theorem 3: runs of exactly the memory size.
        let input = Distribution::exact(DistributionKind::ReverseSorted, 5_000).collect();
        let (device, set) = run_rs(100, input.clone());
        assert_eq!(set.num_runs(), 50);
        assert!((set.relative_run_length(100) - 1.0).abs() < 1e-9);
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn random_input_yields_runs_about_twice_memory() {
        // §3.5: expected run length ≈ 2 × memory for random input.
        let input = Distribution::new(DistributionKind::RandomUniform, 40_000, 7).collect();
        let (device, set) = run_rs(500, input.clone());
        let relative = set.relative_run_length(500);
        assert!(
            (1.6..2.5).contains(&relative),
            "relative run length {relative}"
        );
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn alternating_input_yields_about_twice_memory() {
        // Theorem 5: average run length ≈ 2 × memory when sections are much
        // longer than memory.
        let input =
            Distribution::exact(DistributionKind::Alternating { sections: 10 }, 40_000).collect();
        let (device, set) = run_rs(400, input.clone());
        let relative = set.relative_run_length(400);
        assert!(
            (1.5..2.6).contains(&relative),
            "relative run length {relative}"
        );
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn input_smaller_than_memory_is_a_single_run() {
        let input = Distribution::new(DistributionKind::RandomUniform, 50, 3).collect();
        let (device, set) = run_rs(1_000, input.clone());
        assert_eq!(set.num_runs(), 1);
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn empty_input_produces_no_runs() {
        let (_device, set) = run_rs(100, Vec::new());
        assert_eq!(set.num_runs(), 0);
        assert_eq!(set.records, 0);
    }

    #[test]
    fn memory_of_one_record_still_sorts() {
        let input = Distribution::new(DistributionKind::RandomUniform, 200, 5).collect();
        let (device, set) = run_rs(1, input.clone());
        check_runs_sorted_and_complete(&device, &set, input);
    }

    #[test]
    fn zero_memory_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("rs");
        let mut generator = ReplacementSelection::new(0);
        let mut input = std::iter::empty::<Record>();
        assert!(matches!(
            generator.generate(&device, &namer, &mut input),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn duplicate_keys_are_handled() {
        let input: Vec<Record> = (0..1_000u64).map(|i| Record::new(i % 10, i)).collect();
        let (device, set) = run_rs(50, input.clone());
        check_runs_sorted_and_complete(&device, &set, input);
    }
}
