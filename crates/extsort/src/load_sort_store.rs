//! The Load-Sort-Store baseline (§2.1.1).
//!
//! The simplest run-generation strategy: fill the available memory with
//! records from the input, sort them with an internal sorting algorithm,
//! write the sorted block out as one run and repeat. Every run is exactly
//! the size of memory (except possibly the last), which is the lower bound
//! replacement selection always meets or beats.

use crate::error::{Result, SortError};
use crate::parallel::{shard_budget, ShardableGenerator};
use crate::run_generation::{Device, RunBuilder, RunGenerator, RunSet};
use twrs_storage::{SortableRecord, SpillNamer};

/// Load-Sort-Store run generation.
#[derive(Debug, Clone)]
pub struct LoadSortStore {
    memory_records: usize,
}

impl LoadSortStore {
    /// Creates the baseline with a memory budget of `memory_records`
    /// records.
    pub fn new(memory_records: usize) -> Self {
        LoadSortStore { memory_records }
    }
}

impl ShardableGenerator for LoadSortStore {
    fn shard(&self, index: usize, shards: usize) -> Self {
        LoadSortStore::new(shard_budget(self.memory_records, index, shards))
    }
}

impl crate::run_generation::BudgetedGenerator for LoadSortStore {
    fn with_budget(&self, memory_records: usize) -> Self {
        LoadSortStore::new(memory_records)
    }
}

impl RunGenerator for LoadSortStore {
    fn label(&self) -> &'static str {
        "LSS"
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
                "Load-Sort-Store needs a memory budget of at least one record".into(),
            ));
        }
        let mut runs = Vec::new();
        let mut total = 0u64;
        // The buffer grows with the records loaded: a budget beyond the
        // input reserves nothing.
        let mut buffer: Vec<R> = Vec::new();
        let mut builder = RunBuilder::forward(device, namer);
        loop {
            buffer.clear();
            buffer.extend(input.take(self.memory_records));
            if buffer.is_empty() {
                break;
            }
            buffer.sort_unstable();
            builder.push_sorted(&buffer)?;
            total += builder.finish_run(&mut runs)?;
            if buffer.len() < self.memory_records {
                break;
            }
        }
        Ok(RunSet {
            runs,
            records: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn generate(memory: usize, records: u64) -> (SimDevice, RunSet) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("lss");
        let mut generator = LoadSortStore::new(memory);
        let mut input = Distribution::new(DistributionKind::RandomUniform, records, 1).records();
        let set = generator.generate(&device, &namer, &mut input).unwrap();
        (device, set)
    }

    #[test]
    fn runs_are_memory_sized() {
        let (_device, set) = generate(100, 1_000);
        assert_eq!(set.num_runs(), 10);
        assert_eq!(set.records, 1_000);
        assert!((set.relative_run_length(100) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn last_run_may_be_partial() {
        let (_device, set) = generate(100, 950);
        assert_eq!(set.num_runs(), 10);
        assert_eq!(set.records, 950);
    }

    #[test]
    fn every_run_is_sorted_and_nothing_is_lost() {
        let (device, set) = generate(64, 500);
        let mut all: Vec<Record> = Vec::new();
        for handle in &set.runs {
            let mut reader = handle.open::<Record>(&device).unwrap();
            let run = reader.read_all().unwrap();
            assert!(run.windows(2).all(|w| w[0] <= w[1]));
            all.extend(run);
        }
        assert_eq!(all.len(), 500);
        let mut expected: Vec<Record> =
            Distribution::new(DistributionKind::RandomUniform, 500, 1).collect();
        expected.sort_unstable();
        all.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn empty_input_produces_no_runs() {
        let (_device, set) = generate(100, 0);
        assert_eq!(set.num_runs(), 0);
        assert_eq!(set.records, 0);
    }

    #[test]
    fn zero_memory_is_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("lss");
        let mut generator = LoadSortStore::new(0);
        let mut input = std::iter::empty::<Record>();
        assert!(matches!(
            generator.generate(&device, &namer, &mut input),
            Err(SortError::InvalidConfig(_))
        ));
    }
}
