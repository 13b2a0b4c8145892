//! External distribution (bucket) sort (§2.2).
//!
//! The alternative to the merge paradigm: records are partitioned into
//! buckets whose key ranges do not overlap, each bucket is sorted
//! independently (in memory when it fits, recursively otherwise) and the
//! sorted buckets are concatenated — no merge phase is needed. The paper
//! presents it as context for external sorting; it is implemented here so
//! the repository covers both paradigms and so tests can cross-check the
//! merge-based sorters against an independent implementation.

use crate::error::{Result, SortError};
use crate::run_generation::{Device, FallibleRecords};
use twrs_storage::{RunReader, RunWriter, SortableRecord, SpillNamer};

/// Configuration of the external distribution sort.
#[derive(Debug, Clone, Copy)]
pub struct DistributionSortConfig {
    /// Number of records that fit in memory (buckets at most this size are
    /// sorted with an in-memory sort).
    pub memory_records: usize,
    /// Number of buckets per partitioning pass.
    pub buckets: usize,
    /// Maximum recursion depth before falling back to an in-memory sort of
    /// whatever the bucket holds (protects against heavily skewed data where
    /// a single key exceeds the memory budget).
    pub max_depth: usize,
}

impl Default for DistributionSortConfig {
    fn default() -> Self {
        DistributionSortConfig {
            memory_records: 100_000,
            buckets: 16,
            max_depth: 8,
        }
    }
}

/// Report of an external distribution sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributionSortReport {
    /// Records sorted.
    pub records: u64,
    /// Number of partitioning passes performed (over all recursion levels).
    pub partition_passes: u32,
    /// Number of buckets that were sorted in memory.
    pub leaf_buckets: u32,
}

/// External distribution sort.
#[derive(Debug, Clone, Default)]
pub struct DistributionSort {
    config: DistributionSortConfig,
}

impl DistributionSort {
    /// Creates a distribution sort with the given configuration.
    pub fn new(config: DistributionSortConfig) -> Self {
        DistributionSort { config }
    }

    /// Creates a distribution sort with a memory budget and the default
    /// bucket count.
    pub fn with_memory(memory_records: usize) -> Self {
        DistributionSort {
            config: DistributionSortConfig {
                memory_records,
                ..DistributionSortConfig::default()
            },
        }
    }

    /// Sorts `input` into the forward run file `output` on `device`.
    ///
    /// Bucket key ranges are derived from
    /// [`SortableRecord::sort_key`]; records whose type keeps the default
    /// (constant) projection all land in one bucket whose degenerate key
    /// range falls straight back to an in-memory sort of everything — still
    /// correct, but unbounded memory and no partitioning benefit. Give such
    /// record types a real `sort_key` before distribution-sorting them.
    pub fn sort<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
        output: &str,
    ) -> Result<DistributionSortReport> {
        if self.config.memory_records == 0 {
            return Err(SortError::InvalidConfig(
                "distribution sort needs a memory budget of at least one record".into(),
            ));
        }
        if self.config.buckets < 2 {
            return Err(SortError::InvalidConfig(
                "distribution sort needs at least two buckets".into(),
            ));
        }
        let mut report = DistributionSortReport::default();
        let mut writer = RunWriter::<R>::create(device, output)?;

        // Buffer up to a memory's worth; if everything fits, sort directly.
        let mut head: Vec<R> = Vec::with_capacity(self.config.memory_records);
        head.extend(input.take(self.config.memory_records));
        if head.len() < self.config.memory_records {
            head.sort_unstable();
            report.records = head.len() as u64;
            report.leaf_buckets = 1;
            for r in &head {
                writer.push(r)?;
            }
            finish_output(device, writer, output)?;
            return Ok(report);
        }

        // Otherwise spill everything (the buffered head plus the rest of the
        // iterator) into first-level buckets. The key range of the buckets is
        // estimated from the buffered sample (the paper notes that choosing
        // bucket ranges is the distribution-sort analogue of choosing the
        // quicksort pivot); records falling outside the sampled range are
        // clamped into the edge buckets.
        let sample_lo = head.iter().map(SortableRecord::sort_key).min().unwrap_or(0);
        let sample_hi = head
            .iter()
            .map(SortableRecord::sort_key)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let spilled = match self.partition(
            device,
            namer,
            &mut head.drain(..).chain(input),
            sample_lo,
            sample_hi,
            &mut report,
        ) {
            Ok(spilled) => spilled,
            Err(error) => {
                drop(writer);
                let _ = device.remove(output);
                return Err(error);
            }
        };
        report.records = spilled.iter().map(|b| b.records).sum();

        // Sort each bucket in key order and append to the output. On a
        // failure, remove the buckets not yet consumed and the partial
        // output, so a failed sort leaks no files.
        let mut buckets = spilled.into_iter();
        while let Some(bucket) = buckets.next() {
            if let Err(error) = self.sort_bucket(device, namer, bucket, &mut writer, 1, &mut report)
            {
                for leftover in buckets {
                    let _ = device.remove(&leftover.name);
                }
                drop(writer);
                let _ = device.remove(output);
                return Err(error);
            }
        }
        finish_output(device, writer, output)?;
        Ok(report)
    }

    /// Splits a record stream into `buckets` files by uniform key ranges
    /// within `[lo, hi]`. On `Err`, every bucket file this pass created is
    /// removed (best effort).
    fn partition<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
        lo: u64,
        hi: u64,
        report: &mut DistributionSortReport,
    ) -> Result<Vec<Bucket>> {
        let mut created: Vec<String> = Vec::new();
        let result = self.partition_inner(device, namer, input, lo, hi, report, &mut created);
        if result.is_err() {
            for name in created {
                let _ = device.remove(&name);
            }
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn partition_inner<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
        lo: u64,
        hi: u64,
        report: &mut DistributionSortReport,
        created: &mut Vec<String>,
    ) -> Result<Vec<Bucket>> {
        report.partition_passes += 1;
        let buckets = self.config.buckets as u64;
        let width = ((hi - lo) / buckets).max(1);
        let mut writers: Vec<(String, RunWriter<R>)> = Vec::with_capacity(buckets as usize);
        for _ in 0..buckets {
            let name = namer.next_name("bucket");
            let writer = RunWriter::<R>::create(device, &name)?;
            created.push(name.clone());
            writers.push((name, writer));
        }
        for record in input {
            let idx = (((record.sort_key().saturating_sub(lo)) / width).min(buckets - 1)) as usize;
            writers[idx].1.push(&record)?;
        }
        let mut out = Vec::with_capacity(buckets as usize);
        for (i, (name, writer)) in writers.into_iter().enumerate() {
            let records = writer.finish()?;
            let b_lo = lo + i as u64 * width;
            let b_hi = if i as u64 == buckets - 1 {
                hi
            } else {
                lo + (i as u64 + 1) * width
            };
            out.push(Bucket {
                name,
                records,
                lo: b_lo,
                hi: b_hi,
            });
        }
        Ok(out)
    }

    /// Sorts one bucket, recursing when it does not fit in memory.
    ///
    /// On `Err`, this bucket's file and every descendant file it created
    /// are removed (best effort), so a failed sort leaks no spill files at
    /// any recursion depth.
    fn sort_bucket<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        bucket: Bucket,
        writer: &mut RunWriter<R>,
        depth: usize,
        report: &mut DistributionSortReport,
    ) -> Result<()> {
        let name = bucket.name.clone();
        let result = self.sort_bucket_inner(device, namer, bucket, writer, depth, report);
        if result.is_err() && device.exists(&name) {
            let _ = device.remove(&name);
        }
        result
    }

    fn sort_bucket_inner<D: Device, R: SortableRecord>(
        &self,
        device: &D,
        namer: &SpillNamer,
        bucket: Bucket,
        writer: &mut RunWriter<R>,
        depth: usize,
        report: &mut DistributionSortReport,
    ) -> Result<()> {
        if bucket.records == 0 {
            device.remove(&bucket.name)?;
            return Ok(());
        }
        if bucket.records as usize <= self.config.memory_records
            || depth >= self.config.max_depth
            || bucket.hi <= bucket.lo + 1
        {
            let mut reader = RunReader::<R>::open(device, &bucket.name)?;
            let mut records = reader.read_all()?;
            records.sort_unstable();
            for r in &records {
                writer.push(r)?;
            }
            report.leaf_buckets += 1;
            device.remove(&bucket.name)?;
            return Ok(());
        }
        // Recursive partitioning of an oversized bucket.
        let reader = RunReader::<R>::open(device, &bucket.name)?;
        let mut failed = None;
        let mut iter = FallibleRecords {
            reader,
            error: &mut failed,
        };
        let children = self.partition(device, namer, &mut iter, bucket.lo, bucket.hi, report)?;
        if let Some(error) = failed {
            // The bucket could not be read back: remove the child files the
            // partitioning pass already created (the wrapper removes the
            // bucket itself).
            for child in &children {
                let _ = device.remove(&child.name);
            }
            return Err(error.into());
        }
        device.remove(&bucket.name)?;
        let mut children = children.into_iter();
        while let Some(child) = children.next() {
            if let Err(error) = self.sort_bucket(device, namer, child, writer, depth + 1, report) {
                // The failing child cleaned up after itself; remove its
                // not-yet-consumed siblings.
                for leftover in children {
                    let _ = device.remove(&leftover.name);
                }
                return Err(error);
            }
        }
        Ok(())
    }
}

/// Finishes the output run, removing the partial file when the final
/// header/flush write fails so an errored sort leaves nothing behind.
fn finish_output<D: Device, R: SortableRecord>(
    device: &D,
    writer: RunWriter<R>,
    output: &str,
) -> Result<()> {
    if let Err(error) = writer.finish() {
        let _ = device.remove(output);
        return Err(error.into());
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct Bucket {
    name: String,
    records: u64,
    lo: u64,
    hi: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_generation::{RunCursor, RunHandle};
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn sort_with(
        config: DistributionSortConfig,
        input: Vec<Record>,
    ) -> (Vec<Record>, DistributionSortReport) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("ds");
        let sorter = DistributionSort::new(config);
        let mut iter = input.into_iter();
        let report = sorter.sort(&device, &namer, &mut iter, "out").unwrap();
        let mut cursor =
            RunCursor::<Record>::open(&device, &RunHandle::Forward("out".into())).unwrap();
        (cursor.read_all().unwrap(), report)
    }

    #[test]
    fn small_input_sorted_in_memory() {
        let input = Distribution::new(DistributionKind::RandomUniform, 500, 1).collect();
        let mut expected = input.clone();
        expected.sort_unstable();
        let (output, report) = sort_with(
            DistributionSortConfig {
                memory_records: 1_000,
                buckets: 8,
                max_depth: 4,
            },
            input,
        );
        assert_eq!(output, expected);
        assert_eq!(report.partition_passes, 0);
        assert_eq!(report.leaf_buckets, 1);
    }

    #[test]
    fn large_input_is_partitioned_and_sorted() {
        let input = Distribution::new(DistributionKind::RandomUniform, 20_000, 2).collect();
        let mut expected = input.clone();
        expected.sort_unstable();
        let (output, report) = sort_with(
            DistributionSortConfig {
                memory_records: 1_000,
                buckets: 8,
                max_depth: 6,
            },
            input,
        );
        assert_eq!(output, expected);
        assert!(report.partition_passes >= 1);
        assert!(report.leaf_buckets >= 8);
        assert_eq!(report.records, 20_000);
    }

    #[test]
    fn skewed_input_recurses() {
        // All keys clustered into a narrow band forces recursion.
        let input: Vec<Record> = (0..5_000u64)
            .map(|i| Record::new(1_000 + i % 50, i))
            .collect();
        let mut expected = input.clone();
        expected.sort_unstable();
        let (output, report) = sort_with(
            DistributionSortConfig {
                memory_records: 500,
                buckets: 4,
                max_depth: 8,
            },
            input,
        );
        assert_eq!(output, expected);
        assert!(
            report.partition_passes > 1,
            "expected recursive partitioning"
        );
    }

    #[test]
    fn empty_input() {
        let (output, report) = sort_with(DistributionSortConfig::default(), Vec::new());
        assert!(output.is_empty());
        assert_eq!(report.records, 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("ds");
        let mut empty = std::iter::empty::<Record>();
        let no_memory = DistributionSort::new(DistributionSortConfig {
            memory_records: 0,
            buckets: 4,
            max_depth: 2,
        });
        assert!(matches!(
            no_memory.sort(&device, &namer, &mut empty, "o"),
            Err(SortError::InvalidConfig(_))
        ));
        let one_bucket = DistributionSort::new(DistributionSortConfig {
            memory_records: 10,
            buckets: 1,
            max_depth: 2,
        });
        let mut empty = std::iter::empty::<Record>();
        assert!(matches!(
            one_bucket.sort(&device, &namer, &mut empty, "o"),
            Err(SortError::InvalidConfig(_))
        ));
    }

    #[test]
    fn agrees_with_merge_based_sorter() {
        use crate::replacement_selection::ReplacementSelection;
        use crate::sort_job::SortJob;

        let input = Distribution::new(DistributionKind::MixedBalanced, 8_000, 11).collect();

        let (ds_output, _) = sort_with(
            DistributionSortConfig {
                memory_records: 400,
                buckets: 8,
                max_depth: 6,
            },
            input.clone(),
        );

        let device = SimDevice::with_model(ModelId::Hdd7200);
        SortJob::new(ReplacementSelection::new(400))
            .on(&device)
            .run_iter(input.into_iter(), "merge_out")
            .unwrap();
        let mut cursor =
            RunCursor::<Record>::open(&device, &RunHandle::Forward("merge_out".into())).unwrap();
        let merge_output = cursor.read_all().unwrap();

        assert_eq!(ds_output, merge_output);
    }
}
