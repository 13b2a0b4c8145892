//! The run-generation interface shared by every algorithm.
//!
//! A run-generation algorithm consumes the input stream and produces a set
//! of sorted runs on a storage device (§2.1.1). Classic replacement
//! selection and Load-Sort-Store write plain forward runs; two-way
//! replacement selection additionally writes *reverse* runs in the
//! Appendix A format (streams whose records were produced in decreasing
//! order). [`RunHandle`] names either kind and [`RunCursor`] reads both back
//! in ascending order so the merge phase does not care which algorithm
//! produced a run. Inside a sort job, every algorithm reads its input
//! through one record source that refills a batch at a time from a
//! caller's iterator, a dataset file or a shard's dealt messages.

use crate::cancel::CancellationToken;
use crate::error::Result;
use crate::parallel::BatchReceiver;
use twrs_storage::{
    ReverseRunReader, ReverseRunWriter, RunReader, RunWriter, SortableRecord, SpillNamer,
    StorageDevice, StorageError,
};

/// Device bound required by run generation: the reverse-file writer needs to
/// create part files on demand, so the device must be cloneable and owned.
pub trait Device: StorageDevice + Clone + Send + 'static {}

impl<D> Device for D where D: StorageDevice + Clone + Send + 'static {}

/// A named run stored on a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunHandle {
    /// A forward run file written by [`RunWriter`]; records are stored in
    /// ascending order.
    Forward(String),
    /// A reverse run (Appendix A format) written by [`ReverseRunWriter`];
    /// records were produced in descending order but read back ascending.
    Reverse(String),
    /// A logical run made of several physical runs whose key ranges do not
    /// overlap and that follow each other in ascending order. 2WRS produces
    /// one `Chain` per run, holding its streams 4, 3, 2 and 1 in that order
    /// (§4.1: "the final output run is generated concatenating the contents
    /// of the four streams").
    Chain(Vec<RunHandle>),
}

impl RunHandle {
    /// The base file name of the run; for a [`RunHandle::Chain`] the name of
    /// its first component (or an empty string for an empty chain).
    pub fn name(&self) -> &str {
        match self {
            RunHandle::Forward(name) | RunHandle::Reverse(name) => name,
            RunHandle::Chain(parts) => parts.first().map(RunHandle::name).unwrap_or(""),
        }
    }

    /// Every physical file handle reachable from this handle, depth first.
    pub fn physical(&self) -> Vec<&RunHandle> {
        match self {
            RunHandle::Forward(_) | RunHandle::Reverse(_) => vec![self],
            RunHandle::Chain(parts) => parts.iter().flat_map(RunHandle::physical).collect(),
        }
    }
}

/// The outcome of a run-generation phase.
#[derive(Debug, Clone, Default)]
pub struct RunSet {
    /// The generated runs, in generation order.
    pub runs: Vec<RunHandle>,
    /// Total number of records distributed over the runs.
    pub records: u64,
}

impl RunSet {
    /// Number of runs generated.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Average run length in records (0 when no run was generated).
    pub fn average_run_length(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.records as f64 / self.runs.len() as f64
        }
    }

    /// Average run length relative to a memory budget of `memory_records`
    /// records — the metric of Table 5.13 ("run length / available
    /// memory").
    pub fn relative_run_length(&self, memory_records: usize) -> f64 {
        if memory_records == 0 {
            0.0
        } else {
            self.average_run_length() / memory_records as f64
        }
    }
}

/// A run-generation algorithm.
///
/// Implementations read the whole `input` iterator and write sorted runs to
/// `device`, naming them through `namer` so the caller can clean them up.
///
/// [`generate`](RunGenerator::generate) is generic over the record type, so
/// one generator value serves every [`SortableRecord`] — the concrete record
/// is chosen at the call site (usually inferred from the input iterator).
/// The memory budget is expressed in *records*, whatever their size.
pub trait RunGenerator {
    /// Short human-readable name used in reports ("RS", "2WRS", "LSS", …).
    fn label(&self) -> &'static str;

    /// Memory budget of the algorithm, in records. Reported so run lengths
    /// can be normalised.
    fn memory_records(&self) -> usize;

    /// Consumes `input` and produces a [`RunSet`] on `device`.
    fn generate<D: Device, R: SortableRecord>(
        &mut self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
    ) -> Result<RunSet>;
}

/// A run generator whose memory budget can be re-leased after construction.
///
/// The [`SortService`](crate::service::SortService) admission controller
/// shrinks or grows the budget a job asked for so that the sum of all
/// in-flight budgets never exceeds the service's global budget; this trait
/// is the hook it uses. Re-budgeting must preserve every other knob of the
/// generator (heuristics, buffer setup, seeds, …) — only the memory changes.
pub trait BudgetedGenerator: RunGenerator {
    /// Returns a copy of this generator with its memory budget replaced by
    /// `memory_records` (everything else unchanged).
    fn with_budget(&self, memory_records: usize) -> Self;
}

/// A unified ascending-order reader over either kind of run.
pub enum RunCursor<R: SortableRecord> {
    /// Cursor over a forward run file.
    Forward(RunReader<R>),
    /// Cursor over a reverse (Appendix A) run.
    Reverse(ReverseRunReader<R>),
    /// Cursor over a chain of runs read one after another.
    Chain {
        /// The component cursors, in ascending key-range order.
        parts: Vec<RunCursor<R>>,
        /// Index of the component currently being read.
        current: usize,
    },
}

impl<R: SortableRecord> RunCursor<R> {
    /// Opens the run named by `handle` on `device`.
    pub fn open(device: &dyn StorageDevice, handle: &RunHandle) -> Result<Self> {
        Ok(match handle {
            RunHandle::Forward(name) => RunCursor::Forward(RunReader::open(device, name)?),
            RunHandle::Reverse(name) => RunCursor::Reverse(ReverseRunReader::open(device, name)?),
            RunHandle::Chain(parts) => RunCursor::Chain {
                parts: parts
                    .iter()
                    .map(|p| RunCursor::open(device, p))
                    .collect::<Result<_>>()?,
                current: 0,
            },
        })
    }

    /// Total number of records in the run.
    pub fn len(&self) -> u64 {
        match self {
            RunCursor::Forward(r) => r.len(),
            RunCursor::Reverse(r) => r.len(),
            RunCursor::Chain { parts, .. } => parts.iter().map(RunCursor::len).sum(),
        }
    }

    /// `true` when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the next record in ascending order, or `None` at the end.
    pub fn next_record(&mut self) -> Result<Option<R>> {
        match self {
            RunCursor::Forward(r) => Ok(r.next_record()?),
            RunCursor::Reverse(r) => Ok(r.next_record()?),
            RunCursor::Chain { parts, current } => loop {
                match parts.get_mut(*current) {
                    Some(part) => match part.next_record()? {
                        Some(record) => return Ok(Some(record)),
                        None => *current += 1,
                    },
                    None => return Ok(None),
                }
            },
        }
    }

    /// Appends up to `max` records (ascending) to `out` and returns how
    /// many it appended; fewer than `max` only at the end of the run.
    ///
    /// Reads exactly the pages `max` calls to
    /// [`next_record`](RunCursor::next_record) would, at the same moments.
    /// A chain moves to its next part only once the current part came back
    /// short, so a batch that fills up inside a part never touches the next
    /// part's first page.
    pub fn read_batch(&mut self, out: &mut Vec<R>, max: usize) -> Result<usize> {
        match self {
            RunCursor::Forward(r) => Ok(r.read_batch(out, max)?),
            RunCursor::Reverse(r) => Ok(r.read_batch(out, max)?),
            RunCursor::Chain { parts, current } => {
                let mut read = 0;
                while let Some(part) = parts.get_mut(*current) {
                    read += part.read_batch(out, max - read)?;
                    if read == max {
                        break;
                    }
                    *current += 1;
                }
                Ok(read)
            }
        }
    }

    /// Reads the whole remaining run into a vector (mainly for tests).
    pub fn read_all(&mut self) -> Result<Vec<R>> {
        let mut out = Vec::new();
        self.read_batch(&mut out, usize::MAX)?;
        Ok(out)
    }
}

/// Records a [`RecordSource`] takes from a caller's iterator per refill;
/// also the parcel the threaded dealer hands one shard
/// ([`parallel`](crate::parallel)).
pub(crate) const INPUT_BATCH_RECORDS: usize = 256;

/// Where a [`RecordSource`] refills from.
pub(crate) enum Feed<'a, R: SortableRecord> {
    /// A caller's iterator, [`INPUT_BATCH_RECORDS`] records at a time.
    Iter(&'a mut dyn Iterator<Item = R>),
    /// A dataset file, one page at a time, so each page is read when its
    /// first record is wanted.
    File {
        reader: RunReader<R>,
        page_records: usize,
    },
    /// One shard's messages from the threaded dealer.
    Dealt(BatchReceiver<Vec<R>>),
}

impl<R: SortableRecord> Feed<'_, R> {
    /// Opens the dataset `name` on `device`; a corrupt header fails here,
    /// before the sort starts.
    pub(crate) fn dataset(device: &dyn StorageDevice, name: &str) -> Result<Self> {
        Ok(Feed::File {
            reader: RunReader::open(device, name)?,
            page_records: device.page_size() / R::SIZE,
        })
    }
}

/// The input of run generation: every record a generator or the threaded
/// dealer reads comes through one of these, one batch per refill.
///
/// Each refill first polls the job's [`CancellationToken`]. A canceled
/// job or a read error ends the records early, which a generator cannot
/// tell from the end of its input, so the generate stage fails afterwards
/// with [`check`](RecordSource::check) and the token's own check.
pub(crate) struct RecordSource<'a, R: SortableRecord> {
    /// The unread records of the current batch, in descending order, so
    /// the next one is popped off the end.
    batch: Vec<R>,
    feed: Feed<'a, R>,
    cancel: CancellationToken,
    error: Option<StorageError>,
}

impl<'a, R: SortableRecord> RecordSource<'a, R> {
    pub(crate) fn new(feed: Feed<'a, R>, cancel: CancellationToken) -> Self {
        RecordSource {
            batch: Vec::new(),
            feed,
            cancel,
            error: None,
        }
    }

    /// Fills the empty batch from the feed, unless the job is canceled or
    /// a read error stopped the source.
    #[inline(never)]
    fn refill(&mut self) {
        if self.error.is_some() || self.cancel.is_canceled() {
            return;
        }
        match &mut self.feed {
            Feed::Iter(input) => self.batch.extend(input.take(INPUT_BATCH_RECORDS)),
            Feed::File {
                reader,
                page_records,
            } => {
                if let Err(error) = reader.read_batch(&mut self.batch, *page_records) {
                    self.error = Some(error);
                }
            }
            Feed::Dealt(messages) => {
                // `next_into` hands the message over reversed already.
                messages.next_into(&mut self.batch);
                return;
            }
        }
        self.batch.reverse();
    }

    /// Fails with the read error that ended the records early, if one did.
    pub(crate) fn check(&mut self) -> Result<()> {
        self.error.take().map_or(Ok(()), |error| Err(error.into()))
    }
}

impl<R: SortableRecord> Iterator for RecordSource<'_, R> {
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        if self.batch.is_empty() {
            self.refill();
        }
        self.batch.pop()
    }
}

/// Incrementally builds a forward run, opening the file lazily on the first
/// record so empty runs never touch the device. Shared by every
/// run-generation algorithm (including 2WRS in `twrs-core`).
pub struct ForwardRunBuilder<'a, D: Device, R: SortableRecord> {
    device: &'a D,
    namer: &'a SpillNamer,
    writer: Option<(RunWriter<R>, String)>,
}

impl<'a, D: Device, R: SortableRecord> ForwardRunBuilder<'a, D, R> {
    /// Creates a builder that will allocate run names through `namer`.
    pub fn new(device: &'a D, namer: &'a SpillNamer) -> Self {
        ForwardRunBuilder {
            device,
            namer,
            writer: None,
        }
    }

    /// Appends a record to the current run, opening it lazily.
    pub fn push(&mut self, record: &R) -> Result<()> {
        if self.writer.is_none() {
            let name = self.namer.next_name("run");
            let writer = RunWriter::create(self.device, &name)?;
            self.writer = Some((writer, name));
        }
        if let Some((writer, _)) = self.writer.as_mut() {
            writer.push(record)?;
        }
        Ok(())
    }

    /// Closes the current run (if any), appends its handle to `runs` and
    /// returns how many records it held.
    pub fn finish_run(&mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        if let Some((writer, name)) = self.writer.take() {
            let records = writer.finish()?;
            if records > 0 {
                runs.push(RunHandle::Forward(name));
            }
            return Ok(records);
        }
        Ok(0)
    }
}

/// Incrementally builds a reverse (Appendix A) run for streams produced in
/// decreasing order, with the same lazy-open behaviour as
/// [`ForwardRunBuilder`]. Used by the decreasing streams of 2WRS.
pub struct ReverseRunBuilder<'a, D: Device, R: SortableRecord> {
    device: &'a D,
    namer: &'a SpillNamer,
    pages_per_file: u64,
    writer: Option<(ReverseRunWriter<R>, String)>,
}

impl<'a, D: Device, R: SortableRecord> ReverseRunBuilder<'a, D, R> {
    /// Creates a builder whose part files will have `pages_per_file` pages.
    pub fn new(device: &'a D, namer: &'a SpillNamer, pages_per_file: u64) -> Self {
        ReverseRunBuilder {
            device,
            namer,
            pages_per_file,
            writer: None,
        }
    }

    /// Appends the next (smaller or equal) record of the decreasing stream.
    pub fn push(&mut self, record: &R) -> Result<()> {
        if self.writer.is_none() {
            let name = self.namer.next_name("rev");
            let writer =
                ReverseRunWriter::with_pages_per_file(self.device, &name, self.pages_per_file)?;
            self.writer = Some((writer, name));
        }
        if let Some((writer, _)) = self.writer.as_mut() {
            writer.push(record)?;
        }
        Ok(())
    }

    /// Closes the current run (if any), appends its handle to `runs` and
    /// returns how many records it held.
    pub fn finish_run(&mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        if let Some((writer, name)) = self.writer.take() {
            let records = writer.finish()?;
            if records > 0 {
                runs.push(RunHandle::Reverse(name));
            }
            return Ok(records);
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;

    #[test]
    fn run_set_metrics() {
        let set = RunSet {
            runs: vec![
                RunHandle::Forward("a".into()),
                RunHandle::Forward("b".into()),
            ],
            records: 400,
        };
        assert_eq!(set.num_runs(), 2);
        assert_eq!(set.average_run_length(), 200.0);
        assert_eq!(set.relative_run_length(100), 2.0);
    }

    #[test]
    fn empty_run_set_metrics() {
        let set = RunSet::default();
        assert_eq!(set.num_runs(), 0);
        assert_eq!(set.average_run_length(), 0.0);
        assert_eq!(set.relative_run_length(100), 0.0);
    }

    #[test]
    fn cursor_reads_forward_and_reverse_runs_identically() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("t");

        // Forward run with ascending records.
        let mut fwd = ForwardRunBuilder::new(&device, &namer);
        for k in 0..100u64 {
            fwd.push(&k).unwrap();
        }
        let mut runs = Vec::new();
        fwd.finish_run(&mut runs).unwrap();

        // Reverse run receiving the same records in descending order.
        let mut rev = ReverseRunBuilder::new(&device, &namer, 4);
        for k in (0..100u64).rev() {
            rev.push(&k).unwrap();
        }
        rev.finish_run(&mut runs).unwrap();

        assert_eq!(runs.len(), 2);
        let mut first = RunCursor::<u64>::open(&device, &runs[0]).unwrap();
        let mut second = RunCursor::<u64>::open(&device, &runs[1]).unwrap();
        assert_eq!(first.len(), 100);
        assert_eq!(second.len(), 100);
        assert_eq!(first.read_all().unwrap(), second.read_all().unwrap());
    }

    #[test]
    fn empty_builders_produce_no_runs() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("t");
        let mut fwd = ForwardRunBuilder::<_, u64>::new(&device, &namer);
        let mut runs = Vec::new();
        assert_eq!(fwd.finish_run(&mut runs).unwrap(), 0);
        let mut rev = ReverseRunBuilder::<_, u64>::new(&device, &namer, 4);
        assert_eq!(rev.finish_run(&mut runs).unwrap(), 0);
        assert!(runs.is_empty());
    }

    #[test]
    fn record_source_stops_at_the_flag() {
        let token = CancellationToken::new();
        let mut input = 0..1_000_u64;
        let mut source = RecordSource::new(Feed::Iter(&mut input), token.clone());
        assert_eq!(source.next(), Some(0));
        assert_eq!(source.next(), Some(1));
        token.cancel();
        // The batch in hand drains; the next refill sees the flag.
        assert_eq!(source.by_ref().count(), INPUT_BATCH_RECORDS - 2);
        assert_eq!(source.next(), None);
        assert!(source.check().is_ok());
    }

    #[test]
    fn record_source_reads_a_dataset_one_page_per_refill() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut writer = RunWriter::<u64>::create(&device, "input").unwrap();
        for key in 0..1_200_u64 {
            writer.push(&key).unwrap();
        }
        writer.finish().unwrap();
        let page_records = device.page_size() / 8;
        let pages_read = || device.stats().counters.pages_read;
        let before = pages_read();
        let feed = Feed::<u64>::dataset(&device, "input").unwrap();
        let mut source = RecordSource::new(feed, CancellationToken::new());
        assert_eq!(pages_read(), before + 1, "the header alone at open");
        assert_eq!(source.next(), Some(0));
        assert_eq!(pages_read(), before + 2);
        // A page is read once its first record is wanted, never earlier.
        assert_eq!(
            source.by_ref().take(page_records - 1).count(),
            page_records - 1
        );
        assert_eq!(pages_read(), before + 2);
        assert_eq!(source.next(), Some(page_records as u64));
        assert_eq!(pages_read(), before + 3);
        assert_eq!(source.count(), 1_200 - page_records - 1);
    }

    #[test]
    fn handles_expose_names() {
        assert_eq!(RunHandle::Forward("x".into()).name(), "x");
        assert_eq!(RunHandle::Reverse("y".into()).name(), "y");
    }
}
