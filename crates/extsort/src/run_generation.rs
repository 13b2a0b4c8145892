//! The run-generation interface shared by every algorithm, and the one
//! record source every stage reads.
//!
//! A run-generation algorithm consumes the input stream and produces a set
//! of sorted runs on a storage device (§2.1.1). Every algorithm writes its
//! runs through one [`RunBuilder`]: classic replacement selection and
//! Load-Sort-Store build plain forward runs; two-way replacement selection
//! additionally builds *reverse* runs in the Appendix A format (streams
//! whose records were produced in decreasing order). [`RunHandle`] names
//! either kind, or a chain of them, and [`RunHandle::open`] returns the one
//! storage reader ([`RunReader`]) that reads any run back in ascending
//! order, so the merge phase does not care which algorithm produced a run.
//!
//! Every record a stage reads comes through one record source: a batch
//! refilled from a caller's iterator, a run (a dataset a page at a time,
//! or a merge input a read-ahead at a time) or another thread's messages
//! (a shard's dealt input, or a merge input's prefetch thread). Run
//! generation's sources poll the job's cancellation token at every refill;
//! merge inputs do not, since one that stopped early would pass for a
//! short run.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::parallel::BatchReceiver;
use std::thread::JoinHandle;
use twrs_storage::{
    ReverseRunWriter, RunReader, RunWriter, SortableRecord, SpillNamer, StorageDevice, StorageError,
};

/// Device bound required by run generation: the reverse-file writer needs to
/// create part files on demand, so the device must be cloneable and owned.
pub trait Device: StorageDevice + Clone + Send + 'static {}

impl<D> Device for D where D: StorageDevice + Clone + Send + 'static {}

/// A named run stored on a device, with the number of records it holds.
///
/// The writer that closes a run knows its length, so the handle carries it
/// and the merge planner reads no page to learn it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunHandle {
    /// A forward run file written by [`RunWriter`]; records are stored in
    /// ascending order.
    Forward {
        /// The file's name.
        name: String,
        /// The records the file holds.
        records: u64,
    },
    /// A reverse run (Appendix A format) written by [`ReverseRunWriter`];
    /// records were produced in descending order but read back ascending.
    Reverse {
        /// The run's base name; its part files add a suffix.
        name: String,
        /// The records its parts hold.
        records: u64,
    },
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
            RunHandle::Forward { name, .. } | RunHandle::Reverse { name, .. } => name,
            RunHandle::Chain(parts) => parts.first().map(RunHandle::name).unwrap_or(""),
        }
    }

    /// The number of records in the run; for a [`RunHandle::Chain`] the sum
    /// over its parts.
    pub fn records(&self) -> u64 {
        match self {
            RunHandle::Forward { records, .. } | RunHandle::Reverse { records, .. } => *records,
            RunHandle::Chain(parts) => parts.iter().map(RunHandle::records).sum(),
        }
    }

    /// Opens the run for reading in ascending order, reading every header
    /// of its files: a forward file, the parts of a reverse run, or a
    /// chain's components one after another.
    ///
    /// Headers that hold another record count than the handle are rejected
    /// with [`StorageError::CorruptHeader`], before any record is read.
    pub fn open<R: SortableRecord>(&self, device: &dyn StorageDevice) -> Result<RunReader<R>> {
        let reader = match self {
            RunHandle::Forward { name, .. } => RunReader::open(device, name)?,
            RunHandle::Reverse { name, .. } => RunReader::open_reverse(device, name)?,
            RunHandle::Chain(parts) => RunReader::concat(
                parts
                    .iter()
                    .map(|part| part.open(device))
                    .collect::<Result<Vec<_>>>()?,
            )?,
        };
        if reader.len() != self.records() {
            return Err(StorageError::CorruptHeader(format!(
                "run {} holds {} records, its handle says {}",
                self.name(),
                reader.len(),
                self.records()
            ))
            .into());
        }
        Ok(reader)
    }

    /// Every physical file handle reachable from this handle, depth first.
    pub fn physical(&self) -> Vec<&RunHandle> {
        match self {
            RunHandle::Forward { .. } | RunHandle::Reverse { .. } => vec![self],
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

/// Records a [`RecordSource`] takes from a caller's iterator per refill;
/// also the parcel the threaded dealer hands one shard
/// ([`parallel`](crate::parallel)).
pub(crate) const INPUT_BATCH_RECORDS: usize = 256;

/// Where a [`RecordSource`] refills from.
pub(crate) enum Feed<R: SortableRecord, I = std::iter::Empty<R>> {
    /// A caller's iterator, [`INPUT_BATCH_RECORDS`] records at a time.
    Iter(I),
    /// A run, `batch` records at a time: a dataset one page per refill, so
    /// each page is read when its first record is wanted, or a merge input
    /// one read-ahead per refill. The reader lives as long as the source:
    /// freed mid-merge, at its run's end, it left glibc's heap fragmented
    /// enough to raise a streamed 2M-record 2WRS sort's peak RSS from 117
    /// to 128 MB on some inputs.
    Run { reader: RunReader<R>, batch: usize },
    /// Another thread's messages: a shard's dealt input, or the batches of
    /// a merge input's prefetch thread, which is joined once its channel
    /// closes and returns its read error, if any.
    Thread {
        messages: BatchReceiver<Vec<R>>,
        worker: Option<JoinHandle<Result<()>>>,
    },
    /// Nothing more: the thread has ended.
    Ended,
}

impl<R: SortableRecord> Feed<R> {
    /// Opens the dataset `name` on `device`; a corrupt header fails here,
    /// before the sort starts.
    pub(crate) fn dataset(device: &dyn StorageDevice, name: &str) -> Result<Self> {
        Ok(Feed::Run {
            reader: RunReader::open(device, name)?,
            batch: device.page_size() / R::SIZE,
        })
    }
}

/// The one way records enter a stage: every generator, the threaded dealer
/// and every merge input read through one of these, one batch per refill,
/// the refill out of line.
///
/// A run-generation source polls the job's [`CancellationToken`] at each
/// refill. A canceled job or a read error ends its records early, which a
/// generator cannot tell from the end of its input, so the generate stage
/// fails afterwards with [`check`](RecordSource::check) and the token's own
/// check. A merge input carries no token and returns its read errors from
/// [`next_record`](RecordSource::next_record).
pub(crate) struct RecordSource<R: SortableRecord, I = std::iter::Empty<R>> {
    /// The unread records of the current batch, in descending order, so
    /// the next one is popped off the end.
    batch: Vec<R>,
    feed: Feed<R, I>,
    /// Run generation's token; `None` for a merge input.
    cancel: Option<CancellationToken>,
    /// The read error that ended a run-generation source early.
    error: Option<SortError>,
}

impl<R: SortableRecord, I: Iterator<Item = R>> RecordSource<R, I> {
    /// A run-generation source over `feed`, stopped by `cancel`.
    pub(crate) fn new(feed: Feed<R, I>, cancel: CancellationToken) -> Self {
        RecordSource {
            batch: Vec::new(),
            feed,
            cancel: Some(cancel),
            error: None,
        }
    }

    /// The next record, or `None` at the end of the feed.
    #[inline]
    pub(crate) fn next_record(&mut self) -> Result<Option<R>> {
        if self.batch.is_empty() {
            self.refill()?;
        }
        Ok(self.batch.pop())
    }

    /// Fills the empty batch from the feed, unless the job is canceled.
    #[inline(never)]
    fn refill(&mut self) -> Result<()> {
        if self
            .cancel
            .as_ref()
            .is_some_and(CancellationToken::is_canceled)
        {
            return Ok(());
        }
        match &mut self.feed {
            Feed::Iter(input) => self.batch.extend(input.take(INPUT_BATCH_RECORDS)),
            Feed::Run { reader, batch } => {
                reader.read_batch(&mut self.batch, *batch)?;
            }
            Feed::Thread { messages, .. } => {
                // `next_into` hands the message over reversed already.
                return if messages.next_into(&mut self.batch) {
                    Ok(())
                } else {
                    self.end()
                };
            }
            Feed::Ended => {}
        }
        self.batch.reverse();
        Ok(())
    }

    /// Fails with the read error that ended the records early, if one did.
    pub(crate) fn check(&mut self) -> Result<()> {
        self.error.take().map_or(Ok(()), Err)
    }
}

impl<R: SortableRecord> RecordSource<R> {
    /// Opens `run` on `device` as a merge input read `read_ahead` records
    /// per refill. Its headers are read here; with `prefetch`, a prefetch
    /// thread then takes over the reader.
    pub(crate) fn merge_input(
        device: &dyn StorageDevice,
        run: &RunHandle,
        read_ahead: usize,
        prefetch: bool,
    ) -> Result<Self> {
        let reader = run.open(device)?;
        let read_ahead = read_ahead.max(1);
        let (feed, capacity) = if prefetch {
            let (messages, worker) = crate::parallel::prefetch(reader, read_ahead)?;
            let worker = Some(worker);
            (Feed::Thread { messages, worker }, 0)
        } else {
            let capacity = buffer_capacity(read_ahead, &reader);
            let batch = read_ahead;
            (Feed::Run { reader, batch }, capacity)
        };
        Ok(RecordSource {
            batch: Vec::with_capacity(capacity),
            feed,
            cancel: None,
            error: None,
        })
    }
}

impl<R: SortableRecord, I> RecordSource<R, I> {
    /// Ends a thread feed: drops its channel, so a thread blocked on a full
    /// queue wakes up and ends, and joins the thread; returns its read
    /// error, or an error if it panicked.
    fn end(&mut self) -> Result<()> {
        let Feed::Thread { messages, worker } = std::mem::replace(&mut self.feed, Feed::Ended)
        else {
            return Ok(());
        };
        drop(messages);
        worker.map_or(Ok(()), |worker| {
            worker.join().unwrap_or_else(|_| {
                Err(SortError::JobPanicked(
                    "a merge prefetch thread panicked".into(),
                ))
            })
        })
    }
}

impl<R: SortableRecord, I> Drop for RecordSource<R, I> {
    fn drop(&mut self) {
        // A feed read to its end has joined its thread already; an
        // abandoned one has nothing left to report.
        let _ = self.end();
    }
}

impl<R: SortableRecord, I: Iterator<Item = R>> Iterator for RecordSource<R, I> {
    type Item = R;

    /// The next record of a run-generation source; a read error ends the
    /// records and waits for [`check`](RecordSource::check).
    #[inline]
    fn next(&mut self) -> Option<R> {
        if self.batch.is_empty() && self.error.is_none() {
            self.error = self.refill().err();
        }
        self.batch.pop()
    }
}

/// The records one refill of a `read_ahead` buffer can hold: never more
/// than the run has, so a read-ahead beyond any run length allocates only
/// what the run needs.
pub(crate) fn buffer_capacity<R: SortableRecord>(read_ahead: usize, run: &RunReader<R>) -> usize {
    usize::try_from(run.len()).map_or(read_ahead, |len| read_ahead.min(len))
}

/// Writes runs one record at a time in one of the two run formats: a
/// forward run file ([`RunWriter`], records ascending) or a reverse run of
/// Appendix A part files ([`ReverseRunWriter`], records descending). RS,
/// LSS and each of the four streams of 2WRS (in `twrs-core`) write through
/// one.
///
/// A run's file is created through the namer (role `run` or `rev`) on its
/// first record, so an empty run never touches the device.
pub struct RunBuilder<'a, D: Device, R: SortableRecord> {
    device: &'a D,
    namer: &'a SpillNamer,
    /// Pages per part file of a reverse run; `None` for forward runs.
    reverse: Option<u64>,
    /// The open run's writer and name.
    run: Option<(Writer<R>, String)>,
}

/// The writer of one open run.
enum Writer<R: SortableRecord> {
    Forward(RunWriter<R>),
    Reverse(ReverseRunWriter<R>),
}

impl<'a, D: Device, R: SortableRecord> RunBuilder<'a, D, R> {
    /// A builder of forward runs, whose records come in ascending order.
    pub fn forward(device: &'a D, namer: &'a SpillNamer) -> Self {
        RunBuilder {
            device,
            namer,
            reverse: None,
            run: None,
        }
    }

    /// A builder of reverse runs in parts of `pages_per_file` pages (the
    /// paper's `k`), whose records come in descending order.
    pub fn reverse(device: &'a D, namer: &'a SpillNamer, pages_per_file: u64) -> Self {
        RunBuilder {
            reverse: Some(pages_per_file),
            ..Self::forward(device, namer)
        }
    }

    /// Appends the next record of the current run in the builder's
    /// direction, creating the run's file on its first record.
    pub fn push(&mut self, record: &R) -> Result<()> {
        let (writer, _) = match &mut self.run {
            Some(run) => run,
            None => self.run.insert(self.create()?),
        };
        match writer {
            Writer::Forward(writer) => writer.push(record)?,
            Writer::Reverse(writer) => writer.push(record)?,
        }
        Ok(())
    }

    /// Appends an ascending batch in the builder's direction: first record
    /// first to a forward run, last record first to a reverse run. An empty
    /// batch writes nothing.
    pub fn push_sorted(&mut self, records: &[R]) -> Result<()> {
        debug_assert!(records.windows(2).all(|w| w[0] <= w[1]));
        if self.reverse.is_some() {
            records
                .iter()
                .rev()
                .try_for_each(|record| self.push(record))
        } else {
            records.iter().try_for_each(|record| self.push(record))
        }
    }

    /// Closes the current run, if any, and returns how many records it
    /// held; appends its handle, which carries that count, to `runs` when
    /// it holds records. The next push starts a new run.
    pub fn finish_run(&mut self, runs: &mut Vec<RunHandle>) -> Result<u64> {
        let Some((writer, name)) = self.run.take() else {
            return Ok(0);
        };
        let handle = match writer {
            Writer::Forward(writer) => RunHandle::Forward {
                records: writer.finish()?,
                name,
            },
            Writer::Reverse(writer) => RunHandle::Reverse {
                records: writer.finish()?,
                name,
            },
        };
        let records = handle.records();
        if records > 0 {
            runs.push(handle);
        }
        Ok(records)
    }

    /// Names and creates the next run's file.
    fn create(&self) -> Result<(Writer<R>, String)> {
        Ok(match self.reverse {
            None => {
                let name = self.namer.next_name("run");
                (
                    Writer::Forward(RunWriter::create(self.device, &name)?),
                    name,
                )
            }
            Some(pages_per_file) => {
                let name = self.namer.next_name("rev");
                let writer =
                    ReverseRunWriter::with_pages_per_file(self.device, &name, pages_per_file)?;
                (Writer::Reverse(writer), name)
            }
        })
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
                RunHandle::Forward {
                    name: "a".into(),
                    records: 150,
                },
                RunHandle::Forward {
                    name: "b".into(),
                    records: 250,
                },
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
        let keys: Vec<u64> = (0..100).collect();

        // A forward run of ascending records, one at a time.
        let mut fwd = RunBuilder::forward(&device, &namer);
        keys.iter().try_for_each(|k| fwd.push(k)).unwrap();
        let mut runs = Vec::new();
        fwd.finish_run(&mut runs).unwrap();

        // A reverse run of 4-page parts given the same ascending batch,
        // which it writes largest first.
        let mut rev = RunBuilder::reverse(&device, &namer, 4);
        rev.push_sorted(&keys).unwrap();
        rev.finish_run(&mut runs).unwrap();

        assert!(matches!(
            &runs[..],
            [
                RunHandle::Forward { records: 100, .. },
                RunHandle::Reverse { records: 100, .. }
            ]
        ));
        let mut first = runs[0].open::<u64>(&device).unwrap();
        let mut second = runs[1].open::<u64>(&device).unwrap();
        assert_eq!(first.len(), 100);
        assert_eq!(second.len(), 100);
        assert_eq!(first.read_all().unwrap(), keys);
        assert_eq!(second.read_all().unwrap(), keys);
    }

    #[test]
    fn empty_builders_produce_no_runs() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("t");
        let mut runs = Vec::new();
        let mut fwd = RunBuilder::<_, u64>::forward(&device, &namer);
        fwd.push_sorted(&[]).unwrap();
        assert_eq!(fwd.finish_run(&mut runs).unwrap(), 0);
        let mut rev = RunBuilder::<_, u64>::reverse(&device, &namer, 4);
        rev.push_sorted(&[]).unwrap();
        assert_eq!(rev.finish_run(&mut runs).unwrap(), 0);
        assert!(runs.is_empty());
        assert!(device.list().is_empty(), "no file was created");
    }

    #[test]
    fn a_builder_starts_a_new_run_after_each_finish() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let namer = SpillNamer::new("t");
        let mut builder = RunBuilder::forward(&device, &namer);
        let mut runs = Vec::new();
        for run in 0..3_u64 {
            builder.push_sorted(&[run, run + 10]).unwrap();
            assert_eq!(builder.finish_run(&mut runs).unwrap(), 2);
        }
        assert_eq!(namer.created().len(), 3);
        let names: Vec<&str> = runs.iter().map(RunHandle::name).collect();
        assert_eq!(names, namer.created());
        assert_eq!(
            runs[2].open::<u64>(&device).unwrap().read_all().unwrap(),
            [2, 12]
        );
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
        let forward = RunHandle::Forward {
            name: "x".into(),
            records: 3,
        };
        let reverse = RunHandle::Reverse {
            name: "y".into(),
            records: 4,
        };
        assert_eq!(forward.name(), "x");
        assert_eq!(reverse.name(), "y");
        assert_eq!(RunHandle::Chain(vec![reverse, forward]).name(), "y");
    }

    #[test]
    fn a_chain_holds_the_records_of_its_parts() {
        let part = |name: &str, records| RunHandle::Forward {
            name: name.into(),
            records,
        };
        assert_eq!(part("x", 3).records(), 3);
        let chain = RunHandle::Chain(vec![part("a", 3), part("b", 4)]);
        assert_eq!(chain.records(), 7);
        assert_eq!(RunHandle::Chain(vec![chain, part("c", 1)]).records(), 8);
        assert_eq!(RunHandle::Chain(Vec::new()).records(), 0);
    }
}
