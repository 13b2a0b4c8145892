//! The threaded stages of the sort pipeline: what a
//! [`SortJob`](crate::SortJob) with `threads > 1` runs instead of the
//! inline ones.
//!
//! At one thread the pipeline ([`sorter`](crate::sorter)) generates runs on
//! the calling thread, so heap work, spill writes and merge reads all
//! serialise. With more threads it keeps the exact same building blocks —
//! any [`RunGenerator`] plugs in unchanged — and overlaps the three:
//!
//! 1. **Sharded generation.** The input stream is dealt round-robin (in
//!    small batches) to `threads` workers. Each worker runs its own clone of
//!    the run-generation algorithm with a proportional slice of the memory
//!    budget (see [`ShardableGenerator`]), so total memory stays fixed while
//!    the heap work parallelises.
//! 2. **Asynchronous spilling.** Each worker writes its runs through a
//!    [`SpillWriteDevice`], which ships page writes over a bounded channel
//!    to a dedicated writer thread; heap operations overlap spill I/O, and
//!    the bounded queue applies back-pressure so memory stays bounded.
//! 3. **Prefetched merging.** Every merge step reads each input run through
//!    a background prefetch thread that stays a few read-ahead batches
//!    ahead of the loser tree.
//!
//! On a striped device (`twrs_storage::StripedDevice`) each shard spills
//! through a member-pinned shard view (shard `i` → member `i % members`),
//! and before the global merge a per-disk reduction folds every member's
//! runs into at most one run *on that member*, each by a single-threaded
//! reducer. Per-disk read order — and with it every member's seek counters —
//! therefore stays deterministic at any thread count, which is what lets the
//! bench suite pin concrete seek counts for multi-threaded striped runs.
//!
//! Because [`SortableRecord`] requires a *total* order, the fully merged
//! output is **byte-identical** for every thread count — the equivalence
//! test suite (`tests/parallel_equivalence.rs`) pins this. Per-shard I/O
//! recorded on [`ScopedDevice`]s provides the breakdown of the generation
//! phase; the shards perform all of its writes, so the aggregated
//! `pages_written` equals the shard sum by construction.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::merge::kway::{
    merge_step, reduce_to_fan_in, BufferedCursor, MergeConfig, MergeReport, MergeSource,
    ReducedRuns, RunSource,
};
use crate::run_generation::{Device, RunCursor, RunGenerator, RunHandle, RunSet};
use crate::sync::lock_or_poison;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use twrs_storage::{
    IoStatsSnapshot, PageFile, ScopedDevice, SortableRecord, SpillNamer, StorageDevice,
    StorageError,
};

/// Capacity (in queued operations, i.e. pages) of each shard's bounded
/// spill-writer channel.
const SPILL_QUEUE_PAGES: usize = 64;
/// How many read-ahead batches each merge prefetch thread may buffer.
const PREFETCH_BATCHES: usize = 4;
/// Records per round-robin parcel when dealing the input to shards. Fixes
/// the (deterministic) shard contents; larger parcels amortise channel
/// traffic.
const SHARD_BATCH_RECORDS: usize = 256;

// ---------------------------------------------------------------------------
// Memory-budget sharding
// ---------------------------------------------------------------------------

/// The memory budget (in records) of shard `index` when a total budget of
/// `total` records is divided over `shards` workers.
///
/// The shard budgets always sum to at least `total` records split exactly
/// (`total = Σ shard_budget(total, i, shards)` whenever `total >= shards`);
/// any remainder goes to the lowest-indexed shards, and every shard gets at
/// least one record so degenerate configurations stay runnable.
pub fn shard_budget(total: usize, index: usize, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    assert!(index < shards, "shard index in range");
    let base = total / shards;
    let remainder = total % shards;
    (base + usize::from(index < remainder)).max(1)
}

/// A run-generation algorithm that can hand out budget-divided copies of
/// itself for the shards of a parallel sort.
///
/// Implementations must divide their memory budget with [`shard_budget`] (or
/// equivalently) so that the shard budgets of one sort sum to the original
/// budget — a sharded sort keeps total memory fixed no matter how many
/// threads it uses.
pub trait ShardableGenerator: RunGenerator + Clone + Send + 'static {
    /// A copy of this generator configured for shard `index` of `shards`.
    fn shard(&self, index: usize, shards: usize) -> Self;
}

// ---------------------------------------------------------------------------
// Asynchronous spill writing
// ---------------------------------------------------------------------------

/// Operations shipped from the generation thread to the spill writer.
enum SpillOp {
    /// Register a freshly created file under an id.
    Attach {
        file: u64,
        handle: Box<dyn PageFile>,
    },
    /// Apply one page write to an attached file.
    Write {
        file: u64,
        page: u64,
        data: Box<[u8]>,
    },
    /// Apply every write queued so far, flush (`file = None` flushes all
    /// attached files) and acknowledge.
    Flush {
        file: Option<u64>,
        ack: SyncSender<twrs_storage::Result<()>>,
    },
    /// Forget an attached file (its writes have all been queued before).
    Detach { file: u64 },
}

struct SpillShared {
    sender: Mutex<Option<SyncSender<SpillOp>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    next_file_id: AtomicU64,
}

impl SpillShared {
    fn send(&self, op: SpillOp) -> twrs_storage::Result<()> {
        let guard = lock_or_poison(&self.sender);
        let sender = guard.as_ref().ok_or_else(writer_gone)?;
        sender.send(op).map_err(|_| writer_gone())
    }
}

impl Drop for SpillShared {
    fn drop(&mut self) {
        // Disconnect the channel so the writer drains its queue and exits,
        // then wait for it; pending writes are never lost.
        lock_or_poison(&self.sender).take();
        if let Some(worker) = lock_or_poison(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

fn writer_gone() -> StorageError {
    StorageError::Io(std::io::Error::other("spill writer thread terminated"))
}

/// A device wrapper that moves page writes off the calling thread onto one
/// dedicated writer thread, connected by a bounded channel.
///
/// Run generation pushes records as fast as its heaps allow while the writer
/// thread performs the actual page writes, so CPU work overlaps spill I/O;
/// when the writer falls behind, the bounded queue blocks the generator
/// (back-pressure) instead of buffering unboundedly. [`PageFile::flush`] is
/// a barrier: it returns once every previously queued write of that file has
/// been applied, which is what makes the run files safe to read after
/// `RunWriter::finish`. Reads and `open` flush the queue first and then go
/// straight to the wrapped device.
pub struct SpillWriteDevice<D: Device> {
    inner: D,
    shared: Arc<SpillShared>,
}

impl<D: Device> Clone for SpillWriteDevice<D> {
    fn clone(&self) -> Self {
        SpillWriteDevice {
            inner: self.inner.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<D: Device> SpillWriteDevice<D> {
    /// Wraps `inner`, spawning the writer thread with a queue of
    /// `queue_depth` pending operations.
    pub fn new(inner: D, queue_depth: usize) -> Self {
        let (tx, rx) = sync_channel::<SpillOp>(queue_depth.max(1));
        let worker = std::thread::spawn(move || spill_writer_loop(rx));
        SpillWriteDevice {
            inner,
            shared: Arc::new(SpillShared {
                sender: Mutex::new(Some(tx)),
                worker: Mutex::new(Some(worker)),
                next_file_id: AtomicU64::new(1),
            }),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Waits until every queued write has been applied and flushed, and
    /// surfaces any error the writer thread encountered.
    pub fn barrier(&self) -> twrs_storage::Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.shared.send(SpillOp::Flush {
            file: None,
            ack: ack_tx,
        })?;
        ack_rx.recv().map_err(|_| writer_gone())?
    }
}

/// The writer thread: applies operations in order, remembers the first
/// failure and reports it at the next flush barrier.
fn spill_writer_loop(rx: Receiver<SpillOp>) {
    let mut files: HashMap<u64, Box<dyn PageFile>> = HashMap::new();
    let mut failure: Option<String> = None;
    while let Ok(op) = rx.recv() {
        match op {
            SpillOp::Attach { file, handle } => {
                files.insert(file, handle);
            }
            SpillOp::Write { file, page, data } => {
                if failure.is_some() {
                    continue;
                }
                match files.get_mut(&file) {
                    Some(handle) => {
                        if let Err(e) = handle.write_page(page, &data) {
                            failure = Some(e.to_string());
                        }
                    }
                    None => failure = Some(format!("write to unattached spill file {file}")),
                }
            }
            SpillOp::Flush { file, ack } => {
                if failure.is_none() {
                    let targets: Vec<u64> = match file {
                        Some(id) => files.contains_key(&id).then_some(id).into_iter().collect(),
                        None => files.keys().copied().collect(),
                    };
                    for id in targets {
                        let Some(handle) = files.get_mut(&id) else {
                            continue;
                        };
                        if let Err(e) = handle.flush() {
                            failure = Some(e.to_string());
                            break;
                        }
                    }
                }
                let result = match &failure {
                    Some(msg) => Err(StorageError::Io(std::io::Error::other(msg.clone()))),
                    None => Ok(()),
                };
                let _ = ack.send(result);
            }
            SpillOp::Detach { file } => {
                files.remove(&file);
            }
        }
    }
}

struct SpillPageFile<D: Device> {
    device: SpillWriteDevice<D>,
    name: String,
    file: u64,
    page_size: usize,
    /// Local page-count model mirroring the sparse-extension semantics of
    /// [`PageFile::write_page`]; exact because this handle is the only
    /// writer of the file.
    pages: u64,
}

impl<D: Device> PageFile for SpillPageFile<D> {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> twrs_storage::Result<()> {
        // Rare on the write path: drain queued writes, then read through.
        self.flush()?;
        self.device.inner.open(&self.name)?.read_page(index, buf)
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> twrs_storage::Result<()> {
        if data.len() != self.page_size {
            return Err(StorageError::PageSizeMismatch {
                got: data.len(),
                expected: self.page_size,
            });
        }
        self.pages = self.pages.max(index + 1);
        self.device.shared.send(SpillOp::Write {
            file: self.file,
            page: index,
            data: data.into(),
        })
    }

    fn flush(&mut self) -> twrs_storage::Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.device.shared.send(SpillOp::Flush {
            file: Some(self.file),
            ack: ack_tx,
        })?;
        ack_rx.recv().map_err(|_| writer_gone())?
    }
}

impl<D: Device> Drop for SpillPageFile<D> {
    fn drop(&mut self) {
        let _ = self.device.shared.send(SpillOp::Detach { file: self.file });
    }
}

impl<D: Device> StorageDevice for SpillWriteDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        // Created eagerly on the wrapped device so the name exists at once;
        // only the page writes are deferred.
        let handle = self.inner.create(name)?;
        let file = self.shared.next_file_id.fetch_add(1, Ordering::Relaxed);
        self.shared.send(SpillOp::Attach { file, handle })?;
        Ok(Box::new(SpillPageFile {
            device: self.clone(),
            name: name.to_string(),
            file,
            page_size: self.inner.page_size(),
            pages: 0,
        }))
    }

    fn open(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        self.barrier()?;
        self.inner.open(name)
    }

    fn remove(&self, name: &str) -> twrs_storage::Result<()> {
        self.barrier()?;
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn io_stats(&self) -> &twrs_storage::IoStats {
        self.inner.io_stats()
    }
}

// ---------------------------------------------------------------------------
// Prefetched merge sources
// ---------------------------------------------------------------------------

/// The consumer end of one background prefetch thread: the thread reads the
/// run in `read_ahead`-record batches and stays up to [`PREFETCH_BATCHES`]
/// batches ahead of the merge loop. Dropping the source disconnects the
/// channel and joins the worker, so a half-consumed source (an early-dropped
/// [`SortedStream`](crate::SortedStream), an error path) never leaves a
/// reader thread behind.
pub(crate) struct PrefetchSource<R: SortableRecord> {
    rx: Option<Receiver<std::result::Result<Vec<R>, SortError>>>,
    buffer: VecDeque<R>,
    worker: Option<JoinHandle<()>>,
    done: bool,
}

impl<R: SortableRecord> RunSource<R> for PrefetchSource<R> {
    /// Spawns the prefetch thread; an error opening the run surfaces from
    /// the first [`next_record`](MergeSource::next_record).
    fn open<D: Device>(device: &D, run: &RunHandle, read_ahead: usize) -> Result<Self> {
        let (tx, rx) = sync_channel(PREFETCH_BATCHES);
        let batch = read_ahead.max(1);
        let device = device.clone();
        let run = run.clone();
        let worker = std::thread::spawn(move || {
            let mut cursor = match RunCursor::<R>::open(&device, &run) {
                Ok(cursor) => cursor,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            };
            loop {
                let mut chunk = Vec::with_capacity(batch);
                for _ in 0..batch {
                    match cursor.next_record() {
                        Ok(Some(record)) => chunk.push(record),
                        Ok(None) => break,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
                let finished = chunk.len() < batch;
                if !chunk.is_empty() && tx.send(Ok(chunk)).is_err() {
                    // Merge side hung up (error path): stop quietly.
                    return;
                }
                if finished {
                    return;
                }
            }
        });
        Ok(PrefetchSource {
            rx: Some(rx),
            buffer: VecDeque::new(),
            worker: Some(worker),
            done: false,
        })
    }

    fn close(mut self) {
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl<R: SortableRecord> Drop for PrefetchSource<R> {
    fn drop(&mut self) {
        // Disconnect first so a worker blocked on a full queue wakes up and
        // exits, then wait for it (panics are swallowed here; `close` on the
        // success path propagates them).
        drop(self.rx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<R: SortableRecord> MergeSource<R> for PrefetchSource<R> {
    fn next_record(&mut self) -> Result<Option<R>> {
        if self.buffer.is_empty() && !self.done {
            // `rx` is only `None` once `drop` has run; treat that like a
            // disconnected prefetcher instead of panicking.
            match self.rx.as_ref().map(|rx| rx.recv()) {
                None | Some(Err(_)) => self.done = true,
                Some(Ok(Ok(chunk))) => self.buffer = chunk.into(),
                Some(Ok(Err(e))) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(self.buffer.pop_front())
    }
}

// ---------------------------------------------------------------------------
// Sharded generation
// ---------------------------------------------------------------------------

/// What one generation shard did: its slice of the input, its runs and the
/// I/O its worker (including its spill writer) performed, measured on the
/// shard's own [`ScopedDevice`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Index of the shard (0-based).
    pub shard: usize,
    /// Records this shard consumed from the input.
    pub records: u64,
    /// Runs this shard generated.
    pub num_runs: usize,
    /// Run-generation I/O of this shard alone.
    pub io: IoStatsSnapshot,
}

/// Spawns `threads` generation workers, deals `input` to them round-robin
/// and joins them all. Returns every run in shard order — shard 0's runs
/// first — and one [`ShardReport`] per shard.
pub(crate) fn generate_sharded<G, D, R>(
    generator: &G,
    threads: usize,
    device: &D,
    namer: &Arc<SpillNamer>,
    cancel: &CancellationToken,
    input: &mut dyn Iterator<Item = R>,
) -> Result<(RunSet, Vec<ShardReport>)>
where
    G: ShardableGenerator,
    D: Device,
    R: SortableRecord,
{
    let mut senders: Vec<Option<SyncSender<Vec<R>>>> = Vec::with_capacity(threads);
    let mut workers = Vec::with_capacity(threads);
    for index in 0..threads {
        let (tx, rx) = sync_channel::<Vec<R>>(2);
        senders.push(Some(tx));
        let mut generator = generator.shard(index, threads);
        // On a striped device the shard view pins this worker's spill
        // files to stripe member `index % members` (plain devices return
        // a clone), so each shard's write traffic — and later its
        // reduction merge — stays on one disk.
        let scoped = ScopedDevice::new(device.shard_view(index));
        let namer = Arc::clone(namer);
        workers.push(std::thread::spawn(
            move || -> Result<(RunSet, IoStatsSnapshot)> {
                let spill = SpillWriteDevice::new(scoped.clone(), SPILL_QUEUE_PAGES);
                let mut shard_input = rx.into_iter().flatten();
                let set = generator.generate(&spill, namer.as_ref(), &mut shard_input)?;
                // Drain the spill queue (and surface writer errors) before
                // reading the shard's I/O statistics.
                spill.barrier()?;
                drop(spill);
                Ok((set, scoped.local_stats()))
            },
        ));
    }

    // Deal the input in round-robin parcels. A worker that failed early
    // drops its receiver; we stop feeding it and let the join below
    // surface its error. When every worker is gone there is no point
    // draining the rest of the input.
    let mut shard = 0usize;
    let mut live = threads;
    while live > 0 {
        // Heap-refill-grained cancellation point: stop feeding the shards;
        // they finish their current runs and the generate stage's
        // post-join check surfaces the cancellation.
        if cancel.is_canceled() {
            break;
        }
        let batch: Vec<R> = input.take(SHARD_BATCH_RECORDS).collect();
        if batch.is_empty() {
            break;
        }
        if let Some(tx) = senders[shard].as_ref() {
            if tx.send(batch).is_err() {
                senders[shard] = None;
                live -= 1;
            }
        }
        shard = (shard + 1) % threads;
    }
    drop(senders);

    // Join every worker before reporting anything, so no shard is left
    // running (and writing spill files) after this function returns.
    let results: Vec<std::thread::Result<Result<(RunSet, IoStatsSnapshot)>>> =
        workers.into_iter().map(|worker| worker.join()).collect();
    let mut run_set = RunSet::default();
    let mut shards = Vec::with_capacity(threads);
    for (index, result) in results.into_iter().enumerate() {
        let (set, io) = match result {
            Ok(outcome) => outcome?,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        shards.push(ShardReport {
            shard: index,
            records: set.records,
            num_runs: set.num_runs(),
            io,
        });
        run_set.records += set.records;
        run_set.runs.extend(set.runs);
    }
    Ok((run_set, shards))
}

// ---------------------------------------------------------------------------
// Per-disk reduction
// ---------------------------------------------------------------------------

/// On a striped device, folds each stripe member's runs into at most one
/// run per member, one reducer thread per member; returns the survivors
/// and the merge work done.
///
/// `runs` are in shard order, as [`generate_sharded`] returns them, and
/// `shards` says how many belong to each shard. Generation pinned shard
/// `i`'s spill files to member `i % members`, so each member's runs can be
/// merged by a dedicated single-threaded reducer on the member-pinned view
/// ([`reduce_disk_runs`]) — per-disk read order stays deterministic no
/// matter how the reducer threads interleave, because each touches a
/// different disk's head. The survivors (≤ one per member) then feed the
/// ordinary merge passes, whose final pass reads at most one run per member
/// and is therefore deterministic too. This is what restores concrete
/// per-disk seek counters at `threads > 1`.
pub(crate) fn reduce_per_disk<D: Device, R: SortableRecord>(
    device: &D,
    namer: &Arc<SpillNamer>,
    runs: Vec<RunHandle>,
    shards: &[ShardReport],
    merge: MergeConfig,
    cancel: &CancellationToken,
) -> Result<(Vec<RunHandle>, MergeReport)> {
    let disks = device.stripe_members();
    let mut disk_runs: Vec<Vec<RunHandle>> = vec![Vec::new(); disks];
    let mut runs = runs.into_iter();
    for shard in shards {
        disk_runs[shard.shard % disks].extend(runs.by_ref().take(shard.num_runs));
    }
    let mut reducers = Vec::with_capacity(disks);
    for (disk, member_runs) in disk_runs.into_iter().enumerate() {
        let view = device.shard_view(disk);
        let namer = Arc::clone(namer);
        let cancel = cancel.clone();
        reducers.push(std::thread::spawn(
            move || -> Result<(Vec<RunHandle>, MergeReport)> {
                reduce_disk_runs::<D, R>(&view, namer.as_ref(), member_runs, merge, &cancel)
            },
        ));
    }
    // Join every reducer before reporting anything (mirrors
    // `generate_sharded`): no disk is left merging after an error.
    type ReducerOutcome = Result<(Vec<RunHandle>, MergeReport)>;
    let results: Vec<std::thread::Result<ReducerOutcome>> =
        reducers.into_iter().map(|reducer| reducer.join()).collect();
    let mut remaining = Vec::new();
    let mut combined = MergeReport::default();
    for result in results {
        match result {
            Ok(outcome) => {
                let (member_remaining, report) = outcome?;
                remaining.extend(member_remaining);
                combined.merge_steps += report.merge_steps;
                combined.records_written += report.records_written;
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    Ok((remaining, combined))
}

/// Merges one stripe member's runs down to at most one run *on that member*.
///
/// Runs single-threaded with inline [`BufferedCursor`] sources (no prefetch
/// threads), so the member observes one strictly deterministic read
/// interleaving — which keeps its seek counters reproducible even when
/// several generation shards spilled to the same disk. `device` must be the
/// member-pinned shard view, so the merged output lands on the same disk the
/// inputs live on.
fn reduce_disk_runs<D: Device, R: SortableRecord>(
    device: &D,
    namer: &SpillNamer,
    runs: Vec<RunHandle>,
    merge: MergeConfig,
    cancel: &CancellationToken,
) -> Result<(Vec<RunHandle>, MergeReport)> {
    if runs.len() <= 1 {
        return Ok((runs, MergeReport::default()));
    }
    let ReducedRuns {
        remaining,
        mut report,
    } = reduce_to_fan_in::<BufferedCursor<R>, R, D>(device, namer, runs, merge, cancel)?;
    if remaining.len() <= 1 {
        return Ok((remaining, report));
    }
    // Pass boundary before the fold into the member's single run.
    cancel.check()?;
    let name = namer.next_name("disk");
    let written = merge_step::<BufferedCursor<R>, R, D>(
        device,
        &remaining,
        &name,
        merge.read_ahead_records,
        cancel,
    )?;
    report.merge_steps += 1;
    report.records_written += written;
    Ok((vec![RunHandle::Forward(name)], report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::replacement_selection::ReplacementSelection;
    use crate::sort_job::SortJob;
    use twrs_storage::ModelId;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn merge() -> MergeConfig {
        MergeConfig {
            fan_in: 4,
            read_ahead_records: 64,
        }
    }

    fn read_records<D: Device>(device: &D, name: &str) -> Vec<Record> {
        RunCursor::<Record>::open(device, &RunHandle::Forward(name.into()))
            .unwrap()
            .read_all()
            .unwrap()
    }

    #[test]
    fn shard_budgets_sum_to_the_total() {
        for (total, shards) in [(100, 4), (101, 4), (7, 7), (1_000, 3), (13, 5)] {
            let sum: usize = (0..shards).map(|i| shard_budget(total, i, shards)).sum();
            assert_eq!(sum, total, "total {total} over {shards} shards");
        }
        // Degenerate: fewer records than shards — every shard still gets 1.
        for i in 0..4 {
            assert_eq!(shard_budget(2, i, 4), 1);
        }
    }

    #[test]
    fn parallel_sort_matches_sequential_output() {
        let input = || Distribution::new(DistributionKind::RandomUniform, 4_000, 5).records();
        for threads in [1, 2, 3, 5] {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            SortJob::new(ReplacementSelection::new(120))
                .on(&device)
                .merge(merge())
                .verify(true)
                .run_iter(input(), "seq")
                .unwrap();
            let report = SortJob::new(ReplacementSelection::new(120))
                .on(&device)
                .threads(threads)
                .merge(merge())
                .verify(true)
                .run_iter(input(), "par")
                .unwrap();

            assert_eq!(report.threads, threads);
            assert_eq!(report.report.records, 4_000);
            assert!(report.io_is_consistent());
            assert_eq!(
                read_records(&device, "seq"),
                read_records(&device, "par"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn striped_parallel_sort_matches_single_disk_and_pins_per_disk_seeks() {
        use twrs_storage::DeviceSpec;

        let threads = 4;
        let sort = |device: &twrs_storage::AnyDevice| {
            let input = Distribution::new(DistributionKind::RandomUniform, 4_000, 5).records();
            SortJob::new(ReplacementSelection::new(120))
                .on(device)
                .threads(threads)
                .merge(merge())
                .verify(true)
                .run_iter(input, "out")
                .unwrap()
        };
        let single = twrs_storage::AnyDevice::Sim(SimDevice::with_model(ModelId::Hdd7200));
        sort(&single);
        let expected = read_records(&single, "out");

        let run_striped = || {
            let spec: DeviceSpec = "striped:4:sim:hdd-7200".parse().unwrap();
            let device = spec.build().unwrap();
            let report = sort(&device);
            assert!(report.io_is_consistent());
            let members = device.as_striped().unwrap().member_stats();
            let totals = device.stats();
            // Per-member counters sum to the stripe totals.
            assert_eq!(
                members.iter().map(|m| m.counters.seeks).sum::<u64>(),
                totals.counters.seeks
            );
            assert_eq!(
                members.iter().map(|m| m.pages_total()).sum::<u64>(),
                totals.pages_total()
            );
            // Every member actually saw spill traffic.
            assert!(members.iter().all(|m| m.counters.pages_written > 0));
            let seeks: Vec<u64> = members.iter().map(|m| m.counters.seeks).collect();
            (read_records(&device, "out"), seeks)
        };
        let (records_a, seeks_a) = run_striped();
        let (records_b, seeks_b) = run_striped();
        // Byte-identical to the single-disk sort, and per-disk seek counts
        // reproduce exactly across runs even at four threads.
        assert_eq!(records_a, expected);
        assert_eq!(records_b, expected);
        assert_eq!(seeks_a, seeks_b);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let report = SortJob::new(LoadSortStore::new(64))
            .on(&device)
            .threads(4)
            .merge(merge())
            .verify(true)
            .run_iter(std::iter::empty::<Record>(), "out")
            .unwrap();
        assert_eq!(report.report.records, 0);
        assert_eq!(report.report.num_runs, 0);
        assert!(report.io_is_consistent());
        assert!(read_records(&device, "out").is_empty());
    }

    #[test]
    fn zero_threads_is_rejected() {
        // Every output kind validates the thread count before any I/O.
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let job = SortJob::new(LoadSortStore::new(64)).on(&device).threads(0);
        let mut sink = crate::sink::VecSink::new();
        assert!(matches!(
            job.clone()
                .sink_iter(std::iter::empty::<Record>(), &mut sink),
            Err(SortError::InvalidConfig(_))
        ));
        assert!(matches!(
            job.stream_iter(std::iter::empty::<Record>()),
            Err(SortError::InvalidConfig(_))
        ));
        assert!(device.list().is_empty());
    }

    #[test]
    fn temporary_files_are_cleaned_up() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let input = Distribution::new(DistributionKind::MixedBalanced, 2_000, 2).records();
        SortJob::new(ReplacementSelection::new(50))
            .on(&device)
            .threads(3)
            .merge(merge())
            .run_iter(input, "final")
            .unwrap();
        assert_eq!(device.list(), vec!["final".to_string()]);
    }

    #[test]
    fn spill_device_defers_writes_until_flush_barrier() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let spill = SpillWriteDevice::new(device.clone(), 16);
        let page = vec![42u8; device.page_size()];
        let mut file = spill.create("f").unwrap();
        file.write_page(0, &page).unwrap();
        file.write_page(1, &page).unwrap();
        assert_eq!(file.num_pages(), 2);
        file.flush().unwrap();
        // After the barrier, the wrapped device has both pages.
        let mut direct = device.open("f").unwrap();
        assert_eq!(direct.num_pages(), 2);
        let mut buf = vec![0u8; device.page_size()];
        direct.read_page(1, &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn spill_device_read_page_sees_queued_writes() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let spill = SpillWriteDevice::new(device.clone(), 16);
        let page = vec![7u8; device.page_size()];
        let mut file = spill.create("f").unwrap();
        file.write_page(0, &page).unwrap();
        let mut buf = vec![0u8; device.page_size()];
        file.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn spill_device_rejects_wrong_page_size() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let spill = SpillWriteDevice::new(device, 4);
        let mut file = spill.create("f").unwrap();
        assert!(matches!(
            file.write_page(0, &[0u8; 3]),
            Err(StorageError::PageSizeMismatch { .. })
        ));
    }
}
