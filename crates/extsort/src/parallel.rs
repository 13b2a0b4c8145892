//! The threaded stages of the sort pipeline: what a
//! [`SortJob`](crate::SortJob) with `threads > 1` runs instead of the
//! inline ones.
//!
//! The input is cut into parcels of `INPUT_BATCH_RECORDS` (256) records,
//! and parcel `i` goes to shard worker `i % threads`. Each worker runs its
//! own clone of the run-generation algorithm — any [`RunGenerator`] plugs
//! in — with a proportional slice of the memory budget (see
//! [`ShardableGenerator`]), so total memory stays fixed while the heap
//! work parallelises.
//!
//! Helper threads hide device latency, so they run only on a device with
//! some ([`StorageDevice::has_wall_clock_latency`]): each worker then
//! spills through a [`SpillWriteDevice`], whose writer thread performs the
//! page writes while the heaps keep going, and every run of the merge
//! passes (not of a stripe's per-disk reduction) is read by a prefetch
//! thread a few read-ahead batches ahead of the loser tree. On a device
//! whose I/O costs no wall-clock time, like `SimDevice`, a sharded sort
//! runs only its shards and, on a stripe, its per-disk reducers. A spill
//! write that fails on a writer thread fails the sort with its own error.
//!
//! Every hand-off between threads goes through one bounded batch channel
//! (`batch_channel`): a message carries 16 parcels to a shard, up to 16
//! page writes to a spill writer, or 4 read-ahead batches to the merge, and
//! the receiver returns each emptied buffer for the next message. So a
//! thread wakes its peer once per message rather than once per unit, and a
//! steady-state sort allocates no buffer per unit. Batching changes only
//! when a unit crosses a thread boundary: every shard gets the same records
//! in the same order, every file the same page writes in the same order,
//! and every run is read page for page as it would be one batch at a time.
//!
//! On a striped device (`twrs_storage::StripedDevice`) each shard spills
//! through a member-pinned shard view (shard `i` → member `i % members`),
//! and before the global merge a per-disk reduction folds every member's
//! runs into at most one run *on that member*, each by the ordinary merge
//! planner on a reducer thread of its own, so each member's read order
//! and seek count stay deterministic.
//!
//! Because [`SortableRecord`] requires a *total* order, the fully merged
//! output is **byte-identical** for every thread count — the equivalence
//! test suite (`tests/parallel_equivalence.rs`) pins this. Per-shard I/O
//! recorded on [`ScopedDevice`]s provides the breakdown of the generation
//! phase; the shards perform all of its writes, so the aggregated
//! `pages_written` equals the shard sum by construction.
//!
//! Every thread starts through `thread::Builder`, so an operating system
//! that refuses one fails the sort with an error, after the threads that
//! did start have been joined, instead of panicking.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::merge::kway::{reduce_to_fan_in, MergeConfig, MergeReport};
use crate::run_generation::{
    buffer_capacity, Device, Feed, RecordSource, RunGenerator, RunHandle, RunSet,
    INPUT_BATCH_RECORDS,
};
use crate::sync::lock_or_poison;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use twrs_storage::{
    IoStatsSnapshot, PageFile, RunReader, ScopedDevice, SortableRecord, SpillNamer, StorageDevice,
    StorageError,
};

/// Parcels of [`INPUT_BATCH_RECORDS`] (256) per message from the dealer
/// to one shard; parcel `i` goes to shard `i % threads`, which fixes every
/// shard's records and their order for any input. Each shard's channel
/// queues `SHARD_QUEUE_MESSAGES` (2) messages, so at most
/// 2 × 16 × 256 = 8,192 records wait for one shard, plus one message the
/// dealer is filling and one the shard is draining: 16,384 records per
/// shard in flight.
const SHARD_MESSAGE_PARCELS: usize = 16;
/// Messages queued on each shard's input channel: two of at most 4,096
/// records each.
const SHARD_QUEUE_MESSAGES: usize = 2;
/// Records in one full dealer message: 4,096.
const SHARD_MESSAGE_RECORDS: usize = SHARD_MESSAGE_PARCELS * INPUT_BATCH_RECORDS;
/// Page writes per message from a shard's spill device to its writer
/// thread, kept in the order they were issued. At most this many pages
/// wait on the shard's side before they are sent.
const SPILL_BATCH_PAGES: usize = 16;
/// Pages queued on each shard's spill-writer channel: 64 / 16 = 4
/// messages. With the batch pending on the shard's side and the one the
/// writer is applying, at most 96 pages of one shard are in flight.
const SPILL_QUEUE_PAGES: usize = 64;
/// Read-ahead batches per message from a merge prefetch thread. The
/// channel queues one message, so one run has at most three messages —
/// 12 batches of `read_ahead` records — in flight: one queued, one the
/// thread is reading and one the merge is consuming.
const PREFETCH_BATCHES: usize = 4;

/// Starts a named library thread. An operating system that refuses the
/// thread yields an error here, where `thread::spawn` would panic.
fn spawn<T, F>(name: String, work: F) -> Result<JoinHandle<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(work)
        .map_err(|e| SortError::Storage(StorageError::Io(e)))
}

/// Joins every worker before reporting anything, so none is left running
/// (and writing spill files) after an error. Then fails with `refused`, a
/// thread the operating system refused, if there was one; otherwise
/// returns the workers' results in order up to the first error, resuming
/// a worker's panic on the way.
fn join_all<T>(workers: Vec<JoinHandle<Result<T>>>, refused: Option<SortError>) -> Result<Vec<T>> {
    let results: Vec<std::thread::Result<Result<T>>> =
        workers.into_iter().map(JoinHandle::join).collect();
    if let Some(e) = refused {
        return Err(e);
    }
    results
        .into_iter()
        .map(|result| result.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        .collect()
}

// ---------------------------------------------------------------------------
// The hand-off between threads
// ---------------------------------------------------------------------------

/// The sending end of a bounded batch channel.
struct BatchSender<B> {
    full: SyncSender<B>,
    empty: Receiver<B>,
}

/// The receiving end of a bounded batch channel; it returns each emptied
/// buffer to the sender for reuse.
pub(crate) struct BatchReceiver<B> {
    full: Receiver<B>,
    empty: SyncSender<B>,
}

/// A channel queuing at most `depth` batches. Up to `depth + 2` emptied
/// buffers travel back, one for every batch that can be in flight:
/// queued, being filled and being emptied.
fn batch_channel<B>(depth: usize) -> (BatchSender<B>, BatchReceiver<B>) {
    let (full_tx, full_rx) = sync_channel(depth);
    let (empty_tx, empty_rx) = sync_channel(depth + 2);
    (
        BatchSender {
            full: full_tx,
            empty: empty_rx,
        },
        BatchReceiver {
            full: full_rx,
            empty: empty_tx,
        },
    )
}

impl<B> BatchSender<B> {
    /// A buffer the receiver emptied, if one is back.
    fn recycled(&self) -> Option<B> {
        self.empty.try_recv().ok()
    }

    /// Queues `batch`, waiting while the channel is full; `false` once the
    /// receiver is gone.
    fn send(&self, batch: B) -> bool {
        self.full.send(batch).is_ok()
    }
}

impl<B> BatchReceiver<B> {
    /// The next batch; `None` once the sender is gone and every batch it
    /// sent has been received.
    fn recv(&self) -> Option<B> {
        self.full.recv().ok()
    }

    /// Hands an emptied buffer back to the sender.
    fn give_back(&self, buffer: B) {
        // A full return queue means the sender has spares enough.
        let _ = self.empty.try_send(buffer);
    }
}

impl<T> BatchReceiver<Vec<T>> {
    /// Hands the drained `current` back and replaces it with the next
    /// batch, reversed so that popping yields the batch in order; `false`
    /// once the sender is gone.
    pub(crate) fn next_into(&self, current: &mut Vec<T>) -> bool {
        let drained = std::mem::take(current);
        if drained.capacity() > 0 {
            self.give_back(drained);
        }
        match self.recv() {
            Some(mut batch) => {
                batch.reverse();
                *current = batch;
                true
            }
            None => false,
        }
    }
}

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

/// Spill operations in the order they were issued, bound for one spill
/// writer.
#[derive(Default)]
struct SpillBatch {
    ops: Vec<SpillOp>,
    /// The page image of every [`SpillOp::Write`] in `ops`, back to back.
    pages: Vec<u8>,
}

/// One operation for the spill writer.
enum SpillOp {
    /// Register a freshly created file under an id.
    Attach {
        file: u64,
        handle: Box<dyn PageFile>,
    },
    /// Write the batch's next page image as page `page` of `file`.
    Write { file: u64, page: u64 },
    /// Flush `file` (every attached file for `None`) and acknowledge with
    /// the first failure so far.
    Flush {
        file: Option<u64>,
        ack: SyncSender<twrs_storage::Result<()>>,
    },
    /// Forget an attached file; its writes were all issued before.
    Detach { file: u64 },
}

/// The generation side of one spill writer's channel.
struct SpillQueue {
    /// `None` once the device is dropped.
    sender: Option<BatchSender<SpillBatch>>,
    /// Operations not sent yet, with fewer than `SPILL_BATCH_PAGES` writes.
    pending: SpillBatch,
}

impl SpillQueue {
    /// Sends the pending operations, if any, as one message.
    fn send_pending(&mut self) -> twrs_storage::Result<()> {
        if self.pending.ops.is_empty() {
            return Ok(());
        }
        let sender = self.sender.as_ref().ok_or_else(writer_gone)?;
        let fresh = sender.recycled().unwrap_or_default();
        if sender.send(std::mem::replace(&mut self.pending, fresh)) {
            Ok(())
        } else {
            Err(writer_gone())
        }
    }
}

struct SpillShared {
    queue: Mutex<SpillQueue>,
    worker: Option<JoinHandle<()>>,
    next_file_id: AtomicU64,
    /// Bytes of page images per message.
    batch_bytes: usize,
}

impl SpillShared {
    /// Queues `op` behind every operation issued before it.
    fn push(&self, op: SpillOp) {
        lock_or_poison(&self.queue).pending.ops.push(op);
    }

    /// Queues one page write; a full batch of them goes to the writer at
    /// once.
    fn write(&self, file: u64, page: u64, data: &[u8]) -> twrs_storage::Result<()> {
        let mut queue = lock_or_poison(&self.queue);
        queue.pending.ops.push(SpillOp::Write { file, page });
        queue.pending.pages.extend_from_slice(data);
        if queue.pending.pages.len() < self.batch_bytes {
            return Ok(());
        }
        queue.send_pending()
    }

    /// Sends the pending operations and a flush of `file` (every attached
    /// file for `None`), and waits until the writer has applied them.
    fn flush(&self, file: Option<u64>) -> twrs_storage::Result<()> {
        let (ack, acked) = sync_channel(1);
        {
            let mut queue = lock_or_poison(&self.queue);
            queue.pending.ops.push(SpillOp::Flush { file, ack });
            queue.send_pending()?;
        }
        acked.recv().map_err(|_| writer_gone())?
    }
}

impl Drop for SpillShared {
    fn drop(&mut self) {
        // Every file handle keeps this state alive, so nothing is issued
        // after this point. Send what is pending and disconnect, so the
        // writer drains its queue and exits, then wait for it: queued
        // writes are never lost.
        let mut queue = lock_or_poison(&self.queue);
        let _ = queue.send_pending();
        queue.sender = None;
        drop(queue);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn writer_gone() -> StorageError {
    StorageError::Io(std::io::Error::other("spill writer thread is not running"))
}

/// A device wrapper that moves page writes off the calling thread onto one
/// dedicated writer thread, connected by a bounded channel.
///
/// Run generation pushes records as fast as its heaps allow while the writer
/// thread performs the actual page writes, so CPU work overlaps spill I/O;
/// when the writer falls behind, the bounded queue blocks the generator
/// (back-pressure) instead of buffering unboundedly. Operations travel in
/// the order they were issued, in messages of up to 16 page writes; a
/// message is sent when it holds 16 writes, at every flush, read, `open`,
/// `remove` or barrier, and when the last handle of the device is dropped.
/// [`PageFile::flush`] is a barrier: it returns once every previously
/// issued write of that file has been applied, which is what makes the run
/// files safe to read after `RunWriter::finish`. Reads and `open` flush the
/// queue first and then go straight to the wrapped device. Every other
/// call [forwards](twrs_storage::device::Forward) to the wrapped device.
#[derive(Clone)]
pub struct SpillWriteDevice<D: Device> {
    inner: D,
    shared: Arc<SpillShared>,
}

impl<D: Device> SpillWriteDevice<D> {
    /// Wraps `inner`, spawning the writer thread with a queue of at most
    /// `queue_depth` page writes.
    ///
    /// If the operating system refuses the writer thread, every later
    /// operation of the device that reaches the writer fails with an I/O
    /// error.
    pub fn new(inner: D, queue_depth: usize) -> Self {
        let depth = queue_depth.max(1);
        let batch_pages = SPILL_BATCH_PAGES.min(depth);
        let (sender, batches) = batch_channel(depth / batch_pages);
        let page_size = inner.page_size();
        // A refused writer drops the receiving end with the closure, so the
        // device reports `writer_gone` on the first message.
        let worker = spawn("twrs-spill-writer".into(), move || {
            spill_writer_loop(batches, page_size)
        })
        .ok();
        SpillWriteDevice {
            inner,
            shared: Arc::new(SpillShared {
                queue: Mutex::new(SpillQueue {
                    sender: Some(sender),
                    pending: SpillBatch::default(),
                }),
                worker,
                next_file_id: AtomicU64::new(1),
                batch_bytes: batch_pages * page_size,
            }),
        }
    }

    /// Waits until every issued write has been applied and flushed, and
    /// surfaces any error the writer thread encountered.
    pub fn barrier(&self) -> twrs_storage::Result<()> {
        self.shared.flush(None)
    }
}

/// The writer thread: applies operations in order, remembers the first
/// failure, skips every write after it and reports it at each later flush
/// (as it was at the first, then through `echo`).
fn spill_writer_loop(batches: BatchReceiver<SpillBatch>, page_size: usize) {
    let mut files: HashMap<u64, Box<dyn PageFile>> = HashMap::new();
    let mut failure: Option<StorageError> = None;
    while let Some(mut batch) = batches.recv() {
        let mut pages = batch.pages.chunks(page_size.max(1));
        for op in batch.ops.drain(..) {
            match op {
                SpillOp::Attach { file, handle } => {
                    files.insert(file, handle);
                }
                SpillOp::Write { file, page } => {
                    let data = pages.next().unwrap_or_default();
                    if failure.is_none() {
                        failure = apply_write(&mut files, file, page, data).err();
                    }
                }
                SpillOp::Flush { file, ack } => {
                    if failure.is_none() {
                        failure = flush_files(&mut files, file).err();
                    }
                    let _ = ack.send(failure.take().map_or(Ok(()), |e| {
                        failure = Some(echo(&e));
                        Err(e)
                    }));
                }
                SpillOp::Detach { file } => {
                    files.remove(&file);
                }
            }
        }
        batch.pages.clear();
        batches.give_back(batch);
    }
}

/// `e`'s kind and message as an I/O error, for the barriers after `e`'s.
fn echo(e: &StorageError) -> StorageError {
    StorageError::Io(match e {
        StorageError::Io(io) => std::io::Error::new(io.kind(), io.to_string()),
        other => std::io::Error::other(other.to_string()),
    })
}

fn apply_write(
    files: &mut HashMap<u64, Box<dyn PageFile>>,
    file: u64,
    page: u64,
    data: &[u8],
) -> twrs_storage::Result<()> {
    match files.get_mut(&file) {
        Some(handle) => handle.write_page(page, data),
        None => Err(StorageError::NotFound(format!("spill file {file}"))),
    }
}

/// Flushes attached file `file`, or every attached file for `None`.
fn flush_files(
    files: &mut HashMap<u64, Box<dyn PageFile>>,
    file: Option<u64>,
) -> twrs_storage::Result<()> {
    match file {
        Some(id) => files.get_mut(&id).map_or(Ok(()), |handle| handle.flush()),
        None => files.values_mut().try_for_each(|handle| handle.flush()),
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
        self.device.shared.write(self.file, index, data)
    }

    fn flush(&mut self) -> twrs_storage::Result<()> {
        self.device.shared.flush(Some(self.file))
    }
}

impl<D: Device> Drop for SpillPageFile<D> {
    fn drop(&mut self) {
        self.device.shared.push(SpillOp::Detach { file: self.file });
    }
}

impl<D: Device> twrs_storage::device::Forward for SpillWriteDevice<D> {
    fn target(&self) -> &dyn StorageDevice {
        &self.inner
    }

    /// The same writer thread over the inner device's shard view.
    fn shard_view(&self, index: usize) -> Self {
        SpillWriteDevice {
            inner: self.inner.shard_view(index),
            shared: Arc::clone(&self.shared),
        }
    }

    fn create(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        // Created eagerly on the wrapped device so the name exists at once;
        // only the page writes are deferred.
        let handle = self.inner.create(name)?;
        let file = self.shared.next_file_id.fetch_add(1, Ordering::Relaxed);
        self.shared.push(SpillOp::Attach { file, handle });
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
}

// ---------------------------------------------------------------------------
// Merge prefetching
// ---------------------------------------------------------------------------

/// The thread reading one merge input run ahead of the merge, and the
/// channel its batches arrive on.
pub(crate) type Prefetch<R> = (BatchReceiver<Vec<R>>, JoinHandle<Result<()>>);

/// Starts a prefetch thread that reads `reader` in `read_ahead`-record
/// batches, [`PREFETCH_BATCHES`] to a message, staying one queued message
/// ahead of the merge. The thread ends when the run does, when the merge
/// hangs up, or at a read error, which its handle returns; the channel
/// closes when it ends.
pub(crate) fn prefetch<R: SortableRecord>(
    mut reader: RunReader<R>,
    read_ahead: usize,
) -> Result<Prefetch<R>> {
    let capacity = buffer_capacity(read_ahead.saturating_mul(PREFETCH_BATCHES), &reader);
    let (sender, batches) = batch_channel(1);
    let worker = spawn("twrs-prefetch".into(), move || -> Result<()> {
        loop {
            let mut message = sender
                .recycled()
                .unwrap_or_else(|| Vec::with_capacity(capacity));
            // The same `read_batch` calls as one batch per message would
            // make, so the run's pages are read in the same sequence.
            let mut finished = false;
            for _ in 0..PREFETCH_BATCHES {
                if reader.read_batch(&mut message, read_ahead)? < read_ahead {
                    finished = true;
                    break;
                }
            }
            // A merge that hung up (an error path, a dropped stream) stops
            // the thread quietly.
            if (!message.is_empty() && !sender.send(message)) || finished {
                return Ok(());
            }
        }
    })?;
    Ok((batches, worker))
}

// ---------------------------------------------------------------------------
// Sharded generation
// ---------------------------------------------------------------------------

/// What one generation shard did: its slice of the input, its runs and the
/// I/O its worker (including its spill writer, if it has one) performed,
/// measured on the shard's own [`ScopedDevice`].
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

/// The dealer's side of the shards' input channels.
struct Dealer<R> {
    /// Per shard, its channel; `None` once the shard hung up.
    senders: Vec<Option<BatchSender<Vec<R>>>>,
    /// Per shard, the message being filled.
    messages: Vec<Vec<R>>,
    /// Shards still taking input.
    live: usize,
}

impl<R> Dealer<R> {
    /// The message being filled for `shard`, on a recycled buffer when a
    /// new one starts.
    fn message(&mut self, shard: usize) -> &mut Vec<R> {
        let message = &mut self.messages[shard];
        if message.capacity() == 0 {
            *message = self.senders[shard]
                .as_ref()
                .and_then(BatchSender::recycled)
                .unwrap_or_else(|| Vec::with_capacity(SHARD_MESSAGE_RECORDS));
        }
        message
    }

    /// Sends `shard`'s message, if it holds any records. A shard that
    /// failed early has dropped its receiver: it gets nothing more, and
    /// the join surfaces its error.
    fn send(&mut self, shard: usize) {
        let message = &mut self.messages[shard];
        if message.is_empty() {
            return;
        }
        match &self.senders[shard] {
            Some(sender) => {
                if !sender.send(std::mem::take(message)) {
                    self.senders[shard] = None;
                    self.live -= 1;
                }
            }
            None => message.clear(),
        }
    }
}

/// Spawns `threads` generation workers, deals `input` to them round-robin
/// and joins them all. Each worker spills through a [`SpillWriteDevice`]
/// when `spill_writers` is set, and straight to its device otherwise.
/// Returns every run in shard order — shard 0's runs first — and one
/// [`ShardReport`] per shard.
pub(crate) fn generate_sharded<G, D, R, I>(
    generator: &G,
    threads: usize,
    spill_writers: bool,
    device: &D,
    namer: &Arc<SpillNamer>,
    cancel: &CancellationToken,
    input: &mut RecordSource<R, I>,
) -> Result<(RunSet, Vec<ShardReport>)>
where
    G: ShardableGenerator,
    D: Device,
    R: SortableRecord,
    I: Iterator<Item = R>,
{
    let mut senders = Vec::with_capacity(threads);
    let mut workers = Vec::with_capacity(threads);
    let mut refused = None;
    for index in 0..threads {
        let (sender, messages) = batch_channel(SHARD_QUEUE_MESSAGES);
        let cancel = cancel.clone();
        let mut generator = generator.shard(index, threads);
        // On a striped device the shard view pins this worker's spill
        // files to stripe member `index % members` (plain devices return
        // a clone), so each shard's write traffic — and later its
        // reduction merge — stays on one disk.
        let scoped = ScopedDevice::new(device.shard_view(index));
        let namer = Arc::clone(namer);
        let spawned = spawn(
            format!("twrs-shard-{index}"),
            move || -> Result<(RunSet, IoStatsSnapshot)> {
                let dealt = Feed::Thread {
                    messages,
                    worker: None,
                };
                let mut shard_input: RecordSource<R> = RecordSource::new(dealt, cancel);
                let set = if spill_writers {
                    let spill = SpillWriteDevice::new(scoped.clone(), SPILL_QUEUE_PAGES);
                    let set = generator.generate(&spill, namer.as_ref(), &mut shard_input)?;
                    // Drain the spill queue (and surface writer errors)
                    // before reading the shard's I/O statistics.
                    spill.barrier()?;
                    set
                } else {
                    generator.generate(&scoped, namer.as_ref(), &mut shard_input)?
                };
                Ok((set, scoped.stats()))
            },
        );
        match spawned {
            Ok(worker) => {
                senders.push(Some(sender));
                workers.push(worker);
            }
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }

    // Deal the input in round-robin parcels, packed into one message per
    // shard until it holds `SHARD_MESSAGE_PARCELS` of them. When every
    // worker is gone there is no point draining the rest of the input.
    // After a refused spawn nothing is dealt: the started shards see their
    // input end, and the join below waits for them.
    let mut dealer = Dealer {
        live: if refused.is_none() { senders.len() } else { 0 },
        messages: senders.iter().map(|_| Vec::new()).collect(),
        senders,
    };
    let mut shard = 0usize;
    while dealer.live > 0 {
        let message = dealer.message(shard);
        let before = message.len();
        message.extend(input.by_ref().take(INPUT_BATCH_RECORDS));
        let after = message.len();
        if after == before {
            break;
        }
        if after >= SHARD_MESSAGE_RECORDS {
            dealer.send(shard);
        }
        shard = (shard + 1) % threads;
    }
    // The source polls the token at every refill and ends early once it is
    // set; a canceled sort then sends the shards nothing more, and the
    // generate stage's check surfaces the cancellation.
    if !cancel.is_canceled() {
        for shard in 0..dealer.messages.len() {
            dealer.send(shard);
        }
    }
    drop(dealer);

    let mut run_set = RunSet::default();
    let mut shards = Vec::with_capacity(threads);
    for (index, (set, io)) in join_all(workers, refused)?.into_iter().enumerate() {
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
/// `i`'s spill files to member `i % members`, so each member's runs are
/// merged down to one by the ordinary merge planner
/// ([`reduce_to_fan_in`] with one run to stop at) on the member-pinned
/// view, on its own thread: the merged outputs land on the disk their
/// inputs live on, and since the reducer reads its inputs inline, one at a
/// time, each member sees one deterministic read order no matter how the
/// reducer threads interleave — each touches a different disk's head. The
/// survivors (≤ one per member) then feed the ordinary merge passes, whose
/// final pass reads at most one run per member and is therefore
/// deterministic too. This is what restores concrete per-disk seek
/// counters at `threads > 1`.
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
    let mut refused = None;
    for (disk, member_runs) in disk_runs.into_iter().enumerate() {
        let view = device.shard_view(disk);
        let namer = Arc::clone(namer);
        let cancel = cancel.clone();
        let spawned = spawn(format!("twrs-reducer-{disk}"), move || {
            reduce_to_fan_in::<R>(&view, namer.as_ref(), member_runs, merge, 1, false, &cancel)
        });
        match spawned {
            Ok(reducer) => reducers.push(reducer),
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }
    let mut remaining = Vec::new();
    let mut combined = MergeReport::default();
    for (member_remaining, report) in join_all(reducers, refused)? {
        remaining.extend(member_remaining);
        combined.merge_steps += report.merge_steps;
        combined.records_written += report.records_written;
    }
    Ok((remaining, combined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_sort_store::LoadSortStore;
    use crate::replacement_selection::ReplacementSelection;
    use crate::sort_job::SortJob;
    use twrs_storage::ModelId;
    use twrs_storage::RunReader;
    use twrs_storage::SimDevice;
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn merge() -> MergeConfig {
        MergeConfig {
            fan_in: 4,
            read_ahead_records: 64,
        }
    }

    fn read_records<D: Device>(device: &D, name: &str) -> Vec<Record> {
        RunReader::<Record>::open(device, name)
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
    fn spill_device_handle_dropped_with_pending_pages_loses_none() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let spill = SpillWriteDevice::new(device.clone(), SPILL_QUEUE_PAGES);
        let pages: Vec<Vec<u8>> = (1..=3u8)
            .map(|fill| vec![fill; device.page_size()])
            .collect();
        // Fewer pages than a batch and no flush: all three are still
        // pending on this side when the handles go.
        let mut file = spill.create("f").unwrap();
        for (index, page) in pages.iter().enumerate() {
            file.write_page(index as u64, page).unwrap();
        }
        drop(spill);
        drop(file);
        // Dropping the last handle joined the writer thread, so the wrapped
        // device holds every page without a barrier.
        let mut direct = device.open("f").unwrap();
        assert_eq!(direct.num_pages(), 3);
        let mut buf = vec![0u8; device.page_size()];
        for (index, page) in pages.iter().enumerate() {
            direct.read_page(index as u64, &mut buf).unwrap();
            assert_eq!(&buf, page);
        }
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
