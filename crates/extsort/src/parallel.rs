//! The threaded stages of the sort pipeline: what a
//! [`SortJob`](crate::SortJob) with `threads > 1` runs instead of the
//! inline ones.
//!
//! At one thread the pipeline ([`sorter`](crate::sorter)) generates runs on
//! the calling thread, so heap work, spill writes and merge reads all
//! serialise. With more threads it keeps the exact same building blocks —
//! any [`RunGenerator`] plugs in unchanged — and overlaps the three:
//!
//! 1. **Sharded generation.** The input stream is cut into parcels of
//!    `SHARD_BATCH_RECORDS` (256) records, and parcel `i` goes to worker
//!    `i % threads`. Each worker runs its own clone of the run-generation
//!    algorithm with a proportional slice of the memory budget (see
//!    [`ShardableGenerator`]), so total memory stays fixed while the heap
//!    work parallelises.
//! 2. **Asynchronous spilling.** Each worker writes its runs through a
//!    [`SpillWriteDevice`], which ships page writes over a bounded channel
//!    to a dedicated writer thread; heap operations overlap spill I/O, and
//!    the bounded queue applies back-pressure so memory stays bounded.
//! 3. **Prefetched merging.** Every merge step reads each input run through
//!    a background prefetch thread that stays a few read-ahead batches
//!    ahead of the loser tree.
//!
//! Every hand-off between threads moves data in bulk, on recycled
//! buffers: one channel message carries 16 parcels to a shard, up to 16
//! page writes to a spill writer, or 4 read-ahead batches to the merge,
//! and the receiver sends each emptied buffer back for the next message.
//! So a thread wakes its peer once per message rather than once per
//! parcel, page or batch, and a steady-state sort allocates no buffer per
//! unit. Batching changes only when a unit crosses a thread boundary:
//! every shard gets the same records in the same order, every file the
//! same page writes in the same order, and every run is read page for
//! page as it would be one batch at a time.
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
//!
//! Every thread starts through `thread::Builder`, so an operating system
//! that refuses one fails the sort with an error, after the threads that
//! did start have been joined, instead of panicking.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::merge::kway::{
    buffer_capacity, merge_step, reduce_to_fan_in, BufferedCursor, MergeConfig, MergeReport,
    MergeSource, ReducedRuns, RunSource,
};
use crate::run_generation::{Device, RunCursor, RunGenerator, RunHandle, RunSet};
use crate::sync::lock_or_poison;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use twrs_storage::{
    IoStatsSnapshot, PageFile, ScopedDevice, SortableRecord, SpillNamer, StorageDevice,
    StorageError,
};

/// Records per round-robin parcel when dealing the input to shards: parcel
/// `i` goes to shard `i % threads`, which fixes every shard's records and
/// their order for any input.
const SHARD_BATCH_RECORDS: usize = 256;
/// Parcels per message from the dealer to one shard. Each shard's channel
/// queues `SHARD_QUEUE_MESSAGES` (2) messages, so at most
/// 2 × 16 × 256 = 8,192 records wait for one shard, plus one message the
/// dealer is filling and one the shard is draining: 16,384 records per
/// shard in flight.
const SHARD_MESSAGE_PARCELS: usize = 16;
/// Messages queued on each shard's input channel: two of at most 4,096
/// records each.
const SHARD_QUEUE_MESSAGES: usize = 2;
/// Records in one full dealer message: 4,096.
const SHARD_MESSAGE_RECORDS: usize = SHARD_MESSAGE_PARCELS * SHARD_BATCH_RECORDS;
/// Page writes per message from a shard's spill device to its writer
/// thread, kept in the order they were issued. At most this many pages
/// wait on the shard's side before they are sent.
const SPILL_BATCH_PAGES: usize = 16;
/// Pages queued on each shard's spill-writer channel: 64 / 16 = 4
/// messages. With the batch pending on the shard's side and the one the
/// writer is applying, at most 96 pages of one shard are in flight.
const SPILL_QUEUE_PAGES: usize = 64;
/// Read-ahead batches per message from a merge prefetch thread. The
/// channel queues one message, so one source has at most three messages —
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

/// Page writes in the order they were issued, bound for one spill writer:
/// the target of each write, and the page images back to back.
#[derive(Default)]
struct PageBatch {
    /// `(file, page)` of each write.
    writes: Vec<(u64, u64)>,
    /// One page image per write, in the same order.
    data: Vec<u8>,
}

/// Operations shipped from the generation thread to the spill writer.
enum SpillOp {
    /// Register a freshly created file under an id.
    Attach {
        file: u64,
        handle: Box<dyn PageFile>,
    },
    /// Apply a batch of page writes, in order, to attached files; the
    /// emptied batch goes back for reuse.
    Write(PageBatch),
    /// Apply every write queued so far, flush (`file = None` flushes all
    /// attached files) and acknowledge.
    Flush {
        file: Option<u64>,
        ack: SyncSender<twrs_storage::Result<()>>,
    },
    /// Forget an attached file (its writes have all been queued before).
    Detach { file: u64 },
}

/// The generation side of one spill writer's channel.
struct SpillQueue {
    /// `None` once the device is dropped.
    sender: Option<SyncSender<SpillOp>>,
    /// Page writes not sent yet, at most `batch_pages` of them.
    pending: PageBatch,
    /// Batches the writer thread has applied, for reuse.
    returned: Receiver<PageBatch>,
}

impl SpillQueue {
    fn send(&mut self, op: SpillOp) -> twrs_storage::Result<()> {
        let sender = self.sender.as_ref().ok_or_else(writer_gone)?;
        sender.send(op).map_err(|_| writer_gone())
    }

    /// Sends the pending page writes, if any, as one message.
    fn send_pending(&mut self) -> twrs_storage::Result<()> {
        if self.pending.writes.is_empty() {
            return Ok(());
        }
        let fresh = self.returned.try_recv().unwrap_or_default();
        let batch = std::mem::replace(&mut self.pending, fresh);
        self.send(SpillOp::Write(batch))
    }
}

struct SpillShared {
    queue: Mutex<SpillQueue>,
    worker: Option<JoinHandle<()>>,
    next_file_id: AtomicU64,
    /// Page writes per message.
    batch_pages: usize,
}

impl SpillShared {
    /// Sends `op` after every pending page write, so the writer applies
    /// operations in the order they were issued.
    fn send(&self, op: SpillOp) -> twrs_storage::Result<()> {
        let mut queue = lock_or_poison(&self.queue);
        queue.send_pending()?;
        queue.send(op)
    }

    /// Queues one page write; a full batch goes to the writer at once.
    fn write(&self, file: u64, page: u64, data: &[u8]) -> twrs_storage::Result<()> {
        let mut queue = lock_or_poison(&self.queue);
        queue.pending.writes.push((file, page));
        queue.pending.data.extend_from_slice(data);
        if queue.pending.writes.len() < self.batch_pages {
            return Ok(());
        }
        queue.send_pending()
    }

    /// Sends the pending writes and a flush of `file` (every attached file
    /// for `None`), and waits until the writer has applied both.
    fn flush(&self, file: Option<u64>) -> twrs_storage::Result<()> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.send(SpillOp::Flush { file, ack: ack_tx })?;
        ack_rx.recv().map_err(|_| writer_gone())?
    }
}

impl Drop for SpillShared {
    fn drop(&mut self) {
        // Every file handle keeps this state alive and sent its pending
        // writes when it was dropped. Disconnect the channel so the writer
        // drains its queue and exits, then wait for it; queued writes are
        // never lost.
        lock_or_poison(&self.queue).sender = None;
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
/// (back-pressure) instead of buffering unboundedly. Page writes travel in
/// batches of up to 16, in the order they were issued; a batch is sent when
/// it is full and before any flush, read, `open`, `remove`, barrier or
/// file-handle drop. [`PageFile::flush`] is a barrier: it returns once
/// every previously issued write of that file has been applied, which is
/// what makes the run files safe to read after `RunWriter::finish`. Reads
/// and `open` flush the queue first and then go straight to the wrapped
/// device.
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
    /// Wraps `inner`, spawning the writer thread with a queue of at most
    /// `queue_depth` page writes.
    ///
    /// If the operating system refuses the writer thread, every later
    /// operation of the device fails with an I/O error.
    pub fn new(inner: D, queue_depth: usize) -> Self {
        let depth = queue_depth.max(1);
        let batch_pages = SPILL_BATCH_PAGES.min(depth);
        let (tx, rx) = sync_channel::<SpillOp>(depth / batch_pages);
        let (back_tx, back_rx) = sync_channel::<PageBatch>(depth / batch_pages + 1);
        let page_size = inner.page_size();
        // A refused writer drops its end of the channel with the closure,
        // so the device reports `writer_gone` on first use.
        let worker = spawn("twrs-spill-writer".into(), move || {
            spill_writer_loop(rx, back_tx, page_size)
        })
        .ok();
        SpillWriteDevice {
            inner,
            shared: Arc::new(SpillShared {
                queue: Mutex::new(SpillQueue {
                    sender: Some(tx),
                    pending: PageBatch::default(),
                    returned: back_rx,
                }),
                worker,
                next_file_id: AtomicU64::new(1),
                batch_pages,
            }),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Waits until every issued write has been applied and flushed, and
    /// surfaces any error the writer thread encountered.
    pub fn barrier(&self) -> twrs_storage::Result<()> {
        self.shared.flush(None)
    }
}

/// The writer thread: applies operations in order, remembers the first
/// failure and reports it at the next flush barrier. Applied page batches
/// go back through `returned` (dropped when it is full).
fn spill_writer_loop(rx: Receiver<SpillOp>, returned: SyncSender<PageBatch>, page_size: usize) {
    let mut files: HashMap<u64, Box<dyn PageFile>> = HashMap::new();
    let mut failure: Option<String> = None;
    while let Ok(op) = rx.recv() {
        match op {
            SpillOp::Attach { file, handle } => {
                files.insert(file, handle);
            }
            SpillOp::Write(mut batch) => {
                if failure.is_none() {
                    failure = apply_writes(&mut files, &batch, page_size).err();
                }
                batch.writes.clear();
                batch.data.clear();
                let _ = returned.try_send(batch);
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

/// Applies `batch`'s writes in order; stops at the first failure.
fn apply_writes(
    files: &mut HashMap<u64, Box<dyn PageFile>>,
    batch: &PageBatch,
    page_size: usize,
) -> std::result::Result<(), String> {
    let pages = batch.data.chunks(page_size.max(1));
    for (&(file, page), data) in batch.writes.iter().zip(pages) {
        let handle = files
            .get_mut(&file)
            .ok_or_else(|| format!("write to unattached spill file {file}"))?;
        handle.write_page(page, data).map_err(|e| e.to_string())?;
    }
    Ok(())
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
        // Attaching ahead of the pending writes (all to other files) keeps
        // batches whole across run boundaries; this file's writes follow.
        lock_or_poison(&self.shared.queue).send(SpillOp::Attach { file, handle })?;
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
/// run in `read_ahead`-record batches, sends them [`PREFETCH_BATCHES`] to a
/// message and stays up to one queued message ahead of the merge loop.
/// The merge side allocates the three message buffers when it opens the
/// source, and hands each one back as soon as it is emptied, so the thread
/// only fills buffers. Dropping the source disconnects the channel and
/// joins the worker, so a half-consumed source (an early-dropped
/// [`SortedStream`](crate::SortedStream), an error path) never leaves a
/// reader thread behind.
pub(crate) struct PrefetchSource<R: SortableRecord> {
    rx: Option<Receiver<Result<Vec<R>>>>,
    /// Emptied message buffers on their way back to the worker.
    returned: SyncSender<Vec<R>>,
    /// The unread records of the last message, in *descending* order, so
    /// the next one is popped off the end.
    buffer: Vec<R>,
    worker: Option<JoinHandle<()>>,
    /// Records in the run, and records received so far: a channel that
    /// closes before all of them arrived means the worker died.
    expected: u64,
    received: u64,
    done: bool,
}

impl<R: SortableRecord> RunSource<R> for PrefetchSource<R> {
    /// Opens the run (reading its headers) and spawns the prefetch thread,
    /// which takes over the cursor.
    fn open<D: Device>(device: &D, run: &RunHandle, read_ahead: usize) -> Result<Self> {
        let mut cursor = RunCursor::<R>::open(device, run)?;
        let expected = cursor.len();
        let batch = read_ahead.max(1);
        let capacity = buffer_capacity(batch.saturating_mul(PREFETCH_BATCHES), &cursor);
        let (tx, rx) = sync_channel(1);
        // One buffer queued, one being filled and one being merged.
        let (back_tx, back_rx) = sync_channel::<Vec<R>>(3);
        for _ in 0..3 {
            let _ = back_tx.try_send(Vec::with_capacity(capacity));
        }
        let worker = spawn("twrs-prefetch".into(), move || loop {
            let mut message = back_rx
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(capacity));
            // The same `read_batch` calls as one batch per message would
            // make, so the run's pages are read in the same sequence.
            let mut finished = false;
            for _ in 0..PREFETCH_BATCHES {
                match cursor.read_batch(&mut message, batch) {
                    Ok(read) if read < batch => {
                        finished = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
            if !message.is_empty() && tx.send(Ok(message)).is_err() {
                // Merge side hung up (error path): stop quietly.
                return;
            }
            if finished {
                return;
            }
        })?;
        Ok(PrefetchSource {
            rx: Some(rx),
            returned: back_tx,
            buffer: Vec::new(),
            worker: Some(worker),
            expected,
            received: 0,
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
        // success path propagates them, and a stream that lost its worker
        // has already returned an error).
        drop(self.rx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl<R: SortableRecord> MergeSource<R> for PrefetchSource<R> {
    fn next_record(&mut self) -> Result<Option<R>> {
        if self.buffer.is_empty() && !self.done {
            // Hand the emptied buffer back before waiting, so the worker
            // finds it when it starts its next message.
            let emptied = std::mem::take(&mut self.buffer);
            if emptied.capacity() > 0 {
                let _ = self.returned.try_send(emptied);
            }
            // `rx` is only `None` once `drop` has run; treat that like a
            // disconnected prefetcher instead of panicking.
            match self.rx.as_ref().map(|rx| rx.recv()) {
                Some(Ok(Ok(mut message))) => {
                    self.received += message.len() as u64;
                    message.reverse();
                    self.buffer = message;
                }
                Some(Ok(Err(e))) => {
                    self.done = true;
                    return Err(e);
                }
                None | Some(Err(_)) => {
                    self.done = true;
                    if self.received < self.expected {
                        // The worker ended without sending the rest of the
                        // run or an error: it panicked.
                        return Err(SortError::JobPanicked(format!(
                            "merge prefetch thread stopped after {} of {} records",
                            self.received, self.expected
                        )));
                    }
                }
            }
        }
        Ok(self.buffer.pop())
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

/// One shard's input: the records of the dealer's messages, in order.
/// Every drained message buffer goes back to the dealer for reuse.
struct ShardInput<R> {
    messages: Receiver<Vec<R>>,
    returned: SyncSender<Vec<R>>,
    /// The unread records of the current message, in *descending* order,
    /// so the next one is popped off the end.
    current: Vec<R>,
}

impl<R> Iterator for ShardInput<R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        if self.current.is_empty() {
            // Hand the drained buffer back before waiting, so the dealer
            // finds it when it starts this shard's next message.
            let drained = std::mem::take(&mut self.current);
            if drained.capacity() > 0 {
                let _ = self.returned.try_send(drained);
            }
            self.current = self.messages.recv().ok()?;
            self.current.reverse();
        }
        self.current.pop()
    }
}

/// The dealer's side of the shards' input channels.
struct Dealer<R> {
    /// Per shard, its channel; `None` once the shard hung up.
    senders: Vec<Option<SyncSender<Vec<R>>>>,
    /// Per shard, the message being filled.
    messages: Vec<Vec<R>>,
    /// Message buffers the shards drained, for reuse.
    returned: Receiver<Vec<R>>,
    /// Shards still taking input.
    live: usize,
}

impl<R> Dealer<R> {
    /// The message being filled for `shard`, on a recycled buffer when a
    /// new one starts.
    fn message(&mut self, shard: usize) -> &mut Vec<R> {
        let message = &mut self.messages[shard];
        if message.capacity() == 0 {
            *message = self
                .returned
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(SHARD_MESSAGE_RECORDS));
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
            Some(tx) => {
                if tx.send(std::mem::take(message)).is_err() {
                    self.senders[shard] = None;
                    self.live -= 1;
                }
            }
            None => message.clear(),
        }
    }
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
    let (back_tx, back_rx) = sync_channel::<Vec<R>>(threads * SHARD_QUEUE_MESSAGES);
    let mut senders = Vec::with_capacity(threads);
    let mut workers = Vec::with_capacity(threads);
    let mut refused = None;
    for index in 0..threads {
        let (tx, rx) = sync_channel::<Vec<R>>(SHARD_QUEUE_MESSAGES);
        let mut shard_input = ShardInput {
            messages: rx,
            returned: back_tx.clone(),
            current: Vec::new(),
        };
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
                let spill = SpillWriteDevice::new(scoped.clone(), SPILL_QUEUE_PAGES);
                let set = generator.generate(&spill, namer.as_ref(), &mut shard_input)?;
                // Drain the spill queue (and surface writer errors) before
                // reading the shard's I/O statistics.
                spill.barrier()?;
                drop(spill);
                Ok((set, scoped.local_stats()))
            },
        );
        match spawned {
            Ok(worker) => {
                senders.push(Some(tx));
                workers.push(worker);
            }
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }
    drop(back_tx);

    // Deal the input in round-robin parcels, packed into one message per
    // shard until it holds `SHARD_MESSAGE_PARCELS` of them. When every
    // worker is gone there is no point draining the rest of the input.
    // After a refused spawn nothing is dealt: the started shards see their
    // input end, and the join below waits for them.
    let mut dealer = Dealer {
        live: if refused.is_none() { senders.len() } else { 0 },
        messages: senders.iter().map(|_| Vec::new()).collect(),
        senders,
        returned: back_rx,
    };
    let mut shard = 0usize;
    let mut canceled = false;
    while dealer.live > 0 {
        // Message-grained cancellation point: stop feeding the shards;
        // they finish their current runs and the generate stage's
        // post-join check surfaces the cancellation.
        if dealer.messages[shard].is_empty() && cancel.is_canceled() {
            canceled = true;
            break;
        }
        let message = dealer.message(shard);
        let before = message.len();
        message.extend(input.take(SHARD_BATCH_RECORDS));
        let after = message.len();
        if after == before {
            break;
        }
        if after >= SHARD_MESSAGE_RECORDS {
            dealer.send(shard);
        }
        shard = (shard + 1) % threads;
    }
    if !canceled {
        for shard in 0..dealer.messages.len() {
            dealer.send(shard);
        }
    }
    drop(dealer);

    // Join every worker before reporting anything, so no shard is left
    // running (and writing spill files) after this function returns.
    let results: Vec<std::thread::Result<Result<(RunSet, IoStatsSnapshot)>>> =
        workers.into_iter().map(|worker| worker.join()).collect();
    if let Some(e) = refused {
        return Err(e);
    }
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
    let mut refused = None;
    for (disk, member_runs) in disk_runs.into_iter().enumerate() {
        let view = device.shard_view(disk);
        let namer = Arc::clone(namer);
        let cancel = cancel.clone();
        let spawned = spawn(
            format!("twrs-reducer-{disk}"),
            move || -> Result<(Vec<RunHandle>, MergeReport)> {
                reduce_disk_runs::<D, R>(&view, namer.as_ref(), member_runs, merge, &cancel)
            },
        );
        match spawned {
            Ok(reducer) => reducers.push(reducer),
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }
    // Join every reducer before reporting anything (mirrors
    // `generate_sharded`): no disk is left merging after an error, or
    // after a refused spawn, while the caller sweeps the spill files.
    type ReducerOutcome = Result<(Vec<RunHandle>, MergeReport)>;
    let results: Vec<std::thread::Result<ReducerOutcome>> =
        reducers.into_iter().map(|reducer| reducer.join()).collect();
    if let Some(e) = refused {
        return Err(e);
    }
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

    /// A simulated device whose page writes fail from the `fail_at`-th on
    /// (0-based, counted over every file).
    #[derive(Clone)]
    struct FailingWrites {
        inner: SimDevice,
        writes: Arc<AtomicU64>,
        fail_at: u64,
    }

    struct FailingFile {
        inner: Box<dyn PageFile>,
        writes: Arc<AtomicU64>,
        fail_at: u64,
    }

    impl PageFile for FailingFile {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }

        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }

        fn read_page(&mut self, index: u64, buf: &mut [u8]) -> twrs_storage::Result<()> {
            self.inner.read_page(index, buf)
        }

        fn write_page(&mut self, index: u64, data: &[u8]) -> twrs_storage::Result<()> {
            if self.writes.fetch_add(1, Ordering::SeqCst) >= self.fail_at {
                return Err(StorageError::Io(std::io::Error::other("injected")));
            }
            self.inner.write_page(index, data)
        }

        fn flush(&mut self) -> twrs_storage::Result<()> {
            self.inner.flush()
        }
    }

    impl StorageDevice for FailingWrites {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }

        fn create(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
            Ok(Box::new(FailingFile {
                inner: self.inner.create(name)?,
                writes: Arc::clone(&self.writes),
                fail_at: self.fail_at,
            }))
        }

        fn open(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
            self.inner.open(name)
        }

        fn remove(&self, name: &str) -> twrs_storage::Result<()> {
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

    #[test]
    fn spill_device_surfaces_the_first_write_error_at_the_next_barrier() {
        let device = FailingWrites {
            inner: SimDevice::with_model(ModelId::Hdd7200),
            writes: Arc::new(AtomicU64::new(0)),
            fail_at: 2,
        };
        let spill = SpillWriteDevice::new(device.clone(), SPILL_QUEUE_PAGES);
        let page = vec![9u8; device.page_size()];
        let mut file = spill.create("f").unwrap();
        // Five writes fit one batch: each is accepted while it is pending.
        for index in 0..5 {
            file.write_page(index, &page).unwrap();
        }
        let error = file.flush().unwrap_err();
        assert!(error.to_string().contains("injected"), "{error}");
        // The writer applied the two writes before the failure, skipped
        // the rest, and reports the failure at every later barrier.
        assert!(spill.barrier().is_err());
        assert_eq!(device.inner.open("f").unwrap().num_pages(), 2);
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
