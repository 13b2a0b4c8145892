//! Tracing wrappers around the public traits of two layers: the storage
//! device (`StorageDevice` / `PageFile`) and run generation
//! (`RunGenerator`, `ShardableGenerator`, `BudgetedGenerator`).
//!
//! Both wrappers forward every call unchanged and time it from outside.
//! The device wrapper must forward the trait's provided methods too —
//! `stats`, `reset_stats`, `stripe_members`, `shard_view` and
//! `attach_io_client` — or a striped device would be sorted down the
//! single-disk path and read as an idle aggregate.

use crate::trace::{self, Recorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use twrs_extsort::{BudgetedGenerator, Device, Result, RunGenerator, RunSet, ShardableGenerator};
use twrs_storage::{
    IoClientGuard, IoStats, IoStatsSnapshot, PageFile, SortableRecord, SpillNamer, StorageDevice,
};

/// Page and file operations counted by a [`TracedDevice`] and its files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Pages read.
    pub page_reads: u64,
    /// Pages written.
    pub page_writes: u64,
    /// Files created.
    pub creates: u64,
    /// Files removed.
    pub removes: u64,
}

impl OpCounts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            creates: self.creates - earlier.creates,
            removes: self.removes - earlier.removes,
        }
    }

    /// `true` when these counts equal the page and file counters of a
    /// device statistics delta.
    pub fn matches(&self, io: &IoStatsSnapshot) -> bool {
        self.page_reads == io.counters.pages_read
            && self.page_writes == io.counters.pages_written
            && self.creates == io.counters.files_created
            && self.removes == io.counters.files_removed
    }
}

#[derive(Default)]
struct Counters {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    creates: AtomicU64,
    removes: AtomicU64,
}

/// Pages held per file, and their total and peak.
#[derive(Default)]
struct Held {
    files: Mutex<HashMap<String, Arc<AtomicU64>>>,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Held {
    /// The page count of file `name`, registered on first use.
    fn file(&self, name: &str) -> Arc<AtomicU64> {
        let mut files = self
            .files
            .lock()
            .expect("a thread panicked while updating page counts");
        Arc::clone(files.entry(name.to_string()).or_default())
    }

    /// Raises `file` to `pages` pages held.
    fn grow(&self, file: &AtomicU64, pages: u64) {
        let old = file.fetch_max(pages, Ordering::Relaxed);
        if pages > old {
            let live = self.live.fetch_add(pages - old, Ordering::Relaxed) + (pages - old);
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn remove(&self, name: &str) {
        let removed = self
            .files
            .lock()
            .expect("a thread panicked while updating page counts")
            .remove(name);
        if let Some(file) = removed {
            self.live
                .fetch_sub(file.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

struct Shared {
    recorder: Arc<Recorder>,
    counters: Counters,
    held: Held,
}

/// A device wrapper that times every call, counts page and file
/// operations, and tracks the pages held on the device.
#[derive(Clone)]
pub struct TracedDevice<D> {
    inner: D,
    shared: Arc<Shared>,
}

impl<D: StorageDevice> TracedDevice<D> {
    /// Wraps `inner`. Files already on it (the materialised input) count
    /// towards the pages held.
    pub fn new(inner: D, recorder: Arc<Recorder>) -> twrs_storage::Result<Self> {
        let held = Held::default();
        for name in inner.list() {
            let pages = inner.open(&name)?.num_pages();
            held.grow(&held.file(&name), pages);
        }
        Ok(TracedDevice {
            inner,
            shared: Arc::new(Shared {
                recorder,
                counters: Counters::default(),
                held,
            }),
        })
    }

    /// The operations counted so far.
    pub fn counts(&self) -> OpCounts {
        let c = &self.shared.counters;
        OpCounts {
            page_reads: c.page_reads.load(Ordering::SeqCst),
            page_writes: c.page_writes.load(Ordering::SeqCst),
            creates: c.creates.load(Ordering::SeqCst),
            removes: c.removes.load(Ordering::SeqCst),
        }
    }

    /// Restarts the peak at the pages held now.
    pub fn reset_peak(&self) {
        let held = &self.shared.held;
        held.peak
            .store(held.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The most pages held at once since the last [`reset_peak`](Self::reset_peak).
    pub fn peak_pages(&self) -> u64 {
        self.shared.held.peak.load(Ordering::Relaxed)
    }
}

struct TracedFile {
    inner: Box<dyn PageFile>,
    /// Pages this file holds, shared with every handle on it.
    held: Arc<AtomicU64>,
    shared: Arc<Shared>,
}

impl PageFile for TracedFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> twrs_storage::Result<()> {
        let _span = self.shared.recorder.enter("storage.read");
        self.inner.read_page(index, buf)?;
        self.shared
            .counters
            .page_reads
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> twrs_storage::Result<()> {
        let _span = self.shared.recorder.enter("storage.write");
        self.inner.write_page(index, data)?;
        self.shared
            .counters
            .page_writes
            .fetch_add(1, Ordering::Relaxed);
        self.shared.held.grow(&self.held, index + 1);
        Ok(())
    }

    fn flush(&mut self) -> twrs_storage::Result<()> {
        let _span = self.shared.recorder.enter("storage.flush");
        self.inner.flush()
    }
}

impl<D: StorageDevice + Clone> TracedDevice<D> {
    fn wrap(&self, name: &str, inner: Box<dyn PageFile>) -> Box<dyn PageFile> {
        let held = self.shared.held.file(name);
        self.shared.held.grow(&held, inner.num_pages());
        Box::new(TracedFile {
            inner,
            held,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl<D: StorageDevice + Clone> StorageDevice for TracedDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        let file = {
            let _span = self.shared.recorder.enter("storage.create");
            self.inner.create(name)?
        };
        self.shared.counters.creates.fetch_add(1, Ordering::Relaxed);
        Ok(self.wrap(name, file))
    }

    fn open(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        let file = {
            let _span = self.shared.recorder.enter("storage.open");
            self.inner.open(name)?
        };
        Ok(self.wrap(name, file))
    }

    fn remove(&self, name: &str) -> twrs_storage::Result<()> {
        {
            let _span = self.shared.recorder.enter("storage.remove");
            self.inner.remove(name)?;
        }
        self.shared.counters.removes.fetch_add(1, Ordering::Relaxed);
        self.shared.held.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn io_stats(&self) -> &IoStats {
        self.inner.io_stats()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn stripe_members(&self) -> usize {
        self.inner.stripe_members()
    }

    fn shard_view(&self, index: usize) -> Self {
        TracedDevice {
            inner: self.inner.shard_view(index),
            shared: Arc::clone(&self.shared),
        }
    }

    fn attach_io_client(&self) -> Option<IoClientGuard> {
        self.inner.attach_io_client()
    }
}

/// A run-generator wrapper recording one `generate` span per call, with
/// the number of runs produced as its value.
#[derive(Clone)]
pub struct TracedGen<G> {
    inner: G,
    recorder: Arc<Recorder>,
    /// Service job id; `None` for single-sort repetitions, whose spans
    /// take the recorder's current repetition.
    job: Option<u64>,
}

impl<G> TracedGen<G> {
    /// Wraps `inner` for a single-sort repetition.
    pub fn new(inner: G, recorder: Arc<Recorder>) -> Self {
        TracedGen {
            inner,
            recorder,
            job: None,
        }
    }

    /// Wraps `inner` for service job `job`.
    pub fn for_job(inner: G, recorder: Arc<Recorder>, job: u64) -> Self {
        TracedGen {
            inner,
            recorder,
            job: Some(job),
        }
    }
}

impl<G: RunGenerator> RunGenerator for TracedGen<G> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn memory_records(&self) -> usize {
        self.inner.memory_records()
    }

    fn generate<D: Device, R: SortableRecord>(
        &mut self,
        device: &D,
        namer: &SpillNamer,
        input: &mut dyn Iterator<Item = R>,
    ) -> Result<RunSet> {
        if let Some(job) = self.job {
            trace::set_thread_job(job);
        }
        let mut span = self.recorder.enter("generate");
        let runs = self.inner.generate(device, namer, input)?;
        span.set_value(runs.num_runs() as u64);
        Ok(runs)
    }
}

impl<G: ShardableGenerator> ShardableGenerator for TracedGen<G> {
    fn shard(&self, index: usize, shards: usize) -> Self {
        TracedGen {
            inner: self.inner.shard(index, shards),
            recorder: Arc::clone(&self.recorder),
            job: self.job,
        }
    }
}

impl<G: BudgetedGenerator> BudgetedGenerator for TracedGen<G> {
    fn with_budget(&self, memory_records: usize) -> Self {
        TracedGen {
            inner: self.inner.with_budget(memory_records),
            recorder: Arc::clone(&self.recorder),
            job: self.job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_storage::{AnyDevice, DeviceSpec};

    #[test]
    fn stripe_queries_reach_the_inner_device() {
        let stripe: AnyDevice = "striped:2:sim:hdd-7200"
            .parse::<DeviceSpec>()
            .and_then(|spec| spec.build())
            .unwrap();
        let traced = TracedDevice::new(stripe.clone(), Arc::new(Recorder::default())).unwrap();
        assert_eq!(traced.stripe_members(), 2);
        assert!(traced.attach_io_client().is_some());
        let view = traced.shard_view(1);
        let page = vec![7u8; view.page_size()];
        view.create("pinned").unwrap().write_page(0, &page).unwrap();
        let members = stripe.as_striped().unwrap().member_stats();
        assert_eq!(members[1].counters.pages_written, 1);
        assert_eq!(traced.stats().counters.pages_written, 1);
        assert_eq!(traced.counts().page_writes, 1);
        assert_eq!(traced.peak_pages(), 1);
        traced.remove("pinned").unwrap();
        traced.reset_peak();
        assert_eq!(traced.peak_pages(), 0);
    }
}
