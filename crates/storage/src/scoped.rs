//! Per-thread I/O attribution for shared devices.
//!
//! A parallel sort runs several workers against one [`StorageDevice`]. The
//! device's own [`IoStats`] keep the global truth, but each worker also
//! wants to know what *it* caused so a sharded run can report per-shard
//! phase costs that sum to the device totals. [`ScopedDevice`] wraps any
//! device and mirrors every access into a second, scope-local [`IoStats`]
//! while still forwarding it to the wrapped device (whose shared statistics
//! keep counting as before). As a [`Forward`](crate::device::Forward)
//! wrapper it overrides `create`, `open` and `remove` and keeps its own
//! statistics, so `stats()` and `reset_stats()` act on the scope alone.
//!
//! Page and file counters of the local statistics always sum exactly to the
//! device-level deltas. Seeks are the one subtlety: the local statistics
//! track their own head position, so a scope's seek count models the thread
//! as if it had the disk to itself. The sum of the per-scope seek counts is
//! therefore a *lower bound* on the seeks the shared device observes when
//! threads interleave — callers that need cross-thread seek truth should
//! read the wrapped device's stats.

use crate::device::{PageFile, StorageDevice};
use crate::error::Result;
use crate::io_stats::IoStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A device wrapper that additionally records every access into a local
/// [`IoStats`], so one thread's share of a concurrent workload can be
/// attributed.
///
/// Its [`stats`](StorageDevice::stats) are the scope-local statistics.
/// Clones share them; create one `ScopedDevice` per scope (worker thread,
/// phase, …) to separate them.
#[derive(Clone)]
pub struct ScopedDevice<D> {
    inner: D,
    local: IoStats,
    /// File-id allocator for the local head model, distinct from the ids
    /// the inner device hands out.
    next_file_id: Arc<AtomicU64>,
}

impl<D: StorageDevice> ScopedDevice<D> {
    /// Wraps `inner`, starting with zeroed local statistics that charge
    /// the inner device's costs.
    pub fn new(inner: D) -> Self {
        ScopedDevice {
            local: inner.io_stats().fresh(),
            inner,
            next_file_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// `file` mirroring its page accesses into the local statistics.
    fn scoped(&self, file: Box<dyn PageFile>) -> Box<dyn PageFile> {
        Box::new(ScopedPageFile {
            inner: file,
            local: self.local.clone(),
            file_id: self.next_file_id.fetch_add(1, Ordering::Relaxed),
        })
    }
}

struct ScopedPageFile {
    inner: Box<dyn PageFile>,
    local: IoStats,
    file_id: u64,
}

impl PageFile for ScopedPageFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(index, buf)?;
        self.local.record_access(self.file_id, index, 1, false);
        Ok(())
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> Result<()> {
        self.inner.write_page(index, data)?;
        self.local.record_access(self.file_id, index, 1, true);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

impl<D: StorageDevice + Clone> crate::device::Forward for ScopedDevice<D> {
    fn target(&self) -> &dyn StorageDevice {
        &self.inner
    }

    /// Re-scopes onto the inner device's shard view: the local statistics
    /// stay shared with `self` (like [`Clone`]) while the traffic routes to
    /// the shard's stripe member.
    fn shard_view(&self, index: usize) -> Self {
        ScopedDevice {
            inner: self.inner.shard_view(index),
            local: self.local.clone(),
            next_file_id: Arc::clone(&self.next_file_id),
        }
    }

    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let file = self.inner.create(name)?;
        self.local.record_create();
        Ok(self.scoped(file))
    }

    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        Ok(self.scoped(self.inner.open(name)?))
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)?;
        self.local.record_remove();
        Ok(())
    }

    fn own_stats(&self) -> Option<&IoStats> {
        Some(&self.local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::io_stats::IoStatsSnapshot;
    use crate::model::ModelId;

    #[test]
    fn scoped_accesses_count_locally_and_globally() {
        let shared = SimDevice::with_model(ModelId::Hdd7200);
        let scoped = ScopedDevice::new(shared.clone());
        let page = vec![3u8; scoped.page_size()];
        let mut f = scoped.create("a").unwrap();
        f.write_page(0, &page).unwrap();
        f.write_page(1, &page).unwrap();
        let mut buf = vec![0u8; scoped.page_size()];
        f.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, page);

        let local = scoped.stats();
        assert_eq!(local.counters.pages_written, 2);
        assert_eq!(local.counters.pages_read, 1);
        assert_eq!(local.counters.files_created, 1);
        // The shared device saw exactly the same traffic.
        assert_eq!(shared.stats().counters, local.counters);
    }

    #[test]
    fn two_scopes_sum_to_the_shared_totals() {
        let shared = SimDevice::with_model(ModelId::Hdd7200);
        let a = ScopedDevice::new(shared.clone());
        let b = ScopedDevice::new(shared.clone());
        let page = vec![0u8; shared.page_size()];
        let mut fa = a.create("a").unwrap();
        let mut fb = b.create("b").unwrap();
        for i in 0..4 {
            fa.write_page(i, &page).unwrap();
        }
        for i in 0..3 {
            fb.write_page(i, &page).unwrap();
        }
        b.remove("b").unwrap();
        let sum = a.stats().merged(&b.stats());
        let total = shared.stats();
        assert_eq!(sum.counters, total.counters);
        assert_eq!(
            IoStatsSnapshot::default().merged(&total).counters,
            total.counters
        );
    }

    #[test]
    fn clones_share_the_scope() {
        let shared = SimDevice::with_model(ModelId::Hdd7200);
        let scoped = ScopedDevice::new(shared);
        let clone = scoped.clone();
        let page = vec![0u8; scoped.page_size()];
        clone.create("x").unwrap().write_page(0, &page).unwrap();
        assert_eq!(scoped.stats().counters.pages_written, 1);
    }

    #[test]
    fn local_seeks_model_a_private_head() {
        let shared = SimDevice::with_model(ModelId::Hdd7200);
        let scoped = ScopedDevice::new(shared.clone());
        let page = vec![0u8; scoped.page_size()];
        let mut f = scoped.create("f").unwrap();
        for i in 0..4 {
            f.write_page(i, &page).unwrap();
        }
        let mut buf = vec![0u8; scoped.page_size()];
        for i in 0..4 {
            f.read_page(i, &mut buf).unwrap();
        }
        // Sequential reads on a private head: the initial positioning only.
        assert_eq!(scoped.stats().counters.seeks, 1);
    }
}
