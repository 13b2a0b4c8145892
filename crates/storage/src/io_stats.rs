//! I/O accounting and the simulated disk cost model.
//!
//! The paper's timing results (Chapter 6) depend on two storage effects:
//! the number of sequential page transfers and the number of seeks the merge
//! phase causes when it interleaves reads from many runs (the fan-in
//! analysis of §6.1.1). [`IoStats`] counts both and charges every access
//! under one rule priced by a [`DiskModel`], so experiments can be run
//! deterministically on the in-memory device and still show the same shapes
//! as the paper's wall-clock measurements.

use crate::contention::ContentionState;
use crate::model::ModelId;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// The parameters of the cost rule, in the spirit of the 60 GB SATA drive
/// the paper used.
///
/// All costs are expressed in microseconds; the defaults correspond to a
/// 7 200 rpm disk with ~8 ms average seek, ~4.2 ms rotational latency and
/// ~80 MB/s sequential transfer (≈ 50 µs per 4 KiB page). The catalog
/// ([`ModelId`]) names the parameter sets of other media.
///
/// The rule every device charges with: an access of `n` pages costs
/// `n × transfer_page_us`, and a read that finds the head elsewhere also
/// seeks, adding `seek_us + rotational_us`. Writes never seek.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average cost of moving the head to a non-adjacent position, in µs.
    pub seek_us: f64,
    /// Average rotational latency paid on every seek, in µs.
    pub rotational_us: f64,
    /// Cost of transferring one page sequentially, in µs.
    pub transfer_page_us: f64,
}

impl Default for DiskModel {
    fn default() -> Self {
        // The catalog's `hdd-7200` entry: the historical default.
        ModelId::Hdd7200.params()
    }
}

impl DiskModel {
    /// The one seek rule, shared by every device: whether an access of
    /// `pages` pages of file `file_id` starting at `page` seeks, given the
    /// read head `head` left by the previous read (`None` after a reset),
    /// and what it costs in microseconds.
    ///
    /// Reads seek whenever the head is not already at the requested page
    /// (reads are synchronous and the merge phase interleaves them across
    /// many run files — the effect behind the fan-in analysis of §6.1.1).
    /// Writes pay transfer time but never seek: as the paper argues in
    /// Appendix A.1, the operating system's write-behind cache absorbs and
    /// reorders them (including the reverse-file format's back-to-front
    /// writes), so they do not thrash the head the way reads do.
    fn access(
        &self,
        head: Option<(u64, u64)>,
        file_id: u64,
        page: u64,
        pages: u64,
        write: bool,
    ) -> (bool, f64) {
        let transfer = pages as f64 * self.transfer_page_us;
        if write || head == Some((file_id, page)) {
            (false, transfer)
        } else {
            (true, transfer + self.seek_us + self.rotational_us)
        }
    }
}

/// Raw I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    // When adding a field here, extend `merged` and `IoStatsSnapshot::since`
    // as well so phase attribution and shard aggregation stay lossless.
    /// Pages read from the device.
    pub pages_read: u64,
    /// Pages written to the device.
    pub pages_written: u64,
    /// Read or write operations that required repositioning the head.
    pub seeks: u64,
    /// Files created on the device.
    pub files_created: u64,
    /// Files removed from the device.
    pub files_removed: u64,
}

impl IoCounters {
    /// Field-wise sum of two counter sets; used to aggregate the per-thread
    /// statistics of a parallel sort into one total.
    pub fn merged(&self, other: &IoCounters) -> IoCounters {
        IoCounters {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            seeks: self.seeks + other.seeks,
            files_created: self.files_created + other.files_created,
            files_removed: self.files_removed + other.files_removed,
        }
    }
}

/// A point-in-time snapshot of the device counters together with the
/// simulated elapsed time charged for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// The raw counters.
    pub counters: IoCounters,
    /// Simulated elapsed time, accumulated access by access.
    pub sim_io: Duration,
}

impl IoStatsSnapshot {
    /// Total pages transferred in either direction.
    pub fn pages_total(&self) -> u64 {
        self.counters.pages_read + self.counters.pages_written
    }

    /// Simulated elapsed time under the device's cost model.
    pub fn simulated_time(&self) -> Duration {
        self.sim_io
    }

    /// Field-wise sum of two snapshots; the aggregation used when
    /// per-thread [`IoStats`] of a sharded sort are rolled up into one
    /// total (the [`Default`] snapshot is its identity). Seeks are summed
    /// as measured by each thread's own head model.
    pub fn merged(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            counters: self.counters.merged(&other.counters),
            sim_io: self.sim_io + other.sim_io,
        }
    }

    /// Difference between two snapshots (`self - earlier`), useful to
    /// attribute I/O to a phase of the algorithm.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            counters: IoCounters {
                pages_read: self.counters.pages_read - earlier.counters.pages_read,
                pages_written: self.counters.pages_written - earlier.counters.pages_written,
                seeks: self.counters.seeks - earlier.counters.seeks,
                files_created: self.counters.files_created - earlier.counters.files_created,
                files_removed: self.counters.files_removed - earlier.counters.files_removed,
            },
            sim_io: self.sim_io.saturating_sub(earlier.sim_io),
        }
    }
}

/// Shared, thread-safe I/O statistics for one storage device.
///
/// The device updates the counters on every page access; the experiment
/// harness snapshots them around each phase.
#[derive(Debug, Clone)]
pub struct IoStats {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug)]
struct Inner {
    counters: IoCounters,
    model: DiskModel,
    /// The admission state of the stripe this device is a member of, if
    /// any: every access then costs `max(1, admitted clients)` times as
    /// much (see [`crate::contention`]).
    contention: Option<Arc<ContentionState>>,
    /// Last read head position as (file id, page index); `None` right after
    /// a reset or before any access.
    head: Option<(u64, u64)>,
    /// Simulated time accumulated access by access, in nanoseconds.
    sim_ns: u64,
}

impl IoStats {
    /// Creates a new statistics block charging costs from `model`.
    pub fn new(model: DiskModel) -> Self {
        Self::build(model, None)
    }

    fn build(model: DiskModel, contention: Option<Arc<ContentionState>>) -> Self {
        IoStats {
            inner: Arc::new(Mutex::new(Inner {
                counters: IoCounters::default(),
                model,
                contention,
                head: None,
                sim_ns: 0,
            })),
        }
    }

    /// Zeroed statistics that charge the same costs as these: the same
    /// model and the same shared contention. This is how wrappers like
    /// [`ScopedDevice`](crate::scoped::ScopedDevice) mirror a device's
    /// per-access costs exactly.
    pub(crate) fn fresh(&self) -> IoStats {
        let inner = self.inner.lock();
        Self::build(inner.model, inner.contention.clone())
    }

    /// Makes every later access fair-share the bandwidth of the clients
    /// admitted to `state`, keeping counters, head position and accumulated
    /// simulated time. [`StripedDevice`](crate::striped::StripedDevice)
    /// calls this on each member after the member has been built.
    pub(crate) fn share_contention(&self, state: Arc<ContentionState>) {
        self.inner.lock().contention = Some(state);
    }

    /// Records an access of `pages` consecutive pages of file `file_id`
    /// starting at `page`, counting and charging it under
    /// [`DiskModel`]'s seek rule.
    pub fn record_access(&self, file_id: u64, page: u64, pages: u64, write: bool) {
        let mut inner = self.inner.lock();
        let (seek, mut micros) = inner.model.access(inner.head, file_id, page, pages, write);
        if let Some(state) = &inner.contention {
            micros *= state.active_clients().max(1) as f64;
        }
        if seek {
            inner.counters.seeks += 1;
        }
        if write {
            inner.counters.pages_written += pages;
        } else {
            inner.counters.pages_read += pages;
            inner.head = Some((file_id, page + pages));
        }
        inner.sim_ns += (micros * 1_000.0) as u64;
    }

    /// Records a file creation.
    pub fn record_create(&self) {
        self.inner.lock().counters.files_created += 1;
    }

    /// Records a file removal.
    pub fn record_remove(&self) {
        self.inner.lock().counters.files_removed += 1;
    }

    /// Returns the current snapshot.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let inner = self.inner.lock();
        IoStatsSnapshot {
            counters: inner.counters,
            sim_io: Duration::from_nanos(inner.sim_ns),
        }
    }

    /// Clears every counter, the accumulated simulated time and the head
    /// position.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.counters = IoCounters::default();
        inner.head = None;
        inner.sim_ns = 0;
    }
}

impl Default for IoStats {
    fn default() -> Self {
        IoStats::new(DiskModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_are_absorbed_by_the_write_cache() {
        let stats = IoStats::new(DiskModel::default());
        stats.record_access(1, 0, 1, true);
        stats.record_access(2, 0, 1, true);
        stats.record_access(1, 5, 1, true);
        let snap = stats.snapshot();
        assert_eq!(snap.counters.pages_written, 3);
        // Writes pay transfer time but never seeks (Appendix A.1).
        assert_eq!(snap.counters.seeks, 0);
    }

    #[test]
    fn interleaved_files_seek_every_time() {
        let stats = IoStats::new(DiskModel::default());
        for i in 0..4 {
            stats.record_access(1, i, 1, false);
            stats.record_access(2, i, 1, false);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.counters.pages_read, 8);
        assert_eq!(snap.counters.seeks, 8);
    }

    #[test]
    fn simulated_time_reflects_model() {
        let model = DiskModel {
            seek_us: 1_000.0,
            rotational_us: 0.0,
            transfer_page_us: 10.0,
        };
        let stats = IoStats::new(model);
        stats.record_access(1, 3, 4, false); // one seek, four pages read
        let snap = stats.snapshot();
        assert_eq!(snap.simulated_time(), Duration::from_micros(1_040));
    }

    #[test]
    fn snapshot_difference() {
        let stats = IoStats::new(DiskModel::default());
        stats.record_access(1, 0, 2, true);
        let first = stats.snapshot();
        stats.record_access(1, 2, 3, false);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.counters.pages_written, 0);
        assert_eq!(delta.counters.pages_read, 3);
    }

    #[test]
    fn reset_clears_counters_and_head() {
        let stats = IoStats::new(DiskModel::default());
        stats.record_access(7, 0, 1, false);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.counters, IoCounters::default());
        // After a reset the next read repositions the head again.
        stats.record_access(7, 1, 1, false);
        assert_eq!(stats.snapshot().counters.seeks, 1);
    }

    #[test]
    fn merged_snapshots_sum_every_counter() {
        let a = IoStats::new(DiskModel::default());
        a.record_access(1, 0, 2, false);
        a.record_access(1, 2, 3, true);
        a.record_create();
        let b = IoStats::new(DiskModel::default());
        b.record_access(9, 4, 5, false); // non-adjacent start: one seek
        b.record_remove();
        let sum = a.snapshot().merged(&b.snapshot());
        assert_eq!(sum.counters.pages_read, 7);
        assert_eq!(sum.counters.pages_written, 3);
        assert_eq!(sum.counters.seeks, 2);
        assert_eq!(sum.counters.files_created, 1);
        assert_eq!(sum.counters.files_removed, 1);
    }

    #[test]
    fn zero_is_the_merge_identity() {
        let stats = IoStats::new(DiskModel::default());
        stats.record_access(1, 0, 4, true);
        let snap = stats.snapshot();
        let total = IoStatsSnapshot::default().merged(&snap);
        assert_eq!(total, snap);
    }

    #[test]
    fn sharing_contention_scales_costs_but_keeps_counters_and_head() {
        let stats = IoStats::new(DiskModel::default());
        stats.record_access(1, 0, 1, false);
        let before = stats.snapshot();
        let state = ContentionState::new();
        let _a = state.attach();
        let _b = state.attach();
        stats.share_contention(Arc::clone(&state));
        let snap = stats.snapshot();
        assert_eq!(snap.counters, before.counters);
        assert_eq!(snap.sim_io, before.sim_io);
        // The head survives: the next sequential read is seekless, and the
        // two admitted clients double its transfer cost.
        stats.record_access(1, 1, 1, false);
        let after = stats.snapshot();
        assert_eq!(after.counters.seeks, 1);
        assert_eq!(after.sim_io - snap.sim_io, Duration::from_micros(100));
        // A fresh copy starts at zero but charges the same costs.
        let fresh = stats.fresh();
        assert_eq!(fresh.snapshot(), IoStatsSnapshot::default());
        fresh.record_access(1, 0, 1, true);
        assert_eq!(fresh.snapshot().sim_io, Duration::from_micros(100));
    }

    #[test]
    fn seekless_model_only_counts_transfers() {
        let stats = IoStats::new(DiskModel {
            seek_us: 0.0,
            rotational_us: 0.0,
            transfer_page_us: 50.0,
        });
        for file in 0..10 {
            stats.record_access(file, 0, 1, false); // a new file: a seek
        }
        let snap = stats.snapshot();
        assert_eq!(snap.counters.seeks, 10);
        assert_eq!(snap.sim_io, Duration::from_micros(500));
    }
}
