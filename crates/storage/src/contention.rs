//! Fair-share bandwidth contention for shared spill devices.
//!
//! The paper's cost model charges every access as if the disk served one
//! request stream; that is accurate for the dedicated SATA drive of the
//! experiments but not for a stripe member shared by several concurrent
//! sort jobs. This module adds the missing effect in the style of
//! dslab-storage's shared-disk model: clients *admit* themselves to the
//! device (an [`IoClientGuard`] marks one outstanding request stream) and
//! every access is charged a **proportional slowdown** — the
//! [`IoStats`](crate::io_stats::IoStats) of each stripe member multiply
//! the modelled microseconds by the number of admitted clients, i.e. each
//! stream gets `1/n` of the device's bandwidth while `n` streams are
//! admitted. With zero or one admitted client the cost is unchanged, so
//! single-job runs reproduce the historical simulated times bit for bit.
//!
//! The slowdown is driven by the logical admission count, not wall-clock
//! overlap, so simulated latencies stay deterministic: the same job run
//! with the same set of admitted clients always pays the same cost, no
//! matter how the OS schedules the threads. Counters (pages, seeks) are
//! never touched — contention changes *time*, not *behaviour* — which is
//! what keeps baseline-pinned counter sets valid across contention states.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared admission book-keeping for one stripe of devices: how many
/// request streams are currently outstanding.
///
/// Every member of a stripe charges its accesses under one shared state,
/// so a client admitted to the stripe slows down all of its disks — the
/// stripe shares one bus, as a multi-disk spill array would.
#[derive(Debug, Default)]
pub struct ContentionState {
    outstanding: AtomicU64,
}

impl ContentionState {
    /// Creates a fresh state with no admitted clients.
    pub fn new() -> Arc<ContentionState> {
        Arc::new(ContentionState::default())
    }

    /// Number of currently admitted request streams.
    pub fn active_clients(&self) -> u64 {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Admits one request stream; the returned guard withdraws it on drop.
    pub fn attach(self: &Arc<Self>) -> IoClientGuard {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        IoClientGuard {
            state: Arc::clone(self),
        }
    }
}

/// RAII admission ticket: while alive, the owning job counts as one
/// outstanding request stream on the device it was attached to.
///
/// Obtained from [`ContentionState::attach`] or, one level up, from
/// [`StorageDevice::attach_io_client`](crate::device::StorageDevice::attach_io_client).
#[derive(Debug)]
pub struct IoClientGuard {
    state: Arc<ContentionState>,
}

impl Drop for IoClientGuard {
    fn drop(&mut self) {
        self.state.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_stats::{IoStats, IoStatsSnapshot};
    use crate::model::ModelId;

    /// Stats for `model` charging under `state`.
    fn contended(model: ModelId, state: &Arc<ContentionState>) -> IoStats {
        let stats = IoStats::new(model.into());
        stats.share_contention(Arc::clone(state));
        stats
    }

    /// What one cold read of `pages` pages costs on `stats`, from zero.
    fn cold_read(stats: &IoStats, pages: u64) -> IoStatsSnapshot {
        stats.reset();
        stats.record_access(1, 0, pages, false);
        stats.snapshot()
    }

    #[test]
    fn zero_or_one_client_is_cost_transparent() {
        let state = ContentionState::new();
        let shared = contended(ModelId::Nvme, &state);
        let bare = IoStats::new(ModelId::Nvme.into());
        let solo = cold_read(&shared, 4);
        assert_eq!(solo, cold_read(&bare, 4));
        let _one = state.attach();
        assert_eq!(cold_read(&shared, 4), solo);
    }

    #[test]
    fn each_admitted_client_scales_the_cost_proportionally() {
        let state = ContentionState::new();
        let shared = contended(ModelId::Hdd7200, &state);
        let solo = cold_read(&shared, 1).sim_io;
        let _a = state.attach();
        let _b = state.attach();
        let contended = cold_read(&shared, 1);
        assert_eq!(contended.sim_io, solo * 2);
        let _c = state.attach();
        assert_eq!(cold_read(&shared, 1).sim_io, solo * 3);
    }

    #[test]
    fn dropping_the_guard_withdraws_the_client() {
        let state = ContentionState::new();
        let guard = state.attach();
        assert_eq!(state.active_clients(), 1);
        drop(guard);
        assert_eq!(state.active_clients(), 0);
    }

    #[test]
    fn contention_never_changes_seek_detection_or_params() {
        let state = ContentionState::new();
        let shared = contended(ModelId::Hdd7200, &state);
        let _a = state.attach();
        let _b = state.attach();
        let bare = IoStats::new(ModelId::Hdd7200.into());
        let sequence = [
            (1, 0, 1, false),
            (1, 1, 1, false),
            (2, 0, 1, false),
            (2, 5, 1, true),
        ];
        for (f, p, n, w) in sequence {
            shared.record_access(f, p, n, w);
            bare.record_access(f, p, n, w);
            assert_eq!(shared.snapshot().counters, bare.snapshot().counters);
        }
        // Same parameters underneath: exactly the bare cost, twice over.
        assert_eq!(shared.snapshot().sim_io, bare.snapshot().sim_io * 2);
    }
}
