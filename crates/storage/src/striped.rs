//! Multi-disk striped spill: N devices behind one [`StorageDevice`].
//!
//! The paper's experiments funnel every run through one dedicated disk;
//! real sort boxes stripe their spill across several drives. A
//! [`StripedDevice`] composes any mix of [`AnyDevice`] members behind the
//! ordinary [`StorageDevice`] trait: whole files (not pages) are placed on
//! members round-robin, every member keeps its own independent
//! [`IoStats`] — per-disk counters that stay deterministic — and all
//! members share one [`ContentionState`] so concurrently admitted jobs
//! fair-share the stripe's bandwidth (see [`crate::contention`]).
//!
//! The parallel sorter routes shard `i`'s spill writes to member
//! `i % members` through [`StorageDevice::shard_view`], which is what makes
//! per-disk seek counters concrete again at `threads > 1`: each disk serves
//! one shard's sequential write stream and, later, one merge read stream.
//!
//! Counter semantics: [`StripedDevice::stats`] always reports the fold of
//! every member's snapshot (the stripe totals), while
//! [`StripedDevice::member_stats`] exposes the per-disk breakdown; the two
//! agree by construction — member counters sum to the device totals.

use crate::contention::{ContentionState, IoClientGuard};
use crate::device::{PageFile, StorageDevice};
use crate::error::{Result, StorageError};
use crate::io_stats::{IoStats, IoStatsSnapshot};
use crate::spec::AnyDevice;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct StripedShared {
    members: Vec<AnyDevice>,
    /// File name → member index, for files created through this stripe.
    placement: Mutex<HashMap<String, usize>>,
    /// Round-robin cursor; advanced only by unpinned creates so that
    /// pinned shard traffic cannot perturb coordinator-side placement.
    next: AtomicU64,
    contention: Arc<ContentionState>,
    /// Serves `io_stats()` for unpinned views (wrappers copy its costs);
    /// it records nothing itself — the members hold the real counters and
    /// `stats()` folds them.
    aggregate: IoStats,
    page_size: usize,
}

/// N storage devices striped behind one [`StorageDevice`] front.
///
/// Placement is per *file*, cycling through the members in order: a run
/// written to member 2 is read back from member 2. Clones share the stripe
/// (and its round-robin cursor); a clone can additionally be *pinned* to one
/// member (see [`shard_view`](StorageDevice::shard_view)), in which case
/// every file it creates lands on that member and its
/// [`io_stats`](StorageDevice::io_stats) are the member's own.
#[derive(Clone)]
pub struct StripedDevice {
    shared: Arc<StripedShared>,
    pin: Option<usize>,
}

impl StripedDevice {
    /// Stripes `members`, placing new files round-robin.
    ///
    /// Fails with [`StorageError::BadStripe`] when the member list is
    /// empty, when members disagree on the page size, or when a member is
    /// itself striped (stripes do not nest). Every member's [`IoStats`]
    /// shares one [`ContentionState`], so clients admitted to the stripe
    /// slow every member down proportionally.
    pub fn new(members: Vec<AnyDevice>) -> Result<Self> {
        let Some(first) = members.first() else {
            return Err(StorageError::BadStripe(
                "a stripe needs at least one member".into(),
            ));
        };
        let page_size = first.page_size();
        if let Some(odd) = members.iter().find(|m| m.page_size() != page_size) {
            return Err(StorageError::BadStripe(format!(
                "members disagree on page size ({} vs {})",
                page_size,
                odd.page_size()
            )));
        }
        if members.iter().any(|m| m.stripe_members() > 1) {
            return Err(StorageError::BadStripe(
                "stripes do not nest: a member is itself striped".into(),
            ));
        }
        let contention = ContentionState::new();
        for member in &members {
            member.io_stats().share_contention(Arc::clone(&contention));
        }
        let aggregate = first.io_stats().fresh();
        Ok(StripedDevice {
            shared: Arc::new(StripedShared {
                members,
                placement: Mutex::new(HashMap::new()),
                next: AtomicU64::new(0),
                contention,
                aggregate,
                page_size,
            }),
            pin: None,
        })
    }

    /// Number of stripe members.
    pub fn members(&self) -> usize {
        self.shared.members.len()
    }

    /// The member devices, in member order.
    pub fn member_devices(&self) -> &[AnyDevice] {
        &self.shared.members
    }

    /// One I/O snapshot per member, in member order. Summing these (see
    /// [`IoStatsSnapshot::merged`]) reproduces [`StorageDevice::stats`].
    pub fn member_stats(&self) -> Vec<IoStatsSnapshot> {
        self.shared.members.iter().map(|m| m.stats()).collect()
    }

    /// The stripe member a new file is created on: the pinned member, or
    /// the next one round-robin.
    fn member_for_create(&self) -> usize {
        match self.pin {
            Some(pin) => pin,
            None => self.shared.next.fetch_add(1, Ordering::SeqCst) as usize % self.members(),
        }
    }

    /// The member holding `name`: the placement map first, then a probe of
    /// every member (files can predate this wrapper when a stripe is built
    /// over populated devices).
    fn locate(&self, name: &str) -> Option<usize> {
        if let Some(&index) = self.shared.placement.lock().get(name) {
            return Some(index);
        }
        let found = self.shared.members.iter().position(|m| m.exists(name))?;
        self.shared.placement.lock().insert(name.to_string(), found);
        Some(found)
    }
}

impl StorageDevice for StripedDevice {
    fn page_size(&self) -> usize {
        self.shared.page_size
    }

    fn create(&self, name: &str) -> Result<Box<dyn PageFile>> {
        // Names are unique across the whole stripe, not per member.
        if self.exists(name) {
            return Err(StorageError::AlreadyExists(name.to_string()));
        }
        let index = self.member_for_create();
        let file = self.shared.members[index].create(name)?;
        self.shared.placement.lock().insert(name.to_string(), index);
        Ok(file)
    }

    fn open(&self, name: &str) -> Result<Box<dyn PageFile>> {
        let index = self
            .locate(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.shared.members[index].open(name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let index = self
            .locate(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.shared.members[index].remove(name)?;
        self.shared.placement.lock().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.locate(name).is_some()
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.members.iter().flat_map(|m| m.list()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// A pinned view answers with its member's statistics (so wrappers like
    /// [`ScopedDevice`](crate::scoped::ScopedDevice) mirror the member's
    /// costs); an unpinned view answers with a dormant aggregate whose
    /// counters stay zero — read [`stats`](StorageDevice::stats) (the
    /// member fold) or [`StripedDevice::member_stats`] for real numbers.
    fn io_stats(&self) -> &IoStats {
        match self.pin {
            Some(index) => self.shared.members[index].io_stats(),
            None => &self.shared.aggregate,
        }
    }

    /// The stripe totals: the field-wise fold of every member's snapshot,
    /// regardless of pinning.
    fn stats(&self) -> IoStatsSnapshot {
        self.shared
            .members
            .iter()
            .fold(IoStatsSnapshot::default(), |total, m| {
                total.merged(&m.stats())
            })
    }

    fn reset_stats(&self) {
        for member in &self.shared.members {
            member.reset_stats();
        }
        self.shared.aggregate.reset();
    }

    fn stripe_members(&self) -> usize {
        self.members()
    }

    fn shard_view(&self, index: usize) -> Self {
        let mut view = self.clone();
        view.pin = Some(index % self.members());
        view
    }

    fn attach_io_client(&self) -> Option<IoClientGuard> {
        Some(self.shared.contention.attach())
    }

    /// `true` when any member has wall-clock latency.
    fn has_wall_clock_latency(&self) -> bool {
        self.member_devices()
            .iter()
            .any(StorageDevice::has_wall_clock_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::model::ModelId;

    fn sim_members(count: usize, model: ModelId) -> Vec<AnyDevice> {
        (0..count)
            .map(|_| AnyDevice::Sim(SimDevice::with_model(model)))
            .collect()
    }

    fn member_holding(stripe: &StripedDevice, name: &str) -> usize {
        stripe
            .shared
            .members
            .iter()
            .position(|m| m.exists(name))
            .expect("file placed somewhere")
    }

    #[test]
    fn round_robin_cycles_files_across_members() {
        let stripe = StripedDevice::new(sim_members(3, ModelId::Nvme)).unwrap();
        for name in ["a", "b", "c", "d"] {
            stripe.create(name).unwrap();
        }
        assert_eq!(member_holding(&stripe, "a"), 0);
        assert_eq!(member_holding(&stripe, "b"), 1);
        assert_eq!(member_holding(&stripe, "c"), 2);
        assert_eq!(member_holding(&stripe, "d"), 0);
        // Every file is reachable through the stripe front.
        for name in ["a", "b", "c", "d"] {
            assert!(stripe.exists(name));
            stripe.open(name).unwrap();
        }
        assert_eq!(stripe.list(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn pinned_views_route_to_their_member_without_advancing_round_robin() {
        let stripe = StripedDevice::new(sim_members(2, ModelId::Nvme)).unwrap();
        let shard1 = stripe.shard_view(1);
        shard1.create("spill.0").unwrap();
        shard1.create("spill.1").unwrap();
        assert_eq!(member_holding(&stripe, "spill.0"), 1);
        assert_eq!(member_holding(&stripe, "spill.1"), 1);
        // Pinned creates must not advance the shared cursor: the next
        // unpinned create still starts at member 0.
        stripe.create("out").unwrap();
        assert_eq!(member_holding(&stripe, "out"), 0);
        // shard_view wraps around the member count.
        stripe.shard_view(5).create("spill.2").unwrap();
        assert_eq!(member_holding(&stripe, "spill.2"), 1);
    }

    #[test]
    fn member_counters_sum_to_the_stripe_totals() {
        let stripe = StripedDevice::new(sim_members(3, ModelId::Hdd7200)).unwrap();
        let page = vec![1u8; stripe.page_size()];
        for (name, writes) in [("a", 4u64), ("b", 2), ("c", 7)] {
            let mut f = stripe.create(name).unwrap();
            for i in 0..writes {
                f.write_page(i, &page).unwrap();
            }
        }
        let mut buf = vec![0u8; stripe.page_size()];
        stripe.open("c").unwrap().read_page(0, &mut buf).unwrap();
        let folded = stripe
            .member_stats()
            .into_iter()
            .fold(IoStatsSnapshot::default(), |a, b| a.merged(&b));
        let total = stripe.stats();
        assert_eq!(folded.counters, total.counters);
        assert_eq!(total.counters.pages_written, 13);
        assert_eq!(total.counters.pages_read, 1);
        assert_eq!(total.counters.files_created, 3);
        // The unpinned io_stats view is dormant by design.
        assert_eq!(stripe.io_stats().snapshot().counters.pages_written, 0);
    }

    #[test]
    fn pinned_io_stats_are_the_members_own() {
        let stripe = StripedDevice::new(sim_members(2, ModelId::Nvme)).unwrap();
        let shard0 = stripe.shard_view(0);
        let page = vec![0u8; stripe.page_size()];
        shard0.create("f").unwrap().write_page(0, &page).unwrap();
        assert_eq!(shard0.io_stats().snapshot().counters.pages_written, 1);
        assert_eq!(
            stripe
                .shard_view(1)
                .io_stats()
                .snapshot()
                .counters
                .pages_written,
            0
        );
        // stats() keeps reporting stripe totals even on pinned views.
        assert_eq!(shard0.stats().counters.pages_written, 1);
    }

    #[test]
    fn duplicate_names_collide_across_members() {
        let stripe = StripedDevice::new(sim_members(2, ModelId::Nvme)).unwrap();
        stripe.create("x").unwrap();
        // The round-robin cursor points at member 1 now, but "x" lives on
        // member 0 and must still be refused.
        assert!(matches!(
            stripe.create("x"),
            Err(StorageError::AlreadyExists(_))
        ));
        stripe.remove("x").unwrap();
        assert!(!stripe.exists("x"));
        assert!(matches!(stripe.remove("x"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn bad_stripes_are_rejected() {
        assert!(matches!(
            StripedDevice::new(Vec::new()),
            Err(StorageError::BadStripe(_))
        ));
        let mismatched = vec![
            AnyDevice::Sim(SimDevice::custom(4096, ModelId::Nvme)),
            AnyDevice::Sim(SimDevice::custom(8192, ModelId::Nvme)),
        ];
        assert!(matches!(
            StripedDevice::new(mismatched),
            Err(StorageError::BadStripe(_))
        ));
        let nested = StripedDevice::new(sim_members(2, ModelId::Nvme)).unwrap();
        assert!(matches!(
            StripedDevice::new(vec![AnyDevice::Striped(nested)]),
            Err(StorageError::BadStripe(_))
        ));
    }

    #[test]
    fn admitted_clients_slow_every_member_proportionally() {
        let stripe = StripedDevice::new(sim_members(2, ModelId::Hdd7200)).unwrap();
        let page = vec![0u8; stripe.page_size()];
        let mut buf = vec![0u8; stripe.page_size()];
        let mut write_read = |name: &str| {
            let mut f = stripe.create(name).unwrap();
            f.write_page(0, &page).unwrap();
            stripe.open(name).unwrap().read_page(0, &mut buf).unwrap();
        };
        write_read("solo");
        let solo = stripe.stats().sim_io;
        stripe.reset_stats();

        let _first = stripe.attach_io_client().expect("stripes model contention");
        let _second = stripe.attach_io_client().expect("stripes model contention");
        write_read("contended");
        let contended = stripe.stats().sim_io;
        // Two admitted streams → every access costs twice as much, while
        // the deterministic counters are unchanged.
        assert_eq!(contended, solo * 2);
        assert!(contended > solo);
    }

    #[test]
    fn reset_clears_every_member() {
        let stripe = StripedDevice::new(sim_members(2, ModelId::Nvme)).unwrap();
        let page = vec![0u8; stripe.page_size()];
        stripe.create("f").unwrap().write_page(0, &page).unwrap();
        stripe.reset_stats();
        assert_eq!(stripe.stats().counters.pages_written, 0);
        assert!(stripe.member_stats().iter().all(|s| s.pages_total() == 0));
    }
}
