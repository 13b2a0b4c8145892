//! The global memory arbiter: leases page-budget grants to jobs.
//!
//! Every job asks for the memory its generator was built with; the arbiter
//! grants at most a *fair share* of the global budget and never more than
//! what is currently unleased, blocking the admitting worker until enough
//! memory frees up. The governing invariant — checked by an audit trail of
//! [`RebalanceEvent`]s — is
//!
//! ```text
//! sum(outstanding leases) <= global budget      (at every rebalance point)
//! ```
//!
//! Rebalance points are job start (lease) and job finish (release): grants
//! shrink as concurrency rises and grow back as jobs drain, using the same
//! [`shard_budget`] split a sharded sort uses to divide one budget across
//! shards.
//!
//! Grants are *weighted*: a tenant with priority weight `w` counts as `w`
//! shares in the split, so a weight-3 tenant's cap is three times a
//! weight-1 tenant's (both clamped to the global budget). Weight 1
//! everywhere reproduces the unweighted formulas exactly.

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::parallel::shard_budget;
use crate::sync::{lock_or_poison, wait_or_poison};
use std::sync::{Condvar, Mutex};

/// How the arbiter caps an individual grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantPolicy {
    /// A new job's grant is capped at the largest shard of an
    /// `(active + 1)`-way split of the global budget: the first job can
    /// take everything, the second arrival at most half, and so on.
    /// Adapts to load, but a job's grant depends on how many jobs were
    /// active at its admission instant.
    Adaptive,
    /// Every grant is capped at the largest shard of a fixed `shares`-way
    /// split of the global budget, regardless of current load. Grants —
    /// and therefore per-job I/O counters — are independent of admission
    /// timing, which is what the bench suite's deterministic baseline
    /// gate needs.
    FixedShare {
        /// Number of ways the global budget is notionally split.
        shares: usize,
    },
}

/// What happened at one rebalance point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceKind {
    /// A job was granted a lease (job start).
    Lease,
    /// A job returned its lease (job finish).
    Release,
}

/// One entry of the arbiter's audit trail, recorded at every rebalance
/// point so tests (and the bench suite) can check the lease invariant at
/// each of them.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceEvent {
    /// Lease or release.
    pub kind: RebalanceKind,
    /// What the job originally asked for (its generator's budget).
    pub requested: usize,
    /// What the arbiter granted (for a release: what is being returned).
    pub granted: usize,
    /// Total outstanding leases *after* this event.
    pub leased_after: usize,
    /// Number of jobs holding leases *after* this event.
    pub active_after: usize,
}

struct ArbiterState {
    leased: usize,
    active: usize,
    /// Sum of the priority weights of the jobs holding leases; equals
    /// `active` when every tenant runs at the default weight.
    active_weight: usize,
    max_leased: usize,
    events: Vec<RebalanceEvent>,
}

/// The global memory-budget arbiter of a
/// [`SortService`](crate::service::SortService).
pub struct MemoryArbiter {
    global: usize,
    policy: GrantPolicy,
    state: Mutex<ArbiterState>,
    freed: Condvar,
}

impl MemoryArbiter {
    /// Creates an arbiter over `global` records of memory.
    pub fn new(global: usize, policy: GrantPolicy) -> Result<Self> {
        if global == 0 {
            return Err(SortError::InvalidConfig(
                "the service needs a global memory budget of at least one record".into(),
            ));
        }
        if let GrantPolicy::FixedShare { shares: 0 } = policy {
            return Err(SortError::InvalidConfig(
                "GrantPolicy::FixedShare needs at least one share".into(),
            ));
        }
        Ok(MemoryArbiter {
            global,
            policy,
            state: Mutex::new(ArbiterState {
                leased: 0,
                active: 0,
                active_weight: 0,
                max_leased: 0,
                events: Vec::new(),
            }),
            freed: Condvar::new(),
        })
    }

    /// The global budget, in records.
    pub fn global(&self) -> usize {
        self.global
    }

    /// A `weight`-share cap given `active_weight` shares already leased.
    /// The weighted budget is clamped to the global so a heavy tenant's
    /// `want` can never exceed what a fully drained arbiter could grant —
    /// otherwise a lone high-priority job would block forever.
    fn cap(&self, active_weight: usize, weight: usize) -> usize {
        match self.policy {
            // Largest shard of the split — shard 0 gets base + remainder.
            GrantPolicy::Adaptive => shard_budget(
                self.global.saturating_mul(weight),
                0,
                active_weight + weight,
            )
            .min(self.global),
            GrantPolicy::FixedShare { shares } => {
                shard_budget(self.global.saturating_mul(weight), 0, shares).min(self.global)
            }
        }
    }

    /// Blocks until a grant is available and leases it. The grant is at
    /// least one record and at most `min(requested, fair share)`, where the
    /// fair share is a `weight`-share cut of the budget; the sum of
    /// outstanding leases never exceeds the global budget. The wait aborts
    /// — returning `None` without booking anything — once `cancel` trips.
    /// Cancellation while blocked relies on the canceler calling the
    /// crate-private `notify_waiters` after firing the token.
    pub fn lease(
        &self,
        requested: usize,
        weight: usize,
        cancel: &CancellationToken,
    ) -> Option<usize> {
        let weight = weight.max(1);
        let mut state = lock_or_poison(&self.state);
        loop {
            if cancel.is_canceled() {
                return None;
            }
            // Recomputed on every wake-up: the fair share moves with the
            // total weight of active jobs.
            let want = requested.clamp(1, self.cap(state.active_weight, weight));
            let available = self.global - state.leased;
            if want <= available {
                state.leased += want;
                state.active += 1;
                state.active_weight += weight;
                state.max_leased = state.max_leased.max(state.leased);
                let event = RebalanceEvent {
                    kind: RebalanceKind::Lease,
                    requested,
                    granted: want,
                    leased_after: state.leased,
                    active_after: state.active,
                };
                state.events.push(event);
                return Some(want);
            }
            state = wait_or_poison(&self.freed, state);
        }
    }

    /// Returns a lease obtained from [`lease`](MemoryArbiter::lease) with
    /// the same `weight` and wakes every waiting admission.
    pub fn release(&self, granted: usize, weight: usize) {
        let weight = weight.max(1);
        let mut state = lock_or_poison(&self.state);
        debug_assert!(state.leased >= granted && state.active >= 1);
        state.leased = state.leased.saturating_sub(granted);
        state.active = state.active.saturating_sub(1);
        state.active_weight = state.active_weight.saturating_sub(weight);
        let event = RebalanceEvent {
            kind: RebalanceKind::Release,
            requested: granted,
            granted,
            leased_after: state.leased,
            active_after: state.active,
        };
        state.events.push(event);
        self.freed.notify_all();
    }

    /// Wakes every blocked [`lease`] so it can re-check its
    /// token. Takes the state lock first: a waiter sits either *holding*
    /// the lock (about to check the token) or *inside* the condvar wait,
    /// so a notify issued under the lock can never slip into the gap
    /// between its check and its wait.
    ///
    /// [`lease`]: MemoryArbiter::lease
    pub(crate) fn notify_waiters(&self) {
        let _state = lock_or_poison(&self.state);
        self.freed.notify_all();
    }

    /// Total outstanding leases right now.
    pub fn leased(&self) -> usize {
        lock_or_poison(&self.state).leased
    }

    /// High-water mark of outstanding leases over the arbiter's lifetime.
    pub fn max_leased(&self) -> usize {
        lock_or_poison(&self.state).max_leased
    }

    /// The audit trail so far, in rebalance order.
    pub fn events(&self) -> Vec<RebalanceEvent> {
        lock_or_poison(&self.state).events.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A weight-1 lease that nothing cancels.
    fn lease(arbiter: &MemoryArbiter, requested: usize) -> usize {
        arbiter
            .lease(requested, 1, &CancellationToken::new())
            .unwrap()
    }

    #[test]
    fn first_job_gets_everything_later_jobs_get_fair_shares() {
        let arbiter = MemoryArbiter::new(900, GrantPolicy::Adaptive).unwrap();
        let a = lease(&arbiter, 900);
        // No other active jobs: the whole global budget is on offer.
        assert_eq!(a, 900);
        arbiter.release(a, 1);
        let a = lease(&arbiter, 100);
        // Requested less than the fair share: get what was asked.
        assert_eq!(a, 100);
        let b = lease(&arbiter, 900);
        // One job active: capped at half the global budget.
        assert_eq!(b, 450);
        let c = lease(&arbiter, 900);
        // Two jobs active: capped at a third.
        assert_eq!(c, 300);
        assert_eq!(arbiter.leased(), 100 + 450 + 300);
        assert!(arbiter.leased() <= arbiter.global());
        arbiter.release(b, 1);
        arbiter.release(c, 1);
        arbiter.release(a, 1);
        assert_eq!(arbiter.leased(), 0);
    }

    #[test]
    fn fixed_share_grants_ignore_load() {
        let arbiter = MemoryArbiter::new(1000, GrantPolicy::FixedShare { shares: 4 }).unwrap();
        let a = lease(&arbiter, 1000);
        let b = lease(&arbiter, 1000);
        assert_eq!(a, 250);
        assert_eq!(b, 250);
        arbiter.release(a, 1);
        assert_eq!(lease(&arbiter, 1000), 250);
    }

    #[test]
    fn lease_blocks_until_memory_frees() {
        let arbiter =
            Arc::new(MemoryArbiter::new(100, GrantPolicy::FixedShare { shares: 1 }).unwrap());
        let first = lease(&arbiter, 100);
        assert_eq!(first, 100);
        let waiter = {
            let arbiter = arbiter.clone();
            std::thread::spawn(move || {
                let grant = lease(&arbiter, 80);
                arbiter.release(grant, 1);
                grant
            })
        };
        // Give the waiter time to block, then free the budget.
        std::thread::sleep(std::time::Duration::from_millis(20));
        arbiter.release(first, 1);
        assert_eq!(waiter.join().unwrap(), 80);
        assert_eq!(arbiter.leased(), 0);
        assert_eq!(arbiter.max_leased(), 100);
    }

    #[test]
    fn every_event_respects_the_invariant() {
        let arbiter = MemoryArbiter::new(500, GrantPolicy::Adaptive).unwrap();
        let a = lease(&arbiter, 400);
        let c = lease(&arbiter, 50);
        arbiter.release(a, 1);
        let b = lease(&arbiter, 400);
        arbiter.release(c, 1);
        arbiter.release(b, 1);
        let events = arbiter.events();
        assert_eq!(events.len(), 6);
        for event in &events {
            assert!(
                event.leased_after <= arbiter.global(),
                "lease invariant violated at {event:?}"
            );
        }
        assert_eq!(events.last().unwrap().leased_after, 0);
    }

    #[test]
    fn zero_budget_is_rejected() {
        assert!(MemoryArbiter::new(0, GrantPolicy::Adaptive).is_err());
        assert!(MemoryArbiter::new(10, GrantPolicy::FixedShare { shares: 0 }).is_err());
    }

    #[test]
    fn weighted_grants_scale_with_priority() {
        // FixedShare: a weight-3 tenant's cap is 3 of 4 shares, a
        // weight-1 tenant's is 1 of 4 — and both fit concurrently.
        let arbiter = MemoryArbiter::new(240, GrantPolicy::FixedShare { shares: 4 }).unwrap();
        let high = arbiter.lease(240, 3, &CancellationToken::new()).unwrap();
        let low = arbiter.lease(240, 1, &CancellationToken::new()).unwrap();
        assert_eq!(high, 180);
        assert_eq!(low, 60);
        assert!(high >= 2 * low);
        arbiter.release(high, 3);
        arbiter.release(low, 1);
        assert_eq!(arbiter.leased(), 0);

        // Adaptive: with one weight-1 job active, a weight-3 arrival gets
        // 3 of the 4 outstanding shares; a lone heavy job is still capped
        // at the global budget.
        let arbiter = MemoryArbiter::new(240, GrantPolicy::Adaptive).unwrap();
        let alone = arbiter.lease(500, 3, &CancellationToken::new()).unwrap();
        assert_eq!(alone, 240);
        arbiter.release(alone, 3);
        let low = arbiter.lease(30, 1, &CancellationToken::new()).unwrap();
        let high = arbiter.lease(240, 3, &CancellationToken::new()).unwrap();
        assert_eq!(high, shard_budget(240 * 3, 0, 4));
        arbiter.release(high, 3);
        arbiter.release(low, 1);
    }

    #[test]
    fn a_canceled_waiter_unblocks_without_a_lease() {
        let arbiter =
            Arc::new(MemoryArbiter::new(100, GrantPolicy::FixedShare { shares: 1 }).unwrap());
        let first = lease(&arbiter, 100);
        let token = CancellationToken::new();
        let waiter = {
            let arbiter = arbiter.clone();
            let token = token.clone();
            std::thread::spawn(move || arbiter.lease(80, 1, &token))
        };
        // Let the waiter block, then cancel and wake it: it must return
        // None with nothing booked, while the original lease stands.
        std::thread::sleep(std::time::Duration::from_millis(20));
        token.cancel();
        arbiter.notify_waiters();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(arbiter.leased(), 100);
        arbiter.release(first, 1);
        assert_eq!(arbiter.leased(), 0);
    }
}
