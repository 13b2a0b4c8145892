//! Cooperative-preemption acceptance: canceling a *running* job must end
//! it as `Canceled` at the next phase/page boundary, with zero leftover
//! spill files and its whole memory lease returned — no matter which
//! phase of the pipeline (run generation, intermediate merge, final
//! pass) the cancel lands in, sequential or parallel.
//!
//! The tests drive cancellation from inside the I/O path: the shared
//! test device counts every page read/write and fires the job's
//! `CancellationToken` at a precise operation number, chosen as a
//! fraction of a calibration run's total. That pins the preemption point
//! to the sort's I/O timeline instead of wall-clock sleeps.

mod common;

use common::TestDevice;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use two_way_replacement_selection::prelude::*;
use twrs_extsort::service::RebalanceKind;
use twrs_extsort::{CancellationToken, SortError};

/// A [`SimDevice`] that fires a [`CancellationToken`] when the
/// `fire_at`-th page operation (read or write, any file) happens, and the
/// count of operations so far.
fn trigger_device(fire_at: u64, token: CancellationToken) -> (TestDevice, Arc<AtomicU64>) {
    let ops = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&ops);
    let device = TestDevice::sim().on_page(move |_| {
        if counted.fetch_add(1, Ordering::SeqCst) + 1 == fire_at {
            token.cancel();
        }
        Ok(())
    });
    (device, ops)
}

const GLOBAL_MEMORY: usize = 500;

/// Runs one `records`-record job through a single-worker service on a
/// trigger device that cancels at page operation `fire_at`; returns the
/// device, the job outcome, the service report and the total operations
/// counted.
fn run_with_trigger(
    fire_at: u64,
    threads: usize,
    records: u64,
) -> (
    TestDevice,
    twrs_extsort::Result<CompletedJob>,
    ServiceReport,
    u64,
) {
    let token = CancellationToken::new();
    let (device, ops) = trigger_device(fire_at, token.clone());
    let service = SortService::new(
        ServiceConfig::new(GLOBAL_MEMORY)
            .workers(1)
            .grant_policy(GrantPolicy::FixedShare { shares: 1 }),
    )
    .unwrap();
    let input = Distribution::new(DistributionKind::RandomUniform, records, 0xFEED);
    let job = SortJob::new(ReplacementSelection::new(GLOBAL_MEMORY))
        .on(&device)
        .threads(threads)
        .cancel_token(token);
    let handle = service.submit("t", job, input.records(), "out").unwrap();
    let outcome = handle.wait();
    let report = service.shutdown();
    let ops = ops.load(Ordering::SeqCst);
    (device, outcome, report, ops)
}

/// Total page operations of an uncanceled run, calibrated once per
/// thread count (the workload is deterministic, so the count is too).
fn calibrated_total(threads: usize, records: u64) -> u64 {
    static TOTALS: OnceLock<std::sync::Mutex<std::collections::BTreeMap<(usize, u64), u64>>> =
        OnceLock::new();
    let totals = TOTALS.get_or_init(Default::default);
    if let Some(&total) = totals.lock().unwrap().get(&(threads, records)) {
        return total;
    }
    let (device, outcome, report, total) = run_with_trigger(u64::MAX, threads, records);
    let done = outcome.expect("calibration run must complete");
    assert_eq!(done.report.report.records, records);
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(device.list(), vec!["out".to_string()]);
    totals.lock().unwrap().insert((threads, records), total);
    total
}

/// Cancels a 100k-record job at a given fraction of its I/O timeline and
/// checks the full preemption contract.
fn preempt_at(phase: &str, fraction_percent: u64, threads: usize) {
    let records = 100_000;
    let total = calibrated_total(threads, records);
    let fire_at = (total * fraction_percent / 100).max(1);
    let (device, outcome, report, _) = run_with_trigger(fire_at, threads, records);
    match outcome {
        Err(SortError::Canceled(_)) => {}
        other => panic!("{phase} (threads={threads}): expected Canceled, got {other:?}"),
    }
    // No leftover spill files, no partial output.
    assert_eq!(
        device.list(),
        Vec::<String>::new(),
        "{phase} (threads={threads}) left files behind"
    );
    // Exactly one lease and one release, returning the arbiter to its
    // pre-admission level.
    assert_eq!(report.jobs_canceled_running, 1);
    assert_eq!(report.jobs_canceled, 1);
    assert_eq!(report.jobs_completed, 0);
    assert_eq!(report.rebalances.len(), 2, "{phase} (threads={threads})");
    let lease = report.rebalances[0];
    let release = report.rebalances[1];
    assert_eq!(lease.kind, RebalanceKind::Lease);
    assert_eq!(release.kind, RebalanceKind::Release);
    assert_eq!(release.granted, lease.granted, "partial lease returned");
    assert_eq!(release.leased_after, 0);
    assert_eq!(release.active_after, 0);
}

/// With 500 records of memory over 100k records, run generation is
/// roughly the first fifth of the I/O timeline, the intermediate merges
/// the middle, and the final pass the tail — the three fractions below
/// land one cancel in each phase.
#[test]
fn preemption_in_every_phase_single_threaded() {
    preempt_at("run generation", 8, 1);
    preempt_at("intermediate merge", 45, 1);
    preempt_at("final pass", 85, 1);
}

#[test]
fn preemption_in_every_phase_multi_threaded() {
    preempt_at("run generation", 8, 4);
    preempt_at("intermediate merge", 45, 4);
    preempt_at("final pass", 85, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever operation the cancel lands on — including after the job
    /// already finished — the job ends Ok or Canceled (never hangs, never
    /// another error), a canceled job leaves a clean device, and
    /// `sum(leases) <= global` holds at every rebalance point.
    #[test]
    fn random_cancel_timing_never_violates_the_lease_invariant(
        fraction_ppm in 1_000usize..1_200_000,
        threads in 1usize..3,
    ) {
        let records = 20_000;
        let total = calibrated_total(threads, records);
        let fire_at = (total.saturating_mul(fraction_ppm as u64) / 1_000_000).max(1);
        let (device, outcome, report, _) = run_with_trigger(fire_at, threads, records);
        match outcome {
            Ok(done) => {
                prop_assert_eq!(done.report.report.records, records);
                prop_assert_eq!(device.list(), vec!["out".to_string()]);
            }
            Err(SortError::Canceled(_)) => {
                prop_assert_eq!(device.list(), Vec::<String>::new());
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
        prop_assert_eq!(report.rebalances.len(), 2);
        for event in &report.rebalances {
            prop_assert!(
                event.leased_after <= report.global_memory_records,
                "rebalance violated the budget: {:?}",
                event
            );
        }
        prop_assert_eq!(report.rebalances.last().unwrap().leased_after, 0);
    }
}
