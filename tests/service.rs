//! Sort-service acceptance: many concurrent jobs from multiple tenants,
//! under a global memory budget smaller than the sum of the budgets the
//! jobs ask for, must (a) produce byte-identical output to the same jobs
//! run one at a time, and (b) keep the arbiter invariant
//! `sum(leases) <= global` at every rebalance point.

use proptest::prelude::*;
use std::time::Duration;
use two_way_replacement_selection::prelude::*;

fn read_run(device: &SimDevice, name: &str) -> Vec<Record> {
    RunReader::<Record>::open(device, name)
        .unwrap()
        .read_all()
        .unwrap()
}

/// Submits arrival `index` of a trace, cycling the three generator
/// families so contention covers RS, LSS and 2WRS alike.
fn submit_arrival(
    service: &SortService,
    device: &SimDevice,
    arrival: &JobArrival,
    index: usize,
    output: String,
) -> JobHandle {
    let input =
        Distribution::new(arrival.distribution, arrival.records as u64, arrival.seed).records();
    match index % 3 {
        0 => service.submit(
            arrival.tenant.clone(),
            SortJob::new(ReplacementSelection::new(arrival.memory_records)).on(device),
            input,
            output,
        ),
        1 => service.submit(
            arrival.tenant.clone(),
            SortJob::new(LoadSortStore::new(arrival.memory_records)).on(device),
            input,
            output,
        ),
        _ => service.submit(
            arrival.tenant.clone(),
            SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
                arrival.memory_records,
            )))
            .on(device),
            input,
            output,
        ),
    }
    .unwrap()
}

/// Runs arrival `index` solo — fresh device, full requested budget, same
/// generator family as [`submit_arrival`] — and returns the sorted output.
fn solo_run(arrival: &JobArrival, index: usize) -> Vec<Record> {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input =
        Distribution::new(arrival.distribution, arrival.records as u64, arrival.seed).records();
    match index % 3 {
        0 => SortJob::new(ReplacementSelection::new(arrival.memory_records))
            .on(&device)
            .run_iter(input, "solo"),
        1 => SortJob::new(LoadSortStore::new(arrival.memory_records))
            .on(&device)
            .run_iter(input, "solo"),
        _ => SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
            arrival.memory_records,
        )))
        .on(&device)
        .run_iter(input, "solo"),
    }
    .unwrap();
    read_run(&device, "solo")
}

/// The headline contention scenario of the service: nine jobs from two
/// tenants each request 120 records of memory (1 080 total) against a
/// global budget of 250, with three jobs in flight at once.
#[test]
fn contended_service_jobs_match_solo_runs() {
    let trace = ArrivalTrace::synthetic(2, 9, 1_500, 120, Duration::ZERO, 0xC0FFEE);
    let global = 250;
    assert!(
        global < trace.jobs().iter().map(|j| j.memory_records).sum::<usize>(),
        "the scenario must actually contend for memory"
    );
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let service = SortService::new(ServiceConfig::new(global).workers(3)).unwrap();
    let handles: Vec<JobHandle> = trace
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, arrival)| submit_arrival(&service, &device, arrival, i, format!("svc-{i}")))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let arrival = &trace.jobs()[i];
        assert_eq!(handle.tenant(), arrival.tenant);
        let done = handle.wait().unwrap();
        assert_eq!(done.report.report.records, arrival.records as u64);
        assert!(
            done.granted_memory >= 1 && done.granted_memory <= arrival.memory_records,
            "job {i}: grant {} outside 1..={}",
            done.granted_memory,
            arrival.memory_records
        );
        // Byte-identical to the same job run alone with its full budget:
        // the sorted output is a pure function of the input, never of the
        // memory the arbiter happened to grant.
        assert_eq!(
            read_run(&device, &format!("svc-{i}")),
            solo_run(arrival, i),
            "service job {i} diverged from its solo run"
        );
    }
    let report = service.shutdown();
    assert_eq!(report.jobs_completed, 9);
    assert_eq!(report.jobs_failed, 0);
    assert_eq!(report.jobs_canceled, 0);
    // The invariant holds at every rebalance point, not just at the end.
    assert_eq!(report.global_memory_records, global);
    assert!(report.max_leased <= global);
    assert_eq!(
        report.rebalances.len(),
        18,
        "one lease + one release per job"
    );
    for event in &report.rebalances {
        assert!(
            event.leased_after <= global,
            "rebalance violated the budget: {event:?}"
        );
    }
    // Queue and sort latency percentiles are populated and ordered.
    assert!(report.queue_latency.p50 <= report.queue_latency.p99);
    assert!(report.queue_latency.p99 <= report.queue_latency.max);
    assert!(report.sort_latency.p50 <= report.sort_latency.p99);
    assert!(report.sort_latency.max > Duration::ZERO);
    // Both tenants are reported, with their jobs and I/O rolled up.
    assert_eq!(report.tenants.len(), 2);
    let jobs: Vec<usize> = report.tenants.iter().map(|t| t.jobs).collect();
    assert_eq!(jobs.iter().sum::<usize>(), 9);
    for tenant in &report.tenants {
        assert_eq!(tenant.records, tenant.jobs as u64 * 1_500);
        assert!(tenant.io.unwrap().counters.pages_written > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary arrival orders, budgets and worker counts: every job
    /// completes, every grant fits its request, and `sum(leases)` never
    /// exceeds the global budget at any rebalance in the audit trail.
    #[test]
    fn leases_never_exceed_the_global_budget(
        budgets in prop::collection::vec(1usize..200, 1..8),
        global in 40usize..300,
        workers in 1usize..4,
    ) {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(global).workers(workers)).unwrap();
        let handles: Vec<JobHandle> = budgets
            .iter()
            .enumerate()
            .map(|(i, &budget)| {
                let input =
                    Distribution::new(DistributionKind::RandomUniform, 400, i as u64).records();
                let job = SortJob::new(ReplacementSelection::new(budget)).on(&device);
                service
                    .submit(format!("tenant-{}", i % 2), job, input, format!("out-{i}"))
                    .unwrap()
            })
            .collect();
        for (handle, &budget) in handles.into_iter().zip(&budgets) {
            let done = handle.wait().unwrap();
            prop_assert_eq!(done.report.report.records, 400);
            prop_assert!(done.granted_memory >= 1);
            prop_assert!(done.granted_memory <= budget.min(global));
        }
        let report = service.shutdown();
        prop_assert_eq!(report.jobs_completed, budgets.len());
        prop_assert!(report.max_leased <= global);
        prop_assert_eq!(report.rebalances.len(), 2 * budgets.len());
        for event in &report.rebalances {
            prop_assert!(
                event.leased_after <= global,
                "rebalance violated the budget: {:?}",
                event
            );
        }
    }
}
