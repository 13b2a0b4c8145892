//! Multi-job sort-service scenarios: queue-latency percentiles and
//! deterministic aggregate I/O under memory contention.
//!
//! A [`ServiceScenario`] replays a seeded [`ArrivalTrace`] against a
//! [`SortService`] whose global budget is smaller than the sum of the
//! budgets the jobs request, so admission genuinely contends. Grants use
//! [`GrantPolicy::FixedShare`] with one share per worker and every job runs
//! single-threaded on its own scope of a shared device — which makes the
//! per-job grant, and therefore each job's page/seek/run counters, a pure
//! function of the scenario. Their *sums* are deterministic no matter how
//! the workers interleave, so the baseline gate can pin them; the queue and
//! sort latency percentiles are wall-clock and are reported, never gated.

use super::matrix::MATRIX_SEED;
use super::runner::DeterministicCounters;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::service::{GrantPolicy, JobStatus, Priority, ServiceConfig, SortService};
use twrs_extsort::{
    JobHandle, LatencyPercentiles, LoadSortStore, ReplacementSelection, SortError, SortJob,
    SortJobReport,
};
use twrs_storage::ModelId;
use twrs_storage::SimDevice;
use twrs_workloads::{ArrivalTrace, Distribution, DistributionKind};

/// The tenant [`ArrivalTrace::synthetic`] always names first; priority
/// scenarios elevate it.
const PRIORITY_TENANT: &str = "tenant-0";

/// Running jobs canceled per scenario to measure request→Canceled
/// latency (reported, never gated — a probe may photo-finish `Ok`).
const CANCEL_PROBES: usize = 2;

/// One multi-job service scenario: a synthetic arrival trace replayed
/// against a `SortService` under a contended global memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceScenario {
    /// Number of jobs in the trace.
    pub jobs: usize,
    /// Number of tenants the jobs are dealt over.
    pub tenants: usize,
    /// Service worker threads (= jobs in flight at once).
    pub workers: usize,
    /// Global memory budget of the arbiter, in records. Scenarios keep
    /// this *below* `jobs * memory` so admission actually contends.
    pub global_memory: usize,
    /// Input records per job.
    pub records: u64,
    /// Memory budget each job requests, in records.
    pub memory: usize,
    /// Seed of the arrival trace (and, derived, of each job's input).
    pub seed: u64,
    /// Priority weight of `tenant-0` (1 = every tenant equal). A weighted
    /// scenario checks that the heavy tenant's fixed-share grant is at
    /// least twice any other tenant's.
    pub high_weight: usize,
}

impl ServiceScenario {
    /// A stable identifier, disjoint from the single-sort scenario ids
    /// (always `service-` prefixed; `service-prio-` when one tenant is
    /// weighted), used as the baseline key.
    pub fn id(&self) -> String {
        let (prio, weight) = if self.high_weight > 1 {
            ("prio-", format!("-hw{}", self.high_weight))
        } else {
            ("", String::new())
        };
        format!(
            "service-{prio}j{}-x{}-w{}-g{}-n{}-m{}{weight}",
            self.jobs, self.tenants, self.workers, self.global_memory, self.records, self.memory
        )
    }
}

/// The service scenarios a matrix runs, by matrix name. Both matrices
/// include the slice by default, so the unchanged CI invocation gates it;
/// `bench_suite --service` runs only this slice.
pub fn service_slice(matrix_name: &str) -> Vec<ServiceScenario> {
    let contended = ServiceScenario {
        jobs: 8,
        tenants: 2,
        workers: 3,
        global_memory: 250,
        records: 1_500,
        memory: 120,
        seed: MATRIX_SEED,
        high_weight: 1,
    };
    // Two tenants at fixed-share weights 3:1 over four shares of 240
    // records: tenant-0 is capped at 180, tenant-1 at 60, so the grant
    // ratio — and every counter downstream of it — is deterministic.
    let prioritized = ServiceScenario {
        workers: 4,
        global_memory: 240,
        memory: 200,
        high_weight: 3,
        ..contended
    };
    match matrix_name {
        "quick" => vec![contended, prioritized],
        "full" => vec![
            contended,
            prioritized,
            ServiceScenario {
                jobs: 12,
                tenants: 3,
                workers: 4,
                global_memory: 400,
                records: 4_000,
                memory: 200,
                ..contended
            },
        ],
        _ => Vec::new(),
    }
}

/// Everything measured for one service scenario.
#[derive(Debug, Clone)]
pub struct ServiceScenarioResult {
    /// The scenario that was run.
    pub scenario: ServiceScenario,
    /// Jobs that completed (must equal `scenario.jobs`; cancellation
    /// probes are counted separately).
    pub jobs_completed: usize,
    /// The smallest deterministic per-tenant memory grant under the
    /// fixed-share policy (grants are identical within a tenant; in an
    /// unweighted scenario they are identical across tenants too).
    pub granted_memory: usize,
    /// The deterministic fixed-share grant of each tenant, in tenant-name
    /// order.
    pub tenant_grants: Vec<(String, usize)>,
    /// High-water mark of simultaneously leased memory (wall-clock
    /// dependent; reported, not gated).
    pub max_leased: usize,
    /// Cancellation probes that actually ended `Canceled` (a probe may
    /// photo-finish `Ok`; wall-clock dependent, reported, not gated).
    pub jobs_canceled: usize,
    /// Queue + admission latency percentiles (submission → lease held).
    pub queue_latency: LatencyPercentiles,
    /// Sort execution latency percentiles.
    pub sort_latency: LatencyPercentiles,
    /// Cancellation latency percentiles (cancel request → the job
    /// completing as Canceled), from the scenario's cancellation probes.
    pub cancel_latency: LatencyPercentiles,
    /// Wall-clock of the whole scenario (submit → last job done), in
    /// microseconds.
    pub wall_us: u64,
    /// Aggregate deterministic counters, summed over every job.
    pub counters: DeterministicCounters,
}

impl ServiceScenarioResult {
    /// The machine-independent counters the baseline gate compares: the
    /// sum of every job's counters, which is interleaving-independent
    /// because each job runs on its own device scope with a deterministic
    /// grant.
    pub fn deterministic(&self) -> DeterministicCounters {
        self.counters
    }
}

fn job_counters(report: &SortJobReport) -> DeterministicCounters {
    let phases = [
        Some(&report.report.run_generation),
        Some(&report.report.merge),
        report.report.verify.as_ref(),
    ];
    let sum = |f: fn(&twrs_extsort::PhaseReport) -> u64| -> u64 {
        phases.iter().flatten().map(|p| f(p)).sum()
    };
    DeterministicCounters {
        pages_read: sum(|p| p.pages_read),
        pages_written: sum(|p| p.pages_written),
        final_pass_pages_written: report.report.final_pass_pages_written,
        runs: report.report.num_runs as u64,
        seeks: sum(|p| p.seeks),
    }
}

/// Runs one service scenario to completion and returns its measurements.
/// Fails on any job error, on a lost job, and on any violation of the
/// arbiter invariant `sum(leases) <= global` in the rebalance audit trail.
pub fn run_service_scenario(scenario: &ServiceScenario) -> Result<ServiceScenarioResult, String> {
    let id = scenario.id();
    let trace = ArrivalTrace::synthetic(
        scenario.tenants,
        scenario.jobs,
        scenario.records as usize,
        scenario.memory,
        Duration::ZERO,
        scenario.seed,
    );
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let mut config = ServiceConfig::new(scenario.global_memory)
        .workers(scenario.workers)
        .grant_policy(GrantPolicy::FixedShare {
            shares: scenario.workers,
        });
    if scenario.high_weight > 1 {
        config =
            config.tenant_priority(PRIORITY_TENANT, Priority::with_weight(scenario.high_weight));
    }
    let service = SortService::new(config).map_err(|e| format!("{id}: {e}"))?;

    let started = Instant::now();
    let handles: Vec<JobHandle> = trace
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let input =
                Distribution::new(arrival.distribution, arrival.records as u64, arrival.seed)
                    .records();
            let output = format!("svc-{i}");
            // Cycle the generator families so the slice contends RS, LSS
            // and 2WRS jobs against each other, all verified inline.
            match i % 3 {
                0 => service.submit(
                    arrival.tenant.clone(),
                    SortJob::new(ReplacementSelection::new(arrival.memory_records))
                        .on(&device)
                        .verify(true),
                    input,
                    output,
                ),
                1 => service.submit(
                    arrival.tenant.clone(),
                    SortJob::new(LoadSortStore::new(arrival.memory_records))
                        .on(&device)
                        .verify(true),
                    input,
                    output,
                ),
                _ => service.submit(
                    arrival.tenant.clone(),
                    SortJob::new(TwoWayReplacementSelection::new(TwrsConfig::recommended(
                        arrival.memory_records,
                    )))
                    .on(&device)
                    .verify(true),
                    input,
                    output,
                ),
            }
            .map_err(|e| format!("{id}: submit {i} failed: {e}"))
        })
        .collect::<Result<_, String>>()?;

    let mut counters = DeterministicCounters {
        pages_read: 0,
        pages_written: 0,
        final_pass_pages_written: 0,
        runs: 0,
        seeks: 0,
    };
    let mut tenant_grants: BTreeMap<String, usize> = BTreeMap::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let done = handle
            .wait()
            .map_err(|e| format!("{id}: job {i} failed: {e}"))?;
        if done.report.report.records != scenario.records {
            return Err(format!(
                "{id}: job {i} sorted {} of {} records",
                done.report.report.records, scenario.records
            ));
        }
        // The fixed-share grant is the same for every job of a tenant;
        // pin that here so the reported grants are meaningful.
        match tenant_grants.get(&done.tenant) {
            None => {
                tenant_grants.insert(done.tenant.clone(), done.granted_memory);
            }
            Some(&g) if g != done.granted_memory => {
                return Err(format!(
                    "{id}: fixed-share grants diverged for {} ({g} vs {})",
                    done.tenant, done.granted_memory
                ));
            }
            Some(_) => {}
        }
        let job = job_counters(&done.report);
        counters.pages_read += job.pages_read;
        counters.pages_written += job.pages_written;
        counters.final_pass_pages_written += job.final_pass_pages_written;
        counters.runs += job.runs;
        counters.seeks += job.seeks;
    }
    let wall_us = started.elapsed().as_micros() as u64;

    // A weighted scenario must actually deliver the priority: the heavy
    // tenant's grant is at least twice every other tenant's.
    if scenario.high_weight > 1 {
        let high = *tenant_grants
            .get(PRIORITY_TENANT)
            .ok_or_else(|| format!("{id}: no jobs completed for {PRIORITY_TENANT}"))?;
        for (tenant, &grant) in &tenant_grants {
            if tenant != PRIORITY_TENANT && high < 2 * grant {
                return Err(format!(
                    "{id}: priority tenant granted {high}, not ≥ 2× {tenant}'s {grant}"
                ));
            }
        }
    }

    // Cancellation probes: preempt a couple of running jobs to sample the
    // request→Canceled latency. Their counters are never summed, so the
    // baseline-gated numbers stay untouched whatever the timing.
    let mut probes_completed = 0usize;
    let mut probes_canceled = 0usize;
    for probe in 0..CANCEL_PROBES {
        let input = Distribution::new(
            DistributionKind::RandomUniform,
            scenario.records * 8,
            scenario.seed ^ (0xCA0 + probe as u64),
        );
        let job = SortJob::new(ReplacementSelection::new(scenario.memory)).on(&device);
        let handle = service
            .submit("probe", job, input.records(), format!("probe-{probe}"))
            .map_err(|e| format!("{id}: probe {probe} submit failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while matches!(handle.try_status(), JobStatus::Queued | JobStatus::Admitted) {
            if Instant::now() > deadline {
                return Err(format!("{id}: probe {probe} never started running"));
            }
            std::thread::yield_now();
        }
        handle.cancel();
        match handle.wait() {
            Ok(_) => probes_completed += 1,
            Err(SortError::Canceled(_)) => probes_canceled += 1,
            Err(e) => return Err(format!("{id}: probe {probe} failed: {e}")),
        }
    }

    let report = service.shutdown();
    let jobs_completed = report.jobs_completed - probes_completed;
    if jobs_completed != scenario.jobs || report.jobs_failed != 0 {
        return Err(format!(
            "{id}: {jobs_completed} of {} jobs completed ({} failed)",
            scenario.jobs, report.jobs_failed
        ));
    }
    if report.jobs_canceled != probes_canceled {
        return Err(format!(
            "{id}: {} jobs canceled, expected the {probes_canceled} probes",
            report.jobs_canceled
        ));
    }
    for event in &report.rebalances {
        if event.leased_after > scenario.global_memory {
            return Err(format!(
                "{id}: rebalance violated the global budget: {event:?}"
            ));
        }
    }
    let granted_memory = tenant_grants.values().copied().min().unwrap_or(0);
    Ok(ServiceScenarioResult {
        scenario: *scenario,
        jobs_completed,
        granted_memory,
        tenant_grants: tenant_grants.into_iter().collect(),
        max_leased: report.max_leased,
        jobs_canceled: probes_canceled,
        queue_latency: report.queue_latency,
        sort_latency: report.sort_latency,
        cancel_latency: report.cancel_latency,
        wall_us,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_contend_and_have_unique_ids() {
        for name in ["quick", "full"] {
            let slice = service_slice(name);
            assert!(!slice.is_empty(), "{name} includes the service slice");
            for scenario in &slice {
                assert!(scenario.jobs >= 8, "{}", scenario.id());
                assert!(scenario.tenants >= 2, "{}", scenario.id());
                assert!(
                    scenario.global_memory < scenario.jobs * scenario.memory,
                    "{}: global budget must be under the sum of solo budgets",
                    scenario.id()
                );
            }
            let ids: std::collections::BTreeSet<String> =
                slice.iter().map(ServiceScenario::id).collect();
            assert_eq!(ids.len(), slice.len());
        }
        assert!(service_slice("nope").is_empty());
    }

    #[test]
    fn service_counters_are_deterministic_across_runs() {
        let scenario = ServiceScenario {
            jobs: 8,
            tenants: 2,
            workers: 3,
            global_memory: 200,
            records: 800,
            memory: 100,
            seed: 7,
            high_weight: 1,
        };
        let a = run_service_scenario(&scenario).unwrap();
        let b = run_service_scenario(&scenario).unwrap();
        assert_eq!(a.deterministic(), b.deterministic());
        assert_eq!(a.granted_memory, b.granted_memory);
        assert_eq!(a.tenant_grants, b.tenant_grants);
        assert_eq!(a.jobs_completed, 8);
        assert!(a.counters.pages_written > 0);
        assert!(a.counters.seeks > 0, "single-threaded jobs seek");
        assert!(a.max_leased <= scenario.global_memory);
        assert!(a.queue_latency.p50 <= a.queue_latency.max);
    }

    #[test]
    fn weighted_scenario_grants_are_deterministic_and_proportional() {
        let scenario = service_slice("quick")
            .into_iter()
            .find(|s| s.high_weight > 1)
            .expect("quick matrix includes the priority scenario");
        assert!(scenario.id().starts_with("service-prio-"));
        let a = run_service_scenario(&scenario).unwrap();
        let b = run_service_scenario(&scenario).unwrap();
        assert_eq!(a.deterministic(), b.deterministic());
        assert_eq!(a.tenant_grants, b.tenant_grants);
        // 3 of 4 shares of 240 vs 1 of 4: 180 vs 60.
        assert_eq!(
            a.tenant_grants,
            vec![("tenant-0".to_string(), 180), ("tenant-1".to_string(), 60)]
        );
        assert_eq!(a.granted_memory, 60);
        // A probe may photo-finish Ok, but never more cancels than probes.
        assert!(a.jobs_canceled <= CANCEL_PROBES);
        assert!(a.cancel_latency.p50 <= a.cancel_latency.max);
    }
}
