//! `SortService`: many concurrent [`SortJob`]s under one global memory
//! budget, behind a submission-handle API.
//!
//! The rest of this crate sorts one job at a time; a production deployment
//! faces a *stream* of jobs from many tenants, all competing for the same
//! memory. [`SortService`] turns the single-shot library into a servable
//! system:
//!
//! * a **bounded job queue** with per-tenant weighted round-robin
//!   fairness (one deep-queued tenant cannot starve the others; a
//!   [`Priority`]-weighted tenant gets proportionally more turns) and
//!   backpressure — when the queue is full,
//!   [`submit`](SortService::submit) blocks until a worker drains it;
//! * an **admission controller** backed by a global [`MemoryArbiter`]:
//!   each job's generator budget is re-leased at admission through
//!   [`BudgetedGenerator::with_budget`], shrunk to a fair share of the
//!   global budget so that `sum(per-job budgets) <= global budget` holds
//!   at every rebalance point (job start and finish) — the same
//!   [`shard_budget`](crate::parallel::shard_budget) arithmetic
//!   `TwrsConfig::for_shard`/`split_across` use to divide one budget
//!   across parallel shards;
//! * a **worker pool** running up to `workers` jobs in flight, each on a
//!   private [`ScopedDevice`] scope of its submitted device, so per-job
//!   (and per-tenant) I/O attribution survives arbitrary interleaving;
//! * a **submission-handle API** — [`submit`](SortService::submit)
//!   returns a [`JobHandle`] with [`wait`](JobHandle::wait),
//!   [`try_status`](JobHandle::try_status) and
//!   [`cancel`](JobHandle::cancel) — and a [`ServiceReport`] aggregating
//!   p50/p95/p99 queue, sort and cancellation latency plus per-tenant
//!   counters;
//! * **cooperative preemption** — [`cancel`](JobHandle::cancel) reaches
//!   *running* jobs through a [`CancellationToken`] threaded into the
//!   sort pipeline's phase loops: the job stops at the next phase/page
//!   boundary, removes its spill files and partial output, releases its
//!   memory lease, and completes as [`Canceled`](JobStatus::Canceled).
//!
//! Every job runs through the same `run_iter`/`sink_iter` calls a direct
//! caller uses, so a service job is byte-identical to the same job run
//! directly (sorted output does not depend on the memory budget, only the
//! run/merge counts do).
//!
//! ```
//! use twrs_extsort::service::{ServiceConfig, SortService};
//! use twrs_extsort::{ReplacementSelection, SortJob};
//! use twrs_storage::{ModelId, SimDevice};
//! use twrs_workloads::{Distribution, DistributionKind};
//!
//! let device = SimDevice::with_model(ModelId::Hdd7200);
//! let service = SortService::new(ServiceConfig::new(300).workers(2)).unwrap();
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let input = Distribution::new(DistributionKind::RandomUniform, 2_000, i);
//!         let job = SortJob::new(ReplacementSelection::new(200)).on(&device);
//!         service
//!             .submit(format!("tenant-{}", i % 2), job, input.records(), format!("out-{i}"))
//!             .unwrap()
//!     })
//!     .collect();
//! for handle in handles {
//!     let done = handle.wait().unwrap();
//!     assert_eq!(done.report.report.records, 2_000);
//!     assert!(done.granted_memory <= 300);
//! }
//! let report = service.shutdown();
//! assert_eq!(report.jobs_completed, 4);
//! assert!(report.max_leased <= report.global_memory_records);
//! ```

pub mod arbiter;
pub mod handle;
mod queue;

pub use arbiter::{GrantPolicy, MemoryArbiter, RebalanceEvent, RebalanceKind};
pub use handle::{CompletedJob, JobHandle, JobStatus};

use crate::cancel::CancellationToken;
use crate::error::{Result, SortError};
use crate::parallel::ShardableGenerator;
use crate::run_generation::{BudgetedGenerator, Device};
use crate::sink::RecordSink;
use crate::sort_job::{BoundSortJob, SortJob, SortJobReport};
use crate::sync::{lock_or_poison, wait_or_poison};
use handle::{CompletionGuard, JobState};
use queue::TenantQueues;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use twrs_storage::{IoStatsSnapshot, ScopedDevice, SortableRecord, StorageDevice};

/// A tenant's priority class: its *weight* in both schedulers.
///
/// A weight-`w` tenant takes `w` consecutive jobs per turn of the queue
/// rotation and counts as `w` shares in the arbiter's grant split, so it
/// both dequeues more often and gets a proportionally larger memory grant.
/// The default weight is 1 (every tenant equal), which reproduces the
/// unweighted scheduling exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Priority {
    weight: usize,
}

impl Priority {
    /// The default class: weight 1.
    pub const NORMAL: Priority = Priority { weight: 1 };
    /// A convenient elevated class: weight 3.
    pub const HIGH: Priority = Priority { weight: 3 };

    /// A priority with an explicit weight (clamped to at least 1).
    pub fn with_weight(weight: usize) -> Self {
        Priority {
            weight: weight.max(1),
        }
    }

    /// The scheduling weight.
    pub fn weight(&self) -> usize {
        self.weight
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// Configuration of a [`SortService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads = jobs in flight at once.
    pub workers: usize,
    /// Global memory budget (in records) the arbiter leases from.
    pub global_memory_records: usize,
    /// Maximum queued (not yet admitted) jobs across all tenants;
    /// [`SortService::submit`] blocks while the queue is full.
    pub queue_capacity: usize,
    /// How individual grants are capped.
    pub grant_policy: GrantPolicy,
    /// Per-tenant priority classes; tenants not listed run at
    /// [`Priority::NORMAL`].
    pub tenant_priorities: BTreeMap<String, Priority>,
}

impl ServiceConfig {
    /// A service with `global_memory_records` of leasable memory, two
    /// workers, a 64-job queue, the adaptive grant policy and every
    /// tenant at [`Priority::NORMAL`].
    pub fn new(global_memory_records: usize) -> Self {
        ServiceConfig {
            workers: 2,
            global_memory_records,
            queue_capacity: 64,
            grant_policy: GrantPolicy::Adaptive,
            tenant_priorities: BTreeMap::new(),
        }
    }

    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the grant policy.
    pub fn grant_policy(mut self, policy: GrantPolicy) -> Self {
        self.grant_policy = policy;
        self
    }

    /// Assigns `tenant` a [`Priority`] class: its weight multiplies both
    /// its share of queue turns and its memory-grant cap.
    pub fn tenant_priority(mut self, tenant: impl Into<String>, priority: Priority) -> Self {
        self.tenant_priorities.insert(tenant.into(), priority);
        self
    }
}

/// What a job thunk hands back to its worker.
struct JobOutput {
    report: SortJobReport,
    io: IoStatsSnapshot,
}

type JobThunk = Box<dyn FnOnce(usize) -> Result<JobOutput> + Send>;

struct QueuedJob {
    state: Arc<JobState>,
    thunk: JobThunk,
    requested: usize,
    submitted: Instant,
    tenant: String,
    /// The job's cooperative token — shared with the handle (which fires
    /// it) and with the sort pipeline inside the thunk (which polls it).
    cancel: CancellationToken,
}

struct QueueState {
    queues: TenantQueues<QueuedJob>,
    shutdown: bool,
}

#[derive(Default)]
struct TenantAccum {
    jobs: usize,
    records: u64,
    io: Option<IoStatsSnapshot>,
}

#[derive(Default)]
struct ServiceStats {
    queue_waits: Vec<Duration>,
    sort_walls: Vec<Duration>,
    completed: usize,
    failed: usize,
    /// Canceled before the sort started (still queued, at admission, or
    /// while waiting for a memory lease).
    canceled_queued: usize,
    /// Cooperatively preempted after the sort started.
    canceled_running: usize,
    /// Request→completion latency of explicitly canceled jobs.
    cancel_latencies: Vec<Duration>,
    tenants: BTreeMap<String, TenantAccum>,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for jobs.
    job_ready: Condvar,
    /// Submitters wait here for queue space.
    space_free: Condvar,
    arbiter: MemoryArbiter,
    stats: Mutex<ServiceStats>,
    queue_capacity: usize,
    /// Tenant → scheduling weight (absent = 1), fixed at construction.
    priorities: BTreeMap<String, usize>,
}

impl Shared {
    fn weight_of(&self, tenant: &str) -> usize {
        self.priorities.get(tenant).copied().unwrap_or(1)
    }

    /// Books a canceled-before-running job, with a latency sample when
    /// the cancellation was an explicit request (shutdown cancels have no
    /// request timestamp).
    fn record_canceled_queued(&self, state: &JobState) {
        let mut stats = lock_or_poison(&self.stats);
        stats.canceled_queued += 1;
        if let Some(latency) = state.time_since_cancel_request() {
            stats.cancel_latencies.push(latency);
        }
    }
}

/// Latency percentiles over one family of duration samples
/// (nearest-rank; all zero when there were no samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Largest observed sample.
    pub max: Duration,
}

impl LatencyPercentiles {
    /// Nearest-rank percentiles of `samples`.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencyPercentiles {
                p50: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        samples.sort_unstable();
        let rank = |p: f64| {
            let n = samples.len();
            let index = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[index]
        };
        LatencyPercentiles {
            p50: rank(50.0),
            p95: rank(95.0),
            p99: rank(99.0),
            max: samples.last().copied().unwrap_or_default(),
        }
    }
}

/// Per-tenant rollup of everything the tenant's jobs did.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Successfully completed jobs.
    pub jobs: usize,
    /// Records sorted across those jobs.
    pub records: u64,
    /// The tenant's total I/O, merged from each job's
    /// [`ScopedDevice`] attribution (`None` when the tenant completed no
    /// jobs).
    pub io: Option<IoStatsSnapshot>,
}

/// Aggregate report of a service's lifetime, returned by
/// [`SortService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Jobs that finished successfully.
    pub jobs_completed: usize,
    /// Jobs that finished with an error.
    pub jobs_failed: usize,
    /// All canceled jobs:
    /// [`jobs_canceled_queued`](ServiceReport::jobs_canceled_queued) `+`
    /// [`jobs_canceled_running`](ServiceReport::jobs_canceled_running).
    pub jobs_canceled: usize,
    /// Jobs canceled before their sort started — while queued, at
    /// admission, while waiting for a memory lease, or drained by
    /// shutdown.
    pub jobs_canceled_queued: usize,
    /// Running jobs cooperatively preempted at a phase/page boundary.
    pub jobs_canceled_running: usize,
    /// Queue + admission latency percentiles (submission → memory lease
    /// held).
    pub queue_latency: LatencyPercentiles,
    /// Sort execution latency percentiles.
    pub sort_latency: LatencyPercentiles,
    /// Cancellation latency percentiles: [`JobHandle::cancel`] request →
    /// the job completing as Canceled (all zero when nothing was
    /// explicitly canceled).
    pub cancel_latency: LatencyPercentiles,
    /// Per-tenant rollups, in tenant-name order.
    pub tenants: Vec<TenantReport>,
    /// The arbiter's global budget.
    pub global_memory_records: usize,
    /// High-water mark of simultaneously leased memory; always `<=`
    /// [`global_memory_records`](ServiceReport::global_memory_records).
    pub max_leased: usize,
    /// The arbiter's full audit trail (one entry per rebalance point).
    pub rebalances: Vec<RebalanceEvent>,
}

/// A pool of workers executing submitted [`SortJob`]s under one global
/// memory budget. See the [module documentation](self).
pub struct SortService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl SortService {
    /// Starts the service: spawns the worker pool and opens the queue.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(SortError::InvalidConfig(
                "the service needs at least one worker".into(),
            ));
        }
        if config.queue_capacity == 0 {
            return Err(SortError::InvalidConfig(
                "the service needs a queue capacity of at least one job".into(),
            ));
        }
        let arbiter = MemoryArbiter::new(config.global_memory_records, config.grant_policy)?;
        let priorities = config
            .tenant_priorities
            .iter()
            .map(|(tenant, priority)| (tenant.clone(), priority.weight()))
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queues: TenantQueues::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space_free: Condvar::new(),
            arbiter,
            stats: Mutex::new(ServiceStats::default()),
            queue_capacity: config.queue_capacity,
            priorities,
        });
        let mut workers = Vec::with_capacity(config.workers);
        for index in 0..config.workers {
            let worker_shared = shared.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("twrs-sort-worker-{index}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Wake and join the workers that did start, then report
                    // the spawn failure instead of panicking mid-construction.
                    lock_or_poison(&shared.state).shutdown = true;
                    shared.job_ready.notify_all();
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(SortError::Storage(twrs_storage::StorageError::Io(e)));
                }
            }
        }
        Ok(SortService {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        })
    }

    /// Submits a job that sorts `input` into the forward run file `output`
    /// on the job's bound device, under `tenant`'s queue. Returns at once
    /// with a [`JobHandle`] — unless the queue is full, in which case the
    /// call blocks until a worker makes room (backpressure).
    ///
    /// Concurrent jobs sharing one device must use distinct `output`
    /// names: the output name also namespaces the job's spill files.
    pub fn submit<G, D, R, I>(
        &self,
        tenant: impl Into<String>,
        job: BoundSortJob<G, D>,
        input: I,
        output: impl Into<String>,
    ) -> Result<JobHandle>
    where
        G: BudgetedGenerator + ShardableGenerator,
        D: Device,
        R: SortableRecord,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send + 'static,
    {
        let output = output.into();
        let mut input = input.into_iter();
        self.enqueue(tenant.into(), job, move |bound| {
            bound.run_iter(&mut input, &output)
        })
    }

    /// Submits a job that drains its sorted output into `sink` instead of
    /// a file — e.g. a bounded [`ChannelSink`](crate::sink::ChannelSink),
    /// whose backpressure then reaches all the way into the final merge
    /// pass of the job.
    pub fn submit_sink<G, D, R, I, K>(
        &self,
        tenant: impl Into<String>,
        job: BoundSortJob<G, D>,
        input: I,
        mut sink: K,
    ) -> Result<JobHandle>
    where
        G: BudgetedGenerator + ShardableGenerator,
        D: Device,
        R: SortableRecord,
        I: IntoIterator<Item = R>,
        I::IntoIter: Send + 'static,
        K: RecordSink<R> + Send + 'static,
    {
        let mut input = input.into_iter();
        self.enqueue(tenant.into(), job, move |bound| {
            bound.sink_iter(&mut input, &mut sink)
        })
    }

    fn enqueue<G, D, F>(&self, tenant: String, job: BoundSortJob<G, D>, run: F) -> Result<JobHandle>
    where
        G: BudgetedGenerator + ShardableGenerator,
        D: Device,
        F: FnOnce(BoundSortJob<G, ScopedDevice<D>>) -> Result<SortJobReport> + Send + 'static,
    {
        job.job.validate()?;
        let requested = job.job.generator.memory_records();
        // One token, three holders: the handle fires it, the worker polls
        // it around admission, and the pipeline polls it at every
        // phase/page boundary. A token installed via
        // `cancel_token` before submission keeps working.
        let cancel = job.job.cancel.clone();
        let state = Arc::new(JobState::new(cancel.clone()));
        let thunk: JobThunk = Box::new(move |granted| {
            let BoundSortJob { job, device } = job;
            // The job's private I/O scope: phase windows and seek counts
            // are measured as if the job had the device to itself, so
            // per-job counters stay deterministic under concurrency.
            let scoped = ScopedDevice::new(device);
            let rebudgeted = SortJob {
                generator: job.generator.with_budget(granted),
                ..job
            };
            let report = run(rebudgeted.on(&scoped))?;
            Ok(JobOutput {
                report,
                io: scoped.stats(),
            })
        });
        let queued = QueuedJob {
            state: state.clone(),
            thunk,
            requested,
            submitted: Instant::now(),
            tenant: tenant.clone(),
            cancel,
        };
        let weight = self.shared.weight_of(&tenant);
        let mut queue = lock_or_poison(&self.shared.state);
        loop {
            if queue.shutdown {
                return Err(SortError::Canceled(
                    "the service is shut down; the job was not accepted".into(),
                ));
            }
            if queue.queues.len() < self.shared.queue_capacity {
                break;
            }
            queue = wait_or_poison(&self.shared.space_free, queue);
        }
        queue.queues.push(&tenant, weight, queued);
        drop(queue);
        self.shared.job_ready.notify_one();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Ok(JobHandle::new(state, id, tenant))
    }

    /// Number of jobs currently queued (admitted/running jobs excluded).
    pub fn pending(&self) -> usize {
        lock_or_poison(&self.shared.state).queues.len()
    }

    /// The arbiter, for inspection (current leases, audit trail).
    pub fn arbiter(&self) -> &MemoryArbiter {
        &self.shared.arbiter
    }

    /// Drains the queue, waits for every in-flight job, stops the workers
    /// and returns the aggregate [`ServiceReport`].
    pub fn shutdown(mut self) -> ServiceReport {
        self.stop();
        let stats = {
            let mut stats = lock_or_poison(&self.shared.stats);
            std::mem::take(&mut *stats)
        };
        let tenants = stats
            .tenants
            .into_iter()
            .map(|(tenant, accum)| TenantReport {
                tenant,
                jobs: accum.jobs,
                records: accum.records,
                io: accum.io,
            })
            .collect();
        ServiceReport {
            jobs_completed: stats.completed,
            jobs_failed: stats.failed,
            jobs_canceled: stats.canceled_queued + stats.canceled_running,
            jobs_canceled_queued: stats.canceled_queued,
            jobs_canceled_running: stats.canceled_running,
            queue_latency: LatencyPercentiles::from_samples(stats.queue_waits),
            sort_latency: LatencyPercentiles::from_samples(stats.sort_walls),
            cancel_latency: LatencyPercentiles::from_samples(stats.cancel_latencies),
            tenants,
            global_memory_records: self.shared.arbiter.global(),
            max_leased: self.shared.arbiter.max_leased(),
            rebalances: self.shared.arbiter.events(),
        }
    }

    fn stop(&mut self) {
        // Drain still-queued jobs under the lock, complete them outside
        // it: their handles must observe Canceled (not a stale Queued)
        // and their `wait()` must return instead of hanging forever.
        let drained = {
            let mut queue = lock_or_poison(&self.shared.state);
            queue.shutdown = true;
            let mut drained = Vec::new();
            while let Some(job) = queue.queues.pop() {
                drained.push(job);
            }
            drained
        };
        self.shared.job_ready.notify_all();
        self.shared.space_free.notify_all();
        for job in drained {
            self.shared.record_canceled_queued(&job.state);
            job.state.complete(Err(SortError::Canceled(
                "service shut down before the job was admitted".into(),
            )));
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked already failed its job through the
            // completion guard; nothing more to salvage here.
            let _ = worker.join();
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_or_poison(&shared.state);
            loop {
                if let Some(job) = queue.queues.pop() {
                    shared.space_free.notify_one();
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = wait_or_poison(&shared.job_ready, queue);
            }
        };
        if !job.state.begin_admission() {
            shared.record_canceled_queued(&job.state);
            continue;
        }
        let guard = CompletionGuard::arm(job.state.clone());
        // A cancel arriving while this worker blocks inside the arbiter
        // must wake it; the waker holds a Weak so a long-lived handle
        // can't keep the service's shared state alive.
        {
            let waker = Arc::downgrade(shared);
            job.cancel.on_cancel(move || {
                if let Some(shared) = waker.upgrade() {
                    shared.arbiter.notify_waiters();
                }
            });
        }
        let weight = shared.weight_of(&job.tenant);
        let Some(granted) = shared.arbiter.lease(job.requested, weight, &job.cancel) else {
            shared.record_canceled_queued(&job.state);
            guard.complete(Err(SortError::Canceled(
                "canceled while waiting for a memory lease".into(),
            )));
            continue;
        };
        // A cancel can land in the window between the dequeue and the
        // lease grant; without this re-check the request would be lost
        // and the job would run to completion. Nothing has touched the
        // device yet, so the lease goes straight back.
        if job.cancel.is_canceled() {
            shared.arbiter.release(granted, weight);
            shared.record_canceled_queued(&job.state);
            guard.complete(Err(SortError::Canceled(
                "canceled at admission, before the sort started".into(),
            )));
            continue;
        }
        let queue_wait = job.submitted.elapsed();
        job.state.set_running();
        let started = Instant::now();
        // Catch a panicking pipeline: the lease must go back and the
        // worker must survive to serve the next job. The pipeline's own
        // drop guard already swept the job's spill files during the
        // unwind.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.thunk)(granted)));
        let sort_wall = started.elapsed();
        shared.arbiter.release(granted, weight);
        match result {
            Ok(Ok(output)) => {
                let mut stats = lock_or_poison(&shared.stats);
                stats.completed += 1;
                stats.queue_waits.push(queue_wait);
                stats.sort_walls.push(sort_wall);
                let accum = stats.tenants.entry(job.tenant.clone()).or_default();
                accum.jobs += 1;
                accum.records += output.report.report.records;
                accum.io = Some(match accum.io.take() {
                    Some(io) => io.merged(&output.io),
                    None => output.io,
                });
                drop(stats);
                guard.complete(Ok(CompletedJob {
                    report: output.report,
                    tenant: job.tenant,
                    granted_memory: granted,
                    queue_wait,
                    sort_wall,
                    io: output.io,
                }));
            }
            Ok(Err(error @ SortError::Canceled(_))) => {
                let mut stats = lock_or_poison(&shared.stats);
                stats.canceled_running += 1;
                if let Some(latency) = job.state.time_since_cancel_request() {
                    stats.cancel_latencies.push(latency);
                }
                drop(stats);
                guard.complete(Err(error));
            }
            Ok(Err(error)) => {
                lock_or_poison(&shared.stats).failed += 1;
                guard.complete(Err(error));
            }
            Err(_panic) => {
                lock_or_poison(&shared.stats).failed += 1;
                guard.complete(Err(SortError::JobPanicked(
                    "the sort pipeline panicked mid-job".into(),
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement_selection::ReplacementSelection;
    use crate::run_generation::{RunGenerator, RunSet};
    use crate::sink::ChannelSink;
    use twrs_storage::RunReader;
    use twrs_storage::{ModelId, SimDevice, SpillNamer, StorageDevice};
    use twrs_workloads::{Distribution, DistributionKind, Record};

    fn read_records(device: &SimDevice, name: &str) -> Vec<Record> {
        RunReader::<Record>::open(device, name)
            .unwrap()
            .read_all()
            .unwrap()
    }

    #[test]
    fn stop_joins_every_worker_thread() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut service = SortService::new(ServiceConfig::new(200).workers(3)).unwrap();
        assert_eq!(service.workers.len(), 3);
        let input = Distribution::new(DistributionKind::RandomUniform, 800, 11);
        let job = SortJob::new(ReplacementSelection::new(100)).on(&device);
        let handle = service.submit("t", job, input.records(), "joined").unwrap();
        handle.wait().unwrap();
        service.stop();
        assert!(
            service.workers.is_empty(),
            "stop must drain and join every worker handle"
        );
        // Each worker held a clone of the shared state; once they have all
        // been joined the service owns the only remaining reference.
        assert_eq!(Arc::strong_count(&service.shared), 1);
    }

    #[test]
    fn service_jobs_match_direct_runs() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(250).workers(3)).unwrap();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let input = Distribution::new(DistributionKind::RandomUniform, 1_500, i);
                let job = SortJob::new(ReplacementSelection::new(120)).on(&device);
                service
                    .submit(
                        format!("tenant-{}", i % 2),
                        job,
                        input.records(),
                        format!("svc-{i}"),
                    )
                    .unwrap()
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let done = handle.wait().unwrap();
            assert_eq!(done.report.report.records, 1_500);
            assert!(done.granted_memory >= 1 && done.granted_memory <= 120);
            let solo_device = SimDevice::with_model(ModelId::Hdd7200);
            let input = Distribution::new(DistributionKind::RandomUniform, 1_500, i as u64);
            SortJob::new(ReplacementSelection::new(120))
                .on(&solo_device)
                .run_iter(input.records(), "solo")
                .unwrap();
            assert_eq!(
                read_records(&device, &format!("svc-{i}")),
                read_records(&solo_device, "solo"),
                "service job {i} diverged from its solo run"
            );
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 6);
        assert_eq!(report.jobs_failed, 0);
        assert_eq!(report.tenants.len(), 2);
        assert!(report.max_leased <= report.global_memory_records);
        for event in &report.rebalances {
            assert!(event.leased_after <= report.global_memory_records);
        }
        // Tenant I/O rolls up to real page traffic.
        for tenant in &report.tenants {
            assert_eq!(tenant.jobs, 3);
            assert_eq!(tenant.records, 4_500);
            assert!(tenant.io.unwrap().counters.pages_written > 0);
        }
    }

    #[test]
    fn tenant_io_rolls_up_across_stripe_members() {
        use twrs_storage::DeviceSpec;

        let spec: DeviceSpec = "striped:3:sim:nvme".parse().unwrap();
        let device = spec.build().unwrap();
        let service = SortService::new(ServiceConfig::new(250).workers(2)).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let input = Distribution::new(DistributionKind::RandomUniform, 1_200, i);
                let job = SortJob::new(ReplacementSelection::new(100))
                    .threads(2)
                    .on(&device);
                service
                    .submit(
                        format!("tenant-{}", i % 2),
                        job,
                        input.records(),
                        format!("striped-{i}"),
                    )
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 4);
        // The per-tenant rollups cover exactly the traffic the stripe
        // members saw: the jobs performed all of it, and the scoped
        // per-job statistics mirror every access no matter which member
        // it landed on.
        let tenant_writes: u64 = report
            .tenants
            .iter()
            .map(|t| t.io.unwrap().counters.pages_written)
            .sum();
        let members = device.as_striped().unwrap().member_stats();
        let member_writes: u64 = members.iter().map(|m| m.counters.pages_written).sum();
        assert_eq!(tenant_writes, member_writes);
        assert_eq!(member_writes, device.stats().counters.pages_written);
        assert!(
            members.iter().all(|m| m.counters.pages_written > 0),
            "every stripe member should carry part of the spill traffic"
        );
    }

    #[test]
    fn canceled_queued_jobs_never_run() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        // One worker and a job ahead in the queue, so the second job is
        // reliably still queued when we cancel it.
        let service = SortService::new(ServiceConfig::new(100).workers(1)).unwrap();
        let blocker = {
            let input = Distribution::new(DistributionKind::RandomUniform, 20_000, 1);
            let job = SortJob::new(ReplacementSelection::new(100)).on(&device);
            service.submit("a", job, input.records(), "big").unwrap()
        };
        let victim = {
            let input = Distribution::new(DistributionKind::RandomUniform, 100, 2);
            let job = SortJob::new(ReplacementSelection::new(50)).on(&device);
            service.submit("a", job, input.records(), "small").unwrap()
        };
        assert!(victim.cancel());
        assert!(matches!(victim.wait(), Err(SortError::Canceled(_))));
        blocker.wait().unwrap();
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_canceled, 1);
        // The canceled job's output never appeared.
        assert!(!twrs_storage::StorageDevice::exists(&device, "small"));
    }

    #[test]
    fn sink_jobs_flow_through_the_service() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(200).workers(2)).unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Record>(16);
        let input = Distribution::new(DistributionKind::ReverseSorted, 500, 3);
        let expected: u64 = input.records().map(|r| r.key).sum();
        let job = SortJob::new(ReplacementSelection::new(64)).on(&device);
        let handle = service
            .submit_sink("t", job, input.records(), ChannelSink::new(tx))
            .unwrap();
        let consumer = std::thread::spawn(move || {
            let mut last = None;
            let mut sum = 0u64;
            for record in rx {
                if let Some(prev) = last {
                    assert!(record.key >= prev);
                }
                last = Some(record.key);
                sum += record.key;
            }
            sum
        });
        let done = handle.wait().unwrap();
        assert_eq!(done.report.report.records, 500);
        assert_eq!(consumer.join().unwrap(), expected);
        service.shutdown();
    }

    #[test]
    fn invalid_configs_are_rejected_at_submission() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(100)).unwrap();
        let job = SortJob::new(ReplacementSelection::new(50))
            .on(&device)
            .threads(0);
        assert!(matches!(
            service.submit("t", job, std::iter::empty::<Record>(), "out"),
            Err(SortError::InvalidConfig(_))
        ));
        assert!(SortService::new(ServiceConfig::new(0)).is_err());
        assert!(SortService::new(ServiceConfig::new(10).workers(0)).is_err());
        assert!(SortService::new(ServiceConfig::new(10).queue_capacity(0)).is_err());
        service.shutdown();
    }

    fn spin_until(deadline: Duration, mut condition: impl FnMut() -> bool) {
        let give_up = Instant::now() + deadline;
        while !condition() {
            assert!(Instant::now() < give_up, "condition never became true");
            std::thread::yield_now();
        }
    }

    #[test]
    fn running_jobs_are_preempted_by_cancel() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(64).workers(1)).unwrap();
        let input = Distribution::new(DistributionKind::RandomUniform, 50_000, 7);
        let job = SortJob::new(ReplacementSelection::new(64)).on(&device);
        let handle = service.submit("t", job, input.records(), "big").unwrap();
        spin_until(Duration::from_secs(30), || {
            handle.try_status() == JobStatus::Running
        });
        assert!(handle.cancel());
        assert!(matches!(handle.wait(), Err(SortError::Canceled(_))));
        // The preempted job swept its spill files and partial output and
        // returned its whole lease before completing.
        assert!(StorageDevice::list(&device).is_empty());
        assert_eq!(service.arbiter().leased(), 0);
        let report = service.shutdown();
        assert_eq!(report.jobs_canceled_running, 1);
        assert_eq!(report.jobs_canceled, 1);
        assert_eq!(report.jobs_completed, 0);
        assert!(report.cancel_latency.max > Duration::ZERO);
        assert_eq!(report.rebalances.last().unwrap().leased_after, 0);
    }

    /// Spills a real prefix of the input, then panics — exercising the
    /// worker's unwind path with spill files already on the device.
    #[derive(Clone)]
    struct PanickyGenerator {
        inner: ReplacementSelection,
    }

    impl RunGenerator for PanickyGenerator {
        fn label(&self) -> &'static str {
            "panicky"
        }

        fn memory_records(&self) -> usize {
            self.inner.memory_records()
        }

        fn generate<D: Device, R: twrs_storage::SortableRecord>(
            &mut self,
            device: &D,
            namer: &SpillNamer,
            input: &mut dyn Iterator<Item = R>,
        ) -> Result<RunSet> {
            let prefix: Vec<R> = input.take(64).collect();
            let mut prefix = prefix.into_iter();
            let _ = self.inner.generate(device, namer, &mut prefix)?;
            panic!("injected failure after spilling");
        }
    }

    impl BudgetedGenerator for PanickyGenerator {
        fn with_budget(&self, memory_records: usize) -> Self {
            PanickyGenerator {
                inner: self.inner.with_budget(memory_records),
            }
        }
    }

    impl ShardableGenerator for PanickyGenerator {
        fn shard(&self, index: usize, shards: usize) -> Self {
            PanickyGenerator {
                inner: self.inner.shard(index, shards),
            }
        }
    }

    #[test]
    fn panicking_jobs_fail_and_leave_no_spill_files() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(100).workers(1)).unwrap();
        let input = Distribution::new(DistributionKind::RandomUniform, 1_000, 9);
        let job = SortJob::new(PanickyGenerator {
            inner: ReplacementSelection::new(50),
        })
        .on(&device);
        let handle = service.submit("t", job, input.records(), "doomed").unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, SortError::JobPanicked(_)), "got {err:?}");
        // The unwind swept the job's spill files, the lease went back,
        // and the worker survived to serve the next job.
        assert!(StorageDevice::list(&device).is_empty());
        assert_eq!(service.arbiter().leased(), 0);
        let input = Distribution::new(DistributionKind::RandomUniform, 500, 10);
        let job = SortJob::new(ReplacementSelection::new(50)).on(&device);
        let next = service.submit("t", job, input.records(), "after").unwrap();
        next.wait().unwrap();
        let report = service.shutdown();
        assert_eq!(report.jobs_failed, 1);
        assert_eq!(report.jobs_completed, 1);
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(64).workers(1)).unwrap();
        let blocker = {
            let input = Distribution::new(DistributionKind::RandomUniform, 30_000, 11);
            let job = SortJob::new(ReplacementSelection::new(64)).on(&device);
            service
                .submit("a", job, input.records(), "blocker")
                .unwrap()
        };
        // Once the blocker owns the lone worker, later jobs stay queued.
        spin_until(Duration::from_secs(30), || {
            blocker.try_status() != JobStatus::Queued
        });
        let victims: Vec<_> = (0..2u64)
            .map(|i| {
                let input = Distribution::new(DistributionKind::RandomUniform, 200, 20 + i);
                let job = SortJob::new(ReplacementSelection::new(32)).on(&device);
                service
                    .submit("a", job, input.records(), format!("victim-{i}"))
                    .unwrap()
            })
            .collect();
        let report = service.shutdown();
        // Shutdown reported them Canceled (not a stale Queued) and their
        // wait() returns instead of hanging.
        for victim in victims {
            assert_eq!(victim.try_status(), JobStatus::Canceled);
            assert!(matches!(victim.wait(), Err(SortError::Canceled(_))));
        }
        blocker.wait().unwrap();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_canceled_queued, 2);
        assert_eq!(report.jobs_canceled, 2);
    }

    #[test]
    fn cancel_racing_admission_is_never_lost() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let service = SortService::new(ServiceConfig::new(100).workers(1)).unwrap();
        for i in 0..50u64 {
            let input = Distribution::new(DistributionKind::RandomUniform, 300, i);
            let job = SortJob::new(ReplacementSelection::new(50)).on(&device);
            let handle = service
                .submit("t", job, input.records(), format!("race-{i}"))
                .unwrap();
            // Vary the head start so the cancel lands at every point of
            // the dequeue → admission → lease → first-I/O window.
            if i % 3 == 0 {
                std::thread::yield_now();
            }
            handle.cancel();
            match handle.wait() {
                // Photo-finish: the job crossed the line first.
                Ok(_) => {}
                Err(SortError::Canceled(_)) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
            assert_eq!(service.arbiter().leased(), 0);
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed + report.jobs_canceled, 50);
    }

    #[test]
    fn priority_tenants_get_larger_grants() {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let config = ServiceConfig::new(240)
            .workers(2)
            .grant_policy(GrantPolicy::FixedShare { shares: 4 })
            .tenant_priority("gold", Priority::with_weight(3));
        let service = SortService::new(config).unwrap();
        let mut handles = Vec::new();
        for i in 0..2u64 {
            let input = Distribution::new(DistributionKind::RandomUniform, 1_000, i);
            let job = SortJob::new(ReplacementSelection::new(200)).on(&device);
            let handle = service
                .submit("gold", job, input.records(), format!("g-{i}"))
                .unwrap();
            handles.push(("gold", handle));
            let input = Distribution::new(DistributionKind::RandomUniform, 1_000, 10 + i);
            let job = SortJob::new(ReplacementSelection::new(200)).on(&device);
            let handle = service
                .submit("silver", job, input.records(), format!("s-{i}"))
                .unwrap();
            handles.push(("silver", handle));
        }
        for (tenant, handle) in handles {
            let done = handle.wait().unwrap();
            // 3 of 4 fixed shares of 240 vs 1 of 4: 180 vs 60, whatever
            // the admission interleaving.
            match tenant {
                "gold" => assert_eq!(done.granted_memory, 180),
                _ => assert_eq!(done.granted_memory, 60),
            }
        }
        let report = service.shutdown();
        assert_eq!(report.jobs_completed, 4);
        assert!(report.max_leased <= 240);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let p = LatencyPercentiles::from_samples(samples);
        assert_eq!(p.p50, Duration::from_millis(50));
        assert_eq!(p.p95, Duration::from_millis(95));
        assert_eq!(p.p99, Duration::from_millis(99));
        assert_eq!(p.max, Duration::from_millis(100));
        let empty = LatencyPercentiles::from_samples(Vec::new());
        assert_eq!(empty.p99, Duration::ZERO);
    }
}
