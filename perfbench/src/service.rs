//! The open-loop service workload: small jobs from two tenants arrive on a
//! fixed schedule at a two-worker `SortService`.

use crate::check::{check_sorted, Fingerprint};
use crate::metrics::{median, metric, percentile, ratio, Metric, Outcome};
use crate::single::{RunConfig, SETUPS};
use crate::sys::{self, Ticks};
use crate::trace::{Recorder, Span};
use crate::traced::{TracedDevice, TracedGen};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::service::{GrantPolicy, JobStatus, ServiceConfig, SortService};
use twrs_extsort::{
    BudgetedGenerator, CompletedJob, Device, JobHandle, LoadSortStore, RecordSink,
    ReplacementSelection, ShardableGenerator, SortJob, VecSink,
};
use twrs_storage::{AnyDevice, DeviceSpec, FixedSizeRecord, IoStatsSnapshot, StorageDevice};
use twrs_workloads::{ArrivalTrace, Distribution, DistributionKind, Record};

const TENANTS: usize = 2;
const WORKERS: usize = 2;
/// Budget every job asks for; the global budget covers only one such job,
/// and fixed-share grants give each running job half of it.
const REQUESTED: usize = 2_000;
const GLOBAL: usize = 2_000;
const GRANT: usize = GLOBAL / WORKERS;
/// Most set-up warm-up jobs in flight at once.
const WARMUP_IN_FLIGHT: usize = WORKERS + 2;
/// Input variants per distribution in the pool.
const VARIANTS: usize = 3;
const SHAPES: [DistributionKind; 3] = [
    DistributionKind::RandomUniform,
    DistributionKind::ReverseSorted,
    DistributionKind::MixedBalanced,
];
/// RS, LSS and 2WRS, in that order.
const GENERATORS: usize = 3;

/// Size parameters of the workload; tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Records per job.
    pub job_records: usize,
    /// Jobs per second.
    pub rate: f64,
    /// Set-up warm-up jobs.
    pub warmup_jobs: usize,
}

/// The workload as benchmarked: about a quarter of the service's burst
/// capacity of some 200 jobs/s.
pub const SERVICE_OPEN: ServiceSpec = ServiceSpec {
    job_records: 30_000,
    rate: 50.0,
    warmup_jobs: 200,
};

/// One pooled job input.
struct PoolInput {
    records: Arc<Vec<Record>>,
    expected: Fingerprint,
}

/// What kind of job index `i` of a trace is: input shape and variant (a
/// pool index) and generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Kind {
    input: usize,
    generator: usize,
}

fn kind_of(index: usize) -> Kind {
    let shape = index % SHAPES.len();
    let variant = (index / (SHAPES.len() * GENERATORS)) % VARIANTS;
    Kind {
        input: shape + SHAPES.len() * variant,
        generator: (index / SHAPES.len()) % GENERATORS,
    }
}

/// A job's input, stamping when the sort first pulls from it.
struct JobInput {
    records: Arc<Vec<Record>>,
    at: usize,
    started: Arc<OnceLock<Instant>>,
}

impl Iterator for JobInput {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.at == 0 {
            let _ = self.started.set(Instant::now());
        }
        let record = self.records.get(self.at).copied();
        self.at += 1;
        record
    }
}

/// A finished job's output, handed from the sink to the load generator.
struct Delivered {
    id: u64,
    records: Vec<Record>,
    first: Option<Instant>,
    finish: Instant,
}

/// The benchmark-owned sink: keeps the sorted records and stamps the first
/// record and `finish`.
struct CollectSink {
    id: u64,
    records: Vec<Record>,
    first: Option<Instant>,
    to_generator: Sender<Delivered>,
}

impl RecordSink<Record> for CollectSink {
    fn push(&mut self, record: Record) -> twrs_extsort::Result<()> {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.records.push(record);
        Ok(())
    }

    fn finish(&mut self) -> twrs_extsort::Result<()> {
        let finish = Instant::now();
        // The generator outlives every job; a failed send can only happen
        // while it is unwinding, and then nobody reads the result.
        let _ = self.to_generator.send(Delivered {
            id: self.id,
            records: std::mem::take(&mut self.records),
            first: self.first,
            finish,
        });
        Ok(())
    }
}

/// A job about to be submitted.
struct Job {
    kind: Kind,
    tenant: String,
    /// When the schedule says it arrives.
    due: Instant,
}

/// Everything measured about one job.
#[derive(Debug, Clone)]
struct JobRecord {
    kind: Kind,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    started: Arc<OnceLock<Instant>>,
    first: Option<Instant>,
    finish: Option<Instant>,
    completed: Option<CompletedJob>,
    error: Option<String>,
    checked: bool,
}

impl JobRecord {
    fn ok(&self) -> bool {
        self.error.is_none() && self.checked && self.completed.is_some()
    }

    fn latency(&self) -> f64 {
        self.finish.map_or(0.0, |f| (f - self.due).as_secs_f64())
    }
}

/// A running service with its device and input pool: the state a set-up
/// builds and the measured phases use.
struct Bench {
    spec: ServiceSpec,
    service: SortService,
    device: AnyDevice,
    pool: Vec<PoolInput>,
    to_generator: Sender<Delivered>,
    deliveries: Receiver<Delivered>,
    buffers: Vec<Vec<Record>>,
    next_id: u64,
}

/// Jobs of one phase and the generator-side bookkeeping.
#[derive(Default)]
struct Phase {
    jobs: BTreeMap<u64, JobRecord>,
    pending: Vec<(u64, JobHandle)>,
    /// Generator-thread CPU spent checking outputs, excluded from
    /// `cpu_us_per_rec`.
    check_cpu: Duration,
    /// Process CPU time over the phase.
    cpu: Duration,
    /// Share of the phase's wanted CPU time the hypervisor did not withhold;
    /// job times are reported net of steal by scaling with it (see `sys`).
    /// They are not scaled to the reference speed: these small jobs work in
    /// cache, and their latency stayed within ±7% while the reference task
    /// swung by 40%, so scaling only added noise.
    kept: f64,
}

impl Bench {
    fn start(spec: ServiceSpec, seed: u64) -> Result<Bench, String> {
        let mut pool = Vec::new();
        for variant in 0..VARIANTS as u64 {
            for shape in SHAPES {
                let records = Distribution::new(
                    shape,
                    spec.job_records as u64,
                    seed.wrapping_mul(31).wrapping_add(variant),
                )
                .collect();
                pool.push(PoolInput {
                    expected: Fingerprint::of(&records),
                    records: Arc::new(records),
                });
            }
        }
        let device = "sim:hdd-7200"
            .parse::<DeviceSpec>()
            .and_then(|s| s.build())
            .map_err(|e| format!("device: {e}"))?;
        let service = SortService::new(
            ServiceConfig::new(GLOBAL)
                .workers(WORKERS)
                .grant_policy(GrantPolicy::FixedShare { shares: WORKERS }),
        )
        .map_err(|e| format!("start service: {e}"))?;
        let (to_generator, deliveries) = channel();
        Ok(Bench {
            spec,
            service,
            device,
            pool,
            to_generator,
            deliveries,
            buffers: Vec::new(),
            next_id: 0,
        })
    }

    /// Submits job `index` of a trace, through the tracing wrappers when
    /// `traced` holds the recorder and the wrapped device.
    fn submit(
        &mut self,
        phase: &mut Phase,
        index: usize,
        tenant: String,
        due: Instant,
        traced: Option<&(Arc<Recorder>, TracedDevice<AnyDevice>)>,
    ) {
        let kind = kind_of(index);
        let job = Job { kind, tenant, due };
        match kind.generator {
            0 => self.submit_as(phase, ReplacementSelection::new(REQUESTED), job, traced),
            1 => self.submit_as(phase, LoadSortStore::new(REQUESTED), job, traced),
            _ => {
                let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(REQUESTED));
                self.submit_as(phase, twrs, job, traced)
            }
        }
    }

    fn submit_as<G: BudgetedGenerator + ShardableGenerator>(
        &mut self,
        phase: &mut Phase,
        generator: G,
        job: Job,
        traced: Option<&(Arc<Recorder>, TracedDevice<AnyDevice>)>,
    ) {
        let id = self.next_id;
        match traced {
            None => {
                let device = self.device.clone();
                self.submit_on(phase, &device, generator, job);
            }
            Some((recorder, device)) => {
                let generator = TracedGen::for_job(generator, Arc::clone(recorder), id);
                self.submit_on(phase, device, generator, job);
                let submitted = &phase.jobs[&id];
                recorder.record(
                    "service.submit",
                    id,
                    recorder.ns_at(submitted.submit_start),
                    recorder.ns_at(submitted.submit_end),
                    0,
                );
            }
        }
    }

    fn submit_on<G, D>(&mut self, phase: &mut Phase, device: &D, generator: G, job: Job)
    where
        G: BudgetedGenerator + ShardableGenerator,
        D: Device,
    {
        let id = self.next_id;
        self.next_id += 1;
        let started = Arc::new(OnceLock::new());
        let input = JobInput {
            records: Arc::clone(&self.pool[job.kind.input].records),
            at: 0,
            started: Arc::clone(&started),
        };
        let mut records = self.buffers.pop().unwrap_or_default();
        records.clear();
        records.reserve(self.spec.job_records);
        let sink = CollectSink {
            id,
            records,
            first: None,
            to_generator: self.to_generator.clone(),
        };
        let submit_start = Instant::now();
        let handle =
            self.service
                .submit_sink(job.tenant, SortJob::new(generator).on(device), input, sink);
        let submit_end = Instant::now();
        let mut record = JobRecord {
            kind: job.kind,
            due: job.due,
            submit_start,
            submit_end,
            started,
            first: None,
            finish: None,
            completed: None,
            error: None,
            checked: false,
        };
        match handle {
            Ok(handle) => phase.pending.push((id, handle)),
            Err(e) => record.error = Some(format!("submit failed: {e}")),
        }
        phase.jobs.insert(id, record);
    }

    /// Checks a delivered output and recycles its buffer.
    fn accept(&mut self, phase: &mut Phase, delivered: Delivered, recorder: Option<&Recorder>) {
        let cpu = sys::thread_cpu();
        if let Some(job) = phase.jobs.get_mut(&delivered.id) {
            job.first = delivered.first;
            job.finish = Some(delivered.finish);
            let expected = self.pool[job.kind.input].expected;
            match check_sorted(delivered.records.iter(), expected) {
                Ok(()) => job.checked = true,
                Err(e) => job.error = Some(format!("job {}: {e}", delivered.id)),
            }
            if let (Some(recorder), Some(first)) = (recorder, delivered.first) {
                recorder.record(
                    "sink.deliver",
                    delivered.id,
                    recorder.ns_at(first),
                    recorder.ns_at(delivered.finish),
                    delivered.records.len() as u64,
                );
            }
        }
        self.buffers.push(delivered.records);
        phase.check_cpu += sys::thread_cpu().saturating_sub(cpu);
    }

    /// Collects the handles of finished jobs without blocking.
    fn reap(phase: &mut Phase) {
        let mut still = Vec::with_capacity(phase.pending.len());
        for (id, handle) in phase.pending.drain(..) {
            if matches!(
                handle.try_status(),
                JobStatus::Done | JobStatus::Failed | JobStatus::Canceled
            ) {
                Self::settle(&mut phase.jobs, id, handle);
            } else {
                still.push((id, handle));
            }
        }
        phase.pending = still;
    }

    fn settle(jobs: &mut BTreeMap<u64, JobRecord>, id: u64, handle: JobHandle) {
        let result = handle.wait();
        if let Some(job) = jobs.get_mut(&id) {
            match result {
                Ok(done) => job.completed = Some(done),
                Err(e) => job.error = Some(format!("job {id} failed: {e}")),
            }
        }
    }

    /// Works through deliveries and finished handles until `until`.
    fn idle_until(&mut self, phase: &mut Phase, until: Instant, recorder: Option<&Recorder>) {
        loop {
            Self::reap(phase);
            let now = Instant::now();
            if now >= until {
                return;
            }
            match self.deliveries.recv_timeout(until - now) {
                Ok(delivered) => self.accept(phase, delivered, recorder),
                Err(RecvTimeoutError::Timeout) => return,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Waits for every job of the phase and its output.
    fn finish(&mut self, phase: &mut Phase, recorder: Option<&Recorder>) {
        for (id, handle) in std::mem::take(&mut phase.pending) {
            Self::settle(&mut phase.jobs, id, handle);
        }
        while let Ok(delivered) = self.deliveries.try_recv() {
            self.accept(phase, delivered, recorder);
        }
        for (id, job) in phase.jobs.iter_mut() {
            if job.error.is_none() && !job.checked {
                job.error = Some(format!("job {id} delivered no output"));
            }
        }
    }

    /// Set-up's closed-loop warm-up.
    fn warm_up(&mut self) -> Phase {
        let mut phase = Phase::default();
        for index in 0..self.spec.warmup_jobs {
            while phase.pending.len() >= WARMUP_IN_FLIGHT {
                match self.deliveries.recv_timeout(Duration::from_millis(5)) {
                    Ok(delivered) => self.accept(&mut phase, delivered, None),
                    Err(_) => Self::reap(&mut phase),
                }
                Self::reap(&mut phase);
            }
            let tenant = format!("tenant-{}", index % TENANTS);
            self.submit(&mut phase, index, tenant, Instant::now(), None);
        }
        self.finish(&mut phase, None);
        phase
    }

    /// Replays `trace` open loop: each job is submitted when due, whatever
    /// the state of the earlier ones.
    fn open_loop(
        &mut self,
        trace: &ArrivalTrace,
        traced: Option<&(Arc<Recorder>, TracedDevice<AnyDevice>)>,
    ) -> Phase {
        let recorder = traced.map(|(r, _)| r.as_ref());
        let mut phase = Phase::default();
        let cpu_before = sys::process_cpu();
        let ticks = Ticks::now();
        let start = Instant::now();
        for (index, arrival) in trace.jobs().iter().enumerate() {
            let due = start + arrival.offset;
            self.idle_until(&mut phase, due, recorder);
            self.submit(&mut phase, index, arrival.tenant.clone(), due, traced);
        }
        self.finish(&mut phase, recorder);
        phase.cpu = sys::process_cpu().saturating_sub(cpu_before);
        phase.kept = 1.0 - Ticks::now().steal_share_since(&ticks);
        phase
    }
}

fn arrivals(spec: &ServiceSpec, seconds: f64, seed: u64) -> ArrivalTrace {
    let jobs = ((seconds * spec.rate).round() as usize).max(1);
    ArrivalTrace::synthetic(
        TENANTS,
        jobs,
        spec.job_records,
        REQUESTED,
        Duration::from_secs_f64(1.0 / spec.rate),
        seed,
    )
}

/// Deterministic per-job counters: device counters, simulated I/O time,
/// runs and merge steps.
type Counters = (twrs_storage::IoCounters, Duration, usize, u32);

fn counters(report: &twrs_extsort::SortJobReport, io: &IoStatsSnapshot) -> Counters {
    (
        io.counters,
        io.sim_io,
        report.num_runs(),
        report.report.merge_report.merge_steps,
    )
}

/// The counters of the first completed job of each kind.
fn counters_by_kind(phase: &Phase) -> HashMap<Kind, Counters> {
    let mut kinds = HashMap::new();
    for job in phase.jobs.values() {
        if let Some(done) = &job.completed {
            kinds
                .entry(job.kind)
                .or_insert_with(|| counters(&done.report, &done.io));
        }
    }
    kinds
}

/// Checks that every job kind sorted with the same counters in `a` and `b`.
fn same_counters(
    a: &HashMap<Kind, Counters>,
    b: &HashMap<Kind, Counters>,
    problems: &mut Vec<String>,
) {
    for (kind, counters) in a {
        if let Some(other) = b.get(kind) {
            if counters != other {
                problems.push(format!(
                    "tracing changed job kind {kind:?}: {counters:?} vs {other:?}"
                ));
            }
        }
    }
}

/// Runs the service workload.
pub fn run(spec: &ServiceSpec, config: &RunConfig) -> (Outcome, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::default());
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        if let Some(old) = bench.take() {
            old.service.shutdown();
        }
        let started = Instant::now();
        let ticks = Ticks::now();
        let mut fresh = match Bench::start(*spec, config.seed) {
            Ok(fresh) => fresh,
            Err(e) => {
                outcome.problems.push(format!("set-up: {e}"));
                return (outcome, recorder);
            }
        };
        let warm = fresh.warm_up();
        let kept = 1.0 - Ticks::now().steal_share_since(&ticks);
        setups.push(started.elapsed().as_secs_f64() * kept);
        outcome
            .problems
            .extend(warm.jobs.values().filter_map(|j| j.error.clone()));
        bench = Some(fresh);
    }
    let Some(mut bench) = bench else {
        return (outcome, recorder);
    };

    if config.trace {
        let half = config.seconds / 2.0;
        let plain = bench.open_loop(&arrivals(spec, half, config.seed), None);
        let device = match TracedDevice::new(bench.device.clone(), Arc::clone(&recorder)) {
            Ok(device) => device,
            Err(e) => {
                outcome.problems.push(format!("wrap device: {e}"));
                return (outcome, recorder);
            }
        };
        let io_before = device.stats();
        let counts_before = device.counts();
        device.reset_peak();
        let traced_with = (Arc::clone(&recorder), device);
        let trace = arrivals(spec, half, config.seed.wrapping_add(1));
        let traced = bench.open_loop(&trace, Some(&traced_with));
        let (_, device) = &traced_with;
        let counts = device.counts().since(&counts_before);
        let io = device.stats().since(&io_before);
        if !counts.matches(&io) {
            outcome.problems.push(format!(
                "device wrapper counted {counts:?}, device counters moved {:?}",
                io.counters
            ));
        }
        for phase in [&plain, &traced] {
            tally(phase, &mut outcome);
        }
        same_counters(
            &counters_by_kind(&traced),
            &counters_by_kind(&plain),
            &mut outcome.problems,
        );
        let overhead = ratio(job_p50(&plain), job_p50(&traced));
        outcome.metrics = layer_metrics(
            &traced,
            &recorder,
            device.peak_pages() as f64,
            bench.service.arbiter().max_leased() as f64,
            overhead,
        );
    } else {
        let trace = arrivals(spec, config.seconds, config.seed);
        let phase = bench.open_loop(&trace, None);
        tally(&phase, &mut outcome);
        let space_amp = probe(spec, &bench, &phase, &recorder, &mut outcome.problems);
        outcome.notes.push(format!(
            "{} jobs: median latency {:.4} s as measured, {:.4} s reported; steal share {:.3}",
            phase.jobs.len(),
            job_p50(&phase) / phase.kept,
            job_p50(&phase),
            1.0 - phase.kept,
        ));
        outcome.metrics = end_to_end(spec, &phase, space_amp, &setups);
    }
    bench.service.shutdown();
    (outcome, recorder)
}

fn tally(phase: &Phase, outcome: &mut Outcome) {
    for job in phase.jobs.values() {
        outcome.attempted += 1;
        if !job.ok() {
            outcome.failed += 1;
            outcome.problems.push(
                job.error
                    .clone()
                    .unwrap_or_else(|| "job not checked".into()),
            );
        }
    }
}

/// Median job latency, as reported.
fn job_p50(phase: &Phase) -> f64 {
    let latencies: Vec<f64> = phase.jobs.values().map(JobRecord::latency).collect();
    median(&latencies) * phase.kept
}

/// Pages one job's input would fill on the device.
fn job_input_pages(spec: &ServiceSpec, page_size: usize) -> f64 {
    (spec.job_records * Record::SIZE).div_ceil(page_size) as f64
}

/// Sorts one job of every kind alone through the tracing wrappers, after
/// the measured region. Returns the largest share of its input pages a job
/// holds on the device at once, and checks each job's counters against
/// the same kind's service jobs.
fn probe(
    spec: &ServiceSpec,
    bench: &Bench,
    phase: &Phase,
    recorder: &Arc<Recorder>,
    problems: &mut Vec<String>,
) -> f64 {
    let mut probed = HashMap::new();
    let mut space = 0.0f64;
    for index in 0..SHAPES.len() * GENERATORS {
        let kind = kind_of(index);
        let device = match "sim:hdd-7200"
            .parse::<DeviceSpec>()
            .and_then(|s| s.build())
            .and_then(|d| TracedDevice::new(d, Arc::clone(recorder)))
        {
            Ok(device) => device,
            Err(e) => {
                problems.push(format!("probe device: {e}"));
                return 0.0;
            }
        };
        let pooled = &bench.pool[kind.input];
        let input = pooled.records.iter().copied();
        let mut sink = VecSink::new();
        let rec = Arc::clone(recorder);
        // The budget the service grants: the requested generator re-leased
        // to its fixed share.
        let result = match kind.generator {
            0 => {
                let g = ReplacementSelection::new(REQUESTED).with_budget(GRANT);
                probe_sort(&device, TracedGen::new(g, rec), input, &mut sink)
            }
            1 => {
                let g = LoadSortStore::new(REQUESTED).with_budget(GRANT);
                probe_sort(&device, TracedGen::new(g, rec), input, &mut sink)
            }
            _ => {
                let g = TwoWayReplacementSelection::new(TwrsConfig::recommended(REQUESTED))
                    .with_budget(GRANT);
                probe_sort(&device, TracedGen::new(g, rec), input, &mut sink)
            }
        };
        match result {
            Ok((report, io)) => {
                let pages = job_input_pages(spec, device.page_size());
                space = space.max(device.peak_pages() as f64 / pages);
                if let Err(e) = check_sorted(sink.records().iter(), pooled.expected) {
                    problems.push(format!("probe {kind:?}: {e}"));
                }
                probed.insert(kind, counters(&report, &io));
            }
            Err(e) => problems.push(format!("probe {kind:?}: {e}")),
        }
    }
    same_counters(&probed, &counters_by_kind(phase), problems);
    space
}

fn probe_sort<G: ShardableGenerator>(
    device: &TracedDevice<AnyDevice>,
    generator: G,
    input: impl Iterator<Item = Record>,
    sink: &mut VecSink<Record>,
) -> twrs_extsort::Result<(twrs_extsort::SortJobReport, IoStatsSnapshot)> {
    let before = device.stats();
    device.reset_peak();
    let report = SortJob::new(generator).on(device).sink_iter(input, sink)?;
    Ok((report, device.stats().since(&before)))
}

fn end_to_end(spec: &ServiceSpec, phase: &Phase, space_amp: f64, setups: &[f64]) -> Vec<Metric> {
    let ok: Vec<&JobRecord> = phase.jobs.values().filter(|j| j.ok()).collect();
    let scale = phase.kept;
    let latencies: Vec<f64> = ok.iter().map(|j| j.latency() * scale).collect();
    let ttfr: Vec<f64> = ok
        .iter()
        .filter_map(|j| j.first.map(|f| (f - j.due).as_secs_f64() * scale))
        .collect();
    let rates: Vec<f64> = ok
        .iter()
        .filter_map(|j| {
            let started = *j.started.get()?;
            let secs = (j.finish? - started).as_secs_f64() * scale;
            Some(spec.job_records as f64 / secs / 1e6)
        })
        .collect();
    let io: Vec<&IoStatsSnapshot> = ok
        .iter()
        .filter_map(|j| j.completed.as_ref().map(|c| &c.io))
        .collect();
    let jobs = io.len().max(1) as f64;
    let input_pages = job_input_pages(spec, twrs_storage::DEFAULT_PAGE_SIZE) * jobs;
    let written: u64 = io.iter().map(|s| s.counters.pages_written).sum();
    let read: u64 = io.iter().map(|s| s.counters.pages_read).sum();
    let sim_io: f64 = io.iter().map(|s| s.sim_io.as_secs_f64()).sum();
    let cpu = phase.cpu.saturating_sub(phase.check_cpu).as_secs_f64();
    let records = (spec.job_records * ok.len()).max(1) as f64;
    vec![
        metric("mrec_s", median(&rates), "Mrec/s"),
        metric("ttfr_s", median(&ttfr), "s"),
        metric("job_p50_s", median(&latencies), "s"),
        metric("job_p90_s", percentile(&latencies, 0.9), "s"),
        metric("cpu_us_per_rec", cpu / records * 1e6, "us"),
        metric("write_amp", written as f64 / input_pages, "ratio"),
        metric("read_amp", read as f64 / input_pages, "ratio"),
        metric("space_amp", space_amp, "ratio"),
        metric("sim_io_s", sim_io / jobs, "sim_s"),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        metric(
            "ok_frac",
            ok.len() as f64 / phase.jobs.len().max(1) as f64,
            "ratio",
        ),
    ]
}

fn layer_metrics(
    phase: &Phase,
    recorder: &Recorder,
    peak_pages: f64,
    max_leased: f64,
    overhead: f64,
) -> Vec<Metric> {
    let spans = recorder.spans();
    let mut by_job: HashMap<u64, Vec<&Span>> = HashMap::new();
    for span in &spans {
        by_job.entry(span.rep).or_default().push(span);
    }
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let mut v: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut late_max = 0.0f64;
    for (id, job) in &phase.jobs {
        late_max = late_max.max(secs(job.due, job.submit_start));
        v.entry("submit")
            .or_default()
            .push(secs(job.submit_start, job.submit_end));
        let (Some(done), Some(finish)) = (&job.completed, job.finish) else {
            continue;
        };
        let empty = Vec::new();
        let spans = by_job.get(id).unwrap_or(&empty);
        let Some(gen) = spans.iter().find(|s| s.name == "generate") else {
            continue;
        };
        let storage = |s: &&&Span| s.name.starts_with("storage.");
        let children: f64 = spans
            .iter()
            .filter(storage)
            .filter(|s| s.parent == gen.id)
            .map(|s| s.secs())
            .sum();
        let merge_storage: f64 = spans
            .iter()
            .filter(storage)
            .filter(|s| s.start_ns >= gen.end_ns)
            .map(|s| s.secs())
            .sum();
        let sum_named = |names: &[&str]| -> f64 {
            spans
                .iter()
                .filter(|s| names.contains(&s.name))
                .map(|s| s.secs())
                .sum()
        };
        let finish_ns = recorder.ns_at(finish);
        let merge_busy = finish_ns.saturating_sub(gen.end_ns) as f64 * 1e-9;
        let runs = done.report.num_runs() as f64;
        let io = &done.io.counters;
        let mut push = |name: &'static str, value: f64| v.entry(name).or_default().push(value);
        push("rungen.busy", gen.secs());
        push("rungen.self", gen.secs() - children);
        push("runs", runs);
        push(
            "rel_run_len",
            ratio(done.report.report.records as f64, runs) / done.granted_memory as f64,
        );
        push("merge.busy", merge_busy);
        push("merge.self", merge_busy - merge_storage);
        push(
            "steps",
            f64::from(done.report.report.merge_report.merge_steps),
        );
        push("passes", done.report.report.merge_report.write_passes());
        push("read", sum_named(&["storage.read"]));
        push("write", sum_named(&["storage.write"]));
        push(
            "meta",
            sum_named(&[
                "storage.create",
                "storage.open",
                "storage.remove",
                "storage.flush",
            ]),
        );
        push("page_reads", io.pages_read as f64);
        push("page_writes", io.pages_written as f64);
        push("files", io.files_created as f64);
        push("seeks", io.seeks as f64);
        let submitted_ns = recorder.ns_at(job.submit_end);
        push(
            "queue",
            gen.start_ns.saturating_sub(submitted_ns) as f64 * 1e-9,
        );
        push("run", finish_ns.saturating_sub(gen.start_ns) as f64 * 1e-9);
        // The tenant's consumer waits from the first record to `finish`.
        if let Some(first) = job.first {
            push("wait", secs(first, finish));
        }
    }
    let med = |name: &str| v.get(name).map_or(0.0, |x| median(x));
    let p90 = |name: &str| v.get(name).map_or(0.0, |x| percentile(x, 0.9));
    let mean = |name: &str| {
        v.get(name)
            .map_or(0.0, |x| x.iter().sum::<f64>() / x.len().max(1) as f64)
    };
    let shard = med("rungen.busy");
    vec![
        metric("rungen.busy_s", shard, "s"),
        metric("rungen.self_s", med("rungen.self"), "s"),
        metric("rungen.runs", mean("runs"), "count"),
        metric("rungen.rel_run_len", mean("rel_run_len"), "ratio"),
        metric("merge.busy_s", med("merge.busy"), "s"),
        metric("merge.self_s", med("merge.self"), "s"),
        metric("merge.steps", mean("steps"), "count"),
        metric("merge.write_passes", mean("passes"), "ratio"),
        metric("stream.wait_s", med("wait"), "s"),
        metric("storage.read_s", med("read"), "s"),
        metric("storage.write_s", med("write"), "s"),
        metric("storage.meta_s", med("meta"), "s"),
        metric("storage.page_reads", mean("page_reads"), "count"),
        metric("storage.page_writes", mean("page_writes"), "count"),
        metric("storage.files", mean("files"), "count"),
        metric("storage.seeks", mean("seeks"), "count"),
        metric("storage.peak_pages", peak_pages, "count"),
        metric("storage.disk_skew", 1.0, "ratio"),
        metric("shard.busy_max_s", shard, "s"),
        metric("shard.busy_min_s", shard, "s"),
        metric("shard.skew", 1.0, "ratio"),
        metric("service.submit_s", med("submit"), "s"),
        metric("service.queue_p50_s", med("queue"), "s"),
        metric("service.queue_p90_s", p90("queue"), "s"),
        metric("service.run_p50_s", med("run"), "s"),
        metric("service.run_p90_s", p90("run"), "s"),
        metric("service.late_max_s", late_max, "s"),
        metric("service.max_leased", max_leased, "count"),
        metric("trace.overhead", overhead, "ratio"),
    ]
}
