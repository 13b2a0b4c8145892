//! The three single-sort workloads: one `SortJob` at a time on a
//! materialised input, repeated back to back for the measured time.

use crate::check::{check_sorted, Fingerprint};
use crate::metrics::{median, metric, percentile, ratio, Metric, Outcome};
use crate::sys::{self, Ticks};
use crate::trace::{self, Recorder, Span};
use crate::traced::{OpCounts, TracedDevice, TracedGen};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    Device, ReplacementSelection, ShardableGenerator, SortJob, SortJobReport, SortedStream,
};
use twrs_storage::{AnyDevice, DeviceSpec, IoStatsSnapshot, RunReader, StorageDevice};
use twrs_workloads::{materialize, Distribution, DistributionKind, Record};

/// Run-generation algorithm and its total memory budget in records.
#[derive(Debug, Clone, Copy)]
pub enum Gen {
    /// Classic replacement selection.
    Rs(usize),
    /// Two-way replacement selection with `TwrsConfig::recommended`.
    Twrs(usize),
}

/// Where the sorted output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `run_file_as`: a sorted file on the device.
    File,
    /// `stream_file_as`, drained by the benchmark.
    Stream,
}

/// One single-sort workload.
#[derive(Debug, Clone, Copy)]
pub struct SingleSpec {
    /// Input records.
    pub records: u64,
    /// Input shape.
    pub input: DistributionKind,
    /// Device spec string.
    pub device: &'static str,
    /// Sort threads (1 = sequential engine).
    pub threads: usize,
    /// Run generator.
    pub generator: Gen,
    /// Output kind.
    pub output: Output,
}

/// Deep merge: RS with a tiny budget makes 1,001 runs and three merge passes.
pub const MERGE_DEEP: SingleSpec = SingleSpec {
    records: 2_000_000,
    input: DistributionKind::RandomUniform,
    device: "sim:hdd-7200",
    threads: 1,
    generator: Gen::Rs(1_000),
    output: Output::File,
};

/// The paper's headline case: 2WRS on mixed input, streamed to the caller.
pub const TWRS_STREAM: SingleSpec = SingleSpec {
    records: 2_000_000,
    input: DistributionKind::MixedBalanced,
    device: "sim:hdd-7200",
    threads: 1,
    generator: Gen::Twrs(50_000),
    output: Output::Stream,
};

/// The parallel engine on a two-disk stripe.
pub const SHARDED_STRIPE: SingleSpec = SingleSpec {
    records: 2_000_000,
    input: DistributionKind::RandomUniform,
    device: "striped:2:sim:hdd-7200",
    threads: 2,
    generator: Gen::Twrs(10_000),
    output: Output::File,
};

const INPUT: &str = "input";
const OUTPUT: &str = "sorted";
/// Records per `stream.next` span: the consumer loop is timed per batch,
/// not per record, so tracing stays cheap.
const STREAM_BATCH: u64 = 4_096;
/// Largest share by which the traced layers may miss the traced sort's wall
/// time on the sequential workloads.
pub const ADD_UP_TOLERANCE: f64 = 0.02;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Independent set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The sort's device and input, ready for timed repetitions.
struct Prepared {
    device: AnyDevice,
    expected: Fingerprint,
    input_pages: u64,
}

fn prepare(spec: &SingleSpec, seed: u64) -> Result<Prepared, String> {
    let device = spec
        .device
        .parse::<DeviceSpec>()
        .and_then(|s| s.build())
        .map_err(|e| format!("device {}: {e}", spec.device))?;
    let input = Distribution::new(spec.input, spec.records, seed).collect();
    let expected = Fingerprint::of(&input);
    materialize(&device, INPUT, input).map_err(|e| format!("materialise input: {e}"))?;
    let input_pages = device
        .open(INPUT)
        .map_err(|e| format!("open input: {e}"))?
        .num_pages();
    Ok(Prepared {
        device,
        expected,
        input_pages,
    })
}

/// One sort, measured and checked.
///
/// Timings are reported net of hypervisor steal and at the reference speed
/// (see `sys`): `kept` is the share of the machine's wanted CPU time the
/// host did not withhold during the sort, `speed` the reference speed
/// measured around it.
#[derive(Debug, Clone)]
struct Rep {
    /// `SortJob` call to last record written or consumed, as measured.
    raw_wall: Duration,
    kept: f64,
    speed: f64,
    /// `SortJob` call to first sorted record in the consumer's hands, net
    /// of steal, in seconds.
    ttfr_net: f64,
    /// Process CPU time during `wall`.
    cpu: Duration,
    /// Device I/O during `wall`.
    io: IoStatsSnapshot,
    /// Pages moved per stripe member during `wall`.
    disk_pages: Vec<u64>,
    runs: usize,
    merge_steps: u32,
    write_passes: f64,
    error: Option<String>,
    /// The calling thread, which also runs the merge.
    thread: u64,
    /// When the caller started and finished with this sort, to measure the
    /// gap to the next one.
    call: Instant,
    end: Instant,
    /// Time spent building the bound `SortJob` before calling it.
    submit: Duration,
    /// File output: time the consumer spent reading the sorted file back.
    read_back: Duration,
    /// Time since the previous sort ended: how far the closed-loop caller
    /// fell behind a back-to-back schedule while checking outputs and
    /// measuring the reference speed.
    late: Duration,
    /// Traced repetitions only: recorder clock at the call and at the end,
    /// the wrapper's counts, and the most pages held.
    call_ns: u64,
    end_ns: u64,
    counts: OpCounts,
    peak_pages: u64,
}

impl Rep {
    /// Seconds from the `SortJob` call to the last record.
    fn wall(&self) -> f64 {
        self.raw_wall.as_secs_f64() * self.kept * self.speed
    }

    /// Seconds from the `SortJob` call to the first record.
    fn ttfr(&self) -> f64 {
        self.ttfr_net * self.speed
    }

    /// Process CPU seconds of the sort.
    fn cpu(&self) -> f64 {
        self.cpu.as_secs_f64() * self.speed
    }
}

/// `interval` in seconds, net of the steal share since `ticks`.
fn net_secs(interval: Duration, ticks: &Ticks) -> f64 {
    interval.as_secs_f64() * (1.0 - Ticks::now().steal_share_since(ticks))
}

fn disk_pages(device: &AnyDevice) -> Vec<u64> {
    match device.as_striped() {
        Some(stripe) => stripe
            .member_stats()
            .iter()
            .map(|s| s.pages_total())
            .collect(),
        None => vec![device.stats().pages_total()],
    }
}

/// Round-robin file placement on a stripe carries on from one sort to the
/// next, so which disk a sort's merge files land on would alternate between
/// repetitions. Moving the cursor back to the first disk before each sort
/// makes every repetition place, and count, its pages alike.
fn align_stripe(device: &AnyDevice) -> Result<(), String> {
    let Some(stripe) = device.as_striped() else {
        return Ok(());
    };
    let last = stripe.members() - 1;
    for _ in 0..stripe.members() {
        let before = stripe.member_stats();
        let probe = "stripe-cursor";
        device
            .create(probe)
            .and_then(|_| device.remove(probe))
            .map_err(|e| format!("align stripe: {e}"))?;
        let landed = stripe
            .member_stats()
            .iter()
            .zip(&before)
            .position(|(after, before)| {
                after.counters.files_created > before.counters.files_created
            });
        if landed == Some(last) {
            return Ok(());
        }
    }
    Err("align stripe: placement is not round-robin".into())
}

/// Drains `stream` into `out`, one `stream.next` span per batch when
/// traced. Returns the time from `call` until the first record arrived, net
/// of the steal share since `ticks`.
fn drain(
    stream: &mut SortedStream<Record>,
    out: &mut Vec<Record>,
    recorder: Option<&Recorder>,
    call: Instant,
    ticks: &Ticks,
) -> twrs_extsort::Result<f64> {
    out.clear();
    let mut first = 0.0;
    loop {
        let mut span = recorder.map(|r| r.enter("stream.next"));
        let mut taken = 0;
        while taken < STREAM_BATCH {
            match stream.next() {
                Some(record) => {
                    out.push(record?);
                    if out.len() == 1 {
                        first = net_secs(call.elapsed(), ticks);
                    }
                    taken += 1;
                }
                None => break,
            }
        }
        if let Some(span) = span.as_mut() {
            span.set_value(taken);
        }
        if taken < STREAM_BATCH {
            return Ok(first);
        }
    }
}

/// Runs one sort of the prepared input through `device` and checks it.
fn sort_once<D: Device, G: ShardableGenerator>(
    spec: &SingleSpec,
    prepared: &Prepared,
    device: &D,
    generator: G,
    out: &mut Vec<Record>,
    recorder: Option<&Recorder>,
) -> Rep {
    let aligned = align_stripe(&prepared.device);
    let io_before = device.stats();
    let disks_before = disk_pages(&prepared.device);
    let cpu_before = sys::process_cpu();
    let ticks = Ticks::now();
    let call_ns = recorder.map_or(0, Recorder::now_ns);
    let call = Instant::now();
    let job = SortJob::new(generator).on(device).threads(spec.threads);
    let submit = call.elapsed();
    let (result, first): (twrs_extsort::Result<SortJobReport>, Option<f64>) = match spec.output {
        Output::File => (job.run_file_as::<Record>(INPUT, OUTPUT), None),
        Output::Stream => match job.stream_file_as::<Record>(INPUT) {
            Ok(mut stream) => {
                let report = stream.report().clone();
                match drain(&mut stream, out, recorder, call, &ticks) {
                    Ok(first) => (Ok(report), Some(first)),
                    Err(e) => (Err(e), None),
                }
            }
            Err(e) => (Err(e), None),
        },
    };
    let end = Instant::now();
    let kept = 1.0 - Ticks::now().steal_share_since(&ticks);
    let end_ns = recorder.map_or(0, |r| r.ns_at(end));
    let cpu = sys::process_cpu().saturating_sub(cpu_before);
    let io = device.stats().since(&io_before);
    let disk_pages = disk_pages(&prepared.device)
        .iter()
        .zip(&disks_before)
        .map(|(after, before)| after - before)
        .collect();

    // Everything below is outside the measured interval and reads through
    // the unwrapped device, so it adds neither spans nor counted I/O.
    let mut rep = Rep {
        raw_wall: end - call,
        kept,
        speed: 1.0,
        ttfr_net: 0.0,
        cpu,
        io,
        disk_pages,
        runs: 0,
        merge_steps: 0,
        write_passes: 0.0,
        error: None,
        thread: trace::thread_number(),
        call,
        end,
        submit,
        read_back: Duration::ZERO,
        late: Duration::ZERO,
        call_ns,
        end_ns,
        counts: OpCounts::default(),
        peak_pages: 0,
    };
    let checked = result
        .map_err(|e| format!("sort failed: {e}"))
        .and_then(|report| {
            rep.runs = report.num_runs();
            let merge = &report.report.merge_report;
            // A streamed report covers the intermediate passes only; the final
            // pass ran lazily inside the drain.
            rep.merge_steps = merge.merge_steps + u32::from(spec.output == Output::Stream);
            rep.write_passes = merge.write_passes();
            rep.ttfr_net = match first {
                Some(first) => first,
                // The output file is complete only when the sort returns; a
                // consumer gets its first record by reading it back now.
                None => {
                    let reading = Instant::now();
                    let first = read_output(&prepared.device, out, call, &ticks)?;
                    rep.read_back = reading.elapsed();
                    first
                }
            };
            check_sorted(out.iter(), prepared.expected)
        });
    if spec.output == Output::File && prepared.device.exists(OUTPUT) {
        if let Err(e) = prepared.device.remove(OUTPUT) {
            rep.error.get_or_insert(format!("remove output: {e}"));
        }
    }
    if let Err(e) = aligned.and(checked) {
        rep.error.get_or_insert(e);
    }
    if let Err(e) = leftover_files(&prepared.device) {
        rep.error.get_or_insert(e);
    }
    rep
}

/// Reads the sorted output file into `out`. Returns the time from `call`
/// until its first record was in hand, net of the steal share since `ticks`.
fn read_output(
    device: &AnyDevice,
    out: &mut Vec<Record>,
    call: Instant,
    ticks: &Ticks,
) -> Result<f64, String> {
    out.clear();
    let mut first = 0.0;
    let mut reader =
        RunReader::<Record>::open(device, OUTPUT).map_err(|e| format!("open output: {e}"))?;
    while let Some(record) = reader
        .next_record()
        .map_err(|e| format!("read output: {e}"))?
    {
        if out.is_empty() {
            first = net_secs(call.elapsed(), ticks);
        }
        out.push(record);
    }
    Ok(first)
}

/// A finished sort must leave only its input behind.
fn leftover_files(device: &AnyDevice) -> Result<(), String> {
    let files = device.list();
    if files == [INPUT] {
        Ok(())
    } else {
        Err(format!("files left on the device: {files:?}"))
    }
}

/// One untraced sort.
fn plain_rep<G: ShardableGenerator>(
    spec: &SingleSpec,
    prepared: &Prepared,
    generator: &G,
    out: &mut Vec<Record>,
) -> Rep {
    sort_once(
        spec,
        prepared,
        &prepared.device,
        generator.clone(),
        out,
        None,
    )
}

/// One sort through the tracing wrappers, as repetition `rep`.
fn traced_rep<G: ShardableGenerator>(
    spec: &SingleSpec,
    prepared: &Prepared,
    generator: &G,
    out: &mut Vec<Record>,
    recorder: &Arc<Recorder>,
    rep: u64,
) -> Result<Rep, String> {
    let device = TracedDevice::new(prepared.device.clone(), Arc::clone(recorder))
        .map_err(|e| format!("wrap device: {e}"))?;
    recorder.set_rep(rep);
    let counts_before = device.counts();
    device.reset_peak();
    let generator = TracedGen::new(generator.clone(), Arc::clone(recorder));
    let mut measured = sort_once(spec, prepared, &device, generator, out, Some(recorder));
    measured.counts = device.counts().since(&counts_before);
    measured.peak_pages = device.peak_pages();
    Ok(measured)
}

/// The counters a tracing wrapper must leave exactly as they are.
fn same_counters(a: &Rep, b: &Rep) -> bool {
    a.io.counters == b.io.counters
        && a.io.sim_io == b.io.sim_io
        && a.disk_pages == b.disk_pages
        && a.runs == b.runs
        && a.merge_steps == b.merge_steps
}

/// Runs workload `spec`.
pub fn run(spec: &SingleSpec, config: &RunConfig) -> (Outcome, Arc<Recorder>) {
    match spec.generator {
        Gen::Rs(memory) => run_with(spec, config, ReplacementSelection::new(memory)),
        Gen::Twrs(memory) => run_with(
            spec,
            config,
            TwoWayReplacementSelection::new(TwrsConfig::recommended(memory)),
        ),
    }
}

fn run_with<G: ShardableGenerator>(
    spec: &SingleSpec,
    config: &RunConfig,
    generator: G,
) -> (Outcome, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::default());
    let mut outcome = Outcome::default();

    // Set-up, repeated: input, device, materialised input and one untimed
    // warm-up sort, which also pays the simulated disk's first-touch
    // allocation.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let speed = sys::reference_speed();
        let started = Instant::now();
        let ticks = Ticks::now();
        let prepared = match prepare(spec, config.seed) {
            Ok(prepared) => prepared,
            Err(e) => {
                outcome.problems.push(format!("set-up: {e}"));
                return (outcome, recorder);
            }
        };
        let mut out = Vec::new();
        let warm = plain_rep(spec, &prepared, &generator, &mut out);
        let net = net_secs(started.elapsed(), &ticks);
        setups.push(net * (speed + sys::reference_speed()) / 2.0);
        if let Some(e) = warm.error {
            outcome.problems.push(format!("warm-up: {e}"));
        }
        state = Some((prepared, out));
    }
    let Some((prepared, mut out)) = state else {
        return (outcome, recorder);
    };

    // Measured region: untraced sorts back to back, alternating with traced
    // ones in a traced run. The reference speed is measured between sorts;
    // each sort takes the mean of the speeds before and after it.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut speed = sys::reference_speed();
    let started = Instant::now();
    let mut last_end = started;
    while started.elapsed().as_secs_f64() < config.seconds
        || plain.is_empty()
        || (config.trace && traced.is_empty())
    {
        let tracing = config.trace && plain.len() > traced.len();
        let mut rep = if tracing {
            let id = traced.len() as u64 + 1;
            match traced_rep(spec, &prepared, &generator, &mut out, &recorder, id) {
                Ok(rep) => rep,
                Err(e) => {
                    outcome.problems.push(e);
                    return (outcome, recorder);
                }
            }
        } else {
            plain_rep(spec, &prepared, &generator, &mut out)
        };
        let after = sys::reference_speed();
        rep.speed = (speed + after) / 2.0;
        rep.late = rep.call.saturating_duration_since(last_end);
        last_end = rep.end;
        speed = after;
        if tracing {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let raw: Vec<f64> = plain.iter().map(|r| r.raw_wall.as_secs_f64()).collect();
    let reported: Vec<f64> = plain.iter().map(Rep::wall).collect();
    let kept: Vec<f64> = plain.iter().map(|r| r.kept).collect();
    let speed: Vec<f64> = plain.iter().map(|r| r.speed).collect();
    outcome.notes.push(format!(
        "{} sorts: median wall {:.4} s as measured, {:.4} s reported; median steal share {:.3}, reference speed {:.3}",
        plain.len(),
        median(&raw),
        median(&reported),
        1.0 - median(&kept),
        median(&speed)
    ));
    for rep in &plain {
        outcome.attempted += 1;
        if let Some(e) = &rep.error {
            outcome.failed += 1;
            outcome.problems.push(e.clone());
        }
    }
    // An untraced run still sorts once through the wrappers, after the
    // measured region: the device wrapper supplies `space_amp`, and the
    // sort checks that the wrappers change no counter.
    if !config.trace {
        match traced_rep(spec, &prepared, &generator, &mut out, &recorder, 1) {
            Ok(rep) => traced.push(rep),
            Err(e) => {
                outcome.problems.push(e);
                return (outcome, recorder);
            }
        }
    }
    for rep in &traced {
        if let Some(e) = &rep.error {
            outcome.problems.push(format!("traced sort: {e}"));
        }
        if !same_counters(rep, &plain[0]) {
            outcome.problems.push(format!(
                "tracing changed the sort: traced {rep:?} vs untraced {:?}",
                plain[0]
            ));
        }
        if !rep.counts.matches(&rep.io) {
            outcome.problems.push(format!(
                "device wrapper counted {:?}, device counters moved {:?}",
                rep.counts, rep.io.counters
            ));
        }
    }

    outcome.metrics = if config.trace {
        let spans = recorder.spans();
        let layers: Vec<Layers> = traced
            .iter()
            .enumerate()
            .map(|(i, rep)| {
                let memory = generator.memory_records();
                Layers::of(rep, &spans, i as u64 + 1, spec.records, memory)
            })
            .collect();
        if spec.threads == 1 {
            for (layers, rep) in layers.iter().zip(&traced) {
                // Spans are raw clock readings, so compare with the raw wall.
                let wall = rep.raw_wall.as_secs_f64();
                let sum = layers.rungen_busy + layers.merge_busy;
                if (sum - wall).abs() > ADD_UP_TOLERANCE * wall {
                    outcome.problems.push(format!(
                        "layers do not add up: rungen {:.4} s + merge {:.4} s vs wall {wall:.4} s",
                        layers.rungen_busy, layers.merge_busy
                    ));
                }
            }
        }
        let overhead = ratio(mrec_s(spec, &traced), mrec_s(spec, &plain));
        layer_metrics(&layers, overhead)
    } else {
        end_to_end(spec, &prepared, &plain, &traced[0], &setups)
    };
    (outcome, recorder)
}

/// Median records per second of `reps`, in Mrec/s.
fn mrec_s(spec: &SingleSpec, reps: &[Rep]) -> f64 {
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| spec.records as f64 / r.wall() / 1e6)
        .collect();
    median(&rates)
}

fn end_to_end(
    spec: &SingleSpec,
    prepared: &Prepared,
    plain: &[Rep],
    probe: &Rep,
    setups: &[f64],
) -> Vec<Metric> {
    let each = |f: fn(&Rep) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let per_input = |f: fn(&Rep) -> u64| -> f64 {
        let v: Vec<f64> = plain
            .iter()
            .map(|r| f(r) as f64 / prepared.input_pages as f64)
            .collect();
        median(&v)
    };
    let walls = each(Rep::wall);
    let cpu: f64 = plain.iter().map(Rep::cpu).sum();
    let records = spec.records as f64 * plain.len() as f64;
    let ok = plain.iter().filter(|r| r.error.is_none()).count();
    vec![
        metric("mrec_s", mrec_s(spec, plain), "Mrec/s"),
        metric("ttfr_s", median(&each(Rep::ttfr)), "s"),
        metric("job_p50_s", median(&walls), "s"),
        metric("job_p90_s", percentile(&walls, 0.9), "s"),
        metric("cpu_us_per_rec", cpu / records * 1e6, "us"),
        metric(
            "write_amp",
            per_input(|r| r.io.counters.pages_written),
            "ratio",
        ),
        metric("read_amp", per_input(|r| r.io.counters.pages_read), "ratio"),
        metric(
            "space_amp",
            probe.peak_pages as f64 / prepared.input_pages as f64,
            "ratio",
        ),
        metric(
            "sim_io_s",
            median(&each(|r| r.io.sim_io.as_secs_f64())),
            "sim_s",
        ),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        metric("ok_frac", ok as f64 / plain.len() as f64, "ratio"),
    ]
}

/// Per-layer figures of one traced repetition.
#[derive(Debug, Clone, Default)]
struct Layers {
    rungen_busy: f64,
    rungen_self: f64,
    runs: f64,
    rel_run_len: f64,
    merge_busy: f64,
    merge_self: f64,
    merge_steps: f64,
    write_passes: f64,
    stream_wait: f64,
    read_s: f64,
    write_s: f64,
    meta_s: f64,
    page_reads: f64,
    page_writes: f64,
    files: f64,
    seeks: f64,
    peak_pages: f64,
    disk_skew: f64,
    shard_max: f64,
    shard_min: f64,
    submit: f64,
    queue: f64,
    run: f64,
    late: f64,
}

fn is_storage(span: &Span) -> bool {
    span.name.starts_with("storage.")
}

impl Layers {
    fn of(rep: &Rep, spans: &[Span], id: u64, records: u64, memory: usize) -> Layers {
        let spans: Vec<&Span> = spans
            .iter()
            .filter(|s| s.rep == id && s.start_ns >= rep.call_ns && s.end_ns <= rep.end_ns)
            .collect();
        let gens: Vec<&&Span> = spans.iter().filter(|s| s.name == "generate").collect();
        let child_time = |parent: u64| -> f64 {
            spans
                .iter()
                .filter(|s| s.parent == parent && is_storage(s))
                .map(|s| s.secs())
                .sum()
        };
        let sum_named = |names: &[&str]| -> f64 {
            spans
                .iter()
                .filter(|s| names.contains(&s.name))
                .map(|s| s.secs())
                .sum()
        };
        let gen_start = gens.iter().map(|s| s.start_ns).min().unwrap_or(rep.call_ns);
        let gen_end = gens.iter().map(|s| s.end_ns).max().unwrap_or(rep.call_ns);
        let shard: Vec<f64> = gens.iter().map(|s| s.secs()).collect();
        // The final merge runs on the calling thread; storage time spent
        // there after generation is the merge's, not its own work.
        let merge_storage: f64 = spans
            .iter()
            .filter(|s| is_storage(s) && s.thread == rep.thread && s.start_ns >= gen_end)
            .map(|s| s.secs())
            .sum();
        let merge_busy = rep.end_ns.saturating_sub(gen_end) as f64 * 1e-9;
        let runs: u64 = gens.iter().map(|s| s.value).sum();
        let disk_max = rep.disk_pages.iter().copied().max().unwrap_or(0);
        let disk_min = rep.disk_pages.iter().copied().min().unwrap_or(0);
        Layers {
            rungen_busy: shard.iter().sum(),
            rungen_self: gens.iter().map(|s| s.secs() - child_time(s.id)).sum(),
            runs: runs as f64,
            rel_run_len: ratio(records as f64, runs as f64) / memory as f64,
            merge_busy,
            merge_self: merge_busy - merge_storage,
            merge_steps: f64::from(rep.merge_steps),
            write_passes: rep.write_passes,
            // The consumer waits in `SortedStream::next` for a stream, and
            // reading the finished file back for a file.
            stream_wait: sum_named(&["stream.next"]) + rep.read_back.as_secs_f64(),
            read_s: sum_named(&["storage.read"]),
            write_s: sum_named(&["storage.write"]),
            meta_s: sum_named(&[
                "storage.create",
                "storage.open",
                "storage.remove",
                "storage.flush",
            ]),
            page_reads: rep.counts.page_reads as f64,
            page_writes: rep.counts.page_writes as f64,
            files: rep.counts.creates as f64,
            seeks: rep.io.counters.seeks as f64,
            peak_pages: rep.peak_pages as f64,
            disk_skew: ratio(disk_max as f64, disk_min as f64),
            shard_max: shard.iter().copied().fold(0.0, f64::max),
            shard_min: shard.iter().copied().reduce(f64::min).unwrap_or(0.0),
            submit: rep.submit.as_secs_f64(),
            queue: gen_start.saturating_sub(rep.call_ns) as f64 * 1e-9,
            run: rep.end_ns.saturating_sub(gen_start) as f64 * 1e-9,
            late: rep.late.as_secs_f64(),
        }
    }
}

fn layer_metrics(layers: &[Layers], overhead: f64) -> Vec<Metric> {
    let med = |f: fn(&Layers) -> f64| -> f64 {
        let v: Vec<f64> = layers.iter().map(f).collect();
        median(&v)
    };
    let p90 = |f: fn(&Layers) -> f64| -> f64 {
        let v: Vec<f64> = layers.iter().map(f).collect();
        percentile(&v, 0.9)
    };
    let shard_max = med(|l| l.shard_max);
    let shard_min = med(|l| l.shard_min);
    vec![
        metric("rungen.busy_s", med(|l| l.rungen_busy), "s"),
        metric("rungen.self_s", med(|l| l.rungen_self), "s"),
        metric("rungen.runs", med(|l| l.runs), "count"),
        metric("rungen.rel_run_len", med(|l| l.rel_run_len), "ratio"),
        metric("merge.busy_s", med(|l| l.merge_busy), "s"),
        metric("merge.self_s", med(|l| l.merge_self), "s"),
        metric("merge.steps", med(|l| l.merge_steps), "count"),
        metric("merge.write_passes", med(|l| l.write_passes), "ratio"),
        metric("stream.wait_s", med(|l| l.stream_wait), "s"),
        metric("storage.read_s", med(|l| l.read_s), "s"),
        metric("storage.write_s", med(|l| l.write_s), "s"),
        metric("storage.meta_s", med(|l| l.meta_s), "s"),
        metric("storage.page_reads", med(|l| l.page_reads), "count"),
        metric("storage.page_writes", med(|l| l.page_writes), "count"),
        metric("storage.files", med(|l| l.files), "count"),
        metric("storage.seeks", med(|l| l.seeks), "count"),
        metric("storage.peak_pages", med(|l| l.peak_pages), "count"),
        metric("storage.disk_skew", med(|l| l.disk_skew), "ratio"),
        metric("shard.busy_max_s", shard_max, "s"),
        metric("shard.busy_min_s", shard_min, "s"),
        metric("shard.skew", ratio(shard_max, shard_min), "ratio"),
        metric("service.submit_s", med(|l| l.submit), "s"),
        metric("service.queue_p50_s", med(|l| l.queue), "s"),
        metric("service.queue_p90_s", p90(|l| l.queue), "s"),
        metric("service.run_p50_s", med(|l| l.run), "s"),
        metric("service.run_p90_s", p90(|l| l.run), "s"),
        metric(
            "service.late_max_s",
            layers.iter().map(|l| l.late).fold(0.0, f64::max),
            "s",
        ),
        metric("service.max_leased", 0.0, "count"),
        metric("trace.overhead", overhead, "ratio"),
    ]
}
