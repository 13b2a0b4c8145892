//! Microbenchmarks of the merge phase: multi-pass k-way merge at several
//! fan-ins (Figure 6.1 context) vs polyphase merge, and the one run reader
//! every merge input reads through (`run_read`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twrs_extsort::{
    polyphase_merge, KWayMerger, LoadSortStore, MergeConfig, RunBuilder, RunGenerator, RunHandle,
};
use twrs_storage::ModelId;
use twrs_storage::{SimDevice, SpillNamer};
use twrs_workloads::{Distribution, DistributionKind, Record};

fn build_runs(device: &SimDevice, namer: &SpillNamer, runs: usize, per_run: u64) -> Vec<RunHandle> {
    let mut generator = LoadSortStore::new(per_run as usize);
    let mut input =
        Distribution::new(DistributionKind::RandomUniform, per_run * runs as u64, 5).records();
    generator
        .generate(device, namer, &mut input)
        .expect("run generation succeeds")
        .runs
}

fn bench_merges(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_strategies");
    group.sample_size(10);

    // A fixed read-ahead budget divided by the fan-in, as in Figure 6.1:
    // a larger fan-in needs fewer passes but reads each run in smaller
    // bursts.
    for fan_in in [2usize, 5, 10, 16] {
        group.bench_with_input(
            BenchmarkId::new("kway_fan_in", fan_in),
            &fan_in,
            |b, &fan_in| {
                b.iter(|| {
                    let device = SimDevice::with_model(ModelId::Hdd7200);
                    let namer = SpillNamer::new("kway");
                    let runs = build_runs(&device, &namer, 20, 1_024);
                    KWayMerger::new(MergeConfig {
                        fan_in,
                        read_ahead_records: 2_560 / fan_in,
                    })
                    .merge_into::<_, Record>(&device, &namer, runs, "out")
                    .expect("merge succeeds")
                    .output_records
                })
            },
        );
    }

    group.bench_function("polyphase_6_tapes", |b| {
        b.iter(|| {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("poly");
            let runs = build_runs(&device, &namer, 20, 1_024);
            polyphase_merge::<_, Record>(&device, &namer, runs, 6, "out").expect("merge succeeds")
        })
    });

    group.finish();
}

/// Pages per part file of the bench's reverse runs.
const PAGES_PER_FILE: u64 = 64;

/// Writes the records of the ascending `keys` as one run through `builder`
/// and appends its handle to `runs`.
fn write_run(
    mut builder: RunBuilder<'_, SimDevice, Record>,
    keys: std::ops::Range<u64>,
    runs: &mut Vec<RunHandle>,
) {
    let records: Vec<Record> = keys.map(Record::from_key).collect();
    builder.push_sorted(&records).expect("run writes");
    builder.finish_run(runs).expect("run finishes");
}

/// Reads `run` through its `RunReader` at the merge's default read-ahead,
/// one batch at a time as an inline merge input does; returns the records
/// read.
fn read_run(device: &SimDevice, run: &RunHandle) -> u64 {
    let read_ahead = MergeConfig::default().read_ahead_records;
    let mut reader = run.open::<Record>(device).expect("run opens");
    let mut batch = Vec::with_capacity(read_ahead);
    let mut records = 0;
    loop {
        batch.clear();
        let read = reader
            .read_batch(&mut batch, read_ahead)
            .expect("run reads");
        records += read as u64;
        if read < read_ahead {
            return records;
        }
    }
}

fn bench_run_read(c: &mut Criterion) {
    const RECORDS: u64 = 100_000;
    const QUARTER: u64 = RECORDS / 4;
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("read");
    let forward = || RunBuilder::forward(&device, &namer);
    let reverse = || RunBuilder::reverse(&device, &namer, PAGES_PER_FILE);
    let mut runs = Vec::new();
    write_run(forward(), 0..RECORDS, &mut runs);
    // 100,000 16-byte records take seven parts of 63 data pages.
    write_run(reverse(), 0..RECORDS, &mut runs);
    // A 2WRS run: streams 4 · 3 · 2 · 1, reverse and forward in turn.
    let mut streams = Vec::new();
    write_run(reverse(), 0..QUARTER, &mut streams);
    write_run(forward(), QUARTER..2 * QUARTER, &mut streams);
    write_run(reverse(), 2 * QUARTER..3 * QUARTER, &mut streams);
    write_run(forward(), 3 * QUARTER..RECORDS, &mut streams);
    runs.push(RunHandle::Chain(streams));

    let mut group = c.benchmark_group("run_read");
    group.sample_size(10);
    for (name, run) in ["forward", "reverse_parts", "twrs_chain"]
        .into_iter()
        .zip(&runs)
    {
        group.bench_function(name, |b| b.iter(|| read_run(&device, run)));
    }
    group.finish();
}

criterion_group!(benches, bench_merges, bench_run_read);
criterion_main!(benches);
