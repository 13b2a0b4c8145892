//! Microbenchmarks of the merge phase: multi-pass k-way merge at several
//! fan-ins (Figure 6.1 context) vs polyphase merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twrs_extsort::{
    polyphase_merge, KWayMerger, LoadSortStore, MergeConfig, RunGenerator, RunHandle,
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

criterion_group!(benches, bench_merges);
criterion_main!(benches);
