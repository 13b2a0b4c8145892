//! Criterion bench behind Figures 6.2–6.5 and 6.7: end-to-end sorting
//! (run generation + merge) of RS vs 2WRS per input distribution, plus the
//! 1-vs-N-thread comparison of the same pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{MergeConfig, ReplacementSelection, ShardableGenerator, SortJob};
use twrs_storage::ModelId;
use twrs_storage::SimDevice;
use twrs_workloads::{Distribution, DistributionKind};

const RECORDS: u64 = 20_000;
const MEMORY: usize = 400;

fn sort<G: ShardableGenerator>(generator: G, kind: DistributionKind, threads: usize) -> u64 {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(kind, RECORDS, 1).records();
    SortJob::new(generator)
        .on(&device)
        .threads(threads)
        .merge(MergeConfig {
            fan_in: 10,
            read_ahead_records: 256,
        })
        .run_iter(input, "out")
        .expect("sort succeeds")
        .report
        .records
}

fn bench_total_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_sort");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(10);
    for kind in [
        DistributionKind::RandomUniform,
        DistributionKind::MixedBalanced,
        DistributionKind::ReverseSorted,
    ] {
        group.bench_with_input(BenchmarkId::new("rs", kind.label()), &kind, |b, kind| {
            b.iter(|| sort(ReplacementSelection::new(MEMORY), *kind, 1))
        });
        group.bench_with_input(BenchmarkId::new("twrs", kind.label()), &kind, |b, kind| {
            b.iter(|| {
                sort(
                    TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
                    *kind,
                    1,
                )
            })
        });
    }
    group.finish();
}

/// 1-vs-N threads on the random distribution: one thread as the baseline,
/// then increasing shard counts with the same total memory budget.
fn bench_parallel_total_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_sort_parallel");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(10);
    let kind = DistributionKind::RandomUniform;
    group.bench_with_input(
        BenchmarkId::new("twrs-sequential", 1usize),
        &kind,
        |b, kind| {
            b.iter(|| {
                sort(
                    TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
                    *kind,
                    1,
                )
            })
        },
    );
    for threads in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("twrs-parallel", threads),
            &threads,
            |b, threads| {
                b.iter(|| {
                    sort(
                        TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
                        kind,
                        *threads,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_total_sort, bench_parallel_total_sort);
criterion_main!(benches);
