//! Criterion bench behind Figure 6.6: sorting alternating input with a
//! varying number of monotone sections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{ReplacementSelection, ShardableGenerator, SortJob};
use twrs_storage::ModelId;
use twrs_storage::SimDevice;
use twrs_workloads::{Distribution, DistributionKind};

const RECORDS: u64 = 20_000;
const MEMORY: usize = 200;

fn sort<G: ShardableGenerator>(generator: G, sections: u32) -> u64 {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let input = Distribution::new(DistributionKind::Alternating { sections }, RECORDS, 1).records();
    SortJob::new(generator)
        .on(&device)
        .run_iter(input, "out")
        .expect("sort succeeds")
        .report
        .records
}

fn bench_alternating(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_6_6_alternating_sections");
    group.sample_size(10);
    for sections in [2u32, 10, 50, 200] {
        group.bench_with_input(
            BenchmarkId::new("rs", sections),
            &sections,
            |b, sections| b.iter(|| sort(ReplacementSelection::new(MEMORY), *sections)),
        );
        group.bench_with_input(
            BenchmarkId::new("twrs", sections),
            &sections,
            |b, sections| {
                b.iter(|| {
                    sort(
                        TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
                        *sections,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alternating);
criterion_main!(benches);
