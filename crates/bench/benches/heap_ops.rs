//! Microbenchmarks of the heap substrate: classic binary heap vs the dual
//! heap used by 2WRS (Chapter 3.1 / §4.1 structures).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use twrs_heaps::{BinaryHeap, DualHeap, HeapSide, RunRecord};

const OPS: u64 = 10_000;

fn bench_heaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_operations");
    group.throughput(Throughput::Elements(OPS));

    group.bench_function("binary_heap_push_pop", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::bounded(OPS as usize);
            for i in 0..OPS {
                heap.push(i.wrapping_mul(2_654_435_761) % 1_000_000)
                    .unwrap();
            }
            let mut out = 0u64;
            while let Some(v) = heap.pop() {
                out = out.wrapping_add(v);
            }
            out
        })
    });

    group.bench_function("binary_heap_replace_top", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::from_vec((0..1_000u64).map(|i| i * 7 % 1_000).collect());
            let mut out = 0u64;
            for i in 0..OPS {
                out = out.wrapping_add(
                    heap.replace_top(i.wrapping_mul(2_654_435_761) % 1_000_000)
                        .unwrap_or(0),
                );
            }
            out
        })
    });

    group.bench_function("dual_heap_push_pop_both_sides", |b| {
        b.iter(|| {
            let mut dual: DualHeap<u64> = DualHeap::new(OPS as usize);
            for i in 0..OPS {
                let side = if i % 2 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                let value = i.wrapping_mul(2_654_435_761) % 1_000_000;
                dual.push(side, RunRecord::new(value, 0)).unwrap();
            }
            let mut out = 0u64;
            while let Some(r) = dual.pop(HeapSide::Top) {
                out = out.wrapping_add(r.value);
            }
            while let Some(r) = dual.pop(HeapSide::Bottom) {
                out = out.wrapping_add(r.value);
            }
            out
        })
    });

    group.finish();
}

criterion_group!(benches, bench_heaps);
criterion_main!(benches);
