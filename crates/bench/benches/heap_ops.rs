//! Microbenchmarks of the heap substrate: classic binary heap vs the dual
//! heap used by 2WRS (Chapter 3.1 / §4.1 structures), plus the two keyed
//! heap shapes the run generators run on: replacement selection's
//! `replace_top` over 1,000 run-tagged records, and a 2WRS dual heap of
//! about 25,000 records per side, popped and refilled.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use twrs_heaps::{BinaryHeap, DualHeap, HeapSide, RunRecord};
use twrs_storage::SortableRecord;
use twrs_workloads::Record;

const OPS: u64 = 10_000;

/// A pseudo-random record for step `i`.
fn record(i: u64) -> Record {
    Record::new(i.wrapping_mul(2_654_435_761) % 1_000_000_007, i)
}

/// Replacement selection's keyed heap of `n` records, about half of them
/// tagged for the next run, as in its steady state.
fn rs_heap(n: u64) -> BinaryHeap<RunRecord<Record>> {
    let mut heap = BinaryHeap::keyed(n as usize, |r: &RunRecord<Record>, run| {
        r.heap_key(run, r.value.sort_key())
    });
    for i in 0..n {
        heap.push(RunRecord::new(record(i), i % 2)).unwrap();
    }
    heap
}

/// A 2WRS dual heap holding `per_side` current-run records on each side,
/// installed as a run start does.
fn dual_heap(per_side: u64) -> DualHeap<Record> {
    let mut dual = DualHeap::keyed(2 * per_side as usize, Record::sort_key);
    let mut sample: Vec<Record> = (0..2 * per_side).map(record).collect();
    sample.sort_unstable();
    dual.start_run(0, sample, per_side as usize);
    dual
}

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

    group.bench_function("rs_replace_top_1000_run_tagged", |b| {
        b.iter(|| {
            // Algorithm 1 without the I/O: the top leaves, the next record
            // takes its place, tagged for the next run when it is smaller;
            // a next-run top starts that run and re-keys the heap.
            let mut heap = rs_heap(1_000);
            let mut run = 0;
            let mut out = 0u64;
            for i in 0..OPS {
                let top = heap.peek().unwrap();
                if top.run > run {
                    run = top.run;
                    heap.start_run(run);
                }
                let top = heap.peek().unwrap().value;
                let next = record(i + 1_000);
                let tag = if next < top { run + 1 } else { run };
                out = out.wrapping_add(top.key);
                heap.replace_top(RunRecord::new(next, tag));
            }
            out
        })
    });

    let dual = dual_heap(25_000);
    group.bench_function("dual_heap_25000_per_side_pop_refill", |b| {
        b.iter(|| {
            // Alternate sides; each popped slot takes a fresh record on the
            // same side, tagged for the next run when that side's stream
            // could no longer take it.
            let mut dual = black_box(&dual).clone();
            let mut out = 0u64;
            for i in 0..OPS {
                let side = if i % 2 == 0 {
                    HeapSide::Top
                } else {
                    HeapSide::Bottom
                };
                let popped = dual.pop(side).unwrap().value;
                let next = record(i + 50_000);
                let fits = match side {
                    HeapSide::Top => next >= popped,
                    HeapSide::Bottom => next <= popped,
                };
                out = out.wrapping_add(popped.key);
                dual.push(side, RunRecord::new(next, u64::from(!fits)))
                    .unwrap();
            }
            out
        })
    });

    group.finish();
}

criterion_group!(benches, bench_heaps);
criterion_main!(benches);
