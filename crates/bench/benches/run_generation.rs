//! Criterion bench of the run-generation algorithms alone (Figure 5.4
//! context): RS, LSS and 2WRS with different buffer sizes on random input,
//! 2WRS on each of the paper's six inputs (Table 5.13 context) — plus a
//! redesign guard pinning the generic (`SortableRecord`) code path against
//! a pre-redesign concrete reimplementation for the default `Record`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use twrs_core::{BufferSetup, TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    ForwardRunBuilder, LoadSortStore, ReplacementSelection, RunGenerator, RunHandle, RunSet,
};
use twrs_heaps::{BinaryHeap, HeapKind, RunRecord};
use twrs_storage::ModelId;
use twrs_storage::{SimDevice, SpillNamer};
use twrs_workloads::{Distribution, DistributionKind, Record};

const RECORDS: u64 = 20_000;
const MEMORY: usize = 500;

fn generate<G: RunGenerator>(generator: G) -> usize {
    generate_from(generator, DistributionKind::RandomUniform)
}

fn generate_from<G: RunGenerator>(mut generator: G, kind: DistributionKind) -> usize {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("bench");
    let mut input = Distribution::new(kind, RECORDS, 1).records();
    generator
        .generate(&device, &namer, &mut input)
        .expect("run generation succeeds")
        .num_runs()
}

fn bench_run_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_generation_random");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(10);

    group.bench_function("load_sort_store", |b| {
        b.iter(|| generate(LoadSortStore::new(MEMORY)))
    });
    group.bench_function("replacement_selection", |b| {
        b.iter(|| generate(ReplacementSelection::new(MEMORY)))
    });
    for fraction in [0.002, 0.02, 0.2] {
        group.bench_with_input(
            BenchmarkId::new("twrs_buffer_fraction", fraction),
            &fraction,
            |b, fraction| {
                b.iter(|| {
                    generate(TwoWayReplacementSelection::new(
                        TwrsConfig::recommended(MEMORY).with_buffers(BufferSetup::Both, *fraction),
                    ))
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("run_generation_paper_inputs");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(10);
    for kind in DistributionKind::paper_set() {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, kind| {
                b.iter(|| {
                    generate_from(
                        TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
                        *kind,
                    )
                })
            },
        );
    }
    group.finish();
}

/// Replacement selection exactly as it was written before the generic
/// redesign: hard-coded to the concrete `Record` type, no `SortableRecord`
/// indirection anywhere. Kept verbatim (modulo the builder's new type
/// parameter) as the baseline the monomorphized generic path is pinned
/// against — if monomorphization ever stopped compiling down to this, the
/// `run_generation_generic_pin` group would show the gap.
fn concrete_rs_generate(
    memory_records: usize,
    device: &SimDevice,
    namer: &SpillNamer,
    input: &mut dyn Iterator<Item = Record>,
) -> RunSet {
    let mut heap: BinaryHeap<RunRecord<Record>> =
        BinaryHeap::with_capacity(HeapKind::Min, memory_records);
    while heap.len() < memory_records {
        match input.next() {
            Some(record) => heap
                .push(RunRecord::new(record, 0))
                .expect("heap cannot be full during the fill phase"),
            None => break,
        }
    }
    let mut runs: Vec<RunHandle> = Vec::new();
    let mut total = 0u64;
    let mut current_run = 0u64;
    let mut builder = ForwardRunBuilder::new(device, namer);
    while let Some(top) = heap.pop() {
        if top.run > current_run {
            total += builder.finish_run(&mut runs).expect("finish run");
            builder = ForwardRunBuilder::new(device, namer);
            current_run = top.run;
        }
        let output = top.value;
        builder.push(&output).expect("push record");
        if let Some(next) = input.next() {
            let run = if next < output {
                current_run + 1
            } else {
                current_run
            };
            heap.push(RunRecord::new(next, run))
                .expect("a slot was just freed by pop");
        }
    }
    total += builder.finish_run(&mut runs).expect("finish run");
    RunSet {
        runs,
        records: total,
    }
}

/// The redesign guard: the generic `ReplacementSelection` (monomorphized
/// for the default `Record`) must match the pre-redesign concrete code on
/// the same input. Criterion reports both; compare their throughputs.
fn bench_generic_pin(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_generation_generic_pin");
    group.throughput(Throughput::Elements(RECORDS));
    group.sample_size(20);

    group.bench_function("rs_generic_record", |b| {
        b.iter(|| generate(ReplacementSelection::new(MEMORY)))
    });
    group.bench_function("rs_concrete_record_pre_redesign", |b| {
        b.iter(|| {
            let device = SimDevice::with_model(ModelId::Hdd7200);
            let namer = SpillNamer::new("bench");
            let mut input =
                Distribution::new(DistributionKind::RandomUniform, RECORDS, 1).records();
            concrete_rs_generate(MEMORY, &device, &namer, &mut input).num_runs()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_run_generation, bench_generic_pin);
criterion_main!(benches);
