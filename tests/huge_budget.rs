//! A memory budget larger than the input is never reserved up front: with
//! a `usize::MAX` budget, RS, LSS and 2WRS sort 1,000 records through
//! `run_iter` at one and two threads (one run per generation thread) and
//! through `stream_iter`.

use two_way_replacement_selection::extsort::sorter::verify_sorted;
use two_way_replacement_selection::prelude::*;

const RECORDS: u64 = 1_000;

fn input() -> Vec<Record> {
    Distribution::new(DistributionKind::RandomUniform, RECORDS, 11).collect()
}

fn sorts_with_a_huge_budget<G: ShardableGenerator + Clone>(generator: G) {
    for threads in [1, 2] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let report = SortJob::new(generator.clone())
            .on(&device)
            .threads(threads)
            .run_iter(input().into_iter(), "out")
            .expect("file sort runs");
        assert_eq!(report.report.records, RECORDS, "{threads} threads");
        assert_eq!(report.num_runs(), threads, "one run per thread");
        verify_sorted::<Record>(&device, "out", RECORDS).expect("output verified");
    }
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let streamed: Vec<Record> = SortJob::new(generator)
        .on(&device)
        .stream_iter(input().into_iter())
        .expect("stream sort runs")
        .collect::<Result<_, _>>()
        .expect("stream yields no errors");
    let mut expected = input();
    expected.sort_unstable();
    assert_eq!(streamed, expected);
}

#[test]
fn replacement_selection_sorts_with_a_usize_max_budget() {
    sorts_with_a_huge_budget(ReplacementSelection::new(usize::MAX));
}

#[test]
fn load_sort_store_sorts_with_a_usize_max_budget() {
    sorts_with_a_huge_budget(LoadSortStore::new(usize::MAX));
}

#[test]
fn two_way_replacement_selection_sorts_with_a_usize_max_budget() {
    sorts_with_a_huge_budget(TwoWayReplacementSelection::new(TwrsConfig::recommended(
        usize::MAX,
    )));
}
