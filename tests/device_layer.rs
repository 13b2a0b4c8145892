//! Device wrappers: each answers like the two-disk stripe it wraps (a
//! scope keeps statistics of its own), and a spill write that fails on the
//! writer thread surfaces as the device's own error: an RS forward run's
//! page, or a 2WRS reverse part's data or header page, inline or on a spill
//! writer, in a file sort and a stream sort.

mod common;

use common::{PageOp, TestDevice};
use std::io::{Error, ErrorKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use two_way_replacement_selection::prelude::*;
use twrs_extsort::{SortError, SpillWriteDevice};
use twrs_storage::StorageError;

/// Checks that `wrap` over a two-disk stripe answers like the stripe.
fn answers_like_the_stripe<W>(wrap: impl Fn(AnyDevice) -> W, latency: bool, scope: bool)
where
    W: StorageDevice + Clone,
{
    let label = std::any::type_name::<W>();
    let stripe = DeviceSpec::striped(2, DeviceSpec::default())
        .build()
        .unwrap();
    let wrapper = wrap(stripe.clone());
    assert_eq!(wrapper.stripe_members(), 2, "{label}");
    assert!(wrapper.attach_io_client().is_some(), "{label}");
    assert_eq!(wrapper.has_wall_clock_latency(), latency, "{label}");
    // A shard view creates its files on the member it is pinned to.
    let mut file = wrapper.shard_view(1).create("f").unwrap();
    file.write_page(0, &vec![3u8; stripe.page_size()]).unwrap();
    file.flush().unwrap();
    let members = stripe.as_striped().unwrap().member_devices();
    assert!(members[1].exists("f") && !members[0].exists("f"), "{label}");
    // A `scope` counts what it caused and resets only itself; the other
    // wrappers read and reset the stripe's member fold.
    let shared = stripe.stats().counters;
    assert_eq!(shared.pages_written, 1, "{label}");
    assert_eq!(wrapper.stats().counters, shared, "{label}");
    wrapper.reset_stats();
    assert_eq!(wrapper.stats().counters, Default::default(), "{label}");
    let kept = if scope { shared } else { Default::default() };
    assert_eq!(stripe.stats().counters, kept, "{label}");
}

#[test]
fn every_wrapper_answers_like_the_stripe_it_wraps() {
    answers_like_the_stripe(ScopedDevice::new, false, true);
    answers_like_the_stripe(|d| SpillWriteDevice::new(d, 64), false, false);
    answers_like_the_stripe(|d| TestDevice::new(d).latency(true), true, false);
}

#[test]
fn spill_device_surfaces_the_first_write_error_at_the_next_barrier() {
    // Page writes fail from the third on, counted over every file.
    let writes = AtomicU64::new(0);
    let device = TestDevice::sim().on_page(move |op| {
        if op.write && writes.fetch_add(1, Ordering::SeqCst) >= 2 {
            return Err(Error::other("injected").into());
        }
        Ok(())
    });
    let spill = SpillWriteDevice::new(device.clone(), 64);
    let page = vec![9u8; device.page_size()];
    let mut file = spill.create("f").unwrap();
    // Five writes fit one batch: each is accepted while it is pending.
    for index in 0..5 {
        file.write_page(index, &page).unwrap();
    }
    let error = file.flush().unwrap_err();
    assert!(error.to_string().contains("injected"), "{error}");
    // The writer applied the two writes before the failure, skipped
    // the rest, and reports the failure at every later barrier.
    assert!(spill.barrier().is_err());
    assert_eq!(device.open("f").unwrap().num_pages(), 2);
}

#[test]
fn a_failed_spill_write_fails_the_sort_with_its_own_error() {
    for threads in [1, 2] {
        // The first page write of a run fails, as on a full disk. The
        // device claims latency, so at two threads a spill writer meets it.
        let failed = AtomicBool::new(false);
        let device = TestDevice::sim().latency(true).on_page(move |op| {
            if op.write && op.file.contains(".run.") && !failed.swap(true, Ordering::SeqCst) {
                return Err(Error::new(ErrorKind::WriteZero, "disk full").into());
            }
            Ok(())
        });
        let input = Distribution::new(DistributionKind::RandomUniform, 5_000, 11).records();
        let job = SortJob::new(ReplacementSelection::new(200)).on(&device);
        match job.threads(threads).run_iter(input, "out").map(|_| ()) {
            Err(SortError::Storage(StorageError::Io(e))) => {
                assert_eq!(e.kind(), ErrorKind::WriteZero, "threads {threads}");
                assert_eq!(e.to_string(), "disk full", "threads {threads}");
            }
            other => panic!("threads {threads}: {other:?}"),
        }
        assert_eq!(device.list(), Vec::<String>::new(), "threads {threads}");
    }
}

/// The part index of a reverse-run part file `<name>.partN`.
fn part_index(file: &str) -> Option<u64> {
    file.rsplit_once(".part")?.1.parse().ok()
}

/// Sorts with 2WRS whose reverse streams roll into several part files (the
/// `tests/stream_cleanup.rs` setup) on a device that fails the first page
/// write `fails` picks as a full disk would, through `run_iter` or
/// `stream_iter` at one and two threads. The device claims latency, so at
/// two threads a spill writer meets the failure. Every sort must return
/// that error and leave no file behind.
fn a_failed_part_write_fails_the_sort(fails: fn(&PageOp<'_>) -> bool, stream: bool) {
    for threads in [1, 2] {
        let failed = AtomicBool::new(false);
        let device = TestDevice::sim().latency(true).on_page(move |op| {
            if op.write && fails(&op) && !failed.swap(true, Ordering::SeqCst) {
                return Err(Error::new(ErrorKind::WriteZero, "disk full").into());
            }
            Ok(())
        });
        let mut config = TwrsConfig::recommended(100);
        config.reverse_pages_per_file = 2;
        let input =
            Distribution::new(DistributionKind::Alternating { sections: 4 }, 8_000, 31).records();
        let job = SortJob::new(TwoWayReplacementSelection::new(config))
            .on(&device)
            .threads(threads);
        let result = if stream {
            job.stream_iter(input).map(drop)
        } else {
            job.run_iter(input, "out").map(drop)
        };
        let label = format!("stream {stream}, threads {threads}");
        match result {
            Err(SortError::Storage(StorageError::Io(e))) => {
                assert_eq!(e.kind(), ErrorKind::WriteZero, "{label}");
                assert_eq!(e.to_string(), "disk full", "{label}");
            }
            other => panic!("{label}: {other:?}"),
        }
        assert_eq!(device.list(), Vec::<String>::new(), "{label}");
    }
}

/// The first data page written to a part after the first.
fn a_later_parts_data_page(op: &PageOp<'_>) -> bool {
    op.page > 0 && part_index(op.file).is_some_and(|index| index >= 1)
}

/// A part's header page, written when the part closes.
fn a_parts_header_page(op: &PageOp<'_>) -> bool {
    op.page == 0 && part_index(op.file).is_some()
}

#[test]
fn a_failed_reverse_part_data_write_fails_a_file_sort() {
    a_failed_part_write_fails_the_sort(a_later_parts_data_page, false);
}

#[test]
fn a_failed_reverse_part_data_write_fails_a_stream_sort() {
    a_failed_part_write_fails_the_sort(a_later_parts_data_page, true);
}

#[test]
fn a_failed_reverse_part_header_write_fails_a_file_sort() {
    a_failed_part_write_fails_the_sort(a_parts_header_page, false);
}

#[test]
fn a_failed_reverse_part_header_write_fails_a_stream_sort() {
    a_failed_part_write_fails_the_sort(a_parts_header_page, true);
}
