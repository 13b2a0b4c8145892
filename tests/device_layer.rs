//! Device wrappers: each answers like the two-disk stripe it wraps (a
//! scope keeps statistics of its own), and a spill write that fails on the
//! writer thread surfaces as the device's own error.

mod common;

use common::TestDevice;
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
