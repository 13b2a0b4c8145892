//! Pins the simulated I/O time, to the nanosecond, that every catalog model
//! charges for one fixed page-access sequence — once on a plain simulated
//! disk and once on a two-disk stripe with two admitted I/O clients.
//!
//! The other cost tests check ratios and orderings; this one fixes the
//! exact float arithmetic (transfer, then seek, then rotational latency,
//! then the fair-share multiplier, truncated to whole nanoseconds per
//! access), so a refactor of the cost model cannot move a single
//! nanosecond unnoticed.

use std::time::Duration;
use twrs_storage::{AnyDevice, IoStatsSnapshot, ModelId, SimDevice, StorageDevice, StripedDevice};

/// Replays the sequence and returns the device totals.
///
/// Files `a` and `b` get three pages each; on a stripe they land on
/// members 0 and 1 (round-robin). The reads then cover a cold read, a
/// sequential read, a file switch, a jump within a file, a return to the
/// first file, and a write between two reads of one file.
fn replay(device: &impl StorageDevice) -> IoStatsSnapshot {
    let page = vec![7u8; device.page_size()];
    let mut buf = vec![0u8; device.page_size()];
    let mut wa = device.create("a").unwrap();
    let mut wb = device.create("b").unwrap();
    for i in 0..3 {
        wa.write_page(i, &page).unwrap();
    }
    for i in 0..3 {
        wb.write_page(i, &page).unwrap();
    }
    let mut ra = device.open("a").unwrap();
    let mut rb = device.open("b").unwrap();
    ra.read_page(0, &mut buf).unwrap(); // cold read: seek
    ra.read_page(1, &mut buf).unwrap(); // sequential
    rb.read_page(0, &mut buf).unwrap(); // file switch (a cold member on a stripe)
    rb.read_page(2, &mut buf).unwrap(); // jump within the file: seek
    ra.read_page(2, &mut buf).unwrap(); // back to `a`: seek alone, sequential on a stripe
    wa.write_page(3, &page).unwrap(); // writes never move the read head
    ra.read_page(3, &mut buf).unwrap(); // sequential
    device.stats()
}

#[test]
fn every_model_charges_exact_nanoseconds_alone() {
    // 7 writes + 2 sequential reads pay the transfer; 4 reads also seek.
    let expected_ns = [
        (ModelId::Hdd7200, 49_450_000),
        (ModelId::SataSsd, 464_000),
        (ModelId::Nvme, 56_250),
        (ModelId::Pmem, 1_850),
    ];
    for (model, ns) in expected_ns {
        let snap = replay(&SimDevice::with_model(model));
        assert_eq!(snap.counters.pages_written, 7, "{model}");
        assert_eq!(snap.counters.pages_read, 6, "{model}");
        assert_eq!(snap.counters.seeks, 4, "{model}");
        assert_eq!(snap.sim_io, Duration::from_nanos(ns), "{model}");
    }
}

#[test]
fn every_model_charges_exact_nanoseconds_on_a_stripe_with_two_clients() {
    // Each member keeps its own head, so the return to `a` is sequential:
    // 7 writes + 3 sequential reads pay the transfer, 3 reads also seek,
    // and two admitted clients double every access.
    let expected_ns = [
        (ModelId::Hdd7200, 74_500_000),
        (ModelId::SataSsd, 748_000),
        (ModelId::Nvme, 92_500),
        (ModelId::Pmem, 3_100),
    ];
    for (model, ns) in expected_ns {
        let members = (0..2)
            .map(|_| AnyDevice::Sim(SimDevice::with_model(model)))
            .collect();
        let stripe = StripedDevice::new(members).unwrap();
        let _first = stripe.attach_io_client().expect("stripes admit clients");
        let _second = stripe.attach_io_client().expect("stripes admit clients");
        let snap = replay(&stripe);
        assert_eq!(snap.counters.pages_written, 7, "{model}");
        assert_eq!(snap.counters.pages_read, 6, "{model}");
        assert_eq!(snap.counters.seeks, 3, "{model}");
        assert_eq!(snap.sim_io, Duration::from_nanos(ns), "{model}");
    }
}
