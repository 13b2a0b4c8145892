//! The merge's read-ahead limits and its read failure paths.
//!
//! * A read-ahead of `usize::MAX` records sorts correctly at one and two
//!   threads, through `run_iter` and a drained `stream_iter`, and does
//!   exactly the I/O of a read-ahead larger than every run: each buffer is
//!   sized by the run it reads, not by the read-ahead.
//! * A prefetch thread that dies mid-run makes the stream return an `Err`
//!   instead of silently ending early. Prefetch threads run only on a
//!   device with wall-clock latency, so the failing device claims some.
//! * A merge input whose page fails to read inline — in an intermediate
//!   step, a stripe member's reducer or the final pass — fails a file, a
//!   sink and a stream sort with the storage error and leaves nothing on
//!   the device.

mod common;

use common::TestDevice;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use two_way_replacement_selection::prelude::*;
use twrs_extsort::SortError;
use twrs_storage::StorageError;

const RECORDS: u64 = 5_000;

fn input() -> Vec<Record> {
    Distribution::new(DistributionKind::RandomUniform, RECORDS, 11).collect()
}

/// Threads 1 run on one simulated disk; threads 2 on a two-disk stripe,
/// where each disk's read order — and so every counter — is deterministic.
fn device(threads: usize) -> AnyDevice {
    match threads {
        1 => AnyDevice::Sim(SimDevice::with_model(ModelId::Hdd7200)),
        _ => "striped:2:sim:hdd-7200"
            .parse::<DeviceSpec>()
            .expect("valid spec")
            .build()
            .expect("stripe builds"),
    }
}

/// Sorts the input with `read_ahead` through `run_iter` (`stream = false`)
/// or a drained `stream_iter`, and returns the sorted records with the
/// device's pages read, pages written, seeks and simulated nanoseconds.
fn sort(read_ahead: usize, threads: usize, stream: bool) -> (Vec<Record>, [u128; 4]) {
    let device = device(threads);
    let job = SortJob::new(ReplacementSelection::new(200))
        .on(&device)
        .threads(threads)
        .merge(MergeConfig {
            fan_in: 4,
            read_ahead_records: read_ahead,
        });
    let records = if stream {
        job.stream_iter(input().into_iter())
            .expect("stream sort runs")
            .collect::<Result<Vec<_>, _>>()
            .expect("stream yields no errors")
    } else {
        job.run_iter(input().into_iter(), "out")
            .expect("file sort runs");
        RunReader::<Record>::open(&device, "out")
            .and_then(|mut reader| reader.read_all())
            .expect("output readable")
    };
    let snap = device.stats();
    let counters = [
        u128::from(snap.counters.pages_read),
        u128::from(snap.counters.pages_written),
        u128::from(snap.counters.seeks),
        snap.sim_io.as_nanos(),
    ];
    (records, counters)
}

#[test]
fn unbounded_read_ahead_sorts_like_one_larger_than_every_run() {
    let mut expected = input();
    expected.sort_unstable();
    for threads in [1, 2] {
        for stream in [false, true] {
            let label = format!("threads {threads}, stream {stream}");
            let (records, unbounded) = sort(usize::MAX, threads, stream);
            assert_eq!(records, expected, "{label}");
            // Every run is far shorter than the whole input.
            let (_, larger) = sort(RECORDS as usize, threads, stream);
            assert_eq!(unbounded, larger, "{label}");
        }
    }
}

#[test]
fn a_prefetch_thread_dying_mid_run_surfaces_as_an_error() {
    // A simulated disk whose page reads panic once it is armed. It claims
    // wall-clock latency, so a threaded sort reads its merge inputs through
    // prefetch threads.
    let armed = Arc::new(AtomicBool::new(false));
    let fault = Arc::clone(&armed);
    let device = TestDevice::sim().latency(true).on_page(move |op| {
        assert!(
            op.write || !fault.load(Ordering::SeqCst),
            "injected read failure"
        );
        Ok(())
    });
    // About ten runs of eight pages each meet in one final pass; with a
    // 16-record read-ahead every prefetch thread still has pages to read
    // once the stream is handed over.
    let input = Distribution::new(DistributionKind::RandomUniform, 20_000, 11).records();
    let stream = SortJob::new(ReplacementSelection::new(2_000))
        .on(&device)
        .threads(2)
        .merge(MergeConfig {
            fan_in: 16,
            read_ahead_records: 16,
        })
        .stream_iter(input)
        .expect("stream sort runs");
    armed.store(true, Ordering::SeqCst);
    let items: Vec<_> = stream.collect();
    let delivered = items.iter().filter(|item| item.is_ok()).count();
    assert!(
        matches!(items.last(), Some(Err(SortError::JobPanicked(_)))),
        "the stream must end with the worker's failure, not quietly \
         after {delivered} records"
    );
    assert!(delivered < 20_000);
    assert_eq!(
        device.list(),
        Vec::<String>::new(),
        "the failed stream removes its spill files"
    );
}

/// Where a merge input's page read fails.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The second data page of a generated run, read by a refill of the
    /// first intermediate step, or of a stripe member's reducer.
    Intermediate,
    /// Every read once the final pass has armed the fault: with its first
    /// output page for a file, its first record for a sink, and after
    /// `stream_iter` returns for a stream.
    Final,
}

/// The disk of [`device`] whose merge inputs fail to read as `fault` says.
fn failing_merge_device(
    threads: usize,
    fault: Fault,
    armed: &Arc<AtomicBool>,
) -> TestDevice<AnyDevice> {
    let armed = Arc::clone(armed);
    TestDevice::new(device(threads)).on_page(move |op| {
        if op.write {
            if op.file == "out" && op.page > 0 {
                armed.store(true, Ordering::SeqCst);
            }
            return Ok(());
        }
        let fails = match fault {
            Fault::Intermediate => op.file.contains(".run.") && op.page == 2,
            Fault::Final => armed.load(Ordering::SeqCst),
        };
        if fails {
            return Err(StorageError::Io(std::io::Error::other(
                "injected merge read failure",
            )));
        }
        Ok(())
    })
}

#[test]
fn a_merge_input_failing_to_read_inline_fails_every_output() {
    // About 21 runs of RS at a 500-record budget: at fan-in 10 two
    // intermediate steps read generated runs only, and at two threads each
    // stripe member's reducer merges its shard's runs into one.
    let input = || Distribution::new(DistributionKind::RandomUniform, 20_000, 11).records();
    for threads in [1, 2] {
        for fault in [Fault::Intermediate, Fault::Final] {
            let label = format!("threads {threads}, {fault:?} fault");
            let armed = Arc::new(AtomicBool::new(false));
            let device = failing_merge_device(threads, fault, &armed);
            let job = || {
                SortJob::new(ReplacementSelection::new(500))
                    .on(&device)
                    .threads(threads)
            };

            let file = job().run_iter(input(), "out");
            assert!(
                matches!(file, Err(SortError::Storage(_))),
                "run_iter, {label}: got {file:?}"
            );
            assert_eq!(device.list(), Vec::<String>::new(), "run_iter, {label}");

            armed.store(false, Ordering::SeqCst);
            let first_record = Arc::clone(&armed);
            let mut sink = CallbackSink::new(move |_: Record| {
                first_record.store(true, Ordering::SeqCst);
                Ok(())
            });
            let sunk = job().sink_iter(input(), &mut sink);
            assert!(
                matches!(sunk, Err(SortError::Storage(_))),
                "sink_iter, {label}: got {sunk:?}"
            );
            assert_eq!(device.list(), Vec::<String>::new(), "sink_iter, {label}");

            armed.store(false, Ordering::SeqCst);
            let stream = job().stream_iter(input());
            if let Fault::Final = fault {
                let mut stream = stream.expect("the final pass is suspended unharmed");
                armed.store(true, Ordering::SeqCst);
                let items: Vec<_> = stream.by_ref().collect();
                let delivered = items.iter().take_while(|item| item.is_ok()).count();
                assert!(delivered > 0, "stream, {label}");
                assert_eq!(items.len(), delivered + 1, "stream, {label}: one error");
                assert!(
                    matches!(items.last(), Some(Err(SortError::Storage(_)))),
                    "stream, {label}: ends with the read error"
                );
                assert!(stream.next().is_none(), "stream, {label}: then nothing");
            } else {
                assert!(
                    matches!(stream, Err(SortError::Storage(_))),
                    "stream_iter, {label}: got {stream:?}"
                );
            }
            assert_eq!(device.list(), Vec::<String>::new(), "stream, {label}");
        }
    }
}
