//! The merge's read-ahead limits and its prefetch failure path.
//!
//! * A read-ahead of `usize::MAX` records sorts correctly at one and two
//!   threads, through `run_iter` and a drained `stream_iter`, and does
//!   exactly the I/O of a read-ahead larger than every run: each buffer is
//!   sized by the run it reads, not by the read-ahead.
//! * A prefetch thread that dies mid-run makes the stream return an `Err`
//!   instead of silently ending early. Prefetch threads run only on a
//!   device with wall-clock latency, so the failing device claims some.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use two_way_replacement_selection::prelude::*;
use twrs_extsort::SortError;
use twrs_storage::{IoStats, PageFile};

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
        RunCursor::<Record>::open(&device, &RunHandle::Forward("out".into()))
            .and_then(|mut cursor| cursor.read_all())
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

/// A simulated disk whose page reads panic once it is armed. It claims
/// wall-clock latency, so a threaded sort reads its merge inputs through
/// prefetch threads.
#[derive(Clone)]
struct FailingReads {
    inner: SimDevice,
    armed: Arc<AtomicBool>,
}

struct FailingFile {
    inner: Box<dyn PageFile>,
    armed: Arc<AtomicBool>,
}

impl PageFile for FailingFile {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, index: u64, buf: &mut [u8]) -> twrs_storage::Result<()> {
        assert!(!self.armed.load(Ordering::SeqCst), "injected read failure");
        self.inner.read_page(index, buf)
    }

    fn write_page(&mut self, index: u64, data: &[u8]) -> twrs_storage::Result<()> {
        self.inner.write_page(index, data)
    }

    fn flush(&mut self) -> twrs_storage::Result<()> {
        self.inner.flush()
    }
}

impl FailingReads {
    fn wrap(&self, inner: Box<dyn PageFile>) -> Box<dyn PageFile> {
        Box::new(FailingFile {
            inner,
            armed: Arc::clone(&self.armed),
        })
    }
}

impl StorageDevice for FailingReads {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        Ok(self.wrap(self.inner.create(name)?))
    }

    fn open(&self, name: &str) -> twrs_storage::Result<Box<dyn PageFile>> {
        Ok(self.wrap(self.inner.open(name)?))
    }

    fn remove(&self, name: &str) -> twrs_storage::Result<()> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn io_stats(&self) -> &IoStats {
        self.inner.io_stats()
    }

    fn has_wall_clock_latency(&self) -> bool {
        true
    }
}

#[test]
fn a_prefetch_thread_dying_mid_run_surfaces_as_an_error() {
    let device = FailingReads {
        inner: SimDevice::with_model(ModelId::Hdd7200),
        armed: Arc::new(AtomicBool::new(false)),
    };
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
    device.armed.store(true, Ordering::SeqCst);
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
