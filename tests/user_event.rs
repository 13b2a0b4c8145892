//! "Bring your own record type": a 32-byte `UserEvent` record sorted
//! end-to-end through every run-generation algorithm, sequentially and in
//! parallel, via the `SortJob` front door.
//!
//! The pipeline is generic over `SortableRecord`; nothing in this test
//! mentions the default paper `Record`. The event record uses an 8-byte
//! string-prefix key (lexicographic), a timestamp and an opaque payload —
//! the kind of shape a log-ingestion workload would sort by user.

mod common;

use common::file_bytes;
use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::{FixedSizeRecord, SortableRecord};

/// A 32-byte event: 8-byte string-prefix key, 8-byte timestamp, 16-byte
/// opaque payload. Ordered by `(prefix, timestamp, payload)`, which is
/// total, so independently produced sorted outputs are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct UserEvent {
    prefix: [u8; 8],
    timestamp: u64,
    payload: [u8; 16],
}

impl UserEvent {
    fn new(user: &str, timestamp: u64, tag: u8) -> Self {
        let mut prefix = [0u8; 8];
        let bytes = user.as_bytes();
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        UserEvent {
            prefix,
            timestamp,
            payload: [tag; 16],
        }
    }
}

impl FixedSizeRecord for UserEvent {
    const SIZE: usize = 32;

    fn write_to(&self, buf: &mut [u8]) {
        buf[0..8].copy_from_slice(&self.prefix);
        buf[8..16].copy_from_slice(&self.timestamp.to_le_bytes());
        buf[16..32].copy_from_slice(&self.payload);
    }

    fn read_from(buf: &[u8]) -> Self {
        UserEvent {
            prefix: buf[0..8].try_into().expect("8 bytes"),
            timestamp: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            payload: buf[16..32].try_into().expect("16 bytes"),
        }
    }
}

impl SortableRecord for UserEvent {
    /// The cached-key hook: big-endian bytes of the prefix preserve
    /// lexicographic order, so the projection is monotone w.r.t. `Ord`.
    fn sort_key(&self) -> u64 {
        u64::from_be_bytes(self.prefix)
    }
}

/// A deterministic, decidedly unsorted event stream: user names cycle out
/// of phase with descending timestamps, so neither component arrives in
/// order.
fn events(n: u64) -> impl Iterator<Item = UserEvent> + Clone {
    (0..n).map(move |i| {
        let user = format!("user{:04}", i * 7919 % 997);
        UserEvent::new(&user, n - i, (i % 251) as u8)
    })
}

fn read_events(device: &SimDevice, name: &str) -> Vec<UserEvent> {
    RunReader::<UserEvent>::open(device, name)
        .expect("open output")
        .read_all()
        .expect("read output")
}

fn sort_and_check<G: ShardableGenerator>(label: &str, generator: G, threads: usize) -> Vec<u8> {
    const N: u64 = 8_000;
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let report = SortJob::new(generator)
        .on(&device)
        .threads(threads)
        .verify(true)
        .run_iter(events(N), "sorted")
        .unwrap_or_else(|e| panic!("{label} with {threads} thread(s) failed: {e}"));

    let context = format!("{label}, {threads} thread(s)");
    assert_eq!(report.report.records, N, "record count ({context})");
    assert_eq!(report.threads, threads, "threads echoed ({context})");
    assert_eq!(
        report.is_parallel(),
        threads > 1,
        "path selection ({context})"
    );
    assert!(report.io_is_consistent(), "io accounting ({context})");

    // Fully sorted and the exact input multiset.
    let output = read_events(&device, "sorted");
    assert!(
        output.windows(2).all(|w| w[0] <= w[1]),
        "output sorted ({context})"
    );
    let mut expected: Vec<UserEvent> = events(N).collect();
    expected.sort_unstable();
    assert_eq!(output, expected, "output multiset ({context})");

    // Return raw output bytes so callers can pin cross-engine identity.
    file_bytes(&device, "sorted")
}

#[test]
fn user_events_sort_through_every_generator_sequential_and_parallel() {
    for threads in [1, 4] {
        let rs = sort_and_check("RS", ReplacementSelection::new(300), threads);
        let lss = sort_and_check("LSS", LoadSortStore::new(300), threads);
        let twrs = sort_and_check(
            "2WRS",
            TwoWayReplacementSelection::new(TwrsConfig::recommended(300)),
            threads,
        );
        // All three engines produce the same file, byte for byte: the
        // total order on UserEvent leaves no freedom in the output.
        assert_eq!(rs, lss, "RS vs LSS bytes ({threads} threads)");
        assert_eq!(rs, twrs, "RS vs 2WRS bytes ({threads} threads)");
    }
}

#[test]
fn user_event_parallel_output_is_byte_identical_to_sequential() {
    let seq = sort_and_check("RS", ReplacementSelection::new(250), 1);
    let par = sort_and_check("RS", ReplacementSelection::new(250), 4);
    assert_eq!(seq, par, "RS: 1-thread vs 4-thread bytes");

    let seq = sort_and_check(
        "2WRS",
        TwoWayReplacementSelection::new(TwrsConfig::recommended(250)),
        1,
    );
    let par = sort_and_check(
        "2WRS",
        TwoWayReplacementSelection::new(TwrsConfig::recommended(250)),
        4,
    );
    assert_eq!(seq, par, "2WRS: 1-thread vs 4-thread bytes");
}

#[test]
fn user_events_round_trip_through_materialised_files() {
    // run_file_as: the on-disk path with an explicit record type.
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let mut writer =
        two_way_replacement_selection::storage::RunWriter::<UserEvent>::create(&device, "input")
            .expect("create input");
    for event in events(3_000) {
        writer.push(&event).expect("write event");
    }
    writer.finish().expect("finish input");

    let report = SortJob::new(LoadSortStore::new(200))
        .on(&device)
        .threads(2)
        .verify(true)
        .run_file_as::<UserEvent>("input", "sorted")
        .expect("sort succeeds");
    assert_eq!(report.report.records, 3_000);

    let output = read_events(&device, "sorted");
    let mut expected: Vec<UserEvent> = events(3_000).collect();
    expected.sort_unstable();
    assert_eq!(output, expected);
}

#[test]
fn user_event_sort_key_is_monotone() {
    // The contract the cached-key hook must satisfy, checked on the
    // lexicographic prefix: a <= b implies sort_key(a) <= sort_key(b).
    let mut sample: Vec<UserEvent> = events(2_000).collect();
    sample.sort_unstable();
    assert!(sample
        .windows(2)
        .all(|w| w[0].sort_key() <= w[1].sort_key()));
}
