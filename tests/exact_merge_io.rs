//! Pins the exact I/O of whole sorts through the public API: the run count
//! and, for the complete sort, the pages read, pages written, seeks and
//! simulated nanoseconds on `sim:hdd-7200`.
//!
//! The merge reads every run through a read-ahead buffer, so the order of
//! its page reads — and with it every seek and simulated nanosecond —
//! depends on when each buffer is refilled. The cases cover read-aheads
//! below, equal to, just above and far above one page (256 `Record`s),
//! fan-ins 3 and 10, forward runs, runs that end exactly on a page
//! boundary, and 2WRS chains whose reverse streams spread over several
//! part files. Each sort runs at one thread, once through `run_iter` and
//! once through a fully drained `stream_iter`; a change to how runs are
//! encoded, decoded or merged must leave every figure here unchanged.

use two_way_replacement_selection::prelude::*;

/// Records per sort; small enough for a debug build, large enough for
/// several merge passes at fan-in 3.
const RECORDS: u64 = 12_000;
/// Read-aheads around one 4 KiB page of 16-byte records (256 of them).
const READ_AHEADS: [usize; 6] = [1, 100, 256, 257, 1_000, 5_000];
const FAN_INS: [usize; 2] = [3, 10];

/// The run-generation set-ups under test.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// RS over random input: forward runs of about twice the memory.
    RsRandom,
    /// RS over reverse-sorted input with a one-page heap: every run holds
    /// exactly 256 records, so each ends on a page boundary.
    RsPageAligned,
    /// 2WRS over alternating input with three-page reverse part files:
    /// eight runs, each a chain whose decreasing stream spans several part
    /// files.
    TwrsChains,
}

/// What one sort did to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Io {
    pages_read: u64,
    pages_written: u64,
    seeks: u64,
    sim_io_ns: u64,
}

fn io_of(device: &SimDevice) -> Io {
    let snap = device.stats();
    Io {
        pages_read: snap.counters.pages_read,
        pages_written: snap.counters.pages_written,
        seeks: snap.counters.seeks,
        sim_io_ns: u64::try_from(snap.sim_io.as_nanos()).expect("fits in u64"),
    }
}

fn input(case: Case) -> Vec<Record> {
    let kind = match case {
        Case::RsRandom => DistributionKind::RandomUniform,
        Case::RsPageAligned => DistributionKind::ReverseSorted,
        Case::TwrsChains => DistributionKind::Alternating { sections: 8 },
    };
    Distribution::new(kind, RECORDS, 42).collect()
}

/// Sorts `case` once through `run_iter` and once through a drained
/// `stream_iter`, each on a fresh device; returns the run count and both
/// devices' I/O.
fn sort(case: Case, fan_in: usize, read_ahead: usize) -> (usize, Io, Io) {
    let merge = MergeConfig {
        fan_in,
        read_ahead_records: read_ahead,
    };
    let file_device = SimDevice::with_model(ModelId::Hdd7200);
    let stream_device = SimDevice::with_model(ModelId::Hdd7200);
    let (runs, streamed) = match case {
        Case::RsRandom | Case::RsPageAligned => {
            let memory = match case {
                Case::RsRandom => 500,
                _ => 256,
            };
            let report = SortJob::new(ReplacementSelection::new(memory))
                .on(&file_device)
                .merge(merge)
                .run_iter(input(case).into_iter(), "out")
                .expect("file sort runs");
            let stream = SortJob::new(ReplacementSelection::new(memory))
                .on(&stream_device)
                .merge(merge)
                .stream_iter(input(case).into_iter())
                .expect("stream sort runs");
            (report.num_runs(), drain(stream))
        }
        Case::TwrsChains => {
            let config = twrs_chains_config();
            let report = SortJob::new(TwoWayReplacementSelection::new(config))
                .on(&file_device)
                .merge(merge)
                .run_iter(input(case).into_iter(), "out")
                .expect("file sort runs");
            let stream = SortJob::new(TwoWayReplacementSelection::new(config))
                .on(&stream_device)
                .merge(merge)
                .stream_iter(input(case).into_iter())
                .expect("stream sort runs");
            (report.num_runs(), drain(stream))
        }
    };
    assert_eq!(streamed.len() as u64, RECORDS, "{case:?}");
    assert!(streamed.windows(2).all(|w| w[0] <= w[1]), "{case:?}");
    (runs, io_of(&file_device), io_of(&stream_device))
}

/// 2WRS with three-page reverse part files (two data pages each).
fn twrs_chains_config() -> TwrsConfig {
    TwrsConfig {
        reverse_pages_per_file: 3,
        ..TwrsConfig::recommended(300)
    }
}

fn drain(stream: SortedStream<Record>) -> Vec<Record> {
    stream
        .collect::<Result<_, _>>()
        .expect("stream yields no errors")
}

/// One pinned configuration: `(fan_in, read_ahead, runs, run_iter I/O,
/// stream_iter I/O)`, each I/O as `[pages_read, pages_written, seeks,
/// sim_io_ns]`.
type Row = (usize, usize, usize, [u64; 4], [u64; 4]);

fn io(v: [u64; 4]) -> Io {
    Io {
        pages_read: v[0],
        pages_written: v[1],
        seeks: v[2],
        sim_io_ns: v[3],
    }
}

/// Runs every fan-in × read-ahead configuration of `case` and compares it
/// with `expected`, reporting all mismatches at once as ready-to-paste
/// rows.
fn check(case: Case, expected: &[Row]) {
    let mut actual = Vec::new();
    for fan_in in FAN_INS {
        for read_ahead in READ_AHEADS {
            let (runs, file, stream) = sort(case, fan_in, read_ahead);
            actual.push((fan_in, read_ahead, runs, file, stream));
        }
    }
    let render = |(fan_in, read_ahead, runs, f, s): &(usize, usize, usize, Io, Io)| {
        format!(
            "({fan_in}, {read_ahead}, {runs}, [{}, {}, {}, {}], [{}, {}, {}, {}]),",
            f.pages_read,
            f.pages_written,
            f.seeks,
            f.sim_io_ns,
            s.pages_read,
            s.pages_written,
            s.seeks,
            s.sim_io_ns
        )
    };
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| (a.0, a.1, a.2, a.3, a.4) == (e.0, e.1, e.2, io(e.3), io(e.4)));
    assert!(
        matches,
        "{case:?}: I/O differs from the pinned rows; actual:\n{}",
        actual.iter().map(render).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn rs_forward_runs_pin_exact_io() {
    check(
        Case::RsRandom,
        &[
            (
                3,
                1,
                13,
                [139, 206, 121, 1493450000],
                [139, 157, 121, 1491000000],
            ),
            (
                3,
                100,
                13,
                [139, 206, 118, 1456850000],
                [139, 157, 118, 1454400000],
            ),
            (
                3,
                256,
                13,
                [139, 206, 121, 1493450000],
                [139, 157, 121, 1491000000],
            ),
            (
                3,
                257,
                13,
                [139, 206, 104, 1286050000],
                [139, 157, 104, 1283600000],
            ),
            (
                3,
                1000,
                13,
                [139, 206, 45, 566250000],
                [139, 157, 45, 563800000],
            ),
            (
                3,
                5000,
                13,
                [139, 206, 36, 456450000],
                [139, 157, 36, 454000000],
            ),
            (
                10,
                1,
                13,
                [102, 165, 70, 867350000],
                [102, 116, 70, 864900000],
            ),
            (
                10,
                100,
                13,
                [102, 165, 69, 855150000],
                [102, 116, 69, 852700000],
            ),
            (
                10,
                256,
                13,
                [102, 165, 70, 867350000],
                [102, 116, 70, 864900000],
            ),
            (
                10,
                257,
                13,
                [102, 165, 56, 696550000],
                [102, 116, 56, 694100000],
            ),
            (
                10,
                1000,
                13,
                [102, 165, 28, 354950000],
                [102, 116, 28, 352500000],
            ),
            (
                10,
                5000,
                13,
                [102, 165, 28, 354950000],
                [102, 116, 28, 352500000],
            ),
        ],
    );
}

#[test]
fn rs_page_aligned_runs_pin_exact_io() {
    check(
        Case::RsPageAligned,
        &[
            (
                3,
                1,
                47,
                [240, 358, 155, 1920900000],
                [240, 309, 155, 1918450000],
            ),
            (
                3,
                100,
                47,
                [240, 358, 155, 1920900000],
                [240, 309, 155, 1918450000],
            ),
            (
                3,
                256,
                47,
                [240, 358, 155, 1920900000],
                [240, 309, 155, 1918450000],
            ),
            (
                3,
                257,
                47,
                [240, 358, 155, 1920900000],
                [240, 309, 155, 1918450000],
            ),
            (
                3,
                1000,
                47,
                [240, 358, 143, 1774500000],
                [240, 309, 143, 1772050000],
            ),
            (
                3,
                5000,
                47,
                [240, 358, 138, 1713500000],
                [240, 309, 138, 1711050000],
            ),
            (
                10,
                1,
                47,
                [176, 277, 108, 1340250000],
                [176, 228, 108, 1337800000],
            ),
            (
                10,
                100,
                47,
                [176, 277, 108, 1340250000],
                [176, 228, 108, 1337800000],
            ),
            (
                10,
                256,
                47,
                [176, 277, 108, 1340250000],
                [176, 228, 108, 1337800000],
            ),
            (
                10,
                257,
                47,
                [176, 277, 108, 1340250000],
                [176, 228, 108, 1337800000],
            ),
            (
                10,
                1000,
                47,
                [176, 277, 108, 1340250000],
                [176, 228, 108, 1337800000],
            ),
            (
                10,
                5000,
                47,
                [176, 277, 104, 1291450000],
                [176, 228, 104, 1289000000],
            ),
        ],
    );
}

#[test]
fn twrs_chains_over_reverse_part_files_pin_exact_io() {
    // The case covers what it claims: its runs are chains, and some
    // decreasing stream spans at least three part files.
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("probe");
    let set = TwoWayReplacementSelection::new(twrs_chains_config())
        .generate(&device, &namer, &mut input(Case::TwrsChains).into_iter())
        .expect("run generation succeeds");
    assert!(set.runs.iter().all(|r| matches!(r, RunHandle::Chain(_))));
    assert!(device.list().iter().any(|name| name.ends_with(".part2")));

    check(
        Case::TwrsChains,
        &[
            (
                3,
                1,
                8,
                [149, 209, 129, 1591700000],
                [149, 160, 129, 1589250000],
            ),
            (
                3,
                100,
                8,
                [149, 209, 125, 1542900000],
                [149, 160, 125, 1540450000],
            ),
            (
                3,
                256,
                8,
                [149, 209, 124, 1530700000],
                [149, 160, 124, 1528250000],
            ),
            (
                3,
                257,
                8,
                [149, 209, 122, 1506300000],
                [149, 160, 122, 1503850000],
            ),
            (
                3,
                1000,
                8,
                [149, 209, 70, 871900000],
                [149, 160, 70, 869450000],
            ),
            (
                3,
                5000,
                8,
                [149, 209, 54, 676700000],
                [149, 160, 54, 674250000],
            ),
            (10, 1, 8, [79, 136, 79, 974550000], [79, 87, 79, 972100000]),
            (
                10,
                100,
                8,
                [79, 136, 76, 937950000],
                [79, 87, 76, 935500000],
            ),
            (
                10,
                256,
                8,
                [79, 136, 76, 937950000],
                [79, 87, 76, 935500000],
            ),
            (
                10,
                257,
                8,
                [79, 136, 76, 937950000],
                [79, 87, 76, 935500000],
            ),
            (
                10,
                1000,
                8,
                [79, 136, 55, 681750000],
                [79, 87, 55, 679300000],
            ),
            (
                10,
                5000,
                8,
                [79, 136, 48, 596350000],
                [79, 87, 48, 593900000],
            ),
        ],
    );
}
