//! Pins the exact I/O of threaded sorts through the public API: the run
//! count, every shard's records, runs and pages written, and every stripe
//! member's pages read, pages written, seeks and simulated nanoseconds.
//!
//! A threaded sort hands records, spill pages and read-ahead batches
//! between threads, so the moment a page reaches the device depends on the
//! scheduler. On a stripe every member's figures are still deterministic:
//! each shard spills to its own member (writes never move the head), one
//! reducer per member folds that member's runs into one, and the final
//! pass reads at most one run per member. The cases cover RS, LSS and 2WRS
//! at threads 2, 3 and 4 on two- and four-disk stripes of `hdd-7200`, so
//! members hold the runs of zero, one or two shards. On a plain simulated
//! device the sort starts no spill-writer or prefetch thread (its I/O
//! costs no wall-clock time), so its one head has one reader at a time
//! and its figures are as deterministic as a stripe member's; the cases
//! there cover the three generators at threads 4. Each configuration
//! runs through `run_iter`, a fully drained `stream_iter` and `sink_iter`,
//! each on a fresh device; a change to how the threads of a sort exchange
//! work must leave every figure here unchanged. The figures pin the
//! planned merge tree of every reducer and final pass, which merges the
//! shortest runs first (see `twrs_extsort::merge::kway`), as it stands
//! since the tree replaced a first-in-first-out queue of runs.

use two_way_replacement_selection::prelude::*;
use two_way_replacement_selection::storage::IoStatsSnapshot;

/// Records per sort; small enough for a debug build, large enough for
/// several reduction passes per member at fan-in 4.
const RECORDS: u64 = 12_000;
/// Total memory budget in records, divided over the shards.
const MEMORY: usize = 600;
const THREADS: [usize; 3] = [2, 3, 4];

fn merge() -> MergeConfig {
    MergeConfig {
        fan_in: 4,
        read_ahead_records: 100,
    }
}

/// The run-generation algorithms under test, each on its own input.
#[derive(Debug, Clone, Copy)]
enum Gen {
    /// RS over random input.
    Rs,
    /// Load-Sort-Store over random input.
    Lss,
    /// 2WRS over mixed input: runs are chains with reverse part files.
    Twrs,
}

fn input(gen: Gen) -> Vec<Record> {
    let kind = match gen {
        Gen::Rs | Gen::Lss => DistributionKind::RandomUniform,
        Gen::Twrs => DistributionKind::MixedBalanced,
    };
    Distribution::new(kind, RECORDS, 23).collect()
}

/// How the sorted records leave the pipeline.
#[derive(Debug, Clone, Copy)]
enum Out {
    File,
    Stream,
    Sink,
}

const OUTS: [Out; 3] = [Out::File, Out::Stream, Out::Sink];

/// A sort's report, its device's I/O right after the sort ([`device_io`])
/// and the sorted records.
type Sorted = (SortJobReport, Vec<[u64; 4]>, Vec<Record>);

/// Sorts `gen`'s input with `threads` threads into `out` on `device`.
fn sort(gen: Gen, threads: usize, out: Out, device: &AnyDevice) -> Sorted {
    match gen {
        Gen::Rs => sort_with(ReplacementSelection::new(MEMORY), gen, threads, out, device),
        Gen::Lss => sort_with(LoadSortStore::new(MEMORY), gen, threads, out, device),
        Gen::Twrs => sort_with(
            TwoWayReplacementSelection::new(TwrsConfig::recommended(MEMORY)),
            gen,
            threads,
            out,
            device,
        ),
    }
}

fn sort_with<G: ShardableGenerator>(
    generator: G,
    gen: Gen,
    threads: usize,
    out: Out,
    device: &AnyDevice,
) -> Sorted {
    let job = SortJob::new(generator)
        .on(device)
        .threads(threads)
        .merge(merge());
    let records = input(gen).into_iter();
    match out {
        Out::File => {
            let report = job.run_iter(records, "out").expect("file sort runs");
            // Taken before the output is read back for the comparison.
            let io = device_io(device);
            let sorted = RunReader::<Record>::open(device, "out")
                .and_then(|mut reader| reader.read_all())
                .expect("output readable");
            device.remove("out").expect("output removable");
            (report, io, sorted)
        }
        Out::Stream => {
            let stream = job.stream_iter(records).expect("stream sort runs");
            let report = stream.report().clone();
            let sorted = stream
                .collect::<Result<_, _>>()
                .expect("stream yields no errors");
            (report, device_io(device), sorted)
        }
        Out::Sink => {
            let mut sink = VecSink::new();
            let report = job.sink_iter(records, &mut sink).expect("sink sort runs");
            (report, device_io(device), sink.into_vec())
        }
    }
}

/// `[pages_read, pages_written, seeks, sim_io_ns]` of one member.
fn member_io(snap: &IoStatsSnapshot) -> [u64; 4] {
    [
        snap.counters.pages_read,
        snap.counters.pages_written,
        snap.counters.seeks,
        u64::try_from(snap.sim_io.as_nanos()).expect("fits in u64"),
    ]
}

/// Per stripe member, [`member_io`]; on a plain device, one "member".
fn device_io(device: &AnyDevice) -> Vec<[u64; 4]> {
    match device.as_striped() {
        Some(stripe) => stripe.member_stats().iter().map(member_io).collect(),
        None => vec![member_io(&device.stats())],
    }
}

/// What one threaded sort did, in the shape of the pinned rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Actual {
    threads: usize,
    runs: usize,
    /// Per shard: records, runs and pages written.
    shards: Vec<[u64; 3]>,
    /// Per output kind: [`device_io`].
    io: Vec<Vec<[u64; 4]>>,
}

/// Sorts `gen` at every thread count on fresh devices built from `spec`,
/// through every output kind.
fn measure(gen: Gen, spec: &str, threads: &[usize]) -> Vec<Actual> {
    let mut expected = input(gen);
    expected.sort();
    threads
        .iter()
        .map(|&threads| {
            let mut runs_and_shards = None;
            let mut io = Vec::new();
            for out in OUTS {
                let device = spec
                    .parse::<DeviceSpec>()
                    .and_then(|s| s.build())
                    .expect("device spec builds");
                let (report, device_io, sorted) = sort(gen, threads, out, &device);
                let context = format!("{gen:?} on {spec} at {threads} threads, {out:?}");
                assert!(sorted == expected, "{context}: output differs");
                assert!(device.list().is_empty(), "{context}: files left behind");
                assert!(report.io_is_consistent(), "{context}");
                let shards: Vec<[u64; 3]> = report
                    .shards
                    .as_deref()
                    .expect("a threaded sort reports its shards")
                    .iter()
                    .map(|s| [s.records, s.num_runs as u64, s.io.counters.pages_written])
                    .collect();
                let these = (report.num_runs(), shards);
                match &runs_and_shards {
                    None => runs_and_shards = Some(these),
                    Some(first) => {
                        assert_eq!(&these, first, "{context}: generation differs by output")
                    }
                }
                io.push(device_io);
            }
            let (runs, shards) = runs_and_shards.expect("at least one output kind");
            Actual {
                threads,
                runs,
                shards,
                io,
            }
        })
        .collect()
}

/// One pinned configuration at `threads` threads.
struct Pin {
    threads: usize,
    runs: usize,
    /// Per shard: records, runs and pages written.
    shards: &'static [[u64; 3]],
    /// Per member, for `run_iter`, `stream_iter` and `sink_iter` in that
    /// order: pages read, pages written, seeks and simulated ns.
    io: [&'static [[u64; 4]]; 3],
}

/// Compares `actual` with `expected`, reporting all mismatches at once as
/// ready-to-paste rows.
fn check(label: &str, actual: &[Actual], expected: &[Pin]) {
    let matches = actual.len() == expected.len()
        && actual.iter().zip(expected).all(|(a, e)| {
            a.threads == e.threads
                && a.runs == e.runs
                && a.shards == e.shards
                && a.io.iter().zip(&e.io).all(|(a, e)| a == e)
        });
    let render = |a: &Actual| {
        let rows = |rows: &[[u64; 4]]| {
            let rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            format!("&[{}]", rows.join(", "))
        };
        let io: Vec<String> = a.io.iter().map(|m| rows(m)).collect();
        let shards: Vec<String> = a.shards.iter().map(|s| format!("{s:?}")).collect();
        format!(
            "Pin {{ threads: {}, runs: {}, shards: &[{}], io: [{}] }},",
            a.threads,
            a.runs,
            shards.join(", "),
            io.join(", ")
        )
    };
    assert!(
        matches,
        "{label}: I/O differs from the pinned rows; actual:\n{}",
        actual.iter().map(render).collect::<Vec<_>>().join("\n")
    );
}

const STRIPE_2: &str = "striped:2:sim:hdd-7200";
const STRIPE_4: &str = "striped:4:sim:hdd-7200";

#[test]
fn rs_on_two_disks_pins_exact_io() {
    check(
        "RS, 2 disks",
        &measure(Gen::Rs, STRIPE_2, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 22,
                shards: &[[6112, 11, 53], [5888, 11, 52]],
                io: [
                    &[[93, 157, 67, 829900000], [90, 105, 63, 778350000]],
                    &[[93, 108, 67, 827450000], [90, 105, 63, 778350000]],
                    &[[93, 108, 67, 827450000], [90, 105, 63, 778350000]],
                ],
            },
            Pin {
                threads: 3,
                runs: 33,
                shards: &[[4096, 11, 43], [4064, 11, 43], [3840, 11, 43]],
                io: [
                    &[[145, 223, 107, 1323800000], [67, 82, 50, 617450000]],
                    &[[145, 174, 107, 1321350000], [67, 82, 50, 617450000]],
                    &[[145, 174, 107, 1321350000], [67, 82, 50, 617450000]],
                ],
            },
            Pin {
                threads: 4,
                runs: 43,
                shards: &[
                    [3072, 11, 43],
                    [3072, 11, 42],
                    [3040, 11, 43],
                    [2816, 10, 39],
                ],
                io: [
                    &[[128, 206, 98, 1212300000], [121, 149, 92, 1135900000]],
                    &[[128, 157, 98, 1209850000], [121, 149, 92, 1135900000]],
                    &[[128, 157, 98, 1209850000], [121, 149, 92, 1135900000]],
                ],
            },
        ],
    );
}

#[test]
fn rs_on_four_disks_pins_exact_io() {
    check(
        "RS, 4 disks",
        &measure(Gen::Rs, STRIPE_4, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 22,
                shards: &[[6112, 11, 53], [5888, 11, 52]],
                io: [
                    &[
                        [93, 157, 67, 829900000],
                        [90, 105, 63, 778350000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [93, 108, 67, 827450000],
                        [90, 105, 63, 778350000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [93, 108, 67, 827450000],
                        [90, 105, 63, 778350000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 3,
                runs: 33,
                shards: &[[4096, 11, 43], [4064, 11, 43], [3840, 11, 43]],
                io: [
                    &[
                        [68, 132, 51, 632200000],
                        [67, 82, 50, 617450000],
                        [66, 81, 48, 592950000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [68, 83, 51, 629750000],
                        [67, 82, 50, 617450000],
                        [66, 81, 48, 592950000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [68, 83, 51, 629750000],
                        [67, 82, 50, 617450000],
                        [66, 81, 48, 592950000],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 4,
                runs: 43,
                shards: &[
                    [3072, 11, 43],
                    [3072, 11, 42],
                    [3040, 11, 43],
                    [2816, 10, 39],
                ],
                io: [
                    &[
                        [60, 124, 47, 582600000],
                        [59, 74, 46, 567850000],
                        [60, 75, 47, 580150000],
                        [52, 65, 40, 493850000],
                    ],
                    &[
                        [60, 75, 47, 580150000],
                        [59, 74, 46, 567850000],
                        [60, 75, 47, 580150000],
                        [52, 65, 40, 493850000],
                    ],
                    &[
                        [60, 75, 47, 580150000],
                        [59, 74, 46, 567850000],
                        [60, 75, 47, 580150000],
                        [52, 65, 40, 493850000],
                    ],
                ],
            },
        ],
    );
}

#[test]
fn lss_on_two_disks_pins_exact_io() {
    check(
        "LSS, 2 disks",
        &measure(Gen::Lss, STRIPE_2, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 41,
                shards: &[[6112, 21, 83], [5888, 20, 79]],
                io: [
                    &[[126, 203, 96, 1187650000], [120, 147, 88, 1086950000]],
                    &[[126, 154, 96, 1185200000], [120, 147, 88, 1086950000]],
                    &[[126, 154, 96, 1185200000], [120, 147, 88, 1086950000]],
                ],
            },
            Pin {
                threads: 3,
                runs: 62,
                shards: &[[4096, 21, 63], [4064, 21, 63], [3840, 20, 60]],
                io: [
                    &[[193, 297, 161, 1988700000], [90, 118, 70, 864400000]],
                    &[[193, 248, 161, 1986250000], [90, 118, 70, 864400000]],
                    &[[193, 248, 161, 1986250000], [90, 118, 70, 864400000]],
                ],
            },
            Pin {
                threads: 4,
                runs: 82,
                shards: &[
                    [3072, 21, 63],
                    [3072, 21, 63],
                    [3040, 21, 63],
                    [2816, 19, 57],
                ],
                io: [
                    &[[174, 279, 146, 1803850000], [164, 217, 139, 1714850000]],
                    &[[174, 230, 146, 1801400000], [164, 217, 139, 1714850000]],
                    &[[174, 230, 146, 1801400000], [164, 217, 139, 1714850000]],
                ],
            },
        ],
    );
}

#[test]
fn lss_on_four_disks_pins_exact_io() {
    check(
        "LSS, 4 disks",
        &measure(Gen::Lss, STRIPE_4, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 41,
                shards: &[[6112, 21, 83], [5888, 20, 79]],
                io: [
                    &[
                        [126, 203, 96, 1187650000],
                        [120, 147, 88, 1086950000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [126, 154, 96, 1185200000],
                        [120, 147, 88, 1086950000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [126, 154, 96, 1185200000],
                        [120, 147, 88, 1086950000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 3,
                runs: 62,
                shards: &[[4096, 21, 63], [4064, 21, 63], [3840, 20, 60]],
                io: [
                    &[
                        [90, 167, 69, 854650000],
                        [90, 118, 70, 864400000],
                        [85, 112, 64, 790650000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [90, 118, 69, 852200000],
                        [90, 118, 70, 864400000],
                        [85, 112, 64, 790650000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [90, 118, 69, 852200000],
                        [90, 118, 70, 864400000],
                        [85, 112, 64, 790650000],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 4,
                runs: 82,
                shards: &[
                    [3072, 21, 63],
                    [3072, 21, 63],
                    [3040, 21, 63],
                    [2816, 19, 57],
                ],
                io: [
                    &[
                        [80, 157, 64, 792650000],
                        [80, 108, 64, 790200000],
                        [80, 108, 65, 802400000],
                        [71, 96, 56, 691550000],
                    ],
                    &[
                        [80, 108, 64, 790200000],
                        [80, 108, 64, 790200000],
                        [80, 108, 65, 802400000],
                        [71, 96, 56, 691550000],
                    ],
                    &[
                        [80, 108, 64, 790200000],
                        [80, 108, 64, 790200000],
                        [80, 108, 65, 802400000],
                        [71, 96, 56, 691550000],
                    ],
                ],
            },
        ],
    );
}

#[test]
fn twrs_on_two_disks_pins_exact_io() {
    check(
        "2WRS, 2 disks",
        &measure(Gen::Twrs, STRIPE_2, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 4,
                shards: &[[6112, 2, 35], [5888, 2, 35]],
                io: [
                    &[[57, 110, 33, 410950000], [56, 60, 28, 347400000]],
                    &[[57, 61, 33, 408500000], [56, 60, 28, 347400000]],
                    &[[57, 61, 33, 408500000], [56, 60, 28, 347400000]],
                ],
            },
            Pin {
                threads: 3,
                runs: 6,
                shards: &[[4096, 2, 27], [4064, 2, 27], [3840, 2, 27]],
                io: [
                    &[[80, 136, 47, 584200000], [41, 45, 23, 284900000]],
                    &[[80, 87, 47, 581750000], [41, 45, 23, 284900000]],
                    &[[80, 87, 47, 581750000], [41, 45, 23, 284900000]],
                ],
            },
            Pin {
                threads: 4,
                runs: 12,
                shards: &[[3072, 3, 34], [3072, 3, 34], [3040, 3, 34], [2816, 3, 33]],
                io: [
                    &[[92, 153, 60, 744250000], [89, 101, 59, 729300000]],
                    &[[92, 104, 60, 741800000], [89, 101, 59, 729300000]],
                    &[[92, 104, 60, 741800000], [89, 101, 59, 729300000]],
                ],
            },
        ],
    );
}

#[test]
fn twrs_on_four_disks_pins_exact_io() {
    check(
        "2WRS, 4 disks",
        &measure(Gen::Twrs, STRIPE_4, &THREADS),
        &[
            Pin {
                threads: 2,
                runs: 4,
                shards: &[[6112, 2, 35], [5888, 2, 35]],
                io: [
                    &[
                        [57, 110, 33, 410950000],
                        [56, 60, 28, 347400000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [57, 61, 33, 408500000],
                        [56, 60, 28, 347400000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [57, 61, 33, 408500000],
                        [56, 60, 28, 347400000],
                        [0, 0, 0, 0],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 3,
                runs: 6,
                shards: &[[4096, 2, 27], [4064, 2, 27], [3840, 2, 27]],
                io: [
                    &[
                        [41, 94, 24, 299550000],
                        [41, 45, 23, 284900000],
                        [40, 44, 23, 284800000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [41, 45, 24, 297100000],
                        [41, 45, 23, 284900000],
                        [40, 44, 23, 284800000],
                        [0, 0, 0, 0],
                    ],
                    &[
                        [41, 45, 24, 297100000],
                        [41, 45, 23, 284900000],
                        [40, 44, 23, 284800000],
                        [0, 0, 0, 0],
                    ],
                ],
            },
            Pin {
                threads: 4,
                runs: 12,
                shards: &[[3072, 3, 34], [3072, 3, 34], [3040, 3, 34], [2816, 3, 33]],
                io: [
                    &[
                        [42, 97, 28, 348550000],
                        [42, 48, 26, 321700000],
                        [42, 48, 25, 309500000],
                        [40, 46, 25, 309300000],
                    ],
                    &[
                        [42, 48, 28, 346100000],
                        [42, 48, 26, 321700000],
                        [42, 48, 25, 309500000],
                        [40, 46, 25, 309300000],
                    ],
                    &[
                        [42, 48, 28, 346100000],
                        [42, 48, 26, 321700000],
                        [42, 48, 25, 309500000],
                        [40, 46, 25, 309300000],
                    ],
                ],
            },
        ],
    );
}

#[test]
fn rs_on_one_disk_pins_pages_at_four_threads() {
    check(
        "RS, 1 disk",
        &measure(Gen::Rs, "sim:hdd-7200", &[4]),
        &[Pin {
            threads: 4,
            runs: 43,
            shards: &[
                [3072, 11, 43],
                [3072, 11, 42],
                [3040, 11, 43],
                [2816, 10, 39],
            ],
            io: [
                &[[227, 332, 221, 2724150000]],
                &[[227, 283, 221, 2721700000]],
                &[[227, 283, 221, 2721700000]],
            ],
        }],
    );
}

#[test]
fn lss_on_one_disk_pins_pages_at_four_threads() {
    check(
        "LSS, 1 disk",
        &measure(Gen::Lss, "sim:hdd-7200", &[4]),
        &[Pin {
            threads: 4,
            runs: 82,
            shards: &[
                [3072, 21, 63],
                [3072, 21, 63],
                [3040, 21, 63],
                [2816, 19, 57],
            ],
            io: [
                &[[313, 470, 298, 3674750000]],
                &[[313, 421, 298, 3672300000]],
                &[[313, 421, 298, 3672300000]],
            ],
        }],
    );
}

#[test]
fn twrs_on_one_disk_pins_pages_at_four_threads() {
    check(
        "2WRS, 1 disk",
        &measure(Gen::Twrs, "sim:hdd-7200", &[4]),
        &[Pin {
            threads: 4,
            runs: 12,
            shards: &[[3072, 3, 34], [3072, 3, 34], [3040, 3, 34], [2816, 3, 33]],
            io: [
                &[[158, 230, 143, 1764000000]],
                &[[158, 181, 143, 1761550000]],
                &[[158, 181, 143, 1761550000]],
            ],
        }],
    );
}
