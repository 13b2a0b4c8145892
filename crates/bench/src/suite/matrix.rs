//! The declarative scenario matrix: which sorts the suite measures.
//!
//! A [`Scenario`] is one fully specified sort — run-generation algorithm ×
//! input distribution × memory budget × generation threads × record type ×
//! output sink (file or stream) × device × merge configuration — always
//! executed on a fresh simulated device with a fixed seed, so every
//! scenario is deterministic and its I/O counters are machine-independent.
//! [`ScenarioMatrix::quick`] is the reduced matrix PR CI runs on every
//! change; [`ScenarioMatrix::full`] is the on-demand evaluation matrix.
//! Both carry the paper's sort figures ([`super::figures`]).

use super::figures::{self, Figure, Scale};
use twrs_core::{BufferSetup, TwrsConfig};
use twrs_extsort::MergeConfig;
use twrs_storage::ModelId;
use twrs_workloads::DistributionKind;

/// The run-generation algorithm of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Classic replacement selection (Algorithm 1).
    Rs,
    /// Load-Sort-Store (§2.1.1).
    Lss,
    /// Two-way replacement selection with the recommended configuration.
    Twrs,
}

impl GeneratorKind {
    /// All generators, in the order the paper introduces them.
    pub fn all() -> [GeneratorKind; 3] {
        [GeneratorKind::Rs, GeneratorKind::Lss, GeneratorKind::Twrs]
    }

    /// The label the sorting pipeline reports for this generator.
    pub fn label(&self) -> &'static str {
        match self {
            GeneratorKind::Rs => "RS",
            GeneratorKind::Lss => "LSS",
            GeneratorKind::Twrs => "2WRS",
        }
    }

    /// A lowercase slug used in scenario ids.
    pub fn slug(&self) -> &'static str {
        match self {
            GeneratorKind::Rs => "rs",
            GeneratorKind::Lss => "lss",
            GeneratorKind::Twrs => "2wrs",
        }
    }
}

/// The record type a scenario sorts. The input distribution is always
/// generated as the paper's `Record` stream and mapped monotonically onto
/// the requested type, so the distribution shape is identical across types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// The paper's 16-byte key + payload record.
    Record,
    /// The 32-byte `UserEvent` (string-prefix key) record.
    UserEvent,
    /// A bare `u64` key (8 bytes, the smallest sortable record).
    U64,
}

impl RecordType {
    /// A lowercase slug used in scenario ids and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            RecordType::Record => "record",
            RecordType::UserEvent => "user-event",
            RecordType::U64 => "u64",
        }
    }

    /// The on-device size of one record, in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            RecordType::Record => 16,
            RecordType::UserEvent => 32,
            RecordType::U64 => 8,
        }
    }
}

/// Where the final merge pass of a scenario delivers its output: the
/// classic named output file, or a lazy `SortedStream` consumed by the
/// runner (zero final-pass page writes — the saving the suite attributes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// `SortJob::run_iter` — final merge drains into a device file.
    #[default]
    File,
    /// `SortJob::stream_iter` — final merge suspended and drained through
    /// the iterator; the runner counts and order-checks the records.
    Stream,
}

impl SinkMode {
    /// A lowercase slug used in scenario ids and reports.
    pub fn slug(&self) -> &'static str {
        match self {
            SinkMode::File => "file",
            SinkMode::Stream => "stream",
        }
    }
}

/// One fully specified sort of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Run-generation algorithm.
    pub generator: GeneratorKind,
    /// Input distribution shape.
    pub distribution: DistributionKind,
    /// Number of input records.
    pub records: u64,
    /// Memory budget of the generator, in records.
    pub memory: usize,
    /// Generation threads (1 = sequential pipeline).
    pub threads: usize,
    /// Record type the sort runs on.
    pub record_type: RecordType,
    /// Output shape of the final merge pass.
    pub sink: SinkMode,
    /// Device model the scenario's simulated disk charges costs from.
    /// Page/seek *counts* are identical across models (the catalog shares
    /// one seek-detection rule); only simulated I/O time differs.
    pub device: ModelId,
    /// Number of simulated disks the scenario spills across. `1` runs on a
    /// plain `SimDevice`; `>1` builds a `striped:<disks>:sim:<model>`
    /// stripe, where each generation shard spills to its own member and
    /// per-disk seek counts stay deterministic even at `threads > 1`.
    pub disks: usize,
    /// Seed of the input distribution.
    pub seed: u64,
    /// Merge fan-in and per-run read-ahead.
    pub merge: MergeConfig,
    /// The 2WRS buffer setup and the fraction of memory the buffers take
    /// (§5.2's factors α and β); RS and LSS ignore it.
    pub buffers: (BufferSetup, f64),
}

/// The buffer setup and fraction of a 2WRS configuration.
pub fn buffers_of(config: &TwrsConfig) -> (BufferSetup, f64) {
    (config.buffer_setup, config.buffer_fraction)
}

impl Scenario {
    /// A single-threaded file sort of the paper's `Record` on one
    /// `hdd-7200` disk, with [`MATRIX_SEED`], the default merge and the
    /// recommended 2WRS buffers — the base every matrix varies.
    pub fn new(
        generator: GeneratorKind,
        distribution: DistributionKind,
        records: u64,
        memory: usize,
    ) -> Self {
        Scenario {
            generator,
            distribution,
            records,
            memory,
            threads: 1,
            record_type: RecordType::Record,
            sink: SinkMode::File,
            device: ModelId::Hdd7200,
            disks: 1,
            seed: MATRIX_SEED,
            merge: MergeConfig::default(),
            buffers: buffers_of(&TwrsConfig::recommended(memory)),
        }
    }

    /// A stable, human-readable identifier, unique within a matrix; the key
    /// the baseline gate matches scenarios by. A value at its default adds
    /// no segment, so ids keep their historical shape:
    /// `<gen>[-<buffers>]-<distribution>[-sections<n>]-<record>-n<records>-m<memory>-t<threads>`
    /// then, when not at the default, `-<model>`, `-d<disks>`,
    /// `-k<fan-in>-ra<read-ahead>`, `-seed<seed>`, and last `-stream`.
    pub fn id(&self) -> String {
        let (setup, fraction) = self.buffers;
        let custom_buffers = self.generator == GeneratorKind::Twrs
            && self.buffers != buffers_of(&TwrsConfig::recommended(0));
        let (fan_in, read_ahead) = (self.merge.fan_in, self.merge.read_ahead_records);
        let sections = match self.distribution {
            DistributionKind::Alternating { sections } => format!("-sections{sections}"),
            _ => String::new(),
        };
        let unless_default = |custom: bool, text: String| if custom { text } else { String::new() };
        format!(
            "{}{}-{}{sections}-{}-n{}-m{}-t{}{}{}{}{}{}",
            self.generator.slug(),
            unless_default(custom_buffers, format!("-{}{fraction}", setup.label())),
            self.distribution.label(),
            self.record_type.slug(),
            self.records,
            self.memory,
            self.threads,
            unless_default(
                self.device != ModelId::Hdd7200,
                format!("-{}", self.device.name())
            ),
            unless_default(self.disks > 1, format!("-d{}", self.disks)),
            unless_default(
                self.merge != MergeConfig::default(),
                format!("-k{fan_in}-ra{read_ahead}")
            ),
            unless_default(self.seed != MATRIX_SEED, format!("-seed{}", self.seed)),
            unless_default(self.sink == SinkMode::Stream, "-stream".into()),
        )
    }

    /// The [`twrs_storage::DeviceSpec`] string the runner builds this
    /// scenario's device from: `sim:<model>` for a single disk,
    /// `striped:<disks>:sim:<model>` for a stripe.
    pub fn device_spec(&self) -> String {
        if self.disks > 1 {
            format!("striped:{}:sim:{}", self.disks, self.device.name())
        } else {
            format!("sim:{}", self.device.name())
        }
    }
}

/// The distributions of the scenario matrix: the uniform/sorted/reverse
/// trio plus the two workload shapes beyond the paper set (bounded
/// displacement and low cardinality).
pub fn matrix_distributions() -> [DistributionKind; 5] {
    [
        DistributionKind::RandomUniform,
        DistributionKind::Sorted,
        DistributionKind::ReverseSorted,
        DistributionKind::AlmostSorted {
            max_displacement: 100,
        },
        DistributionKind::DuplicateHeavy { distinct: 16 },
    ]
}

/// The seed every scenario uses unless a paper figure fixes another (one
/// fixed seed keeps reports comparable across runs and machines).
pub const MATRIX_SEED: u64 = 42;

/// A named list of scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// `"quick"`, `"full"` or `"figures"`; recorded in the report and the
    /// baseline so a baseline is never compared against the wrong matrix.
    pub name: &'static str,
    /// The scenarios, in execution order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// The reduced matrix PR CI runs on every change: every generator ×
    /// the five matrix distributions × both thread counts on the default
    /// record, record-type coverage on the random and duplicate-heavy
    /// inputs, the stream-sink slice (every generator × both thread counts
    /// through `stream_iter`), the nvme device slice, the multi-disk slice
    /// (every generator across two stripe shapes), and every paper figure
    /// at [`Scale::QUICK`]. 168 scenarios; the whole matrix runs in
    /// seconds.
    pub fn quick() -> Self {
        let mut scenarios = Vec::new();
        let records = 6_000;
        let memory = 300;
        for generator in GeneratorKind::all() {
            for distribution in matrix_distributions() {
                for threads in [1, 4] {
                    scenarios.push(Scenario {
                        threads,
                        ..Scenario::new(generator, distribution, records, memory)
                    });
                }
            }
        }
        // Record-type coverage: the wider and the narrower record through
        // every generator on random input, both thread counts.
        for generator in GeneratorKind::all() {
            for record_type in [RecordType::UserEvent, RecordType::U64] {
                for threads in [1, 4] {
                    scenarios.push(Scenario {
                        threads,
                        record_type,
                        ..Scenario::new(generator, DistributionKind::RandomUniform, records, memory)
                    });
                }
            }
        }
        // Duplicate-heavy input on the bare-key record: maximal tie
        // density, since equal keys have no payload tie-breaker.
        for threads in [1, 4] {
            scenarios.push(Scenario {
                threads,
                record_type: RecordType::U64,
                ..Scenario::new(
                    GeneratorKind::Twrs,
                    DistributionKind::DuplicateHeavy { distinct: 16 },
                    records,
                    memory,
                )
            });
        }
        // Sink axis: the same random/record slice through `stream_iter`,
        // pinning that a streamed sort writes zero final-pass pages while
        // its generation and intermediate-merge counters match the file
        // scenarios above.
        scenarios.extend(Self::random_slice(records, memory).map(|s| Scenario {
            sink: SinkMode::Stream,
            ..s
        }));
        // Device axis: the random/record slice re-costed under the nvme
        // model. The pinned counters are identical to the hdd-7200 twins
        // (same pages, runs and seeks — the catalog shares one
        // seek-detection rule); only simulated I/O time drops, re-testing
        // the paper's seek-dominated conclusion under a near-seek-free
        // device.
        scenarios.extend(Self::random_slice(records, memory).map(|s| Scenario {
            device: ModelId::Nvme,
            ..s
        }));
        // Multi-disk axis: the random/record slice spilling across a
        // stripe. Shard-pinned spills make the per-disk seek counts
        // deterministic, so — unlike the plain `-t4` scenarios — these
        // multi-threaded runs pin concrete seek totals in the baseline.
        scenarios.extend(Self::striped_slice(records, memory));
        scenarios.extend(figures::scenarios(&Figure::all(), Scale::QUICK));
        ScenarioMatrix {
            name: "quick",
            scenarios,
        }
    }

    /// The multi-disk slice: every generator sorting the random/record
    /// input at four threads, once on a four-disk hdd stripe (one shard per
    /// member) and once on a two-disk nvme stripe (two shards per member) —
    /// exercising both the shard↔disk bijection and the folded case.
    fn striped_slice(records: u64, memory: usize) -> Vec<Scenario> {
        let mut scenarios = Vec::new();
        for (disks, device) in [(4, ModelId::Hdd7200), (2, ModelId::Nvme)] {
            for generator in GeneratorKind::all() {
                scenarios.push(Scenario {
                    threads: 4,
                    device,
                    disks,
                    ..Scenario::new(generator, DistributionKind::RandomUniform, records, memory)
                });
            }
        }
        scenarios
    }

    /// Every generator on random input, both thread counts, default record
    /// — the slice the sink and device axes re-run with one value changed.
    fn random_slice(records: u64, memory: usize) -> impl Iterator<Item = Scenario> {
        GeneratorKind::all().into_iter().flat_map(move |generator| {
            [1, 4].map(|threads| Scenario {
                threads,
                ..Scenario::new(generator, DistributionKind::RandomUniform, records, memory)
            })
        })
    }

    /// The full evaluation matrix: the five matrix distributions plus the
    /// paper's alternating and mixed shapes, two memory budgets, both
    /// thread counts on the default record, full record-type coverage at
    /// the small budget, every catalog device model, and every paper
    /// figure at [`Scale::LAPTOP`].
    pub fn full() -> Self {
        let mut scenarios = Vec::new();
        let records = 20_000;
        let mut distributions: Vec<DistributionKind> = matrix_distributions().to_vec();
        distributions.push(DistributionKind::Alternating { sections: 10 });
        distributions.push(DistributionKind::MixedBalanced);
        for generator in GeneratorKind::all() {
            for &distribution in &distributions {
                for memory in [300, 1_200] {
                    for threads in [1, 4] {
                        scenarios.push(Scenario {
                            threads,
                            ..Scenario::new(generator, distribution, records, memory)
                        });
                    }
                }
            }
        }
        for generator in GeneratorKind::all() {
            for distribution in matrix_distributions() {
                for record_type in [RecordType::UserEvent, RecordType::U64] {
                    for threads in [1, 4] {
                        scenarios.push(Scenario {
                            threads,
                            record_type,
                            ..Scenario::new(generator, distribution, records, 300)
                        });
                    }
                }
            }
        }
        scenarios.extend(Self::random_slice(records, 300).map(|s| Scenario {
            sink: SinkMode::Stream,
            ..s
        }));
        // Full device coverage: every non-default catalog model.
        for device in [ModelId::SataSsd, ModelId::Nvme, ModelId::Pmem] {
            scenarios.extend(Self::random_slice(records, 300).map(|s| Scenario { device, ..s }));
        }
        scenarios.extend(Self::striped_slice(records, 300));
        scenarios.extend(figures::scenarios(&Figure::all(), Scale::LAPTOP));
        ScenarioMatrix {
            name: "full",
            scenarios,
        }
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the matrix has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn coverage(matrix: &ScenarioMatrix) -> (BTreeSet<&str>, BTreeSet<&str>, BTreeSet<usize>) {
        let generators = matrix
            .scenarios
            .iter()
            .map(|s| s.generator.label())
            .collect();
        let distributions = matrix
            .scenarios
            .iter()
            .map(|s| s.distribution.label())
            .collect();
        let threads = matrix.scenarios.iter().map(|s| s.threads).collect();
        (generators, distributions, threads)
    }

    #[test]
    fn quick_matrix_covers_the_acceptance_floor() {
        let quick = ScenarioMatrix::quick();
        let (generators, distributions, threads) = coverage(&quick);
        assert_eq!(generators.len(), 3, "all three generators");
        assert!(distributions.len() >= 4, "at least four distributions");
        assert_eq!(threads, BTreeSet::from([1, 4]), "both thread counts");
        // Record-type coverage beyond the default record.
        let record_types: BTreeSet<&str> = quick
            .scenarios
            .iter()
            .map(|s| s.record_type.slug())
            .collect();
        assert_eq!(record_types.len(), 3);
    }

    #[test]
    fn scenario_ids_are_unique_within_each_matrix() {
        for matrix in [ScenarioMatrix::quick(), ScenarioMatrix::full()] {
            let ids: BTreeSet<String> = matrix.scenarios.iter().map(Scenario::id).collect();
            assert_eq!(ids.len(), matrix.len(), "duplicate id in {}", matrix.name);
            assert!(!matrix.is_empty());
        }
    }

    #[test]
    fn full_matrix_is_a_superset_of_quick_coverage() {
        let quick = ScenarioMatrix::quick();
        let full = ScenarioMatrix::full();
        let (qg, qd, qt) = coverage(&quick);
        let (fg, fd, ft) = coverage(&full);
        assert!(qg.is_subset(&fg));
        assert!(qd.is_subset(&fd));
        assert!(qt.is_subset(&ft));
        assert!(ScenarioMatrix::full().len() > ScenarioMatrix::quick().len());
    }

    #[test]
    fn ids_are_stable() {
        let scenario = Scenario {
            generator: GeneratorKind::Twrs,
            distribution: DistributionKind::AlmostSorted {
                max_displacement: 100,
            },
            records: 6_000,
            memory: 300,
            threads: 4,
            record_type: RecordType::UserEvent,
            sink: SinkMode::File,
            device: ModelId::Hdd7200,
            disks: 1,
            seed: MATRIX_SEED,
            merge: MergeConfig::default(),
            buffers: buffers_of(&TwrsConfig::recommended(300)),
        };
        // File-sink ids keep the pre-sink-axis shape, so the historical
        // baseline entries stay addressable.
        assert_eq!(scenario.id(), "2wrs-almost-sorted-user-event-n6000-m300-t4");
        let stream = Scenario {
            sink: SinkMode::Stream,
            ..scenario
        };
        assert_eq!(
            stream.id(),
            "2wrs-almost-sorted-user-event-n6000-m300-t4-stream"
        );
        // Striped scenarios carry a `-d<n>` segment after the device
        // segment, and build from a `striped:` device spec.
        let striped = Scenario {
            record_type: RecordType::Record,
            disks: 4,
            ..scenario
        };
        assert_eq!(striped.id(), "2wrs-almost-sorted-record-n6000-m300-t4-d4");
        assert_eq!(striped.device_spec(), "striped:4:sim:hdd-7200");
        let striped_nvme = Scenario {
            device: ModelId::Nvme,
            disks: 2,
            ..striped
        };
        assert_eq!(
            striped_nvme.id(),
            "2wrs-almost-sorted-record-n6000-m300-t4-nvme-d2"
        );
        assert_eq!(striped_nvme.device_spec(), "striped:2:sim:nvme");
        assert_eq!(scenario.device_spec(), "sim:hdd-7200");
    }

    #[test]
    fn both_matrices_cover_the_multi_disk_axis() {
        for matrix in [ScenarioMatrix::quick(), ScenarioMatrix::full()] {
            let striped: Vec<&Scenario> = matrix.scenarios.iter().filter(|s| s.disks > 1).collect();
            let generators: BTreeSet<&str> = striped.iter().map(|s| s.generator.label()).collect();
            assert_eq!(
                generators.len(),
                3,
                "{}: every generator stripes",
                matrix.name
            );
            let shapes: BTreeSet<usize> = striped.iter().map(|s| s.disks).collect();
            assert_eq!(shapes, BTreeSet::from([2, 4]), "{}", matrix.name);
            for scenario in striped {
                assert!(
                    scenario.threads > 1,
                    "{}: the slice exists to pin multi-threaded per-disk seeks",
                    matrix.name
                );
                assert!(scenario.id().contains(&format!("-d{}", scenario.disks)));
                assert!(scenario.device_spec().starts_with("striped:"));
            }
        }
    }

    #[test]
    fn both_matrices_cover_the_sink_axis() {
        for matrix in [ScenarioMatrix::quick(), ScenarioMatrix::full()] {
            let streams: Vec<&Scenario> = matrix
                .scenarios
                .iter()
                .filter(|s| s.sink == SinkMode::Stream)
                .collect();
            let generators: BTreeSet<&str> = streams.iter().map(|s| s.generator.label()).collect();
            let threads: BTreeSet<usize> = streams.iter().map(|s| s.threads).collect();
            assert_eq!(
                generators.len(),
                3,
                "{}: every generator streams",
                matrix.name
            );
            assert_eq!(threads, BTreeSet::from([1, 4]), "{}", matrix.name);
            // Every stream scenario has a file twin with identical inputs,
            // so the report can attribute the saved final pass directly.
            for stream in streams {
                let twin = Scenario {
                    sink: SinkMode::File,
                    ..*stream
                };
                assert!(
                    matrix.scenarios.contains(&twin),
                    "{}: file twin of {}",
                    matrix.name,
                    stream.id()
                );
            }
        }
    }

    #[test]
    fn figure_ids_carry_a_segment_for_each_non_default_value() {
        let base = Scenario::new(
            GeneratorKind::Twrs,
            DistributionKind::RandomUniform,
            20_000,
            400,
        );
        assert_eq!(base.id(), "2wrs-random-record-n20000-m400-t1");
        let cfg1 = Scenario {
            buffers: buffers_of(&TwrsConfig::table_5_13_cfg1(400)),
            ..base
        };
        assert_eq!(cfg1.id(), "2wrs-input0.0002-random-record-n20000-m400-t1");
        // RS and LSS ignore the buffers, so their ids do too.
        let rs = Scenario {
            generator: GeneratorKind::Rs,
            ..cfg1
        };
        assert_eq!(rs.id(), "rs-random-record-n20000-m400-t1");
        let timing = Scenario {
            distribution: DistributionKind::Alternating { sections: 25 },
            merge: MergeConfig {
                fan_in: 10,
                read_ahead_records: 1_024,
            },
            seed: 11,
            ..base
        };
        assert_eq!(
            timing.id(),
            "2wrs-alternating-sections25-record-n20000-m400-t1-k10-ra1024-seed11"
        );
        let fan_in = Scenario {
            device: ModelId::SataSsd,
            ..timing
        };
        assert!(fan_in.id().ends_with("-t1-sata-ssd-k10-ra1024-seed11"));
    }

    #[test]
    fn quick_matrix_carries_every_figure_at_quick_scale() {
        let quick = ScenarioMatrix::quick();
        let figures = figures::scenarios(&Figure::all(), Scale::QUICK);
        assert_eq!(quick.len(), 62 + 106);
        assert_eq!(&quick.scenarios[62..], figures.as_slice());
    }
}
