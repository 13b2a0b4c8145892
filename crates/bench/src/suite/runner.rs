//! Executes one [`Scenario`] through the `SortJob` front door on a fresh
//! simulated device and captures everything the report needs: wall-clock
//! and throughput, run counts (measured vs. the `twrs-analysis`
//! prediction), and per-phase pages, seeks and simulated I/O time.

use super::matrix::{GeneratorKind, RecordType, Scenario, SinkMode};
use twrs_analysis::theory::expected_relative_run_length;
use twrs_core::{TwoWayReplacementSelection, TwrsConfig};
use twrs_extsort::{
    FinalPassKind, LoadSortStore, PhaseReport, ReplacementSelection, ShardableGenerator, SortJob,
    SortJobReport,
};
use twrs_storage::{AnyDevice, DeviceSpec, DiskModel, ModelId, SortableRecord, StorageDevice};
use twrs_workloads::{Distribution, UserEvent};

/// One phase's metrics, flattened for serialization. Pages and seeks are
/// deterministic on the simulated device; the wall clock is not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseMetrics {
    /// Wall-clock time of the phase, in microseconds.
    pub wall_us: u64,
    /// Pages read during the phase.
    pub pages_read: u64,
    /// Pages written during the phase.
    pub pages_written: u64,
    /// Seeks performed during the phase.
    pub seeks: u64,
    /// Simulated I/O time under the device's disk model, in microseconds.
    pub simulated_io_us: u64,
}

impl From<&PhaseReport> for PhaseMetrics {
    fn from(phase: &PhaseReport) -> Self {
        PhaseMetrics {
            wall_us: phase.wall.as_micros() as u64,
            pages_read: phase.pages_read,
            pages_written: phase.pages_written,
            seeks: phase.seeks,
            simulated_io_us: phase.simulated_io.as_micros() as u64,
        }
    }
}

/// The deterministic subset of a scenario's counters: identical on every
/// machine, which is what the CI baseline gate compares. Seeks are among
/// them because every disk head of a simulated sort sees one reader at a
/// time at any thread count: simulated I/O costs no wall-clock time, so a
/// sharded sort starts no prefetch thread, and on a stripe each shard
/// spills to one member, whose runs one reducer per member then reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicCounters {
    /// Total pages read across all phases (including verification).
    pub pages_read: u64,
    /// Total pages written across all phases.
    pub pages_written: u64,
    /// Pages the final merge pass alone wrote. Deterministically **zero**
    /// for stream scenarios — the invariant the baseline gate pins: a
    /// streamed sort must never regress into paying a final write pass.
    pub final_pass_pages_written: u64,
    /// Number of runs the generation phase produced.
    pub runs: u64,
    /// Total seeks across all phases.
    pub seeks: u64,
}

/// Deterministic counters for one stripe member of a striped scenario —
/// the per-disk breakdown the report serializes next to the totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskCounters {
    /// Pages this member read across the whole run.
    pub pages_read: u64,
    /// Pages this member wrote across the whole run.
    pub pages_written: u64,
    /// Seeks this member's head performed across the whole run.
    pub seeks: u64,
}

/// Everything measured for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Wall-clock time across all phases, in microseconds.
    pub wall_us: u64,
    /// Simulated I/O time across all phases, in microseconds.
    pub simulated_io_us: u64,
    /// Input records per wall-clock second.
    pub records_per_sec: f64,
    /// Number of runs the generation phase produced.
    pub num_runs: u64,
    /// Number of k-way merge steps the merge phase executed (reported;
    /// not part of the gated counters).
    pub merge_steps: u32,
    /// Measured average run length, in records.
    pub average_run_length: f64,
    /// Measured average run length relative to the memory budget.
    pub relative_run_length: f64,
    /// The analytical expectation for [`relative_run_length`] from
    /// `twrs-analysis`, when the theory covers this scenario.
    ///
    /// [`relative_run_length`]: ScenarioResult::relative_run_length
    pub predicted_relative_run_length: Option<f64>,
    /// Run-generation phase metrics.
    pub run_generation: PhaseMetrics,
    /// Merge phase metrics.
    pub merge: PhaseMetrics,
    /// Verification-scan metrics. The suite verifies file outputs with the
    /// pipeline's scan; stream scenarios are order- and count-checked
    /// inline while draining (no separate phase), so this is `None` there.
    pub verify: Option<PhaseMetrics>,
    /// How the scenario's final merge pass delivered its output.
    pub final_pass: FinalPassKind,
    /// Pages the final pass alone wrote (`0` for stream scenarios).
    pub final_pass_pages_written: u64,
    /// Whether the report's I/O accounting reconciled (shard sums vs.
    /// aggregated phases).
    pub io_consistent: bool,
    /// Per-member counters for striped scenarios, in stripe order; empty
    /// when the scenario ran on a single disk. The runner verifies the
    /// member fold against the device totals before reporting.
    pub per_disk: Vec<DiskCounters>,
}

impl ScenarioResult {
    /// The machine-independent counters the baseline gate compares.
    pub fn deterministic(&self) -> DeterministicCounters {
        let phases = [
            Some(&self.run_generation),
            Some(&self.merge),
            self.verify.as_ref(),
        ];
        let sum = |f: fn(&PhaseMetrics) -> u64| phases.iter().flatten().map(|p| f(p)).sum();
        DeterministicCounters {
            pages_read: sum(|p| p.pages_read),
            pages_written: sum(|p| p.pages_written),
            final_pass_pages_written: self.final_pass_pages_written,
            runs: self.num_runs,
            seeks: sum(|p| p.seeks),
        }
    }

    /// Ratio of measured to predicted relative run length; `None` without a
    /// prediction.
    pub fn prediction_ratio(&self) -> Option<f64> {
        let predicted = self.predicted_relative_run_length?;
        (predicted > 0.0).then(|| self.relative_run_length / predicted)
    }
}

/// The disk model scenarios run under by default (the `hdd-7200` catalog
/// entry; recorded in the report header so numbers are interpretable —
/// scenarios on another catalog model carry it in their id and their own
/// `device` report field).
pub fn suite_disk_model() -> DiskModel {
    ModelId::Hdd7200.params()
}

/// Reads the per-member counters off a striped device and checks they
/// fold into the device totals exactly; `[]` for single-disk devices.
/// Call only once all I/O has happened (for streams: after the drain).
/// `label` names the run in the error.
pub(crate) fn per_disk_counters(
    device: &AnyDevice,
    label: &str,
) -> Result<Vec<DiskCounters>, String> {
    let Some(stripe) = device.as_striped() else {
        return Ok(Vec::new());
    };
    let members: Vec<DiskCounters> = stripe
        .member_stats()
        .iter()
        .map(|snapshot| DiskCounters {
            pages_read: snapshot.counters.pages_read,
            pages_written: snapshot.counters.pages_written,
            seeks: snapshot.counters.seeks,
        })
        .collect();
    let totals = device.stats().counters;
    let fold = members.iter().fold([0u64; 3], |acc, m| {
        [
            acc[0] + m.pages_read,
            acc[1] + m.pages_written,
            acc[2] + m.seeks,
        ]
    });
    if fold != [totals.pages_read, totals.pages_written, totals.seeks] {
        return Err(format!(
            "{label}: stripe member counters {fold:?} do not fold into \
             the device totals [{}, {}, {}]",
            totals.pages_read, totals.pages_written, totals.seeks
        ));
    }
    Ok(members)
}

fn run_job<R, I>(
    scenario: &Scenario,
    input: I,
) -> Result<(SortJobReport, Vec<DiskCounters>), String>
where
    R: SortableRecord,
    I: Iterator<Item = R>,
{
    fn go<G, R, I>(
        generator: G,
        scenario: &Scenario,
        input: I,
    ) -> Result<(SortJobReport, Vec<DiskCounters>), String>
    where
        G: ShardableGenerator,
        R: SortableRecord,
        I: Iterator<Item = R>,
    {
        let device = scenario
            .device_spec()
            .parse::<DeviceSpec>()
            .and_then(|spec| spec.build())
            .map_err(|e| format!("scenario {}: bad device spec: {e}", scenario.id()))?;
        let job = SortJob::new(generator)
            .on(&device)
            .threads(scenario.threads)
            .merge(scenario.merge)
            .verify(true);
        let report = match scenario.sink {
            SinkMode::File => job
                .run_iter(input, "sorted")
                .map_err(|e| format!("scenario {} failed: {e}", scenario.id()))?,
            SinkMode::Stream => {
                // Drain the lazy stream, verifying order and completeness
                // inline (the pipeline's verify pass is file-specific).
                let stream = job
                    .stream_iter(input)
                    .map_err(|e| format!("scenario {} failed: {e}", scenario.id()))?;
                let report = stream.report().clone();
                let expected = stream.expected_records();
                let mut drained = 0u64;
                let mut previous: Option<R> = None;
                for record in stream {
                    let record = record.map_err(|e| format!("scenario {}: {e}", scenario.id()))?;
                    if previous.as_ref().is_some_and(|prev| prev > &record) {
                        return Err(format!(
                            "scenario {}: stream output not sorted at record {drained}",
                            scenario.id()
                        ));
                    }
                    previous = Some(record);
                    drained += 1;
                }
                if drained != expected {
                    return Err(format!(
                        "scenario {}: stream yielded {drained} of {expected} records",
                        scenario.id()
                    ));
                }
                if !device.list().is_empty() {
                    return Err(format!(
                        "scenario {}: drained stream left files on the device",
                        scenario.id()
                    ));
                }
                report
            }
        };
        let per_disk = per_disk_counters(&device, &format!("scenario {}", scenario.id()))?;
        Ok((report, per_disk))
    }

    match scenario.generator {
        GeneratorKind::Rs => go(ReplacementSelection::new(scenario.memory), scenario, input),
        GeneratorKind::Lss => go(LoadSortStore::new(scenario.memory), scenario, input),
        GeneratorKind::Twrs => {
            let (setup, fraction) = scenario.buffers;
            let config = TwrsConfig::recommended(scenario.memory).with_buffers(setup, fraction);
            go(TwoWayReplacementSelection::new(config), scenario, input)
        }
    }
}

/// Runs one scenario to completion and returns its measurements.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, String> {
    let input = Distribution::new(scenario.distribution, scenario.records, scenario.seed);
    let (job, per_disk) = match scenario.record_type {
        RecordType::Record => run_job(scenario, input.records())?,
        RecordType::UserEvent => run_job(scenario, input.records().map(UserEvent::from))?,
        RecordType::U64 => run_job(scenario, input.records().map(|r| r.key))?,
    };

    // The closed-form expectations describe the sequential pipeline. A
    // parallel run deals the input round-robin across `threads` shards with
    // the budget divided evenly, which preserves each shard's distribution
    // shape while scaling both its input and its memory by 1/threads — so
    // every expectation, relative to the *total* memory, divides by the
    // thread count.
    let predicted = expected_relative_run_length(
        job.report.generator,
        scenario.distribution,
        scenario.records,
        scenario.memory,
    )
    .map(|e| e.relative_run_length(scenario.records, scenario.memory) / scenario.threads as f64);

    Ok(ScenarioResult {
        scenario: *scenario,
        wall_us: job.total_wall().as_micros() as u64,
        simulated_io_us: job.total_simulated_io().as_micros() as u64,
        records_per_sec: job.records_per_second(),
        num_runs: job.num_runs() as u64,
        merge_steps: job.report.merge_report.merge_steps,
        average_run_length: job.average_run_length(),
        relative_run_length: job.report.relative_run_length,
        predicted_relative_run_length: predicted,
        run_generation: (&job.report.run_generation).into(),
        merge: (&job.report.merge).into(),
        verify: job.report.verify.as_ref().map(PhaseMetrics::from),
        final_pass: job.final_pass,
        final_pass_pages_written: job.final_pass_pages_written(),
        io_consistent: job.io_is_consistent(),
        per_disk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twrs_workloads::DistributionKind;

    fn scenario(generator: GeneratorKind, threads: usize) -> Scenario {
        Scenario {
            threads,
            seed: 7,
            ..Scenario::new(generator, DistributionKind::RandomUniform, 3_000, 200)
        }
    }

    #[test]
    fn runs_are_deterministic_across_invocations() {
        for generator in GeneratorKind::all() {
            let s = scenario(generator, 1);
            let a = run_scenario(&s).unwrap();
            let b = run_scenario(&s).unwrap();
            assert_eq!(a.deterministic(), b.deterministic(), "{}", s.id());
            assert!(a.io_consistent);
            assert!(a.num_runs > 0);
        }
    }

    #[test]
    fn parallel_scenarios_pin_equal_seeks_across_runs() {
        // The round-robin deal and the budget split fix every shard's
        // spill structure, and with no prefetch thread on the simulated
        // device the one disk head has one reader at a time: two runs at
        // four threads pin the same seeks along with the pages and runs.
        for generator in GeneratorKind::all() {
            let s = scenario(generator, 4);
            let par = run_scenario(&s).unwrap();
            let par_again = run_scenario(&s).unwrap();
            assert!(par.deterministic().seeks > 0, "{}", s.id());
            assert_eq!(par.deterministic(), par_again.deterministic(), "{}", s.id());
            assert_eq!(par.simulated_io_us, par_again.simulated_io_us, "{}", s.id());
        }
    }

    #[test]
    fn prediction_matches_measurement_on_random_input() {
        // RS on random input: the snowplow argument says 2× memory.
        let result = run_scenario(&scenario(GeneratorKind::Rs, 1)).unwrap();
        let predicted = result.predicted_relative_run_length.expect("rs prediction");
        assert!((predicted - 2.0).abs() < 1e-9);
        let ratio = result.prediction_ratio().expect("ratio");
        assert!((0.7..1.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn parallel_prediction_scales_by_the_thread_count() {
        // Four shards, each with a quarter of the budget and a quarter of
        // the (still random) input: the expectation divides by 4 and still
        // tracks the measurement.
        let result = run_scenario(&scenario(GeneratorKind::Rs, 4)).unwrap();
        let predicted = result.predicted_relative_run_length.expect("rs prediction");
        assert!((predicted - 0.5).abs() < 1e-9);
        let ratio = result.prediction_ratio().expect("ratio");
        assert!((0.7..1.3).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn stream_scenarios_write_zero_final_pass_pages() {
        for generator in GeneratorKind::all() {
            for threads in [1, 4] {
                let file = scenario(generator, threads);
                let stream = Scenario {
                    sink: SinkMode::Stream,
                    ..file
                };
                let file_result = run_scenario(&file).unwrap();
                let stream_result = run_scenario(&stream).unwrap();
                // The file path pays a final write pass; the stream never
                // does — and the saving is exactly that pass.
                assert!(file_result.deterministic().final_pass_pages_written > 0);
                assert_eq!(
                    stream_result.deterministic().final_pass_pages_written,
                    0,
                    "{}",
                    stream.id()
                );
                assert_eq!(stream_result.final_pass, FinalPassKind::Streamed);
                // Generation cost is identical across the sink axis: same
                // input, same shards, same runs.
                assert_eq!(
                    stream_result.run_generation.pages_written,
                    file_result.run_generation.pages_written,
                    "{}",
                    stream.id()
                );
                assert_eq!(stream_result.num_runs, file_result.num_runs);
                // And a repeat run reproduces the stream counters exactly.
                let again = run_scenario(&stream).unwrap();
                assert_eq!(stream_result.deterministic(), again.deterministic());
            }
        }
    }

    #[test]
    fn device_models_change_simulated_time_but_not_counters() {
        // The device axis re-tests the paper's seek-dominated conclusion:
        // a near-seek-free nvme model must reproduce the hdd scenario's
        // page/seek counts exactly while its simulated I/O time collapses.
        for generator in GeneratorKind::all() {
            for threads in [1, 4] {
                let hdd = scenario(generator, threads);
                let nvme = Scenario {
                    device: ModelId::Nvme,
                    ..hdd
                };
                let hdd_result = run_scenario(&hdd).unwrap();
                let nvme_result = run_scenario(&nvme).unwrap();
                assert_eq!(
                    hdd_result.deterministic(),
                    nvme_result.deterministic(),
                    "{}",
                    nvme.id()
                );
                assert!(
                    nvme_result.simulated_io_us < hdd_result.simulated_io_us,
                    "{}: nvme {}µs !< hdd {}µs",
                    nvme.id(),
                    nvme_result.simulated_io_us,
                    hdd_result.simulated_io_us
                );
            }
        }
    }

    #[test]
    fn striped_scenarios_pin_concrete_per_disk_seeks() {
        // The striped slice: at 4 threads on 4 disks each member serves
        // one shard and its own reducer, and the per-member breakdown
        // repeats exactly and folds into the phase totals.
        let s = Scenario {
            disks: 4,
            ..scenario(GeneratorKind::Twrs, 4)
        };
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&s).unwrap();
        let det = a.deterministic();
        assert_eq!(det, b.deterministic(), "{}", s.id());
        assert!(a.io_consistent);
        assert_eq!(a.per_disk.len(), 4);
        assert_eq!(a.per_disk, b.per_disk, "{}: per-disk repeatable", s.id());
        assert!(a.per_disk.iter().all(|d| d.pages_written > 0));
        // File sinks route every page through the reported phases, so the
        // member fold reproduces the deterministic totals.
        assert_eq!(a.per_disk.iter().map(|d| d.seeks).sum::<u64>(), det.seeks);
        assert_eq!(
            a.per_disk.iter().map(|d| d.pages_read).sum::<u64>(),
            det.pages_read
        );
        assert_eq!(
            a.per_disk.iter().map(|d| d.pages_written).sum::<u64>(),
            det.pages_written
        );
    }

    #[test]
    fn single_disk_scenarios_report_no_per_disk_breakdown() {
        let result = run_scenario(&scenario(GeneratorKind::Rs, 1)).unwrap();
        assert!(result.per_disk.is_empty());
    }

    #[test]
    fn contention_raises_simulated_latency_but_not_counters() {
        // A second admitted I/O client halves the stripe's fair-share
        // bandwidth for the whole run: simulated latency strictly grows
        // while every deterministic counter stays put.
        let run = |hold_extra_client: bool| {
            let device = "striped:2:sim:hdd-7200"
                .parse::<DeviceSpec>()
                .unwrap()
                .build()
                .unwrap();
            let _extra = hold_extra_client.then(|| {
                device
                    .attach_io_client()
                    .expect("striped devices admit clients")
            });
            let input = Distribution::new(DistributionKind::RandomUniform, 3_000, 7);
            SortJob::new(ReplacementSelection::new(200))
                .on(&device)
                .threads(2)
                .verify(true)
                .run_iter(input.records(), "sorted")
                .map(|report| {
                    let stats = device.stats();
                    (stats.counters, stats.sim_io, report.num_runs())
                })
                .unwrap()
        };
        let (solo_counters, solo_io, solo_runs) = run(false);
        let (contended_counters, contended_io, contended_runs) = run(true);
        assert_eq!(solo_counters, contended_counters);
        assert_eq!(solo_runs, contended_runs);
        assert!(
            contended_io > solo_io,
            "contended {contended_io:?} !> solo {solo_io:?}"
        );
    }

    #[test]
    fn record_types_sort_the_same_distribution() {
        for record_type in [RecordType::Record, RecordType::UserEvent, RecordType::U64] {
            let s = Scenario {
                record_type,
                ..scenario(GeneratorKind::Twrs, 1)
            };
            let result = run_scenario(&s).unwrap();
            assert!(result.io_consistent, "{}", s.id());
            assert!(result.verify.is_some());
            // Wider records move more pages for the same record count.
            assert!(result.deterministic().pages_written > 0);
        }
    }
}
