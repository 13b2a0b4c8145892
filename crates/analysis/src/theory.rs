//! Closed-form run-length results (§3.5 and §5.1, Theorems 1–7).
//!
//! These are the paper's analytical expectations for the average run length
//! of classic replacement selection and of 2WRS on the six evaluation
//! inputs, expressed relative to the memory size (the metric of
//! Table 5.13). They serve as oracles for the integration tests and as the
//! "RS theory" and "2WRS theory" columns of `bench_suite --figure 5.13`.

use twrs_workloads::DistributionKind;

/// An analytical expectation for a relative run length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expectation {
    /// The algorithm produces a single run containing the whole input
    /// (reported as `inf` in Table 5.13).
    SingleRun,
    /// The average run length is (approximately) this multiple of the
    /// memory size.
    RelativeToMemory(f64),
    /// The average run length is (approximately) this multiple of the
    /// *input* size (used for the mixed datasets, where the paper reports
    /// two runs regardless of the memory size).
    FractionOfInput(f64),
}

impl Expectation {
    /// Converts the expectation into a relative-to-memory figure for a
    /// concrete input size and memory budget, so it can be compared with a
    /// measured value.
    pub fn relative_run_length(&self, records: u64, memory: usize) -> f64 {
        match self {
            Expectation::SingleRun => records as f64 / memory as f64,
            Expectation::RelativeToMemory(x) => *x,
            Expectation::FractionOfInput(fraction) => records as f64 * fraction / memory as f64,
        }
    }

    /// Formats the expectation the way Table 5.13 does (`inf`, a multiple of
    /// memory, or a multiple derived from the input size).
    pub fn label(&self, records: u64, memory: usize) -> String {
        match self {
            Expectation::SingleRun => "inf (1 run)".to_string(),
            Expectation::RelativeToMemory(x) => format!("{x:.2}"),
            Expectation::FractionOfInput(fraction) => {
                format!("{:.1}", records as f64 * fraction / memory as f64)
            }
        }
    }
}

/// Expected relative run length of classic replacement selection
/// (Theorems 1, 3, 5 and the snowplow result of §3.5).
pub fn rs_expected_relative_run_length(
    kind: DistributionKind,
    records: u64,
    memory: usize,
) -> Expectation {
    match kind {
        // Theorem 1: a single run.
        DistributionKind::Sorted => Expectation::SingleRun,
        // Theorem 3: runs of exactly the memory size.
        DistributionKind::ReverseSorted => Expectation::RelativeToMemory(1.0),
        // Theorem 5: about twice the memory when the sections are much
        // longer than the memory (1.94 measured in §5.2.3).
        DistributionKind::Alternating { sections } => {
            let section_len = records / u64::from(sections.max(1));
            Expectation::RelativeToMemory(
                theorem_5_average(section_len, memory as u64) / memory as f64,
            )
        }
        // §3.5 snowplow argument: twice the memory.
        DistributionKind::RandomUniform => Expectation::RelativeToMemory(2.0),
        // §5.2.5/§5.2.6: RS sees the mixed datasets as unpredictable and
        // stays at about twice the memory.
        DistributionKind::MixedBalanced | DistributionKind::MixedImbalanced { .. } => {
            Expectation::RelativeToMemory(2.0)
        }
        // Displacement bounded by the memory size is absorbed entirely by
        // the selection heap (the snowplow never runs dry), so the input
        // behaves like sorted input; beyond the bound it degrades towards
        // random input.
        DistributionKind::AlmostSorted { max_displacement } => {
            if max_displacement as usize <= memory {
                Expectation::SingleRun
            } else {
                Expectation::RelativeToMemory(2.0)
            }
        }
        // Low cardinality does not help RS: arrival order is still random,
        // so the snowplow argument gives twice the memory.
        DistributionKind::DuplicateHeavy { .. } => Expectation::RelativeToMemory(2.0),
    }
}

/// Expected relative run length of 2WRS with a good configuration
/// (Theorems 2, 4, 6 and the Chapter 5 statistical results).
pub fn twrs_expected_relative_run_length(
    kind: DistributionKind,
    records: u64,
    memory: usize,
) -> Expectation {
    let _ = records;
    match kind {
        // Theorem 2.
        DistributionKind::Sorted => Expectation::SingleRun,
        // Theorem 4 — the headline improvement over RS.
        DistributionKind::ReverseSorted => Expectation::SingleRun,
        // Theorem 6: one run per monotone section.
        DistributionKind::Alternating { sections } => {
            Expectation::FractionOfInput(1.0 / f64::from(sections.max(1)))
        }
        // §5.2.4: same as RS.
        DistributionKind::RandomUniform => Expectation::RelativeToMemory(2.0),
        // Table 5.13: two runs for the mixed datasets (125 × memory for the
        // paper's 25 M records / 100 K memory setting).
        DistributionKind::MixedBalanced | DistributionKind::MixedImbalanced { .. } => {
            Expectation::FractionOfInput(0.5)
        }
        // 2WRS is never worse than RS on nearly-sorted input: the ascending
        // heap alone absorbs the bounded displacement.
        DistributionKind::AlmostSorted { max_displacement } => {
            if max_displacement as usize <= memory {
                Expectation::SingleRun
            } else {
                Expectation::RelativeToMemory(2.0)
            }
        }
        // §5.2.4 carries over: random arrival order, twice the memory.
        DistributionKind::DuplicateHeavy { .. } => Expectation::RelativeToMemory(2.0),
    }
}

/// Expected relative run length of Load-Sort-Store, which fills memory,
/// sorts it and stores it: runs of exactly the memory size regardless of
/// the input distribution (§2.1.1) — a single run only when the whole input
/// fits in memory.
pub fn lss_expected_relative_run_length(
    _kind: DistributionKind,
    records: u64,
    memory: usize,
) -> Expectation {
    if records as usize <= memory {
        Expectation::SingleRun
    } else {
        Expectation::RelativeToMemory(1.0)
    }
}

/// Dispatches the analytical run-length expectation by the generator label
/// reported by the sorting pipeline (`"RS"`, `"LSS"`, `"2WRS"`); `None` for
/// generators without a closed-form expectation.
pub fn expected_relative_run_length(
    generator: &str,
    kind: DistributionKind,
    records: u64,
    memory: usize,
) -> Option<Expectation> {
    match generator {
        "RS" => Some(rs_expected_relative_run_length(kind, records, memory)),
        "LSS" => Some(lss_expected_relative_run_length(kind, records, memory)),
        "2WRS" => Some(twrs_expected_relative_run_length(kind, records, memory)),
        _ => None,
    }
}

/// Theorem 5's exact average run length (in records) for alternating input
/// with sections of `section_len` records and memory `memory`:
/// `2k / (1 + floor(k/m - 1/2))`.
pub fn theorem_5_average(section_len: u64, memory: u64) -> f64 {
    if memory == 0 || section_len == 0 {
        return 0.0;
    }
    let k = section_len as f64;
    let m = memory as f64;
    let denominator = 1.0 + (k / m - 0.5).floor().max(0.0);
    2.0 * k / denominator
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_5_limit_is_twice_memory() {
        // For k >> m the average tends to 2m.
        let avg = theorem_5_average(1_000_000, 1_000);
        assert!((avg / 1_000.0 - 2.0).abs() < 0.01);
        // And the maximum stated in the proof is 2m exactly when k is a
        // multiple of m.
        let avg = theorem_5_average(100_000, 100);
        assert!((avg - 200.0).abs() < 0.5);
    }

    #[test]
    fn theorem_5_degenerate_cases() {
        assert_eq!(theorem_5_average(0, 100), 0.0);
        assert_eq!(theorem_5_average(100, 0), 0.0);
        // Sections shorter than memory: a single "merge" of consecutive
        // sections, at least 2k.
        assert!(theorem_5_average(50, 100) >= 100.0);
    }

    #[test]
    fn expectations_match_table_5_13_shape() {
        let records = 25_000_000u64;
        let memory = 100_000usize;
        // RS row of Table 5.13.
        assert_eq!(
            rs_expected_relative_run_length(DistributionKind::ReverseSorted, records, memory),
            Expectation::RelativeToMemory(1.0)
        );
        let rs_alt = rs_expected_relative_run_length(
            DistributionKind::Alternating { sections: 50 },
            records,
            memory,
        );
        match rs_alt {
            Expectation::RelativeToMemory(x) => assert!((1.8..2.1).contains(&x)),
            _ => panic!("alternating RS expectation should be relative to memory"),
        }
        // 2WRS row: mixed = 125 × memory for the paper's sizes.
        let twrs_mixed =
            twrs_expected_relative_run_length(DistributionKind::MixedBalanced, records, memory);
        assert!((twrs_mixed.relative_run_length(records, memory) - 125.0).abs() < 1e-9);
        // 2WRS alternating = 50 runs → 5 × memory for the paper's sizes.
        let twrs_alt = twrs_expected_relative_run_length(
            DistributionKind::Alternating { sections: 50 },
            records,
            memory,
        );
        assert!((twrs_alt.relative_run_length(records, memory) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn almost_sorted_expectation_switches_on_the_memory_bound() {
        let kind = DistributionKind::AlmostSorted {
            max_displacement: 100,
        };
        assert_eq!(
            rs_expected_relative_run_length(kind, 10_000, 200),
            Expectation::SingleRun
        );
        assert_eq!(
            rs_expected_relative_run_length(kind, 10_000, 50),
            Expectation::RelativeToMemory(2.0)
        );
        assert_eq!(
            twrs_expected_relative_run_length(kind, 10_000, 200),
            Expectation::SingleRun
        );
    }

    #[test]
    fn lss_runs_are_exactly_the_memory_size() {
        let kind = DistributionKind::RandomUniform;
        assert_eq!(
            lss_expected_relative_run_length(kind, 10_000, 500),
            Expectation::RelativeToMemory(1.0)
        );
        assert_eq!(
            lss_expected_relative_run_length(kind, 400, 500),
            Expectation::SingleRun
        );
    }

    #[test]
    fn dispatcher_matches_pipeline_labels() {
        let kind = DistributionKind::DuplicateHeavy { distinct: 16 };
        assert_eq!(
            expected_relative_run_length("RS", kind, 10_000, 500),
            Some(Expectation::RelativeToMemory(2.0))
        );
        assert_eq!(
            expected_relative_run_length("LSS", kind, 10_000, 500),
            Some(Expectation::RelativeToMemory(1.0))
        );
        assert_eq!(
            expected_relative_run_length("2WRS", kind, 10_000, 500),
            Some(Expectation::RelativeToMemory(2.0))
        );
        assert_eq!(expected_relative_run_length("DS", kind, 10_000, 500), None);
    }

    #[test]
    fn labels_are_table_like() {
        assert_eq!(
            twrs_expected_relative_run_length(DistributionKind::Sorted, 1_000, 10).label(1_000, 10),
            "inf (1 run)"
        );
        assert_eq!(
            rs_expected_relative_run_length(DistributionKind::RandomUniform, 1_000, 10)
                .label(1_000, 10),
            "2.00"
        );
    }
}
