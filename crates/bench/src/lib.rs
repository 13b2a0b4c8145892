//! The measurement harness: the scenario-matrix bench suite and the
//! criterion benches.
//!
//! Everything measurable runs through [`suite`]: a declarative scenario
//! matrix executed by the `bench_suite` binary through `SortJob` into
//! machine-readable `BENCH_<id>.json` reports, with a deterministic-I/O
//! baseline gate CI runs on every PR. The paper's sort-based artefacts are
//! named matrices of the same suite; the quick matrix carries each of them
//! at quick scale, so the baseline pins their counters too. The Criterion
//! benches under `benches/` give wall-clock numbers for the main code
//! paths at micro scale.
//!
//! | Paper artefact | Reproduced by |
//! |---|---|
//! | Table 5.13 / conference Table 1 (run lengths) | `bench_suite --figure 5.13` |
//! | Figure 5.4 (run length vs buffer size) | `bench_suite --figure 5.4` |
//! | Figure 6.1 (merge cost vs fan-in) | `bench_suite --figure 6.1` |
//! | Figures 6.2–6.7 (RS vs 2WRS timing) | `bench_suite --figure 6.2` … `6.7` |
//! | Tables 5.2–5.11, Figure 5.2 (ANOVA) | example `anova_analysis` |
//! | Figure 3.8 (snowplow model) | example `snowplow_model` |
//! | Table 2.1 (polyphase merge) | example `polyphase_merge` |
//!
//! `bench_suite --figure all --scale quick|laptop|paper` runs every
//! figure; see [`suite::figures`].

#![warn(missing_docs)]

pub mod suite;
