//! Composite workloads built from the basic distributions.
//!
//! The paper argues (§5.2, Chapter 7) that the six basic shapes are the
//! building blocks of realistic database inputs: a column anticorrelated
//! with the current sort order yields a reverse-sorted input, and so on.
//! This module provides that scenario so examples and integration tests
//! can exercise it.

use crate::distributions::KEY_RANGE;
use crate::record::Record;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A two-column table where column `b` is anticorrelated with column `a`.
///
/// When the table is stored sorted by `a` and a query needs it ordered by
/// `b`, the sort operator receives a reverse-sorted input — the worst case
/// of classic replacement selection and the motivating scenario of the
/// paper's introduction.
#[derive(Debug, Clone)]
pub struct AnticorrelatedTable {
    rows: u64,
    seed: u64,
    noise: u64,
}

impl AnticorrelatedTable {
    /// Creates a table with `rows` rows using `seed` for the per-row noise.
    pub fn new(rows: u64, seed: u64) -> Self {
        AnticorrelatedTable {
            rows,
            seed,
            noise: 1_000,
        }
    }

    /// Sets the magnitude of the noise added to the anticorrelation
    /// (`b = KEY_RANGE - a ± noise`).
    pub fn with_noise(mut self, noise: u64) -> Self {
        self.noise = noise;
        self
    }

    /// Number of rows in the table.
    pub fn len(&self) -> u64 {
        self.rows
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Iterates over `(a, b)` pairs in storage order (sorted by `a`).
    pub fn rows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.rows.max(1);
        let step = (KEY_RANGE / n).max(1);
        let noise = self.noise;
        (0..self.rows).map(move |i| {
            let a = i * step;
            let jitter = if noise == 0 {
                0
            } else {
                rng.gen_range(0..=noise)
            };
            let b = KEY_RANGE.saturating_sub(a).saturating_add(jitter);
            (a, b)
        })
    }

    /// The input seen by a sort on column `b` while the table is scanned in
    /// `a` order: a (jittered) reverse-sorted stream.
    pub fn sort_by_b_input(&self) -> impl Iterator<Item = Record> + '_ {
        self.rows()
            .enumerate()
            .map(|(i, (_a, b))| Record::new(b, i as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anticorrelated_table_is_sorted_by_a() {
        let table = AnticorrelatedTable::new(1_000, 3);
        let a_values: Vec<u64> = table.rows().map(|(a, _)| a).collect();
        assert!(a_values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_by_b_sees_reverse_sorted_input() {
        let table = AnticorrelatedTable::new(1_000, 3).with_noise(0);
        let b_keys: Vec<u64> = table.sort_by_b_input().map(|r| r.key).collect();
        assert!(b_keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn noise_keeps_global_trend() {
        let table = AnticorrelatedTable::new(10_000, 9).with_noise(1_000);
        let b_keys: Vec<u64> = table.sort_by_b_input().map(|r| r.key).collect();
        assert!(b_keys.first().unwrap() > b_keys.last().unwrap());
        let descending = b_keys.windows(2).filter(|w| w[1] <= w[0]).count();
        assert!(descending as f64 / (b_keys.len() - 1) as f64 > 0.5);
    }
}
