//! The continuous "snowplow" model of replacement selection (§3.6).
//!
//! The paper models the memory contents of RS as a density `m(x, t)` over
//! the key space `[0, 1)` and the value currently being output as a
//! position `p(t)`:
//!
//! * `dp/dt = k₁ / m(p(t) mod 1, t)` — output advances slower where memory
//!   is denser (Equation 3.2);
//! * `∂m/∂t = (k₁/k₂) · data(x)` — new input raises the density following
//!   the input distribution (Equation 3.5);
//! * the density is cleared at the output position (Equation 3.4);
//! * `∫ m dx ≤ 1` — memory is bounded (Equation 3.1).
//!
//! For uniform input the stable solution has density `2 − 2x` ahead of the
//! plough and run length 2 (twice the memory); §3.6.1 verifies it and
//! Figure 3.8 shows numerically that an initially uniform density converges
//! to it within a few runs. [`SnowplowModel`] reproduces that numerical
//! experiment on a discretised density with a fourth-order Runge–Kutta
//! integrator for the plough position.

/// A snapshot of the density at the end of a run (one curve of Figure 3.8).
#[derive(Debug, Clone)]
pub struct SnowplowSnapshot {
    /// Index of the run that just completed (0 = state before the first
    /// run).
    pub run: usize,
    /// Length of the completed run relative to the memory size (undefined —
    /// 0 — for the initial snapshot).
    pub run_length: f64,
    /// The density `m(x)` sampled at the centre of each grid cell.
    pub density: Vec<f64>,
}

/// Numerical integration of the replacement-selection model.
#[derive(Debug, Clone)]
pub struct SnowplowModel {
    /// Number of grid cells discretising the key space `[0, 1)`.
    cells: usize,
    /// Input density `data(x)` sampled per cell (uniform input = all ones).
    data: Vec<f64>,
    /// Throughput constant k₁ (records output per unit time).
    k1: f64,
}

impl SnowplowModel {
    /// Creates the model for uniformly distributed input.
    pub fn uniform(cells: usize) -> Self {
        SnowplowModel {
            cells: cells.max(8),
            data: vec![1.0; cells.max(8)],
            k1: 1.0,
        }
    }

    /// Creates the model for an arbitrary input density; `data` is sampled
    /// per cell and normalised so that `∫ data dx = 1` (the paper's k₂).
    pub fn with_input_density(data: Vec<f64>) -> Self {
        let cells = data.len().max(8);
        let mut data = if data.len() < 8 { vec![1.0; 8] } else { data };
        let sum: f64 = data.iter().sum();
        if sum > 0.0 {
            let scale = cells as f64 / sum;
            for v in &mut data {
                *v *= scale;
            }
        }
        SnowplowModel {
            cells,
            data,
            k1: 1.0,
        }
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Simulates `runs` runs starting from the initial density `m(x, 0) = 1`
    /// (memory filled with uniformly distributed data, as in Figure 3.8) and
    /// returns one snapshot per completed run plus the initial state.
    pub fn simulate(&self, runs: usize) -> Vec<SnowplowSnapshot> {
        self.simulate_from(vec![1.0; self.cells], runs)
    }

    /// Simulates `runs` runs starting from an arbitrary initial density.
    pub fn simulate_from(&self, initial: Vec<f64>, runs: usize) -> Vec<SnowplowSnapshot> {
        let cells = self.cells;
        let dx = 1.0 / cells as f64;
        let mut density = initial;
        density.resize(cells, 0.0);
        // Normalise the initial memory contents to exactly fill the memory.
        let total: f64 = density.iter().sum::<f64>() * dx;
        if total > 0.0 {
            for v in &mut density {
                *v /= total;
            }
        }

        let mut snapshots = vec![SnowplowSnapshot {
            run: 0,
            run_length: 0.0,
            density: density.clone(),
        }];

        // Time step: small enough that the plough crosses a cell in several
        // steps even at its fastest.
        let dt = dx / (self.k1 * 8.0);
        let mut position = 0.0f64; // p(t) mod 1
        for run in 1..=runs {
            let mut swept = 0.0f64;
            loop {
                // Runge–Kutta 4 on dp/dt = k1 / m(p) with the density frozen
                // over the step (the density varies slowly compared with dt).
                let f = |p: f64, density: &[f64]| -> f64 {
                    let cell = ((p % 1.0) * cells as f64) as usize % cells;
                    let m = density[cell].max(1e-9);
                    self.k1 / m
                };
                let k1 = f(position, &density);
                let k2 = f(position + 0.5 * dt * k1, &density);
                let k3 = f(position + 0.5 * dt * k2, &density);
                let k4 = f(position + dt * k3, &density);
                let advance = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
                let end_position = position + advance;

                // Sweep every cell whose far edge the plough has now passed:
                // its mass is output of the current run (the path integral of
                // §3.6.1) and the cell is cleared (Equation 3.4). Working at
                // cell granularity keeps the removal exact for the density
                // that was in front of the plough.
                let first_cell = (position * cells as f64) as usize;
                let passed_cells = (end_position * cells as f64).floor() as usize;
                for cell_density in density
                    .iter_mut()
                    .take(passed_cells.min(cells))
                    .skip(first_cell)
                {
                    swept += *cell_density * dx;
                    *cell_density = 0.0;
                }

                // Refill from the input at rate k1/k2 · data(x): the total
                // inflow per unit time equals the throughput, keeping the
                // memory full (Equation 3.8).
                let inflow = self.k1 * dt;
                for (cell, value) in density.iter_mut().enumerate() {
                    *value += inflow * self.data[cell];
                }

                position = end_position;
                if position >= 1.0 {
                    position -= 1.0;
                    break;
                }
            }
            snapshots.push(SnowplowSnapshot {
                run,
                run_length: swept,
                density: density.clone(),
            });
        }
        snapshots
    }

    /// The stable density profile in front of the plough for uniform input,
    /// `m(x) = 2 − 2x` (§3.6.1), sampled at the cell centres relative to the
    /// plough position 0.
    pub fn stable_profile(&self) -> Vec<f64> {
        (0..self.cells)
            .map(|i| {
                let x = (i as f64 + 0.5) / self.cells as f64;
                2.0 - 2.0 * x
            })
            .collect()
    }
}

/// Root-mean-square difference between two densities (used to measure
/// convergence to the stable profile).
pub fn density_rms_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_input_converges_to_the_stable_profile() {
        // Figure 3.8: starting from m(x, 0) = 1 the density approaches
        // 2 − 2x within two or three runs.
        let model = SnowplowModel::uniform(256);
        let snapshots = model.simulate(4);
        let stable = model.stable_profile();
        let initial_distance = density_rms_distance(&snapshots[0].density, &stable);
        let final_distance = density_rms_distance(&snapshots[4].density, &stable);
        assert!(
            final_distance < initial_distance / 3.0,
            "density did not converge: initial {initial_distance}, final {final_distance}"
        );
        assert!(final_distance < 0.2, "final distance {final_distance}");
    }

    #[test]
    fn run_length_approaches_twice_the_memory() {
        // §3.5/§3.6.1: the stable run length for uniform input is 2×memory.
        let model = SnowplowModel::uniform(256);
        let snapshots = model.simulate(6);
        let last = snapshots.last().unwrap();
        assert!(
            (1.7..2.3).contains(&last.run_length),
            "run length {} not close to 2",
            last.run_length
        );
        // The first run starts from a uniform density and is shorter.
        assert!(snapshots[1].run_length < last.run_length);
    }

    #[test]
    fn memory_stays_bounded() {
        // Equation 3.1: ∫ m dx stays at (or below) the available memory.
        let model = SnowplowModel::uniform(128);
        let snapshots = model.simulate(5);
        for snapshot in &snapshots {
            let integral: f64 =
                snapshot.density.iter().sum::<f64>() / snapshot.density.len() as f64;
            assert!(integral < 1.3, "memory overflowed: {integral}");
            assert!(integral > 0.5, "memory drained: {integral}");
        }
    }

    #[test]
    fn starting_at_the_stable_profile_stays_there() {
        let model = SnowplowModel::uniform(256);
        let stable_start: Vec<f64> = (0..256)
            .map(|i| 2.0 - 2.0 * ((i as f64 + 0.5) / 256.0))
            .collect();
        let snapshots = model.simulate_from(stable_start, 3);
        let stable = model.stable_profile();
        for snapshot in snapshots.iter().skip(1) {
            let d = density_rms_distance(&snapshot.density, &stable);
            assert!(
                d < 0.15,
                "run {} drifted from the stable profile by {d}",
                snapshot.run
            );
            assert!((1.7..2.3).contains(&snapshot.run_length));
        }
    }

    #[test]
    fn skewed_input_density_changes_run_length() {
        // With input concentrated near 0 the plough crawls through the dense
        // region: the model still runs and memory stays bounded.
        let data: Vec<f64> = (0..128).map(|i| if i < 32 { 3.0 } else { 0.5 }).collect();
        let model = SnowplowModel::with_input_density(data);
        let snapshots = model.simulate(4);
        assert_eq!(snapshots.len(), 5);
        for s in snapshots.iter().skip(1) {
            assert!(s.run_length > 0.5);
        }
    }

    #[test]
    fn tiny_grids_are_padded() {
        let model = SnowplowModel::uniform(2);
        assert!(model.cells() >= 8);
        let model = SnowplowModel::with_input_density(vec![1.0; 3]);
        assert!(model.cells() >= 8);
    }

    #[test]
    fn uniform_density_falls_with_x_after_three_runs() {
        // Figure 3.8: the density near x = 0.1 grows toward 1.8 and near
        // x = 0.9 falls toward 0.2 (the 2 − 2x profile).
        let snapshots = SnowplowModel::uniform(128).simulate(3);
        assert_eq!(snapshots.len(), 4);
        let last = snapshots.last().unwrap();
        let (low, high) = (last.density[12], last.density[115]);
        assert!(
            low > high,
            "profile should decrease with x ({low} vs {high})"
        );
    }
}
