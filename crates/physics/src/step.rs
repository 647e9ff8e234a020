//! The physics step of one rank and its cost structure.
//!
//! One physics pass visits every owned column, runs longwave radiation
//! (always), shortwave (sunlit columns only) and cumulus adjustment
//! (unstable columns only), mutating the column profile and recording the
//! floating-point work. The *cost* of a column is a deterministic function
//! of (lat, lon, t) — which is what makes load estimation from the
//! previous pass a sensible strategy, exactly as the paper found.
//!
//! [`PhysicsStep`] runs the pass a latitude row at a time through the
//! batch [`ColumnKernel`]; [`run_column`] is the original per-column
//! formulation, kept as the oracle the kernel is tested against.

use crate::clouds::cloud_fraction;
use crate::convection::{adjust, adjustment_iterations, instability};
use crate::kernel::ColumnKernel;
use crate::radiation::{longwave, shortwave, solar_zenith_cos};
use agcm_grid::decomp::Subdomain;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use agcm_mps::comm::Comm;
use std::cell::RefCell;

/// Static configuration of the physics emulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicsConfig {
    /// Vertical layers per column.
    pub n_lev: usize,
    /// Per-column fixed overhead charged in flops (boundary layer, surface
    /// fluxes and the rest of the always-on parameterizations).
    pub base_flops: f64,
}

impl PhysicsConfig {
    /// Configuration matching a grid.
    pub fn for_grid(grid: &GridSpec) -> PhysicsConfig {
        PhysicsConfig {
            n_lev: grid.n_lev,
            base_flops: 500.0 * grid.n_lev as f64,
        }
    }
}

/// Execute the physics on one column profile in place; returns the flops
/// performed. This is the reference formulation — scalar, one column at a
/// time, every transcendental evaluated on the spot — and the oracle of
/// the batch kernel's equivalence tests; the model never calls it.
pub fn run_column(
    cfg: &PhysicsConfig,
    grid: &GridSpec,
    i: usize,
    j: usize,
    t: f64,
    column: &mut [f64],
) -> f64 {
    assert_eq!(column.len(), cfg.n_lev);
    let (lat, lon) = (grid.latitude(j), grid.longitude(i));
    let cloud = cloud_fraction(lat, lon, t);
    let mut flops = cfg.base_flops;
    // Base parameterizations: a cheap smoothing sweep standing in for PBL
    // and surface fluxes.
    for v in column.iter_mut() {
        *v += 1.0e-4 * (cloud - 0.5);
    }
    flops += longwave(column, cloud);
    let cosz = solar_zenith_cos(lat, lon, t);
    if cosz > 0.0 {
        flops += shortwave(column, cosz, cloud);
    }
    let iters = adjustment_iterations(instability(lat, lon, t));
    flops += adjust(column, iters);
    flops
}

/// The physics driver for one rank's subdomain.
pub struct PhysicsStep {
    sub: Subdomain,
    /// Forcing tables and kernel scratch, reused across passes.
    kernel: RefCell<ColumnKernel>,
}

impl PhysicsStep {
    /// Driver for one rank.
    pub fn new(grid: GridSpec, sub: Subdomain) -> PhysicsStep {
        PhysicsStep {
            sub,
            kernel: RefCell::new(ColumnKernel::new(&grid, 0.0)),
        }
    }

    /// Run physics on every owned column without load balancing. Records
    /// the flops on `comm` and returns the measured local load (flops) —
    /// the estimate used for the *next* pass's balancing, per §3.4:
    /// "a timing on the previous pass of physics component was performed
    /// at each processor and the result was used as an estimate".
    pub fn run_local(&self, comm: &Comm, theta: &mut HaloField, t: f64) -> f64 {
        let (ni, nj, _) = theta.shape();
        assert_eq!(
            (ni, nj),
            (self.sub.ni, self.sub.nj),
            "field must match the subdomain"
        );
        let mut kernel = self.kernel.borrow_mut();
        kernel.set_time(t);
        let mut total = 0.0;
        for j in 0..nj {
            total += kernel.run_row(theta, &self.sub, j, 0..ni);
        }
        comm.record_flops(total);
        total
    }

    /// Predicted total load (flops) of this subdomain at time `t`.
    pub fn predicted_load(&self, t: f64) -> f64 {
        let mut kernel = self.kernel.borrow_mut();
        kernel.set_time(t);
        let forcing = kernel.forcing();
        let mut total = 0.0;
        for j in self.sub.lats() {
            for i in self.sub.lons() {
                total += forcing.cost(i, j).flops;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcing::{ColumnCost, Forcing};
    use agcm_grid::decomp::Decomp;
    use agcm_mps::runtime::{run, run_traced};

    fn grid() -> GridSpec {
        GridSpec::new(36, 24, 9)
    }

    #[test]
    fn prediction_matches_execution() {
        let g = grid();
        let cfg = PhysicsConfig::for_grid(&g);
        let forcing = Forcing::new(&g, 7200.0);
        for (i, j) in [(0, 0), (17, 11), (35, 23), (9, 12)] {
            let predicted = forcing.cost(i, j).flops;
            let mut col = vec![0.5; g.n_lev];
            let actual = run_column(&cfg, &g, i, j, 7200.0, &mut col);
            assert_eq!(predicted, actual, "column ({i},{j})");
        }
    }

    #[test]
    fn day_columns_cost_more() {
        let g = grid();
        let forcing = Forcing::new(&g, 0.0);
        // Scan a latitude circle at high latitude (no convection noise
        // there — instability is negligible poleward) and compare day/night.
        let j = 22; // near-polar row
        let costs: Vec<ColumnCost> = (0..g.n_lon).map(|i| forcing.cost(i, j)).collect();
        let day_avg: f64 = {
            let d: Vec<f64> = costs.iter().filter(|c| c.day).map(|c| c.flops).collect();
            d.iter().sum::<f64>() / d.len() as f64
        };
        let night_avg: f64 = {
            let n: Vec<f64> = costs.iter().filter(|c| !c.day).map(|c| c.flops).collect();
            n.iter().sum::<f64>() / n.len() as f64
        };
        assert!(day_avg > night_avg, "day {day_avg} vs night {night_avg}");
    }

    #[test]
    fn tropics_cost_more_than_midlatitudes() {
        let g = grid();
        let forcing = Forcing::new(&g, 3600.0);
        let row_cost = |j: usize| -> f64 { (0..g.n_lon).map(|i| forcing.cost(i, j).flops).sum() };
        let equator = row_cost(12);
        let midlat = row_cost(20);
        assert!(equator > midlat, "equator {equator} vs midlat {midlat}");
    }

    #[test]
    fn run_local_returns_recorded_flops() {
        let g = grid();
        let d = Decomp::new(g, 2, 2);
        let (loads, trace) = run_traced(4, |c| {
            let sub = d.subdomain_of_rank(c.rank());
            let step = PhysicsStep::new(g, sub);
            let mut theta = HaloField::from_fn(sub.ni, sub.nj, g.n_lev, 1, |i, j, k| {
                (i + j + k) as f64 * 0.01
            });
            step.run_local(c, &mut theta, 1800.0)
        });
        let stats = trace.stats();
        for (rank, &load) in loads.iter().enumerate() {
            assert!((stats[rank].flops - load).abs() < 1e-6);
            assert!(load > 0.0);
        }
    }

    #[test]
    fn load_is_imbalanced_without_balancing() {
        // The situation of Tables 1-3: day/night plus convection produce a
        // double-digit percentage imbalance on a 2D mesh.
        let g = GridSpec::new(72, 46, 9);
        let d = Decomp::new(g, 4, 4);
        let loads = run(16, |c| {
            let sub = d.subdomain_of_rank(c.rank());
            PhysicsStep::new(g, sub).predicted_load(0.0)
        });
        let imb = crate::load::imbalance(&loads);
        assert!(imb > 0.10, "expected >10% imbalance, got {imb}");
    }

    #[test]
    fn predicted_load_matches_summed_columns() {
        let g = grid();
        let d = Decomp::new(g, 2, 3);
        let sub = d.subdomain_of_rank(4);
        let step = PhysicsStep::new(g, sub);
        let forcing = Forcing::new(&g, 500.0);
        let by_hand: f64 = sub
            .lats()
            .flat_map(|j| sub.lons().map(move |i| (i, j)))
            .map(|(i, j)| forcing.cost(i, j).flops)
            .sum();
        assert_eq!(step.predicted_load(500.0), by_hand);
    }
}
