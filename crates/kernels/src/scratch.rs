//! The reusable dynamics workspace — the `FftWorkspace` pattern applied
//! to the timestep.
//!
//! The reference path allocates six fresh [`HaloField`]s, one `h*` halo,
//! and seven tendency `Field3D`s *per timestep*. A [`DynScratch`] owns the
//! per-latitude [`MetricTables`] and the few row-length buffers the fused
//! [`crate::sweeps`] keep their tendencies and saved rows in — no buffer
//! the size of a field: the sweeps advance the state in place and `h*` is
//! the new thickness field itself. After the first step on a given
//! subdomain shape every buffer is reused, and the warmed-up compute path
//! performs **zero** heap allocations (enforced by `agcm-dynamics`'s
//! counting-allocator test).
//!
//! [`HaloField`]: agcm_grid::halo::HaloField

use crate::sweeps::ROW_BUFFERS;
use agcm_grid::latlon::GridSpec;
use agcm_grid::metrics::MetricTables;

/// Reusable buffers for one rank's dynamics timestep.
#[derive(Debug, Clone)]
pub struct DynScratch {
    /// `(ni, nj, nk, j0)` the buffers are currently sized for.
    shape: (usize, usize, usize, usize),
    /// Per-latitude metric tables for the subdomain.
    pub tables: MetricTables,
    /// Per-latitude Coriolis parameter (filled by the dynamical core,
    /// which owns Ω).
    pub f_cor: Vec<f64>,
    /// The sweeps' tendency and saved rows: [`ROW_BUFFERS`] × `ni`
    /// values, small enough to stay in L1 between producer and consumer.
    pub rows: Vec<f64>,
}

impl DynScratch {
    /// An empty scratch; buffers grow on the first [`DynScratch::ensure`].
    pub fn new() -> DynScratch {
        DynScratch {
            shape: (0, 0, 0, 0),
            tables: MetricTables::empty(),
            f_cor: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Size every buffer for an `ni × nj × n_lev` subdomain starting at
    /// global row `j0`. Returns `true` when the buffers were (re)built —
    /// the caller should then refresh anything it derives (e.g. the
    /// Coriolis table). A no-op (and allocation-free) when the shape is
    /// unchanged.
    pub fn ensure(&mut self, grid: &GridSpec, j0: usize, ni: usize, nj: usize) -> bool {
        let shape = (ni, nj, grid.n_lev, j0);
        if self.shape == shape {
            return false;
        }
        self.tables = MetricTables::new(grid, j0, nj);
        self.f_cor = vec![0.0; nj];
        self.rows = vec![0.0; ROW_BUFFERS * ni];
        self.shape = shape;
        true
    }
}

impl Default for DynScratch {
    fn default() -> DynScratch {
        DynScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_builds_once_per_shape() {
        let grid = GridSpec::new(16, 8, 2);
        let mut s = DynScratch::new();
        assert!(s.ensure(&grid, 0, 16, 8));
        assert_eq!(s.rows.len(), ROW_BUFFERS * 16);
        assert_eq!(s.tables.nj(), 8);
        // Same shape: nothing rebuilt.
        assert!(!s.ensure(&grid, 0, 16, 8));
        // New subdomain: rebuilt.
        assert!(s.ensure(&grid, 4, 16, 4));
        assert_eq!(s.tables.j0, 4);
        assert_eq!(s.f_cor.len(), 4);
    }
}
