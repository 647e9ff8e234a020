//! The batch column-physics kernel: many columns side by side.
//!
//! Column physics has no horizontal coupling, so a whole latitude row (or
//! any packed list of columns) can advance together with the *column* as
//! the inner loop index over level-major contiguous slices — the layout a
//! [`Field3D`] row already has. Base smoothing, the O(K²) longwave
//! exchange and the shortwave sweep become flat vectorizable loops; only
//! the data-dependent convective adjustment stays scalar, on the unstable
//! minority. Forcing comes from the [`Forcing`] tables, scratch is sized
//! once at construction, and a pass allocates nothing.
//!
//! The contract is bit-identity with the per-column oracle
//! [`run_column`](crate::step::run_column): every column sees the same
//! operations on the same operands in the same order. Two points deserve
//! the argument:
//!
//! * **Longwave, each pair once.** The oracle adds, to layer `i`'s `net`,
//!   `x_ij = e·(T_j − T_i)/(1 + (i−j)²)` for `j = 0..K`, `j ≠ i`. IEEE
//!   subtraction, multiplication and division are sign-symmetric, so
//!   `x_ji = −x_ij` exactly (when `T_i = T_j` the oracle adds `+0` where
//!   this kernel adds `−0`; both leave `net` unchanged, since `net` starts
//!   at `+0` and a sum is `−0` only if both operands are). The loop
//!   `for i { for j > i { net_i += x; net_j −= x } }` therefore computes
//!   each quotient once — K(K−1)/2 divides per column instead of K(K−1) —
//!   and still feeds every layer its partners in ascending order: lower
//!   partners arrive during earlier outer iterations, upper ones during
//!   its own. The divide is what bounds the kernel.
//! * **Night columns are skipped, not fed zeros**: `−0.0 + 0.0` is `+0.0`,
//!   so the shortwave loop selects the old value where the Sun is down.

use crate::convection::adjust;
use crate::forcing::Forcing;
use agcm_grid::decomp::Subdomain;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use std::ops::Range;

/// Columns advanced together. With nine levels the block's scratch and
/// its slice of the field stay within a 32 KiB L1.
const BLOCK: usize = 192;

/// Forcing tables plus the reusable scratch of the batch kernel.
#[derive(Debug, Clone)]
pub struct ColumnKernel {
    forcing: Forcing,
    // Per-column rows of the current block.
    cloud: Vec<f64>,
    cos_zenith: Vec<f64>,
    emissivity: Vec<f64>,
    transmitted: Vec<f64>,
    iters: Vec<usize>,
    /// Longwave net exchange, level-major over the block.
    net: Vec<f64>,
    /// `1 + d²` for layer distance `d`.
    damping: Vec<f64>,
    /// One gathered column for the scalar adjustment.
    column: Vec<f64>,
}

impl ColumnKernel {
    /// Kernel for `grid` with its tables at time `t`.
    pub fn new(grid: &GridSpec, t: f64) -> ColumnKernel {
        let k = grid.n_lev;
        ColumnKernel {
            forcing: Forcing::new(grid, t),
            cloud: vec![0.0; BLOCK],
            cos_zenith: vec![0.0; BLOCK],
            emissivity: vec![0.0; BLOCK],
            transmitted: vec![0.0; BLOCK],
            iters: vec![0; BLOCK],
            net: vec![0.0; BLOCK * k],
            damping: (0..k).map(|d| 1.0 + (d * d) as f64).collect(),
            column: vec![0.0; k],
        }
    }

    /// Move the forcing tables to time `t`.
    pub fn set_time(&mut self, t: f64) {
        self.forcing.set_time(t);
    }

    /// The forcing tables at the current time.
    pub fn forcing(&self) -> &Forcing {
        &self.forcing
    }

    /// Run the physics in place on columns `i` (local indices) of local
    /// row `j` of `theta`, the field of subdomain `sub`. Returns the flops
    /// performed.
    pub fn run_row(
        &mut self,
        theta: &mut Field3D,
        sub: &Subdomain,
        j: usize,
        i: Range<usize>,
    ) -> f64 {
        let (ni, nj, nk) = theta.shape();
        assert_eq!(nk, self.column.len(), "field levels must match the grid");
        assert!(j < nj && i.end <= ni, "row segment outside the field");
        let (gi0, gj) = (sub.i0 + i.start, sub.j0 + j);
        self.run(
            |c| (gi0 + c, gj),
            &mut theta.as_mut_slice()[j * ni + i.start..],
            ni * nj,
            i.len(),
        )
    }

    /// Run the physics on a packed level-major buffer: level `k` of column
    /// `c` is `data[k·n + c]`, and `coords(c)` is that column's global
    /// `(i, j)`. Returns the flops performed.
    pub fn run_packed(
        &mut self,
        coords: impl Fn(usize) -> (usize, usize),
        data: &mut [f64],
    ) -> f64 {
        let nk = self.column.len();
        assert_eq!(data.len() % nk, 0, "packed buffer must hold whole columns");
        let n = data.len() / nk;
        self.run(coords, data, n, n)
    }

    /// `n` columns whose level `k` is `data[k·stride..][..n]`, block by block.
    fn run(
        &mut self,
        coords: impl Fn(usize) -> (usize, usize),
        data: &mut [f64],
        stride: usize,
        n: usize,
    ) -> f64 {
        let mut flops = 0.0;
        for c0 in (0..n).step_by(BLOCK) {
            let m = BLOCK.min(n - c0);
            flops += self.run_block(|c| coords(c0 + c), &mut data[c0..], stride, m);
        }
        flops
    }

    fn run_block(
        &mut self,
        coords: impl Fn(usize) -> (usize, usize),
        data: &mut [f64],
        stride: usize,
        n: usize,
    ) -> f64 {
        let nk = self.column.len();
        let cloud = &mut self.cloud[..n];
        let cos_zenith = &mut self.cos_zenith[..n];
        let emissivity = &mut self.emissivity[..n];
        let transmitted = &mut self.transmitted[..n];
        let iters = &mut self.iters[..n];
        let net = &mut self.net[..nk * n];

        // Forcing of every column, from the tables.
        let mut flops = 0.0;
        for c in 0..n {
            let (i, j) = coords(c);
            let f = self.forcing.column(i, j);
            flops += self.forcing.flops(&f);
            cloud[c] = f.cloud;
            cos_zenith[c] = f.cos_zenith;
            emissivity[c] = 0.8 + 0.15 * f.cloud;
            transmitted[c] = f.cos_zenith.max(0.0) * (1.0 - 0.6 * f.cloud);
            iters[c] = f.convection_iters;
        }

        // Base parameterizations: the smoothing sweep.
        for k in 0..nk {
            for (v, &cl) in data[k * stride..][..n].iter_mut().zip(cloud.iter()) {
                *v += 1.0e-4 * (cl - 0.5);
            }
        }

        // Longwave: each layer pair once (module docs).
        net.fill(0.0);
        for i in 0..nk {
            for j in i + 1..nk {
                let d = self.damping[j - i];
                let (lower, upper) = net.split_at_mut(j * n);
                let net_i = &mut lower[i * n..][..n];
                let net_j = &mut upper[..n];
                let ti = &data[i * stride..][..n];
                let tj = &data[j * stride..][..n];
                for c in 0..n {
                    let x = emissivity[c] * (tj[c] - ti[c]) / d;
                    net_i[c] += x;
                    net_j[c] -= x;
                }
            }
        }
        for k in 0..nk {
            for (v, &x) in data[k * stride..][..n].iter_mut().zip(&net[k * n..][..n]) {
                *v += 1.0e-3 * x;
            }
        }

        // Shortwave: top-down two-stream sweep of the sunlit columns.
        for k in (0..nk).rev() {
            let row = &mut data[k * stride..][..n];
            for c in 0..n {
                let absorbed = 0.12 * transmitted[c];
                row[c] = if cos_zenith[c] > 0.0 {
                    row[c] + absorbed
                } else {
                    row[c]
                };
                transmitted[c] -= absorbed;
            }
        }

        // Convection: scalar, data-dependent, on the unstable minority.
        for c in (0..n).filter(|&c| iters[c] > 0) {
            for (k, v) in self.column.iter_mut().enumerate() {
                *v = data[k * stride + c];
            }
            adjust(&mut self.column, iters[c]);
            for (k, &v) in self.column.iter().enumerate() {
                data[k * stride + c] = v;
            }
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{run_column, PhysicsConfig};

    /// Level-major packed columns at scattered coordinates, against the
    /// oracle column by column.
    #[test]
    fn packed_columns_match_the_oracle_across_block_boundaries() {
        let g = GridSpec::new(36, 24, 5);
        let cfg = PhysicsConfig::for_grid(&g);
        let t = 30_000.0;
        let n = 2 * BLOCK + 7;
        let coords = |c: usize| ((c * 7) % g.n_lon, (c * 5) % g.n_lat);
        let value = |c: usize, k: usize| ((c * 13 + k * 29) % 97) as f64 * 0.1 - 4.0;
        let mut packed: Vec<f64> = (0..g.n_lev)
            .flat_map(|k| (0..n).map(move |c| value(c, k)))
            .collect();
        let flops = ColumnKernel::new(&g, t).run_packed(coords, &mut packed);
        let mut expected = 0.0;
        for c in 0..n {
            let mut col: Vec<f64> = (0..g.n_lev).map(|k| value(c, k)).collect();
            let (i, j) = coords(c);
            expected += run_column(&cfg, &g, i, j, t, &mut col);
            for (k, v) in col.iter().enumerate() {
                assert_eq!(
                    packed[k * n + c].to_bits(),
                    v.to_bits(),
                    "column {c} level {k}"
                );
            }
        }
        assert_eq!(flops, expected);
    }

    /// A row segment longer than a block, starting mid-row in a subdomain
    /// whose origin is not the grid's.
    #[test]
    fn long_row_segment_matches_the_oracle() {
        let g = GridSpec::new(3 * BLOCK, 4, 3);
        let cfg = PhysicsConfig::for_grid(&g);
        let t = 50_000.0;
        let sub = Subdomain {
            i0: BLOCK / 2,
            j0: 1,
            ni: 2 * BLOCK,
            nj: 2,
        };
        let before = Field3D::from_fn(sub.ni, sub.nj, g.n_lev, |i, j, k| {
            ((i * 31 + j * 17 + k * 7) % 89) as f64 * 0.07 - 3.0
        });
        let mut after = before.clone();
        let segment = 5..sub.ni - 3;
        let flops = ColumnKernel::new(&g, t).run_row(&mut after, &sub, 1, segment.clone());
        let mut expected = 0.0;
        for j in 0..sub.nj {
            for i in 0..sub.ni {
                let mut col = before.column(i, j);
                if j == 1 && segment.contains(&i) {
                    expected += run_column(&cfg, &g, sub.i0 + i, sub.j0 + j, t, &mut col);
                }
                assert_eq!(after.column(i, j), col, "column ({i},{j})");
            }
        }
        assert_eq!(flops, expected);
    }
}
