//! The batch column-physics kernel: many columns side by side.
//!
//! Column physics has no horizontal coupling, so a whole latitude row (or
//! any packed list of columns) can advance together with the *column* as
//! the inner loop index over level-major contiguous slices — the layout a
//! [`HaloField`] row segment already has. The forcing fill (from the
//! [`Forcing`] tables, no hash left in it), smoothing, the O(K²) longwave
//! exchange, the shortwave sweep and the convective adjustment are flat
//! loops over the block's columns in one body, compiled portable / AVX2 /
//! AVX-512F and picked at run time by `agcm_grid::dispatched!`. Scratch
//! is sized once, and a warmed pass allocates nothing.
//!
//! The contract is bit-identity with the per-column oracle
//! [`run_column`](crate::step::run_column): every column sees the same
//! operations on the same operands in the same order. Each lane's chain
//! uses only its own column's operands and no `mul_add` is written, so
//! every compilation of the body gives the same bits. Three points
//! deserve the argument:
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
//! * **Convection, lane-batched under a mask.** Round `r` of every
//!   column's adjustment runs at once, in place; a lane mixes a pair only
//!   where `r < iters[c]` and the excess is positive, and otherwise
//!   selects its old values, so each column sees its own sweeps only. A
//!   round that mixes nothing changes nothing, so every later round would
//!   mix nothing too: the loop stops there, not at the largest `iters`.
//!
//! Flops are counted as integers (sunlit columns, adjustment iterations)
//! and scaled once per block, exactly, since every charge is whole.

use crate::forcing::{Forcing, RowForcing};
use agcm_grid::decomp::Subdomain;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use std::ops::Range;

/// Columns advanced together. With nine levels the block's scratch and
/// its slice of the field stay within a 32 KiB L1.
const BLOCK: usize = 192;

/// Forcing tables plus the reusable scratch of the batch kernel.
#[derive(Debug, Clone)]
pub struct ColumnKernel {
    forcing: Forcing,
    scratch: Scratch,
}

/// Per-column rows of the current block and the longwave's work space.
#[derive(Debug, Clone)]
struct Scratch {
    cloud: Vec<f64>,
    cos_zenith: Vec<f64>,
    emissivity: Vec<f64>,
    transmitted: Vec<f64>,
    iters: Vec<usize>,
    /// Longwave net exchange, level-major over the block.
    net: Vec<f64>,
    /// `1 + d²` for layer distance `d`.
    damping: Vec<f64>,
}

impl Scratch {
    /// Scratch for blocks of up to `columns` columns of `k` levels.
    fn new(k: usize, columns: usize) -> Scratch {
        Scratch {
            cloud: vec![0.0; columns],
            cos_zenith: vec![0.0; columns],
            emissivity: vec![0.0; columns],
            transmitted: vec![0.0; columns],
            iters: vec![0; columns],
            net: vec![0.0; columns * k],
            damping: (0..k).map(|d| 1.0 + (d * d) as f64).collect(),
        }
    }
}

impl ColumnKernel {
    /// Kernel for `grid` with its tables at time `t`.
    pub fn new(grid: &GridSpec, t: f64) -> ColumnKernel {
        ColumnKernel {
            forcing: Forcing::new(grid, t),
            scratch: Scratch::new(grid.n_lev, BLOCK),
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
        theta: &mut HaloField,
        sub: &Subdomain,
        j: usize,
        i: Range<usize>,
    ) -> f64 {
        let nk = self.scratch.damping.len();
        assert_eq!(theta.shape().2, nk, "field levels must match the grid");
        let (columns, stride) = theta.columns_mut(j, i.clone());
        let mut flops = 0.0;
        for c0 in i.clone().step_by(BLOCK) {
            let block = c0..i.end.min(c0 + BLOCK);
            let n = block.len();
            let row = self.forcing.row(sub, j, block);
            let data = &mut columns[c0 - i.start..];
            let (sunlit, iterations) =
                physics_block(Some(&row), data, stride, n, &mut self.scratch);
            flops += self.forcing.flops(n, sunlit, iterations);
        }
        flops
    }

    /// Run the physics on a packed level-major buffer: level `k` of column
    /// `c` is `data[k·n + c]`, and `coords(c)` is that column's global
    /// `(i, j)`. Returns the flops performed.
    pub fn run_packed(
        &mut self,
        coords: impl Fn(usize) -> (usize, usize),
        data: &mut [f64],
    ) -> f64 {
        let nk = self.scratch.damping.len();
        assert_eq!(data.len() % nk, 0, "packed buffer must hold whole columns");
        let n = data.len() / nk;
        let mut flops = 0.0;
        for c0 in (0..n).step_by(BLOCK) {
            let m = BLOCK.min(n - c0);
            let s = &mut self.scratch;
            for c in 0..m {
                let (i, j) = coords(c0 + c);
                let f = self.forcing.column(i, j);
                s.cloud[c] = f.cloud;
                s.cos_zenith[c] = f.cos_zenith;
                s.iters[c] = f.convection_iters;
            }
            let (sunlit, iterations) = physics_block(None, &mut data[c0..], n, m, s);
            flops += self.forcing.flops(m, sunlit, iterations);
        }
        flops
    }
}

agcm_grid::dispatched! {
    /// The physics of `n` columns whose level `k` is
    /// `data[k·stride..][..n]`, their forcing filled from `row` or, if
    /// `None`, already in the rows of `s`. Returns how many are sunlit
    /// and their adjustment iterations in all.
    fn physics_block / block_body / block_avx2 / block_avx512 (
        row: Option<&RowForcing>,
        data: &mut [f64],
        stride: usize,
        n: usize,
        s: &mut Scratch,
    ) -> (usize, usize) {
        let nk = s.damping.len();
        if let Some(row) = row {
            row.fill(&mut s.cloud[..n], &mut s.cos_zenith[..n], &mut s.iters[..n]);
        }
        let cloud = &s.cloud[..n];
        let cos_zenith = &s.cos_zenith[..n];
        let emissivity = &mut s.emissivity[..n];
        let transmitted = &mut s.transmitted[..n];
        let iters = &s.iters[..n];
        let net = &mut s.net[..nk * n];
        let (mut sunlit, mut iterations) = (0, 0);
        for c in 0..n {
            emissivity[c] = 0.8 + 0.15 * cloud[c];
            transmitted[c] = cos_zenith[c].max(0.0) * (1.0 - 0.6 * cloud[c]);
            sunlit += usize::from(cos_zenith[c] > 0.0);
            iterations += iters[c];
        }

        // Base parameterizations: the smoothing sweep.
        for k in 0..nk {
            for (v, &cl) in data[k * stride..][..n].iter_mut().zip(cloud) {
                *v += 1.0e-4 * (cl - 0.5);
            }
        }

        // Longwave: each layer pair once (module docs).
        net.fill(0.0);
        for i in 0..nk {
            for j in i + 1..nk {
                let d = s.damping[j - i];
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

        // Convection: every column's rounds side by side, in place, each
        // lane masked off once its own are done (module docs).
        let rounds = iters.iter().copied().max().unwrap_or(0);
        for r in 0..rounds {
            let mut mixed = false;
            for k in 0..nk.saturating_sub(1) {
                let (lower, upper) = data.split_at_mut((k + 1) * stride);
                let below = &mut lower[k * stride..][..n];
                let above = &mut upper[..n];
                for ((b, a), &it) in below.iter_mut().zip(above).zip(iters) {
                    let excess = *b - *a - 0.1;
                    let flux = 0.5 * excess;
                    let mix = (r < it) & (excess > 0.0);
                    mixed |= mix;
                    *b = if mix { *b - flux } else { *b };
                    *a = if mix { *a + flux } else { *a };
                }
            }
            if !mixed {
                break;
            }
        }
        (sunlit, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{run_column, PhysicsConfig};
    use agcm_grid::decomp::Decomp;

    /// A compilation of the block.
    type Block =
        unsafe fn(Option<&RowForcing>, &mut [f64], usize, usize, &mut Scratch) -> (usize, usize);

    /// The whole-grid field of `grid` after one compilation of the block
    /// has run over every row at time `t` in segments of `len` columns,
    /// each segment's forcing filled by the block (`from_rows`) or packed
    /// in by hand, and the counts each segment returned.
    fn run_with(
        f: Block,
        grid: GridSpec,
        t: f64,
        len: usize,
        from_rows: bool,
    ) -> (Vec<u64>, Vec<(usize, usize)>) {
        let sub = Decomp::new(grid, 1, 1).subdomain_of_rank(0);
        let mut forcing = Forcing::new(&grid, t);
        let mut scratch = Scratch::new(grid.n_lev, len);
        // LCG temperatures in (−6, 6) with signed zeros, so convection
        // mixes and some lanes stop before others.
        let mut state = 17_u64;
        let mut theta = HaloField::from_fn(sub.ni, sub.nj, grid.n_lev, 1, |_, _, _| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (state >> 8) % 16 {
                0 => 0.0,
                1 => -0.0,
                _ => ((state >> 11) as f64 / (1u64 << 53) as f64) * 12.0 - 6.0,
            }
        });
        let mut counts = Vec::new();
        for j in 0..sub.nj {
            for c0 in (0..sub.ni).step_by(len) {
                let block = c0..sub.ni.min(c0 + len);
                let n = block.len();
                let (data, stride) = theta.columns_mut(j, block.clone());
                let row = if from_rows {
                    Some(forcing.row(&sub, j, block))
                } else {
                    for (c, i) in block.enumerate() {
                        let col = forcing.column(i, j);
                        scratch.cloud[c] = col.cloud;
                        scratch.cos_zenith[c] = col.cos_zenith;
                        scratch.iters[c] = col.convection_iters;
                    }
                    None
                };
                // SAFETY: callers pass a target-feature wrapper only
                // after detecting that feature; the others are safe.
                counts.push(unsafe { f(row.as_ref(), data, stride, n, &mut scratch) });
            }
        }
        let bits = theta
            .interior_rows()
            .flatten()
            .map(|v| v.to_bits())
            .collect();
        (bits, counts)
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // No public switch selects a target, so the private wrappers are
        // compared here: whatever the CPU supports must reproduce the
        // portable compilation to the last bit, vector tails included.
        // The paper grid in whole rows; blocks of 1, 7 and 193 columns
        // (the last longer than a kernel block); rows of 37 and 50.
        let cases = [
            (GridSpec::paper_9_layer(), 144),
            (GridSpec::new(400, 5, 9), 1),
            (GridSpec::new(400, 5, 9), 7),
            (GridSpec::new(400, 5, 9), 193),
            (GridSpec::new(37, 13, 9), 37),
            (GridSpec::new(50, 17, 5), 50),
        ];
        for (grid, len) in cases {
            for (t, from_rows) in [(21_600.0, true), (64_800.25, false)] {
                let case = format!("{grid:?}, blocks of {len}, t={t}");
                let portable = run_with(block_body, grid, t, len, from_rows);
                let dispatched = run_with(physics_block, grid, t, len, from_rows);
                assert!(portable == dispatched, "{case}: dispatched target");
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx2") {
                        let avx2 = run_with(block_avx2, grid, t, len, from_rows);
                        assert!(portable == avx2, "{case}: avx2");
                    }
                    if is_x86_feature_detected!("avx512f") {
                        let avx512 = run_with(block_avx512, grid, t, len, from_rows);
                        assert!(portable == avx512, "{case}: avx512f");
                    }
                }
            }
        }
    }

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
        let before = HaloField::from_fn(sub.ni, sub.nj, g.n_lev, 1, |i, j, k| {
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
