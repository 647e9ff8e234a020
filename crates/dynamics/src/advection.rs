//! Advection: the model's upwind operator, plus the naive/restructured
//! pair from the paper's single-node study.
//!
//! §3.4: "We selected the advection routine from the Dynamics component …
//! as the representative candidate for single-node performance analysis
//! … eliminating or minimizing redundant calculations in nested loops …
//! enforcing loop-unrolling on some large loops. When applying these
//! strategies to the advection routine, we were able to reduce its
//! execution time on a single Cray T3D node by about 35%."
//!
//! [`advect_naive`] transliterates the original style: one big fused loop
//! that re-derives every metric factor and reciprocal at every grid point.
//! [`advect_restructured`] applies the paper's machine-independent fixes:
//! hoist latitude-dependent factors out of the inner loop, precompute
//! reciprocals once per row, and unroll the inner loop by four. Both
//! produce identical tendencies, which the tests check; the speed gap is
//! measured in `agcm-bench`.

use agcm_grid::field::Field3D;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::{GridSpec, EARTH_RADIUS_M};

/// First-order upwind advective tendency `−(u ∂q/∂x + v ∂q/∂y)` on a
/// halo-exchanged field — the operator the time stepper uses (monotone and
/// stable at CFL ≤ 1).
pub fn upwind_tendency(
    q: &HaloField,
    u: &HaloField,
    v: &HaloField,
    grid: &GridSpec,
    j0: usize,
) -> Field3D {
    let (ni, nj, nk) = q.shape();
    let dlon = grid.dlon();
    let dlat = grid.dlat();
    Field3D::from_fn(ni, nj, nk, |i, j, k| {
        let cos = grid.latitude(j0 + j).cos();
        let dx = EARTH_RADIUS_M * cos * dlon;
        let dy = EARTH_RADIUS_M * dlat;
        let (ii, jj) = (i as isize, j as isize);
        let uu = u.get(ii, jj, k);
        let vv = v.get(ii, jj, k);
        let dqdx = if uu >= 0.0 {
            (q.get(ii, jj, k) - q.get(ii - 1, jj, k)) / dx
        } else {
            (q.get(ii + 1, jj, k) - q.get(ii, jj, k)) / dx
        };
        let dqdy = if vv >= 0.0 {
            (q.get(ii, jj, k) - q.get(ii, jj - 1, k)) / dy
        } else {
            (q.get(ii, jj + 1, k) - q.get(ii, jj, k)) / dy
        };
        -(uu * dqdx + vv * dqdy)
    })
}

/// Shape descriptor for the flat-array single-node kernels: interior
/// points only, `i` fastest.
#[derive(Debug, Clone, Copy)]
pub struct AdvShape {
    /// Longitude points.
    pub ni: usize,
    /// Latitude points.
    pub nj: usize,
    /// Levels.
    pub nk: usize,
}

impl AdvShape {
    fn len(&self) -> usize {
        self.ni * self.nj * self.nk
    }
    #[inline]
    fn at(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.nj + j) * self.ni + i
    }
}

/// Naive centred advection tendency, original style: everything recomputed
/// in the innermost loop (periodic in `i`, one-sided at the `j` edges).
pub fn advect_naive(
    q: &[f64],
    u: &[f64],
    v: &[f64],
    shape: AdvShape,
    grid: &GridSpec,
    j0: usize,
) -> Vec<f64> {
    let mut out = vec![0.0; shape.len()];
    for k in 0..shape.nk {
        for j in 0..shape.nj {
            for i in 0..shape.ni {
                // Redundant work, faithfully reproduced: the metric terms,
                // trig and divisions are re-derived per point.
                let lat = -std::f64::consts::FRAC_PI_2
                    + ((j0 + j) as f64 + 0.5) * (std::f64::consts::PI / grid.n_lat as f64);
                let dx =
                    EARTH_RADIUS_M * lat.cos() * (2.0 * std::f64::consts::PI / grid.n_lon as f64);
                let dy = EARTH_RADIUS_M * (std::f64::consts::PI / grid.n_lat as f64);
                let ip = shape.at((i + 1) % shape.ni, j, k);
                let im = shape.at((i + shape.ni - 1) % shape.ni, j, k);
                let jp = shape.at(i, (j + 1).min(shape.nj - 1), k);
                let jm = shape.at(i, j.saturating_sub(1), k);
                let c = shape.at(i, j, k);
                let dqdx = (q[ip] - q[im]) / (2.0 * dx);
                let dqdy = (q[jp] - q[jm]) / (2.0 * dy);
                out[c] = -(u[c] * dqdx + v[c] * dqdy);
            }
        }
    }
    out
}

/// Restructured advection: identical arithmetic, with the paper's fixes —
/// metric factors and reciprocals hoisted out of the inner loop, and the
/// periodic wrap-around peeled into prologue/epilogue so the hot span is a
/// branch-free, modulo-free streaming loop the compiler can vectorize.
pub fn advect_restructured(
    q: &[f64],
    u: &[f64],
    v: &[f64],
    shape: AdvShape,
    grid: &GridSpec,
    j0: usize,
) -> Vec<f64> {
    assert!(
        shape.ni >= 2,
        "boundary peeling needs at least two longitudes"
    );
    let mut out = vec![0.0; shape.len()];
    let dlon = 2.0 * std::f64::consts::PI / grid.n_lon as f64;
    let dlat = std::f64::consts::PI / grid.n_lat as f64;
    let rdy2 = 1.0 / (2.0 * EARTH_RADIUS_M * dlat);
    // Hoist: one reciprocal per latitude row, computed once.
    let rdx2: Vec<f64> = (0..shape.nj)
        .map(|j| {
            let lat = -std::f64::consts::FRAC_PI_2 + ((j0 + j) as f64 + 0.5) * dlat;
            1.0 / (2.0 * EARTH_RADIUS_M * lat.cos() * dlon)
        })
        .collect();
    let ni = shape.ni;
    for k in 0..shape.nk {
        #[allow(clippy::needless_range_loop)] // index drives multiple buffers
        for j in 0..shape.nj {
            let rx = rdx2[j];
            let row = shape.at(0, j, k);
            let rowp = shape.at(0, (j + 1).min(shape.nj - 1), k);
            let rowm = shape.at(0, j.saturating_sub(1), k);
            // Peeled western boundary (wraps to the easternmost point).
            {
                let c = row;
                let dqdx = (q[row + 1] - q[row + ni - 1]) * rx;
                let dqdy = (q[rowp] - q[rowm]) * rdy2;
                out[c] = -(u[c] * dqdx + v[c] * dqdy);
            }
            // Hot interior: no wrap, no modulo, unit stride.
            for i in 1..ni - 1 {
                let c = row + i;
                let dqdx = (q[c + 1] - q[c - 1]) * rx;
                let dqdy = (q[rowp + i] - q[rowm + i]) * rdy2;
                out[c] = -(u[c] * dqdx + v[c] * dqdy);
            }
            // Peeled eastern boundary (wraps to the westernmost point).
            {
                let c = row + ni - 1;
                let dqdx = (q[row] - q[c - 1]) * rx;
                let dqdy = (q[rowp + ni - 1] - q[rowm + ni - 1]) * rdy2;
                out[c] = -(u[c] * dqdx + v[c] * dqdy);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::runtime::run;
    use agcm_mps::topology::CartComm;

    fn shape() -> AdvShape {
        AdvShape {
            ni: 24,
            nj: 16,
            nk: 3,
        }
    }

    fn test_fields(s: AdvShape) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = s.ni * s.nj * s.nk;
        let q: Vec<f64> = (0..n).map(|x| ((x as f64) * 0.37).sin()).collect();
        let u: Vec<f64> = (0..n).map(|x| 10.0 + ((x as f64) * 0.11).cos()).collect();
        let v: Vec<f64> = (0..n).map(|x| -3.0 * ((x as f64) * 0.07).sin()).collect();
        (q, u, v)
    }

    #[test]
    fn restructured_matches_naive_exactly() {
        // The whole point of §3.4: same arithmetic, different loop
        // structure. Results must agree to rounding error.
        let s = shape();
        let grid = GridSpec::new(s.ni, s.nj, s.nk);
        let (q, u, v) = test_fields(s);
        let a = advect_naive(&q, &u, &v, s, &grid, 0);
        let b = advect_restructured(&q, &u, &v, s, &grid, 0);
        let err = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-13, "restructuring changed the answer by {err}");
    }

    #[test]
    fn zero_wind_means_zero_tendency() {
        let s = shape();
        let grid = GridSpec::new(s.ni, s.nj, s.nk);
        let (q, _, _) = test_fields(s);
        let zero = vec![0.0; s.ni * s.nj * s.nk];
        let out = advect_naive(&q, &zero, &zero, s, &grid, 0);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_tracer_has_zero_tendency() {
        let s = shape();
        let grid = GridSpec::new(s.ni, s.nj, s.nk);
        let ones = vec![1.0; s.ni * s.nj * s.nk];
        let (_, u, v) = test_fields(s);
        let out = advect_restructured(&ones, &u, &v, s, &grid, 0);
        assert!(out.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn upwind_moves_a_bump_downstream() {
        // Constant eastward wind: after one tendency application, the
        // tracer must grow just downstream (east) of the bump and shrink
        // at the bump.
        let grid = GridSpec::new(32, 8, 1);
        let out = run(1, |c| {
            let cart = CartComm::new(c, 1, 1, (false, true));
            let mk = |f: &dyn Fn(usize, usize) -> f64| {
                let mut h = HaloField::zeros(32, 8, 1, 1);
                h.fill_interior(|i, j, _| f(i, j));
                let mut h2 = h.clone();
                h2.exchange(&cart);
                h2
            };
            let q = mk(&|i, _| if i == 10 { 1.0 } else { 0.0 });
            let u = mk(&|_, _| 20.0);
            let v = mk(&|_, _| 0.0);
            upwind_tendency(&q, &u, &v, &grid, 0)
        })
        .pop()
        .unwrap();
        let mid = 4;
        assert!(out.get(10, mid, 0) < 0.0, "bump must decay");
        assert!(out.get(11, mid, 0) > 0.0, "downstream must grow");
        assert_eq!(out.get(9, mid, 0), 0.0, "upstream untouched by upwinding");
    }

    #[test]
    fn upwind_respects_wind_direction() {
        let grid = GridSpec::new(32, 8, 1);
        let out = run(1, |c| {
            let cart = CartComm::new(c, 1, 1, (false, true));
            let mk = |f: &dyn Fn(usize, usize) -> f64| {
                let mut h = HaloField::zeros(32, 8, 1, 1);
                h.fill_interior(|i, j, _| f(i, j));
                h.exchange(&cart);
                h
            };
            let q = mk(&|i, _| if i == 10 { 1.0 } else { 0.0 });
            let u = mk(&|_, _| -20.0); // westward
            let v = mk(&|_, _| 0.0);
            upwind_tendency(&q, &u, &v, &grid, 0)
        })
        .pop()
        .unwrap();
        assert!(out.get(9, 4, 0) > 0.0, "westward wind spreads westward");
        assert_eq!(out.get(11, 4, 0), 0.0);
    }
}
