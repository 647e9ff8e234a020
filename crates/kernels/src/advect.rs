//! Upwind advection kernels, layout-parameterized.
//!
//! `upwind_row` is the production operator, one row at a time — the
//! fused sweeps in [`crate::sweeps`] run it on row buffers and
//! [`upwind_into`] loops it over a whole field: bit-identical to
//! `advection::upwind_tendency` with the metric factors hoisted per row.
//! [`upwind_block_into`] runs the *same* operator over `m` tracers stored
//! block-interleaved `q(m,i,j,k)` — the transformation the paper applied
//! to the advection routine ("about a dozen three-dimensional arrays were
//! combined into one single array") — so the §4 layout study measures the
//! real operator rather than a toy field. Per tracer the arithmetic is
//! identical, so both layouts produce bit-identical tendencies.

use crate::tendency::check_shapes;
use crate::view::{HaloView, Star};
use agcm_grid::dispatched;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::EARTH_RADIUS_M;
use agcm_grid::metrics::MetricTables;

/// One row of the first-order upwind tendency `−(u ∂q/∂x + v ∂q/∂y)` of
/// `q` under the winds `(uc, vc)` of the same row.
///
/// Branch-free: the wind's sign selects the *numerator* of the one-sided
/// difference and a single division follows. The reference divides inside
/// each arm of its `if`; either way the same two operands reach the same
/// `/`, so every bit agrees — including for a `−0.0` wind (`>= 0.0` holds)
/// and a NaN wind (it does not) — and the loop vectorizes as two
/// subtractions, a blend and a packed divide per direction.
#[inline(always)]
pub(crate) fn upwind_row(
    q: &Star,
    uc: &[f64],
    vc: &[f64],
    t: &MetricTables,
    j: usize,
    out: &mut [f64],
) {
    // Hoisted per row; identical expressions to the reference.
    let dx = EARTH_RADIUS_M * t.cos_lat[j] * t.dlon;
    let dy = EARTH_RADIUS_M * t.dlat;
    let n = out.len();
    let (qc, qe, qw, qn, qs) = (&q.c[..n], &q.e[..n], &q.w[..n], &q.n[..n], &q.s[..n]);
    let (uc, vc) = (&uc[..n], &vc[..n]);
    for i in 0..n {
        let (uu, vv) = (uc[i], vc[i]);
        // Both one-sided differences are formed before the select, so no
        // load hides behind a branch and the select compiles to a blend.
        let (west, east) = (qc[i] - qw[i], qe[i] - qc[i]);
        let (south, north) = (qc[i] - qs[i], qn[i] - qc[i]);
        let dqdx = (if uu >= 0.0 { west } else { east }) / dx;
        let dqdy = (if vv >= 0.0 { south } else { north }) / dy;
        out[i] = -(uu * dqdx + vv * dqdy);
    }
}

dispatched! {
    /// First-order upwind advective tendency `−(u ∂q/∂x + v ∂q/∂y)` into a
    /// caller-owned buffer. Flat-kernel twin of `upwind_tendency`.
    pub fn upwind_into / upwind_body / upwind_avx2 / upwind_avx512 (
        q: &HaloView,
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        out: &mut [f64],
    ) {
        check_shapes(q, t, out);
        assert!(
            q.same_shape(u) && q.same_shape(v),
            "field shapes must match"
        );
        for (r, o) in out.chunks_exact_mut(q.ni).enumerate() {
            let (j, k) = (r % q.nj, r / q.nj);
            let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
            upwind_row(&q.star(j, k), uc, vc, t, j, o);
        }
    }
}

/// `m` halo fields packed block-interleaved, ghosts included:
/// `data[(padded point) · m + v]` — the Fortran `q(m,i,j,k)` layout of the
/// paper's block-array experiment, with the halo margins kept so the
/// upwind stencil reads ghosts exactly like the separate layout does.
#[derive(Debug, Clone)]
pub struct BlockHalo {
    m: usize,
    ni: usize,
    nj: usize,
    nk: usize,
    row: usize,
    plane: usize,
    origin: usize,
    data: Vec<f64>,
}

impl BlockHalo {
    /// Interleave `m` same-shaped halo fields.
    pub fn from_halos(halos: &[&HaloField]) -> BlockHalo {
        assert!(!halos.is_empty(), "need at least one field");
        let shape = halos[0].shape();
        let m = halos.len();
        for h in halos {
            assert_eq!(h.shape(), shape, "all fields must share a shape");
            assert_eq!(
                h.halo_width(),
                halos[0].halo_width(),
                "all fields must share a halo width"
            );
        }
        let padded = halos[0].padded().len();
        let mut data = vec![0.0; padded * m];
        for (v, h) in halos.iter().enumerate() {
            for (p, &x) in h.padded().iter().enumerate() {
                data[p * m + v] = x;
            }
        }
        let (ni, nj, nk) = shape;
        BlockHalo {
            m,
            ni,
            nj,
            nk,
            row: halos[0].row_stride(),
            plane: halos[0].plane_stride(),
            origin: halos[0].interior_origin(),
            data,
        }
    }

    /// Number of interleaved fields.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Interior shape.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.ni, self.nj, self.nk)
    }
}

/// Upwind-advect all `m` tracers of a [`BlockHalo`] by the winds
/// `(u, v)` in one traversal. `out` is block-interleaved over interior
/// points: `out[((k·nj + j)·ni + i) · m + v]`. Per tracer, bit-identical
/// to [`upwind_into`].
pub fn upwind_block_into(
    q: &BlockHalo,
    u: &HaloView,
    v: &HaloView,
    t: &MetricTables,
    out: &mut [f64],
) {
    let (ni, nj, nk) = q.shape();
    assert_eq!((u.ni, u.nj, u.nk), (ni, nj, nk), "wind shape must match");
    assert!(u.same_shape(v));
    assert_eq!(t.nj(), nj, "metric tables must cover the subdomain rows");
    let m = q.m;
    assert_eq!(out.len(), ni * nj * nk * m, "output buffer mis-sized");
    let qd = &q.data[..];
    let (qrow, qm) = (q.row * m, m);
    for k in 0..nk {
        for j in 0..nj {
            let dx = EARTH_RADIUS_M * t.cos_lat[j] * t.dlon;
            let dy = EARTH_RADIUS_M * t.dlat;
            let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
            let qb = (q.origin + k * q.plane + j * q.row) * m;
            let ob = (k * nj + j) * ni * m;
            for i in 0..ni {
                let (uu, vv) = (uc[i], vc[i]);
                let p = qb + i * qm;
                let c = &qd[p..p + m];
                let e = &qd[p + qm..p + qm + m];
                let w = &qd[p - qm..p - qm + m];
                let n = &qd[p + qrow..p + qrow + m];
                let s = &qd[p - qrow..p - qrow + m];
                let o = &mut out[ob + i * m..ob + i * m + m];
                if uu >= 0.0 {
                    if vv >= 0.0 {
                        for v in 0..m {
                            o[v] = -(uu * ((c[v] - w[v]) / dx) + vv * ((c[v] - s[v]) / dy));
                        }
                    } else {
                        for v in 0..m {
                            o[v] = -(uu * ((c[v] - w[v]) / dx) + vv * ((n[v] - c[v]) / dy));
                        }
                    }
                } else if vv >= 0.0 {
                    for v in 0..m {
                        o[v] = -(uu * ((e[v] - c[v]) / dx) + vv * ((c[v] - s[v]) / dy));
                    }
                } else {
                    for v in 0..m {
                        o[v] = -(uu * ((e[v] - c[v]) / dx) + vv * ((n[v] - c[v]) / dy));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::latlon::GridSpec;

    fn halo(ni: usize, nj: usize, nk: usize, seed: usize) -> HaloField {
        let mut h = HaloField::zeros(ni, nj, nk, 1);
        h.fill_interior(|i, j, k| ((i * 13 + j * 5 + k * 29 + seed * 3) as f64 * 0.23).cos());
        h
    }

    #[test]
    fn block_layout_matches_separate_per_tracer() {
        let grid = GridSpec::new(10, 8, 2);
        let t = MetricTables::new(&grid, 0, 8);
        let u = halo(10, 8, 2, 90);
        let v = halo(10, 8, 2, 91);
        let tracers: Vec<HaloField> = (0..3).map(|s| halo(10, 8, 2, s)).collect();
        let refs: Vec<&HaloField> = tracers.iter().collect();
        let blk = BlockHalo::from_halos(&refs);

        let n = 10 * 8 * 2;
        let mut blk_out = vec![0.0; n * 3];
        upwind_block_into(&blk, &HaloView::of(&u), &HaloView::of(&v), &t, &mut blk_out);

        for (vix, q) in tracers.iter().enumerate() {
            let mut sep = vec![0.0; n];
            upwind_into(
                &HaloView::of(q),
                &HaloView::of(&u),
                &HaloView::of(&v),
                &t,
                &mut sep,
            );
            for c in 0..n {
                assert_eq!(
                    blk_out[c * 3 + vix],
                    sep[c],
                    "tracer {vix} point {c}: layouts must agree bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn zero_wind_zero_tendency() {
        let grid = GridSpec::new(6, 4, 1);
        let t = MetricTables::new(&grid, 0, 4);
        let q = halo(6, 4, 1, 1);
        let zero = HaloField::zeros(6, 4, 1, 1);
        let mut out = vec![1.0; 24];
        upwind_into(
            &HaloView::of(&q),
            &HaloView::of(&zero),
            &HaloView::of(&zero),
            &t,
            &mut out,
        );
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // The private wrappers, against the portable compilation, on
        // ragged rows and the paper grid; winds of both signs.
        type Upwind = unsafe fn(&HaloView, &HaloView, &HaloView, &MetricTables, &mut [f64]);
        for (ni, nj, nk) in [(37, 5, 2), (50, 4, 3), (144, 90, 9)] {
            let grid = GridSpec::new(ni, nj, nk);
            let t = MetricTables::new(&grid, 0, nj);
            let [q, u, v] = [1, 2, 3].map(|s| halo(ni, nj, nk, s));
            let run = |f: Upwind| {
                let mut out = vec![f64::NAN; ni * nj * nk];
                let views = [&q, &u, &v].map(HaloView::of);
                // SAFETY: a target-feature wrapper is passed only after
                // detecting that feature; the others are safe functions.
                unsafe { f(&views[0], &views[1], &views[2], &t, &mut out) };
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let portable = run(upwind_body);
            assert_eq!(portable, run(upwind_into), "{ni}x{nj}x{nk}: dispatched");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    assert_eq!(portable, run(upwind_avx2), "{ni}x{nj}x{nk}: avx2");
                }
                if is_x86_feature_detected!("avx512f") {
                    assert_eq!(portable, run(upwind_avx512), "{ni}x{nj}x{nk}: avx512f");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mismatched_block_rejected() {
        let a = HaloField::zeros(4, 4, 1, 1);
        let b = HaloField::zeros(5, 4, 1, 1);
        BlockHalo::from_halos(&[&a, &b]);
    }
}
