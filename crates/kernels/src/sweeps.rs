//! The three row-fused sweeps of the finite-difference phase.
//!
//! A timestep's "fd" phase used to be eleven whole-field passes through
//! six full-size tendency buffers. Here it is three sweeps, each walking
//! the subdomain once, row by row, with every tendency living only in an
//! L1-sized row buffer between the primitive that produces it and the
//! update that consumes it (the paper's loop fusion, §4):
//!
//! * [`continuity_sweep`] — `θ += −dt·∇·(h·u)`, written into the field
//!   and into the `h*` halo interior in the same visit;
//! * [`momentum_sweep`] — `∂h*/∂x`, `∂h*/∂y`, the upwind self-advection
//!   of both winds, and the in-place forward-backward `(u, v)` update;
//! * [`tracer_sweep`] — upwind tendency and update of every tracer, one
//!   read of the winds serving all of them.
//!
//! The arithmetic is the row primitives of [`crate::tendency`] and
//! [`crate::advect`], nothing else, so the sweeps are bit-identical to
//! the whole-field kernels and to the `from_fn` reference. Each sweep is
//! one safe body compiled portable / AVX2 / AVX-512F and dispatched at
//! runtime ([`crate::dispatch`]); the crate docs argue why width cannot
//! change a result.

use crate::advect::upwind_row;
use crate::tendency::{
    advance_row, check_shapes, flux_divergence_row, grad_x_row, grad_y_row, momentum_row,
};
use crate::view::HaloView;
use agcm_grid::halo::HaloField;
use agcm_grid::metrics::MetricTables;

/// Row buffers a sweep needs, in units of the row width `ni`.
pub const ROW_BUFFERS: usize = 4;

/// Shape checks shared by the sweeps: the field a sweep updates is a
/// flat `ni·nj·nk` interior and `rows` holds [`ROW_BUFFERS`] rows.
fn check(q: &HaloView, t: &MetricTables, field: &[f64], rows: &[f64]) {
    check_shapes(q, t, field);
    assert_eq!(rows.len(), ROW_BUFFERS * q.ni, "row buffers mis-sized");
}

dispatched! {
    /// Continuity, flux form: `theta += −dt·∇·(h·u)` from the exchanged
    /// halos of the old state, the new row written to `theta` and to the
    /// interior of `hstar` (whose ghosts the caller then exchanges).
    pub fn continuity_sweep / continuity_body / continuity_avx2 / continuity_avx512 (
        h: &HaloView,
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        theta: &mut [f64],
        hstar: &mut HaloField,
        rows: &mut [f64],
    ) {
        check(h, t, theta, rows);
        assert!(
            h.same_shape(u) && h.same_shape(v),
            "field shapes must match"
        );
        assert_eq!(hstar.shape(), (h.ni, h.nj, h.nk), "h* shape must match");
        let div = &mut rows[..h.ni];
        for (r, th) in theta.chunks_exact_mut(h.ni).enumerate() {
            let (j, k) = (r % h.nj, r / h.nj);
            flux_divergence_row(&h.star(j, k), &u.star(j, k), &v.star(j, k), t, j, div);
            // Negative dt: h −= dt·div, bit-identical to the reference loop.
            advance_row(th, div, -dt);
            hstar.interior_row_mut(j, k).copy_from_slice(th);
        }
    }
}

dispatched! {
    /// Momentum: pressure gradient on the exchanged `hstar`, upwind
    /// self-advection of the old winds (their halos `u_old`, `v_old`),
    /// Coriolis (`f_cor`, one entry per row), applied to `(u, v)` in place.
    pub fn momentum_sweep / momentum_body / momentum_avx2 / momentum_avx512 (
        hstar: &HaloView,
        u_old: &HaloView,
        v_old: &HaloView,
        t: &MetricTables,
        f_cor: &[f64],
        dt: f64,
        g: f64,
        u: &mut [f64],
        v: &mut [f64],
        rows: &mut [f64],
    ) {
        check(hstar, t, u, rows);
        assert!(
            hstar.same_shape(u_old) && hstar.same_shape(v_old) && v.len() == u.len(),
            "field shapes must match"
        );
        assert_eq!(f_cor.len(), hstar.nj, "one Coriolis entry per row");
        let ni = hstar.ni;
        let (dhdx, rest) = rows.split_at_mut(ni);
        let (dhdy, rest) = rest.split_at_mut(ni);
        let (adv_u, adv_v) = rest.split_at_mut(ni);
        let rows_uv = u.chunks_exact_mut(ni).zip(v.chunks_exact_mut(ni));
        for (r, (ur, vr)) in rows_uv.enumerate() {
            let (j, k) = (r % hstar.nj, r / hstar.nj);
            let hs = hstar.star(j, k);
            let (us, vs) = (u_old.star(j, k), v_old.star(j, k));
            grad_x_row(&hs, t, j, dhdx);
            grad_y_row(&hs, t, dhdy);
            upwind_row(&us, us.c, vs.c, t, j, adv_u);
            upwind_row(&vs, us.c, vs.c, t, j, adv_v);
            momentum_row(ur, vr, dhdx, dhdy, adv_u, adv_v, f_cor[j], dt, g);
        }
    }
}

dispatched! {
    /// Tracers: each `(halo of the old tracer, tracer field)` pair gets
    /// `q += dt · upwind(q; u, v)` under the old winds, row by row, so one
    /// pass over the winds serves every tracer.
    pub fn tracer_sweep / tracer_body / tracer_avx2 / tracer_avx512 (
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        tracers: &mut [(HaloView, &mut [f64])],
        rows: &mut [f64],
    ) {
        assert!(u.same_shape(v), "field shapes must match");
        for (q_old, q) in tracers.iter() {
            check(u, t, q, rows);
            assert!(u.same_shape(q_old), "field shapes must match");
        }
        let ni = u.ni;
        let adv = &mut rows[..ni];
        for k in 0..u.nk {
            for j in 0..u.nj {
                let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
                let at = (k * u.nj + j) * ni;
                for (q_old, q) in tracers.iter_mut() {
                    upwind_row(&q_old.star(j, k), uc, vc, t, j, adv);
                    advance_row(&mut q[at..at + ni], adv, dt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::latlon::GridSpec;

    type Continuity = unsafe fn(
        &HaloView,
        &HaloView,
        &HaloView,
        &MetricTables,
        f64,
        &mut [f64],
        &mut HaloField,
        &mut [f64],
    );
    type Momentum = unsafe fn(
        &HaloView,
        &HaloView,
        &HaloView,
        &MetricTables,
        &[f64],
        f64,
        f64,
        &mut [f64],
        &mut [f64],
        &mut [f64],
    );
    type Tracer = unsafe fn(
        &HaloView,
        &HaloView,
        &MetricTables,
        f64,
        &mut [(HaloView, &mut [f64])],
        &mut [f64],
    );

    /// A halo field filled, ghosts included, from an LCG; one value in
    /// eight is a signed zero so the upwind select sees `±0.0` winds.
    fn halo(ni: usize, nj: usize, nk: usize, seed: u64, scale: f64) -> HaloField {
        let mut state = seed;
        let mut h = HaloField::zeros(ni, nj, nk, 1);
        for k in 0..nk {
            for j in -1..=nj as isize {
                for i in -1..=ni as isize {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let x = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                    let v = match (state >> 8) % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => scale * x,
                    };
                    h.set(i, j, k, v);
                }
            }
        }
        h
    }

    fn interior(h: &HaloField) -> Vec<f64> {
        let v = HaloView::of(h);
        (0..v.nk * v.nj)
            .flat_map(|r| v.interior_row(r % v.nj, r / v.nj).iter().copied())
            .collect()
    }

    /// One forward-backward step through one compilation of each sweep;
    /// the bits of every field it leaves.
    fn run_with(
        (continuity, momentum, tracer): (Continuity, Momentum, Tracer),
        (ni, nj, nk): (usize, usize, usize),
    ) -> Vec<u64> {
        // The top rows of a taller grid: the north pole row and none of
        // the south's, so both arms of the pole select run.
        let grid = GridSpec::new(ni, nj + 2, nk);
        let t = MetricTables::new(&grid, 2, nj);
        let f_cor: Vec<f64> = (0..nj).map(|j| 1e-4 * (j as f64 - 1.5)).collect();
        let [h, u, v, q1, q2] = [(1, 8e3), (2, 30.0), (3, 30.0), (4, 0.02), (5, 1e-6)]
            .map(|(seed, scale)| halo(ni, nj, nk, seed, scale));
        let (hv, uv, vv) = (HaloView::of(&h), HaloView::of(&u), HaloView::of(&v));
        let mut hstar = halo(ni, nj, nk, 6, 8e3);
        let mut rows = vec![0.0; ROW_BUFFERS * ni];
        let [mut theta, mut uf, mut vf, mut q1f, mut q2f] = [&h, &u, &v, &q1, &q2].map(interior);
        let (dt, g) = (60.0, 9.81);
        // SAFETY: callers pass a target-feature wrapper only after
        // detecting that feature; the other bodies are safe functions.
        unsafe {
            continuity(&hv, &uv, &vv, &t, dt, &mut theta, &mut hstar, &mut rows);
            let hs = HaloView::of(&hstar);
            momentum(
                &hs, &uv, &vv, &t, &f_cor, dt, g, &mut uf, &mut vf, &mut rows,
            );
            let mut tracers = [
                (HaloView::of(&q1), &mut q1f[..]),
                (HaloView::of(&q2), &mut q2f[..]),
            ];
            tracer(&uv, &vv, &t, dt, &mut tracers, &mut rows);
        }
        assert_eq!(interior(&hstar), theta, "h* interior is the new theta");
        [theta, uf, vf, q1f, q2f]
            .concat()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // No public switch selects a target, so the private wrappers are
        // compared here: whatever the CPU supports must reproduce the
        // portable compilation to the last bit, vector tails included.
        for shape in [(5, 3, 1), (37, 4, 2), (50, 3, 1), (144, 2, 2)] {
            let portable = run_with((continuity_body, momentum_body, tracer_body), shape);
            let dispatched = run_with((continuity_sweep, momentum_sweep, tracer_sweep), shape);
            assert_eq!(portable, dispatched, "{shape:?}: dispatched target");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    let avx2 = run_with((continuity_avx2, momentum_avx2, tracer_avx2), shape);
                    assert_eq!(portable, avx2, "{shape:?}: avx2");
                }
                if is_x86_feature_detected!("avx512f") {
                    let avx512 =
                        run_with((continuity_avx512, momentum_avx512, tracer_avx512), shape);
                    assert_eq!(portable, avx512, "{shape:?}: avx512f");
                }
            }
        }
    }
}
