//! The three row-fused sweeps of the finite-difference phase.
//!
//! A timestep's "fd" phase used to be eleven whole-field passes through
//! six full-size tendency buffers. Here it is three sweeps, each walking
//! the subdomain once, row by row, with every tendency living only in an
//! L1-sized row buffer between the primitive that produces it and the
//! update that consumes it (the paper's loop fusion, §4):
//!
//! * [`continuity_sweep`] — `θ = θ_old − dt·∇·(h·u)`, the `h*` of the
//!   backward half-step once the caller has exchanged its ghosts;
//! * [`momentum_sweep`] — `∂h*/∂x`, `∂h*/∂y`, the upwind self-advection
//!   of both winds, and the forward-backward `(u, v)` update;
//! * [`tracer_sweep`] — upwind tendency and update of every tracer, one
//!   read of the winds serving all of them.
//!
//! Every sweep is *out of place*: it reads the previous step's fields —
//! exchanged, ghosts included — and writes every interior point of the
//! new ones, so the state it writes is never read and its old contents,
//! ghosts or interior, cannot matter. The arithmetic is the row
//! primitives of [`crate::tendency`] and [`crate::advect`], nothing else,
//! so the sweeps are bit-identical to the whole-field kernels and to the
//! `from_fn` reference. Each sweep is one safe body compiled portable /
//! AVX2 / AVX-512F and dispatched at runtime ([`crate::dispatch`]); the
//! crate docs argue why width cannot change a result.

use crate::advect::upwind_row;
use crate::tendency::{advance_row, flux_divergence_row, grad_x_row, grad_y_row, momentum_row};
use crate::view::HaloView;
use agcm_grid::dispatched;
use agcm_grid::halo::HaloField;
use agcm_grid::metrics::MetricTables;

/// Row buffers a sweep needs, in units of the row width `ni`.
pub const ROW_BUFFERS: usize = 4;

/// Shape checks shared by the sweeps: `t` covers the rows of the old
/// field `q`, the field a sweep writes has `q`'s interior shape and
/// `rows` holds [`ROW_BUFFERS`] rows.
fn check(q: &HaloView, t: &MetricTables, field: &HaloField, rows: &[f64]) {
    assert_eq!(t.nj(), q.nj, "metric tables must cover the subdomain rows");
    assert_eq!(field.shape(), (q.ni, q.nj, q.nk), "new field mis-sized");
    assert_eq!(rows.len(), ROW_BUFFERS * q.ni, "row buffers mis-sized");
}

dispatched! {
    /// Continuity, flux form: `theta = h − dt·∇·(h·u)` from the exchanged
    /// old fields `h`, `u`, `v`. The new `theta` is the `h*` the momentum
    /// sweep differentiates, once the caller has exchanged its ghosts.
    pub fn continuity_sweep / continuity_body / continuity_avx2 / continuity_avx512 (
        h: &HaloView,
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        theta: &mut HaloField,
        rows: &mut [f64],
    ) {
        check(h, t, theta, rows);
        assert!(
            h.same_shape(u) && h.same_shape(v),
            "field shapes must match"
        );
        let div = &mut rows[..h.ni];
        for k in 0..h.nk {
            for j in 0..h.nj {
                let hs = h.star(j, k);
                flux_divergence_row(&hs, &u.star(j, k), &v.star(j, k), t, j, div);
                // Negative dt: h − dt·div, bit-identical to the reference loop.
                advance_row(theta.interior_row_mut(j, k), hs.c, div, -dt);
            }
        }
    }
}

dispatched! {
    /// Momentum: pressure gradient on the exchanged `hstar`, upwind
    /// self-advection of the old winds `u_old`, `v_old`, Coriolis
    /// (`f_cor`, one entry per row), into the new winds `(u, v)`.
    pub fn momentum_sweep / momentum_body / momentum_avx2 / momentum_avx512 (
        hstar: &HaloView,
        u_old: &HaloView,
        v_old: &HaloView,
        t: &MetricTables,
        f_cor: &[f64],
        dt: f64,
        g: f64,
        u: &mut HaloField,
        v: &mut HaloField,
        rows: &mut [f64],
    ) {
        check(hstar, t, u, rows);
        check(hstar, t, v, rows);
        assert!(
            hstar.same_shape(u_old) && hstar.same_shape(v_old),
            "field shapes must match"
        );
        assert_eq!(f_cor.len(), hstar.nj, "one Coriolis entry per row");
        let ni = hstar.ni;
        let (dhdx, rest) = rows.split_at_mut(ni);
        let (dhdy, rest) = rest.split_at_mut(ni);
        let (adv_u, adv_v) = rest.split_at_mut(ni);
        for k in 0..hstar.nk {
            for (j, &f) in f_cor.iter().enumerate() {
                let hs = hstar.star(j, k);
                let (us, vs) = (u_old.star(j, k), v_old.star(j, k));
                grad_x_row(&hs, t, j, dhdx);
                grad_y_row(&hs, t, dhdy);
                upwind_row(&us, us.c, vs.c, t, j, adv_u);
                upwind_row(&vs, us.c, vs.c, t, j, adv_v);
                let (ur, vr) = (u.interior_row_mut(j, k), v.interior_row_mut(j, k));
                momentum_row(ur, vr, us.c, vs.c, dhdx, dhdy, adv_u, adv_v, f, dt, g);
            }
        }
    }
}

dispatched! {
    /// Tracers: each `(old tracer, new tracer)` pair gets
    /// `q = q_old + dt · upwind(q_old; u, v)` under the old winds, row by
    /// row, so one pass over the winds serves every tracer.
    pub fn tracer_sweep / tracer_body / tracer_avx2 / tracer_avx512 (
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        tracers: &mut [(HaloView, &mut HaloField)],
        rows: &mut [f64],
    ) {
        assert!(u.same_shape(v), "field shapes must match");
        for (q_old, q) in tracers.iter() {
            check(u, t, q, rows);
            assert!(u.same_shape(q_old), "field shapes must match");
        }
        let adv = &mut rows[..u.ni];
        for k in 0..u.nk {
            for j in 0..u.nj {
                let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
                for (q_old, q) in tracers.iter_mut() {
                    let qs = q_old.star(j, k);
                    upwind_row(&qs, uc, vc, t, j, adv);
                    advance_row(q.interior_row_mut(j, k), qs.c, adv, dt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::latlon::GridSpec;

    type Continuity =
        unsafe fn(&HaloView, &HaloView, &HaloView, &MetricTables, f64, &mut HaloField, &mut [f64]);
    type Momentum = unsafe fn(
        &HaloView,
        &HaloView,
        &HaloView,
        &MetricTables,
        &[f64],
        f64,
        f64,
        &mut HaloField,
        &mut HaloField,
        &mut [f64],
    );
    type Tracer = unsafe fn(
        &HaloView,
        &HaloView,
        &MetricTables,
        f64,
        &mut [(HaloView, &mut HaloField)],
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

    /// What a new-state buffer holds before a sweep writes it: values of
    /// its own, unlike the old state's, or NaN everywhere.
    fn stale(ni: usize, nj: usize, nk: usize, seed: Option<u64>) -> HaloField {
        match seed {
            Some(seed) => halo(ni, nj, nk, seed, 1e3),
            None => {
                let mut h = HaloField::zeros(ni, nj, nk, 1);
                h.as_mut_slice().fill(f64::NAN);
                h
            }
        }
    }

    fn interior(h: &HaloField) -> Vec<u64> {
        h.interior_rows().flatten().map(|x| x.to_bits()).collect()
    }

    /// One forward-backward step through one compilation of each sweep,
    /// from old fields into new-state buffers whose contents `stale`
    /// picks; the bits of every new field.
    fn run_with(
        (continuity, momentum, tracer): (Continuity, Momentum, Tracer),
        (ni, nj, nk): (usize, usize, usize),
        stale_seed: Option<u64>,
    ) -> Vec<u64> {
        // The top rows of a taller grid: the north pole row and none of
        // the south's, so both arms of the pole select run.
        let grid = GridSpec::new(ni, nj + 2, nk);
        let t = MetricTables::new(&grid, 2, nj);
        let f_cor: Vec<f64> = (0..nj).map(|j| 1e-4 * (j as f64 - 1.5)).collect();
        let [h, u, v, q1, q2] = [(1, 8e3), (2, 30.0), (3, 30.0), (4, 0.02), (5, 1e-6)]
            .map(|(seed, scale)| halo(ni, nj, nk, seed, scale));
        let (hv, uv, vv) = (HaloView::of(&h), HaloView::of(&u), HaloView::of(&v));
        // What exchanging h*'s ghosts writes into them.
        let exchanged = halo(ni, nj, nk, 6, 8e3);
        let mut rows = vec![0.0; ROW_BUFFERS * ni];
        let [mut theta, mut uf, mut vf, mut q1f, mut q2f] =
            [10, 20, 30, 40, 50].map(|s| stale(ni, nj, nk, stale_seed.map(|seed| seed + s)));
        let (dt, g) = (60.0, 9.81);
        // SAFETY: callers pass a target-feature wrapper only after
        // detecting that feature; the other bodies are safe functions.
        unsafe {
            continuity(&hv, &uv, &vv, &t, dt, &mut theta, &mut rows);
            for k in 0..nk {
                for j in -1..=nj as isize {
                    for i in -1..=ni as isize {
                        if !(0..ni as isize).contains(&i) || !(0..nj as isize).contains(&j) {
                            theta.set(i, j, k, exchanged.get(i, j, k));
                        }
                    }
                }
            }
            let hs = HaloView::of(&theta);
            momentum(
                &hs, &uv, &vv, &t, &f_cor, dt, g, &mut uf, &mut vf, &mut rows,
            );
            let mut tracers = [(HaloView::of(&q1), &mut q1f), (HaloView::of(&q2), &mut q2f)];
            tracer(&uv, &vv, &t, dt, &mut tracers, &mut rows);
        }
        [theta, uf, vf, q1f, q2f]
            .iter()
            .flat_map(interior)
            .collect()
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // No public switch selects a target, so the private wrappers are
        // compared here: whatever the CPU supports must reproduce the
        // portable compilation to the last bit, vector tails included —
        // and no compilation may read what the new-state buffers held.
        // Ragged widths, rows of 37 and 50, and the paper grid's 144×90×9.
        let bodies: (Continuity, Momentum, Tracer) = (continuity_body, momentum_body, tracer_body);
        for shape in [
            (5, 3, 1),
            (19, 5, 3),
            (37, 4, 2),
            (50, 3, 1),
            (144, 2, 2),
            (144, 90, 9),
        ] {
            let portable = run_with(bodies, shape, Some(100));
            assert_eq!(
                portable,
                run_with(bodies, shape, None),
                "{shape:?}: a new field depends on its buffer's old contents"
            );
            let dispatched = run_with(
                (continuity_sweep, momentum_sweep, tracer_sweep),
                shape,
                None,
            );
            assert_eq!(portable, dispatched, "{shape:?}: dispatched target");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    let avx2: (Continuity, Momentum, Tracer) =
                        (continuity_avx2, momentum_avx2, tracer_avx2);
                    assert_eq!(
                        portable,
                        run_with(avx2, shape, Some(200)),
                        "{shape:?}: avx2"
                    );
                }
                if is_x86_feature_detected!("avx512f") {
                    let avx512: (Continuity, Momentum, Tracer) =
                        (continuity_avx512, momentum_avx512, tracer_avx512);
                    assert_eq!(
                        portable,
                        run_with(avx512, shape, Some(300)),
                        "{shape:?}: avx512f"
                    );
                }
            }
        }
    }
}
