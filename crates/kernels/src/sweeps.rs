//! The three row-fused sweeps of the finite-difference phase.
//!
//! A timestep's "fd" phase used to be eleven whole-field passes through
//! six full-size tendency buffers. Here it is three sweeps, each walking
//! the subdomain once, row by row, with every tendency living only in an
//! L1-sized row buffer between the primitive that produces it and the
//! update that consumes it (the paper's loop fusion, §4):
//!
//! * [`continuity_sweep`] — `θ = θ − dt·∇·(h·u)`, the `h*` of the
//!   backward half-step once the caller has exchanged its ghosts;
//! * [`tracer_sweep`] — upwind tendency and update of every tracer, one
//!   read of the winds serving all of them;
//! * [`momentum_sweep`] — `∂h*/∂x`, `∂h*/∂y`, the upwind self-advection
//!   of both winds, and the forward-backward `(u, v)` update.
//!
//! Every sweep is *in place*, south to north within each level, and
//! leaves the ghosts alone: before row `(j, k)` of a field is
//! overwritten its old interior is copied into a saved row, which the
//! update reads as the old centre and row `j + 1` as its south neighbour
//! `s`. Row 0 reads the ghost row, never written; rows above `j` are
//! still old, so `n`, `e`, `w` and `c` come from the field. A sweep may
//! read only fields not yet advanced: the tracers read the old winds, so
//! they run before the momentum sweep.
//!
//! The arithmetic is the row primitives of [`crate::tendency`] and
//! [`crate::advect`], on the same operands, nothing else, so the sweeps
//! are bit-identical to the whole-field kernels and to the `from_fn`
//! reference. Each sweep is one safe body compiled portable / AVX2 /
//! AVX-512F and dispatched at runtime ([`agcm_grid::dispatch`]); the crate
//! docs argue why width cannot change a result.

use crate::advect::upwind_row;
use crate::tendency::{advance_row, flux_divergence_row, grad_x_row, grad_y_row, momentum_row};
use crate::view::{HaloView, Star};
use agcm_grid::dispatched;
use agcm_grid::halo::HaloField;
use agcm_grid::metrics::MetricTables;

/// Row buffers a sweep needs, in units of the row width `ni`: the
/// momentum sweep's four tendencies and two saved rows.
pub const ROW_BUFFERS: usize = 6;

/// Shape checks shared by the sweeps: `t` covers the rows of `q`, the
/// field a sweep advances has `q`'s interior shape and `rows` holds
/// [`ROW_BUFFERS`] rows.
fn check(q: &HaloView, t: &MetricTables, field: &HaloField, rows: &[f64]) {
    assert_eq!(t.nj(), q.nj, "metric tables must cover the subdomain rows");
    assert_eq!(field.shape(), (q.ni, q.nj, q.nk), "field mis-sized");
    assert_eq!(rows.len(), ROW_BUFFERS * q.ni, "row buffers mis-sized");
}

/// The stencil of row `(j, k)` of `q`, advanced in place up to row
/// `j − 1`, whose old interior is `saved` (row 0 reads the ghost row).
#[inline(always)]
fn star_in_place<'a>(q: &HaloView<'a>, j: usize, k: usize, saved: &'a [f64]) -> Star<'a> {
    let mut star = q.star(j, k);
    if j > 0 {
        star.s = saved;
    }
    star
}

dispatched! {
    /// Continuity, flux form: `theta = theta − dt·∇·(theta·u)` in place,
    /// from the exchanged `theta` and the winds `u`, `v`. The new `theta`
    /// is the `h*` the momentum sweep differentiates, once the caller has
    /// exchanged its ghosts.
    pub fn continuity_sweep / continuity_body / continuity_avx2 / continuity_avx512 (
        theta: &mut HaloField,
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        rows: &mut [f64],
    ) {
        check(u, t, theta, rows);
        assert!(u.same_shape(v), "field shapes must match");
        let (div, saved) = rows.split_at_mut(u.ni);
        let saved = &mut saved[..u.ni];
        for k in 0..u.nk {
            for j in 0..u.nj {
                let h = HaloView::of(theta);
                let hs = star_in_place(&h, j, k, saved);
                flux_divergence_row(&hs, &u.star(j, k), &v.star(j, k), t, j, div);
                saved.copy_from_slice(theta.interior_row(j, k));
                // Negative dt: h − dt·div, bit-identical to the reference loop.
                advance_row(theta.interior_row_mut(j, k), saved, div, -dt);
            }
        }
    }
}

dispatched! {
    /// Tracers: each tracer `q` gets `q = q + dt · upwind(q; u, v)` in
    /// place under the winds `u`, `v`, row by row, so one pass over the
    /// winds serves every tracer. `rows` holds the tendency row and one
    /// saved row per tracer, so at most `ROW_BUFFERS − 1` tracers.
    pub fn tracer_sweep / tracer_body / tracer_avx2 / tracer_avx512 (
        u: &HaloView,
        v: &HaloView,
        t: &MetricTables,
        dt: f64,
        tracers: &mut [&mut HaloField],
        rows: &mut [f64],
    ) {
        assert!(u.same_shape(v), "field shapes must match");
        assert!(tracers.len() < ROW_BUFFERS, "one saved row per tracer");
        for q in tracers.iter() {
            check(u, t, q, rows);
        }
        let (adv, saved) = rows.split_at_mut(u.ni);
        for k in 0..u.nk {
            for j in 0..u.nj {
                let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
                for (q, saved) in tracers.iter_mut().zip(saved.chunks_exact_mut(u.ni)) {
                    let qv = HaloView::of(q);
                    upwind_row(&star_in_place(&qv, j, k, saved), uc, vc, t, j, adv);
                    saved.copy_from_slice(q.interior_row(j, k));
                    advance_row(q.interior_row_mut(j, k), saved, adv, dt);
                }
            }
        }
    }
}

dispatched! {
    /// Momentum in place: pressure gradient on the exchanged `hstar`,
    /// upwind self-advection of the winds `u`, `v`, Coriolis (`f_cor`,
    /// one entry per row). Both rows' stencils are read before either
    /// row is written.
    pub fn momentum_sweep / momentum_body / momentum_avx2 / momentum_avx512 (
        u: &mut HaloField,
        v: &mut HaloField,
        hstar: &HaloView,
        t: &MetricTables,
        f_cor: &[f64],
        dt: f64,
        g: f64,
        rows: &mut [f64],
    ) {
        check(hstar, t, u, rows);
        check(hstar, t, v, rows);
        assert_eq!(f_cor.len(), hstar.nj, "one Coriolis entry per row");
        let ni = hstar.ni;
        let mut rows = rows.chunks_exact_mut(ni);
        let [dhdx, dhdy, adv_u, adv_v, saved_u, saved_v] =
            [(); ROW_BUFFERS].map(|_| rows.next().expect("ROW_BUFFERS rows"));
        for k in 0..hstar.nk {
            for (j, &f) in f_cor.iter().enumerate() {
                let hs = hstar.star(j, k);
                grad_x_row(&hs, t, j, dhdx);
                grad_y_row(&hs, t, dhdy);
                let (uq, vq) = (HaloView::of(u), HaloView::of(v));
                let us = star_in_place(&uq, j, k, saved_u);
                let vs = star_in_place(&vq, j, k, saved_v);
                upwind_row(&us, us.c, vs.c, t, j, adv_u);
                upwind_row(&vs, us.c, vs.c, t, j, adv_v);
                saved_u.copy_from_slice(u.interior_row(j, k));
                saved_v.copy_from_slice(v.interior_row(j, k));
                let (ur, vr) = (u.interior_row_mut(j, k), v.interior_row_mut(j, k));
                momentum_row(ur, vr, saved_u, saved_v, dhdx, dhdy, adv_u, adv_v, f, dt, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::latlon::GridSpec;

    /// The out-of-place sweeps the in-place ones replaced, kept as the
    /// oracle: each reads the old fields and writes every interior point
    /// of a separate new one, so nothing it reads can have been written.
    mod out_of_place {
        use super::super::*;

        pub fn continuity(
            h: &HaloView,
            u: &HaloView,
            v: &HaloView,
            t: &MetricTables,
            dt: f64,
            theta: &mut HaloField,
        ) {
            let mut div = vec![0.0; h.ni];
            for k in 0..h.nk {
                for j in 0..h.nj {
                    let hs = h.star(j, k);
                    flux_divergence_row(&hs, &u.star(j, k), &v.star(j, k), t, j, &mut div);
                    advance_row(theta.interior_row_mut(j, k), hs.c, &div, -dt);
                }
            }
        }

        #[allow(clippy::too_many_arguments)] // the sweep's own arity
        pub fn momentum(
            hstar: &HaloView,
            u_old: &HaloView,
            v_old: &HaloView,
            t: &MetricTables,
            f_cor: &[f64],
            dt: f64,
            g: f64,
            u: &mut HaloField,
            v: &mut HaloField,
        ) {
            let [mut dhdx, mut dhdy, mut adv_u, mut adv_v] = [(); 4].map(|_| vec![0.0; hstar.ni]);
            for k in 0..hstar.nk {
                for (j, &f) in f_cor.iter().enumerate() {
                    let hs = hstar.star(j, k);
                    let (us, vs) = (u_old.star(j, k), v_old.star(j, k));
                    grad_x_row(&hs, t, j, &mut dhdx);
                    grad_y_row(&hs, t, &mut dhdy);
                    upwind_row(&us, us.c, vs.c, t, j, &mut adv_u);
                    upwind_row(&vs, us.c, vs.c, t, j, &mut adv_v);
                    let (ur, vr) = (u.interior_row_mut(j, k), v.interior_row_mut(j, k));
                    momentum_row(ur, vr, us.c, vs.c, &dhdx, &dhdy, &adv_u, &adv_v, f, dt, g);
                }
            }
        }

        pub fn tracer(
            u: &HaloView,
            v: &HaloView,
            t: &MetricTables,
            dt: f64,
            q_old: &HaloView,
            q: &mut HaloField,
        ) {
            let mut adv = vec![0.0; u.ni];
            for k in 0..u.nk {
                for j in 0..u.nj {
                    let qs = q_old.star(j, k);
                    let (uc, vc) = (u.interior_row(j, k), v.interior_row(j, k));
                    upwind_row(&qs, uc, vc, t, j, &mut adv);
                    advance_row(q.interior_row_mut(j, k), qs.c, &adv, dt);
                }
            }
        }
    }

    type Continuity =
        unsafe fn(&mut HaloField, &HaloView, &HaloView, &MetricTables, f64, &mut [f64]);
    type Tracer =
        unsafe fn(&HaloView, &HaloView, &MetricTables, f64, &mut [&mut HaloField], &mut [f64]);
    type Momentum = unsafe fn(
        &mut HaloField,
        &mut HaloField,
        &HaloView,
        &MetricTables,
        &[f64],
        f64,
        f64,
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

    /// Overwrite every ghost of `h` with `from`'s: what exchanging them
    /// writes.
    fn set_ghosts(h: &mut HaloField, from: &HaloField) {
        let (ni, nj, nk) = h.shape();
        for k in 0..nk {
            for j in -1..=nj as isize {
                for i in -1..=ni as isize {
                    if !(0..ni as isize).contains(&i) || !(0..nj as isize).contains(&j) {
                        h.set(i, j, k, from.get(i, j, k));
                    }
                }
            }
        }
    }

    fn interior(h: &HaloField) -> Vec<u64> {
        h.interior_rows().flatten().map(|x| x.to_bits()).collect()
    }

    /// Every ghost of `h`, level by level.
    fn ghosts(h: &HaloField) -> Vec<u64> {
        let (ni, nj, nk) = h.shape();
        let mut out = Vec::new();
        for k in 0..nk {
            for j in -1..=nj as isize {
                for i in -1..=ni as isize {
                    if !(0..ni as isize).contains(&i) || !(0..nj as isize).contains(&j) {
                        out.push(h.get(i, j, k).to_bits());
                    }
                }
            }
        }
        out
    }

    /// The exchanged old fields of one step — thickness, winds, two
    /// tracers — the Coriolis rows, what exchanging `h*` writes into its
    /// ghosts, and the metric tables: the top rows of a taller grid, the
    /// north pole row and none of the south's, so both arms of the pole
    /// select run.
    struct Case {
        old: [HaloField; 5],
        exchanged: HaloField,
        f_cor: Vec<f64>,
        t: MetricTables,
    }

    const DT: f64 = 60.0;
    const G: f64 = 9.81;

    impl Case {
        fn new((ni, nj, nk): (usize, usize, usize)) -> Case {
            let grid = GridSpec::new(ni, nj + 2, nk);
            Case {
                old: [(1, 8e3), (2, 30.0), (3, 30.0), (4, 0.02), (5, 1e-6)]
                    .map(|(seed, scale)| halo(ni, nj, nk, seed, scale)),
                exchanged: halo(ni, nj, nk, 6, 8e3),
                f_cor: (0..nj).map(|j| 1e-4 * (j as f64 - 1.5)).collect(),
                t: MetricTables::new(&grid, 2, nj),
            }
        }

        /// The new thickness, winds and tracers from the oracle.
        fn oracle(&self) -> [HaloField; 5] {
            let [h, u, v, q1, q2] = &self.old;
            let (hv, uv, vv) = (HaloView::of(h), HaloView::of(u), HaloView::of(v));
            let mut new = self.old.clone();
            let [theta, un, vn, q1n, q2n] = &mut new;
            out_of_place::continuity(&hv, &uv, &vv, &self.t, DT, theta);
            set_ghosts(theta, &self.exchanged);
            let hs = HaloView::of(theta);
            out_of_place::momentum(&hs, &uv, &vv, &self.t, &self.f_cor, DT, G, un, vn);
            out_of_place::tracer(&uv, &vv, &self.t, DT, &HaloView::of(q1), q1n);
            out_of_place::tracer(&uv, &vv, &self.t, DT, &HaloView::of(q2), q2n);
            new
        }

        /// The same step in place through one compilation of each sweep,
        /// in the production order: continuity, `h*` ghosts, tracers,
        /// momentum.
        fn in_place(
            &self,
            (continuity, tracer, momentum): (Continuity, Tracer, Momentum),
        ) -> [HaloField; 5] {
            let mut state = self.old.clone();
            let [theta, u, v, q1, q2] = &mut state;
            let mut rows = vec![f64::NAN; ROW_BUFFERS * u.shape().0];
            // SAFETY: callers pass a target-feature wrapper only after
            // detecting that feature; the other bodies are safe functions.
            unsafe {
                let (uv, vv) = (HaloView::of(u), HaloView::of(v));
                continuity(theta, &uv, &vv, &self.t, DT, &mut rows);
                set_ghosts(theta, &self.exchanged);
                tracer(&uv, &vv, &self.t, DT, &mut [q1, q2], &mut rows);
                let hs = HaloView::of(theta);
                momentum(u, v, &hs, &self.t, &self.f_cor, DT, G, &mut rows);
            }
            state
        }
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // No public switch selects a target, so the private wrappers are
        // compared here: each compilation of the in-place sweeps must
        // reproduce the out-of-place oracle to the last bit in all five
        // fields, vector tails included, and leave every ghost but h*'s
        // as it found it. One row (every south neighbour a ghost), two,
        // five; every level restarts at a ghost row; ragged widths, rows
        // of 37 and 50, and the paper grid's 144×90×9.
        let mut targets: Vec<(&str, (Continuity, Tracer, Momentum))> = vec![
            ("portable", (continuity_body, tracer_body, momentum_body)),
            (
                "dispatched",
                (continuity_sweep, tracer_sweep, momentum_sweep),
            ),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                targets.push(("avx2", (continuity_avx2, tracer_avx2, momentum_avx2)));
            }
            if is_x86_feature_detected!("avx512f") {
                targets.push((
                    "avx512f",
                    (continuity_avx512, tracer_avx512, momentum_avx512),
                ));
            }
        }
        for shape in [
            (5, 1, 2),
            (19, 2, 3),
            (37, 5, 2),
            (50, 5, 3),
            (144, 2, 2),
            (144, 90, 9),
        ] {
            let case = Case::new(shape);
            let want = case.oracle();
            for &(name, sweeps) in &targets {
                let got = case.in_place(sweeps);
                for (field, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(interior(g), interior(w), "{shape:?} {name}: field {field}");
                    let ghosts_before = if field == 0 {
                        &case.exchanged
                    } else {
                        &case.old[field]
                    };
                    assert_eq!(
                        ghosts(g),
                        ghosts(ghosts_before),
                        "{shape:?} {name}: field {field} ghosts"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one saved row per tracer")]
    fn tracer_sweep_refuses_more_tracers_than_saved_rows() {
        let case = Case::new((8, 2, 2));
        let [_, u, v, ..] = &case.old;
        let mut fields: Vec<HaloField> = (0..ROW_BUFFERS).map(|_| u.clone()).collect();
        let mut tracers: Vec<&mut HaloField> = fields.iter_mut().collect();
        let mut rows = vec![0.0; ROW_BUFFERS * 8];
        let (uv, vv) = (HaloView::of(u), HaloView::of(v));
        tracer_sweep(&uv, &vv, &case.t, DT, &mut tracers, &mut rows);
    }
}
