//! Finite-difference tendency kernels: gradients, flux-form divergence,
//! momentum and field updates.
//!
//! Every expression is defined once, as an `#[inline(always)]` **row
//! primitive** over exact-length slices: the fused sweeps in
//! [`crate::sweeps`] call the primitives on L1-sized row buffers, and the
//! whole-field `_into` kernels here loop the same primitives over a
//! caller-owned output (no per-call allocation). Each is bit-identical to
//! the corresponding `from_fn` reference operator in `agcm-dynamics`:
//! identical per-point expression, identical evaluation order, with the
//! row-constant factors (trig, metric denominators, the Coriolis
//! parameter) hoisted out of the inner loop — the paper's
//! redundant-computation elimination. Divisions by hoisted denominators
//! remain divisions; nothing is replaced by a multiply-by-reciprocal on
//! this path.

use crate::view::{HaloView, Star};
use agcm_grid::latlon::EARTH_RADIUS_M;
use agcm_grid::metrics::MetricTables;

/// The asserts every kernel over `q`'s subdomain shares: `t` covers its
/// rows and `out` is a flat `ni·nj·nk` interior.
pub(crate) fn check_shapes(q: &HaloView, t: &MetricTables, out: &[f64]) {
    assert_eq!(t.nj(), q.nj, "metric tables must cover the subdomain rows");
    assert_eq!(out.len(), q.ni * q.nj * q.nk, "output buffer mis-sized");
}

/// Run `row(j, k, out_row)` over every interior row of an `ni·nj·nk`
/// output buffer.
#[inline(always)]
fn for_each_row(q: &HaloView, out: &mut [f64], mut row: impl FnMut(usize, usize, &mut [f64])) {
    for (r, o) in out.chunks_exact_mut(q.ni).enumerate() {
        row(r % q.nj, r / q.nj, o);
    }
}

/// Centred difference `(hi − lo) / denom` along one row — the expression
/// behind both gradients.
#[inline(always)]
fn centred_row(hi: &[f64], lo: &[f64], denom: f64, out: &mut [f64]) {
    let n = out.len();
    let (hi, lo) = (&hi[..n], &lo[..n]);
    for i in 0..n {
        out[i] = (hi[i] - lo[i]) / denom;
    }
}

/// One row of the zonal derivative `(1/(a cosφ)) ∂q/∂λ`.
#[inline(always)]
pub(crate) fn grad_x_row(q: &Star, t: &MetricTables, j: usize, out: &mut [f64]) {
    // Hoisted per row; same expression the reference evaluates per point.
    centred_row(q.e, q.w, 2.0 * t.dlon * EARTH_RADIUS_M * t.cos_lat[j], out);
}

/// One row of the meridional derivative `(1/a) ∂q/∂φ`.
#[inline(always)]
pub(crate) fn grad_y_row(q: &Star, t: &MetricTables, out: &mut [f64]) {
    centred_row(q.n, q.s, 2.0 * t.dlat * EARTH_RADIUS_M, out);
}

/// One row of the flux-form divergence `∇·(h·u)`. Meridional flux is
/// forced to zero across the poles (row-level booleans from the tables,
/// not per-point index tests).
#[inline(always)]
pub(crate) fn flux_divergence_row(
    h: &Star,
    u: &Star,
    v: &Star,
    t: &MetricTables,
    j: usize,
    out: &mut [f64],
) {
    let acos = EARTH_RADIUS_M * t.cos_lat[j];
    let (chn, chs) = (t.cos_half_north[j], t.cos_half_south[j]);
    let (north_pole, south_pole) = (t.north_is_pole(j), t.south_is_pole(j));
    let (dlon, dlat) = (t.dlon, t.dlat);
    let n = out.len();
    let (hc, uc, vc) = (&h.c[..n], &u.c[..n], &v.c[..n]);
    let (he, ue, hw, uw) = (&h.e[..n], &u.e[..n], &h.w[..n], &u.w[..n]);
    let (hn, vn, hs, vs) = (&h.n[..n], &v.n[..n], &h.s[..n], &v.s[..n]);
    for i in 0..n {
        let fe = 0.5 * (hc[i] * uc[i] + he[i] * ue[i]);
        let fw = 0.5 * (hw[i] * uw[i] + hc[i] * uc[i]);
        let gn = if north_pole {
            0.0
        } else {
            0.5 * (hc[i] * vc[i] + hn[i] * vn[i]) * chn
        };
        let gs = if south_pole {
            0.0
        } else {
            0.5 * (hs[i] * vs[i] + hc[i] * vc[i]) * chs
        };
        out[i] = ((fe - fw) / dlon + (gn - gs) / dlat) / acos;
    }
}

/// One row of the forward-backward momentum update: Coriolis + pressure
/// gradient on `h*` + advection, from the old winds `(u_old, v_old)` into
/// `(u, v)`. Per point:
///
/// ```text
/// u = u_old + dt·( f·v_old − g·∂h*/∂x + adv_u)
/// v = v_old + dt·(−f·u_old − g·∂h*/∂y + adv_v)
/// ```
///
/// `f` is the row's Coriolis parameter.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the operator's real arity
pub(crate) fn momentum_row(
    u: &mut [f64],
    v: &mut [f64],
    u_old: &[f64],
    v_old: &[f64],
    dhdx: &[f64],
    dhdy: &[f64],
    adv_u: &[f64],
    adv_v: &[f64],
    f: f64,
    dt: f64,
    g: f64,
) {
    let n = u.len();
    let (v, u_old, v_old) = (&mut v[..n], &u_old[..n], &v_old[..n]);
    let (gx, gy, au, av) = (&dhdx[..n], &dhdy[..n], &adv_u[..n], &adv_v[..n]);
    for i in 0..n {
        let (uu, vv) = (u_old[i], v_old[i]);
        u[i] = uu + dt * (f * vv - g * gx[i] + au[i]);
        v[i] = vv + dt * (-f * uu - g * gy[i] + av[i]);
    }
}

/// One row of the explicit update `q = q_old + dt · tendency`. Pass a
/// negative `dt` for the continuity form `h = h_old − dt·∇·(h·u)` — the
/// sign flip is exact in IEEE arithmetic, so both uses stay bit-identical
/// to the reference's in-place zip loops.
#[inline(always)]
pub(crate) fn advance_row(field: &mut [f64], old: &[f64], tendency: &[f64], dt: f64) {
    let n = field.len();
    let (old, tendency) = (&old[..n], &tendency[..n]);
    for i in 0..n {
        field[i] = old[i] + dt * tendency[i];
    }
}

/// Zonal derivative `(1/(a cosφ)) ∂q/∂λ`, centred — the flat kernel
/// behind `tendencies::grad_x`.
pub fn grad_x_into(q: &HaloView, t: &MetricTables, out: &mut [f64]) {
    check_shapes(q, t, out);
    for_each_row(q, out, |j, k, o| grad_x_row(&q.star(j, k), t, j, o));
}

/// Meridional derivative `(1/a) ∂q/∂φ`, centred — the flat kernel behind
/// `tendencies::grad_y`.
pub fn grad_y_into(q: &HaloView, t: &MetricTables, out: &mut [f64]) {
    check_shapes(q, t, out);
    for_each_row(q, out, |j, k, o| grad_y_row(&q.star(j, k), t, o));
}

/// Flux-form divergence `∇·(h·u)` on the sphere — the flat kernel behind
/// `tendencies::flux_divergence`.
pub fn flux_divergence_into(
    h: &HaloView,
    u: &HaloView,
    v: &HaloView,
    t: &MetricTables,
    out: &mut [f64],
) {
    check_shapes(h, t, out);
    assert!(
        h.same_shape(u) && h.same_shape(v),
        "field shapes must match"
    );
    for_each_row(h, out, |j, k, o| {
        flux_divergence_row(&h.star(j, k), &u.star(j, k), &v.star(j, k), t, j, o)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::halo::HaloField;
    use agcm_grid::latlon::GridSpec;

    fn halo(ni: usize, nj: usize, nk: usize, seed: usize) -> HaloField {
        let mut h = HaloField::zeros(ni, nj, nk, 1);
        h.fill_interior(|i, j, k| ((i * 7 + j * 3 + k * 11 + seed) as f64 * 0.19).sin());
        // Deterministic non-zero ghosts (physical realism is the caller's
        // concern; the kernels just read what is there).
        for k in 0..nk {
            for j in -1..=nj as isize {
                for i in [-1isize, ni as isize] {
                    h.set(i, j.clamp(0, nj as isize - 1), k, 0.0);
                }
            }
        }
        h
    }

    #[test]
    fn grad_x_of_constant_is_zero() {
        let grid = GridSpec::new(8, 6, 2);
        let mut h = HaloField::zeros(8, 6, 2, 1);
        h.fill_interior(|_, _, _| 3.0);
        // Constant ghosts too.
        for k in 0..2 {
            for j in -1..7isize {
                h.set(-1, j.clamp(0, 5), k, 3.0);
                h.set(8, j.clamp(0, 5), k, 3.0);
            }
        }
        let t = MetricTables::new(&grid, 0, 6);
        let mut out = vec![1.0; 8 * 6 * 2];
        grad_x_into(&HaloView::of(&h), &t, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn advance_row_signs() {
        let mut f = vec![f64::NAN; 2];
        advance_row(&mut f, &[1.0, 2.0], &[10.0, 20.0], 0.5);
        assert_eq!(f, vec![6.0, 12.0]);
        let old = f.clone();
        advance_row(&mut f, &old, &[10.0, 20.0], -0.5);
        assert_eq!(f, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mis-sized")]
    fn output_size_checked() {
        let grid = GridSpec::new(8, 6, 1);
        let h = halo(8, 6, 1, 0);
        let t = MetricTables::new(&grid, 0, 6);
        let mut out = vec![0.0; 7];
        grad_x_into(&HaloView::of(&h), &t, &mut out);
    }
}
