//! Sequential reference filter and global↔local field plumbing.
//!
//! [`filter_global`] applies the spectral filter to *global* fields on one
//! processor — the correctness oracle that every parallel implementation
//! must reproduce to rounding error. The scatter/gather helpers move
//! between a global field and the per-rank subdomain fields used by the
//! parallel code, so tests and examples can compare end states directly.

use crate::filterfn::FilterKind;
use crate::lines::FilterSetup;
use agcm_fft::convolution::apply_spectral_multiplier;
use agcm_fft::FftPlan;
use agcm_grid::decomp::{Decomp, Subdomain};
use agcm_grid::field::Field3D;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;

/// Apply one filter class to the given variables of a set of global
/// fields, sequentially.
pub fn filter_global_kind(
    grid: &GridSpec,
    fields: &mut [Field3D],
    kind: FilterKind,
    vars: &[usize],
) {
    let plan = FftPlan::new(grid.n_lon);
    for &var in vars {
        let field = &mut fields[var];
        assert_eq!(field.shape(), (grid.n_lon, grid.n_lat, grid.n_lev));
        for lat in kind.filtered_lats(grid) {
            let mult = kind.multiplier(grid, lat);
            for lev in 0..grid.n_lev {
                let row = field.row(lat, lev);
                let filtered = apply_spectral_multiplier(&plan, &row, &mult);
                field.set_row(lat, lev, &filtered);
            }
        }
    }
}

/// Apply the full filtering step (strong then weak classes) to global
/// fields using the variable sets of `setup`.
pub fn filter_global(setup: &FilterSetup, fields: &mut [Field3D]) {
    filter_global_kind(&setup.grid, fields, FilterKind::Strong, &setup.strong_vars);
    filter_global_kind(&setup.grid, fields, FilterKind::Weak, &setup.weak_vars);
}

/// Extract the local subdomain of a global field, as the model state
/// holds it (one-point ghost frame, ghosts zero).
pub fn local_from_global(global: &Field3D, sub: &Subdomain) -> HaloField {
    let (_, _, nk) = global.shape();
    HaloField::from_fn(sub.ni, sub.nj, nk, 1, |i, j, k| {
        global.get(sub.i0 + i, sub.j0 + j, k)
    })
}

/// Reassemble a global field from per-rank local interiors (rank-major
/// order matching [`Decomp::subdomain_of_rank`]).
pub fn global_from_locals(locals: &[HaloField], decomp: &Decomp) -> Field3D {
    assert_eq!(locals.len(), decomp.size(), "one local field per rank");
    let g = decomp.grid;
    let mut out = Field3D::zeros(g.n_lon, g.n_lat, g.n_lev);
    for (rank, local) in locals.iter().enumerate() {
        let sub = decomp.subdomain_of_rank(rank);
        assert_eq!(
            local.shape(),
            (sub.ni, sub.nj, g.n_lev),
            "local shape mismatch at rank {rank}"
        );
        for k in 0..g.n_lev {
            for j in 0..sub.nj {
                out.row_slice_mut(sub.j0 + j, k)[sub.i0..sub.i0 + sub.ni]
                    .copy_from_slice(local.interior_row(j, k));
            }
        }
    }
    out
}

/// A deterministic synthetic atmosphere used across tests, examples and
/// benches: smooth large-scale structure plus short-wave polar noise that
/// the filter visibly damps.
pub fn synthetic_field(grid: &GridSpec, var: usize) -> Field3D {
    Field3D::from_fn(grid.n_lon, grid.n_lat, grid.n_lev, |i, j, k| {
        let lon = grid.longitude(i);
        let lat = grid.latitude(j);
        let smooth = (lon * (1.0 + var as f64)).sin() * lat.cos() + 0.3 * (k as f64);
        // Short zonal waves, strongest near the poles — the CFL offenders.
        let noisy = 0.5 * (lon * 24.0 + var as f64).sin() * lat.sin().powi(2);
        smooth + noisy
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_fft::real::rfft;

    fn grid() -> GridSpec {
        GridSpec::new(48, 30, 2)
    }

    #[test]
    fn filter_damps_short_waves_near_pole() {
        let g = GridSpec::paper_9_layer();
        let mut f = synthetic_field(&g, 0);
        let before = f.row(0, 0); // most southern (polar) row
        filter_global_kind(&g, std::slice::from_mut(&mut f), FilterKind::Strong, &[0]);
        let after = f.row(0, 0);
        let plan = FftPlan::new(g.n_lon);
        let spec_before = rfft(&plan, &before);
        let spec_after = rfft(&plan, &after);
        // High-wavenumber energy must drop; the zonal mean must not move.
        assert!((spec_before[0].re - spec_after[0].re).abs() < 1e-9);
        let hi_before: f64 = spec_before[48..].iter().map(|c| c.norm_sqr()).sum();
        let hi_after: f64 = spec_after[48..].iter().map(|c| c.norm_sqr()).sum();
        assert!(
            hi_after < 0.05 * hi_before,
            "short waves {hi_before} -> {hi_after}"
        );
    }

    #[test]
    fn filter_leaves_equatorial_rows_untouched() {
        let g = grid();
        let mut f = synthetic_field(&g, 1);
        let equator_row = f.row(15, 0);
        filter_global_kind(&g, std::slice::from_mut(&mut f), FilterKind::Strong, &[0]);
        assert_eq!(f.row(15, 0), equator_row);
    }

    #[test]
    fn filter_is_idempotent_only_approximately_but_stable() {
        // Applying twice must damp at least as much, never blow up.
        let g = grid();
        let mut once = synthetic_field(&g, 0);
        filter_global_kind(
            &g,
            std::slice::from_mut(&mut once),
            FilterKind::Strong,
            &[0],
        );
        let mut twice = once.clone();
        filter_global_kind(
            &g,
            std::slice::from_mut(&mut twice),
            FilterKind::Strong,
            &[0],
        );
        let norm = |f: &Field3D| f.as_slice().iter().map(|v| v * v).sum::<f64>();
        assert!(norm(&twice) <= norm(&once) + 1e-9);
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let g = grid();
        let d = Decomp::new(g, 3, 4);
        let global = synthetic_field(&g, 2);
        let locals: Vec<HaloField> = (0..d.size())
            .map(|r| local_from_global(&global, &d.subdomain_of_rank(r)))
            .collect();
        let back = global_from_locals(&locals, &d);
        assert_eq!(back.max_abs_diff(&global), 0.0);
    }

    #[test]
    fn full_filter_touches_only_classified_vars() {
        let g = grid();
        let d = Decomp::new(g, 1, 1);
        let setup = FilterSetup::with_vars(g, d, vec![0], vec![1]);
        let mut fields = vec![
            synthetic_field(&g, 0),
            synthetic_field(&g, 1),
            synthetic_field(&g, 2),
        ];
        let untouched = fields[2].clone();
        filter_global(&setup, &mut fields);
        assert_eq!(
            fields[2].max_abs_diff(&untouched),
            0.0,
            "unclassified var must not change"
        );
        assert!(
            fields[0].max_abs_diff(&synthetic_field(&g, 0)) > 0.0,
            "strong var must change"
        );
    }
}
