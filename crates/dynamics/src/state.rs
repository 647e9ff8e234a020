//! The prognostic model state of one rank.
//!
//! Six variables, matching `agcm_grid::arakawa::Variable`: winds u and v,
//! layer thickness h (standing in for potential temperature as the mass
//! variable of the shallow-water reduction), surface pressure p, and two
//! advected tracers (specific humidity q and ozone o₃). Each is a local
//! [`HaloField`] over the rank's subdomain, all vertical levels, with a
//! one-point ghost frame: the dynamics swaps a field with its
//! previous-state buffer and exchanges the ghosts there, so no step
//! copies a field to give it a frame. The value of the state is its
//! interiors — equality, the diagnostics and the checkpoint ignore
//! whatever the ghosts hold.

use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::Subdomain;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;

/// Ghost width of every state field: the five-point stencils reach one
/// point out.
pub const GHOST_WIDTH: usize = 1;

/// Mean layer thickness (m) around which the state is initialized.
pub const MEAN_THICKNESS: f64 = 8_000.0;

/// One rank's prognostic fields, indexable by [`Variable`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// The fields, ordered as [`Variable::ALL`].
    pub fields: Vec<HaloField>,
    /// The owning subdomain.
    pub sub: Subdomain,
    /// The global grid.
    pub grid: GridSpec,
}

impl ModelState {
    /// A state of zeros.
    pub fn zeros(grid: GridSpec, sub: Subdomain) -> ModelState {
        let fields = Variable::ALL
            .iter()
            .map(|_| HaloField::zeros(sub.ni, sub.nj, grid.n_lev, GHOST_WIDTH))
            .collect();
        ModelState { fields, sub, grid }
    }

    /// A balanced, smoothly varying initial condition: a zonal jet in
    /// gradient balance with the thickness field, plus tracer plumes and a
    /// burst of short polar waves (the modes the filter exists to damp).
    ///
    /// Every term is a product of a factor of latitude, one of longitude
    /// and one of level, so the transcendentals are evaluated once per
    /// row and once per column, not once per point — this is nearly all
    /// of a world's set-up time. Each point still sees the same
    /// operations on the same operands in the same order.
    pub fn initial(grid: GridSpec, sub: Subdomain) -> ModelState {
        let mut s = ModelState::zeros(grid, sub);
        // Per column: the longitude factors of h, the polar noise, v and
        // ozone.
        let columns: Vec<[f64; 4]> = (0..sub.ni)
            .map(|i| {
                let lon = grid.longitude(sub.i0 + i);
                [
                    40.0 * (3.0 * lon).cos(),
                    6.0 * (20.0 * lon).sin(),
                    0.5 * (5.0 * lon).sin(),
                    1.0e-6 * (1.0 + 0.3 * (2.0 * lon).sin()),
                ]
            })
            .collect();
        for k in 0..grid.n_lev {
            // Weak vertical shear of the jet.
            let shear = 1.0 + 0.08 * k as f64;
            let pressure = 1.0e5 - 10.0 * k as f64;
            for j in 0..sub.nj {
                let lat = grid.latitude(sub.j0 + j);
                // Zonal jet peaking mid-latitude.
                let jet = 25.0 * (2.0 * lat).sin().powi(2) * shear;
                // Thickness in approximate balance (+ planetary wave).
                let balanced = MEAN_THICKNESS - 600.0 * lat.sin().powi(2);
                let cos_lat = lat.cos();
                // Envelope of the short polar noise, the CFL offenders.
                let polar = lat.sin().powi(4);
                let humidity = (0.02 * (-(lat / 0.5).powi(2)).exp()).max(1e-6);
                s.field_mut(Variable::U).interior_row_mut(j, k).fill(jet);
                let v_row = s.field_mut(Variable::V).interior_row_mut(j, k);
                for (x, &[.., v, _]) in v_row.iter_mut().zip(&columns) {
                    *x = v * cos_lat;
                }
                let theta_row = s.field_mut(Variable::Theta).interior_row_mut(j, k);
                for (x, &[wave, noise, ..]) in theta_row.iter_mut().zip(&columns) {
                    let h = balanced + wave * cos_lat;
                    *x = h + noise * polar;
                }
                s.field_mut(Variable::Pressure)
                    .interior_row_mut(j, k)
                    .fill(pressure);
                s.field_mut(Variable::Humidity)
                    .interior_row_mut(j, k)
                    .fill(humidity);
                let ozone_row = s.field_mut(Variable::Ozone).interior_row_mut(j, k);
                for (x, &[.., ozone]) in ozone_row.iter_mut().zip(&columns) {
                    *x = ozone;
                }
            }
        }
        s
    }

    /// Borrow a variable's field.
    pub fn field(&self, v: Variable) -> &HaloField {
        &self.fields[v.index()]
    }

    /// Mutably borrow a variable's field.
    pub fn field_mut(&mut self, v: Variable) -> &mut HaloField {
        &mut self.fields[v.index()]
    }

    /// Maximum |u|, |v| over the local subdomain — the local CFL speed.
    pub fn max_wind(&self) -> f64 {
        let scan = |v| {
            self.field(v)
                .interior_rows()
                .flatten()
                .fold(0.0f64, |m, &x| m.max(x.abs()))
        };
        scan(Variable::U).max(scan(Variable::V))
    }

    /// Local mass (sum of thickness over the subdomain) — conserved by the
    /// flux-form continuity equation up to boundary fluxes.
    pub fn local_mass(&self) -> f64 {
        self.field(Variable::Theta).interior_rows().flatten().sum()
    }

    /// True if any field holds a non-finite value (instability detector).
    pub fn has_blown_up(&self) -> bool {
        self.fields.iter().any(|f| {
            f.interior_rows()
                .any(|row| row.iter().any(|v| !v.is_finite()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_grid::decomp::Decomp;

    #[test]
    fn initial_state_is_finite_and_plausible() {
        let grid = GridSpec::new(36, 24, 3);
        let d = Decomp::new(grid, 1, 1);
        let s = ModelState::initial(grid, d.subdomain(0, 0));
        assert!(!s.has_blown_up());
        assert!(s.max_wind() > 10.0 && s.max_wind() < 100.0);
        let mean_h = s.local_mass() / (36.0 * 24.0 * 3.0);
        assert!(
            (mean_h - MEAN_THICKNESS).abs() < 1_000.0,
            "mean thickness {mean_h}"
        );
    }

    /// The per-point formulas `initial` factors, as they were written
    /// before the factoring.
    fn pointwise(grid: &GridSpec, gi: usize, gj: usize, k: usize) -> [f64; 6] {
        let (lat, lon) = (grid.latitude(gj), grid.longitude(gi));
        let jet = 25.0 * (2.0 * lat).sin().powi(2) * (1.0 + 0.08 * k as f64);
        let h = MEAN_THICKNESS - 600.0 * lat.sin().powi(2) + 40.0 * (3.0 * lon).cos() * lat.cos();
        let polar_noise = 6.0 * (20.0 * lon).sin() * lat.sin().powi(4);
        [
            jet,
            0.5 * (5.0 * lon).sin() * lat.cos(),
            h + polar_noise,
            1.0e5 - 10.0 * k as f64,
            (0.02 * (-(lat / 0.5).powi(2)).exp()).max(1e-6),
            1.0e-6 * (1.0 + 0.3 * (2.0 * lon).sin()),
        ]
    }

    #[test]
    fn factored_initial_state_is_the_pointwise_one_to_the_bit() {
        let grid = GridSpec::new(46, 30, 3);
        let d = Decomp::new(grid, 2, 3);
        let order = [
            Variable::U,
            Variable::V,
            Variable::Theta,
            Variable::Pressure,
            Variable::Humidity,
            Variable::Ozone,
        ];
        for rank in 0..d.size() {
            let sub = d.subdomain_of_rank(rank);
            let s = ModelState::initial(grid, sub);
            for k in 0..grid.n_lev {
                for j in 0..sub.nj {
                    for i in 0..sub.ni {
                        let expect = pointwise(&grid, sub.i0 + i, sub.j0 + j, k);
                        for (v, e) in order.iter().zip(expect) {
                            assert_eq!(
                                s.field(*v).get(i as isize, j as isize, k).to_bits(),
                                e.to_bits(),
                                "rank {rank} {v:?} at ({i},{j},{k})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn subdomain_states_tile_the_global_one() {
        let grid = GridSpec::new(24, 12, 2);
        let d = Decomp::new(grid, 2, 3);
        let global = ModelState::initial(grid, Decomp::new(grid, 1, 1).subdomain(0, 0));
        for rank in 0..d.size() {
            let sub = d.subdomain_of_rank(rank);
            let local = ModelState::initial(grid, sub);
            for v in Variable::ALL {
                for k in 0..grid.n_lev {
                    for j in 0..sub.nj {
                        for i in 0..sub.ni {
                            assert_eq!(
                                local.field(v).get(i as isize, j as isize, k),
                                global.field(v).get(
                                    (sub.i0 + i) as isize,
                                    (sub.j0 + j) as isize,
                                    k
                                ),
                                "rank {rank} {v:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blowup_detection() {
        let grid = GridSpec::new(8, 4, 1);
        let d = Decomp::new(grid, 1, 1);
        let mut s = ModelState::initial(grid, d.subdomain(0, 0));
        assert!(!s.has_blown_up());
        s.field_mut(Variable::V).set(3, -1, 0, f64::NAN);
        assert!(!s.has_blown_up(), "a ghost is not the state");
        s.field_mut(Variable::V).set(3, 2, 0, f64::NAN);
        assert!(s.has_blown_up());
    }

    #[test]
    fn variable_accessors_are_distinct() {
        let grid = GridSpec::new(8, 4, 1);
        let d = Decomp::new(grid, 1, 1);
        let mut s = ModelState::zeros(grid, d.subdomain(0, 0));
        s.field_mut(Variable::U).set(0, 0, 0, 1.0);
        s.field_mut(Variable::Ozone).set(0, 0, 0, 2.0);
        s.field_mut(Variable::V).set(-1, 0, 0, 3.0);
        assert_eq!(s.field(Variable::U).get(0, 0, 0), 1.0);
        assert_eq!(s.field(Variable::Ozone).get(0, 0, 0), 2.0);
        assert_eq!(s.field(Variable::V).get(0, 0, 0), 0.0);
    }
}
