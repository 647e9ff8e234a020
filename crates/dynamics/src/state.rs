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
use agcm_grid::dispatched;
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
        let mut fold = OutcomeFold::default();
        for v in [Variable::U, Variable::V] {
            let rows = self.field(v).interior_rows();
            rows.for_each(|row| fold.row(v.index(), row));
        }
        fold.max_wind()
    }

    /// Local mass (sum of thickness over the subdomain) — conserved by the
    /// flux-form continuity equation up to boundary fluxes.
    pub fn local_mass(&self) -> f64 {
        self.field(Variable::Theta).interior_rows().flatten().sum()
    }

    /// True if any field holds a non-finite value (instability detector).
    pub fn has_blown_up(&self) -> bool {
        let mut fold = OutcomeFold::default();
        for (index, field) in self.fields.iter().enumerate() {
            field.interior_rows().for_each(|row| fold.row(index, row));
        }
        !fold.stable()
    }
}

/// Lanes of the outcome folds: eight independent chains, not one.
const LANES: usize = 8;

/// `acc[l] = step(acc[l], x)` for the `l`-th of every eight values `x`.
#[inline(always)]
fn fold_lanes(acc: &mut [f64; LANES], row: &[f64], step: impl Fn(f64, f64) -> f64) {
    let mut lanes = *acc;
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &x) in lanes.iter_mut().zip(chunk) {
            *a = step(*a, x);
        }
    }
    for (a, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *a = step(*a, x);
    }
    *acc = lanes;
}

dispatched! {
    /// Fold `row` into the finiteness lanes — `x · 0` is ±0 for a finite
    /// `x` and NaN otherwise, and +0 + ±0 is +0 — and, for a wind, the
    /// max-|x| lanes: `max` ignores NaN and every |x| is +0 or more.
    /// Both are exact in any order: the serial definitions' bits.
    fn fold_row / fold_row_body / fold_row_avx2 / fold_row_avx512 (
        fold: &mut OutcomeFold,
        wind: bool,
        row: &[f64],
    ) {
        fold_lanes(&mut fold.finite, row, |a, x| a + x * 0.0);
        if wind {
            fold_lanes(&mut fold.wind, row, |a, x| a.max(x.abs()));
        }
    }
}

/// A run's outcome — every value finite, the largest |u|, |v| — folded
/// row by row, from a state or from a checkpoint as it streams past: the
/// same rows in any order give the same bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutcomeFold {
    finite: [f64; LANES],
    wind: [f64; LANES],
}

impl OutcomeFold {
    /// Fold an interior row of the field at `index` in [`Variable::ALL`].
    pub fn row(&mut self, index: usize, row: &[f64]) {
        let wind = index == Variable::U.index() || index == Variable::V.index();
        fold_row(self, wind, row);
    }

    /// True if every value folded was finite.
    pub fn stable(&self) -> bool {
        self.finite.iter().all(|&a| a == 0.0)
    }

    /// The largest |u|, |v| folded (0 if none).
    pub fn max_wind(&self) -> f64 {
        self.wind.iter().fold(0.0, |m, &a| m.max(a))
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

    /// A row of `len` values from a SplitMix64 stream; with `specials`
    /// some are NaN, ±∞ or ±0.
    fn random_row(seed: &mut u64, len: usize, specials: bool) -> Vec<f64> {
        (0..len)
            .map(|_| {
                *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let x = (z >> 11) as f64 / (1u64 << 53) as f64 * 2e3 - 1e3;
                match z % 16 {
                    0 if specials => f64::NAN,
                    1 if specials => f64::INFINITY,
                    2 if specials => f64::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    _ => x,
                }
            })
            .collect()
    }

    #[test]
    fn lane_folds_are_the_serial_definitions_on_every_target() {
        type Fold = unsafe fn(&mut OutcomeFold, bool, &[f64]);
        let mut targets: Vec<(&str, Fold)> =
            vec![("portable", fold_row_body), ("dispatched", fold_row)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                targets.push(("avx2", fold_row_avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                targets.push(("avx512f", fold_row_avx512));
            }
        }
        let mut seed = 7;
        for case in 0..600 {
            // Rows of every length 0–17, so every ragged tail is seen.
            let len = case % 18;
            let rows: Vec<_> = (0..3)
                .map(|_| random_row(&mut seed, len, case % 3 == 0))
                .collect();
            let finite = rows.iter().flatten().all(|x| x.is_finite());
            let max_abs = rows.iter().flatten().fold(0.0f64, |m, &x| m.max(x.abs()));
            for &(name, fold_row) in &targets {
                let mut fold = OutcomeFold::default();
                for row in &rows {
                    // SAFETY: a target-feature wrapper is listed only after
                    // detecting that feature; the others are safe functions.
                    unsafe { fold_row(&mut fold, true, row) };
                }
                assert_eq!(fold.stable(), finite, "case {case} {name}: {rows:?}");
                assert_eq!(
                    fold.max_wind().to_bits(),
                    max_abs.to_bits(),
                    "case {case} {name}: {rows:?}"
                );
            }
        }
    }

    #[test]
    fn diagnostics_are_the_serial_scans() {
        let grid = GridSpec::new(19, 6, 2);
        let d = Decomp::new(grid, 1, 1);
        let mut s = ModelState::initial(grid, d.subdomain(0, 0));
        // All winds negative, and |v| the largest: a fold of |u| alone
        // or of signed values would miss it.
        for (v, scale) in [(Variable::U, -1.0), (Variable::V, -300.0)] {
            for x in s.field_mut(v).interior_rows_mut().flatten() {
                *x = scale * x.abs() - 1e-3;
            }
        }
        let serial = |s: &ModelState| {
            let winds = [Variable::U, Variable::V].map(|v| s.field(v));
            let max = winds
                .iter()
                .flat_map(|f| f.interior_rows().flatten())
                .fold(0.0f64, |m, &x| m.max(x.abs()));
            let finite = s
                .fields
                .iter()
                .all(|f| f.interior_rows().flatten().all(|x| x.is_finite()));
            (max.to_bits(), finite)
        };
        let check = |s: &ModelState| {
            let (max, finite) = serial(s);
            let mut fold = OutcomeFold::default();
            for (index, field) in s.fields.iter().enumerate() {
                field.interior_rows().for_each(|row| fold.row(index, row));
            }
            assert_eq!(s.max_wind().to_bits(), max);
            assert_eq!(fold.max_wind().to_bits(), max);
            assert_eq!(!s.has_blown_up(), finite);
            assert_eq!(fold.stable(), finite);
        };
        check(&s);
        assert!(s.max_wind() > 100.0);
        let wind = s.max_wind();
        s.field_mut(Variable::Ozone).set(5, 3, 1, f64::NEG_INFINITY);
        check(&s);
        assert!(s.has_blown_up() && s.max_wind() == wind);
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
