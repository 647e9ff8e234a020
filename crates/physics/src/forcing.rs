//! The physics forcing tables: every transcendental of a pass, hoisted.
//!
//! Cloud fraction, solar zenith angle and convective instability are pure
//! functions of (lat, lon, t), and each of their transcendental factors
//! depends on latitude *or* on (longitude, t) alone. [`Forcing`] evaluates
//! those factors once — per latitude when built, per longitude at every
//! [`Forcing::set_time`] — so a pass costs O(n_lon + n_lat) `sin`/`cos`/
//! `exp` calls instead of nine per column. This is the paper's §4 recipe
//! (hoist loop-invariant factors into tables) applied to the physics.
//!
//! The contract is bit-identity with the scalar functions in [`clouds`],
//! [`convection`] and [`radiation`]: only complete sub-expressions are
//! tabulated, and the per-column lookup recombines them in the scalar
//! code's evaluation order.
//!
//! [`clouds`]: crate::clouds
//! [`convection`]: crate::convection
//! [`radiation`]: crate::radiation

use crate::clouds::lattice_noise;
use crate::convection::{adjustment_iterations, ADJ_FLOPS_PER_PAIR};
use crate::radiation::{DAY_SECONDS, LW_FLOPS_PER_PAIR, SW_FLOPS_PER_LEVEL};
use crate::step::PhysicsConfig;
use agcm_grid::latlon::GridSpec;
use std::f64::consts::PI;

/// The latitude-only factors of one grid row.
#[derive(Debug, Clone, Copy)]
struct LatFactors {
    /// `cos φ` (solar zenith).
    cos: f64,
    /// `0.15 + itcz(φ)` (cloud background plus the ITCZ envelope).
    cloud_base: f64,
    /// `0.25 · max(sin(|φ|/0.9·π), 0)` (storm-track amplitude).
    storm: f64,
    /// `1.6 · exp(−(φ/0.45)²)` (thermodynamic instability background).
    cape_base: f64,
    /// `⌊20φ⌋`, `⌊40φ⌋` (noise lattice rows of cloud and trigger).
    n20: i64,
    n40: i64,
}

/// The factors of one grid meridian; `wave` and `cos_hour` follow the time.
#[derive(Debug, Clone, Copy)]
struct LonFactors {
    lon: f64,
    /// `⌊20λ⌋`, `⌊40λ⌋`.
    n20: i64,
    n40: i64,
    /// `0.5 + 0.5·sin(3λ − drift(t))` (storm-track phase).
    wave: f64,
    /// `cos(λ − 2π·t/day)` (cosine of the hour angle).
    cos_hour: f64,
}

/// What drives one column's physics at the table's time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ColumnForcing {
    /// Cloud fraction in [0, 1].
    pub(crate) cloud: f64,
    /// Cosine of the solar zenith angle; positive means sunlit.
    pub(crate) cos_zenith: f64,
    /// Convective adjustment iterations triggered.
    pub(crate) convection_iters: usize,
}

/// Breakdown of one column's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnCost {
    /// Whether the column is sunlit (shortwave runs).
    pub day: bool,
    /// Convective adjustment iterations triggered.
    pub convection_iters: usize,
    /// Total predicted flops.
    pub flops: f64,
}

/// Forcing factors of the whole grid at one instant, indexed by global
/// `(i, j)`.
#[derive(Debug, Clone)]
pub struct Forcing {
    lats: Vec<LatFactors>,
    lons: Vec<LonFactors>,
    /// Noise refresh buckets: simulated hour (cloud), half hour (trigger).
    hour_bucket: i64,
    half_hour_bucket: i64,
    /// Flops of a night column without convection, of the shortwave
    /// sweep, and of one adjustment iteration.
    night_flops: f64,
    sw_flops: f64,
    iter_flops: f64,
}

impl Forcing {
    /// Tables for `grid` at time `t` seconds.
    pub fn new(grid: &GridSpec, t: f64) -> Forcing {
        let cfg = PhysicsConfig::for_grid(grid);
        let lats = (0..grid.n_lat)
            .map(|j| {
                let lat = grid.latitude(j);
                LatFactors {
                    cos: lat.cos(),
                    cloud_base: 0.15 + 0.35 * (-(lat / 0.15).powi(2)).exp(),
                    storm: 0.25 * (lat.abs() / 0.9 * PI).sin().max(0.0),
                    cape_base: 1.6 * (-(lat / 0.45).powi(2)).exp(),
                    n20: (lat * 20.0).floor() as i64,
                    n40: (lat * 40.0).floor() as i64,
                }
            })
            .collect();
        let lons = (0..grid.n_lon)
            .map(|i| {
                let lon = grid.longitude(i);
                LonFactors {
                    lon,
                    n20: (lon * 20.0).floor() as i64,
                    n40: (lon * 40.0).floor() as i64,
                    wave: 0.0,
                    cos_hour: 0.0,
                }
            })
            .collect();
        let k = cfg.n_lev;
        let mut forcing = Forcing {
            lats,
            lons,
            hour_bucket: 0,
            half_hour_bucket: 0,
            night_flops: cfg.base_flops + LW_FLOPS_PER_PAIR * (k * k) as f64,
            sw_flops: SW_FLOPS_PER_LEVEL * k as f64,
            iter_flops: ADJ_FLOPS_PER_PAIR * k.saturating_sub(1) as f64,
        };
        forcing.set_time(t);
        forcing
    }

    /// Move the tables to time `t`: one `sin` and one `cos` per meridian.
    pub fn set_time(&mut self, t: f64) {
        let drift = 2.0 * PI * t / (10.0 * 86_400.0);
        let sun = 2.0 * PI * (t / DAY_SECONDS);
        for l in &mut self.lons {
            l.wave = 0.5 + 0.5 * (3.0 * l.lon - drift).sin();
            l.cos_hour = (l.lon - sun).cos();
        }
        self.hour_bucket = (t / 3600.0).floor() as i64;
        self.half_hour_bucket = (t / 1800.0).floor() as i64;
    }

    /// Forcing of the column at global grid point `(i, j)`.
    #[inline]
    pub(crate) fn column(&self, i: usize, j: usize) -> ColumnForcing {
        let (la, lo) = (&self.lats[j], &self.lons[i]);
        let storm_tracks = la.storm * lo.wave;
        let noise = 0.3 * lattice_noise(lo.n20, la.n20, self.hour_bucket);
        let cloud = (la.cloud_base + storm_tracks + noise).clamp(0.0, 1.0);
        let moisture = 0.8 * cloud;
        let trigger = lattice_noise(lo.n40, la.n40, self.half_hour_bucket);
        let cape = la.cape_base * moisture * (0.4 + 1.2 * trigger);
        ColumnForcing {
            cloud,
            cos_zenith: la.cos * lo.cos_hour,
            convection_iters: adjustment_iterations(cape),
        }
    }

    /// Flops the physics performs on a column with forcing `f`. Every
    /// term is a whole number, so sums of charges are exact in any order.
    #[inline]
    pub(crate) fn flops(&self, f: &ColumnForcing) -> f64 {
        let mut flops = self.night_flops;
        if f.cos_zenith > 0.0 {
            flops += self.sw_flops;
        }
        flops + self.iter_flops * f.convection_iters as f64
    }

    /// Predict the cost of the column at global `(i, j)` without doing the
    /// work — what the balancer selects delegated columns by.
    pub fn cost(&self, i: usize, j: usize) -> ColumnCost {
        let f = self.column(i, j);
        ColumnCost {
            day: f.cos_zenith > 0.0,
            convection_iters: f.convection_iters,
            flops: self.flops(&f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clouds::cloud_fraction;
    use crate::convection::instability;
    use crate::radiation::solar_zenith_cos;

    #[test]
    fn tables_reproduce_the_scalar_functions_bit_for_bit() {
        let g = GridSpec::new(36, 24, 9);
        let mut forcing = Forcing::new(&g, 0.0);
        for t in [0.0, 1799.0, 3600.0, 43_200.5, 86_400.0 * 7.25] {
            forcing.set_time(t);
            for j in 0..g.n_lat {
                for i in 0..g.n_lon {
                    let (lat, lon) = (g.latitude(j), g.longitude(i));
                    let f = forcing.column(i, j);
                    assert_eq!(f.cloud.to_bits(), cloud_fraction(lat, lon, t).to_bits());
                    assert_eq!(
                        f.cos_zenith.to_bits(),
                        solar_zenith_cos(lat, lon, t).to_bits()
                    );
                    assert_eq!(
                        f.convection_iters,
                        adjustment_iterations(instability(lat, lon, t))
                    );
                }
            }
        }
    }

    #[test]
    fn set_time_equals_a_fresh_table() {
        let g = GridSpec::new(24, 12, 3);
        let mut moved = Forcing::new(&g, 0.0);
        moved.set_time(5400.0);
        let fresh = Forcing::new(&g, 5400.0);
        for j in 0..g.n_lat {
            for i in 0..g.n_lon {
                assert_eq!(moved.cost(i, j), fresh.cost(i, j));
            }
        }
    }
}
