//! Precomputed per-latitude metric tables — the paper's
//! redundant-computation elimination (§3.4).
//!
//! The original AGCM loops re-derived `cos φ`, the half-latitude cosines
//! of the meridional flux faces, and the metric reciprocals at every grid
//! point; "eliminating or minimizing redundant calculations in nested
//! loops" was the first of the machine-independent optimizations. A
//! [`MetricTables`] holds those factors once per latitude row of a
//! subdomain so the flat kernels in `agcm-kernels` hoist all trig and
//! per-row divisions out of their inner loops.
//!
//! Every entry is computed by the *same floating-point expression* the
//! reference operators in `agcm-dynamics` use per point, so kernels that
//! read these tables stay bit-identical to the `from_fn` reference path.

use crate::latlon::GridSpec;

/// Per-latitude metric factors for the subdomain rows `[j0, j0 + nj)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTables {
    /// First global latitude row of the subdomain.
    pub j0: usize,
    /// Global latitude row count (pole detection).
    pub n_lat: usize,
    /// Longitude spacing (radians).
    pub dlon: f64,
    /// Latitude spacing (radians).
    pub dlat: f64,
    /// `cos φ_j` at cell centres, one per local row.
    pub cos_lat: Vec<f64>,
    /// `cos` at the northern cell face of each local row, clamped ≥ 0 at
    /// the poles — the weight of the northward mass flux.
    pub cos_half_north: Vec<f64>,
    /// `cos` at the southern cell face of each local row, clamped ≥ 0.
    pub cos_half_south: Vec<f64>,
}

impl MetricTables {
    /// Tables for rows `[j0, j0 + nj)` of `grid`.
    pub fn new(grid: &GridSpec, j0: usize, nj: usize) -> MetricTables {
        assert!(j0 + nj <= grid.n_lat, "subdomain rows out of range");
        let dlon = grid.dlon();
        let dlat = grid.dlat();
        // Same expression as `flux_divergence`'s `cos_half` closure.
        let cos_half = |j_global: f64| -> f64 {
            let lat = -std::f64::consts::FRAC_PI_2 + (j_global + 0.5) * dlat;
            lat.cos().max(0.0)
        };
        let mut t = MetricTables {
            j0,
            n_lat: grid.n_lat,
            dlon,
            dlat,
            cos_lat: Vec::with_capacity(nj),
            cos_half_north: Vec::with_capacity(nj),
            cos_half_south: Vec::with_capacity(nj),
        };
        for j in 0..nj {
            let jg = j0 + j;
            let lat = grid.latitude(jg);
            t.cos_lat.push(lat.cos());
            t.cos_half_north.push(cos_half(jg as f64));
            t.cos_half_south.push(cos_half(jg as f64 - 1.0));
        }
        t
    }

    /// Empty tables (placeholder until a scratch workspace learns its
    /// subdomain shape).
    pub fn empty() -> MetricTables {
        MetricTables {
            j0: 0,
            n_lat: 0,
            dlon: 0.0,
            dlat: 0.0,
            cos_lat: Vec::new(),
            cos_half_north: Vec::new(),
            cos_half_south: Vec::new(),
        }
    }

    /// Number of local rows covered.
    pub fn nj(&self) -> usize {
        self.cos_lat.len()
    }

    /// True if local row `j`'s northern face lies across the north pole
    /// boundary (meridional flux forced to zero there).
    #[inline]
    pub fn north_is_pole(&self, j: usize) -> bool {
        self.j0 + j + 1 >= self.n_lat
    }

    /// True if local row `j`'s southern face lies across the south pole
    /// boundary.
    #[inline]
    pub fn south_is_pole(&self, j: usize) -> bool {
        self.j0 + j == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_per_point_expressions() {
        let grid = GridSpec::new(24, 16, 2);
        let t = MetricTables::new(&grid, 4, 7);
        assert_eq!(t.nj(), 7);
        for j in 0..7 {
            let jg = 4 + j;
            // Bit-exact against the reference expressions.
            assert_eq!(t.cos_lat[j], grid.latitude(jg).cos());
            let dlat = grid.dlat();
            let expect_n = (-std::f64::consts::FRAC_PI_2 + (jg as f64 + 0.5) * dlat)
                .cos()
                .max(0.0);
            let expect_s = (-std::f64::consts::FRAC_PI_2 + (jg as f64 - 1.0 + 0.5) * dlat)
                .cos()
                .max(0.0);
            assert_eq!(t.cos_half_north[j], expect_n);
            assert_eq!(t.cos_half_south[j], expect_s);
        }
    }

    #[test]
    fn pole_rows_detected() {
        let grid = GridSpec::new(8, 6, 1);
        let south = MetricTables::new(&grid, 0, 3);
        assert!(south.south_is_pole(0));
        assert!(!south.south_is_pole(1));
        assert!(!south.north_is_pole(2));
        let north = MetricTables::new(&grid, 3, 3);
        assert!(north.north_is_pole(2));
        assert!(!north.north_is_pole(1));
        assert!(!north.south_is_pole(0));
    }

    #[test]
    fn half_face_cos_clamped_at_poles() {
        let grid = GridSpec::new(8, 6, 1);
        let t = MetricTables::new(&grid, 0, 6);
        // The southernmost face index lies poleward of −π/2, where the
        // raw cosine goes negative: the reference clamps it to zero (the
        // flux there is forced to zero by the pole branch regardless).
        assert_eq!(t.cos_half_south[0], 0.0);
        // Interior faces keep their positive cosines.
        assert!(t.cos_half_north.iter().all(|&c| c >= 0.0));
        assert!(t.cos_half_north[2] > 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_subdomain_rejected() {
        MetricTables::new(&GridSpec::new(8, 6, 1), 4, 3);
    }
}
