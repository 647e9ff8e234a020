//! Cumulus convection: conditionally triggered, variable-cost adjustment.
//!
//! "…the amount of cumulus convection determined by the conditional
//! stability of the atmosphere" (paper §3.4). Convection is the spikiest
//! cost driver: most columns do nothing, unstable ones run an iterative
//! moist-adjustment loop whose trip count depends on how unstable they
//! are.

use crate::clouds::{cloud_fraction, lattice_noise};

/// A CAPE-like instability index for the column at (lat, lon, t). Larger
/// means more unstable; the distribution is tropics-heavy with random
/// mesoscale outbreaks.
pub fn instability(lat: f64, lon: f64, t_seconds: f64) -> f64 {
    // Thermodynamic background: warm tropics destabilize.
    let background = 1.6 * (-(lat / 0.45).powi(2)).exp();
    // Moisture availability follows cloudiness.
    let moisture = 0.8 * cloud_fraction(lat, lon, t_seconds);
    // Mesoscale trigger noise, refreshed every simulated half hour.
    let bucket = (t_seconds / 1800.0).floor() as i64;
    let trigger = lattice_noise(
        (lon * 40.0).floor() as i64,
        (lat * 40.0).floor() as i64,
        bucket,
    );
    background * moisture * (0.4 + 1.2 * trigger)
}

/// Threshold above which the adjustment loop runs at all.
pub const TRIGGER_THRESHOLD: f64 = 0.35;

/// Charged flops per adjusted layer pair per iteration (cost-model
/// parameter, cf. `radiation`).
pub const ADJ_FLOPS_PER_PAIR: f64 = 250.0;

/// Number of moist-adjustment iterations a column with instability `cape`
/// performs (0 for stable columns, up to 8 for violent convection).
#[inline]
pub fn adjustment_iterations(cape: f64) -> usize {
    if cape <= TRIGGER_THRESHOLD {
        0
    } else {
        (1.0 + 5.0 * (cape - TRIGGER_THRESHOLD)).min(8.0) as usize
    }
}

/// Run the moist convective adjustment on a column profile. Each
/// iteration is one relaxation sweep over adjacent layer pairs. Returns
/// the flop count.
pub fn adjust(column: &mut [f64], iterations: usize) -> f64 {
    let k = column.len();
    if k < 2 {
        return 0.0;
    }
    for _ in 0..iterations {
        // Remove instability: where a lower layer is warmer than the one
        // above by more than the lapse tolerance, mix the pair.
        for i in 0..k - 1 {
            let excess = column[i] - column[i + 1] - 0.1;
            if excess > 0.0 {
                let flux = 0.5 * excess;
                column[i] -= flux;
                column[i + 1] += flux;
            }
        }
    }
    ADJ_FLOPS_PER_PAIR * (iterations * (k - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tropics_more_unstable_than_poles() {
        let avg_at = |lat: f64| {
            (0..200)
                .map(|i| instability(lat, 2.0 * std::f64::consts::PI * i as f64 / 200.0, 0.0))
                .sum::<f64>()
                / 200.0
        };
        let tropics = avg_at(0.05);
        let midlat = avg_at(0.9);
        assert!(
            tropics > 3.0 * midlat,
            "tropics {tropics} vs midlat {midlat}"
        );
    }

    #[test]
    fn iteration_count_monotone() {
        assert_eq!(adjustment_iterations(0.0), 0);
        assert_eq!(adjustment_iterations(TRIGGER_THRESHOLD), 0);
        let mut prev = 0;
        for step in 1..30 {
            let cape = TRIGGER_THRESHOLD + step as f64 * 0.1;
            let it = adjustment_iterations(cape);
            assert!(it >= prev);
            assert!(it <= 8);
            prev = it;
        }
        assert_eq!(prev, 8, "violent convection saturates at 8 iterations");
    }

    #[test]
    fn adjustment_removes_instability() {
        // An absolutely unstable profile (warm below cold).
        let mut col: Vec<f64> = (0..9).map(|i| 10.0 - i as f64).collect();
        adjust(&mut col, 8);
        // After enough sweeps, adjacent excess above the tolerance shrinks.
        let max_excess = col
            .windows(2)
            .map(|w| w[0] - w[1] - 0.1)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_excess < 0.6, "residual instability {max_excess}");
    }

    #[test]
    fn adjustment_conserves_column_total() {
        let mut col: Vec<f64> = (0..9).map(|i| (i as f64 * 2.1).sin() * 3.0).collect();
        let before: f64 = col.iter().sum();
        adjust(&mut col, 5);
        let after: f64 = col.iter().sum();
        assert!(
            (before - after).abs() < 1e-12,
            "mixing must conserve the total"
        );
    }

    #[test]
    fn stable_profile_untouched() {
        let mut col: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let orig = col.clone();
        adjust(&mut col, 4);
        assert_eq!(col, orig);
    }

    #[test]
    fn zero_iterations_is_free() {
        let mut col = vec![5.0, 1.0];
        assert_eq!(adjust(&mut col, 0), 0.0);
        assert_eq!(col, vec![5.0, 1.0]);
    }

    #[test]
    fn flop_count_scales_with_iterations() {
        let mut a = vec![0.0; 10];
        let mut b = vec![0.0; 10];
        let fa = adjust(&mut a, 2);
        let fb = adjust(&mut b, 6);
        assert_eq!(fb, 3.0 * fa);
    }
}
