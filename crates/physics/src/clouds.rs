//! A deterministic, evolving cloud field.
//!
//! "Adding to the difficulty of physics load-balancing is the
//! unpredictability of the cloud distribution" (paper §3.4). The emulation
//! needs a field that (a) varies in space with realistic large-scale
//! structure (storm tracks, an ITCZ band), (b) drifts in time so the load
//! distribution changes between balancing passes, and (c) is a pure
//! function of (lon, lat, t) so every rank — and every test — computes the
//! same value without communication.
//!
//! The "noise" component is a hash-based lattice value: unpredictable to
//! the balancer, reproducible to the harness.

/// Deterministic unit-interval noise from an integer lattice point and a
/// time bucket (SplitMix64 avalanche).
#[inline]
pub fn lattice_noise(i: i64, j: i64, bucket: i64) -> f64 {
    let mut z = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((bucket as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Cloud fraction in [0, 1] at (lat, lon) radians and time `t` seconds.
pub fn cloud_fraction(lat: f64, lon: f64, t_seconds: f64) -> f64 {
    // Large-scale structure: an ITCZ band near the equator and mid-latitude
    // storm tracks, drifting slowly eastward.
    let drift = 2.0 * std::f64::consts::PI * t_seconds / (10.0 * 86_400.0);
    let itcz = 0.35 * (-(lat / 0.15).powi(2)).exp();
    let storm_tracks = 0.25
        * (lat.abs() / 0.9 * std::f64::consts::PI).sin().max(0.0)
        * (0.5 + 0.5 * (3.0 * lon - drift).sin());
    // Mesoscale variability: hash noise on a coarse lattice refreshed every
    // simulated hour.
    let bucket = (t_seconds / 3600.0).floor() as i64;
    let noise = 0.3
        * lattice_noise(
            (lon * 20.0).floor() as i64,
            (lat * 20.0).floor() as i64,
            bucket,
        );
    (0.15 + itcz + storm_tracks + noise).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_and_uniformish() {
        assert_eq!(lattice_noise(3, -7, 42), lattice_noise(3, -7, 42));
        assert_ne!(lattice_noise(3, -7, 42), lattice_noise(3, -7, 43));
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| lattice_noise(i, 2 * i + 1, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        for i in 0..1000 {
            let v = lattice_noise(i, -i, i);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fractions_in_range() {
        for j in 0..50 {
            for i in 0..50 {
                let lat = -1.5 + 3.0 * j as f64 / 50.0;
                let lon = 2.0 * std::f64::consts::PI * i as f64 / 50.0;
                let c = cloud_fraction(lat, lon, 7200.0);
                assert!((0.0..=1.0).contains(&c), "cloud {c} at ({lat},{lon})");
            }
        }
    }

    #[test]
    fn itcz_cloudier_than_subtropics() {
        // Average around latitude circles: equator vs ±25°.
        let avg_at = |lat: f64| {
            (0..100)
                .map(|i| cloud_fraction(lat, 2.0 * std::f64::consts::PI * i as f64 / 100.0, 0.0))
                .sum::<f64>()
                / 100.0
        };
        let equator = avg_at(0.0);
        let subtropics = avg_at(25f64.to_radians());
        assert!(
            equator > subtropics,
            "ITCZ {equator} vs subtropics {subtropics}"
        );
    }

    #[test]
    fn field_evolves_in_time() {
        let before = cloud_fraction(0.8, 1.0, 0.0);
        let after = cloud_fraction(0.8, 1.0, 86_400.0 * 3.0);
        assert_ne!(before, after);
    }

    #[test]
    fn reproducible_across_calls() {
        let a = cloud_fraction(0.3, 2.0, 5_000.0);
        let b = cloud_fraction(0.3, 2.0, 5_000.0);
        assert_eq!(a, b);
    }
}
