//! Property-based tests on the core data structures and invariants.
//!
//! The proptest crate is unavailable in this offline build environment, so
//! these properties are exercised with a seeded SplitMix64 generator: every
//! property runs 64 randomized cases, fully deterministic across runs, with
//! the failing seed printed by the assertion message.

use ucla_agcm_repro::fft::complex::Complex64;
use ucla_agcm_repro::fft::convolution::{circular_convolve_direct, circular_convolve_fft};
use ucla_agcm_repro::fft::plan::FftPlan;
use ucla_agcm_repro::grid::decomp::block_partition;
use ucla_agcm_repro::grid::field::{BlockField, Field3D};
use ucla_agcm_repro::physics::balance::scheme1::CyclicShuffle;
use ucla_agcm_repro::physics::balance::scheme2::SortedGreedy;
use ucla_agcm_repro::physics::balance::scheme3::PairwiseExchange;
use ucla_agcm_repro::physics::balance::{apply_plan, BalanceScheme};
use ucla_agcm_repro::physics::load::imbalance;

const CASES: u64 = 64;

/// SplitMix64: tiny, seedable, deterministic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in [lo, hi).
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn vec_f64(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.range_f64(lo, hi)).collect()
    }
}

#[test]
fn fft_roundtrip_identity() {
    // FFT round-trip is the identity for any signal and any size 1..=96.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.range_usize(1, 96);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.range_f64(-1.0e3, 1.0e3), rng.range_f64(-1.0e3, 1.0e3)))
            .collect();
        let plan = FftPlan::new(n);
        let back = plan.inverse(&plan.forward(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!(
                (*a - *b).abs() < 1e-6 * (1.0 + a.abs()),
                "case {case}, n {n}"
            );
        }
    }
}

#[test]
fn fft_parseval() {
    // Parseval: the transform preserves energy (with the 1/N convention).
    for case in 0..CASES {
        let mut rng = Rng::new(1000 + case);
        let n = rng.range_usize(2, 80);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::from_re(rng.range_f64(-10.0, 10.0)))
            .collect();
        let plan = FftPlan::new(n);
        let y = plan.forward(&x);
        let te: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let fe: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (te - fe).abs() < 1e-6 * (1.0 + te),
            "case {case}, n {n}: {te} vs {fe}"
        );
    }
}

#[test]
fn convolution_theorem() {
    // The convolution theorem holds for arbitrary signals and kernels.
    for case in 0..CASES {
        let mut rng = Rng::new(2000 + case);
        let n = rng.range_usize(4, 48);
        let x = rng.vec_f64(n, -5.0, 5.0);
        let kernel = rng.vec_f64(n, -1.0, 1.0);
        let plan = FftPlan::new(n);
        let direct = circular_convolve_direct(&x, &kernel);
        let fast = circular_convolve_fft(&plan, &x, &kernel);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "case {case}, n {n}");
        }
    }
}

#[test]
fn block_partition_tiles() {
    // block_partition tiles [0, n) exactly, with sizes within one.
    for case in 0..CASES {
        let mut rng = Rng::new(3000 + case);
        let n = rng.range_usize(0, 10_000);
        let p = rng.range_usize(1, 64);
        let mut next = 0;
        for idx in 0..p {
            let (start, len) = block_partition(n, p, idx);
            assert_eq!(start, next, "case {case}: n {n}, p {p}");
            assert!(
                len >= n / p && len <= n / p + 1,
                "case {case}: n {n}, p {p}"
            );
            next = start + len;
        }
        assert_eq!(next, n, "case {case}: n {n}, p {p}");
    }
}

#[test]
fn balance_schemes_conserve_and_improve() {
    // Every balance scheme conserves total load, never increases the
    // paper's imbalance metric, and plans no self-transfers.
    for case in 0..CASES {
        let mut rng = Rng::new(4000 + case);
        let p = rng.range_usize(2, 40);
        let loads = rng.vec_f64(p, 0.0, 1000.0);
        let total: f64 = loads.iter().sum();
        if total <= 1.0 {
            continue;
        }
        let schemes: Vec<Box<dyn BalanceScheme>> = vec![
            Box::new(CyclicShuffle),
            Box::new(SortedGreedy::default()),
            Box::new(PairwiseExchange::default()),
        ];
        for scheme in schemes {
            let mut after = loads.clone();
            let plan = scheme.plan(&after);
            for t in &plan {
                assert_ne!(t.from, t.to, "case {case}: {} self-transfer", scheme.name());
                assert!(
                    t.amount >= 0.0,
                    "case {case}: {} negative amount",
                    scheme.name()
                );
            }
            apply_plan(&mut after, &plan);
            let new_total: f64 = after.iter().sum();
            assert!(
                (new_total - total).abs() < 1e-6 * total,
                "case {case}: {} conservation",
                scheme.name()
            );
            assert!(
                imbalance(&after) <= imbalance(&loads) + 1e-9,
                "case {case}: {} must not worsen imbalance",
                scheme.name()
            );
            assert!(
                after.iter().all(|&l| l >= -1e-9),
                "case {case}: {} must not drive a load negative",
                scheme.name()
            );
        }
    }
}

#[test]
fn pairwise_exchange_converges() {
    // Scheme 3 rounds converge: imbalance is non-increasing round over
    // round and drops below 15% within ten rounds.
    for case in 0..CASES {
        let mut rng = Rng::new(5000 + case);
        let p = rng.range_usize(4, 64);
        let loads = rng.vec_f64(p, 1.0, 1000.0);
        let scheme = PairwiseExchange::default();
        let mut current = loads.clone();
        let mut prev = imbalance(&current);
        for _ in 0..10 {
            let plan = scheme.plan(&current);
            if plan.is_empty() {
                break;
            }
            apply_plan(&mut current, &plan);
            let now = imbalance(&current);
            assert!(
                now <= prev + 1e-9,
                "case {case}: round must not worsen imbalance"
            );
            prev = now;
        }
        assert!(prev < 0.15, "case {case}: converged imbalance {prev}");
    }
}

#[test]
fn block_field_roundtrip() {
    // Block-field interleaving round-trips any set of fields.
    for case in 0..CASES {
        let mut rng = Rng::new(8000 + case);
        let m = rng.range_usize(1, 6);
        let (ni, nj, nk) = (
            rng.range_usize(1, 8),
            rng.range_usize(1, 8),
            rng.range_usize(1, 4),
        );
        let seed = rng.next_u64() as usize % 1000;
        let fields: Vec<Field3D> = (0..m)
            .map(|v| {
                Field3D::from_fn(ni, nj, nk, |i, j, k| {
                    ((i * 31 + j * 17 + k * 7 + v * 3 + seed) as f64 * 0.37).sin()
                })
            })
            .collect();
        let back = BlockField::from_fields(&fields).to_fields();
        for (a, b) in fields.iter().zip(&back) {
            assert_eq!(a.max_abs_diff(b), 0.0, "case {case}");
        }
    }
}
