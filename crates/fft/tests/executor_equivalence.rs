//! The Stockham workspace executor (`forward_into`/`inverse_into`) is the
//! only complex-FFT engine: it must agree with the naive `dft`/`idft`
//! oracle across every size 1..=96 plus the production longitude count
//! 144 — covering mixed-radix schedules of every shape and the Bluestein
//! fallback — and the allocating `forward`/`inverse` conveniences must be
//! the same arithmetic, bit for bit.

use agcm_fft::dft::{dft, idft};
use agcm_fft::{Complex64, FftPlan};

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    // Simple deterministic LCG so every size gets a distinct dense signal.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            Complex64::new(next(), next())
        })
        .collect()
}

fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

#[test]
fn executor_matches_the_dft_oracle_all_sizes() {
    for n in (1..=96).chain([144]) {
        let plan = FftPlan::new(n);
        let mut ws = plan.workspace();
        // Inputs are O(1), so an O(n log n) transform accumulates a few
        // ulps per output against the O(n²) oracle's own rounding.
        let tol = 1e-12 * n as f64;
        for seed in 0..3u64 {
            let x = signal(n, seed * 1000 + n as u64);

            let mut got = x.clone();
            plan.forward_into(&mut got, &mut ws);
            let err = max_diff(&got, &dft(&x));
            assert!(err <= tol, "forward n={n} seed={seed}: err={err:e}");

            let mut got = x.clone();
            plan.inverse_into(&mut got, &mut ws);
            let err = max_diff(&got, &idft(&x));
            assert!(err <= tol, "inverse n={n} seed={seed}: err={err:e}");
        }
    }
}

#[test]
fn allocating_conveniences_are_the_executor_bitwise() {
    for n in (1..=96).chain([144]) {
        let plan = FftPlan::new(n);
        let mut ws = plan.workspace();
        let x = signal(n, n as u64);

        let mut got = x.clone();
        plan.forward_into(&mut got, &mut ws);
        assert_eq!(bits(&plan.forward(&x)), bits(&got), "forward n={n}");

        let mut got = x.clone();
        plan.inverse_into(&mut got, &mut ws);
        assert_eq!(bits(&plan.inverse(&x)), bits(&got), "inverse n={n}");
    }
}

#[test]
fn shared_workspace_across_sizes_is_safe() {
    // One workspace serving interleaved sizes must not cross-contaminate.
    let mut ws = agcm_fft::FftWorkspace::new();
    for &n in &[144usize, 7, 96, 13, 1, 90] {
        let plan = FftPlan::new(n);
        let x = signal(n, n as u64);
        let mut got = x.clone();
        plan.forward_into(&mut got, &mut ws);
        assert_eq!(
            bits(&got),
            bits(&plan.forward(&x)),
            "n={n} after mixed-size reuse"
        );
    }
}
