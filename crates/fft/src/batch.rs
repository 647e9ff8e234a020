//! Batched spectral filtering of real latitude lines.
//!
//! The paper filters one latitude line at a time; all lines at a latitude
//! share one filter response S(s,φ) (Eq. (1)), and a filtered step moves
//! hundreds of lines (every variable × level of a filter class). This
//! module exploits both facts:
//!
//! * [`filter_pair`] — **two lines per transform**: since the spectral
//!   multiplier is real and symmetric (`s[k] = s[n−k]`, see
//!   `agcm-filtering`'s `filterfn`), packing lines a and b as
//!   `z = a + i·b` and computing `IFFT(s ⊙ FFT(z))` filters both lines
//!   *exactly* — the real part is the filtered a, the imaginary part the
//!   filtered b. No spectrum untangling is needed at all. This scalar
//!   form is the specification (and the test oracle) of the pair
//!   arithmetic.
//! * [`filter_line`] — the odd-tail path: a single real line through the
//!   half-size real transform ([`crate::real::rfft_into`]) when n is even,
//!   the full complex transform otherwise.
//! * [`filter_lines_flat`] — drives a whole batch through one plan and
//!   one workspace: consecutive lines pair up, eight pairs at a time
//!   advance together through the lane-batched executor
//!   ([`crate::lanes`], bit-identical to [`filter_pair`] on each pair),
//!   the odd tail goes through [`filter_line`]. Zero heap allocations
//!   after warm-up.
//!
//! All entry points take the same-latitude invariant seriously: one call =
//! one multiplier. Callers batching across latitudes drive
//! [`crate::lanes::LaneBatch`] themselves, one multiplier per lane (see
//! `agcm-filtering`'s engine).

use crate::complex::Complex64;
use crate::lanes::{LaneBatch, LINES};
use crate::plan::FftPlan;
use crate::real::{irfft_into, rfft_into};
use crate::workspace::FftWorkspace;

/// Debug-only check of the symmetry `s[k] = s[n−k]` that makes the
/// two-for-one packing exact. Public so callers that hand multipliers to
/// [`LaneBatch`] directly can check each one once, where they build it.
pub fn debug_assert_symmetric(multiplier: &[f64]) {
    if cfg!(debug_assertions) {
        let n = multiplier.len();
        for k in 1..n {
            debug_assert!(
                (multiplier[k] - multiplier[n - k]).abs() < 1e-12,
                "spectral multiplier must be symmetric for pair packing (k={k})"
            );
        }
    }
}

/// Filter two real lines with one complex transform: `z = a + i·b`,
/// `z' = IFFT(s ⊙ FFT(z))`, `a' = Re z'`, `b' = Im z'`.
///
/// Exact (not an approximation) because the multiplier is real and
/// symmetric; both lines must share it (same latitude).
pub fn filter_pair(
    plan: &FftPlan,
    a: &mut [f64],
    b: &mut [f64],
    multiplier: &[f64],
    ws: &mut FftWorkspace,
) {
    let n = plan.len();
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    assert_eq!(multiplier.len(), n);
    debug_assert_symmetric(multiplier);
    pair_core(plan, a, b, multiplier, ws);
}

/// [`filter_pair`] after its argument checks — what the lane executor's
/// fallback runs per lane for plans it does not cover.
pub(crate) fn pair_core(
    plan: &FftPlan,
    a: &mut [f64],
    b: &mut [f64],
    multiplier: &[f64],
    ws: &mut FftWorkspace,
) {
    ws.with_line(plan.len(), |buf, ws| {
        for (j, slot) in buf.iter_mut().enumerate() {
            *slot = Complex64::new(a[j], b[j]);
        }
        plan.forward_into(buf, ws);
        for (v, &s) in buf.iter_mut().zip(multiplier) {
            *v = v.scale(s);
        }
        plan.inverse_into(buf, ws);
        for (j, z) in buf.iter().enumerate() {
            a[j] = z.re;
            b[j] = z.im;
        }
    });
}

/// Filter one real line: half-size real transform for even n (half the
/// complex work), full complex transform otherwise. Allocation-free after
/// workspace warm-up either way.
pub fn filter_line(plan: &FftPlan, x: &mut [f64], multiplier: &[f64], ws: &mut FftWorkspace) {
    let n = plan.len();
    assert_eq!(x.len(), n);
    assert_eq!(multiplier.len(), n);
    if n.is_multiple_of(2) && plan.half().is_some() {
        let m = n / 2;
        ws.with_spec(m + 1, |spec, ws| {
            rfft_into(plan, x, spec, ws);
            for (v, &s) in spec.iter_mut().zip(multiplier.iter().take(m + 1)) {
                *v = v.scale(s);
            }
            irfft_into(plan, spec, x, ws);
        });
    } else {
        ws.with_line(n, |buf, ws| {
            for (slot, &v) in buf.iter_mut().zip(x.iter()) {
                *slot = Complex64::from_re(v);
            }
            plan.forward_into(buf, ws);
            for (v, &s) in buf.iter_mut().zip(multiplier) {
                *v = v.scale(s);
            }
            plan.inverse_into(buf, ws);
            for (slot, z) in x.iter_mut().zip(buf.iter()) {
                *slot = z.re;
            }
        });
    }
}

/// Filter same-latitude lines stored back to back in one flat buffer
/// (`buf.len()` a multiple of the plan size): consecutive lines pair up
/// and go through the lane-batched executor, an odd last line through
/// [`filter_line`].
pub fn filter_lines_flat(
    plan: &FftPlan,
    buf: &mut [f64],
    multiplier: &[f64],
    ws: &mut FftWorkspace,
) {
    let n = plan.len();
    assert!(
        n > 0 && buf.len().is_multiple_of(n),
        "flat batch length {} is not a multiple of the line length {n}",
        buf.len()
    );
    assert_eq!(multiplier.len(), n);
    debug_assert_symmetric(multiplier);
    let (paired, tail) = buf.split_at_mut(buf.len() / (2 * n) * (2 * n));
    if !paired.is_empty() {
        let mut lanes = LaneBatch::new(plan, ws);
        lanes.set_multiplier_all(multiplier);
        for batch in paired.chunks_mut(LINES * n) {
            lanes.begin(batch.len() / (2 * n));
            for (slot, line) in batch.chunks_exact(n).enumerate() {
                lanes.load(slot, 0, line);
            }
            lanes.run();
            for (slot, line) in batch.chunks_exact_mut(n).enumerate() {
                lanes.store(slot, 0, line);
            }
        }
    }
    if !tail.is_empty() {
        filter_line(plan, tail, multiplier, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::apply_spectral_multiplier;

    fn signal(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|j| ((j + 3 * seed) as f64 * 0.37).sin() + 0.2 * ((j * j) as f64 * 0.01).cos())
            .collect()
    }

    /// A symmetric low-pass-ish multiplier, like the polar filter's.
    fn multiplier(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let kk = k.min(n - k) as f64;
                1.0 / (1.0 + 0.3 * kk)
            })
            .collect()
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn pair_matches_per_line_oracle() {
        for n in [8, 12, 144, 97, 45] {
            let plan = FftPlan::new(n);
            let mut ws = plan.workspace();
            let s = multiplier(n);
            let mut a = signal(n, 0);
            let mut b = signal(n, 1);
            let ea = apply_spectral_multiplier(&plan, &a, &s);
            let eb = apply_spectral_multiplier(&plan, &b, &s);
            filter_pair(&plan, &mut a, &mut b, &s, &mut ws);
            assert!(max_abs_diff(&a, &ea) < 1e-10 * n as f64, "n={n} line a");
            assert!(max_abs_diff(&b, &eb) < 1e-10 * n as f64, "n={n} line b");
        }
    }

    #[test]
    fn single_line_matches_oracle_even_and_odd() {
        for n in [2, 6, 10, 144, 45, 97] {
            let plan = FftPlan::new(n);
            let mut ws = plan.workspace();
            let s = multiplier(n);
            let mut x = signal(n, 2);
            let expect = apply_spectral_multiplier(&plan, &x, &s);
            filter_line(&plan, &mut x, &s, &mut ws);
            assert!(max_abs_diff(&x, &expect) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn flat_batch_matches_oracle() {
        let n = 144;
        let plan = FftPlan::new(n);
        let mut ws = plan.workspace();
        let s = multiplier(n);
        for lines in [1usize, 2, 3, 5, 8] {
            let mut flat: Vec<f64> = (0..lines).flat_map(|l| signal(n, l)).collect();
            let expect: Vec<f64> = (0..lines)
                .flat_map(|l| apply_spectral_multiplier(&plan, &signal(n, l), &s))
                .collect();
            filter_lines_flat(&plan, &mut flat, &s, &mut ws);
            assert!(
                max_abs_diff(&flat, &expect) < 1e-10 * n as f64,
                "lines={lines}"
            );
        }
    }

    #[test]
    fn identity_multiplier_is_noop() {
        let n = 24;
        let plan = FftPlan::new(n);
        let mut ws = plan.workspace();
        let s = vec![1.0; n];
        let x0 = signal(n, 0);
        let mut flat: Vec<f64> = (0..3).flat_map(|l| signal(n, l)).collect();
        filter_lines_flat(&plan, &mut flat, &s, &mut ws);
        assert!(max_abs_diff(&flat[..n], &x0) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "multiple of the line length")]
    fn flat_batch_rejects_ragged_buffers() {
        let plan = FftPlan::new(8);
        let mut ws = plan.workspace();
        filter_lines_flat(&plan, &mut [0.0; 12], &[1.0; 8], &mut ws);
    }
}
