//! Real-signal transform helpers.
//!
//! Grid variables are real; their spectra are conjugate-symmetric, so only
//! wavenumbers 0..=N/2 are independent. These helpers move between a real
//! signal and its half-spectrum, which is what the filter response S(s,φ)
//! of the paper is defined over (wavenumbers s = 1..M in Eq. (1)).
//!
//! Two tiers are provided:
//!
//! * [`rfft_into`] / [`irfft_into`] — the allocation-free fast path. For
//!   even sizes a length-n real transform is evaluated as **one length-n/2
//!   complex transform** (even samples in the real lane, odd samples in the
//!   imaginary lane) plus an O(n) untangle pass — roughly half the work of
//!   transforming the zero-padded complex signal. Odd sizes fall back to
//!   the full complex transform, still through reusable workspace buffers.
//! * [`rfft`] — a convenience wrapper that allocates its output (and a
//!   transient workspace) and delegates to the fast path.

use crate::complex::Complex64;
use crate::plan::FftPlan;
use crate::workspace::FftWorkspace;

/// Forward transform of a real signal; returns the half spectrum
/// `X[0..=n/2]` (length `n/2 + 1`).
pub fn rfft(plan: &FftPlan, x: &[f64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; plan.len() / 2 + 1];
    let mut ws = FftWorkspace::new();
    rfft_into(plan, x, &mut out, &mut ws);
    out
}

/// Allocation-free forward transform of a real signal into its half
/// spectrum `out[0..=n/2]`.
///
/// Even sizes run one complex transform of size n/2 on the packed signal
/// `z[j] = x[2j] + i·x[2j+1]` and untangle the even/odd spectra:
/// `X[k] = E[k] + w^k·O[k]`, `X[m−k] = conj(E[k] − w^k·O[k])` with
/// `w = e^{-2πi/n}`, `m = n/2`.
pub fn rfft_into(plan: &FftPlan, x: &[f64], out: &mut [Complex64], ws: &mut FftWorkspace) {
    let n = plan.len();
    assert_eq!(x.len(), n);
    assert_eq!(
        out.len(),
        n / 2 + 1,
        "half spectrum must have n/2+1 entries"
    );
    if let Some(half) = plan.half() {
        let m = n / 2;
        ws.with_line(m, |buf, ws| {
            for (j, slot) in buf.iter_mut().enumerate() {
                *slot = Complex64::new(x[2 * j], x[2 * j + 1]);
            }
            half.forward_into(buf, ws);
            for k in 0..=m / 2 {
                let zk = buf[k];
                let zmk = buf[(m - k) % m];
                // E[k] = (Z[k] + conj(Z[m−k]))/2, O[k] = (Z[k] − conj(Z[m−k]))/(2i)
                let e = (zk + zmk.conj()).scale(0.5);
                let d = (zk - zmk.conj()).scale(0.5);
                let o = Complex64::new(d.im, -d.re);
                let wo = plan.twiddle(k) * o;
                out[k] = e + wo;
                out[m - k] = (e - wo).conj();
            }
        });
    } else {
        ws.with_line(n, |buf, ws| {
            for (slot, &v) in buf.iter_mut().zip(x) {
                *slot = Complex64::from_re(v);
            }
            plan.forward_into(buf, ws);
            out.copy_from_slice(&buf[..=n / 2]);
        });
    }
}

/// Allocation-free inverse of [`rfft_into`]: half spectrum
/// `half[0..=n/2]` back to the real signal `out[0..n]`.
pub fn irfft_into(plan: &FftPlan, half: &[Complex64], out: &mut [f64], ws: &mut FftWorkspace) {
    let n = plan.len();
    assert_eq!(out.len(), n);
    assert_eq!(
        half.len(),
        n / 2 + 1,
        "half spectrum must have n/2+1 entries"
    );
    if let Some(hp) = plan.half() {
        let m = n / 2;
        ws.with_line(m, |buf, ws| {
            for k in 0..=m / 2 {
                let hk = half[k];
                let hmk = half[m - k];
                // E[k] = (X[k] + conj(X[m−k]))/2, O[k] = (X[k] − conj(X[m−k]))/2 · w^{−k}
                let e = (hk + hmk.conj()).scale(0.5);
                let d = (hk - hmk.conj()).scale(0.5);
                let o = d * plan.twiddle(k).conj();
                // Z[k] = E[k] + i·O[k]
                buf[k] = Complex64::new(e.re - o.im, e.im + o.re);
                if k != 0 && m - k != k {
                    // Z[m−k] = conj(E[k]) + i·conj(O[k])
                    buf[m - k] = Complex64::new(e.re + o.im, o.re - e.im);
                }
            }
            hp.inverse_into(buf, ws);
            for (j, z) in buf.iter().enumerate() {
                out[2 * j] = z.re;
                out[2 * j + 1] = z.im;
            }
        });
    } else {
        ws.with_line(n, |buf, ws| {
            buf[..=n / 2].copy_from_slice(half);
            for k in n / 2 + 1..n {
                buf[k] = half[n - k].conj();
            }
            plan.inverse_into(buf, ws);
            for (slot, z) in out.iter_mut().zip(buf.iter()) {
                *slot = z.re;
            }
        });
    }
}

/// Number of independent wavenumbers of a length-`n` real signal,
/// excluding the mean (wavenumber 0): the `M` of the paper's Eq. (1).
pub fn max_wavenumber(n: usize) -> usize {
    n / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn irfft(plan: &FftPlan, half: &[Complex64]) -> Vec<f64> {
        let mut out = vec![0.0; plan.len()];
        irfft_into(plan, half, &mut out, &mut FftWorkspace::new());
        out
    }

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.8).sin() - 0.3 * (j as f64 * 0.2).cos())
            .collect()
    }

    #[test]
    fn roundtrip_even_sizes() {
        for n in [2, 8, 12, 144] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let back = irfft(&plan, &rfft(&plan, &x));
            let err: f64 = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "n={n}: err={err}");
        }
    }

    #[test]
    fn roundtrip_odd_sizes() {
        for n in [3, 9, 15, 45] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let back = irfft(&plan, &rfft(&plan, &x));
            let err: f64 = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "n={n}: err={err}");
        }
    }

    #[test]
    fn half_size_path_matches_full_transform() {
        // The packed-even/odd untangle must agree with the plain full
        // complex transform of the real signal, bin by bin.
        for n in [2, 4, 6, 10, 12, 14, 48, 144, 146] {
            let plan = FftPlan::new(n);
            let mut ws = plan.workspace();
            let x = signal(n);
            let mut half = vec![Complex64::ZERO; n / 2 + 1];
            rfft_into(&plan, &x, &mut half, &mut ws);
            let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
            let full = plan.forward(&xc);
            for k in 0..=n / 2 {
                let d = half[k] - full[k];
                assert!(d.abs() < 1e-10 * n as f64, "n={n} k={k}: {}", d.abs());
            }
        }
    }

    #[test]
    fn into_roundtrip_reuses_workspace() {
        for n in [12, 144, 45, 97] {
            let plan = FftPlan::new(n);
            let mut ws = plan.workspace();
            let x = signal(n);
            let mut half = vec![Complex64::ZERO; n / 2 + 1];
            let mut back = vec![0.0; n];
            for _ in 0..3 {
                rfft_into(&plan, &x, &mut half, &mut ws);
                irfft_into(&plan, &half, &mut back, &mut ws);
            }
            let err: f64 = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n}: err={err}");
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let n = 16;
        let plan = FftPlan::new(n);
        let x = signal(n);
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        let full = plan.forward(&xc);
        for k in 1..n {
            let d = full[k] - full[n - k].conj();
            assert!(d.abs() < 1e-10);
        }
        // DC and Nyquist bins are real.
        assert!(full[0].im.abs() < 1e-10);
        assert!(full[n / 2].im.abs() < 1e-10);
    }

    #[test]
    fn half_spectrum_length() {
        let plan = FftPlan::new(10);
        assert_eq!(rfft(&plan, &signal(10)).len(), 6);
        let plan = FftPlan::new(9);
        assert_eq!(rfft(&plan, &signal(9)).len(), 5);
    }

    #[test]
    fn max_wavenumber_values() {
        assert_eq!(max_wavenumber(144), 72);
        assert_eq!(max_wavenumber(9), 4);
    }

    #[test]
    #[should_panic(expected = "half spectrum")]
    fn irfft_wrong_length_rejected() {
        let plan = FftPlan::new(8);
        irfft(&plan, &[Complex64::ZERO; 3]);
    }
}
