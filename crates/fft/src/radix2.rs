//! Iterative radix-2 FFT for power-of-two sizes.
//!
//! In-place, decimation-in-time with an explicit bit-reversal permutation:
//! the engine behind the Bluestein fallback in [`crate::plan`].

use crate::complex::Complex64;

/// Reverse the low `bits` bits of `x`.
#[inline]
fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// In-place radix-2 FFT. `sign = -1.0` gives the forward transform,
/// `sign = +1.0` the unscaled inverse.
///
/// # Panics
/// If `x.len()` is not a power of two.
pub fn fft_pow2_inplace(x: &mut [Complex64], sign: f64) {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT requires a power-of-two size, got {n}"
    );
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();

    // Bit-reversal permutation.
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            x.swap(i, j);
        }
    }

    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::expi(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex64::ONE;
            for k in 0..len / 2 {
                let a = x[start + k];
                let b = x[start + k + len / 2] * w;
                x[start + k] = a + b;
                x[start + k + len / 2] = a - b;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::dft::{dft, idft};

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new((j as f64 * 0.7).sin(), (j as f64 * 1.3).cos() * 0.5))
            .collect()
    }

    #[test]
    fn matches_dft_for_all_pow2_sizes() {
        for bits in 0..=10 {
            let n = 1usize << bits;
            let x = signal(n);
            let mut fast = x.clone();
            fft_pow2_inplace(&mut fast, -1.0);
            let slow = dft(&x);
            assert!(
                max_error(&fast, &slow) < 1e-8 * n as f64,
                "mismatch at n={n}: {}",
                max_error(&fast, &slow)
            );
        }
    }

    #[test]
    fn unscaled_inverse_matches_idft() {
        let x = signal(64);
        let mut back = x.clone();
        fft_pow2_inplace(&mut back, 1.0);
        let expect: Vec<Complex64> = idft(&x).iter().map(|v| v.scale(64.0)).collect();
        assert!(max_error(&back, &expect) < 1e-8);
    }

    #[test]
    fn roundtrip() {
        let x = signal(256);
        let mut back = x.clone();
        fft_pow2_inplace(&mut back, -1.0);
        fft_pow2_inplace(&mut back, 1.0);
        let expect: Vec<Complex64> = x.iter().map(|v| v.scale(256.0)).collect();
        assert!(max_error(&back, &expect) < 1e-9);
    }

    #[test]
    fn bit_reverse_examples() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(1, 1), 1);
        assert_eq!(bit_reverse(0, 4), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_rejected() {
        let mut x = vec![Complex64::ZERO; 6];
        fft_pow2_inplace(&mut x, -1.0);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 32];
        x[0] = Complex64::ONE;
        fft_pow2_inplace(&mut x, -1.0);
        for v in x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }
}
