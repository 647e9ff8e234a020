//! Operation-count estimators.
//!
//! The execution tracer (`agcm-mps`) records floating-point work that each
//! kernel reports about itself; these helpers centralize the standard
//! counts so the filter implementations charge consistent costs. They
//! mirror the complexity analysis in the paper's §3.1: convolution filtering
//! costs O(N²·M·K) on an N×M×K grid, FFT filtering O(N log N·M·K).

/// Flops for one complex FFT of size `n` (standard 5·n·log₂n estimate).
pub fn fft_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

/// Flops for one direct circular convolution of a length-`n` real signal
/// with a length-`n` kernel (one multiply + one add per term).
pub fn convolution_flops(n: usize) -> f64 {
    2.0 * (n as f64) * (n as f64)
}

/// Flops for applying a spectral multiplier via FFT: forward FFT +
/// pointwise scale + inverse FFT.
pub fn spectral_filter_flops(n: usize) -> f64 {
    2.0 * fft_flops(n) + 2.0 * n as f64
}

/// Flops for filtering **two** real lines through the pair-packed path
/// (`agcm_fft::batch::filter_pair`): one forward + one inverse complex
/// transform shared by both lines, plus the pointwise multiplier (2 flops
/// per complex bin) and the pack/unpack traffic.
pub fn pair_filter_flops(n: usize) -> f64 {
    2.0 * fft_flops(n) + 4.0 * n as f64
}

/// Flops for filtering one real line through the half-size real transform
/// (`agcm_fft::batch::filter_line`, even n): two complex transforms of
/// size n/2 plus the O(n) untangle/retangle and multiplier passes.
pub fn real_filter_flops(n: usize) -> f64 {
    if n.is_multiple_of(2) && n >= 2 {
        2.0 * fft_flops(n / 2) + 8.0 * n as f64
    } else {
        spectral_filter_flops(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_flops_scaling() {
        assert_eq!(fft_flops(0), 0.0);
        assert_eq!(fft_flops(1), 0.0);
        // 5·8·3 = 120
        assert_eq!(fft_flops(8), 120.0);
        // n log n grows slower than n²: crossover behaviour the paper relies on.
        assert!(fft_flops(144) < convolution_flops(144));
        assert!(fft_flops(16) < convolution_flops(16));
    }

    #[test]
    fn convolution_is_quadratic() {
        assert_eq!(convolution_flops(10), 200.0);
        let r = convolution_flops(200) / convolution_flops(100);
        assert_eq!(r, 4.0);
    }

    #[test]
    fn spectral_filter_counts_both_transforms() {
        let n = 64;
        assert_eq!(spectral_filter_flops(n), 2.0 * fft_flops(n) + 128.0);
    }

    #[test]
    fn batched_paths_are_cheaper_per_line() {
        let n = 144;
        // Two lines per pair transform: under half the per-line cost each.
        assert!(pair_filter_flops(n) / 2.0 < spectral_filter_flops(n) * 0.75);
        // Half-size real path beats the full complex path for one line.
        assert!(real_filter_flops(n) < spectral_filter_flops(n));
        // Odd sizes fall back to the complex cost.
        assert_eq!(real_filter_flops(45), spectral_filter_flops(45));
    }
}
