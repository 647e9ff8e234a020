//! A small peak probe: the add+mul rate one core sustains on independent
//! double-precision chains, at the vector width the lane-batched filter
//! executor dispatches to (`agcm_fft::lanes::dispatch_target`).
//!
//! This is the bound `reproduce bench-filter` states for the filter
//! kernel, in the manner of the ESCAPE dwarfs: flops per line divided by
//! this rate is the time a line would take if every cycle issued useful
//! arithmetic and memory were free; the measured time over that is the
//! fraction achieved. The probe uses separate multiplies and adds (no
//! fused multiply-add), as the executor must to stay bit-identical to the
//! scalar path.

use std::hint::black_box;
use std::time::Instant;

/// Values per operation kind: eight AVX-512 registers' worth, enough
/// independent chains to cover the add/multiply latency on two ports.
const LANES: usize = 64;
/// Passes over all chains per timed sample.
const PASSES: usize = 20_000;

/// One set of accumulators.
type Chains = [f64; LANES];

/// The probe loop, shared verbatim by every dispatch target: `LANES`
/// independent add chains and `LANES` independent multiply chains.
#[inline(always)]
fn chains_body(sums: &mut Chains, prods: &mut Chains) {
    let (inc, gain) = (black_box(1.0e-9), black_box(1.000_000_001));
    // Local copies, so the chains can live in registers for the whole loop.
    let (mut s, mut p) = (*sums, *prods);
    for _ in 0..PASSES {
        for l in 0..LANES {
            s[l] += inc;
            p[l] *= gain;
        }
    }
    (*sums, *prods) = (s, p);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chains_avx2(sums: &mut Chains, prods: &mut Chains) {
    chains_body(sums, prods)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chains_avx512(sums: &mut Chains, prods: &mut Chains) {
    chains_body(sums, prods)
}

fn chains(sums: &mut Chains, prods: &mut Chains) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: same safe body, compiled with AVX-512F enabled;
            // gated on runtime detection above.
            unsafe { chains_avx512(sums, prods) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            unsafe { chains_avx2(sums, prods) };
            return;
        }
    }
    chains_body(sums, prods);
}

/// Best-of-`samples` add+mul rate of the calling core, flop/s.
pub fn add_mul_rate(samples: usize) -> f64 {
    let flops = (2 * LANES * PASSES) as f64;
    let mut sums = [0.0; LANES];
    let mut prods = [1.0; LANES];
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        chains(black_box(&mut sums), black_box(&mut prods));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box((&sums, &prods));
    flops / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_a_plausible_rate() {
        // Anything from a slow debug build to a wide server core.
        let rate = add_mul_rate(2);
        assert!(rate > 1.0e6 && rate < 1.0e13, "rate {rate:e} flop/s");
    }
}
