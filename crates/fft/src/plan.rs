//! FFT plans: mixed-radix Cooley-Tukey with a Bluestein fallback.
//!
//! A [`FftPlan`] is built once per transform size (the paper's setup phase:
//! "its cost is not an issue for a long AGCM simulation since it is done
//! only once") and then applied to many latitude lines. The AGCM grid has
//! N = 144 longitudes (2⁴·3²), which the mixed-radix path handles natively;
//! arbitrary sizes fall back to Bluestein's algorithm so the filter works
//! for any resolution.
//!
//! One single-transform executor runs every plan:
//! [`FftPlan::forward_into`] / [`FftPlan::inverse_into`] — an iterative
//! Stockham (self-sorting) evaluation over precomputed per-stage twiddle
//! tables, in place, with all scratch provided by a reusable
//! [`FftWorkspace`]: **zero heap allocations per transform**.
//! [`FftPlan::forward`] / [`FftPlan::inverse`] are allocating conveniences
//! over it (copy, transient workspace, `*_into`); the naive
//! [`crate::dft`] is the oracle both are tested against.
//!
//! The batched filter's production path is a second walk over the same
//! stage tables: [`crate::lanes`] runs eight pair-packed transforms at a
//! time with the line index as the vector dimension, through the butterfly
//! functions defined here, so it agrees with `forward_into`/`inverse_into`
//! to the last bit.

use crate::complex::Complex64;
use crate::radix2::fft_pow2_inplace;
use crate::workspace::FftWorkspace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Factor `n` into the supported radices (2, 3, 5), largest first.
/// Returns `None` if a different prime remains.
pub fn smooth_factors(mut n: usize) -> Option<Vec<usize>> {
    assert!(n > 0);
    let mut factors = Vec::new();
    for &r in &[5usize, 3, 2] {
        while n.is_multiple_of(r) {
            factors.push(r);
            n /= r;
        }
    }
    if n == 1 {
        Some(factors)
    } else {
        None
    }
}

/// The radix schedule of the iterative executor: pairs of 2s fuse into
/// radix-4 butterflies (fewer stages, fewer twiddle loads), then the odd
/// 2 if any, then 3s, then 5s.
fn stage_factors(factors: &[usize]) -> Vec<usize> {
    let twos = factors.iter().filter(|&&r| r == 2).count();
    let mut out = Vec::with_capacity(factors.len());
    out.extend(std::iter::repeat_n(4, twos / 2));
    if twos % 2 == 1 {
        out.push(2);
    }
    out.extend(factors.iter().copied().filter(|&r| r == 3));
    out.extend(factors.iter().copied().filter(|&r| r == 5));
    out
}

/// One Stockham stage: a radix-`r` butterfly pass over the whole signal.
pub(crate) struct Stage {
    /// Butterfly radix.
    pub(crate) r: usize,
    /// Sub-transform count at this stage (`n_cur / r`).
    pub(crate) m: usize,
    /// Stride: product of the radices of all earlier stages.
    pub(crate) s: usize,
    /// Twiddles `ω_{n_cur}^{p·v}`, laid out `[p·r + v]` (forward sign;
    /// conjugated on the fly for inverses).
    pub(crate) tw: Vec<Complex64>,
    /// Radix roots `ω_r^{u·v}` (`r²` entries) for the generic butterfly;
    /// empty for the hardcoded radices 2/3/4.
    roots: Vec<Complex64>,
}

enum Strategy {
    /// Size 1: identity.
    Identity,
    /// 2/3/5-smooth mixed-radix Cooley-Tukey.
    MixedRadix { stages: Vec<Stage> },
    /// Bluestein chirp-z via a padded power-of-two convolution.
    Bluestein {
        /// Padded convolution size (power of two ≥ 2n−1).
        m: usize,
        /// Chirp `e^{-iπ j²/n}` for j in 0..n.
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate-chirp kernel.
        kernel_fft: Vec<Complex64>,
    },
}

/// A reusable transform plan for one size.
pub struct FftPlan {
    n: usize,
    /// Forward twiddle table: `w[t] = e^{-2πi t/n}`.
    twiddles: Vec<Complex64>,
    strategy: Strategy,
    /// Half-size plan for the even-`n` real-signal fast path
    /// (`crate::real::rfft_into`); built one level deep only.
    half: Option<Box<FftPlan>>,
}

impl FftPlan {
    /// Build a plan for size `n`.
    pub fn new(n: usize) -> FftPlan {
        FftPlan::build(n, true)
    }

    fn build(n: usize, with_half: bool) -> FftPlan {
        assert!(n > 0, "FFT size must be positive");
        let twiddles: Vec<Complex64> = (0..n)
            .map(|t| Complex64::expi(-2.0 * std::f64::consts::PI * t as f64 / n as f64))
            .collect();
        let strategy = if n == 1 {
            Strategy::Identity
        } else if let Some(factors) = smooth_factors(n) {
            let stages = build_stages(n, &twiddles, &stage_factors(&factors));
            Strategy::MixedRadix { stages }
        } else {
            // Bluestein: x[j]·c[j] convolved with conj-chirp, c[j]=e^{-iπj²/n}.
            let m = (2 * n - 1).next_power_of_two();
            let chirp: Vec<Complex64> = (0..n)
                .map(|j| {
                    // j² mod 2n keeps the angle bounded.
                    let q = (j * j) % (2 * n);
                    Complex64::expi(-std::f64::consts::PI * q as f64 / n as f64)
                })
                .collect();
            let mut kernel = vec![Complex64::ZERO; m];
            kernel[0] = chirp[0].conj();
            for j in 1..n {
                kernel[j] = chirp[j].conj();
                kernel[m - j] = chirp[j].conj();
            }
            fft_pow2_inplace(&mut kernel, -1.0);
            Strategy::Bluestein {
                m,
                chirp,
                kernel_fft: kernel,
            }
        };
        let half = if with_half && n >= 2 && n.is_multiple_of(2) {
            Some(Box::new(FftPlan::build(n / 2, false)))
        } else {
            None
        };
        FftPlan {
            n,
            twiddles,
            strategy,
            half,
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial size-1 transform.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// The half-size plan used by the even-`n` real fast path, if any.
    pub(crate) fn half(&self) -> Option<&FftPlan> {
        self.half.as_deref()
    }

    /// Scratch (ping-pong / convolution) length the iterative executor
    /// needs for this plan.
    pub(crate) fn scratch_len(&self) -> usize {
        match &self.strategy {
            Strategy::Identity => 0,
            Strategy::MixedRadix { .. } => self.n,
            Strategy::Bluestein { m, .. } => *m,
        }
    }

    /// Largest butterfly radix of the iterative schedule (slot-buffer size
    /// for the generic path).
    pub(crate) fn max_radix(&self) -> usize {
        match &self.strategy {
            Strategy::MixedRadix { stages } => stages.iter().map(|st| st.r).max().unwrap_or(1),
            _ => 1,
        }
    }

    /// The stage schedule, if the lane-batched executor (`crate::lanes`)
    /// covers it: a mixed-radix plan whose butterflies are all radix 2, 3
    /// or 4. Bluestein sizes, radix-5 schedules and n = 1 return `None`.
    pub(crate) fn lane_stages(&self) -> Option<&[Stage]> {
        match &self.strategy {
            Strategy::MixedRadix { stages } if stages.iter().all(|st| st.r <= 4) => Some(stages),
            _ => None,
        }
    }

    /// A workspace pre-sized for this plan (and its real-path half plan),
    /// so even the first `*_into` call allocates nothing.
    pub fn workspace(&self) -> FftWorkspace {
        let mut ws = FftWorkspace::new();
        ws.reserve_for(self);
        if let Some(h) = self.half() {
            ws.reserve_for(h);
        }
        ws
    }

    /// Forward FFT: `X[k] = Σ_j x[j] e^{-2πi jk/n}`. Allocates its output
    /// and a transient workspace; hot paths call [`FftPlan::forward_into`].
    pub fn forward(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut out = x.to_vec();
        self.forward_into(&mut out, &mut self.workspace());
        out
    }

    /// Inverse FFT including the 1/n factor; allocating like
    /// [`FftPlan::forward`].
    pub fn inverse(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut out = x.to_vec();
        self.inverse_into(&mut out, &mut self.workspace());
        out
    }

    /// In-place forward FFT through the iterative executor; all scratch
    /// comes from `ws`, so no heap allocation happens here (after `ws` has
    /// seen this plan once).
    pub fn forward_into(&self, buf: &mut [Complex64], ws: &mut FftWorkspace) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} != plan size {}",
            buf.len(),
            self.n
        );
        match &self.strategy {
            Strategy::Identity => {}
            Strategy::MixedRadix { .. } => self.stockham(buf, ws, false),
            Strategy::Bluestein { .. } => self.bluestein_into(buf, ws, false),
        }
    }

    /// In-place inverse FFT (including the 1/n factor) through the
    /// iterative executor; allocation-free like [`FftPlan::forward_into`].
    pub fn inverse_into(&self, buf: &mut [Complex64], ws: &mut FftWorkspace) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length {} != plan size {}",
            buf.len(),
            self.n
        );
        match &self.strategy {
            Strategy::Identity => {}
            Strategy::MixedRadix { .. } => self.stockham(buf, ws, true),
            Strategy::Bluestein { .. } => self.bluestein_into(buf, ws, true),
        }
        let inv = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// The iterative Stockham (self-sorting) mixed-radix evaluation:
    /// ping-pong between `buf` and the workspace scratch, one precomputed
    /// stage per radix, output in natural order with no permutation pass.
    fn stockham(&self, buf: &mut [Complex64], ws: &mut FftWorkspace, inverse: bool) {
        let Strategy::MixedRadix { stages } = &self.strategy else {
            unreachable!("stockham called on a non-mixed-radix plan")
        };
        let (scratch, slots) = ws.stage_buffers(self);
        let mut in_buf = true;
        for st in stages {
            if in_buf {
                stage_apply(st, buf, scratch, slots, inverse);
            } else {
                stage_apply(st, scratch, buf, slots, inverse);
            }
            in_buf = !in_buf;
        }
        if !in_buf {
            buf.copy_from_slice(&scratch[..self.n]);
        }
    }

    /// Forward twiddle `e^{-2πi t/n}` (used by the real-signal fast path
    /// to split/merge half-size spectra).
    #[inline]
    pub(crate) fn twiddle(&self, t: usize) -> Complex64 {
        self.twiddles[t % self.n]
    }

    /// Bluestein chirp-z transform through the power-of-two engine, in
    /// place on `buf` with workspace scratch: zero allocations.
    fn bluestein_into(&self, buf: &mut [Complex64], ws: &mut FftWorkspace, inverse: bool) {
        let (scratch, _) = ws.stage_buffers(self);
        scratch.fill(Complex64::ZERO);
        let Strategy::Bluestein {
            chirp, kernel_fft, ..
        } = &self.strategy
        else {
            unreachable!("bluestein_into called on a non-Bluestein plan")
        };
        let take = |c: Complex64| if inverse { c.conj() } else { c };
        for j in 0..self.n {
            scratch[j] = buf[j] * take(chirp[j]);
        }
        fft_pow2_inplace(scratch, -1.0);
        for (av, &kv) in scratch.iter_mut().zip(kernel_fft.iter()) {
            let k = if inverse { kv.conj() } else { kv };
            *av *= k;
        }
        fft_pow2_inplace(scratch, 1.0);
        let inv_m = 1.0 / scratch.len() as f64;
        for k in 0..self.n {
            buf[k] = (scratch[k] * take(chirp[k])).scale(inv_m);
        }
    }
}

/// Precompute the Stockham stages; stage twiddles are drawn from the plan's
/// global table.
fn build_stages(n: usize, twiddles: &[Complex64], factors: &[usize]) -> Vec<Stage> {
    let mut stages = Vec::with_capacity(factors.len());
    let mut n_cur = n;
    let mut s = 1usize;
    for &r in factors {
        let m = n_cur / r;
        let full = n / n_cur; // ω_{n_cur} = (ω_N)^{N/n_cur}
        let mut tw = Vec::with_capacity(m * r);
        for p in 0..m {
            for v in 0..r {
                tw.push(twiddles[(full * p * v) % n]);
            }
        }
        let roots = if r <= 4 {
            Vec::new()
        } else {
            let mut roots = Vec::with_capacity(r * r);
            for u in 0..r {
                for v in 0..r {
                    // ω_r^{uv} = ω_N^{(N/r)·(uv mod r)}
                    roots.push(twiddles[(n / r) * ((u * v) % r)]);
                }
            }
            roots
        };
        stages.push(Stage { r, m, s, tw, roots });
        n_cur = m;
        s *= r;
    }
    debug_assert_eq!(n_cur, 1);
    stages
}

#[inline(always)]
pub(crate) fn tw_of(c: Complex64, inverse: bool) -> Complex64 {
    if inverse {
        c.conj()
    } else {
        c
    }
}

/// Multiply by ±i: `i·c = (−im, re)`.
#[inline(always)]
fn rot90(c: Complex64) -> Complex64 {
    Complex64::new(-c.im, c.re)
}

/// Butterfly sign: forward uses e^{-iθ} roots, inverse their conjugates.
#[inline(always)]
pub(crate) fn butterfly_sign(inverse: bool) -> f64 {
    if inverse {
        1.0
    } else {
        -1.0
    }
}

// The hardcoded butterflies, twiddled: `out[v] = tw[v] · Σ_u a[u] ω_r^{uv}`
// (`tw[0]` is 1 and is not applied). Shared with the lane-batched executor
// (`crate::lanes`), which runs them with the line index as the vector
// dimension — one definition of the arithmetic, so the two executors agree
// to the last bit by construction.

#[inline(always)]
pub(crate) fn butterfly2(a: [Complex64; 2], tw: [Complex64; 2]) -> [Complex64; 2] {
    [a[0] + a[1], (a[0] - a[1]) * tw[1]]
}

#[inline(always)]
pub(crate) fn butterfly3(a: [Complex64; 3], tw: [Complex64; 3], sign: f64) -> [Complex64; 3] {
    let sum = a[1] + a[2];
    let t = a[0] - sum.scale(0.5);
    // ±i·sin(2π/3)·(a1−a2)
    let e = rot90(a[1] - a[2]).scale(sign * SIN_2PI_3);
    [a[0] + sum, (t + e) * tw[1], (t - e) * tw[2]]
}

#[inline(always)]
pub(crate) fn butterfly4(a: [Complex64; 4], tw: [Complex64; 4], sign: f64) -> [Complex64; 4] {
    let (b0, b1) = (a[0] + a[2], a[0] - a[2]);
    let (b2, b3) = (a[1] + a[3], a[1] - a[3]);
    let jb3 = rot90(b3).scale(sign);
    [
        b0 + b2,
        (b1 + jb3) * tw[1],
        (b0 - b2) * tw[2],
        (b1 - jb3) * tw[3],
    ]
}

/// One Stockham decimation-in-frequency pass:
/// `dst[q + s(rp + v)] = ω_{n_cur}^{pv} · Σ_u src[q + s(p + mu)] ω_r^{uv}`.
fn stage_apply(
    st: &Stage,
    src: &[Complex64],
    dst: &mut [Complex64],
    slots: &mut [Complex64],
    inverse: bool,
) {
    let (r, m, s) = (st.r, st.m, st.s);
    let sign = butterfly_sign(inverse);
    for p in 0..m {
        let twp = &st.tw[p * r..p * r + r];
        let tw = |v: usize| tw_of(twp[v], inverse);
        for q in 0..s {
            let at = |u: usize| src[q + s * (p + m * u)];
            let base = q + s * r * p;
            match r {
                2 => {
                    let out = butterfly2([at(0), at(1)], [tw(0), tw(1)]);
                    dst[base] = out[0];
                    dst[base + s] = out[1];
                }
                3 => {
                    let out = butterfly3([at(0), at(1), at(2)], [tw(0), tw(1), tw(2)], sign);
                    for (v, &o) in out.iter().enumerate() {
                        dst[base + v * s] = o;
                    }
                }
                4 => {
                    let out = butterfly4(
                        [at(0), at(1), at(2), at(3)],
                        [tw(0), tw(1), tw(2), tw(3)],
                        sign,
                    );
                    for (v, &o) in out.iter().enumerate() {
                        dst[base + v * s] = o;
                    }
                }
                _ => {
                    for (u, slot) in slots.iter_mut().enumerate().take(r) {
                        *slot = at(u);
                    }
                    for v in 0..r {
                        let mut acc = Complex64::ZERO;
                        for (u, &au) in slots.iter().enumerate().take(r) {
                            acc += au * tw_of(st.roots[u * r + v], inverse);
                        }
                        dst[base + v * s] = acc * tw(v);
                    }
                }
            }
        }
    }
}

/// sin(2π/3) = √3/2, the radix-3 butterfly constant.
const SIN_2PI_3: f64 = 0.866_025_403_784_438_6;

/// Process-wide plan cache: one shared [`FftPlan`] per transform size.
///
/// Plan construction is the paper's once-per-run setup cost; sharing plans
/// across filter setups, benches and tests keeps it truly once-per-size.
pub fn shared_plan(n: usize) -> Arc<FftPlan> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("plan cache poisoned");
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_error;
    use crate::dft::{dft, idft};

    /// True if the plan uses the mixed-radix path (2/3/5-smooth size).
    fn is_smooth(plan: &FftPlan) -> bool {
        matches!(
            plan.strategy,
            Strategy::MixedRadix { .. } | Strategy::Identity
        )
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new((j as f64 * 0.9).sin() + 0.2, (j as f64 * 0.4).cos()))
            .collect()
    }

    #[test]
    fn smooth_factorization() {
        assert_eq!(smooth_factors(1), Some(vec![]));
        assert_eq!(smooth_factors(8), Some(vec![2, 2, 2]));
        assert_eq!(smooth_factors(144), Some(vec![3, 3, 2, 2, 2, 2]));
        assert_eq!(smooth_factors(30), Some(vec![5, 3, 2]));
        assert_eq!(smooth_factors(7), None);
        assert_eq!(smooth_factors(22), None);
    }

    #[test]
    fn stage_schedule_fuses_twos() {
        assert_eq!(stage_factors(&[3, 3, 2, 2, 2, 2]), vec![4, 4, 3, 3]);
        assert_eq!(stage_factors(&[2, 2, 2]), vec![4, 2]);
        assert_eq!(stage_factors(&[5, 3, 2]), vec![2, 3, 5]);
        assert_eq!(stage_factors(&[]), Vec::<usize>::new());
    }

    #[test]
    fn matches_dft_smooth_sizes() {
        for n in [
            1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 27, 30, 36, 45, 48, 60, 72, 144,
        ] {
            let plan = FftPlan::new(n);
            assert!(is_smooth(&plan), "n={n} should be smooth");
            let x = signal(n);
            let err = max_error(&plan.forward(&x), &dft(&x));
            assert!(err < 1e-9 * (n.max(4)) as f64, "n={n}: err={err}");
        }
    }

    #[test]
    fn iterative_roundtrip_reuses_workspace() {
        let plan = FftPlan::new(144);
        let mut ws = plan.workspace();
        let x = signal(144);
        let mut buf = x.clone();
        for _ in 0..3 {
            plan.forward_into(&mut buf, &mut ws);
            plan.inverse_into(&mut buf, &mut ws);
        }
        assert!(max_error(&buf, &x) < 1e-10);
    }

    #[test]
    fn matches_dft_bluestein_sizes() {
        for n in [7, 11, 13, 17, 23, 37, 97, 101] {
            let plan = FftPlan::new(n);
            assert!(!is_smooth(&plan), "n={n} should use Bluestein");
            let x = signal(n);
            let err = max_error(&plan.forward(&x), &dft(&x));
            assert!(err < 1e-8 * n as f64, "n={n}: err={err}");
        }
    }

    #[test]
    fn inverse_matches_idft() {
        for n in [12, 144, 13, 90, 25] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let err = max_error(&plan.inverse(&x), &idft(&x));
            assert!(err < 1e-9 * n as f64, "n={n}: err={err}");
        }
    }

    #[test]
    fn roundtrip_all_sizes_up_to_60() {
        for n in 1..=60 {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let back = plan.inverse(&plan.forward(&x));
            let err = max_error(&back, &x);
            assert!(err < 1e-9 * n.max(4) as f64, "n={n}: roundtrip err={err}");
        }
    }

    #[test]
    fn agcm_longitude_size_is_smooth() {
        // 2.5° resolution → 144 longitudes = 2⁴·3².
        assert!(is_smooth(&FftPlan::new(144)));
        // 15-layer runs use the same horizontal grid.
        assert!(is_smooth(&FftPlan::new(72)));
    }

    #[test]
    fn plan_reuse_is_deterministic() {
        let plan = FftPlan::new(36);
        let x = signal(36);
        assert_eq!(plan.forward(&x), plan.forward(&x));
    }

    #[test]
    fn shared_plan_caches_by_size() {
        let a = shared_plan(144);
        let b = shared_plan(144);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        assert_eq!(shared_plan(72).len(), 72);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_rejected() {
        FftPlan::new(8).forward(&signal(7));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn into_wrong_length_rejected() {
        let plan = FftPlan::new(8);
        let mut ws = plan.workspace();
        let mut buf = signal(7);
        plan.forward_into(&mut buf, &mut ws);
    }
}
