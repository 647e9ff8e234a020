//! Lane-batched spectral filtering: [`W`] pair-packed transforms advance
//! together, the *line index* as the vector dimension.
//!
//! The polar filter is "many identical transforms of length 144". The
//! scalar executor (`FftPlan::forward_into`) walks one array-of-structures
//! `Complex64` butterfly at a time; its first radix-4 stage has stride 1,
//! so nothing inside one transform vectorizes. This executor turns the
//! batch sideways instead — the layout a SIMD machine wants (every
//! processing element runs the same butterfly in lock-step on its own
//! transform):
//!
//! ```text
//! re[j][lane], im[j][lane]      j = 0..n, lane = 0..W
//! lane = one pair-packed transform z = a + i·b of two same-latitude lines
//! ```
//!
//! Every butterfly of every stage is straight-line arithmetic on
//! `[f64; W]` values; the stage's radix and direction are resolved outside
//! the loops (const generics), the spectral multiply is fused into the
//! stores of the last forward stage and the `1/n` scale into the unpack.
//! The body is compiled three times — portable, `avx2`, `avx512f` — behind
//! runtime detection, the idiom of `agcm-kernels`.
//!
//! # Why the result is bit-identical to `filter_pair`
//!
//! One lane performs exactly the scalar path's operation sequence:
//!
//! * the same stage schedule (the plan's own `Stage` list, e.g. 4·4·3·3
//!   for n = 144) with the same index maps, so each value meets the same
//!   partners in the same order;
//! * the same twiddle table entries, conjugated by negating the imaginary
//!   part exactly as `Complex64::conj` does;
//! * the same formulas, operation for operation: the `Complex64` product
//!   `(ar·br − ai·bi, ar·bi + ai·br)`, `rot90`, the `scale` calls with the
//!   same constants. Rust never contracts `a·b + c` into a fused
//!   multiply-add, under any target feature, so wider registers change how
//!   many lanes one instruction covers and nothing else;
//! * lanes never mix: no horizontal operation exists in the body.
//!
//! The scalar path's ping-pong copy-back, the separate multiplier pass and
//! the separate `1/n` pass only move or revisit values; fusing them changes
//! no operand. Unused lanes are zero-filled and compute zeros.
//!
//! Plans the lane body does not cover — Bluestein sizes, schedules with a
//! radix-5 stage, n = 1 — keep the same `begin`/`load`/`run`/`store`
//! interface and run the scalar pair path on row storage, so callers have
//! one code path for every grid.

use crate::batch::pair_core;
use crate::complex::Complex64;
use crate::plan::{butterfly2, butterfly3, butterfly4, butterfly_sign, tw_of, FftPlan, Stage};
use crate::workspace::FftWorkspace;

/// Pair-packed transforms per batch: eight `f64` lanes fill one AVX-512
/// register (two AVX2 registers, four SSE2 registers).
pub const W: usize = 8;

/// Real lines per batch: two per lane.
pub const LINES: usize = 2 * W;

/// One value per lane.
type V = [f64; W];

/// Storage of one batch, owned by an [`FftWorkspace`] and reused for every
/// batch: ping-pong planes for the stages plus the per-lane multiplier
/// rows. Lane plans index it `[j][lane]`; fallback plans use the flattened
/// planes as `W` rows of `n` (`[lane][j]`).
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    re: Vec<V>,
    im: Vec<V>,
    re2: Vec<V>,
    im2: Vec<V>,
    mult: Vec<V>,
}

impl LaneScratch {
    /// Grow (never shrink) every plane to hold a batch of `plan`.
    pub(crate) fn reserve_for(&mut self, plan: &FftPlan) {
        let n = plan.len();
        let ping_pong = if plan.lane_stages().is_some() { n } else { 0 };
        for (buf, len) in [
            (&mut self.re, n),
            (&mut self.im, n),
            (&mut self.mult, n),
            (&mut self.re2, ping_pong),
            (&mut self.im2, ping_pong),
        ] {
            if buf.len() < len {
                buf.resize(len, [0.0; W]);
            }
        }
    }
}

/// One batch of up to [`LINES`] real lines moving through the filter
/// `IFFT(s ⊙ FFT(·))`, two lines per lane.
///
/// Slot `2·lane` is the lane's real part (line a of the pair), slot
/// `2·lane + 1` its imaginary part (line b); both lines of a lane share
/// the lane's multiplier. A batch is `begin` → `set_multiplier*` / `load`
/// per slot → `run` → `store` per slot; lines may be loaded and stored in
/// longitude chunks, so a caller can gather straight from wherever the
/// chunks live and scatter straight back.
pub struct LaneBatch<'a> {
    plan: &'a FftPlan,
    ws: &'a mut FftWorkspace,
    /// The plan's stage schedule if the lane body covers it; `None` selects
    /// the scalar fallback on row storage.
    stages: Option<&'a [Stage]>,
    /// Lent out of `ws` for the batch's lifetime, returned on drop.
    s: LaneScratch,
    /// Lanes in use (fallback plans filter only these).
    pairs: usize,
    /// Factor applied by `store`: `1/n` for lane plans; the fallback's
    /// scalar inverse has already applied it.
    unpack_scale: f64,
}

impl<'a> LaneBatch<'a> {
    /// Borrow `ws`'s lane storage for batches of `plan`. Allocates only if
    /// `ws` has not met a plan this large before.
    pub fn new(plan: &'a FftPlan, ws: &'a mut FftWorkspace) -> LaneBatch<'a> {
        let mut s = std::mem::take(&mut ws.lanes);
        s.reserve_for(plan);
        let stages = plan.lane_stages();
        let unpack_scale = if stages.is_some() {
            1.0 / plan.len() as f64
        } else {
            1.0
        };
        LaneBatch {
            plan,
            ws,
            stages,
            s,
            pairs: W,
            unpack_scale,
        }
    }

    /// Start a batch of `pairs ≤ W` pairs. A ragged batch zero-fills the
    /// planes first, so unused lanes carry zeros instead of the previous
    /// batch's values (which repeated filtering would drive denormal).
    pub fn begin(&mut self, pairs: usize) {
        assert!(pairs <= W, "a batch holds at most {W} pairs, got {pairs}");
        self.pairs = pairs;
        if pairs < W {
            let n = self.plan.len();
            self.s.re[..n].fill([0.0; W]);
            self.s.im[..n].fill([0.0; W]);
        }
    }

    /// Give `lane` its spectral multiplier (length n, real, symmetric).
    pub fn set_multiplier(&mut self, lane: usize, multiplier: &[f64]) {
        let n = self.plan.len();
        assert_eq!(multiplier.len(), n);
        assert!(lane < W);
        if self.stages.is_some() {
            for (row, &m) in self.s.mult[..n].iter_mut().zip(multiplier) {
                row[lane] = m;
            }
        } else {
            self.s.mult[..n].as_flattened_mut()[lane * n..][..n].copy_from_slice(multiplier);
        }
    }

    /// Give every lane the same multiplier.
    pub fn set_multiplier_all(&mut self, multiplier: &[f64]) {
        let n = self.plan.len();
        assert_eq!(multiplier.len(), n);
        if self.stages.is_some() {
            for (row, &m) in self.s.mult[..n].iter_mut().zip(multiplier) {
                *row = [m; W];
            }
        } else {
            for row in self.s.mult[..n].as_flattened_mut().chunks_exact_mut(n) {
                row.copy_from_slice(multiplier);
            }
        }
    }

    /// Write `chunk` into `slot` at longitudes `i0..i0 + chunk.len()`.
    pub fn load(&mut self, slot: usize, i0: usize, chunk: &[f64]) {
        let n = self.plan.len();
        let lane = slot / 2;
        assert!(lane < W && i0 + chunk.len() <= n);
        let plane = if slot.is_multiple_of(2) {
            &mut self.s.re[..n]
        } else {
            &mut self.s.im[..n]
        };
        if self.stages.is_some() {
            for (row, &x) in plane[i0..].iter_mut().zip(chunk) {
                row[lane] = x;
            }
        } else {
            plane.as_flattened_mut()[lane * n + i0..][..chunk.len()].copy_from_slice(chunk);
        }
    }

    /// Filter every loaded lane in place.
    pub fn run(&mut self) {
        let n = self.plan.len();
        let s = &mut self.s;
        match self.stages {
            Some(stages) => filter_lanes(
                stages,
                &mut s.re[..n],
                &mut s.im[..n],
                &mut s.re2[..n],
                &mut s.im2[..n],
                &s.mult[..n],
            ),
            None => {
                let re = s.re[..n].as_flattened_mut();
                let im = s.im[..n].as_flattened_mut();
                let mult = s.mult[..n].as_flattened();
                for lane in 0..self.pairs {
                    let row = lane * n..(lane + 1) * n;
                    pair_core(
                        self.plan,
                        &mut re[row.clone()],
                        &mut im[row.clone()],
                        &mult[row],
                        self.ws,
                    );
                }
            }
        }
    }

    /// Read longitudes `i0..i0 + out.len()` of the filtered `slot`.
    pub fn store(&self, slot: usize, i0: usize, out: &mut [f64]) {
        let n = self.plan.len();
        let lane = slot / 2;
        assert!(lane < W && i0 + out.len() <= n);
        let plane = if slot.is_multiple_of(2) {
            &self.s.re[..n]
        } else {
            &self.s.im[..n]
        };
        let scale = self.unpack_scale;
        if self.stages.is_some() {
            for (o, row) in out.iter_mut().zip(&plane[i0..]) {
                *o = row[lane] * scale;
            }
        } else {
            let row = &plane.as_flattened()[lane * n + i0..][..out.len()];
            for (o, &x) in out.iter_mut().zip(row) {
                *o = x * scale;
            }
        }
    }
}

impl Drop for LaneBatch<'_> {
    fn drop(&mut self) {
        self.ws.lanes = std::mem::take(&mut self.s);
    }
}

/// The dispatch target [`LaneBatch::run`] uses on this CPU.
pub fn dispatch_target() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// `a ← IFFT(mult ⊙ FFT(a))` without the `1/n` factor, on every lane;
/// `b` is the ping-pong side. Dispatches at runtime to the widest
/// compilation of the one body the CPU supports.
fn filter_lanes(
    stages: &[Stage],
    a_re: &mut [V],
    a_im: &mut [V],
    b_re: &mut [V],
    b_im: &mut [V],
    mult: &[V],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: same safe body, compiled with AVX-512F enabled;
            // gated on runtime detection above.
            unsafe { filter_lanes_avx512(stages, a_re, a_im, b_re, b_im, mult) };
            return;
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            unsafe { filter_lanes_avx2(stages, a_re, a_im, b_re, b_im, mult) };
            return;
        }
    }
    filter_lanes_body(stages, a_re, a_im, b_re, b_im, mult);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn filter_lanes_avx2(
    stages: &[Stage],
    a_re: &mut [V],
    a_im: &mut [V],
    b_re: &mut [V],
    b_im: &mut [V],
    mult: &[V],
) {
    filter_lanes_body(stages, a_re, a_im, b_re, b_im, mult)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn filter_lanes_avx512(
    stages: &[Stage],
    a_re: &mut [V],
    a_im: &mut [V],
    b_re: &mut [V],
    b_im: &mut [V],
    mult: &[V],
) {
    filter_lanes_body(stages, a_re, a_im, b_re, b_im, mult)
}

/// The body shared verbatim by every dispatch target (`inline(always)`
/// all the way down, so each `#[target_feature]` wrapper gets its own
/// vectorized compilation): the forward stages, the multiplier fused into
/// the last one's stores, then the inverse stages — `2·stages.len()`
/// passes, so the result lands back in `a`.
///
/// The passes alternate `a → b`, `b → a` as two call sites rather than by
/// swapping references, and the planes arrive as four separate slice
/// parameters: each stays a distinct `noalias` argument of the wrapper.
/// Without that the compiler guards every vectorized butterfly walk with
/// runtime overlap checks and runs the short walks of the early stages
/// scalar (measured: 920 instead of 230 ns per line).
#[inline(always)]
fn filter_lanes_body(
    stages: &[Stage],
    a_re: &mut [V],
    a_im: &mut [V],
    b_re: &mut [V],
    b_im: &mut [V],
    mult: &[V],
) {
    let len = stages.len();
    // Pass k of 2·len: (stage, inverse, fuse the multiplier).
    let nth = |k: usize| {
        if k < len {
            (&stages[k], false, k + 1 == len)
        } else {
            (&stages[k - len], true, false)
        }
    };
    for k in (0..2 * len).step_by(2) {
        pass(nth(k), (a_re, a_im), (b_re, b_im), mult);
        pass(nth(k + 1), (b_re, b_im), (a_re, a_im), mult);
    }
}

/// Resolve the pass's direction, fusion and radix once, outside the
/// butterfly loops.
#[inline(always)]
fn pass(
    (st, inverse, fuse): (&Stage, bool, bool),
    src: (&[V], &[V]),
    dst: (&mut [V], &mut [V]),
    mult: &[V],
) {
    let src = (src.0.as_flattened(), src.1.as_flattened());
    let dst = (dst.0.as_flattened_mut(), dst.1.as_flattened_mut());
    let mult = mult.as_flattened();
    match (inverse, fuse) {
        (false, false) => stage::<false, false>(st, src, dst, mult),
        (false, true) => stage::<false, true>(st, src, dst, mult),
        (true, _) => stage::<true, false>(st, src, dst, mult),
    }
}

#[inline(always)]
fn stage<const INV: bool, const MUL: bool>(
    st: &Stage,
    src: (&[f64], &[f64]),
    dst: (&mut [f64], &mut [f64]),
    mult: &[f64],
) {
    match st.r {
        2 => stage2::<INV, MUL>(st, src, dst, mult),
        3 => stage3::<INV, MUL>(st, src, dst, mult),
        4 => stage4::<INV, MUL>(st, src, dst, mult),
        r => unreachable!("radix {r} is not a lane radix"),
    }
}

// One Stockham pass over all lanes — `plan::stage_apply` with the lane as
// the innermost dimension:
// `dst[q + s(rp + v)] = ω^{pv} · Σ_u src[q + s(p + mu)] ω_r^{uv}`,
// times `mult[q + s(rp + v)]` when `MUL`. For a fixed `p` the `s` values
// of `q` times the `W` lanes are `s·W` consecutive `f64`s in each of the
// `r` source blocks and `r` destination blocks, so the inner loop is one
// stride-1 walk over `2r` inputs and `2r` outputs, which the compiler
// vectorizes at whatever width the target has; its body is the scalar
// executor's own butterfly function.

/// The `len` values at `at` (both in units of `f64`).
#[inline(always)]
fn block(plane: &[f64], at: usize, len: usize) -> &[f64] {
    &plane[at..at + len]
}

/// The multiplier block matching a destination block, or nothing.
#[inline(always)]
fn mult_block<const MUL: bool>(mult: &[f64], at: usize, len: usize) -> &[f64] {
    if MUL {
        block(mult, at, len)
    } else {
        &[]
    }
}

/// Store `z` at `i`, times the lane's multiplier there when `MUL`.
#[inline(always)]
fn put<const MUL: bool>(re: &mut [f64], im: &mut [f64], mult: &[f64], i: usize, z: Complex64) {
    let z = if MUL { z.scale(mult[i]) } else { z };
    re[i] = z.re;
    im[i] = z.im;
}

#[inline(always)]
fn stage2<const INV: bool, const MUL: bool>(
    st: &Stage,
    src: (&[f64], &[f64]),
    dst: (&mut [f64], &mut [f64]),
    mult: &[f64],
) {
    let (m, len) = (st.m, st.s * W);
    for p in 0..m {
        let tw = &st.tw[2 * p..2 * (p + 1)];
        let tw = [tw_of(tw[0], INV), tw_of(tw[1], INV)];
        let (a0r, a0i) = (block(src.0, len * p, len), block(src.1, len * p, len));
        let (a1r, a1i) = (
            block(src.0, len * (p + m), len),
            block(src.1, len * (p + m), len),
        );
        let at = 2 * len * p;
        let (d0r, d1r) = dst.0[at..at + 2 * len].split_at_mut(len);
        let (d0i, d1i) = dst.1[at..at + 2 * len].split_at_mut(len);
        let m0 = mult_block::<MUL>(mult, at, len);
        let m1 = mult_block::<MUL>(mult, at + len, len);
        for i in 0..len {
            let a = [
                Complex64::new(a0r[i], a0i[i]),
                Complex64::new(a1r[i], a1i[i]),
            ];
            let out = butterfly2(a, tw);
            put::<MUL>(d0r, d0i, m0, i, out[0]);
            put::<MUL>(d1r, d1i, m1, i, out[1]);
        }
    }
}

#[inline(always)]
fn stage3<const INV: bool, const MUL: bool>(
    st: &Stage,
    src: (&[f64], &[f64]),
    dst: (&mut [f64], &mut [f64]),
    mult: &[f64],
) {
    let (m, len) = (st.m, st.s * W);
    let sign = butterfly_sign(INV);
    for p in 0..m {
        let tw = &st.tw[3 * p..3 * (p + 1)];
        let tw = [tw_of(tw[0], INV), tw_of(tw[1], INV), tw_of(tw[2], INV)];
        let (a0r, a0i) = (block(src.0, len * p, len), block(src.1, len * p, len));
        let (a1r, a1i) = (
            block(src.0, len * (p + m), len),
            block(src.1, len * (p + m), len),
        );
        let (a2r, a2i) = (
            block(src.0, len * (p + 2 * m), len),
            block(src.1, len * (p + 2 * m), len),
        );
        let at = 3 * len * p;
        let (d0r, rest) = dst.0[at..at + 3 * len].split_at_mut(len);
        let (d1r, d2r) = rest.split_at_mut(len);
        let (d0i, rest) = dst.1[at..at + 3 * len].split_at_mut(len);
        let (d1i, d2i) = rest.split_at_mut(len);
        let m0 = mult_block::<MUL>(mult, at, len);
        let m1 = mult_block::<MUL>(mult, at + len, len);
        let m2 = mult_block::<MUL>(mult, at + 2 * len, len);
        for i in 0..len {
            let a = [
                Complex64::new(a0r[i], a0i[i]),
                Complex64::new(a1r[i], a1i[i]),
                Complex64::new(a2r[i], a2i[i]),
            ];
            let out = butterfly3(a, tw, sign);
            put::<MUL>(d0r, d0i, m0, i, out[0]);
            put::<MUL>(d1r, d1i, m1, i, out[1]);
            put::<MUL>(d2r, d2i, m2, i, out[2]);
        }
    }
}

#[inline(always)]
fn stage4<const INV: bool, const MUL: bool>(
    st: &Stage,
    src: (&[f64], &[f64]),
    dst: (&mut [f64], &mut [f64]),
    mult: &[f64],
) {
    let (m, len) = (st.m, st.s * W);
    let sign = butterfly_sign(INV);
    for p in 0..m {
        let tw = &st.tw[4 * p..4 * (p + 1)];
        let tw = [
            tw_of(tw[0], INV),
            tw_of(tw[1], INV),
            tw_of(tw[2], INV),
            tw_of(tw[3], INV),
        ];
        let (a0r, a0i) = (block(src.0, len * p, len), block(src.1, len * p, len));
        let (a1r, a1i) = (
            block(src.0, len * (p + m), len),
            block(src.1, len * (p + m), len),
        );
        let (a2r, a2i) = (
            block(src.0, len * (p + 2 * m), len),
            block(src.1, len * (p + 2 * m), len),
        );
        let (a3r, a3i) = (
            block(src.0, len * (p + 3 * m), len),
            block(src.1, len * (p + 3 * m), len),
        );
        let at = 4 * len * p;
        let (d0r, rest) = dst.0[at..at + 4 * len].split_at_mut(len);
        let (d1r, rest) = rest.split_at_mut(len);
        let (d2r, d3r) = rest.split_at_mut(len);
        let (d0i, rest) = dst.1[at..at + 4 * len].split_at_mut(len);
        let (d1i, rest) = rest.split_at_mut(len);
        let (d2i, d3i) = rest.split_at_mut(len);
        let m0 = mult_block::<MUL>(mult, at, len);
        let m1 = mult_block::<MUL>(mult, at + len, len);
        let m2 = mult_block::<MUL>(mult, at + 2 * len, len);
        let m3 = mult_block::<MUL>(mult, at + 3 * len, len);
        for i in 0..len {
            let a = [
                Complex64::new(a0r[i], a0i[i]),
                Complex64::new(a1r[i], a1i[i]),
                Complex64::new(a2r[i], a2i[i]),
                Complex64::new(a3r[i], a3i[i]),
            ];
            let out = butterfly4(a, tw, sign);
            put::<MUL>(d0r, d0i, m0, i, out[0]);
            put::<MUL>(d1r, d1i, m1, i, out[1]);
            put::<MUL>(d2r, d2i, m2, i, out[2]);
            put::<MUL>(d3r, d3i, m3, i, out[3]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::array::from_fn;

    fn planes(n: usize, seed: u64) -> (Vec<V>, Vec<V>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let re = (0..n).map(|_| from_fn(|_| next())).collect();
        let im = (0..n).map(|_| from_fn(|_| next())).collect();
        (re, im)
    }

    fn bits(p: &[V]) -> Vec<u64> {
        p.as_flattened().iter().map(|v| v.to_bits()).collect()
    }

    /// Run one compilation of the body on fresh copies of the same input.
    /// A compilation of the body.
    type Body = unsafe fn(&[Stage], &mut [V], &mut [V], &mut [V], &mut [V], &[V]);

    fn run_with(
        f: Body,
        plan: &FftPlan,
        input: &(Vec<V>, Vec<V>),
        mult: &[V],
    ) -> (Vec<u64>, Vec<u64>) {
        let n = plan.len();
        let (mut re, mut im) = input.clone();
        let (mut re2, mut im2) = (vec![[0.0; W]; n], vec![[0.0; W]; n]);
        let stages = plan.lane_stages().expect("lane plan");
        // SAFETY: callers pass a target-feature wrapper only after
        // detecting that feature; the other bodies are safe functions.
        unsafe { f(stages, &mut re, &mut im, &mut re2, &mut im2, mult) };
        (bits(&re), bits(&im))
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // No public switch selects a target, so the private wrappers are
        // compared here: whatever the CPU supports must reproduce the
        // portable compilation to the last bit.
        for n in [8usize, 12, 24, 36, 72, 144] {
            let plan = FftPlan::new(n);
            let input = planes(n, n as u64);
            let (mult, _) = planes(n, 7 * n as u64);
            let portable = run_with(filter_lanes_body, &plan, &input, &mult);
            let dispatched = run_with(filter_lanes, &plan, &input, &mult);
            assert_eq!(portable, dispatched, "n={n}: dispatched target");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    assert_eq!(
                        portable,
                        run_with(filter_lanes_avx2, &plan, &input, &mult),
                        "n={n}: avx2"
                    );
                }
                if is_x86_feature_detected!("avx512f") {
                    assert_eq!(
                        portable,
                        run_with(filter_lanes_avx512, &plan, &input, &mult),
                        "n={n}: avx512f"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_do_not_mix() {
        // Changing one lane's input changes only that lane's output.
        let n = 36;
        let plan = FftPlan::new(n);
        let input = planes(n, 3);
        let (mult, _) = planes(n, 4);
        let base = run_with(filter_lanes, &plan, &input, &mult);
        let mut poked = input.clone();
        poked.0[5][2] += 1.0;
        let got = run_with(filter_lanes, &plan, &poked, &mult);
        for (i, (b, g)) in base.0.iter().zip(&got.0).enumerate() {
            if i % W != 2 {
                assert_eq!(b, g, "re[{}][{}] moved", i / W, i % W);
            }
        }
    }

    #[test]
    fn reports_a_dispatch_target() {
        assert!(["portable", "avx2", "avx512f"].contains(&dispatch_target()));
    }
}
