//! The lane-batched executor behind `filter_lines_flat` reproduces the
//! scalar sequence — `filter_pair` on consecutive pairs,
//! `filter_line` on an odd tail — **bit for bit**: lane-capable sizes
//! (radix 2/3/4 schedules), radix-5 schedules and a Bluestein size (both
//! fall back to the scalar pair path inside the executor), every line
//! count from 1 to 40 (full batches, a ragged last batch, an odd tail),
//! data including signed zeros and denormals.

use agcm_fft::batch::{filter_line, filter_lines_flat, filter_pair};
use agcm_fft::lanes::LaneBatch;
use agcm_fft::FftPlan;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Mostly uniform in (−1, 1); now and then ±0.0, a denormal, or a
    /// value near the top of the range a model field reaches.
    fn value(&mut self) -> f64 {
        let u = self.next() as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        match self.next() % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => u * f64::MIN_POSITIVE,
            3 => f64::from_bits(1 + self.next() % 1000),
            4 => u * 1.0e5,
            _ => u,
        }
    }
}

fn lines(n: usize, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n * count).map(|_| rng.value()).collect()
}

/// A symmetric multiplier with a wide dynamic range, like the polar
/// filter's near the pole.
fn multiplier(n: usize, sharp: f64) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let kk = k.min(n - k) as f64;
            1.0 / (1.0 + sharp * kk * kk)
        })
        .collect()
}

/// The specification: scalar pairs in order, scalar tail.
fn oracle(plan: &FftPlan, flat: &mut [f64], mult: &[f64]) {
    let n = plan.len();
    let mut ws = plan.workspace();
    let mut rest = flat;
    while rest.len() >= 2 * n {
        let (pair, tail) = rest.split_at_mut(2 * n);
        let (a, b) = pair.split_at_mut(n);
        filter_pair(plan, a, b, mult, &mut ws);
        rest = tail;
    }
    if !rest.is_empty() {
        filter_line(plan, rest, mult, &mut ws);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

const SIZES: [usize; 10] = [8, 12, 24, 36, 45, 60, 72, 90, 144, 97];

#[test]
fn flat_batch_matches_the_scalar_sequence_bitwise() {
    for n in SIZES {
        let plan = FftPlan::new(n);
        let mult = multiplier(n, 0.3);
        let mut ws = plan.workspace();
        for count in 1..=40usize {
            let input = lines(n, count, (n * 1000 + count) as u64);
            let mut expect = input.clone();
            oracle(&plan, &mut expect, &mult);

            let mut flat = input.clone();
            filter_lines_flat(&plan, &mut flat, &mult, &mut ws);
            assert_eq!(bits(&flat), bits(&expect), "flat n={n} lines={count}");
        }
    }
}

#[test]
fn per_lane_multipliers_and_chunked_io_match_the_scalar_pair_path() {
    // What the filtering engine does: lanes filled across latitude groups
    // (each lane its own multiplier), lines gathered and scattered in
    // longitude chunks.
    for n in [24usize, 45, 97, 144] {
        let plan = FftPlan::new(n);
        let mults: Vec<Vec<f64>> = (0..8)
            .map(|l| multiplier(n, 0.05 * (l + 1) as f64))
            .collect();
        let mut ws = plan.workspace();
        let mut oracle_ws = plan.workspace();
        for pairs in [8usize, 3] {
            let input = lines(n, 2 * pairs, (n + pairs) as u64);
            let mut expect = input.clone();
            for (lane, pair) in expect.chunks_exact_mut(2 * n).enumerate() {
                let (a, b) = pair.split_at_mut(n);
                filter_pair(&plan, a, b, &mults[lane], &mut oracle_ws);
            }

            let cut = n / 3;
            let mut got = vec![0.0; input.len()];
            let mut lanes = LaneBatch::new(&plan, &mut ws);
            lanes.begin(pairs);
            for (lane, mult) in mults.iter().enumerate().take(pairs) {
                lanes.set_multiplier(lane, mult);
            }
            for (slot, line) in input.chunks_exact(n).enumerate() {
                lanes.load(slot, cut, &line[cut..]);
                lanes.load(slot, 0, &line[..cut]);
            }
            lanes.run();
            for (slot, line) in got.chunks_exact_mut(n).enumerate() {
                let (head, tail) = line.split_at_mut(cut);
                lanes.store(slot, 0, head);
                lanes.store(slot, cut, tail);
            }
            drop(lanes);
            assert_eq!(bits(&got), bits(&expect), "n={n} pairs={pairs}");
        }
    }
}
