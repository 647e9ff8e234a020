//! Batched, allocation-free FFT filtering vs the per-line paths.
//!
//! The rungs of the optimization ladder for one filtered latitude group
//! (paper §3.2, Eq. 1):
//!
//! 1. `per_line_complex` — the original organization: every real line is
//!    widened to a full complex transform, with fresh allocations per call
//!    (`apply_spectral_multiplier`);
//! 2. `per_line_real` — one line at a time through the workspace-backed
//!    half-complex real transform (no allocations, still no batching);
//! 3. `scalar_pairs` — pairs of real lines packed into single complex
//!    transforms, one scalar transform at a time (`filter_pair`): the
//!    arithmetic the production path reproduces bit for bit;
//! 4. `batched_real` — the production path (`filter_lines_flat`): the
//!    same pairs, eight at a time through the lane-batched executor;
//! 5. `lane_batched` — that executor driven the way the filter engine
//!    drives it (`LaneBatch`): lanes filled across latitude groups, each
//!    lane with its own multiplier.
//!
//! Acceptance: `batched_real` beats `per_line_complex` by ≥2× at n=144.

use agcm_fft::batch::{filter_line, filter_lines_flat, filter_pair};
use agcm_fft::convolution::apply_spectral_multiplier;
use agcm_fft::lanes::{LaneBatch, LINES};
use agcm_fft::plan::FftPlan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Lines per batch: one strongly-filtered polar latitude moves 4 variables
/// × 9 levels in the paper's 9-layer configuration.
const BATCH: usize = 36;

fn lines(n: usize) -> Vec<f64> {
    (0..BATCH * n)
        .map(|j| (j as f64 * 0.37).sin() + 0.3 * (j as f64 * 0.11).cos())
        .collect()
}

/// A strong-filter-shaped symmetric multiplier (damps high wavenumbers).
fn multiplier(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let s = k.min(n - k) as f64 / (n as f64 / 2.0);
            1.0 / (1.0 + 8.0 * s * s)
        })
        .collect()
}

fn bench_filter_paths(c: &mut Criterion) {
    for n in [144usize, 90] {
        let mut g = c.benchmark_group(format!("filter_batch_n{n}"));
        g.sample_size(20)
            .measurement_time(Duration::from_millis(800));
        let plan = FftPlan::new(n);
        let mult = multiplier(n);
        let base = lines(n);

        g.bench_function(BenchmarkId::new("per_line_complex", BATCH), |b| {
            let mut buf = base.clone();
            b.iter(|| {
                for line in buf.chunks_mut(n) {
                    let out = apply_spectral_multiplier(&plan, line, &mult);
                    line.copy_from_slice(&out);
                }
            })
        });

        g.bench_function(BenchmarkId::new("per_line_real", BATCH), |b| {
            let mut buf = base.clone();
            let mut ws = plan.workspace();
            b.iter(|| {
                for line in buf.chunks_mut(n) {
                    filter_line(&plan, line, &mult, &mut ws);
                }
            })
        });

        g.bench_function(BenchmarkId::new("scalar_pairs", BATCH), |b| {
            let mut buf = base.clone();
            let mut ws = plan.workspace();
            b.iter(|| {
                for pair in buf.chunks_exact_mut(2 * n) {
                    let (x, y) = pair.split_at_mut(n);
                    filter_pair(&plan, x, y, &mult, &mut ws);
                }
            })
        });

        g.bench_function(BenchmarkId::new("batched_real", BATCH), |b| {
            let mut buf = base.clone();
            let mut ws = plan.workspace();
            b.iter(|| filter_lines_flat(&plan, &mut buf, &mult, &mut ws))
        });

        g.bench_function(BenchmarkId::new("lane_batched", BATCH), |b| {
            let mut buf = base.clone();
            let mut ws = plan.workspace();
            b.iter(|| {
                let mut lanes = LaneBatch::new(&plan, &mut ws);
                for batch in buf.chunks_mut(LINES * n) {
                    let pairs = batch.len() / (2 * n);
                    lanes.begin(pairs);
                    for lane in 0..pairs {
                        lanes.set_multiplier(lane, &mult);
                    }
                    for (slot, line) in batch.chunks_exact(n).enumerate() {
                        lanes.load(slot, 0, line);
                    }
                    lanes.run();
                    for (slot, line) in batch.chunks_exact_mut(n).enumerate() {
                        lanes.store(slot, 0, line);
                    }
                }
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_filter_paths);
criterion_main!(benches);
