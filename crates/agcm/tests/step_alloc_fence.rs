//! Whole-step allocation fence, on one rank and on several.
//!
//! * A warmed-up timestep of the paper's 144×90×9 model on **one rank**
//!   stays under 200 heap allocations and 0.5 MB requested. Before the
//!   physics and the filter glue were made allocation-free a step cost
//!   28,548 allocations / 18.8 MB; with the filter's grouping and owner
//!   tables in a cached pass plan, 14 / 0.1 MB — the halo's message
//!   buffers — and with those in circulation less than one allocation /
//!   6 KB (the trace's event vectors growing). The fence leaves room for
//!   a handful of buffers — it catches a per-line, per-latitude or
//!   per-column allocation coming back.
//! * A warmed-up step of the **1×2** world with balanced physics stays
//!   under 40 allocations and 128 KiB *for the whole world*, and the
//!   **2×3** world under the same *per rank*; no steady step makes a
//!   single allocation above 64 KiB. Every message byte used to be a fresh
//!   `Vec` freed by the other rank's thread: 71.4 allocations / 2.79 MB
//!   per 1×2 step. Message buffers now circulate — a received buffer is
//!   the next send buffer (filter transposes, halo strips, delegated
//!   physics columns) — and a step costs 15 / 19 KB on 1×2 and 20 / 20 KB
//!   per rank on 2×3. What is left is trace events, the balancer's plan
//!   and load vectors, and the one-way coordinate message of a delegated
//!   column block.
//!
//! Measured as the benchmark's `agcm.allocs_per_step` is: a 2N-step run
//! minus an N-step run, divided by N, so set-up cancels. The counter is
//! process-wide because the ranks run on threads `run_model` spawns; this
//! file therefore holds exactly one test.

use agcm_core::config::AgcmConfig;
use agcm_core::model::run_model;
use agcm_filtering::driver::FilterVariant;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations of more than [`LARGE`] bytes.
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

const LARGE: usize = 64 * 1024;

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if size > LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Counters of one `run_model` of `steps` steps on a `mesh` of the paper
/// grid (physics balanced on more than one rank, as the benchmark runs
/// it): `[allocations, bytes requested, allocations above LARGE]`.
fn cost_of(mesh: (usize, usize), steps: usize) -> [u64; 3] {
    let mut cfg = AgcmConfig::paper(mesh.0, mesh.1, FilterVariant::LbFft).with_steps(steps);
    if cfg.size() > 1 {
        cfg = cfg.with_physics_balancing();
    }
    let read = || [&ALLOCS, &BYTES, &LARGE_ALLOCS].map(|c| c.load(Ordering::SeqCst));
    let before = read();
    ENABLED.store(true, Ordering::SeqCst);
    let run = run_model(cfg);
    ENABLED.store(false, Ordering::SeqCst);
    assert!(run.stable());
    let after = read();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn warmed_up_paper_grid_step_stays_under_the_allocation_fence() {
    const N: usize = 4;
    // (mesh, allocations per step, bytes per step) — per world on 1×1 and
    // 1×2 (the benchmark's `agcm.allocs_per_step`), per rank on 2×3.
    for (mesh, per, max_allocs, max_bytes) in [
        ((1, 1), 1.0, 200.0, 0.5e6),
        ((1, 2), 1.0, 40.0, 131_072.0),
        ((2, 3), 6.0, 40.0, 131_072.0),
    ] {
        // A first run leaves its field storage in the recycle list, so
        // the two measured runs build their worlds alike and set-up
        // cancels.
        cost_of(mesh, N);
        let (short, long) = (cost_of(mesh, N), cost_of(mesh, 2 * N));
        let per_step = |i: usize| long[i].saturating_sub(short[i]) as f64 / N as f64 / per;
        let (allocs, bytes, large) = (per_step(0), per_step(1), per_step(2));
        println!(
            "{}x{}: {allocs:.1} allocations, {bytes:.0} bytes per steady step{}",
            mesh.0,
            mesh.1,
            if per > 1.0 { " and rank" } else { "" }
        );
        assert!(
            allocs <= max_allocs,
            "a steady {mesh:?} paper-grid step performed {allocs} heap allocations (fence {max_allocs})"
        );
        assert!(
            bytes <= max_bytes,
            "a steady {mesh:?} paper-grid step requested {bytes} bytes (fence {max_bytes})"
        );
        assert!(
            large == 0.0,
            "steady {mesh:?} steps made allocations above {LARGE} bytes ({large} per step)"
        );
    }
}
