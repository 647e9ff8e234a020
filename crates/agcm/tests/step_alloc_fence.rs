//! Whole-step allocation fence: a warmed-up timestep of the paper's
//! 144×90×9 model on one rank stays under **200 heap allocations and
//! 0.5 MB requested**. Before the physics and the filter glue were made
//! allocation-free a step cost 28,548 allocations / 18.8 MB; with the
//! filter's grouping and owner tables moved into a cached pass plan it
//! costs about 14 / 0.1 MB (the halo's message buffers, which the
//! transport takes ownership of, and trace events). The fence leaves room
//! for a handful of buffers — it catches a per-line, per-latitude or
//! per-column allocation coming back.
//!
//! Measured as the benchmark's `agcm.allocs_per_step` is: a 2N-step run
//! minus an N-step run, divided by N, so set-up cancels. The counter is
//! process-wide because the rank runs on a thread `run_model` spawns;
//! this file therefore holds exactly one test.

use agcm_core::config::AgcmConfig;
use agcm_core::model::run_model;
use agcm_filtering::driver::FilterVariant;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
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

/// (allocations, bytes requested) of one `run_model` of `steps` steps.
fn cost_of(steps: usize) -> (u64, u64) {
    let cfg = AgcmConfig::paper(1, 1, FilterVariant::LbFft).with_steps(steps);
    let before = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ENABLED.store(true, Ordering::SeqCst);
    let run = run_model(cfg);
    ENABLED.store(false, Ordering::SeqCst);
    assert!(run.stable());
    (
        ALLOCS.load(Ordering::SeqCst) - before.0,
        BYTES.load(Ordering::SeqCst) - before.1,
    )
}

#[test]
fn warmed_up_paper_grid_step_stays_under_the_allocation_fence() {
    const N: usize = 4;
    let (a1, b1) = cost_of(N);
    let (a2, b2) = cost_of(2 * N);
    let allocs = a2.saturating_sub(a1) as f64 / N as f64;
    let bytes = b2.saturating_sub(b1) as f64 / N as f64;
    assert!(
        allocs <= 200.0,
        "a steady 1x1 paper-grid step performed {allocs} heap allocations (fence 200)"
    );
    assert!(
        bytes <= 0.5e6,
        "a steady 1x1 paper-grid step requested {bytes} bytes (fence 0.5 MB)"
    );
}
