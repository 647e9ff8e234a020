//! State footprint fence: a paper-grid run on one rank holds one copy of
//! its state, not two.
//!
//! The sweeps advance the state in place, so the largest heap a 1×1
//! `run_model` of the paper's 144×90×9 grid ever has live is its
//! `ModelState` — six padded fields, 5.80 MB — plus everything that is
//! not field-sized: the filter's setup, plans and line buffers, the
//! physics block, the dynamics' metric tables and row buffers, the halo
//! strips. That rest measured 1.05 MB (peak 6.85 MB live); the fence
//! allows it 1.5 MB. A previous-state copy of the five swept fields, as
//! the out-of-place sweeps needed, adds 4.84 MB (peak 11.70 MB) and
//! fails it.
//!
//! The counter is process-wide because `run_model` may run ranks on
//! threads of its own, so this file holds exactly one test. Field storage
//! dropped by earlier code would sit in the process's recycle list and
//! count as live; nothing field-sized is allocated before the run.

use agcm_core::config::AgcmConfig;
use agcm_core::model::run_model;
use agcm_dynamics::state::GHOST_WIDTH;
use agcm_filtering::driver::FilterVariant;
use agcm_grid::arakawa::Variable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the larger size first: both may be live while it moves.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Live heap the run may hold beyond one `ModelState`.
const REST: usize = 1_500_000;

#[test]
fn paper_grid_run_holds_one_copy_of_its_state() {
    let cfg = AgcmConfig::paper(1, 1, FilterVariant::LbFft).with_steps(3);
    let grid = cfg.grid;
    let padded = |n: usize| n + 2 * GHOST_WIDTH;
    let field = padded(grid.n_lon) * padded(grid.n_lat) * grid.n_lev * size_of::<f64>();
    let state = Variable::ALL.len() * field;

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let run = run_model(cfg);
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert!(run.stable());

    let mb = |b: usize| b as f64 / 1e6;
    println!(
        "1x1 paper grid, 3 steps: peak live heap {:.3} MB = state {:.3} MB + {:.3} MB (fence: state + {:.3} MB)",
        mb(peak),
        mb(state),
        mb(peak.saturating_sub(state)),
        mb(REST)
    );
    assert!(
        peak <= state + REST,
        "peak live heap {peak} B exceeds one state ({state} B) plus {REST} B: \
         a field-sized buffer beside the state?"
    );
}
