//! Allocation contract: a warmed-up `PhysicsStep::run_local` pass performs
//! **zero heap allocations**. A counting global allocator gates the whole
//! binary, so this file holds exactly one test — parallel test threads
//! would otherwise pollute the counter.
//!
//! The forcing tables and the kernel's block scratch are built in
//! `PhysicsStep::new`; a pass only moves the tables to the new time and
//! streams the field through the scratch. The world is untraced (`run`),
//! so `record_flops` appends to no event log.

use agcm_grid::decomp::Decomp;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_physics::step::PhysicsStep;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

// Per-thread flag: the rank runs on its own thread and libtest's harness
// threads allocate concurrently, so a process-wide flag over-counts.
// Const-init Cell has no lazy allocation or destructor, so reading it
// inside `alloc` is safe.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warmed_up_physics_pass_allocates_nothing() {
    // Rows longer than one kernel block, so the block loop is covered too.
    let grid = GridSpec::new(400, 12, 9);
    let sub = Decomp::new(grid, 1, 1).subdomain_of_rank(0);
    let count = run(1, |c| {
        let step = PhysicsStep::new(grid, sub);
        let mut theta = HaloField::from_fn(sub.ni, sub.nj, grid.n_lev, 1, |i, j, k| {
            (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() - 0.05 * k as f64
        });
        step.run_local(c, &mut theta, 0.0);

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.with(|flag| flag.set(true));
        for pass in 1..=10 {
            step.run_local(c, &mut theta, pass as f64 * 450.0);
        }
        COUNTING.with(|flag| flag.set(false));
        ALLOCS.load(Ordering::SeqCst)
    })[0];
    assert_eq!(
        count, 0,
        "warmed-up physics pass performed {count} heap allocations"
    );
}
