//! Acceptance-criterion test: `forward_into`/`inverse_into` (and the
//! batched filter paths built on them) perform **zero heap allocations**
//! after warm-up. A counting global allocator gates the whole binary, so
//! this file holds exactly one test — parallel test threads would
//! otherwise pollute the counter.

use agcm_fft::batch::{filter_line, filter_lines_flat, filter_pair};
use agcm_fft::{Complex64, FftPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

// Per-thread flag: libtest's harness threads allocate concurrently with
// the test body, so a process-wide flag over-counts. Const-init Cell has
// no lazy allocation or destructor, so reading it inside `alloc` is safe.
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

fn signal(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|j| ((j + seed) as f64 * 0.61).sin()).collect()
}

#[test]
fn hot_paths_allocate_nothing_after_warmup() {
    // Cover the mixed-radix (144), Bluestein (97) and odd-smooth (45)
    // strategies, complex and real entry points.
    for n in [144usize, 97, 45] {
        let plan = FftPlan::new(n);
        let mut ws = plan.workspace();
        let s: Vec<f64> = (0..n).map(|k| 1.0 / (1.0 + k.min(n - k) as f64)).collect();
        let mut cbuf: Vec<Complex64> = signal(n, 0)
            .iter()
            .map(|&v| Complex64::from_re(v))
            .collect();
        let mut flat: Vec<f64> = (0..5).flat_map(|l| signal(n, l)).collect();
        // One strongly-filtered latitude of the paper grid (36 lines: two
        // full lane batches and a ragged one) and a 37-line batch (the
        // same plus the scalar odd tail).
        let mut group: Vec<f64> = (0..36).flat_map(|l| signal(n, l)).collect();
        let mut ragged: Vec<f64> = (0..37).flat_map(|l| signal(n, l)).collect();
        let (mut a, mut b) = (signal(n, 7), signal(n, 8));
        let mut single = signal(n, 9);

        let mut hot = |ws: &mut agcm_fft::FftWorkspace| {
            plan.forward_into(&mut cbuf, ws);
            plan.inverse_into(&mut cbuf, ws);
            filter_pair(&plan, &mut a, &mut b, &s, ws);
            filter_line(&plan, &mut single, &s, ws);
            filter_lines_flat(&plan, &mut flat, &s, ws);
            filter_lines_flat(&plan, &mut group, &s, ws);
            filter_lines_flat(&plan, &mut ragged, &s, ws);
        };

        // Warm-up: any lazily grown buffer grows here.
        hot(&mut ws);

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.with(|c| c.set(true));
        for _ in 0..10 {
            hot(&mut ws);
        }
        COUNTING.with(|c| c.set(false));
        let count = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            count, 0,
            "n={n}: hot filter paths performed {count} heap allocations"
        );
    }
}
