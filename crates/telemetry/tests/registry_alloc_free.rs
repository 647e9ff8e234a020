//! Instrumented hot paths allocate nothing once registered: counter,
//! gauge and histogram updates through the global registry, and
//! trace-context child derivation. A counting global allocator gates the
//! whole binary, so this file holds exactly one test.

use agcm_telemetry::{registry, TraceContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
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
fn registry_updates_and_span_children_allocate_nothing() {
    // Registration (allocating) happens once, before the counted region —
    // exactly how call sites are written.
    let counter = registry().counter("model.steps");
    let gauge = registry().gauge("model.imbalance");
    let histogram = registry().histogram("model.step_seconds");
    // Root minting allocates (RandomState); it happens once per request,
    // outside the hot loop — exactly how `submit` is written.
    let root = TraceContext::new_root();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for i in 0..1000 {
        counter.inc();
        gauge.set(i as f64 * 0.25);
        histogram.observe(i as f64 * 1e-3);
        // Span-context derivation per attempt: deterministic child ids,
        // no heap.
        let attempt_span = root.child(i as u64);
        assert_ne!(attempt_span.span_id, 0);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "registry updates and span children performed {count} heap allocations"
    );
    assert_eq!(counter.get(), 1000);
}
