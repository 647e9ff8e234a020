//! Acceptance-criterion test: with the default null sink, every
//! instrumented code path performs **zero heap allocations** — counter,
//! gauge and histogram updates, the enabled-gate, the end-of-run
//! `observe_trace` call, null-sink record delivery (including the live
//! tracing hooks: attempts, checkpoints, live and rank phases), and
//! trace-context derivation. A counting
//! global allocator gates the whole binary, so this file holds exactly
//! one test.

use agcm_telemetry::run::StepMetrics;
use agcm_telemetry::sink::{NullSink, TelemetrySink};
use agcm_telemetry::{registry, telemetry, TraceContext};
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
fn disabled_telemetry_allocates_nothing() {
    use agcm_mps::trace::{Event, WorldTrace};

    // Registration (allocating) happens once, before the counted region —
    // exactly how call sites are written.
    let counter = registry().counter("model.steps");
    let gauge = registry().gauge("model.imbalance");
    let histogram = registry().histogram("model.step_seconds");
    let trace = WorldTrace::from_ranks(vec![vec![
        Event::PhaseBegin("step"),
        Event::Flops(1.0e6),
        Event::PhaseEnd("step"),
    ]]);
    let prebuilt = StepMetrics {
        step: 0,
        virt_start: 0.0,
        virt_seconds: 1.0,
        phase_seconds: vec![("step", 1.0)],
        messages: vec![0],
        bytes: vec![0],
        flops: vec![1.0e6],
        flop_imbalance: 0.0,
        phase_flop_imbalance: vec![],
    };
    let null = NullSink;
    // Root minting allocates (RandomState); it happens once per request,
    // outside the hot loop — exactly how `submit` is written.
    let root = TraceContext::new_root();

    // Warm-up (also faults in the lazily-created global handle state).
    assert!(!telemetry().enabled());
    assert!(telemetry().observe_trace(&trace, None).is_none());

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for i in 0..1000 {
        counter.inc();
        gauge.set(i as f64 * 0.25);
        histogram.observe(i as f64 * 1e-3);
        // The gate every instrumented call site checks first:
        if telemetry().enabled() {
            unreachable!("null sink must report disabled");
        }
        // End-of-run hook with nothing installed: returns immediately.
        assert!(telemetry().observe_trace(&trace, None).is_none());
        // Direct null-sink delivery is also free, including the live
        // tracing hooks a disabled scheduler still invokes through the
        // trait's default no-op bodies.
        null.record_step(&prebuilt);
        null.record_attempt(i as u64, Some(i as u64));
        null.record_checkpoint(i as u64);
        null.record_live_phase(0, "fd", 1e-3);
        null.record_rank_phase(0, "fd", 1e-3, 1);
        // Span-context derivation on the disabled path: deterministic
        // child ids, no heap.
        let attempt_span = root.child(i as u64);
        assert_ne!(attempt_span.span_id, 0);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "disabled telemetry performed {count} heap allocations"
    );
}
