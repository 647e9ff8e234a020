//! Allocation fence for the checkpoint commit: a warmed
//! `CheckpointStore::write_shard` of the paper-grid checkpoint (6 fields
//! of 144×90×9, ≈ 5.6 MB) through a `JobStoreBackend` makes **no single
//! allocation above 128 KiB and requests under 512 KiB in total**, and
//! `load_shard` the same apart from the six fields it returns. Before
//! the data path became a stream a commit allocated the whole record
//! (and a copy of the state), and a load the record plus one `Vec` per
//! chunk; freeing blocks of that size is what pushed glibc's mmap
//! threshold up and left the serving process's memory to its arenas.
//! The fence catches a record-sized buffer coming back.
//!
//! The counter is process-wide, so this file holds exactly one test
//! (as `crates/agcm/tests/step_alloc_fence.rs` does).

use agcm_ckptstore::{JobStoreBackend, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::resilience::{CheckpointStore, ModelCheckpoint};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly this size are the returned fields: counted
/// apart, not against the fence.
static EXEMPT_SIZE: AtomicU64 = AtomicU64::new(0);
static EXEMPTED: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    if size as u64 == EXEMPT_SIZE.load(Ordering::Relaxed) {
        EXEMPTED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
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

/// (bytes requested, largest single request, exempted allocations) of `f`.
fn cost_of<T>(exempt_size: usize, f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    BYTES.store(0, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    EXEMPTED.store(0, Ordering::SeqCst);
    EXEMPT_SIZE.store(exempt_size as u64, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (
        out,
        BYTES.load(Ordering::SeqCst),
        LARGEST.load(Ordering::SeqCst),
        EXEMPTED.load(Ordering::SeqCst),
    )
}

/// A paper-grid shard whose values (and therefore chunks) depend on
/// `step`.
fn paper_checkpoint(step: u64) -> ModelCheckpoint {
    let mut x = step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let fields = (0..6)
        .map(|_| {
            HaloField::from_fn(144, 90, 9, 1, |_, _, _| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64
            })
        })
        .collect();
    ModelCheckpoint {
        rank: 0,
        world: 1,
        step,
        seeds: Vec::new(),
        scalars: vec![1.0, 0.5],
        series: (0..step).map(|s| s as f64).collect(),
        fields,
    }
}

#[test]
fn a_warmed_commit_and_load_never_hold_a_record() {
    const FENCE_TOTAL: u64 = 512 * 1024;
    const FENCE_SINGLE: u64 = 128 * 1024;
    let root = std::env::temp_dir().join(format!("agcm-commit-fence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(Store::open(&root).unwrap());
    let job = CheckpointStore::new(root.join("unused"))
        .with_backend(Arc::new(JobStoreBackend::new(store.clone(), 0xFE)));
    let warm_up = paper_checkpoint(10);
    job.write_shard(&warm_up).unwrap();
    job.commit(10, 1).unwrap();
    assert_eq!(job.load_shard(10, 0).unwrap(), warm_up);

    let ckpt = paper_checkpoint(20);
    let (written, bytes, largest, _) = cost_of(0, || job.write_shard(&ckpt));
    written.unwrap();
    job.commit(20, 1).unwrap();
    println!("write_shard: {bytes} bytes requested, largest {largest}");
    assert!(
        store.stats().bytes_written > 11_000_000,
        "both shards were new content: {:?}",
        store.stats()
    );
    assert!(
        largest <= FENCE_SINGLE,
        "write_shard made a single allocation of {largest} bytes (fence {FENCE_SINGLE})"
    );
    assert!(
        bytes < FENCE_TOTAL,
        "write_shard requested {bytes} bytes in total (fence {FENCE_TOTAL})"
    );

    // The state's fields carry a one-point ghost frame.
    let field_bytes = 146 * 92 * 9 * 8;
    let (loaded, bytes, largest, fields) = cost_of(field_bytes, || job.load_shard(20, 0));
    assert_eq!(loaded.unwrap(), ckpt);
    println!("load_shard: {bytes} bytes requested beside the fields, largest {largest}");
    assert_eq!(fields, 6, "the six fields are what a load may allocate");
    assert!(
        largest <= FENCE_SINGLE,
        "load_shard made a single allocation of {largest} bytes beside the fields \
         (fence {FENCE_SINGLE})"
    );
    assert!(
        bytes < FENCE_TOTAL,
        "load_shard requested {bytes} bytes beside the fields (fence {FENCE_TOTAL})"
    );
    let _ = std::fs::remove_dir_all(&root);
}
