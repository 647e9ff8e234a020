//! Allocation fence for journal replay: a restart on a log of finished
//! jobs with none live makes **the same number of allocations however
//! many jobs the log holds, at most 32**, and each job still live adds a
//! bounded number: its `tenant`, `trace` and `spec`, and the copy of its
//! `submitted` line the journal keeps for compaction. Before replay
//! walked its lines without a tree, every line became a `Value` and
//! every `submitted` line's spec was cloned: tens of allocations per
//! finished job. Before compaction copied a live job's line, it rebuilt
//! the line from a `Value`: about 45 allocations per live job, against
//! 18.1–18.8 since.
//!
//! What a restart requests in bytes stays linear in the log: the text
//! read and an index sized by its line count. The fence bounds it at
//! twice the log's size.
//!
//! The counter is process-wide, so this file holds exactly one test.

use agcm_server::Journal;
use agcm_telemetry::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
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

/// Allocations without a job behind them.
const FENCE_FINISHED: u64 = 32;
/// Allocations each live job may add: the measured 18.8 (10 live jobs,
/// where the map's growth steps weigh most) plus about a quarter.
const FENCE_PER_LIVE: u64 = 24;

/// Write a log of `finished` submitted-then-terminal jobs followed by
/// `live` submitted ones, as a serving process would have left it.
fn write_log(dir: &Path, finished: u64, live: u64) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let spec = Value::parse(
        r#"{"name":"fence","grid":{"ni":24,"nj":12,"nk":2},"steps":4,"mesh":[1,1],"priority":"normal"}"#,
    )
    .unwrap();
    let trace = "00000000000000000000000000000abc-0000000000000123-0000000000000000";
    let (journal, _, _) = Journal::open(dir).unwrap();
    for id in 1..=finished + live {
        journal.submitted(id, Some("alice"), Some(trace), &spec);
        if id <= finished {
            journal.rejected(id, "fence");
        }
    }
    std::fs::metadata(journal.path()).unwrap().len()
}

/// (allocations, bytes requested) of one `Journal::open` on `dir`.
fn cost_of_open(dir: &Path, live: u64) -> (u64, u64) {
    COUNT.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let opened = Journal::open(dir);
    ENABLED.store(false, Ordering::SeqCst);
    let (_, jobs, stats) = opened.unwrap();
    assert_eq!((jobs.len() as u64, stats.corrupt), (live, 0));
    (COUNT.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

#[test]
fn replay_allocates_per_live_job_not_per_logged_job() {
    let dir = std::env::temp_dir().join(format!("agcm-replay-fence-{}", std::process::id()));
    let mut idle = Vec::new();
    for finished in [1_000, 4_000] {
        let log = write_log(&dir, finished, 0);
        let (count, bytes) = cost_of_open(&dir, 0);
        println!(
            "replay of {finished} finished jobs ({log} bytes), none live: \
             {count} allocations, {bytes} bytes"
        );
        assert!(
            count <= FENCE_FINISHED,
            "{count} allocations (fence {FENCE_FINISHED})"
        );
        assert!(bytes <= 2 * log, "{bytes} bytes for a {log}-byte log");
        idle.push(count);
    }
    assert_eq!(idle[0], idle[1], "allocations grew with the finished jobs");

    for live in [10, 100] {
        write_log(&dir, 4_000, live);
        let (count, bytes) = cost_of_open(&dir, live);
        let per_live = (count - idle[1]) as f64 / live as f64;
        println!(
            "replay of 4000 finished jobs and {live} live: {count} allocations \
             ({per_live:.1} per live job), {bytes} bytes"
        );
        assert!(
            count <= idle[1] + FENCE_PER_LIVE * live,
            "{count} allocations with {live} live jobs (fence {} + {FENCE_PER_LIVE} each)",
            idle[1]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
