//! Page-fault fences for the two ways a paper-grid job reads its shard.
//!
//! * A resume short of the horizon decodes the shard into six fields
//!   (≈ 5.8 MB with their ghost frames) with `CheckpointStore::load_shard`.
//!   Freed to malloc, those fields went back to the kernel and every
//!   decode faulted each of their pages again (≈ 1,384 minor faults).
//!   Their storage now comes from the field recycle list, so a warmed
//!   decode must take **fewer minor faults than a quarter of the state's
//!   pages**.
//! * A resume at the horizon (a resubmission) computes nothing and builds
//!   nothing: it folds its shard's rows into the outcome as they stream
//!   past. A warmed one must build **no field at all** (the recycle
//!   list's hits and misses do not move) and take **fewer minor faults
//!   than a sixteenth of the state's pages**.
//!
//! The counts are the process's (`/proc/self/stat` field 10, the recycle
//! list's counters), so the tests here run one at a time.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::sync::Mutex;

use ucla_agcm_repro::agcm::{run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::dynamics::ModelState;
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::halo::storage_stats;
use ucla_agcm_repro::grid::Decomp;
use ucla_agcm_repro::resilience::{CheckpointStore, ModelCheckpoint};

const HORIZON: usize = 20;
const PAGE: usize = 4096;

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The process's minor page faults so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').unwrap() + 1..];
    rest.split_whitespace()
        .nth(10 - 3)
        .unwrap()
        .parse()
        .unwrap()
}

/// A paper-grid 1×1 run with a store under a fresh directory holding its
/// committed step `HORIZON`, and the state's page count.
fn paper_store(tag: &str) -> (AgcmConfig, PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("agcm-fault-fence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = AgcmConfig::paper(1, 1, FilterVariant::LbFft)
        .with_steps(HORIZON)
        .with_checkpointing(HORIZON);
    let sub = Decomp::new(cfg.grid, 1, 1).subdomain_of_rank(0);
    let state = ModelState::initial(cfg.grid, sub);
    let state_pages: usize = state
        .fields
        .iter()
        .map(|f| f.padded().len() * 8)
        .sum::<usize>()
        / PAGE;

    let store = CheckpointStore::new(&dir);
    store
        .write_shard(&ModelCheckpoint {
            rank: 0,
            world: 1,
            step: HORIZON as u64,
            seeds: Vec::new(),
            scalars: vec![0.0, 0.0],
            series: vec![1.0; HORIZON],
            fields: state.fields,
        })
        .unwrap();
    store.commit(HORIZON as u64, 1).unwrap();
    (cfg, dir, state_pages as u64)
}

#[test]
fn a_warmed_resume_faults_fewer_than_a_quarter_of_its_state_pages() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (_, dir, state_pages) = paper_store("decode");
    let store = CheckpointStore::new(&dir);
    let decode = || {
        let before = minor_faults();
        let ckpt = store.load_shard(HORIZON as u64, 0).unwrap();
        let faults = minor_faults() - before;
        assert_eq!(ckpt.fields.len(), 6);
        faults
    };
    let cold = decode();
    let warm = decode();
    println!("load_shard at step {HORIZON}: {cold} minor faults cold, {warm} warmed; state {state_pages} pages");
    assert!(
        warm < state_pages / 4,
        "a warmed decode took {warm} minor faults (fence: a quarter of {state_pages} state pages)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warmed_horizon_resume_builds_no_field_and_faults_fewer_than_a_sixteenth_of_its_state_pages() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, dir, state_pages) = paper_store("horizon");
    let resume = || {
        let fields = storage_stats();
        let before = minor_faults();
        let run = run_model_resilient(cfg, ResilienceOpts::new(&dir)).unwrap();
        let faults = minor_faults() - before;
        let after = storage_stats();
        assert!(run.ranks[0].stable && run.ranks[0].physics_loads.len() == HORIZON);
        (
            faults,
            after.hits + after.misses - fields.hits - fields.misses,
        )
    };
    let (cold, _) = resume();
    let (warm, built) = resume();
    println!("horizon resume at step {HORIZON}: {cold} minor faults cold, {warm} warmed, {built} fields built; state {state_pages} pages");
    assert_eq!(built, 0, "a horizon resume built {built} fields");
    assert!(
        warm < state_pages / 16,
        "a warmed horizon resume took {warm} minor faults (fence: a sixteenth of {state_pages} state pages)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
