//! Page-fault fence for a resubmission. A paper-grid job resumed from a
//! checkpoint that already covers its horizon computes nothing: it loads
//! its shard and builds its state from the six decoded fields (≈ 5.8 MB
//! with their ghost frames). Freed to malloc, those fields went back to
//! the kernel and every resume faulted each of their pages again
//! (≈ 1,384 minor faults). Their storage now comes from the field
//! recycle list, so a warmed resume must take **fewer minor faults than
//! a quarter of the state's pages**.
//!
//! The count is the process's (`/proc/self/stat` field 10), so this file
//! holds exactly one test.
#![cfg(target_os = "linux")]

use ucla_agcm_repro::agcm::{run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::dynamics::ModelState;
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::Decomp;
use ucla_agcm_repro::resilience::{CheckpointStore, ModelCheckpoint};

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

#[test]
fn a_warmed_resume_faults_fewer_than_a_quarter_of_its_state_pages() {
    const HORIZON: usize = 20;
    const PAGE: usize = 4096;
    let dir = std::env::temp_dir().join(format!("agcm-fault-fence-{}", std::process::id()));
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

    let resume = || {
        let before = minor_faults();
        let run = run_model_resilient(cfg, ResilienceOpts::new(&dir)).unwrap();
        let faults = minor_faults() - before;
        assert!(run.ranks[0].stable && run.ranks[0].physics_loads.len() == HORIZON);
        faults
    };
    let cold = resume();
    let warm = resume();
    println!("resume at step {HORIZON}: {cold} minor faults cold, {warm} warmed; state {state_pages} pages");
    assert!(
        warm < (state_pages / 4) as u64,
        "a warmed resume took {warm} minor faults (fence: a quarter of {state_pages} state pages)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
