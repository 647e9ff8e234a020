//! End-to-end fault-tolerance tests: kill a rank mid-run, recover from the
//! last committed checkpoint, and verify the continuation is bit-identical
//! to an uninterrupted run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ucla_agcm_repro::agcm::{run_model, run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::fault::FaultPlan;
use ucla_agcm_repro::mps::runtime::FailureKind;
use ucla_agcm_repro::resilience::{RecoveryError, RunProgress};

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "agcm-e2e-resilience-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2×2 mesh (4 ranks), 6 steps, checkpoint every 2 steps, physics
/// balancing on so the balancer's cross-step memory is exercised too.
fn test_cfg() -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 2, 2, FilterVariant::LbFft)
        .with_physics_balancing()
        .with_steps(6)
        .with_checkpointing(2)
}

#[test]
fn clean_resilient_run_matches_plain_run() {
    // With no faults, the resilient driver must produce exactly what the
    // plain driver produces — checkpointing must not perturb the model.
    let cfg = test_cfg();
    let plain = run_model(cfg);
    let dir = scratch("clean");
    let resilient = run_model_resilient(cfg, ResilienceOpts::new(&dir)).unwrap();
    assert_eq!(resilient.attempts, 1);
    assert!(resilient.failures.is_empty());
    assert_eq!(resilient.ranks, plain.ranks);
    // Checkpoints committed at steps 2, 4 and 6.
    assert_eq!(resilient.metrics.restarts, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_rank_recovers_bit_identically() {
    let cfg = test_cfg();
    // Baseline: uninterrupted.
    let baseline = run_model(cfg);

    // Kill world rank 2 as it begins step 4 — after the step-4 checkpoint
    // (written at the end of step 3) has committed, mid-way through the run.
    let dir = scratch("kill");
    let opts = ResilienceOpts::new(&dir).with_plan(FaultPlan::seeded(7).with_kill(2, 4));
    let run = run_model_resilient(cfg, opts).unwrap();

    assert_eq!(run.attempts, 2, "one failure, one successful restart");
    assert_eq!(run.failures.len(), 1);
    let failed = &run.failures[0];
    assert_eq!(failed.resumed_from, None, "first attempt was a cold start");
    assert!(
        failed
            .failed_ranks
            .iter()
            .any(|(r, k)| *r == 2 && *k == FailureKind::Killed { step: 4 }),
        "rank 2 must be recorded as killed: {:?}",
        failed.failed_ranks
    );
    // Survivors must have died of cascading disconnects, not panics.
    for (rank, kind) in &failed.failed_ranks {
        if *rank != 2 {
            assert!(
                matches!(kind, FailureKind::Disconnected { .. }),
                "rank {rank}: {kind:?}"
            );
        }
    }
    assert_eq!(run.metrics.ranks_killed, 1);
    assert_eq!(run.metrics.restarts, 1);

    // The acceptance bar: state after recovery is bit-identical to the
    // uninterrupted run at the same timestep. RankOutcome comparison is
    // exact f64 equality on every per-step load and the final wind field
    // maximum.
    assert_eq!(run.ranks, baseline.ranks);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_final_checkpoint_matches_unfaulted_runs_bytes() {
    // Stronger than outcome equality: the final committed checkpoint
    // shards — full prognostic state — must be byte-identical between a
    // faulted-and-recovered run and a clean run.
    let cfg = test_cfg();

    let clean_dir = scratch("bytes-clean");
    run_model_resilient(cfg, ResilienceOpts::new(&clean_dir)).unwrap();

    let faulted_dir = scratch("bytes-faulted");
    let opts = ResilienceOpts::new(&faulted_dir).with_plan(FaultPlan::seeded(3).with_kill(1, 3));
    let run = run_model_resilient(cfg, opts).unwrap();
    assert_eq!(run.attempts, 2);

    for rank in 0..4 {
        let shard = format!("step_00000006/rank_{rank:04}.agck");
        let clean = std::fs::read(clean_dir.join(&shard)).unwrap();
        let faulted = std::fs::read(faulted_dir.join(&shard)).unwrap();
        assert_eq!(clean, faulted, "shard {shard} differs");
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&faulted_dir);
}

#[test]
fn fault_trace_is_deterministic_across_runs() {
    // Same plan + same seed ⇒ the same fault trace, twice.
    let cfg = test_cfg();
    let plan = FaultPlan::seeded(42).with_kill(3, 5);

    let dir_a = scratch("det-a");
    let a = run_model_resilient(cfg, ResilienceOpts::new(&dir_a).with_plan(plan.clone())).unwrap();
    let dir_b = scratch("det-b");
    let b = run_model_resilient(cfg, ResilienceOpts::new(&dir_b).with_plan(plan)).unwrap();

    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(
        a.failures
            .iter()
            .map(|f| &f.failed_ranks)
            .collect::<Vec<_>>(),
        b.failures
            .iter()
            .map(|f| &f.failed_ranks)
            .collect::<Vec<_>>()
    );
    assert_eq!(a.ranks, b.ranks);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn repeated_kills_exhaust_restarts() {
    // If the "replacement node" dies too (plan re-applied every attempt is
    // not the model here, but max_restarts = 0 forbids any recovery), the
    // run must fail loudly rather than loop.
    let cfg = test_cfg();
    let dir = scratch("exhaust");
    let mut opts = ResilienceOpts::new(&dir).with_plan(FaultPlan::seeded(0).with_kill(0, 0));
    opts.max_restarts = 0;
    let err = run_model_resilient(cfg, opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("gave up"), "unexpected error: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts the attempts a run makes.
#[derive(Default)]
struct Attempts(AtomicU64);

impl RunProgress for Attempts {
    fn on_attempt(&self, _attempt: usize, _resumed_from: Option<u64>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_resume_from_a_foreign_checkpoint_is_a_typed_error() {
    // The run's directory already holds a committed step 2 written by
    // another grid on the same mesh (every shard loads, its fields have
    // another shape) or by the same grid on another mesh (the shards
    // name another world size).
    let cfg = test_cfg();
    let other_grid = AgcmConfig::for_grid(GridSpec::new(24, 12, 3), 2, 2, FilterVariant::LbFft);
    let other_mesh = AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 1, 2, FilterVariant::LbFft);
    for (writer, why) in [
        (
            other_grid,
            "a field of shape (12, 6, 3), the rank's subdomain is (24, 12, 3)",
        ),
        (other_mesh, "written by 2 ranks, resumed by 4"),
    ] {
        let dir = scratch("foreign");
        let writer = writer.with_steps(2).with_checkpointing(2);
        run_model_resilient(writer, ResilienceOpts::new(&dir)).unwrap();
        let attempts = Arc::new(Attempts::default());
        let opts = ResilienceOpts::new(&dir).with_progress(attempts.clone());
        let err = run_model_resilient(cfg, opts).unwrap_err();
        assert_eq!(
            err,
            RecoveryError::ForeignCheckpoint {
                step: 2,
                rank: 0,
                reason: why.to_string()
            }
        );
        assert_eq!(attempts.0.load(Ordering::SeqCst), 1, "never retried");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
