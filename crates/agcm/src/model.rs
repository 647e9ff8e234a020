//! The model driver: main body = Dynamics then Physics, per step.
//!
//! Matches the paper's Figure 1 structure. Phases recorded in the trace:
//! `"dynamics"` (containing `"filter"`, `"halo"`, `"fd"`) and `"physics"`
//! (containing `"balance"` when scheme 3 is active) — the cost model
//! replays these into the component breakdowns of Figure 1 and the
//! execution times of Tables 4–7.

use crate::config::{AgcmConfig, ConfigError};
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::ModelState;
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::{Decomp, Subdomain};
use agcm_mps::fault::FaultPlan;
use agcm_mps::runtime::{run_traced, run_world, WorldOptions};
use agcm_mps::span::SpanObserver;
use agcm_mps::topology::CartComm;
use agcm_mps::trace::WorldTrace;
use agcm_mps::{CancelToken, Comm};
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::load::LoadTracker;
use agcm_physics::step::PhysicsStep;
use agcm_resilience::checkpoint::ModelCheckpoint;
use agcm_resilience::coordinator::{write_coordinated, CheckpointStore};
use agcm_resilience::metrics::ResilienceMetrics;
use agcm_resilience::recovery::{
    run_recovered, AttemptFailure, RecoveryError, RecoveryOptions, RunProgress,
};
use std::sync::Arc;

/// Per-rank results of a model run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutcome {
    /// Measured physics load (flops) per step.
    pub physics_loads: Vec<f64>,
    /// Whether the state stayed finite.
    pub stable: bool,
    /// Final local maximum wind speed.
    pub max_wind: f64,
}

/// A completed run: per-rank outcomes plus the full execution trace.
#[derive(Debug)]
pub struct ModelRun {
    /// Outcomes in rank order.
    pub ranks: Vec<RankOutcome>,
    /// The execution trace (for cost-model replay).
    pub trace: WorldTrace,
    /// The configuration that produced this run.
    pub config: AgcmConfig,
}

impl ModelRun {
    /// Physics load imbalance at a given step, paper metric.
    pub fn physics_imbalance(&self, step: usize) -> f64 {
        let loads: Vec<f64> = self.ranks.iter().map(|r| r.physics_loads[step]).collect();
        agcm_physics::load::imbalance(&loads)
    }

    /// True if every rank stayed finite.
    pub fn stable(&self) -> bool {
        self.ranks.iter().all(|r| r.stable)
    }
}

/// One rank's per-step machinery, shared by the plain and resilient
/// drivers so the two cannot drift apart.
struct StepContext<'a> {
    cfg: &'a AgcmConfig,
    cart: CartComm,
    sub: Subdomain,
    dynamics: Dynamics,
    physics: PhysicsStep,
    scheme: PairwiseExchange,
}

impl<'a> StepContext<'a> {
    fn new(cfg: &'a AgcmConfig, decomp: Decomp, comm: &Comm) -> StepContext<'a> {
        let sub = decomp.subdomain_of_rank(comm.rank());
        StepContext {
            cfg,
            cart: CartComm::new(comm, cfg.mesh_lat, cfg.mesh_lon, (false, true)),
            sub,
            dynamics: Dynamics::new(
                cfg.grid,
                decomp,
                DynamicsConfig::new(cfg.dt, Some(cfg.filter))
                    .with_filter_organization(cfg.filter_organization),
            ),
            physics: PhysicsStep::new(cfg.grid, sub),
            scheme: PairwiseExchange::default(),
        }
    }

    /// Advance one step: Dynamics then Physics (Figure 1). Returns the
    /// (performed, owned) physics loads. The whole step is wrapped in a
    /// `"step"` phase so telemetry can slice the trace per timestep.
    fn step(
        &self,
        comm: &Comm,
        state: &mut ModelState,
        tracker: &LoadTracker,
        step: u64,
    ) -> (f64, f64) {
        comm.phase("step", || self.step_body(comm, state, tracker, step))
    }

    fn step_body(
        &self,
        comm: &Comm,
        state: &mut ModelState,
        tracker: &LoadTracker,
        step: u64,
    ) -> (f64, f64) {
        let cfg = self.cfg;
        let t = step as f64 * cfg.dt;
        comm.phase("dynamics", || self.dynamics.step(&self.cart, state));

        comm.phase("physics", || {
            // Scheme 3 needs a load estimate before it "can proceed":
            // use the previous pass's *owned-column* load once
            // available (the executed load is balanced by design and
            // would mask the underlying imbalance).
            let estimates = if cfg.balance_physics {
                comm.phase("balance", || tracker.gather_estimates(comm))
            } else {
                None
            };
            let theta = &mut state.fields[Variable::Theta.index()];
            match estimates {
                Some(loads) => {
                    let rounds =
                        self.scheme
                            .plan_rounds(&loads, cfg.balance_target, cfg.balance_rounds);
                    let plan: Vec<_> = rounds.into_iter().flatten().collect();
                    let br = run_balanced(comm, &cfg.grid, &self.sub, theta, t, &plan);
                    (br.performed, br.owned)
                }
                None => {
                    let l = self.physics.run_local(comm, theta, t);
                    (l, l)
                }
            }
        })
    }
}

/// Run the model per `cfg`, spawning one thread per mesh node. Panics on
/// a degenerate configuration; use [`try_run_model`] for a typed error.
pub fn run_model(cfg: AgcmConfig) -> ModelRun {
    try_run_model(cfg).unwrap_or_else(|e| panic!("invalid AGCM config: {e}"))
}

/// Run the model per `cfg`, rejecting degenerate configurations (zero
/// ranks, zero steps, mesh larger than the grid) as a typed
/// [`ConfigError`] before any thread is spawned.
pub fn try_run_model(cfg: AgcmConfig) -> Result<ModelRun, ConfigError> {
    cfg.validate()?;
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    let (ranks, trace) = run_traced(cfg.size(), |comm| model_body(&cfg, decomp, comm));
    // With no sink installed this is a single atomic load.
    agcm_telemetry::telemetry().observe_trace(&trace, None);
    Ok(ModelRun {
        ranks,
        trace,
        config: cfg,
    })
}

/// Like [`try_run_model`], but with a live [`SpanObserver`] attached, so
/// a sampling profiler (or any other live listener) sees every phase
/// boundary while the world runs. The trace and outcomes are identical
/// to a plain run; only the observation channel differs.
pub fn try_run_model_observed(
    cfg: AgcmConfig,
    spans: Arc<dyn SpanObserver>,
) -> Result<ModelRun, ConfigError> {
    cfg.validate()?;
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    let out = run_world(
        cfg.size(),
        WorldOptions {
            spans: Some(spans),
            ..WorldOptions::default()
        },
        |comm| model_body(&cfg, decomp, comm),
    );
    let trace = out.trace;
    // No fault plan and no cancel token: typed failures are impossible,
    // so unwrapping per-rank results mirrors the plain path.
    let ranks = out
        .results
        .into_iter()
        .map(|r| r.expect("observed run has no fault plan"))
        .collect();
    agcm_telemetry::telemetry().observe_trace(&trace, None);
    Ok(ModelRun {
        ranks,
        trace,
        config: cfg,
    })
}

/// The per-rank body shared by every plain-run entry point.
fn model_body(cfg: &AgcmConfig, decomp: Decomp, comm: &Comm) -> RankOutcome {
    let ctx = StepContext::new(cfg, decomp, comm);
    let mut state = ModelState::initial(cfg.grid, ctx.sub);
    let mut tracker = LoadTracker::new();
    let mut physics_loads = Vec::with_capacity(cfg.steps);

    for step in 0..cfg.steps {
        let (performed, owned) = ctx.step(comm, &mut state, &tracker, step as u64);
        tracker.record(owned);
        physics_loads.push(performed);
    }

    RankOutcome {
        physics_loads,
        stable: !state.has_blown_up(),
        max_wind: state.max_wind(),
    }
}

/// Knobs for a resilient model run.
#[derive(Clone)]
pub struct ResilienceOpts {
    /// Where checkpoints live.
    pub store: CheckpointStore,
    /// Restarts allowed after the first attempt.
    pub max_restarts: usize,
    /// Fault plan for the *first* attempt (a restart models the failed
    /// node being replaced, so later attempts run fault-free).
    pub plan: Option<FaultPlan>,
    /// Cooperative cancellation token (deadline expiry, explicit
    /// cancellation); a cancelled run is never retried.
    pub cancel: Option<CancelToken>,
    /// Live progress observer: attempt starts from the recovery loop,
    /// checkpoint commits from rank 0.
    pub progress: Option<std::sync::Arc<dyn RunProgress>>,
    /// Live span observer, notified at every phase boundary on every
    /// rank while the model runs.
    pub spans: Option<std::sync::Arc<dyn agcm_mps::span::SpanObserver>>,
}

impl std::fmt::Debug for ResilienceOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceOpts")
            .field("store", &self.store)
            .field("max_restarts", &self.max_restarts)
            .field("plan", &self.plan)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "RunProgress"))
            .field("spans", &self.spans.as_ref().map(|_| "SpanObserver"))
            .finish()
    }
}

impl ResilienceOpts {
    /// Checkpoints under `dir`, three restarts, no injected faults.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> ResilienceOpts {
        ResilienceOpts::from_store(CheckpointStore::new(dir))
    }

    /// Checkpoints in an explicit store — e.g. one wired to a shared
    /// `ShardBackend` so the run resumes from (and contributes to) the
    /// fleet-wide content-addressed store instead of a private
    /// directory.
    pub fn from_store(store: CheckpointStore) -> ResilienceOpts {
        ResilienceOpts {
            store,
            max_restarts: 3,
            plan: None,
            cancel: None,
            progress: None,
            spans: None,
        }
    }

    /// Builder-style: inject this fault plan on the first attempt.
    pub fn with_plan(mut self, plan: FaultPlan) -> ResilienceOpts {
        self.plan = Some(plan);
        self
    }

    /// Builder-style: thread this cancellation token through the run.
    pub fn with_cancel(mut self, token: CancelToken) -> ResilienceOpts {
        self.cancel = Some(token);
        self
    }

    /// Builder-style: observe attempts and checkpoint commits live.
    pub fn with_progress(mut self, progress: std::sync::Arc<dyn RunProgress>) -> ResilienceOpts {
        self.progress = Some(progress);
        self
    }

    /// Builder-style: observe phase boundaries live.
    pub fn with_spans(
        mut self,
        spans: std::sync::Arc<dyn agcm_mps::span::SpanObserver>,
    ) -> ResilienceOpts {
        self.spans = Some(spans);
        self
    }
}

/// A completed resilient run.
#[derive(Debug)]
pub struct ResilientRun {
    /// Outcomes in rank order (from the successful attempt).
    pub ranks: Vec<RankOutcome>,
    /// Attempts made (1 = no failure).
    pub attempts: usize,
    /// Failed attempts, in order.
    pub failures: Vec<AttemptFailure>,
    /// Injected-fault log per rank, merged across attempts (the run's
    /// deterministic fault trace).
    pub fault_events: Vec<Vec<agcm_mps::fault::FaultEvent>>,
    /// Aggregated fault/recovery counters.
    pub metrics: ResilienceMetrics,
    /// Execution trace of the successful attempt.
    pub trace: WorldTrace,
    /// The configuration that produced this run.
    pub config: AgcmConfig,
}

/// Run the model with checkpoint/restart recovery.
///
/// Every `cfg.checkpoint_every` steps each rank writes its full model
/// state — prognostic fields, physics-balancer memory, load series, step
/// counter — as a shard, committed atomically by rank 0 (see
/// `agcm_resilience::coordinator`). If a rank dies (e.g. killed by
/// `opts.plan`), surviving ranks observe typed disconnects instead of
/// panics, the attempt is abandoned, and the run restarts from the last
/// committed checkpoint. The model is a deterministic function of
/// (state, step), so a recovered run continues bit-identically with an
/// uninterrupted one.
pub fn run_model_resilient(
    cfg: AgcmConfig,
    opts: ResilienceOpts,
) -> Result<ResilientRun, RecoveryError> {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid AGCM config: {e}"));
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    let store = &opts.store;
    let report = run_recovered(
        cfg.size(),
        RecoveryOptions {
            max_restarts: opts.max_restarts,
            cancel: opts.cancel.clone(),
            progress: opts.progress.clone(),
            spans: opts.spans.clone(),
        },
        store,
        |attempt| {
            if attempt == 0 {
                opts.plan.clone()
            } else {
                None
            }
        },
        |comm, resume| {
            let rank = comm.rank() as u32;
            let sub = decomp.subdomain_of_rank(comm.rank());
            let (start, mut state, mut tracker, mut physics_loads) = match resume {
                Some(step) => {
                    let ckpt = store
                        .load_shard(step, rank)
                        .expect("restart requires a loadable committed shard");
                    let state = ModelState {
                        fields: ckpt.fields,
                        sub,
                        grid: cfg.grid,
                    };
                    let mut tracker = LoadTracker::new();
                    if ckpt.scalars[0] != 0.0 {
                        tracker.record(ckpt.scalars[1]);
                    }
                    (step, state, tracker, ckpt.series)
                }
                None => (
                    0,
                    ModelState::initial(cfg.grid, sub),
                    LoadTracker::new(),
                    Vec::with_capacity(cfg.steps),
                ),
            };

            // A run that resumes at its own horizon computes nothing, so
            // it builds no step machinery either (filter plans, physics
            // tables, the mesh communicator). Every rank resumes at the
            // same step, so the choice is collective.
            let steps = start..cfg.steps as u64;
            let ctx = (!steps.is_empty()).then(|| StepContext::new(&cfg, decomp, comm));
            for step in steps {
                let ctx = ctx.as_ref().expect("built whenever a step remains");
                comm.begin_step(step);
                let (performed, owned) = ctx.step(comm, &mut state, &tracker, step);
                tracker.record(owned);
                physics_loads.push(performed);

                if cfg.checkpoint_every > 0 && (step + 1) % cfg.checkpoint_every as u64 == 0 {
                    // The record borrows the state for the write: it is
                    // encoded as the store consumes it, never copied.
                    let ckpt = ModelCheckpoint {
                        rank,
                        world: comm.size() as u32,
                        step: step + 1,
                        seeds: Vec::new(),
                        scalars: match tracker.estimate() {
                            Some(v) => vec![1.0, v],
                            None => vec![0.0, 0.0],
                        },
                        series: std::mem::take(&mut physics_loads),
                        fields: std::mem::take(&mut state.fields),
                    };
                    write_coordinated(comm, store, &ckpt).expect("checkpoint write must succeed");
                    physics_loads = ckpt.series;
                    state.fields = ckpt.fields;
                    // One notification per commit, not per shard.
                    if rank == 0 {
                        if let Some(progress) = &opts.progress {
                            progress.on_checkpoint(step + 1);
                        }
                    }
                }
            }

            RankOutcome {
                physics_loads,
                stable: !state.has_blown_up(),
                max_wind: state.max_wind(),
            }
        },
    )?;
    agcm_telemetry::telemetry().observe_trace(
        &report.trace,
        Some(agcm_telemetry::ResilienceCounters {
            attempts: report.attempts as u64,
            failures: report.failures.len() as u64,
            fault_events: report.fault_events.iter().map(|e| e.len() as u64).sum(),
        }),
    );
    Ok(ResilientRun {
        ranks: report.results,
        attempts: report.attempts,
        failures: report.failures,
        fault_events: report.fault_events,
        metrics: report.metrics,
        trace: report.trace,
        config: cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_filtering::driver::FilterVariant;
    use agcm_grid::latlon::GridSpec;

    fn small_cfg(filter: FilterVariant) -> AgcmConfig {
        AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 2, 2, filter).with_steps(3)
    }

    #[test]
    fn model_runs_stably_with_every_filter() {
        for filter in FilterVariant::ALL {
            let run = run_model(small_cfg(filter));
            assert!(run.stable(), "{filter:?} run must stay finite");
            assert_eq!(run.ranks.len(), 4);
            for r in &run.ranks {
                assert_eq!(r.physics_loads.len(), 3);
                assert!(r.max_wind < 300.0);
            }
        }
    }

    #[test]
    fn trace_contains_component_phases() {
        let run = run_model(small_cfg(FilterVariant::LbFft));
        use agcm_mps::trace::Event;
        for evs in &run.trace.ranks {
            let count = |name: &str| {
                evs.iter()
                    .filter(|e| matches!(e, Event::PhaseBegin(n) if *n == name))
                    .count()
            };
            assert_eq!(count("step"), 3);
            assert_eq!(count("dynamics"), 3);
            assert_eq!(count("physics"), 3);
            assert_eq!(count("filter"), 3);
        }
    }

    #[test]
    fn physics_balancing_reduces_step_imbalance() {
        let base = AgcmConfig::for_grid(GridSpec::new(72, 46, 9), 4, 4, FilterVariant::LbFft)
            .with_steps(3);
        let unbalanced = run_model(base);
        let balanced = run_model(base.with_physics_balancing());
        // Step 0 has no estimate yet; steps 1+ are balanced.
        let before = unbalanced.physics_imbalance(2);
        let after = balanced.physics_imbalance(2);
        assert!(before > 0.08, "unbalanced imbalance {before}");
        assert!(after < 0.6 * before, "balancing helps: {before} -> {after}");
        assert!(balanced.stable());
    }

    #[test]
    fn degenerate_configs_are_typed_errors_not_panics() {
        let base = small_cfg(FilterVariant::LbFft);

        let mut zero_ranks = base;
        zero_ranks.mesh_lat = 0;
        assert!(matches!(
            try_run_model(zero_ranks),
            Err(ConfigError::ZeroRanks { .. })
        ));

        assert!(matches!(
            try_run_model(base.with_steps(0)),
            Err(ConfigError::ZeroSteps)
        ));

        let mut too_wide = base;
        too_wide.mesh_lon = 49; // grid has 48 longitudes
        assert!(matches!(
            try_run_model(too_wide),
            Err(ConfigError::MeshExceedsGrid { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid AGCM config")]
    fn run_model_panics_with_typed_message_on_bad_config() {
        run_model(small_cfg(FilterVariant::LbFft).with_steps(0));
    }

    #[test]
    fn balanced_and_unbalanced_agree_physically() {
        // Load balancing must not change the answer: compare stability and
        // wind diagnostics across configurations.
        let base = small_cfg(FilterVariant::LbFft);
        let a = run_model(base);
        let b = run_model(base.with_physics_balancing());
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            assert!((ra.max_wind - rb.max_wind).abs() < 1e-9);
        }
    }
}
