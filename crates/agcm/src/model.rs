//! The model driver: main body = Dynamics then Physics, per step.
//!
//! Matches the paper's Figure 1 structure. Phases recorded in the trace:
//! `"dynamics"` (containing `"filter"`, `"halo"`, `"fd"`) and `"physics"`
//! (containing `"balance"` when scheme 3 is active) — the cost model
//! replays these into the component breakdowns of Figure 1 and the
//! execution times of Tables 4–7.

use crate::config::{AgcmConfig, ConfigError};
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::{ModelState, OutcomeFold};
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::{Decomp, Subdomain};
use agcm_grid::halo::HaloField;
use agcm_mps::topology::CartComm;
use agcm_mps::trace::WorldTrace;
use agcm_mps::Comm;
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::load::LoadTracker;
use agcm_physics::step::PhysicsStep;
use agcm_resilience::checkpoint::{ModelCheckpoint, RowSink};
use agcm_resilience::coordinator::{write_coordinated, StoreError};
pub use agcm_resilience::recovery::ResilienceOpts;
use agcm_resilience::recovery::{run_recovered, RecoveryError, RunReport};

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

/// One rank's per-step machinery.
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

/// Run the model per `cfg`, one rank per mesh node: rank 0 on the calling
/// thread, every other rank on a thread of its own. Panics on a degenerate
/// configuration; use [`try_run_model`] for a typed error.
pub fn run_model(cfg: AgcmConfig) -> ModelRun {
    try_run_model(cfg).unwrap_or_else(|e| panic!("invalid AGCM config: {e}"))
}

/// Run the model per `cfg`, rejecting degenerate configurations (zero
/// ranks, zero steps, mesh larger than the grid) as a typed
/// [`ConfigError`] before any thread is spawned. The run goes through the
/// same loop and per-rank body as [`run_model_resilient`], with no store,
/// no restarts and no fault plan.
pub fn try_run_model(cfg: AgcmConfig) -> Result<ModelRun, ConfigError> {
    cfg.validate()?;
    let report = run_model_resilient(cfg, ResilienceOpts::default())
        .expect("a run with no store, plan, token or restart has nothing to fail on");
    Ok(ModelRun {
        ranks: report.ranks,
        trace: report.trace,
        config: cfg,
    })
}

/// Run the model with checkpoint/restart recovery.
///
/// Every `cfg.checkpoint_every` steps each rank writes its full model
/// state — prognostic fields, physics-balancer memory, load series, step
/// counter — as a shard, committed atomically by rank 0 (see
/// `agcm_resilience::coordinator`). If a rank dies (e.g. killed by
/// `opts.plan`), surviving ranks observe typed disconnects instead of
/// panics, the attempt is abandoned, and the run restarts from the last
/// committed checkpoint at or below `cfg.steps`. The model is a
/// deterministic function of (state, step), so a recovered run continues
/// bit-identically with an uninterrupted one. A committed checkpoint that
/// does not fit the run (another world size, grid or field count) ends it
/// with [`RecoveryError::ForeignCheckpoint`] before any state is built
/// from it, and a shard the store cannot load or write with
/// [`RecoveryError::Store`]; neither is retried.
///
/// A run resumed at its own horizon (a resubmission) builds neither
/// state nor step machinery: `CheckpointStore::fold_shard` streams its
/// shard once, with every check a decode makes, into the `OutcomeFold`
/// that `ModelState::max_wind` and `has_blown_up` run, so its outcome is
/// a decoded state's to the bit.
pub fn run_model_resilient(
    cfg: AgcmConfig,
    opts: ResilienceOpts,
) -> Result<RunReport<RankOutcome>, RecoveryError> {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid AGCM config: {e}"));
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    run_recovered(cfg.size(), cfg.steps as u64, &opts, |comm, resume| {
        rank_body(&cfg, decomp, &opts, comm, resume)
    })
}

/// One rank of a run: start cold or from the shard of step `resume`, step
/// to the horizon, and checkpoint every `cfg.checkpoint_every` steps into
/// `opts.store`, if there is one.
fn rank_body(
    cfg: &AgcmConfig,
    decomp: Decomp,
    opts: &ResilienceOpts,
    comm: &Comm,
    resume: Option<u64>,
) -> Result<RankOutcome, RecoveryError> {
    let rank = comm.rank() as u32;
    let sub = decomp.subdomain_of_rank(comm.rank());
    let (start, mut state, mut tracker, mut physics_loads) = match (resume, &opts.store) {
        (Some(step), Some(store)) => {
            // The loop never resumes past the horizon.
            let horizon = step == cfg.steps as u64;
            let mut rows = OutcomeRows::default();
            let read = if horizon {
                store.fold_shard(step, rank, &mut rows)
            } else {
                store.load_shard(step, rank)
            };
            let foreign = |reason| RecoveryError::ForeignCheckpoint { step, rank, reason };
            let ckpt = match read {
                Err(StoreError::ShardMismatch { found, .. }) => {
                    let (step, rank) = found;
                    return Err(foreign(format!("it holds step {step} of rank {rank}")));
                }
                loaded => loaded.map_err(RecoveryError::Store)?,
            };
            // A fold saw the shapes go by; a decode has the fields.
            rows.shapes.extend(ckpt.fields.iter().map(HaloField::shape));
            let want = (sub.ni, sub.nj, cfg.grid.n_lev);
            let n_scalars = ckpt.scalars.len();
            if let Some(why) = misfit(ckpt.world, &rows.shapes, n_scalars, comm.size(), want) {
                return Err(foreign(why));
            }
            if horizon {
                return Ok(RankOutcome {
                    physics_loads: ckpt.series,
                    stable: rows.fold.stable(),
                    max_wind: rows.fold.max_wind(),
                });
            }
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
        _ => (
            0,
            ModelState::initial(cfg.grid, sub),
            LoadTracker::new(),
            Vec::with_capacity(cfg.steps),
        ),
    };

    let every = cfg.checkpoint_every as u64;
    let ctx = StepContext::new(cfg, decomp, comm);
    for step in start..cfg.steps as u64 {
        comm.begin_step(step);
        let (performed, owned) = ctx.step(comm, &mut state, &tracker, step);
        tracker.record(owned);
        physics_loads.push(performed);

        let Some(store) = opts
            .store
            .as_ref()
            .filter(|_| every > 0 && (step + 1) % every == 0)
        else {
            continue;
        };
        // The record borrows the state for the write: it is encoded as
        // the store consumes it, never copied.
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
        write_coordinated(comm, store, &ckpt).map_err(RecoveryError::Store)?;
        physics_loads = ckpt.series;
        state.fields = ckpt.fields;
        // One notification per commit, not per shard.
        if rank == 0 {
            if let Some(progress) = &opts.progress {
                progress.on_checkpoint(step + 1);
            }
        }
    }

    let outcome = state.outcome();
    Ok(RankOutcome {
        physics_loads,
        stable: outcome.stable(),
        max_wind: outcome.max_wind(),
    })
}

/// What keeps a shard of a `world`-rank run, with fields of `shapes` and
/// `scalars` scalars, from being the state of a rank of a `size`-rank
/// run whose fields are `want` = (ni, nj, levels), if anything: a shard
/// of another world size, field count or field shape, or without the
/// balancer's two scalars, was written by another run.
fn misfit(
    world: u32,
    shapes: &[(usize, usize, usize)],
    scalars: usize,
    size: usize,
    want: (usize, usize, usize),
) -> Option<String> {
    if world as usize != size {
        Some(format!("written by {world} ranks, resumed by {size}"))
    } else if shapes.len() != Variable::ALL.len() {
        Some(format!(
            "{} fields, the model has {}",
            shapes.len(),
            Variable::ALL.len()
        ))
    } else if let Some(shape) = shapes.iter().find(|&&s| s != want) {
        Some(format!(
            "a field of shape {shape:?}, the rank's subdomain is {want:?}"
        ))
    } else if scalars != 2 {
        Some(format!("{scalars} scalars, the model keeps 2"))
    } else {
        None
    }
}

/// A horizon resume's rows: one reusable row, folded into the outcome
/// while it is in cache, and the shape of each field.
#[derive(Default)]
struct OutcomeRows {
    row: Vec<f64>,
    shapes: Vec<(usize, usize, usize)>,
    fold: OutcomeFold,
}

impl RowSink for OutcomeRows {
    fn field(&mut self, ni: usize, nj: usize, nk: usize) {
        self.shapes.push((ni, nj, nk));
        self.row.resize(ni, 0.0);
    }
    fn row(&mut self, _j: usize, _k: usize) -> &mut [f64] {
        &mut self.row
    }
    fn filled(&mut self) {
        self.fold.row(self.shapes.len() - 1, &self.row);
    }
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
