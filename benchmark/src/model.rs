//! The model workloads: `run_model` at the paper's 144×90×9 resolution,
//! untraced for the end-to-end numbers, and the same step loop driven by
//! hand — `PolarFilter::apply` → `Dynamics::step` (filter off) → physics —
//! with a span around every call for the per-layer numbers.

use crate::calib::{describe_speed, speed, Calibrator};
use crate::phases;
use crate::report::Outcome;
use crate::spans::{Recorder, Span, Trace, BENCH};
use crate::stats::{exact, median, percentile, quiet, typical, Better, Summary};
use crate::{peak_rss_mb, Budget};
use agcm_core::{run_model, AgcmConfig, ModelRun};
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::ModelState;
use agcm_filtering::driver::{FilterVariant, PolarFilter};
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::Decomp;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run_traced;
use agcm_mps::topology::CartComm;
use agcm_mps::trace::WorldTrace;
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::load::LoadTracker;
use agcm_physics::step::PhysicsStep;
use std::time::Instant;

/// Steps per repetition of a model workload (and per smoke repetition).
/// Repetitions are short so that the calibrations between them follow the
/// machine's speed: about 0.45 s each, forty of them in 20 s.
pub const STEPS: usize = 40;
pub const SMOKE_STEPS: usize = 20;

/// The paper configuration on a 1×`mesh_lon` mesh; more than one rank
/// balances physics (scheme 3), as the paper's production runs did.
pub fn paper_config(mesh_lon: usize, steps: usize) -> AgcmConfig {
    let cfg = AgcmConfig::paper(1, mesh_lon, FilterVariant::LbFft).with_steps(steps);
    if mesh_lon > 1 {
        cfg.with_physics_balancing()
    } else {
        cfg
    }
}

/// The model inside a `serve_small` job.
pub fn tiny_config() -> AgcmConfig {
    let g = crate::inputs::TINY_GRID;
    AgcmConfig::for_grid(
        GridSpec::new(g.lon, g.lat, g.lev),
        1,
        1,
        FilterVariant::LbFft,
    )
    .with_steps(crate::inputs::TINY_STEPS)
}

/// Golden results of the paper configuration after `steps` steps: the
/// global maximum wind and the sum of every rank's physics loads. The
/// model has no stochastic input, and 1×1, 1×2 (balanced or not) and 2×1
/// agree to the last bit, so one pair per step count serves every mesh.
fn golden(steps: usize) -> Option<(f64, f64)> {
    match steps {
        SMOKE_STEPS => Some((3.902925773077102e1, 3.344642e9)),
        STEPS => Some((3.297753158880941e1, 6.686312e9)),
        _ => None,
    }
}

/// What a finished run must have produced, whoever drove the loop.
pub struct Answer {
    pub stable: bool,
    pub max_wind: f64,
    pub load_sum: f64,
}

impl Answer {
    fn of(ranks: impl Iterator<Item = (bool, f64, f64)>) -> Answer {
        let mut a = Answer {
            stable: true,
            max_wind: 0.0,
            load_sum: 0.0,
        };
        for (stable, max_wind, loads) in ranks {
            a.stable &= stable;
            a.max_wind = a.max_wind.max(max_wind);
            a.load_sum += loads;
        }
        a
    }

    pub fn of_run(run: &ModelRun) -> Answer {
        Answer::of(
            run.ranks
                .iter()
                .map(|r| (r.stable, r.max_wind, r.physics_loads.iter().sum())),
        )
    }

    /// Check against the golden pair of the paper configuration.
    pub fn check(&self, out: &mut Outcome, who: &str, steps: usize) {
        out.check(self.stable, || format!("{who}: state blew up"));
        if let Some((wind, loads)) = golden(steps) {
            out.check(self.max_wind.to_bits() == wind.to_bits(), || {
                format!(
                    "{who}: max_wind {:e} is not the golden {wind:e}",
                    self.max_wind
                )
            });
            out.check(self.load_sum.to_bits() == loads.to_bits(), || {
                format!(
                    "{who}: physics load sum {:e} is not the golden {loads:e}",
                    self.load_sum
                )
            });
        }
    }
}

/// One timed `run_model` call.
struct Rep {
    wall: f64,
    /// Rank 0's `step` phase durations, as the returned trace stamps them.
    steps: Vec<f64>,
    /// Machine speed around the call (see `calib`); 1.0 where the call is
    /// only compared with its neighbour in time.
    speed: f64,
}

fn timed_run(cfg: AgcmConfig, out: &mut Outcome, who: &str) -> Rep {
    let started = Instant::now();
    let run = run_model(cfg);
    let wall = started.elapsed().as_secs_f64();
    out.operation(|out| Answer::of_run(&run).check(out, who, cfg.steps));
    Rep {
        wall,
        steps: phases::step_seconds(&run.trace, 0),
        speed: 1.0,
    }
}

fn steps_per_s(cfg: &AgcmConfig, reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .map(|r| cfg.steps as f64 / (r.wall * r.speed))
        .collect()
}

/// Repeat `run_model` until the budget is spent, with a calibration before
/// and after every call.
fn repeat(cfg: AgcmConfig, budget: &Budget, out: &mut Outcome, who: &str) -> Vec<Rep> {
    // Fill the FFT plan cache and fault the allocator's pages in: a user
    // who runs the model pays that once per process, not per run.
    run_model(cfg.with_steps(10));
    let mut calibrator = Calibrator::new(cfg.size());
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut before = calibrator.seconds();
    while budget.wants_more(reps.len(), started) {
        let mut rep = timed_run(cfg, out, who);
        let after = calibrator.seconds();
        rep.speed = speed(before, after);
        before = after;
        reps.push(rep);
    }
    reps
}

/// End-to-end metrics of a model workload.
pub fn end_to_end(mesh_lon: usize, budget: &Budget) -> Outcome {
    let cfg = paper_config(mesh_lon, budget.pick(STEPS, SMOKE_STEPS));
    let mut out = Outcome::default();
    let reps = repeat(cfg, budget, &mut out, "run_model");

    let rate = typical(&steps_per_s(&cfg, &reps));
    let raw: Vec<f64> = reps.iter().map(|r| cfg.steps as f64 / r.wall).collect();
    out.notes.push(format!(
        "{} steps x {} repetitions of {}x{}x{} on mesh 1x{mesh_lon}; {:.2} s per simulated day; unscaled {:.2} steps/s",
        cfg.steps,
        reps.len(),
        cfg.grid.n_lon,
        cfg.grid.n_lat,
        cfg.grid.n_lev,
        cfg.steps_per_day() / rate.value,
        median(&raw)
    ));
    let speeds: Vec<f64> = reps.iter().map(|r| r.speed).collect();
    out.notes.push(describe_speed(&speeds));
    out.extras.push(("unscaled.steps_per_s", median(&raw)));
    out.extras.push(("machine_speed", median(&speeds)));
    // Set-up is what `run_model` does outside its step loop: world spawn,
    // `Dynamics::new`, FFT plans, the initial state, the join.
    let setup: Vec<f64> = reps
        .iter()
        .map(|r| (r.wall - r.steps.iter().sum::<f64>()) * r.speed)
        .collect();
    let ms = |f: fn(&[f64]) -> f64| -> Vec<f64> {
        reps.iter().map(|r| f(&r.steps) * 1e3 * r.speed).collect()
    };
    out.put("setup_s", typical(&setup));
    out.put("steps_per_s", rate);
    out.put("result_ms_p50", typical(&ms(median)));
    out.put("result_ms_p95", typical(&ms(|s| percentile(s, 95.0))));
    out.put("peak_rss_mb", exact(peak_rss_mb()));
    out
}

/// One rank of the hand-driven loop.
struct HandRank {
    spans: Vec<Span>,
    stable: bool,
    max_wind: f64,
    load_sum: f64,
}

/// The step loop of `agcm::model`, driven from outside with a span around
/// every call into a layer. The phases are the model's own, so the
/// returned trace reads like `run_model`'s.
fn hand_driven(cfg: &AgcmConfig, epoch: Instant) -> (Vec<HandRank>, WorldTrace) {
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    run_traced(cfg.size(), |comm| {
        let mut rec = Recorder::new(epoch, comm.rank(), true);
        let cart = CartComm::new(comm, cfg.mesh_lat, cfg.mesh_lon, (false, true));
        let sub = decomp.subdomain_of_rank(comm.rank());
        let dynamics = Dynamics::new(
            cfg.grid,
            decomp,
            DynamicsConfig::new(cfg.dt, None).with_filter_organization(cfg.filter_organization),
        );
        let filter =
            PolarFilter::with_organization(dynamics.setup(), cfg.filter, cfg.filter_organization);
        let physics = PhysicsStep::new(cfg.grid, sub);
        let scheme = PairwiseExchange::default();
        let mut state = ModelState::initial(cfg.grid, sub);
        let mut tracker = LoadTracker::new();
        let mut load_sum = 0.0;

        rec.span(BENCH, "step loop", |rec| {
            for step in 0..cfg.steps {
                let t = step as f64 * cfg.dt;
                let (performed, owned) = comm.phase("step", || {
                    comm.phase("dynamics", || {
                        rec.span("filtering", "PolarFilter::apply", |_| {
                            comm.phase("filter", || {
                                filter.apply(dynamics.setup(), &cart, &mut state.fields)
                            })
                        });
                        rec.span("dynamics", "Dynamics::step", |_| {
                            dynamics.step(&cart, &mut state)
                        });
                    });
                    comm.phase("physics", || {
                        let estimates = if cfg.balance_physics {
                            rec.span("physics", "LoadTracker::gather_estimates", |_| {
                                comm.phase("balance", || tracker.gather_estimates(comm))
                            })
                        } else {
                            None
                        };
                        let theta = &mut state.fields[Variable::Theta.index()];
                        match estimates {
                            Some(loads) => {
                                let plan: Vec<_> = rec
                                    .span("physics", "PairwiseExchange::plan_rounds", |_| {
                                        scheme.plan_rounds(
                                            &loads,
                                            cfg.balance_target,
                                            cfg.balance_rounds,
                                        )
                                    })
                                    .into_iter()
                                    .flatten()
                                    .collect();
                                let run = rec.span("physics", "run_balanced", |_| {
                                    run_balanced(comm, &cfg.grid, &sub, theta, t, &plan)
                                });
                                (run.performed, run.owned)
                            }
                            None => {
                                let load = rec.span("physics", "PhysicsStep::run_local", |_| {
                                    physics.run_local(comm, theta, t)
                                });
                                (load, load)
                            }
                        }
                    })
                });
                tracker.record(owned);
                load_sum += performed;
            }
        });

        HandRank {
            spans: rec.into_spans(),
            stable: !state.has_blown_up(),
            max_wind: state.max_wind(),
            load_sum,
        }
    })
}

/// Per-layer metrics of the model configuration `cfg`, from `reps` pairs
/// of one untraced `run_model` and one hand-driven traced loop, taken in
/// turns so that drift hits both alike. Also returns the steps/s of the
/// two, untraced first.
pub fn traced(cfg: AgcmConfig, reps: usize, trace: &mut Trace) -> (Outcome, Summary, Summary) {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    run_model(cfg.with_steps(cfg.steps.min(10)));

    let (mut plain, mut driven, mut closure) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps_ms = Vec::new();
    let mut last = None;
    let mut layers = String::new();
    for _ in 0..reps {
        plain.push(timed_run(cfg, &mut out, "run_model"));

        let started = Instant::now();
        let (ranks, world) = hand_driven(&cfg, epoch);
        let wall = started.elapsed().as_secs_f64();
        let steps = phases::step_seconds(&world, 0);
        steps_ms.extend(steps.iter().map(|s| s * 1e3));
        driven.push(Rep {
            wall,
            steps,
            speed: 1.0,
        });
        let answer = Answer::of(ranks.iter().map(|r| (r.stable, r.max_wind, r.load_sum)));
        out.operation(|out| answer.check(out, "hand-driven loop", cfg.steps));
        let mut one = Trace::default();
        for rank in ranks {
            one.absorb(rank.spans);
        }
        closure.push(one.closure_err(0));
        layers = one.describe_layers(0);
        trace.absorb(one.spans);
        last = Some(world);
    }
    let world = last.expect("at least one repetition");

    let untraced = quiet(&steps_per_s(&cfg, &plain), Better::Higher);
    let hand = quiet(&steps_per_s(&cfg, &driven), Better::Higher);
    out.notes.push(format!(
        "traced: {} steps x {reps} repetitions of {}x{}x{} on mesh {}x{}; run_model {:.2} steps/s, hand-driven {:.2} steps/s",
        cfg.steps, cfg.grid.n_lon, cfg.grid.n_lat, cfg.grid.n_lev, cfg.mesh_lat, cfg.mesh_lon, untraced.value, hand.value
    ));
    out.notes
        .push(format!("rank 0 of the hand-driven loop, {layers}"));
    out.put("agcm.step_ms_p50", exact(median(&steps_ms)));
    out.put("agcm.step_ms_p95", exact(percentile(&steps_ms, 95.0)));
    let [filter, halo, fd, physics, balance] = phases::shares(&world);
    out.put("agcm.filter_share", exact(filter));
    out.put("agcm.halo_share", exact(halo));
    out.put("agcm.fd_share", exact(fd));
    out.put("agcm.physics_share", exact(physics));
    out.put("agcm.balance_share", exact(balance));
    out.put("agcm.closure_err", quiet(&closure, Better::Lower));
    out.put(
        "agcm.flops_per_step",
        exact(world.total_flops() / cfg.steps as f64),
    );

    // Allocations of the steady step: a 2N-step run minus an N-step run.
    let n = cfg.steps.min(10);
    let (_, a1, b1) = crate::alloc::count(|| run_model(cfg.with_steps(n)));
    let (_, a2, b2) = crate::alloc::count(|| run_model(cfg.with_steps(2 * n)));
    out.put(
        "agcm.allocs_per_step",
        exact((a2 as f64 - a1 as f64) / n as f64),
    );
    out.put(
        "agcm.alloc_bytes_per_step",
        exact((b2 as f64 - b1 as f64) / n as f64),
    );
    (out, untraced, hand)
}
