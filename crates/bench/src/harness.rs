//! Experiment runners: traced runs → simulated seconds per simulated day.
//!
//! One calibration anchor per machine (DESIGN.md): the flop rate is scaled
//! once so the 1×1 Dynamics entry matches the paper's Table 4/6 value;
//! every other number in every table is then a model *prediction* whose
//! agreement in shape (ratios, scaling, crossovers) is the reproduction
//! result.

use agcm_core::config::AgcmConfig;
use agcm_core::model::{run_model, ModelRun};
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{replay, ReplayResult};
use agcm_dynamics::state::ModelState;
use agcm_filtering::driver::{FilterOrganization, FilterVariant, PolarFilter};
use agcm_filtering::lines::FilterSetup;
use agcm_grid::decomp::Decomp;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run_traced;
use agcm_mps::topology::CartComm;
use agcm_mps::trace::WorldTrace;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::balance::{apply_plan, BalanceScheme};
use agcm_physics::step::PhysicsStep;

/// Component times per simulated day under a machine profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayTimes {
    /// Dynamics component (filter + halo + finite differences).
    pub dynamics: f64,
    /// Physics component.
    pub physics: f64,
    /// Spectral filtering alone (contained in dynamics).
    pub filter: f64,
    /// Main body total.
    pub total: f64,
}

/// Run the full model and keep its trace.
pub fn model_run(
    grid: GridSpec,
    mesh: (usize, usize),
    variant: FilterVariant,
    steps: usize,
) -> ModelRun {
    let cfg = AgcmConfig::for_grid(grid, mesh.0, mesh.1, variant).with_steps(steps);
    run_model(cfg)
}

/// Replay a model run against a machine and convert phase times to
/// seconds per simulated day.
pub fn day_times(run: &ModelRun, machine: &MachineProfile) -> DayTimes {
    let r = replay(&run.trace, machine);
    let per_day = run.config.steps_per_day() / run.config.steps as f64;
    let dynamics = r.phase_time("dynamics") * per_day;
    let physics = r.phase_time("physics") * per_day;
    let filter = r.phase_time("filter") * per_day;
    DayTimes {
        dynamics,
        physics,
        filter,
        total: dynamics + physics,
    }
}

/// Scale `machine`'s flop rate so that `anchor_run` (normally the 1×1
/// configuration) shows `target_dynamics` seconds of Dynamics per
/// simulated day.
pub fn calibrate(
    machine: &MachineProfile,
    anchor_run: &ModelRun,
    target_dynamics: f64,
) -> MachineProfile {
    assert!(target_dynamics > 0.0);
    // Even a 1×1 run has fixed communication costs (periodic wrap-around
    // messages to self), so scaling the flop rate once is not exact;
    // iterate to the fixed point (communication share is small, so this
    // converges geometrically).
    let mut m = *machine;
    for _ in 0..8 {
        let current = day_times(anchor_run, &m).dynamics;
        assert!(current > 0.0);
        m.flops_per_sec *= current / target_dynamics;
    }
    m
}

/// Run one standalone filter application on a freshly initialized model
/// state (the Tables 8–11 experiment) and return the trace plus the
/// timestep used for per-day conversion.
pub fn filter_trace(
    grid: GridSpec,
    mesh: (usize, usize),
    variant: FilterVariant,
) -> (WorldTrace, f64) {
    filter_trace_organized(grid, mesh, variant, FilterOrganization::default())
}

/// [`filter_trace`] with an explicit variable organization — aggregated
/// (production, and what Tables 8–11 run) or per-variable (the pre-§3.3
/// one-variable-at-a-time organization, kept for the message-count
/// comparison).
pub fn filter_trace_organized(
    grid: GridSpec,
    mesh: (usize, usize),
    variant: FilterVariant,
    organization: FilterOrganization,
) -> (WorldTrace, f64) {
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let dt = AgcmConfig::for_grid(grid, mesh.0, mesh.1, variant).dt;
    let (_, trace) = run_traced(decomp.size(), |comm| {
        let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
        let setup = FilterSetup::new(grid, decomp);
        let filter = PolarFilter::with_organization(&setup, variant, organization);
        let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(comm.rank()));
        comm.phase("filter", || filter.apply(&setup, &cart, &mut state.fields));
    });
    (trace, dt)
}

/// Filtering seconds per simulated day from a [`filter_trace`] run.
pub fn filter_seconds_per_day(trace: &WorldTrace, dt: f64, machine: &MachineProfile) -> f64 {
    let r: ReplayResult = replay(trace, machine);
    r.phase_time("filter") * (86_400.0 / dt)
}

/// One stage of the Tables 1–3 simulation: per-rank load extrema and the
/// paper's imbalance metric, in machine seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbStage {
    /// Max per-rank load (s).
    pub max: f64,
    /// Min per-rank load (s).
    pub min: f64,
    /// `(max − avg)/avg`, as a percentage.
    pub imbalance_pct: f64,
}

fn stage_of(loads: &[f64]) -> LbStage {
    let s = agcm_physics::load::summarize(loads);
    LbStage {
        max: s.max,
        min: s.min,
        imbalance_pct: 100.0 * s.imbalance,
    }
}

/// The Tables 1–3 experiment: predicted physics loads per rank on a mesh,
/// converted to seconds under `machine`, then two rounds of scheme-3
/// balancing — "without actually moving the data arrays around", exactly
/// as the paper evaluated it. Returns [before, after 1st, after 2nd].
pub fn physics_lb_simulation(
    grid: GridSpec,
    mesh: (usize, usize),
    t: f64,
    machine: &MachineProfile,
) -> [LbStage; 3] {
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let mut loads: Vec<f64> = (0..decomp.size())
        .map(|r| {
            let flops = PhysicsStep::new(grid, decomp.subdomain_of_rank(r)).predicted_load(t);
            machine.compute_time(flops)
        })
        .collect();
    let before = stage_of(&loads);
    let scheme = PairwiseExchange::default();
    let plan1 = scheme.plan(&loads);
    apply_plan(&mut loads, &plan1);
    let first = stage_of(&loads);
    let plan2 = scheme.plan(&loads);
    apply_plan(&mut loads, &plan2);
    let second = stage_of(&loads);
    [before, first, second]
}

/// Wall-clock timing helper: median-of-`reps` seconds for one call of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> GridSpec {
        GridSpec::new(48, 24, 3)
    }

    #[test]
    fn day_times_are_positive_and_nested() {
        let run = model_run(small_grid(), (2, 2), FilterVariant::LbFft, 2);
        let machine = MachineProfile::t3d();
        let times = day_times(&run, &machine);
        assert!(times.filter > 0.0);
        assert!(times.filter < times.dynamics, "filter is part of dynamics");
        assert!(times.physics > 0.0);
        assert!((times.total - times.dynamics - times.physics).abs() < 1e-9);
    }

    #[test]
    fn calibration_anchors_exactly() {
        let run = model_run(small_grid(), (1, 1), FilterVariant::ConvolutionRing, 1);
        let machine = calibrate(&MachineProfile::paragon(), &run, 8702.0);
        let times = day_times(&run, &machine);
        assert!(
            (times.dynamics - 8702.0).abs() < 1e-6 * 8702.0,
            "{}",
            times.dynamics
        );
    }

    #[test]
    fn convolution_filter_costs_more_than_lb_fft() {
        let machine = MachineProfile::paragon();
        let (conv_tr, dt) = filter_trace(small_grid(), (2, 2), FilterVariant::ConvolutionRing);
        let (lb_tr, dt2) = filter_trace(small_grid(), (2, 2), FilterVariant::LbFft);
        assert_eq!(dt, dt2);
        let conv = filter_seconds_per_day(&conv_tr, dt, &machine);
        let lb = filter_seconds_per_day(&lb_tr, dt, &machine);
        assert!(conv > lb, "convolution {conv} vs LB-FFT {lb}");
    }

    #[test]
    fn lb_simulation_improves_each_round() {
        let stages = physics_lb_simulation(small_grid(), (2, 2), 3600.0, &MachineProfile::t3d());
        assert!(stages[0].imbalance_pct > stages[1].imbalance_pct);
        assert!(stages[1].imbalance_pct >= stages[2].imbalance_pct);
        assert!(stages[0].max >= stages[0].min);
    }

    #[test]
    fn time_median_measures_something() {
        let t = time_median(3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(t >= 0.001);
    }
}
