//! The `reproduce profile` report: sample a real instrumented run with
//! the in-process wall-clock profiler, render the folded stacks and
//! flamegraph, and join the measured wall fractions against the cost
//! model's virtual fractions per phase (the *skew report*).
//!
//! The paper's per-phase breakdown tables are *modeled* on the virtual
//! clock; the profiler measures where this host actually spends wall
//! time. The skew report puts both on the same axis — self-time fraction
//! per phase — so a phase whose simulated share diverges from its
//! measured share is visible at a glance. Four machine-checked
//! invariants gate the run (CI greps their `name:ok` lines):
//!
//! - `sample_conservation` — folded stacks sum exactly to the sampler's
//!   total; no sample is double-counted or lost in the fold;
//! - `phase_in_trace` — every sampled phase name also appears in the
//!   execution trace (the profiler cannot invent phases);
//! - `skew_report` — the measured/modeled join covers every traced
//!   phase and both fraction columns sum to ~1 (idle row included);
//! - `alloc_free_disabled` — the publication path a rank thread runs at
//!   every `PhaseBegin`/`PhaseEnd` performs zero heap allocations once
//!   names are interned, measured by the binary's counting allocator.

use crate::alloccount;
use crate::analyze::{analysis_grid, Check, Checks};
use agcm_core::{try_run_model_observed, AgcmConfig, ModelRun};
use agcm_costmodel::machine::MachineProfile;
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_telemetry::json::Value;
use agcm_telemetry::{skew_report, ProfileConfig, ProfileReport, Profiler, SkewReport};

/// The full profiling report plus its machine checks.
pub struct ProfileBenchReport {
    /// The sampled profile (folded stacks, phase table).
    pub report: ProfileReport,
    /// The measured-vs-modeled join.
    pub skew: SkewReport,
    /// Machine-checkable invariants.
    pub checks: Checks,
    /// The `profile.json` document.
    pub doc: Value,
}

/// Run one profiled model. Retries with more steps if the run finished
/// before the sampler caught enough ticks (possible under heavy CI
/// contention), so the report is never judged on a handful of samples.
fn profiled_run(smoke: bool) -> (ProfileReport, ModelRun) {
    let (grid, mesh, hz) = if smoke {
        (analysis_grid(), (2usize, 2usize), 10_000.0)
    } else {
        (GridSpec::paper_9_layer(), (2usize, 2usize), 4_000.0)
    };
    let mut steps = if smoke { 6 } else { 4 };
    loop {
        let cfg = AgcmConfig::for_grid(grid, mesh.0, mesh.1, FilterVariant::LbFft)
            .with_steps(steps)
            .with_physics_balancing();
        let profiler = Profiler::start(ProfileConfig::at_hz(hz));
        let run =
            try_run_model_observed(cfg, profiler.observer()).expect("profile config must validate");
        let report = profiler.stop();
        if report.total_samples >= 50 || steps >= 96 {
            return (report, run);
        }
        steps *= 2;
    }
}

/// The allocation-freedom harness: warm a fresh observer's interner,
/// then count this thread's heap allocations across 40k publication
/// events. Requires the binary's [`alloccount::CountingAlloc`]; when it
/// is not installed the check fails as "not run" rather than passing
/// vacuously.
fn alloc_free_check() -> Check {
    let profiler = Profiler::start(ProfileConfig::at_hz(2_000.0));
    let obs = profiler.observer();
    for rank in 0..4 {
        obs.rank_started(rank);
        obs.phase_begin(rank, "step");
        obs.phase_begin(rank, "dynamics");
        obs.phase_end(rank, "dynamics");
        obs.phase_begin(rank, "physics");
        obs.phase_end(rank, "physics");
        obs.phase_end(rank, "step");
    }
    alloccount::arm();
    for _ in 0..5_000 {
        for rank in 0..4 {
            obs.phase_begin(rank, "step");
            obs.phase_begin(rank, "dynamics");
            obs.phase_end(rank, "dynamics");
            obs.phase_end(rank, "step");
        }
    }
    let allocs = alloccount::disarm();
    for rank in 0..4 {
        obs.rank_finished(rank);
    }
    drop(profiler);
    if !alloccount::installed() {
        return Check {
            name: "alloc_free_disabled",
            ok: false,
            detail: "counting allocator is not installed in this binary".into(),
        };
    }
    Check {
        name: "alloc_free_disabled",
        ok: allocs == 0,
        detail: format!("{allocs} allocations across 40000 publication events"),
    }
}

/// Run the profiled model and assemble the report document.
pub fn run_profile(smoke: bool) -> ProfileBenchReport {
    let machine = MachineProfile::t3d();
    let (report, run) = profiled_run(smoke);
    let skew = match skew_report(&report, &run.trace, &machine) {
        Ok(s) => s,
        Err(faults) => panic!("trace has unbalanced phase events: {faults:?}"),
    };

    let mut checks = Checks::default();
    checks.push(Check {
        name: "sample_conservation",
        ok: report.conservation_ok() && report.total_samples > 0,
        detail: format!(
            "{} samples over {} ticks ({} idle, {} skipped), folded stacks sum to total",
            report.total_samples, report.ticks, report.idle_samples, report.skipped_samples
        ),
    });
    checks.push(Check {
        name: "phase_in_trace",
        ok: skew.sampled_phases_in_trace(),
        detail: format!(
            "every sampled phase appears among the {} traced phases",
            skew.traced_phases
        ),
    });
    let measured_sum: f64 = skew.rows.iter().map(|r| r.measured_self_frac).sum();
    let modeled_sum: f64 = skew.rows.iter().map(|r| r.modeled_self_frac).sum();
    checks.push(Check {
        name: "skew_report",
        ok: skew.join_complete()
            && (measured_sum - 1.0).abs() < 1e-6
            && (modeled_sum - 1.0).abs() < 1e-6,
        detail: format!(
            "join covers {} traced phases; fraction sums measured {measured_sum:.6}, modeled {modeled_sum:.6}",
            skew.traced_phases
        ),
    });
    checks.push(alloc_free_check());

    let doc = Value::obj(vec![
        ("benchmark", Value::Str("profile".into())),
        ("smoke", Value::Bool(smoke)),
        ("profile", report.to_json()),
        ("skew", skew.to_json()),
        ("checks", checks.to_json()),
    ]);

    ProfileBenchReport {
        report,
        skew,
        checks,
        doc,
    }
}
