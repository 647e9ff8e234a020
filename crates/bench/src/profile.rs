//! The `reproduce profile` report: fold a real instrumented run's wall
//! stamps into per-phase stacks, render the folded stacks and flamegraph,
//! and join the measured wall fractions against the cost model's virtual
//! fractions per phase (the *skew report*).
//!
//! The paper's per-phase breakdown tables are *modeled* on the virtual
//! clock; the trace's wall stamps say where this host actually spent its
//! time. The skew report puts both on the same axis — self-time fraction
//! per phase — so a phase whose simulated share diverges from its
//! measured share is visible at a glance. Two machine-checked invariants
//! gate the run (CI greps their `name:ok` lines):
//!
//! - `wall_conservation` — the folded stacks sum to the ranks' wall
//!   extents to the nanosecond;
//! - `skew_report` — both fraction columns sum to 1 (idle row included).

use crate::analyze::{analysis_grid, Check, Checks};
use agcm_core::{run_model, AgcmConfig};
use agcm_costmodel::machine::MachineProfile;
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_telemetry::json::Value;
use agcm_telemetry::{skew_report, ProfileReport, SkewReport, Timeline};

/// The full profiling report plus its machine checks.
pub struct ProfileBenchReport {
    /// The folded profile (stacks, phase table).
    pub report: ProfileReport,
    /// The measured-vs-modeled join.
    pub skew: SkewReport,
    /// Ranks in the profiled world.
    pub ranks: usize,
    /// Machine-checkable invariants.
    pub checks: Checks,
    /// The `profile.json` document.
    pub doc: Value,
}

/// Run the profiled model and assemble the report document.
pub fn run_profile(smoke: bool) -> ProfileBenchReport {
    let machine = MachineProfile::t3d();
    let (grid, steps) = if smoke {
        (analysis_grid(), 6)
    } else {
        (GridSpec::paper_9_layer(), 4)
    };
    let cfg = AgcmConfig::for_grid(grid, 2, 2, FilterVariant::LbFft)
        .with_steps(steps)
        .with_physics_balancing();
    let run = run_model(cfg);
    let timeline = match Timeline::from_trace(&run.trace, &machine) {
        Ok(t) => t,
        Err(faults) => panic!("trace has unbalanced phase events: {faults:?}"),
    };
    let report = ProfileReport::from_timeline(&timeline);
    let skew = skew_report(&timeline);

    let mut checks = Checks::default();
    checks.push(Check {
        name: "wall_conservation",
        ok: report.conservation_ok() && report.total_nanos > 0,
        detail: format!(
            "{} folded stacks sum to the {} ns the ranks' last stamps span",
            report.stacks.len(),
            report.total_nanos
        ),
    });
    let measured_sum: f64 = skew.rows.iter().map(|r| r.measured_self_frac).sum();
    let modeled_sum: f64 = skew.rows.iter().map(|r| r.modeled_self_frac).sum();
    checks.push(Check {
        name: "skew_report",
        ok: (measured_sum - 1.0).abs() < 1e-6 && (modeled_sum - 1.0).abs() < 1e-6,
        detail: format!(
            "{} traced phases; fraction sums measured {measured_sum:.6}, modeled {modeled_sum:.6}",
            skew.traced_phases
        ),
    });

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
        ranks: run.trace.size(),
        checks,
        doc,
    }
}
