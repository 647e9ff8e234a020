//! Telemetry of a real model run: derive [`RunMetrics`] straight from a
//! 2×2 run's trace and check the records' shape — including the
//! acceptance criterion that the run summary's flop imbalance agrees with
//! `WorldTrace::flop_imbalance` to 1e-9.

use agcm_core::config::AgcmConfig;
use agcm_core::model::run_model;
use agcm_costmodel::machine::MachineProfile;
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_telemetry::RunMetrics;

#[test]
fn run_metrics_of_a_model_trace_have_its_shape() {
    let cfg =
        AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 2, 2, FilterVariant::LbFft).with_steps(3);
    let run = run_model(cfg);
    assert!(run.stable());
    let metrics = RunMetrics::from_trace(&run.trace, &MachineProfile::t3d()).unwrap();

    // Three step records and one summary.
    let steps = &metrics.steps;
    let summary = &metrics.summary;
    assert_eq!(steps.len(), 3);
    assert_eq!(summary.ranks, 4);
    assert_eq!(summary.steps, 3);
    assert!(summary.resilience.is_none());

    // Acceptance criterion: summary imbalance == trace imbalance to 1e-9.
    assert!(
        (summary.flop_imbalance - run.trace.flop_imbalance()).abs() < 1e-9,
        "{} vs {}",
        summary.flop_imbalance,
        run.trace.flop_imbalance()
    );

    // Steps carry the component phases with positive virtual time.
    for step in steps {
        assert!(step.virt_seconds > 0.0);
        for phase in ["dynamics", "physics", "filter"] {
            let (_, secs) = step
                .phase_seconds
                .iter()
                .find(|(n, _)| *n == phase)
                .unwrap_or_else(|| panic!("step {} lacks phase {phase}", step.step));
            assert!(*secs > 0.0, "{phase}");
        }
        assert_eq!(step.flops.len(), 4);
        assert!(step.flop_imbalance >= 0.0);
    }

    // Per-phase flop imbalance in the summary covers the component phases.
    for phase in ["dynamics", "physics"] {
        assert!(
            summary
                .phase_flop_imbalance
                .iter()
                .any(|(n, _)| *n == phase),
            "summary lacks {phase}"
        );
    }

    // Collective counters flowed through from the substrate.
    assert!(
        !summary.collectives.is_empty(),
        "model run uses collectives (load estimates, reductions)"
    );

    // The same replay yields the waits: one entry per rank.
    assert_eq!(summary.wait_seconds.len(), 4);
    assert!(summary.idle_imbalance.is_finite());
}
