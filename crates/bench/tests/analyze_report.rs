//! Structural and acceptance tests for the `reproduce analyze` report.
//!
//! These pin the three headline results of the analysis engine on the real
//! model (not synthetic traces):
//! * LB-FFT strictly lowers the wait time *caused by* polar-row ranks
//!   compared to the unbalanced FFT filter on a 4-row mesh;
//! * the measured transpose-filter message count equals the closed form
//!   `2·passes·p·(p−1)` exactly;
//! * the critical-path length equals the timeline makespan to 1e-9.

use agcm_bench::analyze::{polar_ranks, run_analysis};
use agcm_costmodel::machine::MachineProfile;
use agcm_telemetry::json::Value;

#[test]
fn analyze_report_holds_its_invariants() {
    let report = run_analysis(&MachineProfile::t3d()).expect("model traces are phase-balanced");

    // Every check passes — the binary would exit non-zero otherwise.
    for c in report.checks.iter() {
        assert!(c.ok, "check {} failed: {}", c.name, c.detail);
    }
    for name in [
        "lb_fft_polar_wait_lower",
        "transpose_messages_exact_fft",
        "transpose_messages_exact_lb_fft",
        "critical_path_invariant",
    ] {
        assert!(
            report.checks.iter().any(|c| c.name == name),
            "missing check {name}"
        );
    }

    // The document is valid JSON with every section and the checks marked ok.
    let doc = Value::parse(&report.doc.to_string()).expect("analysis.json parses");
    for key in [
        "meta",
        "scaling",
        "wait_states",
        "filter_comm",
        "critical_path",
        "physics_balance",
        "checks",
    ] {
        assert!(doc.get(key).is_some(), "missing section {key}");
    }
    let checks = doc.get("checks").unwrap();
    assert_eq!(
        checks
            .get("critical_path_invariant")
            .and_then(Value::as_str),
        Some("ok")
    );

    // Acceptance: LB-FFT's polar-caused wait is strictly lower.
    let variants = doc
        .get("wait_states")
        .unwrap()
        .get("variants")
        .and_then(Value::as_arr)
        .unwrap();
    assert_eq!(variants.len(), 2);
    let polar: Vec<f64> = variants
        .iter()
        .map(|v| {
            v.get("polar_caused_wait")
                .and_then(Value::as_f64)
                .expect("polar_caused_wait present")
        })
        .collect();
    assert!(
        polar[1] < polar[0],
        "LB-FFT polar-caused wait {} must be strictly below plain FFT {}",
        polar[1],
        polar[0]
    );

    // Acceptance: exact transpose message-count match, recorded in JSON too.
    let filter_comm = doc.get("filter_comm").and_then(Value::as_arr).unwrap();
    let exact_rows: Vec<&Value> = filter_comm
        .iter()
        .filter(|r| matches!(r.get("predicted_is_exact"), Some(Value::Bool(true))))
        .collect();
    assert_eq!(exact_rows.len(), 2, "both FFT variants use the exact form");
    for row in exact_rows {
        assert_eq!(
            row.get("messages").and_then(Value::as_f64),
            row.get("predicted_messages").and_then(Value::as_f64),
            "measured must equal the closed form exactly"
        );
    }

    // Acceptance: critical path length == makespan to 1e-9.
    let cp = doc.get("critical_path").unwrap();
    let length = cp.get("length").and_then(Value::as_f64).unwrap();
    let makespan = cp.get("makespan").and_then(Value::as_f64).unwrap();
    assert!(
        (length - makespan).abs() < 1e-9,
        "critical path {length} vs makespan {makespan}"
    );
    assert!(makespan > 0.0);

    // The scaling sweep covers the meshes and speedups are positive.
    let scaling = doc.get("scaling").and_then(Value::as_arr).unwrap();
    assert_eq!(scaling.len(), 4);
    assert_eq!(scaling[0].get("mesh").and_then(Value::as_str), Some("1x1"));
    for row in scaling {
        let eff = row
            .get("parallel_efficiency")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(eff > 0.0, "efficiency must be positive");
        let speedup = row
            .get("phase_speedup")
            .and_then(|s| s.get("step"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!(speedup > 0.0);
    }

    // The smoke-run analysis behind trace_analyzed.json has matched flows.
    assert!(!report.smoke.flows.is_empty());
    assert!(report.tables.len() >= 5, "all report tables present");
}

#[test]
fn polar_ranks_follow_row_major_convention() {
    assert_eq!(polar_ranks(4, 2), vec![0, 1, 6, 7]);
    assert_eq!(polar_ranks(2, 3), vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(polar_ranks(1, 4), vec![0, 1, 2, 3]);
}
