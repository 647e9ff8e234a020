//! Drift guard: the workloads and metrics a smoke run actually emits are
//! the ones `BENCHMARK.json` promises the driver, name for name and unit
//! for unit, and a smoke run of every workload passes its own checks.

use agcm_telemetry::json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn names_and_units(section: &Value) -> BTreeMap<String, String> {
    section
        .as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload in smoke mode and return (correct, name → unit).
fn smoke(workload: &str, trace: &str) -> (bool, BTreeMap<String, String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().expect("a result line");
    let result =
        Value::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"));
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let correct = result.get("correct") == Some(&Value::Bool(true));
    assert_eq!(
        out.status.success(),
        correct,
        "{workload}: exit code follows the checks"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let units = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name}: numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    (correct, units)
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract =
        Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let end_to_end = names_and_units(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(contract.get("per_layer").expect("per_layer"));
    assert!(
        end_to_end.contains_key("setup_s"),
        "the contract requires setup_s"
    );

    let workloads = contract
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    // One after the other: each run wants both cores.
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let (correct, emitted) = smoke(name, "0");
        assert!(correct, "{name}: smoke run failed its checks");
        assert_eq!(
            emitted, end_to_end,
            "{name}: end-to-end metrics drifted from BENCHMARK.json"
        );
        let (correct, emitted) = smoke(name, "1");
        assert!(correct, "{name}: traced smoke run failed its checks");
        assert_eq!(
            emitted, per_layer,
            "{name}: per-layer metrics drifted from BENCHMARK.json"
        );
    }

    // An unknown workload is refused without a result line.
    let out = Command::new(env!("CARGO_BIN_EXE_agcm-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success() && out.stdout.is_empty());
}
