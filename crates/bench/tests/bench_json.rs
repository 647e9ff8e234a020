//! `reproduce bench-filter` and `bench-kernels` build their documents
//! as `json::Value` trees: built from fixed inputs, each must parse back
//! with the key paths (same keys, same nesting, same order) of the
//! committed `BENCH_filter.json` and `BENCH_kernels.json`, rounded as
//! those files are.

use agcm_bench::kernels::{
    filter_json, kernels_json, DivideBound, FilterReport, KernelBench, PathTimes,
};
use agcm_filtering::FilterVariant;
use agcm_telemetry::json::Value;

/// Every key of `doc`, as a dotted path, in document order.
fn key_paths(doc: &Value, prefix: &str, out: &mut Vec<String>) {
    for (key, value) in doc.as_obj().unwrap_or_default() {
        let path = format!("{prefix}{key}");
        key_paths(value, &format!("{path}."), out);
        out.push(path);
    }
}

/// The key paths of `built` once written and parsed back, against those
/// of the committed report `file`.
fn assert_same_keys(built: &Value, file: &str) {
    let committed =
        std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))).unwrap();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    key_paths(&Value::parse(&committed).unwrap(), "", &mut want);
    key_paths(&Value::parse(&built.to_string()).unwrap(), "", &mut got);
    assert_eq!(got, want, "{file}");
}

#[test]
fn bench_filter_json_keeps_the_committed_shape() {
    let doc = filter_json(&FilterReport {
        n_lon: 144,
        batch_lines: 36,
        ns_per_line: [5409.83, 1076.4, 357.64],
        add_mul_gflops: 51.23,
        variant: FilterVariant::LbFft,
        mesh: (1, 6),
        messages: (150, 170),
    });
    assert_same_keys(&doc, "BENCH_filter.json");
    let lane = doc.get("lane_batched").unwrap();
    assert_eq!(lane.get("ns_per_line"), Some(&Value::Num(357.6)));
    assert_eq!(lane.get("speedup"), Some(&Value::Num(3.01)));
    assert_eq!(lane.get("add_mul_gflops"), Some(&Value::Num(51.2)));
    let complex = doc.get("per_line_complex").unwrap();
    assert_eq!(complex.get("lines_per_sec"), Some(&Value::Num(184848.7)));
    let messages = doc.get("messages_per_filtered_step").unwrap();
    assert_eq!(messages.get("variant").unwrap().as_str(), Some("LbFft"));
    assert_eq!(messages.get("mesh").unwrap().as_str(), Some("1x6"));
}

#[test]
fn bench_kernels_json_keeps_the_committed_shape() {
    let times = |block: Option<f64>| PathTimes {
        reference: 3.3e-3,
        kernel: 1.1e-4,
        block,
        points: 1000,
    };
    let b = KernelBench {
        stencil: times(Some(1.0e-4)),
        advection: times(Some(1.2e-4)),
        step: times(None),
        fd: times(None),
        physics: times(None),
    };
    let fd = DivideBound::new(13, 0.75, &b.fd);
    let physics = DivideBound::new(36, 0.75, &b.physics);
    let doc = kernels_json(&b, &fd, &physics);
    assert_same_keys(&doc, "BENCH_kernels.json");
    let fd = doc.get("fd_sweeps").unwrap();
    assert_eq!(fd.get("speedup"), Some(&Value::Num(30.0)));
    assert_eq!(fd.get("divide_bound_ns_per_point"), Some(&Value::Num(9.8)));
    assert_eq!(fd.get("bound_fraction"), Some(&Value::Num(0.09)));
    let stencil = doc.get("stencil").unwrap().get("ns_per_point").unwrap();
    assert_eq!(stencil.get("block"), Some(&Value::Num(100.0)));
    let step = doc.get("tendency_step").unwrap().get("ns_per_point");
    assert_eq!(step.unwrap().get("block"), Some(&Value::Null));
}
