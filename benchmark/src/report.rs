//! The metric dictionary — the one list of workloads, end-to-end metrics
//! and per-layer metrics this benchmark emits — and the output of a run.
//! `BENCHMARK.json` repeats the names, units, directions and bounds; a test
//! fails if the two drift apart.

use crate::stats::{Better, Summary};
use agcm_telemetry::json::Value;
use std::collections::BTreeMap;

/// How a per-layer number comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed by the benchmark around a public call.
    Timed,
    /// An exact count: must repeat exactly on the same commit and seed.
    Count,
    /// Read from a value the public API already returns.
    Reported,
    /// Computed from array sizes, not measured.
    Computed,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        kind: Kind::Timed,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "model_1x1",
    "model_1x2",
    "serve_small",
    "serve_paper_cold",
    "serve_paper_warm",
];

use Better::{Higher, Lower};
use Kind::{Computed, Count, Reported, Timed};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.25),
    e2e("result_ms_p50", "ms", Lower, 0.25),
    e2e("result_ms_p95", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// The ladder beneath them; layer = crate name.
pub const PER_LAYER: [MetricDef; 73] = [
    layer("machine.triad_gbps", "GB/s", Higher, Timed),
    layer("kernels.upwind_ns_per_pt", "ns", Lower, Timed),
    layer("kernels.laplace_ns_per_pt", "ns", Lower, Timed),
    layer("kernels.upwind_bytes_per_pt", "B", Lower, Computed),
    layer("kernels.upwind_bw_frac", "ratio", Higher, Timed),
    layer("fft.filter_ns_per_line", "ns", Lower, Timed),
    layer("grid.halo_exchange_us", "us", Lower, Timed),
    layer("grid.halo_bytes", "B", Lower, Count),
    layer("filtering.apply_ms_1x1", "ms", Lower, Timed),
    layer("filtering.apply_ms_1x2", "ms", Lower, Timed),
    layer("filtering.msgs_per_apply", "count", Lower, Count),
    layer("filtering.bytes_per_apply", "B", Lower, Count),
    layer("filtering.redist_share", "ratio", Lower, Reported),
    layer("dynamics.step_nofilter_ms", "ms", Lower, Timed),
    layer("dynamics.compute_ns_per_pt", "ns", Lower, Timed),
    layer("physics.run_local_ms", "ms", Lower, Timed),
    layer("physics.ns_per_column", "ns", Lower, Timed),
    layer("physics.balanced_ms", "ms", Lower, Timed),
    layer("physics.plan_us", "us", Lower, Timed),
    layer("physics.imbalance_before", "ratio", Lower, Count),
    layer("physics.imbalance_after", "ratio", Lower, Count),
    layer("mps.pingpong_us", "us", Lower, Timed),
    layer("mps.pingpong_mbps", "MB/s", Higher, Timed),
    layer("mps.allreduce_us", "us", Lower, Timed),
    layer("mps.barrier_us", "us", Lower, Timed),
    layer("mps.alltoallv_ms", "ms", Lower, Timed),
    layer("mps.world_spawn_us", "us", Lower, Timed),
    layer("mps.msgs_per_step_1x1", "count", Lower, Count),
    layer("mps.bytes_per_step_1x1", "B", Lower, Count),
    layer("mps.msgs_per_step_1x2", "count", Lower, Count),
    layer("mps.bytes_per_step_1x2", "B", Lower, Count),
    layer("mps.msgs_per_step_2x3", "count", Lower, Count),
    layer("mps.bytes_per_step_2x3", "B", Lower, Count),
    layer("agcm.step_ms_p50", "ms", Lower, Reported),
    layer("agcm.step_ms_p95", "ms", Lower, Reported),
    layer("agcm.filter_share", "ratio", Lower, Reported),
    layer("agcm.halo_share", "ratio", Lower, Reported),
    layer("agcm.fd_share", "ratio", Lower, Reported),
    layer("agcm.physics_share", "ratio", Lower, Reported),
    layer("agcm.balance_share", "ratio", Lower, Reported),
    layer("agcm.closure_err", "ratio", Lower, Timed),
    layer("agcm.flops_per_step", "count", Lower, Count),
    layer("agcm.allocs_per_step", "count", Lower, Count),
    layer("agcm.alloc_bytes_per_step", "B", Lower, Count),
    layer("resilience.encode_mbps", "MB/s", Higher, Timed),
    layer("resilience.decode_mbps", "MB/s", Higher, Timed),
    layer("resilience.dir_commit_ms", "ms", Lower, Timed),
    layer("ckptstore.put_mbps_cold", "MB/s", Higher, Timed),
    layer("ckptstore.put_mbps_dedup", "MB/s", Higher, Timed),
    layer("ckptstore.get_mbps", "MB/s", Higher, Timed),
    layer("ckptstore.commit_ms", "ms", Lower, Timed),
    layer("ckptstore.gc_ms", "ms", Lower, Timed),
    layer("ckptstore.open_ms", "ms", Lower, Timed),
    layer("ckptstore.dedup_ratio", "ratio", Higher, Count),
    layer("ckptstore.prefix_hit_share", "ratio", Higher, Reported),
    layer("ensemble.tiny_job_us", "us", Lower, Timed),
    layer("ensemble.queue_ms_p50", "ms", Lower, Reported),
    layer("ensemble.run_ms_p50", "ms", Lower, Reported),
    layer("costmodel.replay_tiny_us", "us", Lower, Timed),
    layer("costmodel.replay_1x2_ms", "ms", Lower, Timed),
    layer("telemetry.summary_tiny_us", "us", Lower, Timed),
    layer("telemetry.summary_1x2_ms", "ms", Lower, Timed),
    layer("server.healthz_us", "us", Lower, Timed),
    layer("server.journal_append_us", "us", Lower, Timed),
    layer("server.journal_replay_ms", "ms", Lower, Timed),
    layer("server.post_ms_p50", "ms", Lower, Timed),
    layer("server.poll_ms_p50", "ms", Lower, Timed),
    layer("server.polls_per_job", "count", Lower, Timed),
    layer("server.http_overhead_ms", "ms", Lower, Timed),
    layer("server.jobs_per_s", "1/s", Higher, Timed),
    layer("server.closure_err", "ratio", Lower, Timed),
    layer("bench.trace_overhead_pct", "%", Lower, Timed),
    layer("bench.traced_steps_per_s", "1/s", Higher, Timed),
];

pub fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// A failed correctness check, worded for the reader of the output.
pub type Failure = String;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (model runs, jobs) and how many of them
    /// failed, were refused, timed out or gave a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<Failure>,
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Context printed beside the metrics (sizes, derived units).
    pub notes: Vec<String>,
    /// Numbers kept beside the metrics in the result files, such as the
    /// unscaled form of a scaled metric.
    pub extras: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn put(&mut self, name: &'static str, summary: Summary) {
        assert!(
            definition(name).is_some(),
            "metric {name} is not in the dictionary"
        );
        let replaced = self.metrics.insert(name, summary);
        assert!(replaced.is_none(), "metric {name} reported twice");
    }

    /// One attempted operation: it failed if any check inside it did.
    pub fn operation(&mut self, body: impl FnOnce(&mut Outcome)) {
        self.attempted += 1;
        let before = self.failures.len();
        body(self);
        if self.failures.len() > before {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> Failure) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// `bench.*`: steps/s of the traced run and what the spans cost, from
    /// the same work measured with and without them.
    pub fn put_trace_overhead(&mut self, untraced: Summary, traced: Summary) {
        self.put("bench.traced_steps_per_s", traced);
        self.put(
            "bench.trace_overhead_pct",
            crate::stats::exact((untraced.value - traced.value) / untraced.value * 100.0),
        );
    }

    /// Fold another outcome's counts, failures, metrics and notes in.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (name, summary) in other.metrics {
            self.put(name, summary);
        }
        self.notes.extend(other.notes);
        self.extras.extend(other.extras);
    }

    /// Print every metric by name with unit and sample count, then the
    /// detail line the `run`/`trace` commands collect, then the contract's
    /// result line. `expected` is the metric list of this mode; emitting
    /// anything else is a bug in the benchmark.
    pub fn print(&self, workload: &str, expected: &[MetricDef]) {
        let emitted: Vec<&str> = self.metrics.keys().copied().collect();
        let mut wanted: Vec<&str> = expected.iter().map(|d| d.name).collect();
        wanted.sort_unstable();
        assert_eq!(
            emitted, wanted,
            "{workload}: emitted metrics differ from the dictionary"
        );

        for note in &self.notes {
            println!("  note  {note}");
        }
        for def in expected {
            let s = &self.metrics[def.name];
            println!(
                "  {:<30} {:>14.6} {:<6} p50 {:.6}  iqr {:.6}  n {}  ({} is better)",
                def.name,
                s.value,
                def.unit,
                s.p50,
                s.iqr,
                s.n,
                def.better.label()
            );
        }
        for f in self.failures.iter().take(20) {
            println!("  FAILED {f}");
        }
        let num = Value::Num;
        let mut detail: Vec<(&str, Value)> = expected
            .iter()
            .map(|def| {
                let s = &self.metrics[def.name];
                (
                    def.name,
                    Value::obj(vec![
                        ("p50", num(s.p50)),
                        ("iqr", num(s.iqr)),
                        ("n", num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        detail.push((
            "extras",
            Value::obj(self.extras.iter().map(|(k, v)| (*k, num(*v))).collect()),
        ));
        println!("#detail {}", Value::obj(detail));
        let metrics: Vec<(&str, Value)> = expected
            .iter()
            .map(|def| {
                (
                    def.name,
                    Value::obj(vec![
                        ("value", num(self.metrics[def.name].value)),
                        ("unit", Value::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        println!(
            "{}",
            Value::obj(vec![
                ("correct", Value::Bool(self.correct())),
                ("attempted", num(self.attempted as f64)),
                ("failed", num(self.failed as f64)),
                ("metrics", Value::obj(metrics)),
            ])
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the driver's copy of this dictionary.
    #[test]
    fn benchmark_json_repeats_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .to_vec()
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(list("paths"), [Value::Str("benchmark".into())]);

        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(section);
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(text(entry, "name"), def.name);
                assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(entry, "better"), def.better.label(), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn an_operation_fails_once_however_many_checks_do() {
        let mut out = Outcome::default();
        out.operation(|o| o.check(true, || unreachable!()));
        out.operation(|o| {
            o.check(false, || "first".into());
            o.check(false, || "second".into());
        });
        assert_eq!((out.attempted, out.failed, out.failures.len()), (2, 1, 2));
        assert!(!out.correct());
    }
}
