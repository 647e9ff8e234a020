//! Telemetry sinks: where step and run records go.
//!
//! The contract that keeps the model's hot path honest: call sites gate all
//! record *construction* on [`TelemetrySink::enabled`], so with the default
//! [`NullSink`] an instrumented code path costs one relaxed atomic-free
//! boolean check and performs **zero heap allocations** (enforced by the
//! `null_sink_alloc_free` integration test). [`MemorySink`] captures
//! records for tests; [`FileSink`] streams them as JSON lines.

use crate::run::{RunSummary, StepMetrics};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination for telemetry records.
///
/// Beyond the original step/run records, sinks can receive *live* events
/// streamed while a job runs: attempt starts, checkpoint commits, wall-
/// clock phase durations as ranks finish phases, and the authoritative
/// per-rank virtual phase totals at end of run. All live methods default
/// to no-ops taking only scalar arguments, so the disabled path stays
/// allocation-free and existing sinks need no changes.
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink wants records. Callers must check this before
    /// building a record, so disabled telemetry costs nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one step.
    fn record_step(&self, step: &StepMetrics);

    /// Record a run summary.
    fn record_run(&self, run: &RunSummary);

    /// A new execution attempt started (0 = first). `resumed_from` is the
    /// checkpoint step the attempt resumed at (`None` = cold start).
    fn record_attempt(&self, _attempt: u64, _resumed_from: Option<u64>) {}

    /// A coordinated checkpoint committed through `step`.
    fn record_checkpoint(&self, _step: u64) {}

    /// One rank finished one phase, measured in wall-clock seconds on
    /// this machine. Streamed live, mid-run; approximate by nature.
    fn record_live_phase(&self, _rank: u32, _phase: &str, _wall_seconds: f64) {}

    /// Authoritative per-rank virtual seconds accumulated in one phase
    /// over the successful attempt (from the cost-model timeline), with
    /// the number of spans folded in. Streamed once at end of run.
    fn record_rank_phase(&self, _rank: u32, _phase: &str, _virt_seconds: f64, _spans: u64) {}

    /// The successful attempt's wall-time profile ([`crate::profile`])
    /// and its skew against the cost model. Delivered once, after the run
    /// finishes.
    fn record_profile(
        &self,
        _profile: &crate::profile::ProfileReport,
        _skew: &crate::profile::SkewReport,
    ) {
    }
}

/// Discards everything; reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record_step(&self, _step: &StepMetrics) {}

    fn record_run(&self, _run: &RunSummary) {}
}

/// Buffers records in memory, for tests and in-process inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    steps: Mutex<Vec<StepMetrics>>,
    runs: Mutex<Vec<RunSummary>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot the recorded steps.
    pub fn steps(&self) -> Vec<StepMetrics> {
        self.steps.lock().clone()
    }

    /// Snapshot the recorded run summaries.
    pub fn runs(&self) -> Vec<RunSummary> {
        self.runs.lock().clone()
    }
}

impl TelemetrySink for MemorySink {
    fn record_step(&self, step: &StepMetrics) {
        self.steps.lock().push(step.clone());
    }

    fn record_run(&self, run: &RunSummary) {
        self.runs.lock().push(run.clone());
    }
}

/// Streams records to a file as JSON lines (`metrics.jsonl`).
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Create (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FileSink> {
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    fn write_line(&self, line: String) {
        let mut w = self.writer.lock();
        // Telemetry must never take the model down; drop the record on I/O
        // failure.
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

impl TelemetrySink for FileSink {
    fn record_step(&self, step: &StepMetrics) {
        self.write_line(step.to_json().to_string());
    }

    fn record_run(&self, run: &RunSummary) {
        self.write_line(run.to_json().to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn sample_step() -> StepMetrics {
        StepMetrics {
            step: 0,
            virt_start: 0.0,
            virt_seconds: 1.5,
            phase_seconds: vec![("dynamics", 1.0)],
            messages: vec![2, 2],
            bytes: vec![100, 100],
            flops: vec![1.0e6, 1.0e6],
            flop_imbalance: 0.0,
            phase_flop_imbalance: vec![("dynamics", 0.0)],
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn memory_sink_captures() {
        let sink = MemorySink::new();
        sink.record_step(&sample_step());
        sink.record_run(&RunSummary::default());
        assert_eq!(sink.steps().len(), 1);
        assert_eq!(sink.runs().len(), 1);
        assert!(sink.enabled());
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join("agcm_telemetry_sink_test.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.record_step(&sample_step());
        sink.record_run(&RunSummary::default());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            Value::parse(lines[0])
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("step")
        );
        assert_eq!(
            Value::parse(lines[1])
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("run")
        );
        let _ = std::fs::remove_file(&path);
    }
}
