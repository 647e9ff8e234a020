//! Telemetry sinks: where a served job's step and run records go.
//!
//! A sink is handed records; it never derives them. The ensemble
//! scheduler builds one [`RunMetrics`](crate::run::RunMetrics) per
//! completed job and feeds that job's own sink, alongside the live
//! events it streams while the job runs. [`MemorySink`] captures records
//! for tests.

use crate::run::{RunSummary, StepMetrics};
use parking_lot::Mutex;

/// A destination for telemetry records.
///
/// Beyond the original step/run records, sinks can receive *live* events
/// streamed while a job runs: attempt starts, checkpoint commits, wall-
/// clock phase durations as ranks finish phases, and the authoritative
/// per-rank virtual phase totals at end of run. All live methods default
/// to no-ops, so a sink implements only what it keeps.
pub trait TelemetrySink: Send + Sync {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn memory_sink_captures() {
        let sink = MemorySink::new();
        sink.record_step(&sample_step());
        sink.record_run(&RunSummary::default());
        assert_eq!(sink.steps().len(), 1);
        assert_eq!(sink.runs().len(), 1);
    }
}
