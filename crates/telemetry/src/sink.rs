//! Telemetry sinks: where a served job's live events and finished run go.
//!
//! A sink is handed what the job produced; it never replays a trace. The
//! ensemble scheduler streams a job's attempts, checkpoint commits and
//! closed phases to its sink while the job runs, then derives one
//! [`RunSummary`] and its [`Timeline`] per completed job and hands both
//! over in one [`TelemetrySink::record_finished`] call. [`MemorySink`]
//! captures the finished runs for tests.

use crate::run::RunSummary;
use crate::timeline::Timeline;
use agcm_mps::span::SpanObserver;
use parking_lot::Mutex;

/// A destination for one served job's telemetry.
///
/// A sink is also the job's [`SpanObserver`]: every rank reports each
/// phase it closes, in wall-clock seconds on this machine, mid-run and
/// approximate by nature. The attempt and checkpoint events default to
/// no-ops, so a sink implements only what it keeps.
pub trait TelemetrySink: SpanObserver {
    /// A new execution attempt started (0 = first). `resumed_from` is the
    /// checkpoint step the attempt resumed at (`None` = cold start).
    fn record_attempt(&self, _attempt: u64, _resumed_from: Option<u64>) {}

    /// A coordinated checkpoint committed through `step`.
    fn record_checkpoint(&self, _step: u64) {}

    /// The job completed. `summary` was derived from the successful
    /// attempt's trace and `timeline` holds that trace's spans, with
    /// virtual (cost-model) and wall-clock times; a sink folds whatever
    /// per-rank or per-phase view it keeps from them. `profile` says the
    /// job asked for a wall-time profile ([`crate::profile`]), which the
    /// timeline's wall stamps give without another replay. Called once,
    /// and never for a failed or cancelled job.
    fn record_finished(&self, summary: &RunSummary, timeline: &Timeline, profile: bool);
}

/// Buffers finished runs in memory, for tests and in-process inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    runs: Mutex<Vec<RunSummary>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot the summaries of the finished runs recorded.
    pub fn runs(&self) -> Vec<RunSummary> {
        self.runs.lock().clone()
    }
}

impl SpanObserver for MemorySink {
    fn phase_ended(&self, _rank: usize, _name: &'static str, _wall_seconds: f64) {}
}

impl TelemetrySink for MemorySink {
    fn record_finished(&self, summary: &RunSummary, _timeline: &Timeline, _profile: bool) {
        self.runs.lock().push(summary.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures() {
        let sink = MemorySink::new();
        let summary = RunSummary {
            steps: 3,
            ..RunSummary::default()
        };
        sink.record_finished(&summary, &Timeline::default(), false);
        assert_eq!(sink.runs(), vec![summary]);
    }
}
