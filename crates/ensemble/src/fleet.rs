//! Fleet-level telemetry: the serving view of one ensemble.
//!
//! Each job routes its own step/run records to its own
//! [`agcm_telemetry::TelemetrySink`]; [`FleetMetrics`] aggregates the
//! serving-level view — jobs by terminal state, queue depth, rank-budget
//! occupancy, and job latency through the existing log-bucketed
//! [`Histogram`]s (p50/p95 via [`HistogramSnapshot::quantile`]). The
//! metrics are fields of the ensemble, not entries of the process-global
//! `agcm_telemetry::registry()`: two ensembles in one process must not
//! share counters.

use agcm_telemetry::json::Value;
use agcm_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::time::Instant;

/// Fleet-level counters, gauges and histograms. All update methods are
/// called with the scheduler lock held, so the peak gauges'
/// read-modify-write is race-free.
pub struct FleetMetrics {
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_cancelled: Counter,
    jobs_failed: Counter,
    jobs_rejected: Counter,
    job_retries: Counter,
    queue_depth: Gauge,
    queue_depth_peak: Gauge,
    ranks_busy: Gauge,
    ranks_busy_peak: Gauge,
    queue_wait_seconds: Histogram,
    job_seconds: Histogram,
    started: Instant,
}

fn bump_peak(gauge: &Gauge, peak: &Gauge, value: f64) {
    gauge.set(value);
    if value > peak.get() {
        peak.set(value);
    }
}

impl FleetMetrics {
    pub(crate) fn new() -> FleetMetrics {
        FleetMetrics {
            jobs_submitted: Counter::new(),
            jobs_completed: Counter::new(),
            jobs_cancelled: Counter::new(),
            jobs_failed: Counter::new(),
            jobs_rejected: Counter::new(),
            job_retries: Counter::new(),
            queue_depth: Gauge::new(),
            queue_depth_peak: Gauge::new(),
            ranks_busy: Gauge::new(),
            ranks_busy_peak: Gauge::new(),
            queue_wait_seconds: Histogram::new(),
            job_seconds: Histogram::new(),
            started: Instant::now(),
        }
    }

    pub(crate) fn on_submit(&self, queue_depth: usize) {
        self.jobs_submitted.inc();
        bump_peak(
            &self.queue_depth,
            &self.queue_depth_peak,
            queue_depth as f64,
        );
    }

    pub(crate) fn on_reject(&self) {
        self.jobs_rejected.inc();
    }

    pub(crate) fn on_dispatch(&self, queue_wait_seconds: f64, ranks_busy: usize, depth: usize) {
        self.queue_wait_seconds.observe(queue_wait_seconds);
        bump_peak(&self.ranks_busy, &self.ranks_busy_peak, ranks_busy as f64);
        self.queue_depth.set(depth as f64);
    }

    pub(crate) fn on_release(&self, ranks_busy: usize) {
        self.ranks_busy.set(ranks_busy as f64);
    }

    pub(crate) fn on_complete(&self, latency_seconds: f64, retries: usize) {
        self.jobs_completed.inc();
        self.job_retries.add(retries as u64);
        self.job_seconds.observe(latency_seconds);
    }

    pub(crate) fn on_cancel(&self) {
        self.jobs_cancelled.inc();
    }

    pub(crate) fn on_fail(&self) {
        self.jobs_failed.inc();
    }

    /// Point-in-time derived view.
    pub fn snapshot(&self) -> FleetSnapshot {
        let job_seconds = self.job_seconds.snapshot();
        let elapsed = self.started.elapsed().as_secs_f64();
        let completed = self.jobs_completed.get();
        FleetSnapshot {
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: completed,
            jobs_cancelled: self.jobs_cancelled.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_rejected: self.jobs_rejected.get(),
            job_retries: self.job_retries.get(),
            queue_depth: self.queue_depth.get(),
            queue_depth_peak: self.queue_depth_peak.get(),
            ranks_busy: self.ranks_busy.get(),
            ranks_busy_peak: self.ranks_busy_peak.get(),
            elapsed_seconds: elapsed,
            throughput_jobs_per_second: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            latency_p50: job_seconds.quantile(0.50),
            latency_p95: job_seconds.quantile(0.95),
            queue_wait: self.queue_wait_seconds.snapshot(),
            job_seconds,
        }
    }
}

/// Derived fleet metrics at one instant.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that completed every rank.
    pub jobs_completed: u64,
    /// Jobs cancelled (deadline or explicit), queued or running.
    pub jobs_cancelled: u64,
    /// Jobs that failed (retries exhausted, panic, store error).
    pub jobs_failed: u64,
    /// Submissions bounced by backpressure ([`crate::SubmitError`]).
    pub jobs_rejected: u64,
    /// Restart attempts beyond each job's first, summed.
    pub job_retries: u64,
    /// Queue depth at the last scheduler event.
    pub queue_depth: f64,
    /// Maximum queue depth observed.
    pub queue_depth_peak: f64,
    /// Ranks occupied at the last scheduler event.
    pub ranks_busy: f64,
    /// Maximum ranks occupied at once — never exceeds the budget.
    pub ranks_busy_peak: f64,
    /// Wall seconds since the ensemble started.
    pub elapsed_seconds: f64,
    /// Completed jobs per wall second.
    pub throughput_jobs_per_second: f64,
    /// Median job latency (submission → completion), seconds.
    pub latency_p50: f64,
    /// 95th-percentile job latency, seconds.
    pub latency_p95: f64,
    /// Queue-wait distribution (log-bucketed).
    pub queue_wait: HistogramSnapshot,
    /// Job-latency distribution (log-bucketed).
    pub job_seconds: HistogramSnapshot,
}

impl FleetSnapshot {
    /// Serialize for the `fleet` object of `GET /v1/metrics`.
    pub fn to_json(&self) -> Value {
        let hist = |h: &HistogramSnapshot| {
            Value::obj(vec![
                ("count", Value::Num(h.count as f64)),
                ("sum", Value::Num(h.sum)),
                (
                    "buckets",
                    Value::Arr(
                        h.buckets
                            .iter()
                            .map(|&(lo, n)| Value::Arr(vec![Value::Num(lo), Value::Num(n as f64)]))
                            .collect(),
                    ),
                ),
            ])
        };
        Value::obj(vec![
            ("jobs_submitted", Value::Num(self.jobs_submitted as f64)),
            ("jobs_completed", Value::Num(self.jobs_completed as f64)),
            ("jobs_cancelled", Value::Num(self.jobs_cancelled as f64)),
            ("jobs_failed", Value::Num(self.jobs_failed as f64)),
            ("jobs_rejected", Value::Num(self.jobs_rejected as f64)),
            ("job_retries", Value::Num(self.job_retries as f64)),
            ("queue_depth", Value::Num(self.queue_depth)),
            ("queue_depth_peak", Value::Num(self.queue_depth_peak)),
            ("ranks_busy", Value::Num(self.ranks_busy)),
            ("ranks_busy_peak", Value::Num(self.ranks_busy_peak)),
            ("elapsed_seconds", Value::Num(self.elapsed_seconds)),
            (
                "throughput_jobs_per_second",
                Value::Num(self.throughput_jobs_per_second),
            ),
            ("latency_p50_seconds", Value::Num(self.latency_p50)),
            ("latency_p95_seconds", Value::Num(self.latency_p95)),
            ("queue_wait_seconds", hist(&self.queue_wait)),
            ("job_seconds", hist(&self.job_seconds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_latch_and_throughput_derives() {
        let fleet = FleetMetrics::new();
        fleet.on_submit(1);
        fleet.on_submit(2);
        fleet.on_dispatch(0.001, 6, 1);
        fleet.on_dispatch(0.002, 4, 0);
        fleet.on_complete(0.01, 1);
        fleet.on_complete(0.02, 0);
        fleet.on_release(0);
        fleet.on_reject();
        fleet.on_reject();
        fleet.on_reject();
        fleet.on_cancel();
        fleet.on_cancel();
        fleet.on_fail();
        let s = fleet.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_rejected, 3);
        assert_eq!(s.jobs_cancelled, 2);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.job_retries, 1);
        assert_eq!(s.queue_depth, 0.0);
        assert_eq!(s.queue_wait.count, 2);
        assert_eq!(s.queue_depth_peak, 2.0);
        assert_eq!(s.ranks_busy_peak, 6.0);
        assert_eq!(s.ranks_busy, 0.0);
        assert!(s.throughput_jobs_per_second > 0.0);
        assert!(s.latency_p95 >= s.latency_p50);
        assert!(s.latency_p50 > 0.0);
        assert_eq!(s.job_seconds.count, 2);
        // The `fleet` keys of `/v1/metrics`, in the order readers expect.
        let json = s.to_json();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "jobs_submitted",
                "jobs_completed",
                "jobs_cancelled",
                "jobs_failed",
                "jobs_rejected",
                "job_retries",
                "queue_depth",
                "queue_depth_peak",
                "ranks_busy",
                "ranks_busy_peak",
                "elapsed_seconds",
                "throughput_jobs_per_second",
                "latency_p50_seconds",
                "latency_p95_seconds",
                "queue_wait_seconds",
                "job_seconds",
            ]
        );
    }
}
