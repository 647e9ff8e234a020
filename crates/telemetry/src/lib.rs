//! # agcm-telemetry — unified observability for the AGCM reproduction
//!
//! The paper (Lou & Farrara, SC'96, §3.4) is built on measurement: per-
//! processor timings of each model component, message counts, and the
//! load-imbalance metric `(MaxLoad − AvgLoad) / AvgLoad`. This crate turns
//! the traces the substrate already records into first-class observability:
//!
//! * [`metrics`] — process-wide counters, gauges and log-bucketed
//!   histograms, lock-free and allocation-free to update;
//! * [`timeline`] — per-rank span timelines from `PhaseBegin`/`PhaseEnd`
//!   events, with cost-model *virtual* timestamps and (when recorded)
//!   wall-clock timestamps;
//! * [`chrome`] — export of those timelines as Chrome trace-event JSON,
//!   loadable in Perfetto (one track per rank), with flow arrows for every
//!   matched message, counter tracks, and a critical-path track when
//!   exported from a [`TraceAnalysis`];
//! * [`analysis`] — trace analysis proper: matched message flows, wait-state
//!   detection (late-sender / buffered time per rank and per phase), and the
//!   [`analyze`] one-call bundle;
//! * [`commmatrix`] — per src→dst communication matrices with phase slicing;
//! * [`critical`] — critical-path extraction through the rank×event span
//!   graph (program order + message edges);
//! * [`run`] — structured per-step and per-run metrics
//!   ([`run::StepMetrics`] / [`run::RunSummary`]) serialized as JSON lines;
//! * [`sink`] — the [`TelemetrySink`] trait with null, in-memory and file
//!   implementations. The default is the null sink, and every instrumented
//!   call site gates on [`TelemetrySink::enabled`], so a model run with
//!   telemetry off pays a single atomic load and **zero allocations**;
//! * [`tracectx`] — dependency-free span contexts ([`TraceContext`]): one
//!   128-bit trace id per request, deterministic child span ids per
//!   attempt, hex round-trip for journaling;
//! * [`live`] — the [`LiveCollector`] streaming aggregator: per-job live
//!   views (attempts, last checkpoint, phase breakdown so far) and
//!   windowed per-phase/per-tenant rollups, folded incrementally from
//!   sink events rather than post-hoc replay;
//! * [`prom`] — Prometheus text exposition of a [`MetricsSnapshot`], plus
//!   a strict validator for smoke checks;
//! * [`profile`] — exact per-phase wall time folded from the trace's own
//!   phase stamps into stacks, and a [`SkewReport`] that joins the
//!   measured fractions against the cost model's virtual fractions;
//! * [`flamegraph`] — a dependency-free SVG flamegraph writer for the
//!   folded stacks.
//!
//! ## The global handle
//!
//! The model crates are instrumented against a process-global [`Telemetry`]
//! handle: [`telemetry()`] returns it (null-sinked by default), and
//! [`install`] points it at a real sink plus the [`MachineProfile`] used to
//! derive virtual time. [`Telemetry::observe_trace`] is the single entry
//! point the model calls at end of run.

pub mod analysis;
pub mod chrome;
pub mod commmatrix;
pub mod critical;
pub mod flamegraph;
pub mod json;
pub mod live;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod run;
pub mod sink;
pub mod timeline;
pub mod tracectx;

pub use analysis::{analyze, MessageFlow, RankWait, TraceAnalysis, WaitReport};
pub use commmatrix::{CommCell, CommMatrix};
pub use critical::{CriticalPath, CriticalSegment, SegmentKind};
pub use live::{JobSink, LiveCollector};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{skew_report, FoldedStack, PhaseStat, ProfileReport, SkewReport, SkewRow};
pub use run::{ResilienceCounters, RunMetrics, RunSummary, StepMetrics};
pub use sink::{FileSink, MemorySink, NullSink, TelemetrySink};
pub use timeline::{Span, Timeline};
pub use tracectx::TraceContext;

use agcm_costmodel::machine::MachineProfile;
use agcm_mps::trace::WorldTrace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The process-global telemetry state.
pub struct Telemetry {
    sink: OnceLock<(Arc<dyn TelemetrySink>, MachineProfile)>,
    installed: AtomicBool,
}

static GLOBAL: Telemetry = Telemetry {
    sink: OnceLock::new(),
    installed: AtomicBool::new(false),
};

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The global telemetry handle. Null-sinked until [`install`] is called.
pub fn telemetry() -> &'static Telemetry {
    &GLOBAL
}

/// The global metrics registry, always available.
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Install a sink and the machine profile used to derive virtual time.
/// Returns `false` if telemetry was already installed (first install wins —
/// the handle is read lock-free from rank threads).
pub fn install(sink: Arc<dyn TelemetrySink>, machine: MachineProfile) -> bool {
    let ok = GLOBAL.sink.set((sink, machine)).is_ok();
    if ok {
        // Publish only after the sink is readable.
        GLOBAL.installed.store(true, Ordering::Release);
    }
    ok
}

impl Telemetry {
    /// Whether an enabled sink is installed. One relaxed atomic load on the
    /// fast path — no allocation, no lock.
    pub fn enabled(&self) -> bool {
        self.installed.load(Ordering::Acquire) && self.sink.get().is_some_and(|(s, _)| s.enabled())
    }

    /// The installed machine profile, if any.
    pub fn machine(&self) -> Option<MachineProfile> {
        self.sink.get().map(|(_, m)| *m)
    }

    /// Derive [`RunMetrics`] from a finished run's trace and feed them to
    /// the sink (each step, then the run summary). With no sink installed
    /// (or a disabled one) this returns `None` immediately without
    /// computing or allocating anything.
    ///
    /// `resilience`, when present, is attached to the run summary.
    pub fn observe_trace(
        &self,
        trace: &WorldTrace,
        resilience: Option<ResilienceCounters>,
    ) -> Option<RunMetrics> {
        if !self.enabled() {
            return None;
        }
        let (sink, machine) = self.sink.get()?;
        let mut metrics = match RunMetrics::from_trace(trace, machine) {
            Ok(m) => m,
            // A malformed trace is the model's bug; telemetry reports
            // nothing rather than panicking the run.
            Err(_) => return None,
        };
        metrics.summary.resilience = resilience;
        for step in &metrics.steps {
            sink.record_step(step);
        }
        sink.record_run(&metrics.summary);
        Some(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::trace::Event;

    #[test]
    fn uninstalled_global_is_disabled_and_observes_nothing() {
        // Note: install() in another test in this *same binary* could race
        // this, so unit tests here never install; integration tests own
        // their own process each.
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::Flops(1.0),
            Event::PhaseEnd("step"),
        ]]);
        assert!(!telemetry().enabled());
        assert!(telemetry().observe_trace(&trace, None).is_none());
    }

    #[test]
    fn registry_is_shared() {
        registry().counter("lib.test").add(3);
        assert_eq!(registry().counter("lib.test").get(), 3);
    }
}
