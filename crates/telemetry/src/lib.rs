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
//! * [`sink`] — the [`TelemetrySink`] trait a served job's records and
//!   live events go to, and the in-memory [`MemorySink`] for tests;
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
//! ## One path from a trace to telemetry
//!
//! Nothing here is installed process-wide: a finished run's trace becomes
//! telemetry by one call, [`RunMetrics::from_trace`] (or
//! [`RunMetrics::from_trace_with_timeline`] when the caller also wants
//! the spans), which replays the trace once. Its callers decide where the
//! records go — `reproduce trace` writes them to files, the ensemble
//! scheduler feeds each job's own [`TelemetrySink`]. Only the
//! [`registry()`] of counters, gauges and histograms is global.

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
pub use sink::{MemorySink, TelemetrySink};
pub use timeline::{Span, Timeline};
pub use tracectx::TraceContext;

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The global metrics registry, always available.
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_shared() {
        registry().counter("lib.test").add(3);
        assert_eq!(registry().counter("lib.test").get(), 3);
    }
}
