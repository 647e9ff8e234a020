//! Streaming live-telemetry aggregation for served jobs.
//!
//! [`LiveCollector`] is the serving layer's in-memory observability state:
//! one collector per server, fed *incrementally* by [`TelemetrySink`]
//! events as jobs execute. Each job gets a [`JobSink`] handle (job id +
//! shared collector) wired into its `JobSpec`, so attempt starts,
//! checkpoint commits and the phases ranks close fold into the collector
//! as they happen, and the finished run arrives in one
//! [`record_finished`](TelemetrySink::record_finished) call.
//!
//! Two time domains are kept deliberately separate:
//!
//! * **wall/live** — per-phase wall-clock seconds accumulated from
//!   [`SpanObserver::phase_ended`] while the job runs. Approximate
//!   (threads share cores), but available *now* for a running job.
//! * **virtual/final** — the finished run's `RunSummary::phase_seconds`,
//!   stored as handed over, beside per-(rank, phase) virtual seconds and
//!   span counts the sink folds from the run's timeline.
//!
//! The collector also maintains windowed rollups: a ring of fixed-width
//! wall-clock windows, each accumulating per-phase seconds and per-tenant
//! completion counts, so `/v1/metrics` can show what the fleet did in the
//! last minute without replaying anything. Phases are keyed by their
//! `&'static str` names, so a phase end allocates nothing.

use crate::json::Value;
use crate::profile::{skew_report, ProfileReport};
use crate::run::RunSummary;
use crate::sink::TelemetrySink;
use crate::timeline::Timeline;
use crate::tracectx::TraceContext;
use agcm_mps::span::SpanObserver;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// One execution attempt of a job, as seen live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptView {
    /// Attempt index (0 = first).
    pub attempt: u64,
    /// Deterministic span context of this attempt (child of the root).
    pub span: TraceContext,
    /// Checkpoint step the attempt resumed from (`None` = cold start).
    pub resumed_from: Option<u64>,
}

/// Live state of one job.
#[derive(Debug, Clone, Default)]
struct JobLive {
    trace: Option<TraceContext>,
    tenant: String,
    attempts: Vec<AttemptView>,
    last_checkpoint_step: Option<u64>,
    /// Wall-clock seconds per phase, accumulated live.
    wall_phase: BTreeMap<&'static str, f64>,
    /// The finished run's max-over-ranks virtual seconds per phase.
    phases: Vec<(&'static str, f64)>,
    /// The finished run's virtual seconds and span counts per
    /// (rank, phase).
    rank_phase: BTreeMap<(usize, &'static str), (f64, u64)>,
    /// Steps the finished run computed (live progress comes from
    /// checkpoints).
    steps_recorded: u64,
    /// Virtual seconds of the finished run; `Some` once it finished.
    virt_seconds: Option<f64>,
    /// Wall-time profile with its skew join, delivered once when a
    /// profiled job completes.
    profile: Option<Value>,
}

/// One wall-clock rollup window.
#[derive(Debug, Clone, Default)]
struct Window {
    index: u64,
    phase_wall: BTreeMap<&'static str, f64>,
    tenant_finished: BTreeMap<String, u64>,
    tenant_attempts: BTreeMap<String, u64>,
}

/// Server-wide live telemetry state. Cheap to share (`Arc`), fed by
/// [`JobSink`] handles, read by the HTTP endpoints.
pub struct LiveCollector {
    epoch: Instant,
    window_secs: f64,
    keep_windows: usize,
    jobs: Mutex<HashMap<u64, JobLive>>,
    windows: Mutex<VecDeque<Window>>,
}

impl Default for LiveCollector {
    fn default() -> LiveCollector {
        LiveCollector::new()
    }
}

impl LiveCollector {
    /// 10-second windows, last 6 kept (one minute of rollups).
    pub fn new() -> LiveCollector {
        LiveCollector::with_windows(10.0, 6)
    }

    /// Custom rollup windowing.
    pub fn with_windows(window_secs: f64, keep_windows: usize) -> LiveCollector {
        LiveCollector {
            epoch: Instant::now(),
            window_secs: window_secs.max(0.001),
            keep_windows: keep_windows.max(1),
            jobs: Mutex::new(HashMap::new()),
            windows: Mutex::new(VecDeque::new()),
        }
    }

    /// Register a job the moment it is admitted, with its root span
    /// context and tenant label. Idempotent: re-registration after a
    /// journal-replay resubmit keeps the accumulated state.
    pub fn begin_job(&self, job: u64, trace: TraceContext, tenant: &str) {
        let mut jobs = self.jobs.lock();
        let entry = jobs.entry(job).or_default();
        entry.trace = Some(trace);
        if entry.tenant.is_empty() {
            entry.tenant = tenant.to_string();
        }
    }

    /// A sink handle that attributes records to `job`.
    pub fn sink(self: &Arc<Self>, job: u64) -> Arc<JobSink> {
        Arc::new(JobSink {
            collector: Arc::clone(self),
            job,
        })
    }

    /// Root span context of a job, if registered.
    pub fn trace_of(&self, job: u64) -> Option<TraceContext> {
        self.jobs.lock().get(&job).and_then(|j| j.trace)
    }

    /// Drop a job's live state (after terminal records are served it can
    /// be reaped by the caller's retention policy; the collector itself
    /// never forgets on its own).
    pub fn forget(&self, job: u64) {
        self.jobs.lock().remove(&job);
    }

    /// Number of jobs currently tracked.
    pub fn tracked_jobs(&self) -> usize {
        self.jobs.lock().len()
    }

    /// The wall-time profile of a job (with its skew join), once recorded.
    /// Served at `GET /v1/jobs/{id}/profile`; `None` while the job is
    /// still running, if profiling was not enabled for it, or if it
    /// failed or was cancelled (no successful trace to fold).
    pub fn job_profile(&self, job: u64) -> Option<Value> {
        let jobs = self.jobs.lock();
        let j = jobs.get(&job)?;
        let mut pairs = vec![("job", Value::Num(job as f64))];
        if let Some(t) = &j.trace {
            pairs.push(("trace", Value::Str(t.trace_hex())));
        }
        match &j.profile {
            Some(p) => pairs.push(("data", p.clone())),
            None => return None,
        }
        Some(Value::obj(pairs))
    }

    /// The live view served at `GET /v1/jobs/{id}/trace`: trace identity,
    /// attempts so far, last committed checkpoint, and the phase
    /// breakdown — virtual totals once finished, live wall accumulations
    /// while running.
    pub fn job_view(&self, job: u64) -> Option<Value> {
        let jobs = self.jobs.lock();
        let j = jobs.get(&job)?;
        let attempts = Value::Arr(
            j.attempts
                .iter()
                .map(|a| {
                    Value::obj(vec![
                        ("attempt", Value::Num(a.attempt as f64)),
                        ("span", Value::Str(a.span.span_hex())),
                        ("parent", Value::Str(format!("{:016x}", a.span.parent_span))),
                        (
                            "resumed_from",
                            match a.resumed_from {
                                Some(s) => Value::Num(s as f64),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        let (phases, domain): (Vec<(&str, f64)>, &str) = if !j.phases.is_empty() {
            (j.phases.clone(), "virtual")
        } else {
            (j.wall_phase.iter().map(|(p, s)| (*p, *s)).collect(), "wall")
        };
        let mut ranks: BTreeMap<usize, Vec<(&str, f64, u64)>> = BTreeMap::new();
        for (&(rank, phase), &(secs, spans)) in &j.rank_phase {
            ranks.entry(rank).or_default().push((phase, secs, spans));
        }
        let mut pairs = vec![
            ("job", Value::Num(job as f64)),
            (
                "trace",
                match &j.trace {
                    Some(t) => Value::Str(t.trace_hex()),
                    None => Value::Null,
                },
            ),
            (
                "root_span",
                match &j.trace {
                    Some(t) => Value::Str(t.span_hex()),
                    None => Value::Null,
                },
            ),
            ("tenant", Value::Str(j.tenant.clone())),
            (
                "current_attempt",
                Value::Num(j.attempts.last().map(|a| a.attempt as f64).unwrap_or(-1.0)),
            ),
            ("attempts", attempts),
            (
                "last_checkpoint_step",
                match j.last_checkpoint_step {
                    Some(s) => Value::Num(s as f64),
                    None => Value::Null,
                },
            ),
            ("steps_recorded", Value::Num(j.steps_recorded as f64)),
            ("finished", Value::Bool(j.virt_seconds.is_some())),
            ("phase_domain", Value::Str(domain.to_string())),
            (
                "phases",
                Value::Obj(
                    phases
                        .into_iter()
                        .map(|(p, s)| (p.to_string(), Value::Num(s)))
                        .collect(),
                ),
            ),
            (
                "ranks",
                Value::Arr(
                    ranks
                        .into_iter()
                        .map(|(rank, phases)| {
                            Value::obj(vec![
                                ("rank", Value::Num(rank as f64)),
                                (
                                    "phases",
                                    Value::Obj(
                                        phases
                                            .into_iter()
                                            .map(|(p, s, n)| {
                                                (
                                                    p.to_string(),
                                                    Value::obj(vec![
                                                        ("virt_seconds", Value::Num(s)),
                                                        ("spans", Value::Num(n as f64)),
                                                    ]),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(v) = j.virt_seconds {
            pairs.push(("virt_seconds", Value::Num(v)));
        }
        Some(Value::obj(pairs))
    }

    /// Windowed rollups: the retained windows, oldest first, each with
    /// per-phase wall seconds and per-tenant attempt/finish counts.
    pub fn rollup(&self) -> Value {
        let windows = self.windows.lock();
        Value::obj(vec![
            ("window_seconds", Value::Num(self.window_secs)),
            (
                "windows",
                Value::Arr(
                    windows
                        .iter()
                        .map(|w| {
                            Value::obj(vec![
                                ("index", Value::Num(w.index as f64)),
                                (
                                    "phase_wall_seconds",
                                    Value::Obj(
                                        w.phase_wall
                                            .iter()
                                            .map(|(p, s)| (p.to_string(), Value::Num(*s)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "tenant_attempts",
                                    Value::Obj(
                                        w.tenant_attempts
                                            .iter()
                                            .map(|(t, c)| (t.clone(), Value::Num(*c as f64)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "tenant_finished",
                                    Value::Obj(
                                        w.tenant_finished
                                            .iter()
                                            .map(|(t, c)| (t.clone(), Value::Num(*c as f64)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn window_mut<R>(&self, f: impl FnOnce(&mut Window) -> R) -> R {
        let index = (self.epoch.elapsed().as_secs_f64() / self.window_secs) as u64;
        let mut windows = self.windows.lock();
        let fresh = match windows.back() {
            Some(w) => w.index != index,
            None => true,
        };
        if fresh {
            windows.push_back(Window {
                index,
                ..Window::default()
            });
            while windows.len() > self.keep_windows {
                windows.pop_front();
            }
        }
        f(windows.back_mut().expect("window just ensured"))
    }

    fn with_job<R>(&self, job: u64, f: impl FnOnce(&mut JobLive) -> R) -> R {
        let mut jobs = self.jobs.lock();
        f(jobs.entry(job).or_default())
    }
}

/// Per-job sink handle: forwards every record into the shared collector,
/// stamped with the job id.
pub struct JobSink {
    collector: Arc<LiveCollector>,
    job: u64,
}

impl SpanObserver for JobSink {
    fn phase_ended(&self, _rank: usize, phase: &'static str, wall_seconds: f64) {
        self.collector.with_job(self.job, |j| {
            *j.wall_phase.entry(phase).or_insert(0.0) += wall_seconds;
        });
        self.collector.window_mut(|w| {
            *w.phase_wall.entry(phase).or_insert(0.0) += wall_seconds;
        });
    }
}

impl TelemetrySink for JobSink {
    fn record_attempt(&self, attempt: u64, resumed_from: Option<u64>) {
        let tenant = self.collector.with_job(self.job, |j| {
            // Attempt span ids derive from the root context; a job with no
            // registered trace (direct ensemble use) gets no span linkage
            // but still counts attempts, each under a span id of its own.
            let span = j
                .trace
                .map(|root| root.child(attempt))
                .unwrap_or(TraceContext {
                    trace_id: 0,
                    span_id: attempt + 1,
                    parent_span: 0,
                });
            if !j.attempts.iter().any(|a| a.attempt == attempt) {
                j.attempts.push(AttemptView {
                    attempt,
                    span,
                    resumed_from,
                });
            }
            j.tenant.clone()
        });
        self.collector.window_mut(|w| {
            *w.tenant_attempts.entry(tenant).or_insert(0) += 1;
        });
    }

    fn record_checkpoint(&self, step: u64) {
        self.collector.with_job(self.job, |j| {
            j.last_checkpoint_step = Some(j.last_checkpoint_step.map_or(step, |s| s.max(step)));
        });
    }

    fn record_finished(&self, summary: &RunSummary, timeline: &Timeline, profile: bool) {
        // Summed in span order, as the summary's per-rank fold
        // (`agcm_costmodel::replay::phase_seconds`) sums, so each rank's
        // totals reduce to `summary.phase_seconds` bit for bit.
        let mut rank_phase: BTreeMap<(usize, &'static str), (f64, u64)> = BTreeMap::new();
        for s in &timeline.spans {
            let (secs, spans) = rank_phase.entry((s.rank, s.name)).or_insert((0.0, 0));
            *secs += s.virt_duration();
            *spans += 1;
        }
        let profile = profile.then(|| {
            Value::obj(vec![
                ("profile", ProfileReport::from_timeline(timeline).to_json()),
                ("skew", skew_report(timeline).to_json()),
            ])
        });
        let tenant = self.collector.with_job(self.job, |j| {
            j.phases = summary.phase_seconds.clone();
            j.rank_phase = rank_phase;
            j.steps_recorded = summary.steps as u64;
            j.virt_seconds = Some(summary.virt_seconds);
            j.profile = profile;
            j.tenant.clone()
        });
        self.collector.window_mut(|w| {
            *w.tenant_finished.entry(tenant).or_insert(0) += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Span;
    use agcm_costmodel::machine::MachineProfile;
    use agcm_mps::trace::{Event, WorldTrace};

    fn collector() -> Arc<LiveCollector> {
        Arc::new(LiveCollector::new())
    }

    #[test]
    fn attempts_and_checkpoints_fold_into_the_view() {
        let c = collector();
        let root = TraceContext::new_root();
        c.begin_job(7, root, "alice");
        let sink = c.sink(7);
        sink.record_attempt(0, None);
        sink.record_checkpoint(4);
        sink.record_attempt(1, Some(4));
        sink.record_checkpoint(8);
        let view = c.job_view(7).unwrap();
        assert_eq!(
            view.get("trace").unwrap().as_str(),
            Some(&root.trace_hex()[..])
        );
        assert_eq!(view.get("current_attempt").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            view.get("last_checkpoint_step").unwrap().as_f64(),
            Some(8.0)
        );
        let attempts = view.get("attempts").unwrap().as_arr().unwrap();
        assert_eq!(attempts.len(), 2);
        // Attempt spans parent to the root span, deterministically.
        assert_eq!(
            attempts[1].get("span").unwrap().as_str(),
            Some(&root.child(1).span_hex()[..])
        );
        assert_eq!(
            attempts[1].get("parent").unwrap().as_str(),
            Some(&root.span_hex()[..])
        );
        assert_eq!(attempts[1].get("resumed_from").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn attempts_without_a_registered_trace_get_distinct_span_ids() {
        let c = collector();
        let sink = c.sink(5);
        sink.record_attempt(0, None);
        sink.record_attempt(1, Some(2));
        let view = c.job_view(5).unwrap();
        let spans: Vec<&str> = view
            .get("attempts")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|a| a.get("span").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0], spans[1]);
    }

    fn span(rank: usize, name: &'static str, virt: (f64, f64), wall: (f64, f64)) -> Span {
        Span {
            rank,
            name,
            depth: 0,
            virt_start: virt.0,
            virt_end: virt.1,
            wall_start: Some(wall.0),
            wall_end: Some(wall.1),
            begin_event: 0,
            end_event: 1,
        }
    }

    /// Two ranks, one `fd` span each: 1.5 and 2.0 virtual seconds.
    fn two_rank_timeline() -> Timeline {
        Timeline {
            spans: vec![
                span(0, "fd", (0.0, 1.5), (0.0, 2.0e-6)),
                span(1, "fd", (0.0, 2.0), (0.0, 3.0e-6)),
            ],
            finish_times: vec![1.5, 2.0],
        }
    }

    #[test]
    fn recorded_profile_is_served_with_trace_linkage() {
        let c = collector();
        let root = TraceContext::new_root();
        c.begin_job(3, root, "bob");
        let sink = c.sink(3);
        assert!(c.job_profile(3).is_none(), "no profile before recording");
        let timeline = two_rank_timeline();
        sink.record_finished(&RunSummary::default(), &timeline, true);
        let view = c.job_profile(3).unwrap();
        assert_eq!(
            view.get("trace").unwrap().as_str(),
            Some(&root.trace_hex()[..])
        );
        let data = view.get("data").unwrap();
        let total = ProfileReport::from_timeline(&timeline).total_nanos;
        assert!(total > 0);
        assert_eq!(
            data.get("profile")
                .and_then(|p| p.get("total_nanos"))
                .and_then(Value::as_f64),
            Some(total as f64)
        );
        assert!(data.get("skew").and_then(|s| s.get("rows")).is_some());
    }

    #[test]
    fn duplicate_attempt_events_are_idempotent() {
        let c = collector();
        c.begin_job(1, TraceContext::new_root(), "t");
        let sink = c.sink(1);
        sink.record_attempt(0, None);
        sink.record_attempt(0, None);
        let view = c.job_view(1).unwrap();
        assert_eq!(view.get("attempts").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn view_switches_from_wall_to_virtual_domain() {
        let c = collector();
        c.begin_job(2, TraceContext::new_root(), "t");
        let sink = c.sink(2);
        sink.phase_ended(0, "fd", 0.25);
        sink.phase_ended(1, "fd", 0.50);
        let view = c.job_view(2).unwrap();
        assert_eq!(view.get("phase_domain").unwrap().as_str(), Some("wall"));
        assert_eq!(
            view.get("phases").unwrap().get("fd").unwrap().as_f64(),
            Some(0.75)
        );
        // The finished run arrives: the view flips to virtual and serves
        // the summary's phase totals, with per-rank totals beside them.
        let summary = RunSummary {
            phase_seconds: vec![("fd", 2.0)],
            ..RunSummary::default()
        };
        sink.record_finished(&summary, &two_rank_timeline(), false);
        let view = c.job_view(2).unwrap();
        assert_eq!(view.get("phase_domain").unwrap().as_str(), Some("virtual"));
        assert_eq!(
            view.get("phases").unwrap().get("fd").unwrap().as_f64(),
            Some(2.0)
        );
        let ranks = view.get("ranks").unwrap().as_arr().unwrap();
        let fd = ranks[1].get("phases").unwrap().get("fd").unwrap();
        assert_eq!(fd.get("virt_seconds").unwrap().as_f64(), Some(2.0));
        assert_eq!(fd.get("spans").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn final_totals_match_run_summary_reduction_exactly() {
        // Sums whose rounding depends on their order: the per-rank totals
        // must be the timeline's own, and the view must serve the
        // summary's phase seconds bit for bit.
        let rank = |flops: &[f64]| {
            let mut evs = vec![Event::PhaseBegin("step")];
            for &f in flops {
                evs.push(Event::PhaseBegin("fd"));
                evs.push(Event::Flops(f));
                evs.push(Event::PhaseEnd("fd"));
                evs.push(Event::PhaseBegin("filter"));
                evs.push(Event::Flops(f / 3.0));
                evs.push(Event::PhaseEnd("filter"));
            }
            evs.push(Event::PhaseEnd("step"));
            evs
        };
        let trace = WorldTrace::from_ranks(vec![rank(&[0.1, 0.2, 0.3]), rank(&[0.3, 0.2, 0.1])]);
        let machine = MachineProfile {
            name: "test",
            flops_per_sec: 1.0,
            latency_s: 1.0e-3,
            bytes_per_sec: 1.0e6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        };
        let (summary, timeline) = RunSummary::from_trace_with_timeline(&trace, &machine).unwrap();
        let c = collector();
        c.begin_job(3, TraceContext::new_root(), "t");
        c.sink(3).record_finished(&summary, &timeline, false);
        let view = c.job_view(3).unwrap();
        let phases = view.get("phases").unwrap();
        assert_eq!(phases.as_obj().unwrap().len(), summary.phase_seconds.len());
        for &(phase, secs) in &summary.phase_seconds {
            let served = phases.get(phase).unwrap().as_f64().unwrap();
            assert_eq!(served.to_bits(), secs.to_bits(), "{phase}");
        }
        let secs = |s: &crate::timeline::Span| (s.rank, s.name, s.virt_duration());
        let per_rank = agcm_costmodel::replay::phase_seconds(2, timeline.spans.iter().map(secs));
        for (r, rank) in view
            .get("ranks")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .enumerate()
        {
            for (phase, secs) in &per_rank[r] {
                let served = rank.get("phases").unwrap().get(phase).unwrap();
                let served = served.get("virt_seconds").unwrap().as_f64().unwrap();
                assert_eq!(served.to_bits(), secs.to_bits(), "rank {r} {phase}");
            }
        }
        assert_eq!(view.get("steps_recorded").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            view.get("virt_seconds").unwrap().as_f64(),
            Some(summary.virt_seconds)
        );
    }

    #[test]
    fn rollup_windows_accumulate_and_rotate() {
        let c = Arc::new(LiveCollector::with_windows(0.001, 2));
        c.begin_job(4, TraceContext::new_root(), "alice");
        let sink = c.sink(4);
        sink.phase_ended(0, "physics", 1.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        sink.phase_ended(0, "physics", 2.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        sink.phase_ended(0, "physics", 4.0);
        let rollup = c.rollup();
        let windows = rollup.get("windows").unwrap().as_arr().unwrap();
        assert!(windows.len() <= 2, "ring keeps at most 2 windows");
        let total: f64 = windows
            .iter()
            .filter_map(|w| {
                w.get("phase_wall_seconds")
                    .and_then(|p| p.get("physics"))
                    .and_then(|v| v.as_f64())
            })
            .sum();
        // Oldest window (1.0) rotated out.
        assert!((4.0..=6.0).contains(&total), "total {total}");
    }

    #[test]
    fn forget_drops_job_state() {
        let c = collector();
        c.begin_job(9, TraceContext::new_root(), "t");
        assert_eq!(c.tracked_jobs(), 1);
        c.forget(9);
        assert_eq!(c.tracked_jobs(), 0);
        assert!(c.job_view(9).is_none());
    }
}
