//! Structured per-step and per-run metrics derived from a trace.
//!
//! This is the machine-readable form of the paper's §3.4 measurement
//! tables: for every model step, the virtual step time, per-phase seconds,
//! message/byte/flop counts per rank, and the load-imbalance metric
//! `(max − avg) / avg`; for the whole run, the same aggregated, plus
//! collective-call counts and optional resilience counters. Each record
//! serializes to one JSON line, so a run produces a `metrics.jsonl` stream
//! any downstream tool can consume.
//!
//! Steps are delimited by the `"step"` phase the model wraps around each
//! timestep; traces without `"step"` phases simply yield no step records.

use crate::analysis::{innermost_spans, message_flows, open_at, WaitReport};
use crate::json::Value;
use crate::timeline::{Span, Timeline};
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{phase_seconds, schedule};
use agcm_mps::trace::{imbalance, Event, PhaseFault, PhaseSpan, WorldTrace};
use std::ops::Range;

/// The phase name the model wraps around each timestep.
pub const STEP_PHASE: &str = "step";

/// Metrics for one model step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepMetrics {
    /// Step index (0-based).
    pub step: usize,
    /// Earliest virtual start of the step across ranks (s).
    pub virt_start: f64,
    /// Parallel (max-over-ranks) virtual duration of the step (s).
    pub virt_seconds: f64,
    /// Max-over-ranks virtual seconds per phase inside this step,
    /// sorted by name.
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// Messages sent by each rank during the step.
    pub messages: Vec<u64>,
    /// Bytes sent by each rank during the step.
    pub bytes: Vec<u64>,
    /// Flops recorded by each rank during the step.
    pub flops: Vec<f64>,
    /// `(max − avg) / avg` of per-rank flops within the step.
    pub flop_imbalance: f64,
    /// Per-phase flop imbalance within the step, sorted by name.
    pub phase_flop_imbalance: Vec<(&'static str, f64)>,
}

/// Resilience counters carried into the run summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Execution attempts (1 = clean run).
    pub attempts: u64,
    /// Failures that triggered recovery.
    pub failures: u64,
    /// Injected fault events observed.
    pub fault_events: u64,
}

/// Whole-run aggregate metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Number of ranks.
    pub ranks: usize,
    /// Number of `"step"` phases found (on the busiest rank).
    pub steps: usize,
    /// Virtual wall time of the run — the slowest rank (s).
    pub virt_seconds: f64,
    /// Total messages sent.
    pub total_messages: u64,
    /// Total bytes sent.
    pub total_bytes: u64,
    /// Total flops recorded.
    pub total_flops: f64,
    /// Whole-run flop imbalance — identical to
    /// [`WorldTrace::flop_imbalance`].
    pub flop_imbalance: f64,
    /// Max-over-ranks virtual seconds per phase, sorted by name.
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// Per-phase flop imbalance across the whole run, sorted by name.
    pub phase_flop_imbalance: Vec<(&'static str, f64)>,
    /// Total collective-primitive calls across ranks, sorted by name.
    pub collectives: Vec<(String, u64)>,
    /// Per-rank late-sender wait seconds (see [`WaitReport`]).
    pub wait_seconds: Vec<f64>,
    /// `(max − avg) / avg` of per-rank idle time (wait + end-of-run tail)
    /// — the idle-side analogue of `flop_imbalance`.
    pub idle_imbalance: f64,
    /// Resilience counters, when the run went through the recovery driver.
    pub resilience: Option<ResilienceCounters>,
}

/// Everything derived from one traced run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-step records, in step order.
    pub steps: Vec<StepMetrics>,
    /// The run summary.
    pub summary: RunSummary,
}

impl Default for RunSummary {
    fn default() -> RunSummary {
        RunSummary {
            ranks: 0,
            steps: 0,
            virt_seconds: 0.0,
            total_messages: 0,
            total_bytes: 0,
            total_flops: 0.0,
            flop_imbalance: 0.0,
            phase_seconds: Vec::new(),
            phase_flop_imbalance: Vec::new(),
            collectives: Vec::new(),
            wait_seconds: Vec::new(),
            idle_imbalance: 0.0,
            resilience: None,
        }
    }
}

/// Flops of a rank's events `range`, attributed (inclusively) to each
/// phase open at them that began inside `range`, except phases named
/// `skip` (the enclosing `"step"`). `innermost` is the rank's row of
/// [`innermost_spans`].
fn phase_flops(
    events: &[Event],
    innermost: &[Option<usize>],
    spans: &[PhaseSpan],
    range: Range<usize>,
    skip: Option<&str>,
) -> Vec<(&'static str, f64)> {
    let mut acc: Vec<(&'static str, f64)> = Vec::new();
    let first = range.start;
    for i in range {
        let Event::Flops(f) = events[i] else { continue };
        let open = open_at(innermost, spans, i).take_while(|s| s.begin_event >= first);
        for s in open.filter(|s| Some(s.name) != skip) {
            match acc.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, sum)) => *sum += f,
                None => acc.push((s.name, f)),
            }
        }
    }
    acc
}

/// Merge per-rank `(name, value)` lists into per-phase per-rank vectors and
/// reduce each phase with `reduce` over a dense `[f64; ranks]` (missing
/// entries are 0). Output is sorted by name.
fn per_phase<'a>(
    per_rank: &[Vec<(&'static str, f64)>],
    reduce: impl Fn(&[f64]) -> f64 + 'a,
) -> Vec<(&'static str, f64)> {
    let mut names: Vec<&'static str> = Vec::new();
    for list in per_rank {
        for (n, _) in list {
            if !names.contains(n) {
                names.push(n);
            }
        }
    }
    names.sort_unstable();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = per_rank
                .iter()
                .map(|list| {
                    list.iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                        .unwrap_or(0.0)
                })
                .collect();
            (name, reduce(&values))
        })
        .collect()
}

impl RunMetrics {
    /// Derive all metrics from a trace by replaying it against `machine`.
    pub fn from_trace(
        trace: &WorldTrace,
        machine: &MachineProfile,
    ) -> Result<RunMetrics, Vec<PhaseFault>> {
        RunMetrics::from_trace_with_timeline(trace, machine).map(|(m, _)| m)
    }

    /// Like [`from_trace`](RunMetrics::from_trace), but also hands back the
    /// [`Timeline`] the metrics were derived from, so callers that need
    /// span-level data (a Chrome trace, a wall-time profile) get it from
    /// the same replay: [`RunSummary::from_trace_with_timeline`] followed
    /// by the per-step fold.
    pub fn from_trace_with_timeline(
        trace: &WorldTrace,
        machine: &MachineProfile,
    ) -> Result<(RunMetrics, Timeline), Vec<PhaseFault>> {
        let spans = trace.spans()?;
        let innermost = innermost_spans(trace, &spans);
        let (summary, timeline) = RunSummary::derive(trace, &spans, &innermost, machine);
        let steps = StepMetrics::fold(trace, &spans, &innermost, &timeline);
        Ok((RunMetrics { steps, summary }, timeline))
    }
}

impl StepMetrics {
    /// One record per `"step"` phase of a trace, in step order, measured
    /// on its timeline (`paired` are the trace's [`WorldTrace::spans`],
    /// `innermost` their [`innermost_spans`]). Each rank's spans are
    /// walked once: the spans inside a step are the ones that follow it
    /// in begin order and begin before it ends.
    pub(crate) fn fold(
        trace: &WorldTrace,
        paired: &[PhaseSpan],
        innermost: &[Vec<Option<usize>>],
        timeline: &Timeline,
    ) -> Vec<StepMetrics> {
        let n = trace.size();
        let mut rank_spans: Vec<Vec<&Span>> = vec![Vec::new(); n];
        for s in &timeline.spans {
            rank_spans[s.rank].push(s);
        }
        // Per-rank positions of the "step" spans, in order.
        let step_at: Vec<Vec<usize>> = rank_spans
            .iter()
            .map(|spans| {
                (0..spans.len())
                    .filter(|&i| spans[i].name == STEP_PHASE)
                    .collect()
            })
            .collect();
        let n_steps = step_at.iter().map(Vec::len).max().unwrap_or(0);

        let mut steps = Vec::with_capacity(n_steps);
        for k in 0..n_steps {
            let spans: Vec<Option<&Span>> = (0..n)
                .map(|r| step_at[r].get(k).map(|&i| rank_spans[r][i]))
                .collect();
            let virt_start = spans
                .iter()
                .flatten()
                .map(|s| s.virt_start)
                .fold(f64::INFINITY, f64::min);
            let virt_seconds = spans
                .iter()
                .flatten()
                .map(|s| s.virt_duration())
                .fold(0.0, f64::max);

            let mut messages = vec![0u64; n];
            let mut bytes = vec![0u64; n];
            let mut flops = vec![0f64; n];
            let mut rank_phase_flops: Vec<Vec<(&'static str, f64)>> = vec![Vec::new(); n];
            let mut rank_phase_secs: Vec<Vec<(&'static str, f64)>> = vec![Vec::new(); n];
            for (r, span) in spans.iter().enumerate() {
                let Some(span) = span else { continue };
                let (evs, range) = (&trace.ranks[r], span.begin_event..span.end_event + 1);
                for ev in &evs[range.clone()] {
                    match *ev {
                        Event::Send { bytes: b, .. } => {
                            messages[r] += 1;
                            bytes[r] += b as u64;
                        }
                        Event::Flops(f) => flops[r] += f,
                        _ => {}
                    }
                }
                rank_phase_flops[r] =
                    phase_flops(evs, &innermost[r], paired, range, Some(STEP_PHASE));
                let inside = rank_spans[r][step_at[r][k] + 1..]
                    .iter()
                    .take_while(|s| s.begin_event < span.end_event);
                for s in inside {
                    match rank_phase_secs[r].iter_mut().find(|(nm, _)| *nm == s.name) {
                        Some((_, acc)) => *acc += s.virt_duration(),
                        None => rank_phase_secs[r].push((s.name, s.virt_duration())),
                    }
                }
            }

            steps.push(StepMetrics {
                step: k,
                virt_start: if virt_start.is_finite() {
                    virt_start
                } else {
                    0.0
                },
                virt_seconds,
                phase_seconds: per_phase(&rank_phase_secs, |v| {
                    v.iter().copied().fold(0.0, f64::max)
                }),
                flop_imbalance: imbalance(&flops),
                phase_flop_imbalance: per_phase(&rank_phase_flops, imbalance),
                messages,
                bytes,
                flops,
            });
        }
        steps
    }
}

impl RunSummary {
    /// Pair and replay `trace` once against `machine`, and derive the run
    /// summary and the [`Timeline`] of its spans — everything a served job
    /// reports, without the per-step records.
    pub fn from_trace_with_timeline(
        trace: &WorldTrace,
        machine: &MachineProfile,
    ) -> Result<(RunSummary, Timeline), Vec<PhaseFault>> {
        let spans = trace.spans()?;
        let innermost = innermost_spans(trace, &spans);
        Ok(RunSummary::derive(trace, &spans, &innermost, machine))
    }

    /// Replay `trace` (whose [`WorldTrace::spans`] are `spans`, with
    /// [`innermost_spans`] `innermost`) and fold it, its timeline and its
    /// wait report into the whole-run aggregates.
    fn derive(
        trace: &WorldTrace,
        spans: &[PhaseSpan],
        innermost: &[Vec<Option<usize>>],
        machine: &MachineProfile,
    ) -> (RunSummary, Timeline) {
        let sched = schedule(trace, machine);
        let timeline = Timeline::from_schedule(trace, spans, &sched);
        let flows = message_flows(trace, &sched, machine);
        let waits = WaitReport::from_flows(trace, spans, innermost, &sched, &flows, machine);
        let n = trace.size();
        let mut steps_per_rank = vec![0usize; n];
        for s in timeline.spans.iter().filter(|s| s.name == STEP_PHASE) {
            steps_per_rank[s.rank] += 1;
        }
        let stats = trace.stats();
        let secs = |s: &Span| (s.rank, s.name, s.virt_duration());
        let rank_phase_secs: Vec<Vec<(&'static str, f64)>> =
            phase_seconds(n, timeline.spans.iter().map(secs))
                .into_iter()
                .map(|m| m.into_iter().collect())
                .collect();
        let rank_phase_flops: Vec<Vec<(&'static str, f64)>> = (trace.ranks.iter().zip(innermost))
            .map(|(evs, inner)| phase_flops(evs, inner, spans, 0..evs.len(), None))
            .collect();
        let mut collectives: Vec<(String, u64)> = Vec::new();
        for rank in &trace.collectives {
            for (name, count) in rank {
                match collectives.iter_mut().find(|(n, _)| n == name) {
                    Some((_, c)) => *c += count,
                    None => collectives.push((name.to_string(), *count)),
                }
            }
        }
        collectives.sort_by(|a, b| a.0.cmp(&b.0));

        let summary = RunSummary {
            ranks: n,
            steps: steps_per_rank.into_iter().max().unwrap_or(0),
            virt_seconds: timeline.total_time(),
            total_messages: stats.iter().map(|s| s.sends as u64).sum(),
            total_bytes: stats.iter().map(|s| s.bytes_sent as u64).sum(),
            total_flops: stats.iter().map(|s| s.flops).sum(),
            flop_imbalance: trace.flop_imbalance(),
            phase_seconds: per_phase(&rank_phase_secs, |v| v.iter().copied().fold(0.0, f64::max)),
            phase_flop_imbalance: per_phase(&rank_phase_flops, imbalance),
            collectives,
            wait_seconds: waits.ranks.iter().map(|r| r.wait).collect(),
            idle_imbalance: waits.idle_imbalance(),
            resilience: None,
        };
        (summary, timeline)
    }
}

fn named_f64s(pairs: &[(&'static str, f64)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|&(n, v)| (n.to_string(), Value::Num(v)))
            .collect(),
    )
}

impl StepMetrics {
    /// One `metrics.jsonl` record: `{"kind":"step", ...}`.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("kind", Value::Str("step".into())),
            ("step", Value::Num(self.step as f64)),
            ("virt_start", Value::Num(self.virt_start)),
            ("virt_seconds", Value::Num(self.virt_seconds)),
            ("phase_seconds", named_f64s(&self.phase_seconds)),
            (
                "messages",
                Value::Arr(
                    self.messages
                        .iter()
                        .map(|&m| Value::Num(m as f64))
                        .collect(),
                ),
            ),
            (
                "bytes",
                Value::Arr(self.bytes.iter().map(|&b| Value::Num(b as f64)).collect()),
            ),
            (
                "flops",
                Value::Arr(self.flops.iter().map(|&f| Value::Num(f)).collect()),
            ),
            ("flop_imbalance", Value::Num(self.flop_imbalance)),
            (
                "phase_flop_imbalance",
                named_f64s(&self.phase_flop_imbalance),
            ),
        ])
    }
}

impl RunSummary {
    /// One `metrics.jsonl` record: `{"kind":"run", ...}`.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("kind", Value::Str("run".into())),
            ("ranks", Value::Num(self.ranks as f64)),
            ("steps", Value::Num(self.steps as f64)),
            ("virt_seconds", Value::Num(self.virt_seconds)),
            ("total_messages", Value::Num(self.total_messages as f64)),
            ("total_bytes", Value::Num(self.total_bytes as f64)),
            ("total_flops", Value::Num(self.total_flops)),
            ("flop_imbalance", Value::Num(self.flop_imbalance)),
            ("phase_seconds", named_f64s(&self.phase_seconds)),
            (
                "phase_flop_imbalance",
                named_f64s(&self.phase_flop_imbalance),
            ),
            (
                "collectives",
                Value::Obj(
                    self.collectives
                        .iter()
                        .map(|(n, c)| (n.clone(), Value::Num(*c as f64)))
                        .collect(),
                ),
            ),
            (
                "wait_seconds",
                Value::Arr(self.wait_seconds.iter().map(|&w| Value::Num(w)).collect()),
            ),
            ("idle_imbalance", Value::Num(self.idle_imbalance)),
        ];
        if let Some(res) = &self.resilience {
            pairs.push((
                "resilience",
                Value::obj(vec![
                    ("attempts", Value::Num(res.attempts as f64)),
                    ("failures", Value::Num(res.failures as f64)),
                    ("fault_events", Value::Num(res.fault_events as f64)),
                ]),
            ));
        }
        Value::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineProfile {
        MachineProfile {
            name: "test",
            flops_per_sec: 1.0e6,
            latency_s: 1.0e-3,
            bytes_per_sec: 1.0e6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        }
    }

    fn stepped_trace() -> WorldTrace {
        // Two ranks, two steps; rank 1 does 3x the flops of rank 0 in
        // "physics" during step 0.
        let rank = |scale: f64| {
            let mut evs = Vec::new();
            for _ in 0..2 {
                evs.push(Event::PhaseBegin("step"));
                evs.push(Event::PhaseBegin("dynamics"));
                evs.push(Event::Flops(1.0e6));
                evs.push(Event::PhaseEnd("dynamics"));
                evs.push(Event::PhaseBegin("physics"));
                evs.push(Event::Flops(scale * 1.0e6));
                evs.push(Event::PhaseEnd("physics"));
                evs.push(Event::PhaseEnd("step"));
            }
            evs
        };
        WorldTrace::from_ranks(vec![rank(1.0), rank(3.0)])
    }

    /// The per-step fold before the cursor walk: every step filters every
    /// span of its rank. Kept as the oracle for [`StepMetrics::fold`].
    fn fold_reference(trace: &WorldTrace, timeline: &Timeline) -> Vec<StepMetrics> {
        let n = trace.size();
        let paired = trace.spans().unwrap();
        let innermost = innermost_spans(trace, &paired);
        let rank_spans = |r: usize| timeline.spans.iter().filter(move |s| s.rank == r);
        let step_spans: Vec<Vec<&Span>> = (0..n)
            .map(|r| rank_spans(r).filter(|s| s.name == STEP_PHASE).collect())
            .collect();
        let n_steps = step_spans.iter().map(|v| v.len()).max().unwrap_or(0);
        let mut steps = Vec::with_capacity(n_steps);
        for k in 0..n_steps {
            let spans: Vec<Option<&&Span>> = step_spans.iter().map(|v| v.get(k)).collect();
            let virt_start = spans
                .iter()
                .flatten()
                .map(|s| s.virt_start)
                .fold(f64::INFINITY, f64::min);
            let virt_seconds = spans
                .iter()
                .flatten()
                .map(|s| s.virt_duration())
                .fold(0.0, f64::max);
            let mut messages = vec![0u64; n];
            let mut bytes = vec![0u64; n];
            let mut flops = vec![0f64; n];
            let mut rank_phase_flops: Vec<Vec<(&'static str, f64)>> = vec![Vec::new(); n];
            let mut rank_phase_secs: Vec<Vec<(&'static str, f64)>> = vec![Vec::new(); n];
            for (r, span) in spans.iter().enumerate() {
                let Some(span) = span else { continue };
                let (evs, range) = (&trace.ranks[r], span.begin_event..span.end_event + 1);
                for ev in &evs[range.clone()] {
                    match *ev {
                        Event::Send { bytes: b, .. } => {
                            messages[r] += 1;
                            bytes[r] += b as u64;
                        }
                        Event::Flops(f) => flops[r] += f,
                        _ => {}
                    }
                }
                rank_phase_flops[r] =
                    phase_flops(evs, &innermost[r], &paired, range, Some(STEP_PHASE));
                for s in rank_spans(r).filter(|s| span.contains(s)) {
                    match rank_phase_secs[r].iter_mut().find(|(nm, _)| *nm == s.name) {
                        Some((_, acc)) => *acc += s.virt_duration(),
                        None => rank_phase_secs[r].push((s.name, s.virt_duration())),
                    }
                }
            }
            steps.push(StepMetrics {
                step: k,
                virt_start: if virt_start.is_finite() {
                    virt_start
                } else {
                    0.0
                },
                virt_seconds,
                phase_seconds: per_phase(&rank_phase_secs, |v| {
                    v.iter().copied().fold(0.0, f64::max)
                }),
                flop_imbalance: imbalance(&flops),
                phase_flop_imbalance: per_phase(&rank_phase_flops, imbalance),
                messages,
                bytes,
                flops,
            });
        }
        steps
    }

    /// `steps` steps on two ranks that trade halos in "dynamics", call a
    /// nested "filter" twice per step and run uneven "physics".
    fn exchanging_trace(steps: u64) -> WorldTrace {
        let rank = |me: usize| {
            let other = 1 - me;
            let mut evs = Vec::new();
            let mut seq = 0;
            for k in 0..steps {
                let work = 1.0e5 * (1.0 + ((k * 7 + me as u64 * 3) % 11) as f64 / 10.0);
                evs.push(Event::PhaseBegin("step"));
                evs.push(Event::PhaseBegin("dynamics"));
                evs.push(Event::Flops(work));
                for _ in 0..2 {
                    evs.push(Event::PhaseBegin("filter"));
                    evs.push(Event::Flops(work / 3.0));
                    let bytes = 1024 * (1 + (k as usize % 5));
                    evs.push(Event::Send {
                        to: other,
                        bytes,
                        seq,
                    });
                    evs.push(Event::Recv {
                        from: other,
                        bytes,
                        seq,
                    });
                    seq += 1;
                    evs.push(Event::PhaseEnd("filter"));
                }
                evs.push(Event::PhaseEnd("dynamics"));
                evs.push(Event::PhaseBegin("physics"));
                evs.push(Event::Flops(work * (1.0 + me as f64)));
                evs.push(Event::PhaseEnd("physics"));
                evs.push(Event::PhaseEnd("step"));
            }
            evs
        };
        WorldTrace::from_ranks(vec![rank(0), rank(1)])
    }

    #[test]
    fn step_fold_matches_the_per_step_filter_bit_for_bit() {
        let trace = exchanging_trace(80);
        let (_, timeline) = RunSummary::from_trace_with_timeline(&trace, &machine()).unwrap();
        let spans = trace.spans().unwrap();
        let got = StepMetrics::fold(&trace, &spans, &innermost_spans(&trace, &spans), &timeline);
        let want = fold_reference(&trace, &timeline);
        assert_eq!(got.len(), 80);
        assert!(got[0].phase_seconds.iter().any(|(n, _)| *n == "filter"));
        // Debug prints every f64 exactly, and tells -0.0 from 0.0.
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn steps_are_sliced_and_measured() {
        let trace = stepped_trace();
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        assert_eq!(m.steps.len(), 2);
        let s0 = &m.steps[0];
        // Rank 1: 1 s dynamics + 3 s physics = 4 s per step.
        assert!((s0.virt_seconds - 4.0).abs() < 1e-12);
        assert_eq!(s0.flops, vec![2.0e6, 4.0e6]);
        // (4e6 - 3e6) / 3e6 = 1/3.
        assert!((s0.flop_imbalance - 1.0 / 3.0).abs() < 1e-12);
        // physics imbalance within the step: (3 - 2) / 2 = 0.5.
        let physics = s0
            .phase_flop_imbalance
            .iter()
            .find(|(n, _)| *n == "physics")
            .unwrap();
        assert!((physics.1 - 0.5).abs() < 1e-12);
        // dynamics is balanced.
        let dynamics = s0
            .phase_flop_imbalance
            .iter()
            .find(|(n, _)| *n == "dynamics")
            .unwrap();
        assert!(dynamics.1.abs() < 1e-12);
        // Step 1 starts after step 0 on the earliest rank (rank 0: 2 s).
        assert!((m.steps[1].virt_start - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_flop_imbalance_matches_world_trace_exactly() {
        let trace = stepped_trace();
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        assert!((m.summary.flop_imbalance - trace.flop_imbalance()).abs() < 1e-9);
        assert_eq!(m.summary.steps, 2);
        assert_eq!(m.summary.ranks, 2);
        assert_eq!(m.summary.total_flops, 12.0e6);
    }

    #[test]
    fn summary_phase_seconds_match_costmodel_replay() {
        let trace = stepped_trace();
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        let replay = agcm_costmodel::replay::replay(&trace, &machine());
        for (name, secs) in &m.summary.phase_seconds {
            assert!(
                (secs - replay.phase_time(name)).abs() < 1e-12,
                "{name}: {secs} vs {}",
                replay.phase_time(name)
            );
        }
    }

    #[test]
    fn messages_and_collectives_aggregate() {
        let mut trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("step"),
                Event::Send {
                    to: 1,
                    bytes: 100,
                    seq: 0,
                },
                Event::PhaseEnd("step"),
            ],
            vec![
                Event::PhaseBegin("step"),
                Event::Recv {
                    from: 0,
                    bytes: 100,
                    seq: 0,
                },
                Event::PhaseEnd("step"),
            ],
        ]);
        trace.collectives = vec![vec![("barrier", 2)], vec![("barrier", 2), ("bcast", 1)]];
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        assert_eq!(m.steps[0].messages, vec![1, 0]);
        assert_eq!(m.steps[0].bytes, vec![100, 0]);
        assert_eq!(m.summary.total_messages, 1);
        assert_eq!(m.summary.total_bytes, 100);
        assert_eq!(
            m.summary.collectives,
            vec![("barrier".to_string(), 4), ("bcast".to_string(), 1)]
        );
    }

    #[test]
    fn wait_metrics_flow_into_the_summary() {
        // Rank 1 stalls ~3 s on rank 0's late send.
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("step"),
                Event::Flops(3.0e6),
                Event::Send {
                    to: 1,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("step"),
            ],
            vec![
                Event::PhaseBegin("step"),
                Event::Recv {
                    from: 0,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("step"),
            ],
        ]);
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        assert_eq!(m.summary.wait_seconds.len(), 2);
        assert_eq!(m.summary.wait_seconds[0], 0.0);
        assert!(m.summary.wait_seconds[1] > 2.9);
        assert!(m.summary.idle_imbalance > 0.0);
        let json = m.summary.to_json().to_string();
        let parsed = Value::parse(&json).unwrap();
        assert_eq!(
            parsed.get("wait_seconds").unwrap().as_arr().unwrap().len(),
            2
        );
        assert!(parsed.get("idle_imbalance").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn traces_without_steps_yield_no_step_records() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("dynamics"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("dynamics"),
        ]]);
        let m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        assert!(m.steps.is_empty());
        assert_eq!(m.summary.steps, 0);
        assert_eq!(m.summary.phase_seconds.len(), 1);
    }

    #[test]
    fn json_records_round_trip() {
        let trace = stepped_trace();
        let mut m = RunMetrics::from_trace(&trace, &machine()).unwrap();
        m.summary.resilience = Some(ResilienceCounters {
            attempts: 2,
            failures: 1,
            fault_events: 3,
        });
        let step_line = m.steps[0].to_json().to_string();
        let parsed = Value::parse(&step_line).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("step"));
        assert_eq!(parsed.get("flops").unwrap().as_arr().unwrap().len(), 2);
        let run_line = m.summary.to_json().to_string();
        let parsed = Value::parse(&run_line).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("run"));
        assert_eq!(
            parsed
                .get("resilience")
                .unwrap()
                .get("failures")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert!(
            (parsed.get("flop_imbalance").unwrap().as_f64().unwrap() - trace.flop_imbalance())
                .abs()
                < 1e-9
        );
    }
}
