//! Span timelines from phase events.
//!
//! `agcm-costmodel`'s replay answers "how many seconds does each phase
//! cost?"; this module answers "*when* does each phase run on each rank?".
//! It takes the closed phases [`WorldTrace::spans`] pairs and the replay's
//! per-event [`EventSchedule`] — per-rank virtual clocks, receives bound by
//! the matching send's simulated arrival — and gives each phase a [`Span`]
//! with virtual start/end timestamps. When the trace carries wall-clock stamps
//! (recorded runs do), each span also carries the real start/end on *this*
//! machine, so a timeline viewer can show both tracks side by side.

use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{schedule, EventSchedule};
use agcm_mps::trace::{PhaseFault, PhaseSpan, WorldTrace};

/// One phase execution on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// World rank the span ran on.
    pub rank: usize,
    /// Phase name.
    pub name: &'static str,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Virtual (cost-model) start time, seconds.
    pub virt_start: f64,
    /// Virtual (cost-model) end time, seconds.
    pub virt_end: f64,
    /// Wall-clock start (seconds since the run epoch), when recorded.
    pub wall_start: Option<f64>,
    /// Wall-clock end (seconds since the run epoch), when recorded.
    pub wall_end: Option<f64>,
    /// Index of the `PhaseBegin` event in the rank's stream.
    pub begin_event: usize,
    /// Index of the matching `PhaseEnd` event in the rank's stream.
    pub end_event: usize,
}

impl Span {
    /// Virtual duration, seconds.
    pub fn virt_duration(&self) -> f64 {
        self.virt_end - self.virt_start
    }

    /// Whether `other` is strictly nested inside this span (same rank,
    /// event range contained).
    pub fn contains(&self, other: &Span) -> bool {
        self.rank == other.rank
            && self.begin_event < other.begin_event
            && other.end_event < self.end_event
    }
}

/// All spans of a run, plus per-rank virtual finish times.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Spans sorted by `(rank, begin_event)`.
    pub spans: Vec<Span>,
    /// Virtual finish time of each rank.
    pub finish_times: Vec<f64>,
}

impl Timeline {
    /// Build the timeline by replaying `trace` against `machine`.
    ///
    /// Pairs the phase events first and reports every fault instead of
    /// panicking mid-replay.
    pub fn from_trace(
        trace: &WorldTrace,
        machine: &MachineProfile,
    ) -> Result<Timeline, Vec<PhaseFault>> {
        let (spans, sched) = (trace.spans()?, schedule(trace, machine));
        Ok(Timeline::from_schedule(trace, &spans, &sched))
    }

    /// Build the timeline from the trace's [`WorldTrace::spans`] and an
    /// already-computed replay schedule: each span gets its virtual times
    /// and, when the trace has them, its wall stamps.
    pub fn from_schedule(
        trace: &WorldTrace,
        spans: &[PhaseSpan],
        sched: &EventSchedule,
    ) -> Timeline {
        let wall = |r: usize, k: usize| trace.walls.get(r).and_then(|w| w.get(k)).copied();
        let mut spans: Vec<Span> = spans
            .iter()
            .map(|s| Span {
                rank: s.rank,
                name: s.name,
                depth: s.depth,
                virt_start: sched.times[s.rank][s.begin_event].end,
                virt_end: sched.times[s.rank][s.end_event].end,
                wall_start: wall(s.rank, s.begin_wall),
                wall_end: wall(s.rank, s.end_wall),
                begin_event: s.begin_event,
                end_event: s.end_event,
            })
            .collect();
        spans.sort_by_key(|s| (s.rank, s.begin_event));
        Timeline {
            spans,
            finish_times: sched.finish_times.clone(),
        }
    }

    /// The slowest rank's virtual finish time.
    pub fn total_time(&self) -> f64 {
        self.finish_times.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::trace::Event;

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

    #[test]
    fn spans_get_virtual_timestamps() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("dynamics"),
            Event::Flops(2.0e6),
            Event::PhaseEnd("dynamics"),
            Event::PhaseBegin("physics"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("physics"),
        ]]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        assert_eq!(tl.spans.len(), 2);
        let d = &tl.spans[0];
        assert_eq!(
            (d.name, d.virt_start, d.virt_end, d.depth),
            ("dynamics", 0.0, 2.0, 0)
        );
        let p = &tl.spans[1];
        assert_eq!((p.name, p.virt_start, p.virt_end), ("physics", 2.0, 3.0));
        assert_eq!(tl.total_time(), 3.0);
    }

    #[test]
    fn nested_spans_have_depth_and_containment() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("outer"),
            Event::Flops(1.0e6),
            Event::PhaseBegin("inner"),
            Event::Flops(2.0e6),
            Event::PhaseEnd("inner"),
            Event::PhaseEnd("outer"),
        ]]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let outer = tl.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = tl.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.contains(inner));
        assert!(!inner.contains(outer));
        assert!(outer.virt_start <= inner.virt_start && inner.virt_end <= outer.virt_end);
    }

    #[test]
    fn communication_shifts_spans() {
        // Rank 1's phase cannot end before rank 0's send arrives.
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::Flops(1.0e6),
                Event::Send {
                    to: 1,
                    bytes: 1_000_000,
                    seq: 0,
                },
            ],
            vec![
                Event::PhaseBegin("halo"),
                Event::Recv {
                    from: 0,
                    bytes: 1_000_000,
                    seq: 0,
                },
                Event::PhaseEnd("halo"),
            ],
        ]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let halo = &tl.spans[0];
        assert_eq!(halo.rank, 1);
        assert!((halo.virt_end - 2.001).abs() < 1e-12);
    }

    #[test]
    fn wall_stamps_flow_into_spans() {
        let mut trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::PhaseEnd("step"),
        ]]);
        trace.walls = vec![vec![0.25, 0.75]];
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        assert_eq!(tl.spans[0].wall_start, Some(0.25));
        assert_eq!(tl.spans[0].wall_end, Some(0.75));
    }

    #[test]
    fn unbalanced_trace_is_rejected() {
        let trace = WorldTrace::from_ranks(vec![vec![Event::PhaseEnd("ghost")]]);
        assert!(Timeline::from_trace(&trace, &machine()).is_err());
    }

    #[test]
    fn phase_seconds_match_costmodel_accounting() {
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("filter"),
                Event::Flops(1.0e6),
                Event::PhaseEnd("filter"),
                Event::PhaseBegin("filter"),
                Event::Flops(1.5e6),
                Event::PhaseEnd("filter"),
            ],
            vec![
                Event::PhaseBegin("filter"),
                Event::Flops(0.5e6),
                Event::PhaseEnd("filter"),
            ],
        ]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let replay = agcm_costmodel::replay::replay(&trace, &machine());
        let secs = tl.spans.iter().map(|s| (s.rank, s.name, s.virt_duration()));
        let per_rank = agcm_costmodel::replay::phase_seconds(2, secs);
        for (r, rank_phases) in per_rank.iter().enumerate() {
            let ours = rank_phases.get("filter").copied().unwrap_or(0.0);
            let theirs = replay.phase_times[r].get("filter").copied().unwrap_or(0.0);
            assert!(
                (ours - theirs).abs() < 1e-12,
                "rank {r}: {ours} vs {theirs}"
            );
        }
    }
}
