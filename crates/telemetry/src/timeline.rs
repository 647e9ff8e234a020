//! Span timelines from phase events.
//!
//! `agcm-costmodel`'s replay answers "how many seconds does each phase
//! cost?"; this module answers "*when* does each phase run on each rank?".
//! It takes the replay's per-event [`EventSchedule`] — per-rank virtual
//! clocks, receives bound by the matching send's simulated arrival — and
//! folds it into one [`Span`] per `PhaseBegin`/`PhaseEnd` pair, with
//! virtual start/end timestamps. When the trace carries wall-clock stamps
//! (recorded runs do), each span also carries the real start/end on *this*
//! machine, so a timeline viewer can show both tracks side by side.

use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{schedule, EventSchedule};
use agcm_mps::trace::{Event, PhaseFault, WorldTrace};
use std::collections::HashMap;

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
    /// Validates phase balance first and reports every fault instead of
    /// panicking mid-replay.
    pub fn from_trace(
        trace: &WorldTrace,
        machine: &MachineProfile,
    ) -> Result<Timeline, Vec<PhaseFault>> {
        trace.validate_phases()?;
        Ok(Timeline::from_schedule(trace, &schedule(trace, machine)))
    }

    /// Build the timeline from an already-computed replay schedule. The
    /// trace must be phase-balanced (see [`WorldTrace::validate_phases`]).
    pub fn from_schedule(trace: &WorldTrace, sched: &EventSchedule) -> Timeline {
        let mut spans: Vec<Span> = Vec::new();
        for (r, evs) in trace.ranks.iter().enumerate() {
            let walls = trace.walls.get(r).map(|w| w.as_slice());
            // Running index over *phase* events, for the wall-stamp sidecar.
            let mut phase_seq = 0usize;
            // Open phases: (name, virtual start, wall start, begin event index).
            let mut open: Vec<(&'static str, f64, Option<f64>, usize)> = Vec::new();
            for (i, ev) in evs.iter().enumerate() {
                match *ev {
                    Event::PhaseBegin(name) => {
                        let wall = walls.and_then(|w| w.get(phase_seq)).copied();
                        phase_seq += 1;
                        open.push((name, sched.times[r][i].end, wall, i));
                    }
                    Event::PhaseEnd(_) => {
                        let wall = walls.and_then(|w| w.get(phase_seq)).copied();
                        phase_seq += 1;
                        // validate_phases guarantees balance.
                        let (name, virt_start, wall_start, begin_event) = open.pop().unwrap();
                        spans.push(Span {
                            rank: r,
                            name,
                            depth: open.len(),
                            virt_start,
                            virt_end: sched.times[r][i].end,
                            wall_start,
                            wall_end: wall,
                            begin_event,
                            end_event: i,
                        });
                    }
                    _ => {}
                }
            }
        }

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

    /// Per-rank accumulated virtual seconds inside each named phase
    /// (inclusive of nested phases) — matches the costmodel's
    /// `ReplayResult::phase_times` accounting.
    pub fn phase_seconds_per_rank(&self) -> Vec<HashMap<&'static str, f64>> {
        let n = self.finish_times.len();
        let mut acc: Vec<HashMap<&'static str, f64>> = vec![HashMap::new(); n];
        for s in &self.spans {
            *acc[s.rank].entry(s.name).or_insert(0.0) += s.virt_duration();
        }
        acc
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
        let per_rank = tl.phase_seconds_per_rank();
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
