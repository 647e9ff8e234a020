//! Trace replay: turn a recorded execution into simulated machine time.
//!
//! Each rank's event stream is replayed against a [`MachineProfile`].
//! Virtual clocks advance through compute and send events independently; a
//! receive cannot complete before the matching send's arrival time, which is
//! how communication stalls and load imbalance become visible in the
//! simulated times. Ranks are co-routined: a rank blocks when it reaches a
//! receive whose matching send has not been simulated yet, and resumes on a
//! later sweep. Message-passing causality guarantees progress; a sweep that
//! advances nothing while work remains indicates a corrupt trace and
//! panics. Phase times fold the trace's [`WorldTrace::spans`] onto the
//! schedule.

use crate::machine::MachineProfile;
use agcm_mps::trace::{imbalance, Event, PhaseSpan, WorldTrace};
use std::collections::HashMap;

/// Result of replaying one [`WorldTrace`].
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Virtual finish time of each rank (s).
    pub finish_times: Vec<f64>,
    /// Per-rank accumulated time inside each named phase (s).
    pub phase_times: Vec<HashMap<&'static str, f64>>,
}

impl ReplayResult {
    /// Wall-clock of the simulated run: the slowest rank.
    pub fn total_time(&self) -> f64 {
        self.finish_times.iter().copied().fold(0.0, f64::max)
    }

    /// Each rank's time in `phase` (0 where it never ran).
    fn per_rank<'a>(&'a self, phase: &'a str) -> impl Iterator<Item = f64> + 'a {
        (self.phase_times.iter()).map(move |m| m.get(phase).copied().unwrap_or(0.0))
    }

    /// Maximum over ranks of the time spent in `phase` — the parallel
    /// execution time attributable to that phase.
    pub fn phase_time(&self, phase: &str) -> f64 {
        self.per_rank(phase).fold(0.0, f64::max)
    }

    /// The paper's load-imbalance metric for a phase:
    /// `(MaxLoad − AverageLoad) / AverageLoad`.
    pub fn phase_imbalance(&self, phase: &str) -> f64 {
        imbalance(&self.per_rank(phase).collect::<Vec<f64>>())
    }
}

/// Virtual start/end timestamps of one traced event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventTiming {
    /// Clock when the rank begins processing the event (s).
    pub start: f64,
    /// Clock when the event completes (s).
    ///
    /// Phase markers are instantaneous (`end == start`); a receive bound
    /// by its matching send ends exactly at that send's arrival time.
    pub end: f64,
}

impl EventTiming {
    /// `end − start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-event virtual timestamps for a whole trace — the replay hook the
/// analysis layer (wait states, critical paths, flow arrows) builds on.
///
/// Events on one rank are contiguous: each event starts exactly where the
/// previous one ended, and the first event starts at 0. All simulated
/// stalls therefore live *inside* receive events, which is what makes
/// wait-state decomposition (`busy + wait = finish`) exact.
#[derive(Debug, Clone, Default)]
pub struct EventSchedule {
    /// `times[r][i]` is the virtual timing of `trace.ranks[r][i]`.
    pub times: Vec<Vec<EventTiming>>,
    /// Virtual finish time of each rank (s).
    pub finish_times: Vec<f64>,
}

impl EventSchedule {
    /// Wall-clock of the simulated run: the slowest rank.
    pub fn makespan(&self) -> f64 {
        self.finish_times.iter().copied().fold(0.0, f64::max)
    }
}

struct RankState<'a> {
    events: &'a [Event],
    next: usize,
    clock: f64,
    times: Vec<EventTiming>,
}

/// Replay `trace` against `machine` and record when every single event
/// starts and ends on the virtual clocks.
///
/// Same co-routine sweep as [`replay`] (which is implemented on top of
/// this): a rank blocks when it reaches a receive whose matching send has
/// not been simulated yet and resumes on a later sweep; a sweep that
/// advances nothing while work remains panics on the corrupt trace.
pub fn schedule(trace: &WorldTrace, machine: &MachineProfile) -> EventSchedule {
    let n = trace.size();
    let mut states: Vec<RankState> = trace
        .ranks
        .iter()
        .map(|evs| RankState {
            events: evs,
            next: 0,
            clock: 0.0,
            times: Vec::with_capacity(evs.len()),
        })
        .collect();
    // arrival[(src, dst, seq)] = virtual arrival time.
    let mut arrivals: HashMap<(usize, usize, u64), f64> = HashMap::new();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        #[allow(clippy::needless_range_loop)] // index drives multiple buffers
        for r in 0..n {
            // Process as many events as possible for rank r.
            loop {
                let state = &mut states[r];
                let Some(ev) = state.events.get(state.next) else {
                    break;
                };
                let start = state.clock;
                match *ev {
                    Event::Flops(f) => {
                        state.clock += machine.compute_time(f);
                    }
                    Event::Send { to, bytes, seq } => {
                        state.clock += machine.send_time(bytes);
                        arrivals.insert((r, to, seq), state.clock + machine.latency_s);
                    }
                    Event::Recv {
                        from,
                        bytes: _,
                        seq,
                    } => {
                        match arrivals.get(&(from, r, seq)) {
                            Some(&arrival) => {
                                state.clock = (state.clock + machine.recv_overhead_s).max(arrival);
                            }
                            None => break, // blocked on an unsimulated send
                        }
                    }
                    // Phase markers are instantaneous.
                    Event::PhaseBegin(_) | Event::PhaseEnd(_) => {}
                }
                state.times.push(EventTiming {
                    start,
                    end: state.clock,
                });
                state.next += 1;
                progressed = true;
            }
            if states[r].next < states[r].events.len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        assert!(
            progressed,
            "replay deadlock: a receive has no matching send in the trace"
        );
    }

    EventSchedule {
        finish_times: states.iter().map(|s| s.clock).collect(),
        times: states.into_iter().map(|s| s.times).collect(),
    }
}

/// Replay `trace` against `machine`, producing simulated times.
///
/// Panics, naming every fault, if the trace's phase events do not pair
/// (see [`WorldTrace::spans`]).
pub fn replay(trace: &WorldTrace, machine: &MachineProfile) -> ReplayResult {
    let sched = schedule(trace, machine);
    let spans = trace.spans().expect("replay of unpaired phase events");
    let t = &sched.times;
    let secs = |s: &PhaseSpan| t[s.rank][s.end_event].end - t[s.rank][s.begin_event].end;
    let phase_times = phase_seconds(
        trace.size(),
        spans.iter().map(|s| (s.rank, s.name, secs(s))),
    );
    ReplayResult {
        finish_times: sched.finish_times,
        phase_times,
    }
}

/// Per-rank seconds inside each named phase, from `(rank, name, seconds)`
/// per closed phase, each name's seconds added in the order given. Inner
/// phases are *not* subtracted — phases accumulate inclusively, as timers
/// in the original code would.
pub fn phase_seconds(
    ranks: usize,
    spans: impl IntoIterator<Item = (usize, &'static str, f64)>,
) -> Vec<HashMap<&'static str, f64>> {
    let mut acc = vec![HashMap::new(); ranks];
    for (rank, name, secs) in spans {
        *acc[rank].entry(name).or_insert(0.0) += secs;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineProfile {
        // Round numbers for exact arithmetic: 1 Mflop/s, 1 ms latency,
        // 1 MB/s, zero overheads.
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
    fn pure_compute() {
        let trace = WorldTrace {
            ranks: vec![vec![Event::Flops(2.0e6)], vec![Event::Flops(0.5e6)]],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert_eq!(r.finish_times, vec![2.0, 0.5]);
        assert_eq!(r.total_time(), 2.0);
    }

    #[test]
    fn receive_waits_for_send() {
        // Rank 0 computes 1 s then sends 1 MB (1 s transfer + 1 ms latency);
        // rank 1 receives immediately and must wait until 2.001 s.
        let trace = WorldTrace {
            ranks: vec![
                vec![
                    Event::Flops(1.0e6),
                    Event::Send {
                        to: 1,
                        bytes: 1_000_000,
                        seq: 0,
                    },
                ],
                vec![Event::Recv {
                    from: 0,
                    bytes: 1_000_000,
                    seq: 0,
                }],
            ],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert!((r.finish_times[0] - 2.0).abs() < 1e-12);
        assert!((r.finish_times[1] - 2.001).abs() < 1e-12);
    }

    #[test]
    fn late_receiver_does_not_wait() {
        // Sender finishes early; receiver is busy for 5 s, so the message
        // is already there when it posts the receive.
        let trace = WorldTrace {
            ranks: vec![
                vec![Event::Send {
                    to: 1,
                    bytes: 1000,
                    seq: 0,
                }],
                vec![
                    Event::Flops(5.0e6),
                    Event::Recv {
                        from: 0,
                        bytes: 1000,
                        seq: 0,
                    },
                ],
            ],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert!((r.finish_times[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_rank_processing_converges() {
        // Rank 0 waits on rank 2 which waits on rank 1: forces multiple
        // sweeps regardless of processing order.
        let trace = WorldTrace {
            ranks: vec![
                vec![Event::Recv {
                    from: 2,
                    bytes: 8,
                    seq: 0,
                }],
                vec![
                    Event::Flops(3.0e6),
                    Event::Send {
                        to: 2,
                        bytes: 8,
                        seq: 0,
                    },
                ],
                vec![
                    Event::Recv {
                        from: 1,
                        bytes: 8,
                        seq: 0,
                    },
                    Event::Send {
                        to: 0,
                        bytes: 8,
                        seq: 0,
                    },
                ],
            ],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        // Chain: 3 s compute + two hops of (8e-6 + 1e-3) each.
        let hop = 8.0e-6 + 1.0e-3;
        assert!((r.finish_times[0] - (3.0 + 2.0 * hop)).abs() < 1e-9);
    }

    #[test]
    fn phase_accounting() {
        let trace = WorldTrace {
            ranks: vec![
                vec![
                    Event::PhaseBegin("dynamics"),
                    Event::Flops(2.0e6),
                    Event::PhaseEnd("dynamics"),
                    Event::PhaseBegin("physics"),
                    Event::Flops(1.0e6),
                    Event::PhaseEnd("physics"),
                ],
                vec![
                    Event::PhaseBegin("dynamics"),
                    Event::Flops(1.0e6),
                    Event::PhaseEnd("dynamics"),
                    Event::PhaseBegin("physics"),
                    Event::Flops(3.0e6),
                    Event::PhaseEnd("physics"),
                ],
            ],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert_eq!(r.phase_time("dynamics"), 2.0);
        assert_eq!(r.phase_time("physics"), 3.0);
        // imbalance = (3 - 2) / 2
        assert!((r.phase_imbalance("physics") - 0.5).abs() < 1e-12);
        let mut phases: Vec<&str> = r.phase_times[1].keys().copied().collect();
        phases.sort_unstable();
        assert_eq!(phases, vec!["dynamics", "physics"]);
    }

    #[test]
    fn nested_phases_accumulate_inclusively() {
        let trace = WorldTrace {
            ranks: vec![vec![
                Event::PhaseBegin("outer"),
                Event::Flops(1.0e6),
                Event::PhaseBegin("inner"),
                Event::Flops(2.0e6),
                Event::PhaseEnd("inner"),
                Event::PhaseEnd("outer"),
            ]],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert_eq!(r.phase_time("inner"), 2.0);
        assert_eq!(r.phase_time("outer"), 3.0);
    }

    #[test]
    fn repeated_phase_sums() {
        let trace = WorldTrace {
            ranks: vec![vec![
                Event::PhaseBegin("filter"),
                Event::Flops(1.0e6),
                Event::PhaseEnd("filter"),
                Event::PhaseBegin("filter"),
                Event::Flops(1.5e6),
                Event::PhaseEnd("filter"),
            ]],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        assert_eq!(r.phase_time("filter"), 2.5);
    }

    #[test]
    #[should_panic(expected = "no matching send")]
    fn missing_send_detected() {
        let trace = WorldTrace {
            ranks: vec![vec![Event::Recv {
                from: 0,
                bytes: 8,
                seq: 99,
            }]],
            ..Default::default()
        };
        replay(&trace, &machine());
    }

    #[test]
    fn empty_trace() {
        let r = replay(&WorldTrace::default(), &machine());
        assert_eq!(r.total_time(), 0.0);
        assert_eq!(r.phase_time("anything"), 0.0);
    }

    #[test]
    fn schedule_exposes_per_event_timestamps() {
        let trace = WorldTrace {
            ranks: vec![
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
            ],
            ..Default::default()
        };
        let s = schedule(&trace, &machine());
        // Rank 0: compute [0,1], send occupancy [1,2].
        assert_eq!(
            s.times[0][0],
            EventTiming {
                start: 0.0,
                end: 1.0
            }
        );
        assert_eq!(
            s.times[0][1],
            EventTiming {
                start: 1.0,
                end: 2.0
            }
        );
        // Rank 1: instantaneous phase marker, then a receive that posts at
        // 0 and is bound by the arrival at 2.001.
        assert_eq!(
            s.times[1][0],
            EventTiming {
                start: 0.0,
                end: 0.0
            }
        );
        assert_eq!(s.times[1][1].start, 0.0);
        assert!((s.times[1][1].end - 2.001).abs() < 1e-12);
        assert_eq!(s.times[1][2].duration(), 0.0);
        assert!((s.makespan() - 2.001).abs() < 1e-12);
    }

    #[test]
    fn schedule_events_are_contiguous_per_rank() {
        let trace = WorldTrace {
            ranks: vec![
                vec![
                    Event::PhaseBegin("a"),
                    Event::Flops(0.5e6),
                    Event::Send {
                        to: 1,
                        bytes: 100,
                        seq: 0,
                    },
                    Event::PhaseEnd("a"),
                ],
                vec![
                    Event::Flops(2.0e6),
                    Event::Recv {
                        from: 0,
                        bytes: 100,
                        seq: 0,
                    },
                ],
            ],
            ..Default::default()
        };
        let s = schedule(&trace, &machine());
        for (r, times) in s.times.iter().enumerate() {
            assert_eq!(times.len(), trace.ranks[r].len());
            assert_eq!(times[0].start, 0.0);
            for w in times.windows(2) {
                assert_eq!(w[0].end, w[1].start, "rank {r} has a gap");
            }
            assert_eq!(times.last().unwrap().end, s.finish_times[r]);
        }
    }

    #[test]
    fn replay_matches_schedule_finish_times() {
        let trace = WorldTrace {
            ranks: vec![
                vec![
                    Event::PhaseBegin("p"),
                    Event::Flops(1.0e6),
                    Event::Send {
                        to: 1,
                        bytes: 64,
                        seq: 0,
                    },
                    Event::PhaseEnd("p"),
                ],
                vec![
                    Event::PhaseBegin("p"),
                    Event::Recv {
                        from: 0,
                        bytes: 64,
                        seq: 0,
                    },
                    Event::PhaseEnd("p"),
                ],
            ],
            ..Default::default()
        };
        let r = replay(&trace, &machine());
        let s = schedule(&trace, &machine());
        assert_eq!(r.finish_times, s.finish_times);
        assert_eq!(r.total_time(), s.makespan());
    }
}
