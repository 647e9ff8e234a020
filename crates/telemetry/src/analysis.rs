//! Trace analysis: matched message flows and wait-state attribution.
//!
//! Scalasca-style analysis over a [`WorldTrace`] replayed on the cost
//! model's virtual clocks (the [`EventSchedule`] replay hook):
//!
//! * every matched send/receive pair becomes a [`MessageFlow`] with its
//!   full virtual-time geometry (send occupancy, wire arrival, receive
//!   posting and completion);
//! * a receive that completes later than `post + recv_overhead` was held
//!   up by a **late sender** — that wait is charged to the receiving rank
//!   (where it was *suffered*) and attributed to the sending rank (which
//!   *caused* it), per phase;
//! * a message that arrives before its receive is posted sat **buffered**
//!   (the eager-send substrate never blocks the sender, so this is the
//!   late-receiver analogue);
//! * per rank, `busy + wait = finish` exactly — busy is recomputed
//!   independently from machine parameters, so the identity is a real
//!   cross-check, enforced by property tests.
//!
//! A wait, a critical-path segment or a send belongs to the innermost of
//! the trace's [`WorldTrace::spans`] open at it ([`innermost_phases`]).
//!
//! [`analyze`] bundles the flows, the [`WaitReport`], the communication
//! matrix and the critical path into one [`TraceAnalysis`] for report
//! generators and the extended Perfetto export.

use crate::commmatrix::CommMatrix;
use crate::critical::CriticalPath;
use crate::timeline::Timeline;
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{schedule, EventSchedule};
use agcm_mps::trace::{imbalance, Event, MessagePair, PhaseFault, PhaseSpan, WorldTrace};

/// One matched message with its virtual-time geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFlow {
    /// The matched send/receive pair (ranks, seq, bytes, event indices).
    pub pair: MessagePair,
    /// When the sender started the send (s).
    pub send_start: f64,
    /// When the sender was done with the send (s).
    pub send_end: f64,
    /// When the message arrived at the receiver (`send_end + latency`).
    pub arrival: f64,
    /// When the receiver posted the receive (s).
    pub recv_start: f64,
    /// When the receive completed (s): `max(recv_start + overhead, arrival)`.
    pub recv_end: f64,
    /// Late-sender wait the receiver suffered on this message (s).
    pub wait: f64,
    /// Time the message sat delivered before the receive was posted (s).
    pub buffered: f64,
}

/// Wait accounting for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankWait {
    /// Seconds the rank was doing work (compute, send occupancy, receive
    /// overhead) — recomputed from machine parameters, not from `finish`.
    pub busy: f64,
    /// Late-sender wait suffered inside this rank's receives.
    pub wait: f64,
    /// Wait *caused* by this rank: other ranks' late-sender wait on
    /// messages this rank sent late.
    pub caused: f64,
    /// Seconds messages addressed to this rank sat buffered before it
    /// posted the receives (late-receiver time).
    pub buffered: f64,
    /// The rank's virtual finish time; `busy + wait == finish`.
    pub finish: f64,
}

/// Per-rank, per-phase wait-state decomposition of one trace.
#[derive(Debug, Clone, Default)]
pub struct WaitReport {
    /// Per-rank accounting.
    pub ranks: Vec<RankWait>,
    /// Per-phase per-rank wait *suffered*, keyed by the receiver's
    /// innermost open phase, sorted by name.
    pub phase_wait: Vec<(&'static str, Vec<f64>)>,
    /// Per-phase per-*sender* wait caused, keyed by the receiver's
    /// innermost open phase (where the stall was felt), indexed by the
    /// sending rank (who is to blame). Sorted by name.
    pub phase_caused: Vec<(&'static str, Vec<f64>)>,
    /// The run's makespan (slowest rank's finish).
    pub makespan: f64,
}

impl WaitReport {
    /// Compute the report from already-derived parts (`spans` are the
    /// trace's [`WorldTrace::spans`], `innermost` their
    /// [`innermost_spans`], `flows` must come from `sched`).
    pub(crate) fn from_flows(
        trace: &WorldTrace,
        spans: &[PhaseSpan],
        innermost: &[Vec<Option<usize>>],
        sched: &EventSchedule,
        flows: &[MessageFlow],
        machine: &MachineProfile,
    ) -> WaitReport {
        let n = trace.size();
        let mut ranks = vec![RankWait::default(); n];

        for (r, evs) in trace.ranks.iter().enumerate() {
            ranks[r].finish = sched.finish_times[r];
            for (i, ev) in evs.iter().enumerate() {
                // Busy from machine parameters: a receive's occupancy is
                // its overhead — everything past that is wait, accounted
                // through the flow below.
                ranks[r].busy += match ev {
                    Event::Recv { .. } => machine.recv_overhead_s,
                    _ => sched.times[r][i].duration(),
                };
            }
        }

        let mut phase_wait: Vec<(&'static str, Vec<f64>)> = Vec::new();
        let mut phase_caused: Vec<(&'static str, Vec<f64>)> = Vec::new();
        fn bump(
            table: &mut Vec<(&'static str, Vec<f64>)>,
            name: &'static str,
            rank: usize,
            n: usize,
            amount: f64,
        ) {
            let idx = match table.iter().position(|(nm, _)| *nm == name) {
                Some(i) => i,
                None => {
                    table.push((name, vec![0.0; n]));
                    table.len() - 1
                }
            };
            table[idx].1[rank] += amount;
        }
        for f in flows {
            ranks[f.pair.dst].wait += f.wait;
            ranks[f.pair.src].caused += f.wait;
            ranks[f.pair.dst].buffered += f.buffered;
            if f.wait > 0.0 {
                let innermost = innermost[f.pair.dst][f.pair.recv_event];
                let phase = innermost.map_or("", |k| spans[k].name);
                bump(&mut phase_wait, phase, f.pair.dst, n, f.wait);
                bump(&mut phase_caused, phase, f.pair.src, n, f.wait);
            }
        }
        phase_wait.sort_by_key(|(n, _)| *n);
        phase_caused.sort_by_key(|(n, _)| *n);

        WaitReport {
            ranks,
            phase_wait,
            phase_caused,
            makespan: sched.makespan(),
        }
    }

    /// Per-rank idle seconds: wait inside receives plus the tail between
    /// the rank's finish and the run's makespan.
    pub fn idle(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|r| r.wait + (self.makespan - r.finish))
            .collect()
    }

    /// `(max − avg) / avg` of per-rank idle time — the idle-side analogue
    /// of `WorldTrace::flop_imbalance`.
    pub fn idle_imbalance(&self) -> f64 {
        imbalance(&self.idle())
    }

    /// Total late-sender wait across all ranks.
    pub fn total_wait(&self) -> f64 {
        self.ranks.iter().map(|r| r.wait).sum()
    }

    /// Total wait attributed (as cause) to the given ranks.
    pub fn caused_by(&self, ranks: &[usize]) -> f64 {
        ranks.iter().map(|&r| self.ranks[r].caused).sum()
    }
}

/// For every event of every rank, the index in `spans` (the trace's
/// [`WorldTrace::spans`]) of the innermost span open at it. A begin marker
/// is inside the phase it opens, an end marker outside the one it closes,
/// so a span's end marker is in its parent.
pub(crate) fn innermost_spans(trace: &WorldTrace, spans: &[PhaseSpan]) -> Vec<Vec<Option<usize>>> {
    let rows = trace.ranks.iter().map(|evs| vec![None; evs.len()]);
    let mut innermost: Vec<Vec<Option<usize>>> = rows.collect();
    // In closing order, the first span to claim an event is its innermost.
    for (k, s) in spans.iter().enumerate() {
        for slot in &mut innermost[s.rank][s.begin_event..s.end_event] {
            slot.get_or_insert(k);
        }
    }
    innermost
}

/// The spans open at event `i` of a rank whose [`innermost_spans`] row is
/// `innermost`, innermost first.
pub(crate) fn open_at<'a>(
    innermost: &'a [Option<usize>],
    spans: &'a [PhaseSpan],
    i: usize,
) -> impl Iterator<Item = &'a PhaseSpan> {
    std::iter::successors(innermost[i], |&k| innermost[spans[k].end_event]).map(|k| &spans[k])
}

/// The innermost phase open at every event of every rank (`None` outside
/// any), from the trace's `spans`: the wait report, the comm-matrix slices
/// and the critical path all attribute to phases through it.
pub fn innermost_phases(trace: &WorldTrace, spans: &[PhaseSpan]) -> Vec<Vec<Option<&'static str>>> {
    innermost_spans(trace, spans)
        .into_iter()
        .map(|rank| rank.into_iter().map(|k| k.map(|k| spans[k].name)).collect())
        .collect()
}

/// Derive every matched message's virtual-time geometry from the replay
/// schedule.
pub fn message_flows(
    trace: &WorldTrace,
    sched: &EventSchedule,
    machine: &MachineProfile,
) -> Vec<MessageFlow> {
    trace
        .message_pairs()
        .into_iter()
        .map(|pair| {
            let send = sched.times[pair.src][pair.send_event];
            let recv = sched.times[pair.dst][pair.recv_event];
            let arrival = send.end + machine.latency_s;
            let wait = (recv.end - (recv.start + machine.recv_overhead_s)).max(0.0);
            MessageFlow {
                pair,
                send_start: send.start,
                send_end: send.end,
                arrival,
                recv_start: recv.start,
                recv_end: recv.end,
                wait,
                buffered: (recv.start - arrival).max(0.0),
            }
        })
        .collect()
}

/// Everything the analysis engine derives from one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// The span timeline (shared with the plain Perfetto export).
    pub timeline: Timeline,
    /// Per-event virtual timestamps.
    pub schedule: EventSchedule,
    /// Every matched message with its virtual-time geometry.
    pub flows: Vec<MessageFlow>,
    /// Wait-state decomposition.
    pub waits: WaitReport,
    /// The critical path through the rank×phase span graph.
    pub critical: CriticalPath,
    /// The whole-trace communication matrix.
    pub comm: CommMatrix,
    /// The machine profile everything was replayed against.
    pub machine: MachineProfile,
}

/// Run the full analysis over `trace` replayed against `machine`.
///
/// Fails (with every fault) on a phase-unbalanced trace — malformed
/// instrumentation would silently skew all phase attribution.
pub fn analyze(
    trace: &WorldTrace,
    machine: &MachineProfile,
) -> Result<TraceAnalysis, Vec<PhaseFault>> {
    let spans = trace.spans()?;
    let sched = schedule(trace, machine);
    let timeline = Timeline::from_schedule(trace, &spans, &sched);
    let flows = message_flows(trace, &sched, machine);
    let innermost = innermost_spans(trace, &spans);
    let waits = WaitReport::from_flows(trace, &spans, &innermost, &sched, &flows, machine);
    let critical = CriticalPath::extract(trace, &spans, &sched, &flows);
    let comm = CommMatrix::from_trace(trace);
    Ok(TraceAnalysis {
        timeline,
        schedule: sched,
        flows,
        waits,
        critical,
        comm,
        machine: *machine,
    })
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
            recv_overhead_s: 2.0e-3,
        }
    }

    /// Rank 0 computes 1 s then sends; rank 1 posts the receive at 0 and
    /// stalls on the late sender.
    fn late_sender_trace() -> WorldTrace {
        WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("work"),
                Event::Flops(1.0e6),
                Event::Send {
                    to: 1,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("work"),
            ],
            vec![
                Event::PhaseBegin("halo"),
                Event::Recv {
                    from: 0,
                    bytes: 1000,
                    seq: 0,
                },
                Event::PhaseEnd("halo"),
            ],
        ])
    }

    #[test]
    fn late_sender_wait_is_detected_and_attributed() {
        let trace = late_sender_trace();
        let report = analyze(&trace, &machine()).unwrap().waits;
        // Send occupies [1, 1.001], arrival 2.002... no: send_time = 1000/1e6
        // = 1 ms, so send spans [1.0, 1.001], arrival 1.001 + 0.001 = 1.002.
        // Receiver posts at 0 with 2 ms overhead → would finish at 0.002,
        // bound by arrival 1.002 → wait = 1.0 s.
        let r1 = report.ranks[1];
        assert!((r1.wait - 1.0).abs() < 1e-12, "wait {}", r1.wait);
        assert_eq!(report.ranks[0].wait, 0.0);
        // The wait is caused by rank 0.
        assert!((report.ranks[0].caused - 1.0).abs() < 1e-12);
        assert_eq!(r1.caused, 0.0);
        // Suffered inside "halo" by rank 1; caused in "halo" by rank 0.
        assert_eq!(report.phase_wait.len(), 1);
        let (name, per_rank) = &report.phase_wait[0];
        assert_eq!(*name, "halo");
        assert!((per_rank[1] - 1.0).abs() < 1e-12);
        let (cname, caused) = &report.phase_caused[0];
        assert_eq!(*cname, "halo");
        assert!((caused[0] - 1.0).abs() < 1e-12);
        // busy + wait = finish on every rank.
        for r in &report.ranks {
            assert!((r.busy + r.wait - r.finish).abs() < 1e-12);
        }
    }

    #[test]
    fn late_receiver_buffers() {
        // Sender fires immediately; receiver computes 5 s first.
        let trace = WorldTrace::from_ranks(vec![
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
        ]);
        let report = analyze(&trace, &machine()).unwrap().waits;
        assert_eq!(report.ranks[1].wait, 0.0);
        // Arrival at 0.002; receive posted at 5.0 → buffered 4.998 s.
        assert!((report.ranks[1].buffered - 4.998).abs() < 1e-12);
        assert_eq!(report.ranks[0].caused, 0.0);
    }

    #[test]
    fn idle_imbalance_reflects_the_tail() {
        let trace =
            WorldTrace::from_ranks(vec![vec![Event::Flops(4.0e6)], vec![Event::Flops(1.0e6)]]);
        let report = analyze(&trace, &machine()).unwrap().waits;
        // Rank 0 idles 0 s, rank 1 idles 3 s (tail): avg 1.5, max 3.
        let idle = report.idle();
        assert!((idle[0] - 0.0).abs() < 1e-12);
        assert!((idle[1] - 3.0).abs() < 1e-12);
        assert!((report.idle_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flows_carry_geometry() {
        let trace = late_sender_trace();
        let m = machine();
        let sched = schedule(&trace, &m);
        let flows = message_flows(&trace, &sched, &m);
        assert_eq!(flows.len(), 1);
        let f = flows[0];
        assert_eq!((f.pair.src, f.pair.dst), (0, 1));
        assert!((f.send_start - 1.0).abs() < 1e-12);
        assert!((f.arrival - 1.002).abs() < 1e-12);
        assert_eq!(f.recv_end, f.arrival);
        assert_eq!(f.buffered, 0.0);
    }

    #[test]
    fn analyze_rejects_malformed_phases() {
        let trace = WorldTrace::from_ranks(vec![vec![Event::PhaseEnd("ghost")]]);
        assert!(analyze(&trace, &machine()).is_err());
    }

    #[test]
    fn analyze_bundles_consistent_parts() {
        let trace = late_sender_trace();
        let a = analyze(&trace, &machine()).unwrap();
        assert_eq!(a.flows.len(), 1);
        assert_eq!(a.comm.total_messages(), 1);
        assert_eq!(a.timeline.finish_times, a.schedule.finish_times);
        assert!((a.critical.length() - a.waits.makespan).abs() < 1e-9);
    }
}
