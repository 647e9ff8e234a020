//! Critical-path extraction through the rank×phase span graph.
//!
//! The critical path is the chain of activity that determines the run's
//! makespan: start from the slowest rank's last event and walk backwards
//! through intra-rank program order, jumping along a message edge to the
//! sender whenever a receive was bound by its matching send's arrival
//! (i.e. the receiver was *waiting* — the time was really spent on the
//! sender, plus the wire). Because events on one rank are contiguous and
//! an arrival-bound receive ends exactly at the arrival, the resulting
//! segments tile `[0, makespan]` with no gaps or overlaps: the path length
//! equals the makespan to floating-point summation error (a property test
//! pins this to 1e-9), and shortening anything *off* the path cannot speed
//! the run up.
//!
//! Each segment carries the rank it ran on and the innermost phase open
//! there, so the makespan decomposes into per-phase / per-rank attribution
//! — "which phase, on which ranks, actually gates the run".

use crate::analysis::MessageFlow;
use crate::json::Value;
use agcm_costmodel::replay::EventSchedule;
use agcm_mps::trace::{Event, PhaseSpan, WorldTrace};
use std::collections::HashMap;

/// What a critical-path segment was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Local floating-point work.
    Compute,
    /// Sender-side message occupancy.
    Send,
    /// Receiver-side overhead of a receive that did not wait.
    Recv,
    /// Wire time of a message edge the path crossed (attributed to the
    /// sending rank).
    Transfer,
}

impl SegmentKind {
    /// Short label for reports and trace viewers.
    pub fn label(&self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Send => "send",
            SegmentKind::Recv => "recv",
            SegmentKind::Transfer => "transfer",
        }
    }
}

/// One contiguous stretch of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalSegment {
    /// Rank the time is attributed to.
    pub rank: usize,
    /// Activity kind.
    pub kind: SegmentKind,
    /// Innermost phase open on that rank (`None` outside any phase).
    pub phase: Option<&'static str>,
    /// Virtual start (s).
    pub start: f64,
    /// Virtual end (s).
    pub end: f64,
}

impl CriticalSegment {
    /// `end − start`.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The extracted critical path.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments in increasing time order, tiling `[0, makespan]`.
    pub segments: Vec<CriticalSegment>,
    /// The run's makespan (slowest rank's finish time).
    pub makespan: f64,
}

impl CriticalPath {
    /// Walk the path backwards from the slowest rank's last event.
    ///
    /// `spans` are the trace's [`WorldTrace::spans`] and `innermost`
    /// their [`innermost_spans`](crate::analysis::innermost_spans);
    /// `flows` must come from `sched` (see
    /// [`message_flows`](crate::analysis::message_flows)); the flow map is
    /// how an arrival-bound receive finds its matching send.
    pub fn extract(
        trace: &WorldTrace,
        spans: &[PhaseSpan],
        innermost: &[Vec<Option<usize>>],
        sched: &EventSchedule,
        flows: &[MessageFlow],
    ) -> CriticalPath {
        let makespan = sched.makespan();
        let mut path = CriticalPath {
            segments: Vec::new(),
            makespan,
        };
        let Some((mut rank, _)) = sched
            .finish_times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
        else {
            return path;
        };
        let phase_at = |rank: usize, i: usize| innermost[rank][i].map(|k| spans[k].name);
        // (dst rank, recv event index) → flow.
        let by_recv: HashMap<(usize, usize), &MessageFlow> = flows
            .iter()
            .map(|f| ((f.pair.dst, f.pair.recv_event), f))
            .collect();

        let mut next: isize = trace.ranks[rank].len() as isize - 1;
        while next >= 0 {
            let i = next as usize;
            let t = sched.times[rank][i];
            let phase = phase_at(rank, i);
            let mut push = |kind: SegmentKind, rank: usize, phase, start: f64, end: f64| {
                if end > start {
                    path.segments.push(CriticalSegment {
                        rank,
                        kind,
                        phase,
                        start,
                        end,
                    });
                }
            };
            match trace.ranks[rank][i] {
                Event::Recv { .. } => {
                    let flow = by_recv.get(&(rank, i)).copied();
                    match flow {
                        // Arrival-bound receive: the time belongs to the
                        // sender. Cross the message edge — wire time is a
                        // transfer segment charged to the sender — and
                        // continue backwards from the send event.
                        Some(f) if f.wait > 0.0 => {
                            let sender_phase = phase_at(f.pair.src, f.pair.send_event);
                            push(
                                SegmentKind::Transfer,
                                f.pair.src,
                                sender_phase,
                                f.send_end,
                                f.arrival,
                            );
                            rank = f.pair.src;
                            next = f.pair.send_event as isize;
                            continue;
                        }
                        // Overhead-bound: plain local activity.
                        _ => push(SegmentKind::Recv, rank, phase, t.start, t.end),
                    }
                }
                Event::Send { .. } => push(SegmentKind::Send, rank, phase, t.start, t.end),
                Event::Flops(_) => push(SegmentKind::Compute, rank, phase, t.start, t.end),
                // Phase markers are instantaneous.
                Event::PhaseBegin(_) | Event::PhaseEnd(_) => {}
            }
            next -= 1;
        }
        path.segments.reverse();
        path
    }

    /// Total path length — equals the makespan (to summation error).
    pub fn length(&self) -> f64 {
        self.segments.iter().map(|s| s.duration()).sum()
    }

    /// Makespan attributed per phase, sorted by name; time outside any
    /// phase is keyed `""`.
    pub fn by_phase(&self) -> Vec<(&'static str, f64)> {
        let mut acc: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.segments {
            let name = s.phase.unwrap_or("");
            match acc.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += s.duration(),
                None => acc.push((name, s.duration())),
            }
        }
        acc.sort_by_key(|(n, _)| *n);
        acc
    }

    /// Makespan attributed per rank (`ranks` sizes the output so ranks
    /// that never appear on the path still get a 0 entry).
    pub fn by_rank(&self, ranks: usize) -> Vec<f64> {
        let mut acc = vec![0.0; ranks];
        for s in &self.segments {
            acc[s.rank] += s.duration();
        }
        acc
    }

    /// JSON form: makespan, length, attribution, and the segments.
    pub fn to_json(&self) -> Value {
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("rank", Value::Num(s.rank as f64)),
                    ("kind", Value::Str(s.kind.label().into())),
                    (
                        "phase",
                        match s.phase {
                            Some(p) => Value::Str(p.into()),
                            None => Value::Null,
                        },
                    ),
                    ("start", Value::Num(s.start)),
                    ("end", Value::Num(s.end)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("makespan", Value::Num(self.makespan)),
            ("length", Value::Num(self.length())),
            (
                "by_phase",
                Value::Obj(
                    self.by_phase()
                        .into_iter()
                        .map(|(n, t)| (n.to_string(), Value::Num(t)))
                        .collect(),
                ),
            ),
            ("segments", Value::Arr(segments)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{innermost_spans, message_flows};
    use agcm_costmodel::machine::MachineProfile;
    use agcm_costmodel::replay::schedule;

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

    fn extract(trace: &WorldTrace) -> CriticalPath {
        let m = machine();
        let sched = schedule(trace, &m);
        let flows = message_flows(trace, &sched, &m);
        let spans = trace.spans().unwrap();
        let innermost = innermost_spans(trace, &spans);
        CriticalPath::extract(trace, &spans, &innermost, &sched, &flows)
    }

    #[test]
    fn single_rank_path_is_its_event_stream() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("dynamics"),
            Event::Flops(2.0e6),
            Event::PhaseEnd("dynamics"),
            Event::PhaseBegin("physics"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("physics"),
        ]]);
        let cp = extract(&trace);
        assert_eq!(cp.segments.len(), 2);
        assert!((cp.length() - 3.0).abs() < 1e-12);
        assert_eq!(cp.makespan, 3.0);
        let by_phase = cp.by_phase();
        assert_eq!(by_phase, vec![("dynamics", 2.0), ("physics", 1.0)]);
        assert_eq!(cp.by_rank(1), vec![3.0]);
    }

    #[test]
    fn path_crosses_message_edges_to_the_late_sender() {
        // Rank 0 computes 3 s then sends to rank 1, which waited from 0.
        // The critical path must be: rank 0 compute, rank 0 send, wire
        // transfer, then rank 1's post-receive compute.
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("produce"),
                Event::Flops(3.0e6),
                Event::Send {
                    to: 1,
                    bytes: 1_000_000,
                    seq: 0,
                },
                Event::PhaseEnd("produce"),
            ],
            vec![
                Event::PhaseBegin("consume"),
                Event::Recv {
                    from: 0,
                    bytes: 1_000_000,
                    seq: 0,
                },
                Event::Flops(2.0e6),
                Event::PhaseEnd("consume"),
            ],
        ]);
        let cp = extract(&trace);
        let kinds: Vec<SegmentKind> = cp.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Compute,
                SegmentKind::Send,
                SegmentKind::Transfer,
                SegmentKind::Compute,
            ]
        );
        let ranks: Vec<usize> = cp.segments.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![0, 0, 0, 1]);
        // 3 compute + 1 send + 0.001 wire + 2 compute = makespan.
        assert!((cp.length() - cp.makespan).abs() < 1e-9);
        assert!((cp.makespan - 6.001).abs() < 1e-12);
        // Segments tile time contiguously.
        for w in cp.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12);
        }
        assert_eq!(cp.segments[0].start, 0.0);
        // Attribution: transfer is charged to the sender inside "produce".
        assert_eq!(cp.segments[2].phase, Some("produce"));
        let by_rank = cp.by_rank(2);
        assert!((by_rank[0] - 4.001).abs() < 1e-12);
        assert!((by_rank[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn early_sender_stays_off_the_path() {
        // The message is ready long before the receive: no jump.
        let trace = WorldTrace::from_ranks(vec![
            vec![Event::Send {
                to: 1,
                bytes: 8,
                seq: 0,
            }],
            vec![
                Event::Flops(5.0e6),
                Event::Recv {
                    from: 0,
                    bytes: 8,
                    seq: 0,
                },
            ],
        ]);
        let cp = extract(&trace);
        assert!(cp.segments.iter().all(|s| s.rank == 1));
        assert!(cp.segments.iter().all(|s| s.kind != SegmentKind::Transfer));
        assert!((cp.length() - cp.makespan).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_empty_path() {
        let cp = extract(&WorldTrace::default());
        assert!(cp.segments.is_empty());
        assert_eq!(cp.length(), 0.0);
        assert_eq!(cp.makespan, 0.0);
    }

    #[test]
    fn json_export_carries_attribution() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("p"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("p"),
        ]]);
        let doc = extract(&trace).to_json();
        assert_eq!(doc.get("makespan").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("length").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            doc.get("by_phase").unwrap().get("p").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(doc.get("segments").unwrap().as_arr().unwrap().len(), 1);
    }
}
