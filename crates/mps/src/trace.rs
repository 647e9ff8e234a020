//! Execution tracing.
//!
//! The paper reports execution time on machines we cannot run on (Intel
//! Paragon, Cray T3D). What *can* be measured faithfully is the algorithmic
//! behaviour of each parallel implementation: how many messages each rank
//! sends, how many bytes move, how much floating-point work each rank does,
//! and in what order. This module records exactly that, per rank, as a flat
//! event list. The `agcm-costmodel` crate replays these traces against a
//! calibrated machine profile to produce simulated seconds, and the
//! `agcm-telemetry` crate turns them into span timelines and structured
//! run metrics; both read each phase as one [`PhaseSpan`], paired once by
//! [`WorldTrace::spans`].
//!
//! Flop counts are *recorded by the algorithms themselves* (the kernels know
//! their operation counts); the tracer just accumulates them, so the replay
//! reflects real load imbalance, not an analytic guess.
//!
//! Besides the event list, a trace carries two sidecars:
//!
//! * **wall-clock stamps** — every phase event is stamped with seconds
//!   since a world-shared epoch, so a timeline viewer can show *this*
//!   machine's real phase spans next to the cost-model's virtual ones;
//! * **collective counters** — one counter per collective primitive
//!   (barrier, bcast, …), cheap enough to keep even where full event
//!   recording would be noise.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The paper's load-imbalance metric (Tables 1–3), as a fraction:
/// `(MaxLoad − AverageLoad) / AverageLoad`, 0 for an empty slice or a zero
/// average. The maximum is folded from `−∞`, so it is the slice's own
/// maximum even if every value is negative; for non-negative inputs
/// (loads, flops, times) a fold from 0 gives the same value.
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let avg = loads.iter().sum::<f64>() / loads.len() as f64;
    if avg == 0.0 {
        return 0.0;
    }
    let max = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (max - avg) / avg
}

/// One traced event on a rank.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message was sent to `to` (world rank) carrying `bytes` bytes.
    Send {
        /// Destination world rank.
        to: usize,
        /// Wire size in bytes.
        bytes: usize,
        /// Per-(src, dst) send sequence number.
        seq: u64,
    },
    /// A message from `from` (world rank) was received.
    Recv {
        /// Source world rank.
        from: usize,
        /// Wire size in bytes.
        bytes: usize,
        /// Sequence number of the matching send.
        seq: u64,
    },
    /// `flops` floating-point operations of local work.
    Flops(f64),
    /// Beginning of a named phase (e.g. "dynamics", "filter", "physics").
    PhaseBegin(&'static str),
    /// End of the innermost open phase with this name.
    PhaseEnd(&'static str),
}

impl Event {
    /// Whether this is a [`Event::PhaseBegin`] or [`Event::PhaseEnd`].
    pub fn is_phase(&self) -> bool {
        matches!(self, Event::PhaseBegin(_) | Event::PhaseEnd(_))
    }
}

/// Per-rank trace storage. Shared (via `Arc`) by every communicator a rank
/// derives, so sub-communicator traffic lands in the same stream.
#[derive(Debug)]
pub struct RankTrace {
    events: Mutex<Vec<Event>>,
    /// Wall-clock stamp (seconds since `epoch`) of each phase event, in
    /// the order the phase events appear in `events`.
    phase_walls: Mutex<Vec<f64>>,
    /// Per-primitive collective call counts, keyed by static name.
    collectives: Mutex<Vec<(&'static str, u64)>>,
    /// Shared time origin — the same `Instant` across all ranks of a
    /// world, so stamps are comparable between ranks.
    epoch: Instant,
    enabled: AtomicBool,
}

impl Default for RankTrace {
    fn default() -> RankTrace {
        RankTrace {
            events: Mutex::new(Vec::new()),
            phase_walls: Mutex::new(Vec::new()),
            collectives: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
        }
    }
}

impl RankTrace {
    /// A new trace, recording events iff `enabled`.
    pub fn new(enabled: bool) -> Arc<Self> {
        RankTrace::with_epoch(enabled, Instant::now())
    }

    /// A new trace stamping wall clocks relative to `epoch` (the runtime
    /// passes one shared epoch to every rank of a world).
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Arc<Self> {
        Arc::new(RankTrace {
            events: Mutex::new(Vec::new()),
            phase_walls: Mutex::new(Vec::new()),
            collectives: Mutex::new(Vec::new()),
            epoch,
            enabled: AtomicBool::new(enabled),
        })
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append an event if recording is enabled. Phase events are also
    /// wall-clock stamped.
    pub fn record(&self, ev: Event) {
        if self.enabled() {
            if ev.is_phase() {
                self.phase_walls
                    .lock()
                    .push(self.epoch.elapsed().as_secs_f64());
            }
            self.events.lock().push(ev);
        }
    }

    /// Accumulate floating-point work. Consecutive `Flops` events are merged
    /// to keep traces small for tight loops.
    pub fn record_flops(&self, flops: f64) {
        if !self.enabled() || flops <= 0.0 {
            return;
        }
        let mut ev = self.events.lock();
        if let Some(Event::Flops(acc)) = ev.last_mut() {
            *acc += flops;
        } else {
            ev.push(Event::Flops(flops));
        }
    }

    /// Count one call of the named collective primitive. The set of
    /// primitives is small, so a linear scan beats a map here.
    pub fn record_collective(&self, name: &'static str) {
        if !self.enabled() {
            return;
        }
        let mut counts = self.collectives.lock();
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }

    /// Snapshot the event list.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Drain the event list (used by the runtime when a rank finishes).
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Drain the wall-clock stamps of the phase events.
    pub fn take_walls(&self) -> Vec<f64> {
        std::mem::take(&mut *self.phase_walls.lock())
    }

    /// Drain the collective counters.
    pub fn take_collectives(&self) -> Vec<(&'static str, u64)> {
        std::mem::take(&mut *self.collectives.lock())
    }
}

/// Aggregate message statistics for one rank, derived from its trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Messages sent.
    pub sends: usize,
    /// Bytes sent.
    pub bytes_sent: usize,
    /// Messages received.
    pub recvs: usize,
    /// Bytes received.
    pub bytes_recvd: usize,
    /// Total recorded floating-point operations.
    pub flops: f64,
}

/// A matched send/receive pair in a [`WorldTrace`].
///
/// The substrate stamps every send with a per-`(src, dst)` sequence number
/// and delivers it unchanged, so `(src, dst, seq)` identifies one message
/// end-to-end. The event indices point into `ranks[src]` / `ranks[dst]`,
/// which is what the analysis layer needs to look the pair up in a replay
/// schedule (per-event virtual timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessagePair {
    /// Sending world rank.
    pub src: usize,
    /// Receiving world rank.
    pub dst: usize,
    /// Per-`(src, dst)` send sequence number.
    pub seq: u64,
    /// Wire size in bytes.
    pub bytes: usize,
    /// Index of the `Send` event in `ranks[src]`.
    pub send_event: usize,
    /// Index of the `Recv` event in `ranks[dst]`.
    pub recv_event: usize,
}

/// One closed phase on one rank: a `PhaseBegin` and the `PhaseEnd` that
/// closes it, as paired by [`WorldTrace::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// World rank the phase ran on.
    pub rank: usize,
    /// Phase name.
    pub name: &'static str,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Index of the `PhaseBegin` event in `ranks[rank]`.
    pub begin_event: usize,
    /// Index of the closing `PhaseEnd` event in `ranks[rank]`.
    pub end_event: usize,
    /// Ordinal of the begin's wall stamp in `walls[rank]`.
    pub begin_wall: usize,
    /// Ordinal of the end's wall stamp in `walls[rank]`.
    pub end_wall: usize,
}

/// A malformed phase stream found by [`WorldTrace::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseFault {
    /// The rank whose stream is malformed.
    pub rank: usize,
    /// The phase name involved.
    pub name: &'static str,
    /// What is wrong.
    pub kind: PhaseFaultKind,
}

/// The ways a phase stream can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseFaultKind {
    /// A `PhaseEnd` arrived with no open phase at all.
    UnmatchedEnd,
    /// A `PhaseEnd` named a phase other than the innermost open one.
    MismatchedEnd {
        /// The innermost open phase at that point.
        open: &'static str,
    },
    /// A `PhaseBegin` was never closed by the end of the stream.
    UnclosedBegin,
}

impl fmt::Display for PhaseFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            PhaseFaultKind::UnmatchedEnd => write!(
                f,
                "rank {}: PhaseEnd({:?}) with no open phase",
                self.rank, self.name
            ),
            PhaseFaultKind::MismatchedEnd { open } => write!(
                f,
                "rank {}: PhaseEnd({:?}) while {:?} is the innermost open phase",
                self.rank, self.name, open
            ),
            PhaseFaultKind::UnclosedBegin => write!(
                f,
                "rank {}: PhaseBegin({:?}) never closed",
                self.rank, self.name
            ),
        }
    }
}

/// The complete trace of a traced run: one event stream per world rank,
/// plus the wall-clock stamps of the phase events and the collective call
/// counters.
#[derive(Debug, Clone, Default)]
pub struct WorldTrace {
    /// `ranks[r]` is the event stream of world rank `r`.
    pub ranks: Vec<Vec<Event>>,
    /// `walls[r][i]` is the wall-clock stamp (seconds since the shared
    /// epoch) of the `i`-th *phase* event in `ranks[r]`. Empty when the
    /// trace was built by hand rather than recorded.
    pub walls: Vec<Vec<f64>>,
    /// `collectives[r]` counts collective primitive calls on rank `r`.
    pub collectives: Vec<Vec<(&'static str, u64)>>,
}

impl WorldTrace {
    /// A trace from bare event streams (no wall stamps, no collective
    /// counters) — the hand-built form used by tests and replays.
    pub fn from_ranks(ranks: Vec<Vec<Event>>) -> WorldTrace {
        WorldTrace {
            ranks,
            ..WorldTrace::default()
        }
    }

    /// Number of ranks traced.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Per-rank aggregate statistics.
    pub fn stats(&self) -> Vec<RankStats> {
        self.ranks
            .iter()
            .map(|evs| {
                let mut s = RankStats::default();
                for ev in evs {
                    match ev {
                        Event::Send { bytes, .. } => {
                            s.sends += 1;
                            s.bytes_sent += bytes;
                        }
                        Event::Recv { bytes, .. } => {
                            s.recvs += 1;
                            s.bytes_recvd += bytes;
                        }
                        Event::Flops(f) => s.flops += f,
                        _ => {}
                    }
                }
                s
            })
            .collect()
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> usize {
        self.stats().iter().map(|s| s.sends).sum()
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> usize {
        self.stats().iter().map(|s| s.bytes_sent).sum()
    }

    /// Total flops recorded across all ranks.
    pub fn total_flops(&self) -> f64 {
        self.stats().iter().map(|s| s.flops).sum()
    }

    /// Flop imbalance across ranks, using the paper's definition:
    /// `(max − average) / average`.
    pub fn flop_imbalance(&self) -> f64 {
        let flops: Vec<f64> = self.stats().iter().map(|s| s.flops).collect();
        imbalance(&flops)
    }

    /// Match every `Recv` event with its `Send` by `(src, dst, seq)`.
    ///
    /// Pairs are returned grouped by receiving rank, in receive order —
    /// the order a per-rank wait-state scan wants them in. Sends that were
    /// never received (and receives with no recorded send, which a replay
    /// would reject anyway) are simply absent.
    pub fn message_pairs(&self) -> Vec<MessagePair> {
        let sends = self.send_index();
        let mut pairs = Vec::new();
        for (dst, evs) in self.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Event::Recv { from, bytes, seq } = *ev {
                    if let Some(&send_event) = sends.get(&(from, dst, seq)) {
                        pairs.push(MessagePair {
                            src: from,
                            dst,
                            seq,
                            bytes,
                            send_event,
                            recv_event: i,
                        });
                    }
                }
            }
        }
        pairs
    }

    /// Index of every `Send` event by `(src, dst, seq)`.
    fn send_index(&self) -> HashMap<(usize, usize, u64), usize> {
        let mut sends = HashMap::new();
        for (src, evs) in self.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Event::Send { to, seq, .. } = *ev {
                    sends.insert((src, to, seq), i);
                }
            }
        }
        sends
    }

    /// The library's one pairing of phase events: each `PhaseEnd` must
    /// close the innermost open `PhaseBegin`, of the same name, and every
    /// `PhaseBegin` must be closed. Returns every closed phase, rank by
    /// rank and on each rank in closing order (a phase after every phase
    /// nested in it), or else every fault: a mismatched end still closes
    /// the innermost phase, and the scan goes on.
    pub fn spans(&self) -> Result<Vec<PhaseSpan>, Vec<PhaseFault>> {
        use PhaseFaultKind::*;
        let (mut spans, mut faults) = (Vec::new(), Vec::new());
        for (rank, evs) in self.ranks.iter().enumerate() {
            let fault = |name, kind| PhaseFault { rank, name, kind };
            // Open phases: (name, begin event, its wall stamp's ordinal).
            let mut open: Vec<(&'static str, usize, usize)> = Vec::new();
            let phase_events = evs.iter().enumerate().filter(|(_, ev)| ev.is_phase());
            for (wall, (i, ev)) in phase_events.enumerate() {
                match (ev, open.last()) {
                    (&Event::PhaseBegin(name), _) => open.push((name, i, wall)),
                    (&Event::PhaseEnd(name), None) => faults.push(fault(name, UnmatchedEnd)),
                    (&Event::PhaseEnd(name), Some(&(top, begin_event, begin_wall))) => {
                        open.pop();
                        if top != name {
                            faults.push(fault(name, MismatchedEnd { open: top }));
                            continue;
                        }
                        spans.push(PhaseSpan {
                            rank,
                            name,
                            depth: open.len(),
                            begin_event,
                            end_event: i,
                            begin_wall,
                            end_wall: wall,
                        });
                    }
                    _ => {}
                }
            }
            for (name, ..) in open {
                faults.push(fault(name, UnclosedBegin));
            }
        }
        if faults.is_empty() {
            Ok(spans)
        } else {
            Err(faults)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = RankTrace::new(false);
        t.record(Event::Flops(10.0));
        t.record_flops(5.0);
        t.record_collective("barrier");
        assert!(t.events().is_empty());
        assert!(t.take_walls().is_empty());
        assert!(t.take_collectives().is_empty());
    }

    #[test]
    fn flops_merge() {
        let t = RankTrace::new(true);
        t.record_flops(1.0);
        t.record_flops(2.0);
        t.record(Event::PhaseBegin("x"));
        t.record_flops(4.0);
        assert_eq!(
            t.events(),
            vec![Event::Flops(3.0), Event::PhaseBegin("x"), Event::Flops(4.0)]
        );
    }

    #[test]
    fn nonpositive_flops_ignored() {
        let t = RankTrace::new(true);
        t.record_flops(0.0);
        t.record_flops(-3.0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn phase_events_get_wall_stamps() {
        let t = RankTrace::new(true);
        t.record(Event::PhaseBegin("a"));
        t.record_flops(1.0); // not a phase event, not stamped
        t.record(Event::PhaseEnd("a"));
        let walls = t.take_walls();
        assert_eq!(walls.len(), 2);
        assert!(walls[0] <= walls[1]);
    }

    #[test]
    fn collective_counts_accumulate() {
        let t = RankTrace::new(true);
        t.record_collective("barrier");
        t.record_collective("bcast");
        t.record_collective("barrier");
        let mut counts = t.take_collectives();
        counts.sort_unstable();
        assert_eq!(counts, vec![("barrier", 2), ("bcast", 1)]);
    }

    #[test]
    fn stats_aggregation() {
        let wt = WorldTrace::from_ranks(vec![
            vec![
                Event::Send {
                    to: 1,
                    bytes: 80,
                    seq: 0,
                },
                Event::Flops(100.0),
                Event::Recv {
                    from: 1,
                    bytes: 40,
                    seq: 0,
                },
            ],
            vec![
                Event::Recv {
                    from: 0,
                    bytes: 80,
                    seq: 0,
                },
                Event::Send {
                    to: 0,
                    bytes: 40,
                    seq: 0,
                },
                Event::Flops(300.0),
            ],
        ]);
        let s = wt.stats();
        assert_eq!(s[0].sends, 1);
        assert_eq!(s[0].bytes_sent, 80);
        assert_eq!(s[1].bytes_recvd, 80);
        assert_eq!(wt.total_messages(), 2);
        assert_eq!(wt.total_bytes(), 120);
        assert_eq!(wt.total_flops(), 400.0);
        // avg = 200, max = 300 → imbalance 0.5
        assert!((wt.flop_imbalance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_imbalance_zero() {
        assert_eq!(WorldTrace::default().flop_imbalance(), 0.0);
        let wt = WorldTrace::from_ranks(vec![vec![], vec![]]);
        assert_eq!(wt.flop_imbalance(), 0.0);
    }

    #[test]
    fn take_drains() {
        let t = RankTrace::new(true);
        t.record_flops(1.0);
        assert_eq!(t.take().len(), 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn message_pairs_match_by_src_dst_seq() {
        let wt = WorldTrace::from_ranks(vec![
            vec![
                Event::Send {
                    to: 1,
                    bytes: 8,
                    seq: 0,
                },
                Event::Send {
                    to: 1,
                    bytes: 16,
                    seq: 1,
                },
                Event::Recv {
                    from: 1,
                    bytes: 24,
                    seq: 0,
                },
            ],
            vec![
                Event::Send {
                    to: 0,
                    bytes: 24,
                    seq: 0,
                },
                // Receive out of order relative to the sends.
                Event::Recv {
                    from: 0,
                    bytes: 16,
                    seq: 1,
                },
                Event::Recv {
                    from: 0,
                    bytes: 8,
                    seq: 0,
                },
            ],
        ]);
        let pairs = wt.message_pairs();
        assert_eq!(pairs.len(), 3);
        // Grouped by receiving rank, in receive order.
        assert_eq!(
            pairs[0],
            MessagePair {
                src: 1,
                dst: 0,
                seq: 0,
                bytes: 24,
                send_event: 0,
                recv_event: 2,
            }
        );
        assert_eq!((pairs[1].src, pairs[1].seq, pairs[1].bytes), (0, 1, 16));
        assert_eq!(pairs[1].send_event, 1);
        assert_eq!((pairs[2].src, pairs[2].seq, pairs[2].send_event), (0, 0, 0));
    }

    #[test]
    fn unmatched_messages_form_no_pair() {
        let wt = WorldTrace::from_ranks(vec![
            vec![Event::Send {
                to: 1,
                bytes: 8,
                seq: 0,
            }],
            vec![Event::Recv {
                from: 0,
                bytes: 8,
                seq: 7, // no such send
            }],
        ]);
        assert!(wt.message_pairs().is_empty());
    }

    #[test]
    fn validate_accepts_balanced_nesting() {
        let wt = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("outer"),
            Event::PhaseBegin("inner"),
            Event::Flops(1.0),
            Event::PhaseEnd("inner"),
            Event::PhaseEnd("outer"),
        ]]);
        let spans = wt.spans().unwrap();
        let at = |s: &PhaseSpan| {
            [
                s.depth,
                s.begin_event,
                s.end_event,
                s.begin_wall,
                s.end_wall,
            ]
        };
        // Closing order; the wall ordinals skip the `Flops` event.
        assert_eq!((spans[0].name, at(&spans[0])), ("inner", [1, 1, 3, 1, 2]));
        assert_eq!((spans[1].name, at(&spans[1])), ("outer", [0, 0, 4, 0, 3]));
    }

    #[test]
    fn validate_reports_unmatched_end() {
        let wt = WorldTrace::from_ranks(vec![vec![], vec![Event::PhaseEnd("ghost")]]);
        let faults = wt.spans().unwrap_err();
        assert_eq!(
            faults,
            vec![PhaseFault {
                rank: 1,
                name: "ghost",
                kind: PhaseFaultKind::UnmatchedEnd,
            }]
        );
        assert!(faults[0].to_string().contains("no open phase"));
    }

    #[test]
    fn validate_reports_mismatched_end() {
        let wt = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("a"),
            Event::PhaseBegin("b"),
            Event::PhaseEnd("a"), // closes "a" while "b" is innermost
        ]]);
        let faults = wt.spans().unwrap_err();
        // One mismatched end (it closes "b"), and "a" stays open.
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].kind, PhaseFaultKind::MismatchedEnd { open: "b" });
        assert_eq!(faults[1].kind, PhaseFaultKind::UnclosedBegin);
        assert_eq!(faults[1].name, "a");
    }

    #[test]
    fn validate_reports_unclosed_begin() {
        let wt = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("left-open"),
            Event::Flops(1.0),
        ]]);
        let faults = wt.spans().unwrap_err();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, PhaseFaultKind::UnclosedBegin);
        assert_eq!(faults[0].name, "left-open");
    }
}
