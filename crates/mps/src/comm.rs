//! Communicators: point-to-point messaging with tag matching.
//!
//! A [`Comm`] is a rank's handle on a group of peers. The world communicator
//! is created by [`crate::runtime::run`]; sub-communicators (rows/columns of
//! the processor mesh, filter groups) are derived with [`Comm::split`].
//!
//! Matching semantics follow MPI: a receive names a source rank (or
//! [`ANY_SRC`]) and a tag (or [`ANY_TAG`]); messages between the same
//! (source, destination, context) triple are non-overtaking. Sends are eager
//! and never block.

use crate::cancel::{CancelToken, CancelUnwind};
use crate::error::Error;
use crate::fault::{CommAbort, FaultAction, FaultKill, FaultState};
use crate::message::{Packet, Payload, WirePacket};
use crate::span::{OpenPhases, SpanObserver};
use crate::trace::{Event, RankTrace};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wildcard source rank for [`Comm::recv`].
pub const ANY_SRC: usize = usize::MAX;
/// Wildcard tag for [`Comm::recv`].
pub const ANY_TAG: u64 = u64::MAX;

/// Tag bit reserved for internal collective traffic. User tags must leave
/// this bit clear; [`Comm::send`] asserts this.
pub(crate) const COLL_BIT: u64 = 1 << 63;

/// How long a blocked receive sleeps between liveness checks.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Polls of the arrival count a blocked receive makes back to back before
/// it starts yielding between polls. Short on purpose: on the 2-core
/// reference VM a `spin_loop` poll is ≈ 10 ns and a `yield_now` with
/// nothing else to run ≈ 0.19 µs, so yielding polls almost as finely as
/// spinning, while every spin is time a peer *on the same core* cannot
/// use — a two-rank ping-pong pinned to one CPU takes 0.7 µs one way with
/// 8 polls, 1.1 with 30, 2.0 with 100, 4.8 with 300 (unpinned: 0.6–0.7
/// for all of them). Sixteen polls cover a peer that is inside its `send`
/// already and cost what one yield costs.
const SPIN_POLLS: u32 = 16;

/// How long a blocked receive polls (spinning, then yielding the core
/// between polls) before it parks on the channel's condvar. A park costs
/// the sender a `futex` wake and the receiver a trip through the
/// scheduler: measured on the reference VM a parked hand-off between two
/// cores takes ≈ 22 µs one way against ≈ 0.6 µs for a polled one, and a
/// 1×2 paper-grid step parked ≈ 12 times (≈ 1 after). The gaps between a
/// rank's messages in a step — a neighbour finishing the same sweep — are
/// mostly shorter than two park latencies, which is what the budget is:
/// a wait that outlasts it is a real imbalance, where sleeping is right.
/// The yields keep this honest when ranks outnumber cores: the budget is
/// then spent running the ranks being waited for (40 paper-grid steps on
/// 2 cores: 2×2 ≈ 150 → 112 ms, 2×3 ≈ 160 → 122 ms).
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Shared routing table: one eager channel per world rank, plus liveness
/// flags maintained by the runtime (a rank's flag drops when its thread
/// exits, normally or by unwinding).
pub(crate) struct World {
    pub(crate) senders: Vec<Sender<WirePacket>>,
    pub(crate) alive: Vec<AtomicBool>,
    /// True in fault-aware runs: recv failures raise a typed abort caught
    /// by the runtime instead of an opaque panic.
    pub(crate) faulty: bool,
}

/// Per-rank state shared by every communicator this rank derives.
pub(crate) struct RankShared {
    pub(crate) world: Arc<World>,
    pub(crate) world_rank: usize,
    rx: Receiver<WirePacket>,
    /// Messages that arrived but did not match an outstanding receive.
    pending: Mutex<Vec<WirePacket>>,
    /// Per-destination send sequence numbers (for trace replay matching).
    send_seq: Vec<AtomicU64>,
    pub(crate) trace: Arc<RankTrace>,
    /// Fault injector, present only in fault-aware runs.
    pub(crate) fault: Option<Arc<FaultState>>,
    /// Cooperative cancellation token, present only when the launcher
    /// supplied one ([`crate::runtime::run_world`]).
    pub(crate) cancel: Option<CancelToken>,
    /// This rank's open phases, kept only when the launcher supplied a
    /// span observer; closed phases are reported to it as they end.
    spans: Option<OpenPhases>,
}

impl RankShared {
    pub(crate) fn new(
        world: Arc<World>,
        world_rank: usize,
        rx: Receiver<WirePacket>,
        trace: Arc<RankTrace>,
        fault: Option<Arc<FaultState>>,
        cancel: Option<CancelToken>,
        spans: Option<Arc<dyn SpanObserver>>,
    ) -> Arc<Self> {
        let n = world.senders.len();
        Arc::new(RankShared {
            world,
            world_rank,
            rx,
            pending: Mutex::new(Vec::new()),
            send_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            trace,
            fault,
            cancel,
            spans: spans.map(OpenPhases::new),
        })
    }
}

/// A communicator: this rank's view of an ordered group of world ranks.
pub struct Comm {
    shared: Arc<RankShared>,
    /// Context id separating traffic of different communicators.
    ctx: u64,
    /// This rank's position within `members`.
    rank: usize,
    /// World ranks of the members, in communicator order.
    members: Arc<Vec<usize>>,
    /// Inverse of `members`.
    world_to_local: Arc<HashMap<usize, usize>>,
    /// Number of `split` calls made on this communicator (kept consistent
    /// across members because `split` is collective).
    split_counter: AtomicU64,
}

pub(crate) fn mix(a: u64, b: u64, c: u64) -> u64 {
    // SplitMix64-style avalanche over the three inputs.
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Comm {
    /// Build the world communicator for one rank (runtime use).
    pub(crate) fn world(shared: Arc<RankShared>) -> Comm {
        let n = shared.world.senders.len();
        let members: Vec<usize> = (0..n).collect();
        let world_to_local = members.iter().map(|&w| (w, w)).collect();
        Comm {
            rank: shared.world_rank,
            shared,
            ctx: 0,
            members: Arc::new(members),
            world_to_local: Arc::new(world_to_local),
            split_counter: AtomicU64::new(0),
        }
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's world (global) rank.
    pub fn world_rank(&self) -> usize {
        self.shared.world_rank
    }

    /// Record `flops` floating-point operations of local work in the trace.
    pub fn record_flops(&self, flops: f64) {
        self.shared.trace.record_flops(flops);
    }

    /// Count one call of the named collective primitive in the trace.
    pub(crate) fn record_collective(&self, name: &'static str) {
        self.shared.trace.record_collective(name);
    }

    /// Mark the beginning of a named phase in the trace.
    pub fn phase_begin(&self, name: &'static str) {
        self.shared.trace.record(Event::PhaseBegin(name));
        if let Some(open) = &self.shared.spans {
            open.begin(name);
        }
    }

    /// Mark the end of a named phase in the trace.
    pub fn phase_end(&self, name: &'static str) {
        self.shared.trace.record(Event::PhaseEnd(name));
        if let Some(open) = &self.shared.spans {
            open.end(self.shared.world_rank, name);
        }
    }

    /// Run `body` inside a named phase.
    pub fn phase<R>(&self, name: &'static str, body: impl FnOnce() -> R) -> R {
        self.phase_begin(name);
        let r = body();
        self.phase_end(name);
        r
    }

    /// Eagerly send `payload` to rank `dst` with `tag`. Never blocks.
    pub fn send(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(tag & COLL_BIT == 0, "user tags must leave bit 63 clear");
        self.send_internal(dst, tag, payload);
    }

    pub(crate) fn send_internal(&self, dst: usize, tag: u64, payload: Payload) {
        assert!(
            dst < self.size(),
            "send to rank {dst} out of range for size {}",
            self.size()
        );
        let world_dst = self.members[dst];
        let seq = self.shared.send_seq[world_dst].fetch_add(1, Ordering::Relaxed);
        self.shared.trace.record(Event::Send {
            to: world_dst,
            bytes: payload.byte_len(),
            seq,
        });
        let pkt = WirePacket {
            world_src: self.shared.world_rank,
            ctx: self.ctx,
            tag,
            seq,
            payload,
        };
        self.push_wire(world_dst, pkt);
    }

    /// Put a packet on the wire, letting the fault injector (if any) decide
    /// its fate. Channel send failures are ignored: a missing receiver means
    /// the peer is gone and the run is already unwinding or recovering.
    fn push_wire(&self, world_dst: usize, pkt: WirePacket) {
        let wire = &self.shared.world.senders[world_dst];
        let Some(fault) = &self.shared.fault else {
            let _ = wire.send(pkt);
            return;
        };
        match fault.decide_send(self.shared.world_rank, world_dst, pkt.seq) {
            FaultAction::Deliver => {
                let _ = wire.send(pkt);
            }
            FaultAction::Drop => return,
            FaultAction::Duplicate => {
                let _ = wire.send(pkt.clone());
                let _ = wire.send(pkt);
            }
            FaultAction::Delay => {
                // Held until the next message to the same destination (or
                // rank completion); nothing else to do now.
                fault.hold(world_dst, pkt);
                return;
            }
        }
        // A message actually went out, so any packets held back for this
        // destination are now out of order — release them behind it.
        for held in fault.release_for(world_dst) {
            let _ = wire.send(held);
        }
    }

    fn matches(&self, pkt: &WirePacket, src: usize, tag: u64) -> bool {
        if pkt.ctx != self.ctx {
            return false;
        }
        if tag != ANY_TAG && pkt.tag != tag {
            return false;
        }
        if src == ANY_SRC {
            self.world_to_local.contains_key(&pkt.world_src)
        } else {
            pkt.world_src == self.members[src]
        }
    }

    /// Blocking receive of a message from `src` (or [`ANY_SRC`]) with `tag`
    /// (or [`ANY_TAG`]).
    pub fn recv(&self, src: usize, tag: u64) -> Packet {
        assert!(
            tag == ANY_TAG || tag & COLL_BIT == 0,
            "user tags must leave bit 63 clear"
        );
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal(&self, src: usize, tag: u64) -> Packet {
        match self.recv_deadline(src, tag, None) {
            Ok(pkt) => pkt,
            Err(err) if self.shared.world.faulty => std::panic::panic_any(CommAbort(err)),
            Err(err) => panic!("recv: {err} (a rank panicked?)"),
        }
    }

    /// Receive with a deadline: [`Error::Timeout`] if no matching message
    /// arrives within `timeout`, [`Error::PeerDisconnected`] if the awaited
    /// peer dies first.
    pub fn recv_timeout(&self, src: usize, tag: u64, timeout: Duration) -> Result<Packet, Error> {
        assert!(
            tag == ANY_TAG || tag & COLL_BIT == 0,
            "user tags must leave bit 63 clear"
        );
        self.recv_deadline(src, tag, Some(Instant::now() + timeout))
    }

    /// Non-blocking receive: `Ok(None)` if no matching message has arrived.
    pub fn try_recv(&self, src: usize, tag: u64) -> Result<Option<Packet>, Error> {
        assert!(
            tag == ANY_TAG || tag & COLL_BIT == 0,
            "user tags must leave bit 63 clear"
        );
        self.check_src(src);
        if let Some(pkt) = self.match_pending(src, tag) {
            return Ok(Some(pkt));
        }
        if let Some(pkt) = self.drain_rx(src, tag) {
            return Ok(Some(pkt));
        }
        if let Some(dead) = self.starved(src) {
            // Close the race between the peer's final send and its
            // liveness flag dropping (see recv_deadline).
            if let Some(pkt) = self.drain_rx(src, tag) {
                return Ok(Some(pkt));
            }
            return Err(Error::PeerDisconnected { world_rank: dead });
        }
        Ok(None)
    }

    /// Announce the start of model step `step` to the fault plane. In a
    /// fault-aware run a planned kill fires here, and a cancelled world
    /// unwinds here; otherwise this is a no-op.
    pub fn begin_step(&self, step: u64) {
        self.check_cancelled();
        if let Some(fault) = &self.shared.fault {
            if fault.should_kill(self.shared.world_rank, step) {
                std::panic::panic_any(FaultKill { step });
            }
        }
    }

    /// Cancellation point: unwind with the controlled payload if this
    /// world's token has been cancelled. Only worlds launched with a token
    /// ([`crate::runtime::run_world`]) ever unwind here, and those always
    /// run in faulty mode, so the runtime converts the payload into a
    /// typed [`crate::runtime::FailureKind::Cancelled`].
    fn check_cancelled(&self) {
        if let Some(token) = &self.shared.cancel {
            if token.is_cancelled() {
                std::panic::panic_any(CancelUnwind);
            }
        }
    }

    fn check_src(&self, src: usize) {
        if src != ANY_SRC {
            assert!(
                src < self.size(),
                "recv from rank {src} out of range for size {}",
                self.size()
            );
        }
    }

    /// Take the first matching packet already queued in `pending`.
    fn match_pending(&self, src: usize, tag: u64) -> Option<Packet> {
        let mut pending = self.shared.pending.lock();
        let pos = pending.iter().position(|p| self.matches(p, src, tag))?;
        let pkt = pending.remove(pos);
        drop(pending);
        Some(self.deliver(pkt))
    }

    /// Drain everything currently in the channel; return the first match
    /// (later arrivals stay in the channel), queueing non-matches.
    fn drain_rx(&self, src: usize, tag: u64) -> Option<Packet> {
        loop {
            match self.shared.rx.try_recv() {
                Ok(pkt) => {
                    if self.matches(&pkt, src, tag) {
                        return Some(self.deliver(pkt));
                    }
                    self.shared.pending.lock().push(pkt);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// If the receive on `src` can never complete because the awaited
    /// peer(s) died, return the world rank of a dead peer.
    fn starved(&self, src: usize) -> Option<usize> {
        let alive = &self.shared.world.alive;
        if src == ANY_SRC {
            // Starved only once every *other* member is gone.
            let mut dead = None;
            for &w in self.members.iter() {
                if w == self.shared.world_rank {
                    continue;
                }
                if alive[w].load(Ordering::SeqCst) {
                    return None;
                }
                dead = dead.or(Some(w));
            }
            dead
        } else {
            let w = self.members[src];
            (w != self.shared.world_rank && !alive[w].load(Ordering::SeqCst)).then_some(w)
        }
    }

    /// Wait for the channel to hold a message without parking: poll the
    /// lock-free arrival count [`SPIN_POLLS`] times, then keep polling
    /// with a `yield_now` in between until [`POLL_BUDGET`] (or `limit`, if
    /// shorter) is spent. True if something arrived.
    fn poll_arrival(&self, limit: Duration) -> bool {
        let rx = &self.shared.rx;
        for _ in 0..SPIN_POLLS {
            if !rx.is_empty() {
                return true;
            }
            std::hint::spin_loop();
        }
        let budget = POLL_BUDGET.min(limit);
        let started = Instant::now();
        while started.elapsed() < budget {
            std::thread::yield_now();
            if !rx.is_empty() {
                return true;
            }
        }
        false
    }

    /// The receive core: pending queue, then channel — polled for a
    /// bounded while (spin, then yield), then parked on — with bounded
    /// sleeps between liveness checks so a dead peer surfaces as
    /// [`Error::PeerDisconnected`] instead of a hang.
    fn recv_deadline(
        &self,
        src: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Packet, Error> {
        self.check_src(src);
        loop {
            // A blocked receiver must notice cancellation without waiting
            // for a message: the poll loop is the cancellation point, so a
            // cancelled rank wakes within one POLL_INTERVAL (plus the
            // POLL_BUDGET spent before parking).
            self.check_cancelled();
            if let Some(pkt) = self.match_pending(src, tag) {
                return Ok(pkt);
            }
            if let Some(pkt) = self.drain_rx(src, tag) {
                return Ok(pkt);
            }
            if let Some(dead) = self.starved(src) {
                // A peer's final sends happen before its liveness flag
                // drops, but may land after our drain above — look once
                // more before declaring starvation.
                if let Some(pkt) = self.drain_rx(src, tag) {
                    return Ok(pkt);
                }
                return Err(Error::PeerDisconnected { world_rank: dead });
            }
            let wait = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(Error::Timeout);
                    }
                    (d - now).min(POLL_INTERVAL)
                }
                None => POLL_INTERVAL,
            };
            if self.poll_arrival(wait) {
                continue;
            }
            match self.shared.rx.recv_timeout(wait) {
                Ok(pkt) => {
                    if self.matches(&pkt, src, tag) {
                        return Ok(self.deliver(pkt));
                    }
                    self.shared.pending.lock().push(pkt);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(Error::Disconnected),
            }
        }
    }

    fn deliver(&self, pkt: WirePacket) -> Packet {
        self.shared.trace.record(Event::Recv {
            from: pkt.world_src,
            bytes: pkt.payload.byte_len(),
            seq: pkt.seq,
        });
        let src = *self
            .world_to_local
            .get(&pkt.world_src)
            .expect("matched packet has a source in this communicator");
        Packet {
            src,
            tag: pkt.tag,
            seq: pkt.seq,
            payload: pkt.payload,
        }
    }

    /// Receive and unwrap a float buffer.
    pub fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        self.recv(src, tag).payload.into_f64()
    }

    /// Receive and unwrap an integer buffer.
    pub fn recv_i64(&self, src: usize, tag: u64) -> Vec<i64> {
        self.recv(src, tag).payload.into_i64()
    }

    /// Collectively split this communicator. Ranks supplying the same
    /// `color` land in the same sub-communicator, ordered by `key` (ties
    /// broken by parent rank). Every member of `self` must call `split`.
    pub fn split(&self, color: i64, key: i64) -> Comm {
        let seq = self.split_counter.fetch_add(1, Ordering::Relaxed);
        // Gather (color, key) from everyone.
        let mine = vec![color, key];
        let all = self.allgather_i64(&mine);
        let mut group: Vec<(i64, usize)> = Vec::new(); // (key, parent rank)
        for (r, ck) in all.chunks(2).enumerate() {
            if ck[0] == color {
                group.push((ck[1], r));
            }
        }
        group.sort();
        let members: Vec<usize> = group.iter().map(|&(_, r)| self.members[r]).collect();
        let world_to_local: HashMap<usize, usize> =
            members.iter().enumerate().map(|(l, &w)| (w, l)).collect();
        let rank = world_to_local[&self.shared.world_rank];
        Comm {
            shared: Arc::clone(&self.shared),
            ctx: mix(self.ctx, seq.wrapping_add(1), color as u64),
            rank,
            members: Arc::new(members),
            world_to_local: Arc::new(world_to_local),
            split_counter: AtomicU64::new(0),
        }
    }

    /// Duplicate this communicator with a fresh context (collective).
    pub fn dup(&self) -> Comm {
        self.split(0, self.rank as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::{run, run_world, WorldOptions};

    #[test]
    fn a_world_without_a_plan_builds_no_injector() {
        let plain = run_world(2, WorldOptions::default(), |c| c.shared.fault.is_some());
        assert_eq!(plain.results, vec![Ok(false), Ok(false)]);
        let planned = WorldOptions {
            plan: Some(FaultPlan::seeded(1)),
            ..WorldOptions::default()
        };
        let faulty = run_world(2, planned, |c| c.shared.fault.is_some());
        assert_eq!(faulty.results, vec![Ok(true), Ok(true)]);
    }

    #[test]
    fn ring_shift() {
        let out = run(5, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 1, Payload::I64(vec![c.rank() as i64]));
            c.recv_i64(left, 1)[0]
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 10, Payload::F64(vec![1.0]));
                c.send(1, 20, Payload::F64(vec![2.0]));
                0.0
            } else {
                // Receive in reverse tag order: the tag-20 message must be
                // matched even though tag-10 arrives first.
                let b = c.recv_f64(0, 20)[0];
                let a = c.recv_f64(0, 10)[0];
                a + 10.0 * b
            }
        });
        assert_eq!(out[1], 21.0);
    }

    #[test]
    fn any_source_any_tag() {
        let out = run(3, |c| {
            if c.rank() == 2 {
                let mut sum = 0;
                for _ in 0..2 {
                    let p = c.recv(ANY_SRC, ANY_TAG);
                    sum += p.payload.into_i64()[0];
                    assert!(p.src < 2);
                }
                sum
            } else {
                c.send(2, c.rank() as u64, Payload::I64(vec![1 + c.rank() as i64]));
                0
            }
        });
        assert_eq!(out[2], 3);
    }

    #[test]
    fn split_rows() {
        // 2x3 mesh: color by row, key by column.
        let out = run(6, |c| {
            let (row, col) = (c.rank() / 3, c.rank() % 3);
            let rc = c.split(row as i64, col as i64);
            assert_eq!(rc.size(), 3);
            assert_eq!(rc.rank(), col);
            // Ring shift inside the row only.
            let right = (rc.rank() + 1) % rc.size();
            let left = (rc.rank() + rc.size() - 1) % rc.size();
            rc.send(right, 2, Payload::I64(vec![c.rank() as i64]));
            rc.recv_i64(left, 2)[0]
        });
        assert_eq!(out, vec![2, 0, 1, 5, 3, 4]);
    }

    #[test]
    fn split_isolates_contexts() {
        // Messages sent on the parent must not be visible on the child.
        let out = run(2, |c| {
            let sub = c.split(0, c.rank() as i64);
            if c.rank() == 0 {
                c.send(1, 5, Payload::I64(vec![111]));
                sub.send(1, 5, Payload::I64(vec![222]));
                0
            } else {
                let from_sub = sub.recv_i64(0, 5)[0];
                let from_parent = c.recv_i64(0, 5)[0];
                from_sub * 1000 + from_parent
            }
        });
        assert_eq!(out[1], 222_111);
    }

    #[test]
    fn dup_preserves_layout() {
        run(3, |c| {
            let d = c.dup();
            assert_eq!(d.rank(), c.rank());
            assert_eq!(d.size(), c.size());
        });
    }

    #[test]
    fn non_overtaking_same_tag() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send(1, 1, Payload::I64(vec![i]));
                }
                vec![]
            } else {
                (0..10).map(|_| c.recv_i64(0, 1)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<i64>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send(5, 0, Payload::Empty);
            }
        });
    }
}
