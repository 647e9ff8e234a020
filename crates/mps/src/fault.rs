//! Deterministic fault injection for the message-passing substrate.
//!
//! A [`FaultPlan`] describes, ahead of time, how a run should be perturbed:
//! per-message drop / duplicate / delay probabilities, explicit targeted
//! message faults, and at most one planned rank kill. The plan is threaded
//! through the runtime ([`crate::runtime::run_with_faults`]) into every
//! [`crate::Comm`], so existing point-to-point calls and collectives
//! exercise the faults without any changes at the call site.
//!
//! Every decision is a pure function of `(seed, src, dst, seq)`. Sequence
//! numbers per (source, destination) pair are themselves deterministic —
//! each rank is single-threaded and sends in program order — so the same
//! plan applied to the same program yields the same fault trace every run.
//! The recorded [`FaultEvent`] log makes that property testable.

use crate::message::WirePacket;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What the injector does to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the message through untouched.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message back until after the sender's *next* message to the
    /// same destination (reordering the pair), or until the rank finishes.
    Delay,
}

/// A planned rank death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// World rank to kill.
    pub world_rank: usize,
    /// Step at which the rank dies: the kill fires when the rank calls
    /// [`crate::Comm::begin_step`] with this step number.
    pub at_step: u64,
}

/// An explicitly targeted message fault, keyed by the deterministic
/// (source, destination, sequence) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault {
    /// Sending world rank.
    pub src: usize,
    /// Receiving world rank.
    pub dst: usize,
    /// Send sequence number on the (src, dst) pair.
    pub seq: u64,
    /// What to do with that message.
    pub action: FaultAction,
}

/// A deterministic, seeded fault plan.
///
/// Probabilities are expressed in parts per million of messages; a message's
/// fate is decided by hashing `(seed, src, dst, seq)` into [0, 1e6). The
/// default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every per-message decision.
    pub seed: u64,
    /// Fraction of messages dropped, in parts per million.
    pub drop_ppm: u32,
    /// Fraction of messages duplicated, in parts per million.
    pub duplicate_ppm: u32,
    /// Fraction of messages delayed (reordered), in parts per million.
    pub delay_ppm: u32,
    /// Optional planned rank death.
    pub kill: Option<KillSpec>,
    /// Explicit per-message faults, consulted before the probabilistic ones.
    pub targeted: Vec<TargetedFault>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; compose with the builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the message drop probability (parts per million).
    pub fn with_drop_ppm(mut self, ppm: u32) -> FaultPlan {
        self.drop_ppm = ppm;
        self
    }

    /// Set the message duplication probability (parts per million).
    pub fn with_duplicate_ppm(mut self, ppm: u32) -> FaultPlan {
        self.duplicate_ppm = ppm;
        self
    }

    /// Set the message delay/reorder probability (parts per million).
    pub fn with_delay_ppm(mut self, ppm: u32) -> FaultPlan {
        self.delay_ppm = ppm;
        self
    }

    /// Kill `world_rank` when it begins `step`.
    pub fn with_kill(mut self, world_rank: usize, at_step: u64) -> FaultPlan {
        self.kill = Some(KillSpec {
            world_rank,
            at_step,
        });
        self
    }

    /// Apply `action` to the `seq`-th message from `src` to `dst`.
    pub fn with_targeted(
        mut self,
        src: usize,
        dst: usize,
        seq: u64,
        action: FaultAction,
    ) -> FaultPlan {
        self.targeted.push(TargetedFault {
            src,
            dst,
            seq,
            action,
        });
        self
    }

    /// Decide the fate of the `seq`-th message from `src` to `dst`.
    /// Pure: same inputs, same answer.
    pub fn decide(&self, src: usize, dst: usize, seq: u64) -> FaultAction {
        for t in &self.targeted {
            if t.src == src && t.dst == dst && t.seq == seq {
                return t.action;
            }
        }
        let total = self.drop_ppm + self.duplicate_ppm + self.delay_ppm;
        if total == 0 {
            return FaultAction::Deliver;
        }
        let h = crate::comm::mix(self.seed, ((src as u64) << 32) ^ dst as u64, seq);
        let u = (h % 1_000_000) as u32;
        if u < self.drop_ppm {
            FaultAction::Drop
        } else if u < self.drop_ppm + self.duplicate_ppm {
            FaultAction::Duplicate
        } else if u < total {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }
}

/// One injected fault, as recorded in the per-rank fault log. Delivered
/// messages are not logged; the log is the run's fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A message fault was injected on the sender side.
    Message {
        /// Sending world rank.
        src: usize,
        /// Receiving world rank.
        dst: usize,
        /// Send sequence number on the (src, dst) pair.
        seq: u64,
        /// The injected action (never [`FaultAction::Deliver`]).
        action: FaultAction,
    },
    /// The rank was killed at the start of a step.
    Kill {
        /// The step at which it died.
        step: u64,
    },
}

/// Unwind payload raised when a communication call fails in a fault-aware
/// run; [`crate::runtime::run_with_faults`] catches it and converts the rank
/// into a typed failure instead of propagating a panic.
pub(crate) struct CommAbort(pub(crate) crate::error::Error);

/// Unwind payload raised by a planned kill ([`KillSpec`]); caught by
/// [`crate::runtime::run_with_faults`].
pub(crate) struct FaultKill {
    pub(crate) step: u64,
}

/// Per-rank injector state: the shared plan plus this rank's fault log and
/// held-back (delayed) packets.
pub(crate) struct FaultState {
    plan: Arc<FaultPlan>,
    events: Mutex<Vec<FaultEvent>>,
    /// Packets held back by [`FaultAction::Delay`], keyed by destination.
    held: Mutex<Vec<(usize, WirePacket)>>,
    killed: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: Arc<FaultPlan>) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan,
            events: Mutex::new(Vec::new()),
            held: Mutex::new(Vec::new()),
            killed: AtomicBool::new(false),
        })
    }

    /// Decide and log the fate of an outgoing message.
    pub(crate) fn decide_send(&self, src: usize, dst: usize, seq: u64) -> FaultAction {
        let action = self.plan.decide(src, dst, seq);
        if action != FaultAction::Deliver {
            self.events.lock().push(FaultEvent::Message {
                src,
                dst,
                seq,
                action,
            });
        }
        action
    }

    /// Hold a delayed packet destined for world rank `dst`.
    pub(crate) fn hold(&self, dst: usize, pkt: WirePacket) {
        self.held.lock().push((dst, pkt));
    }

    /// Release every held packet for `dst` (called after a later send to
    /// `dst`, completing the reorder).
    pub(crate) fn release_for(&self, dst: usize) -> Vec<WirePacket> {
        let mut held = self.held.lock();
        let mut out = Vec::new();
        let mut i = 0;
        while i < held.len() {
            if held[i].0 == dst {
                out.push(held.remove(i).1);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Drain every held packet (flushed when the rank finishes normally).
    pub(crate) fn drain_held(&self) -> Vec<(usize, WirePacket)> {
        std::mem::take(&mut *self.held.lock())
    }

    /// True if this rank should die at `step`; logs the kill on first ask.
    pub(crate) fn should_kill(&self, world_rank: usize, step: u64) -> bool {
        match self.plan.kill {
            Some(k) if k.world_rank == world_rank && k.at_step == step => {
                if !self.killed.swap(true, Ordering::Relaxed) {
                    self.events.lock().push(FaultEvent::Kill { step });
                }
                true
            }
            _ => false,
        }
    }

    /// Take the recorded fault log.
    pub(crate) fn take_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_delivers_everything() {
        let plan = FaultPlan::default();
        for seq in 0..1000 {
            assert_eq!(plan.decide(0, 1, seq), FaultAction::Deliver);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(42)
            .with_drop_ppm(100_000)
            .with_delay_ppm(100_000);
        let b = a.clone();
        for src in 0..4 {
            for dst in 0..4 {
                for seq in 0..200 {
                    assert_eq!(a.decide(src, dst, seq), b.decide(src, dst, seq));
                }
            }
        }
    }

    #[test]
    fn seed_changes_decisions() {
        let a = FaultPlan::seeded(1).with_drop_ppm(500_000);
        let b = FaultPlan::seeded(2).with_drop_ppm(500_000);
        let differs = (0..200).any(|seq| a.decide(0, 1, seq) != b.decide(0, 1, seq));
        assert!(differs, "different seeds must produce different traces");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        // 20% drop: over 10k messages expect 2000 ± a wide margin.
        let plan = FaultPlan::seeded(7).with_drop_ppm(200_000);
        let drops = (0..10_000u64)
            .filter(|&seq| plan.decide(0, 1, seq) == FaultAction::Drop)
            .count();
        assert!((1500..2500).contains(&drops), "drops {drops}");
    }

    #[test]
    fn targeted_fault_overrides_probabilities() {
        let plan = FaultPlan::seeded(3).with_targeted(2, 0, 5, FaultAction::Drop);
        assert_eq!(plan.decide(2, 0, 5), FaultAction::Drop);
        assert_eq!(plan.decide(2, 0, 4), FaultAction::Deliver);
        assert_eq!(plan.decide(0, 2, 5), FaultAction::Deliver);
    }

    #[test]
    fn kill_spec_matches_only_its_rank_and_step() {
        let state = FaultState::new(Arc::new(FaultPlan::seeded(0).with_kill(2, 7)));
        assert!(!state.should_kill(2, 6));
        assert!(!state.should_kill(1, 7));
        assert!(state.should_kill(2, 7));
        assert_eq!(state.take_events(), vec![FaultEvent::Kill { step: 7 }]);
    }

    #[test]
    fn held_packets_release_by_destination() {
        use crate::message::Payload;
        let state = FaultState::new(Arc::new(FaultPlan::default()));
        let pkt = |tag| WirePacket {
            world_src: 0,
            ctx: 0,
            tag,
            seq: 0,
            payload: Payload::Empty,
        };
        state.hold(1, pkt(10));
        state.hold(2, pkt(20));
        state.hold(1, pkt(11));
        let for_1 = state.release_for(1);
        assert_eq!(
            for_1.iter().map(|p| p.tag).collect::<Vec<_>>(),
            vec![10, 11]
        );
        let rest = state.drain_held();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, 2);
    }
}
