//! Live span observation: a hook called as ranks close phases.
//!
//! The [`trace::RankTrace`](crate::trace::RankTrace) records phase events
//! for *post-hoc* replay; a [`SpanObserver`] sees each phase as it closes
//! *while the world runs*, so a serving layer can show the phase
//! breakdown of a job that has not finished yet. The observer is optional
//! ([`WorldOptions::spans`](crate::runtime::WorldOptions)); when absent,
//! phase entry/exit costs one `Option` check and nothing else.
//!
//! Phases are paired on their own rank: with an observer attached, each
//! rank keeps a stack of open phases with their wall-clock begin
//! instants, and `phase_end` pops it and hands the observer the phase and
//! its wall seconds. A phase left open when a rank dies (a planned kill,
//! a cancellation, a panic) is never reported, and a retry starts from a
//! new world with empty stacks.
//!
//! Observers are called from every rank thread concurrently and must be
//! cheap: a slow observer stalls the rank that called it.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Receives the phases running ranks close.
pub trait SpanObserver: Send + Sync {
    /// Rank `rank` closed phase `name` after `wall_seconds` of wall-clock
    /// time on this machine. Calls on one rank come in closing order
    /// (inner phases before the phase that encloses them).
    fn phase_ended(&self, rank: usize, name: &'static str, wall_seconds: f64);
}

/// One rank's open phases, kept only when an observer is attached.
pub(crate) struct OpenPhases {
    observer: Arc<dyn SpanObserver>,
    /// `(phase, begin instant)`, innermost last. Only the owning rank's
    /// thread touches it, so the lock is never contended.
    stack: Mutex<Vec<(&'static str, Instant)>>,
}

impl OpenPhases {
    pub(crate) fn new(observer: Arc<dyn SpanObserver>) -> OpenPhases {
        OpenPhases {
            observer,
            stack: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn begin(&self, name: &'static str) {
        self.stack.lock().push((name, Instant::now()));
    }

    /// Close the innermost open phase if it is `name`; an end that does
    /// not match is dropped, never mispaired.
    pub(crate) fn end(&self, rank: usize, name: &'static str) {
        let begun = {
            let mut stack = self.stack.lock();
            match stack.last() {
                Some(&(open, _)) if open == name => stack.pop(),
                _ => None,
            }
        };
        if let Some((_, begin)) = begun {
            self.observer
                .phase_ended(rank, name, begin.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::{run_world, FailureKind, WorldOptions};

    #[derive(Default)]
    struct Recorder {
        ended: Mutex<Vec<(usize, &'static str, f64)>>,
    }

    impl SpanObserver for Recorder {
        fn phase_ended(&self, rank: usize, name: &'static str, wall_seconds: f64) {
            self.ended.lock().push((rank, name, wall_seconds));
        }
    }

    impl Recorder {
        fn of_rank(&self, rank: usize) -> Vec<&'static str> {
            let ended = self.ended.lock();
            ended
                .iter()
                .filter(|(r, _, _)| *r == rank)
                .map(|(_, n, _)| *n)
                .collect()
        }
    }

    fn world_with(rec: &Arc<Recorder>, plan: Option<FaultPlan>) -> WorldOptions {
        WorldOptions {
            plan,
            spans: Some(rec.clone()),
            ..WorldOptions::default()
        }
    }

    #[test]
    fn observer_sees_balanced_phases_per_rank() {
        let rec = Arc::new(Recorder::default());
        let out = run_world(3, world_with(&rec, None), |c| {
            c.phase("step", || {
                c.phase("fd", || c.record_flops(1.0));
                c.phase("physics", || c.record_flops(1.0));
            });
        });
        assert!(out.all_ok());
        for rank in 0..3 {
            assert_eq!(rec.of_rank(rank), ["fd", "physics", "step"], "rank {rank}");
        }
        let ended = rec.ended.lock();
        assert_eq!(ended.len(), 9);
        assert!(ended.iter().all(|&(_, _, wall)| wall >= 0.0));
        // A phase's wall time covers the phases nested in it.
        for rank in 0..3 {
            let wall = |name| {
                ended
                    .iter()
                    .find(|&&(r, n, _)| r == rank && n == name)
                    .unwrap()
                    .2
            };
            assert!(wall("step") >= wall("fd") + wall("physics"), "rank {rank}");
        }
    }

    #[test]
    fn phases_left_open_by_a_killed_rank_are_not_reported() {
        let rec = Arc::new(Recorder::default());
        let plan = FaultPlan::seeded(1).with_kill(1, 2);
        let out = run_world(2, world_with(&rec, Some(plan)), |c| {
            for step in 0..4u64 {
                c.phase("step", || {
                    c.phase("fd", || c.begin_step(step));
                });
            }
        });
        assert_eq!(out.results[0], Ok(()));
        assert_eq!(out.results[1], Err(FailureKind::Killed { step: 2 }));
        assert_eq!(rec.of_rank(0), ["fd", "step"].repeat(4));
        // Rank 1 closed steps 0 and 1, then died inside step 2's "fd".
        assert_eq!(rec.of_rank(1), ["fd", "step"].repeat(2));
    }

    #[test]
    fn an_end_that_does_not_match_the_open_phase_is_dropped() {
        let rec = Arc::new(Recorder::default());
        let phases = OpenPhases::new(rec.clone());
        phases.end(0, "fd");
        phases.begin("step");
        phases.end(0, "fd");
        phases.end(0, "step");
        assert_eq!(rec.of_rank(0), ["step"]);
    }

    #[test]
    fn no_observer_is_the_default_and_harmless() {
        let out = run_world(2, WorldOptions::default(), |c| c.phase("step", || c.rank()));
        assert!(out.all_ok());
    }
}
