//! Live span observation: a hook called as ranks enter and leave phases.
//!
//! The [`trace::RankTrace`](crate::trace::RankTrace) records phase events
//! for *post-hoc* replay; a [`SpanObserver`] sees the same phase
//! boundaries *while the world runs*, so a serving layer can show the
//! phase breakdown of a job that has not finished yet. The observer is
//! optional ([`WorldOptions::spans`](crate::runtime::WorldOptions)); when
//! absent, phase entry/exit costs one `Option` check and nothing else.
//!
//! Observers are called from every rank thread concurrently and must be
//! cheap: a slow observer stalls the rank that called it. Implementations
//! pair `phase_begin`/`phase_end` themselves (calls on one rank are
//! properly nested, in program order).

/// Receives phase-boundary notifications from running ranks.
pub trait SpanObserver: Send + Sync {
    /// Rank `rank` entered phase `name`.
    fn phase_begin(&self, rank: usize, name: &'static str);

    /// Rank `rank` left phase `name` (the innermost open phase).
    fn phase_end(&self, rank: usize, name: &'static str);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_world, WorldOptions};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Default)]
    struct Recorder {
        events: Mutex<Vec<(usize, &'static str, bool)>>,
    }

    impl SpanObserver for Recorder {
        fn phase_begin(&self, rank: usize, name: &'static str) {
            self.events.lock().push((rank, name, true));
        }
        fn phase_end(&self, rank: usize, name: &'static str) {
            self.events.lock().push((rank, name, false));
        }
    }

    #[test]
    fn observer_sees_balanced_phases_per_rank() {
        let rec = Arc::new(Recorder::default());
        let opts = WorldOptions {
            spans: Some(rec.clone()),
            ..WorldOptions::default()
        };
        let out = run_world(3, opts, |c| {
            c.phase("step", || {
                c.phase("fd", || c.record_flops(1.0));
            });
        });
        assert!(out.all_ok());
        let events = rec.events.lock();
        for rank in 0..3 {
            let mine: Vec<_> = events.iter().filter(|(r, _, _)| *r == rank).collect();
            assert_eq!(
                mine.iter()
                    .map(|(_, n, begin)| (*n, *begin))
                    .collect::<Vec<_>>(),
                vec![("step", true), ("fd", true), ("fd", false), ("step", false)],
                "rank {rank}"
            );
        }
    }

    #[test]
    fn no_observer_is_the_default_and_harmless() {
        let out = run_world(2, WorldOptions::default(), |c| c.phase("step", || c.rank()));
        assert!(out.all_ok());
    }
}
