//! Aggregated counters for a recovered run.

use crate::recovery::AttemptFailure;
use agcm_mps::fault::{FaultAction, FaultEvent};
use agcm_mps::runtime::FailureKind;

/// What the fault plane and recovery loop did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceMetrics {
    /// Attempts made (1 = clean run).
    pub attempts: usize,
    /// Restarts performed (attempts − 1).
    pub restarts: usize,
    /// Rank failures caused by planned kills, summed over attempts.
    pub ranks_killed: usize,
    /// Rank failures caused by communication aborts, summed over attempts.
    pub ranks_disconnected: usize,
    /// Rank failures caused by cooperative cancellation.
    pub ranks_cancelled: usize,
    /// Messages dropped by the injector.
    pub messages_dropped: usize,
    /// Messages duplicated by the injector.
    pub messages_duplicated: usize,
    /// Messages delayed (reordered) by the injector.
    pub messages_delayed: usize,
}

impl ResilienceMetrics {
    /// Aggregate the counters of a recovered run.
    pub fn tally(
        attempts: usize,
        failures: &[AttemptFailure],
        fault_events: &[Vec<FaultEvent>],
    ) -> ResilienceMetrics {
        let mut m = ResilienceMetrics {
            attempts,
            restarts: attempts.saturating_sub(1),
            ..ResilienceMetrics::default()
        };
        for failure in failures {
            for (_, kind) in &failure.failed_ranks {
                match kind {
                    FailureKind::Killed { .. } => m.ranks_killed += 1,
                    FailureKind::Disconnected { .. } => m.ranks_disconnected += 1,
                    FailureKind::Cancelled => m.ranks_cancelled += 1,
                }
            }
        }
        for events in fault_events {
            for event in events {
                if let FaultEvent::Message { action, .. } = event {
                    match action {
                        FaultAction::Drop => m.messages_dropped += 1,
                        FaultAction::Duplicate => m.messages_duplicated += 1,
                        FaultAction::Delay => m.messages_delayed += 1,
                        FaultAction::Deliver => {}
                    }
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_by_kind() {
        let failures = vec![AttemptFailure {
            attempt: 0,
            resumed_from: None,
            failed_ranks: vec![
                (1, FailureKind::Killed { step: 5 }),
                (
                    0,
                    FailureKind::Disconnected {
                        error: agcm_mps::Error::Timeout,
                    },
                ),
            ],
        }];
        let events = vec![
            vec![
                FaultEvent::Message {
                    src: 0,
                    dst: 1,
                    seq: 0,
                    action: FaultAction::Drop,
                },
                FaultEvent::Message {
                    src: 0,
                    dst: 1,
                    seq: 3,
                    action: FaultAction::Delay,
                },
            ],
            vec![FaultEvent::Kill { step: 5 }],
        ];
        let m = ResilienceMetrics::tally(2, &failures, &events);
        assert_eq!(m.attempts, 2);
        assert_eq!(m.restarts, 1);
        assert_eq!(m.ranks_killed, 1);
        assert_eq!(m.ranks_disconnected, 1);
        assert_eq!(m.messages_dropped, 1);
        assert_eq!(m.messages_delayed, 1);
        assert_eq!(m.messages_duplicated, 0);
    }
}
