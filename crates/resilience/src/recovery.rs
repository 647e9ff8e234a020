//! Restart-from-last-checkpoint recovery driver.
//!
//! [`run_recovered`] wraps [`agcm_mps::run_world`] in an attempt loop:
//! each attempt looks up the latest checkpoint committed at or below the
//! run's horizon and passes that resume step into the model body; if any
//! rank fails (planned kill, or a communication abort cascading from a
//! dead peer) the attempt is recorded and the run restarts from the last
//! committed step. Because the model is a deterministic function of
//! (state, step), a restarted run continues bit-identically with an
//! uninterrupted one. A plain run is the same loop with
//! [`ResilienceOpts::default`]: no store, no restarts, no plan.

use crate::coordinator::{CheckpointStore, StoreError};
use crate::metrics::ResilienceMetrics;
use agcm_mps::fault::{FaultEvent, FaultPlan};
use agcm_mps::runtime::{run_world, FailureKind, WorldOptions};
use agcm_mps::span::SpanObserver;
use agcm_mps::trace::WorldTrace;
use agcm_mps::{CancelToken, Comm};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Observes the progress of a recovered run, live: attempt starts (with
/// the checkpoint step each attempt resumed from) and checkpoint commits.
/// All methods default to no-ops; implementations must be cheap — they
/// are called synchronously from the recovery loop and (for
/// [`on_checkpoint`](RunProgress::on_checkpoint)) from rank 0's thread.
pub trait RunProgress: Send + Sync {
    /// Attempt `attempt` (0 = first) is starting, resuming from
    /// `resumed_from` (`None` = cold start).
    fn on_attempt(&self, _attempt: usize, _resumed_from: Option<u64>) {}

    /// A coordinated checkpoint committed through `step`. Emitted by the
    /// model body, conventionally from rank 0 after the commit.
    fn on_checkpoint(&self, _step: u64) {}
}

/// Knobs for a recovered run: where checkpoints live, how often to
/// restart, and what the run's worlds are handed.
#[derive(Clone, Default)]
pub struct ResilienceOpts {
    /// Where checkpoints live; `None` = a plain run that neither resumes
    /// nor checkpoints.
    pub store: Option<CheckpointStore>,
    /// Restarts allowed after the first attempt.
    pub max_restarts: usize,
    /// Fault plan for the *first* attempt (a restart models the failed
    /// node being replaced, so later attempts run fault-free).
    pub plan: Option<FaultPlan>,
    /// Cooperative cancellation token threaded into every attempt's world.
    /// Cancellation is not a fault: a cancelled attempt is never retried
    /// and surfaces as [`RecoveryError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Live progress observer: attempt starts from the recovery loop,
    /// checkpoint commits from the model body.
    pub progress: Option<Arc<dyn RunProgress>>,
    /// Live span observer threaded into every attempt's world.
    pub spans: Option<Arc<dyn SpanObserver>>,
}

impl fmt::Debug for ResilienceOpts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilienceOpts")
            .field("store", &self.store)
            .field("max_restarts", &self.max_restarts)
            .field("plan", &self.plan)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "RunProgress"))
            .field("spans", &self.spans.as_ref().map(|_| "SpanObserver"))
            .finish()
    }
}

impl ResilienceOpts {
    /// Checkpoints under `dir`, three restarts, no injected faults.
    pub fn new(dir: impl Into<PathBuf>) -> ResilienceOpts {
        ResilienceOpts::from_store(CheckpointStore::new(dir))
    }

    /// Checkpoints in an explicit store — e.g. one wired to a shared
    /// `ShardBackend` so the run resumes from (and contributes to) the
    /// fleet-wide content-addressed store instead of a private
    /// directory.
    pub fn from_store(store: CheckpointStore) -> ResilienceOpts {
        ResilienceOpts {
            store: Some(store),
            max_restarts: 3,
            ..ResilienceOpts::default()
        }
    }

    /// Builder-style: inject this fault plan on the first attempt.
    pub fn with_plan(mut self, plan: FaultPlan) -> ResilienceOpts {
        self.plan = Some(plan);
        self
    }

    /// Builder-style: thread this cancellation token through the run.
    pub fn with_cancel(mut self, token: CancelToken) -> ResilienceOpts {
        self.cancel = Some(token);
        self
    }

    /// Builder-style: observe attempts and checkpoint commits live.
    pub fn with_progress(mut self, progress: Arc<dyn RunProgress>) -> ResilienceOpts {
        self.progress = Some(progress);
        self
    }

    /// Builder-style: observe phase boundaries live.
    pub fn with_spans(mut self, spans: Arc<dyn SpanObserver>) -> ResilienceOpts {
        self.spans = Some(spans);
        self
    }
}

/// One failed attempt, for the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// Attempt index (0 = first run).
    pub attempt: usize,
    /// Step the attempt resumed from (`None` = cold start).
    pub resumed_from: Option<u64>,
    /// The ranks that failed, and how.
    pub failed_ranks: Vec<(usize, FailureKind)>,
}

/// Outcome of a recovered run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank results of the successful attempt, in rank order.
    pub ranks: Vec<R>,
    /// Total attempts made (1 = no restart was needed).
    pub attempts: usize,
    /// The failed attempts, in order.
    pub failures: Vec<AttemptFailure>,
    /// Injected-fault log per rank, merged across attempts.
    pub fault_events: Vec<Vec<FaultEvent>>,
    /// Aggregated counters.
    pub metrics: ResilienceMetrics,
    /// Execution trace of the *successful* attempt (failed attempts die
    /// mid-phase, so their streams are not comparable).
    pub trace: WorldTrace,
}

/// Why a recovered run gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Every allowed attempt failed.
    RestartsExhausted {
        /// Attempts made.
        attempts: usize,
        /// The failure record of each attempt.
        failures: Vec<AttemptFailure>,
    },
    /// The checkpoint store itself failed: a rank could not load the
    /// shard it resumes from, or write one. Never retried.
    Store(StoreError),
    /// A committed checkpoint does not fit the run resuming from it: it
    /// was written by another world size, grid or model. Every retry
    /// would resume from it again, so it is never retried.
    ForeignCheckpoint {
        /// The step resumed from.
        step: u64,
        /// The rank whose shard does not fit.
        rank: u32,
        /// What does not fit.
        reason: String,
    },
    /// The run's [`CancelToken`] was cancelled (deadline expiry, explicit
    /// cancellation). Never retried.
    Cancelled {
        /// Attempts made before cancellation was observed.
        attempts: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::RestartsExhausted { attempts, .. } => {
                write!(f, "recovery gave up after {attempts} failed attempts")
            }
            RecoveryError::Store(e) => write!(f, "recovery aborted by store error: {e}"),
            RecoveryError::ForeignCheckpoint { step, rank, reason } => write!(
                f,
                "the checkpoint of step {step} does not fit rank {rank}: {reason}"
            ),
            RecoveryError::Cancelled { attempts } => {
                write!(f, "run cancelled after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Store(e) => Some(e),
            _ => None,
        }
    }
}

/// Run `body` on `n` ranks with restart-based recovery, to step
/// `horizon`.
///
/// Each attempt resumes from the latest step committed in `opts.store` at
/// or below `horizon` — never past it, whatever else the store holds —
/// and the first attempt alone runs under `opts.plan`. `body` receives the
/// communicator and that resume step (`None` on a cold start); it is
/// responsible for loading its shard from the store and for writing
/// checkpoints as it goes. A rank that returns an error ends the run with
/// it at once: that is a verdict on the checkpoint or the store, not a
/// fault a restart could cure.
pub fn run_recovered<R, F>(
    n: usize,
    horizon: u64,
    opts: &ResilienceOpts,
    body: F,
) -> Result<RunReport<R>, RecoveryError>
where
    F: Fn(&Comm, Option<u64>) -> Result<R, RecoveryError> + Sync,
    R: Send,
{
    let mut failures: Vec<AttemptFailure> = Vec::new();
    let mut merged_events: Vec<Vec<FaultEvent>> = (0..n).map(|_| Vec::new()).collect();
    for attempt in 0..=opts.max_restarts {
        let resume = opts
            .store
            .as_ref()
            .and_then(|store| store.latest_committed(horizon));
        if let Some(progress) = &opts.progress {
            progress.on_attempt(attempt, resume);
        }
        let world_opts = WorldOptions {
            plan: opts.plan.clone().filter(|_| attempt == 0),
            cancel: opts.cancel.clone(),
            spans: opts.spans.clone(),
        };
        let mut out = run_world(n, world_opts, |c| body(c, resume));
        for (merged, events) in merged_events.iter_mut().zip(&out.fault_events) {
            merged.extend(events.iter().copied());
        }
        // Ranks the refusing rank leaves waiting fail as disconnected;
        // the refusal is the verdict.
        let refused = out
            .results
            .iter()
            .find_map(|r| r.as_ref().ok()?.as_ref().err());
        if let Some(e) = refused {
            return Err(e.clone());
        }
        if out.all_ok() {
            let metrics = ResilienceMetrics::tally(attempt + 1, &failures, &merged_events);
            let trace = std::mem::take(&mut out.trace);
            let ranks = out.into_results().into_iter();
            return Ok(RunReport {
                ranks: ranks.map(|r| r.expect("no rank refused")).collect(),
                attempts: attempt + 1,
                failures,
                fault_events: merged_events,
                metrics,
                trace,
            });
        }
        let attempt_failures = out.failures();
        // Cancellation is a verdict, not a fault: do not retry. Some ranks
        // may surface as Disconnected (they observed a cancelled peer's
        // death before their own cancellation point), so check both the
        // token and the per-rank failure kinds.
        let cancelled = opts.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || attempt_failures
                .iter()
                .any(|(_, k)| *k == FailureKind::Cancelled);
        failures.push(AttemptFailure {
            attempt,
            resumed_from: resume,
            failed_ranks: attempt_failures,
        });
        if cancelled {
            return Err(RecoveryError::Cancelled {
                attempts: attempt + 1,
            });
        }
    }
    Err(RecoveryError::RestartsExhausted {
        attempts: opts.max_restarts + 1,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ModelCheckpoint;
    use crate::coordinator::write_coordinated;
    use agcm_grid::halo::HaloField;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Options checkpointing into a fresh scratch directory.
    fn scratch(tag: &str) -> ResilienceOpts {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("agcm-recovery-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResilienceOpts::new(dir)
    }

    fn store(opts: &ResilienceOpts) -> &CheckpointStore {
        opts.store.as_ref().expect("scratch options have a store")
    }

    /// A toy iterative "model": per-rank counter advanced one per step,
    /// checkpointed every other step.
    fn toy_model(
        c: &Comm,
        resume: Option<u64>,
        opts: &ResilienceOpts,
        steps: u64,
    ) -> Result<f64, RecoveryError> {
        let store = store(opts);
        let world = c.size() as u32;
        let rank = c.rank() as u32;
        let (start, mut value) = match resume {
            Some(step) => {
                let ckpt = store.load_shard(step, rank).unwrap();
                (step, ckpt.scalars[0])
            }
            None => (0, rank as f64),
        };
        for step in start..steps {
            c.begin_step(step);
            value = value * 1.000_1 + 1.0;
            if (step + 1) % 2 == 0 {
                let ckpt = ModelCheckpoint {
                    rank,
                    world,
                    step: step + 1,
                    seeds: vec![],
                    scalars: vec![value],
                    series: vec![],
                    fields: vec![HaloField::zeros(1, 1, 1, 1)],
                };
                write_coordinated(c, store, &ckpt).unwrap();
            }
        }
        Ok(value)
    }

    #[test]
    fn no_faults_single_attempt() {
        let opts = scratch("clean");
        let report = run_recovered(2, 6, &opts, |c, r| toy_model(c, r, &opts, 6)).unwrap();
        assert_eq!(report.attempts, 1);
        assert!(report.failures.is_empty());
        assert_eq!(report.metrics.restarts, 0);
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }

    #[test]
    fn killed_rank_recovers_bit_identically() {
        // Baseline: uninterrupted run.
        let clean = scratch("baseline");
        let baseline = run_recovered(3, 9, &clean, |c, r| toy_model(c, r, &clean, 9)).unwrap();

        // Faulted: rank 1 dies at step 5 on the first attempt.
        let opts = scratch("killed").with_plan(FaultPlan::seeded(1).with_kill(1, 5));
        let report = run_recovered(3, 9, &opts, |c, r| toy_model(c, r, &opts, 9)).unwrap();

        assert_eq!(report.attempts, 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].resumed_from, None);
        assert!(report.failures[0]
            .failed_ranks
            .iter()
            .any(|(r, k)| *r == 1 && *k == FailureKind::Killed { step: 5 }));
        // The kill fired after the step-4 checkpoint committed.
        assert_eq!(report.metrics.ranks_killed, 1);
        // Bit-identical continuation: the recovered run's results equal the
        // uninterrupted run's, exactly.
        assert_eq!(report.ranks, baseline.ranks);
        let _ = std::fs::remove_dir_all(store(&opts).root());
        let _ = std::fs::remove_dir_all(store(&clean).root());
    }

    #[test]
    fn cancelled_run_is_not_retried() {
        let token = CancelToken::new();
        token.cancel();
        let mut opts = scratch("cancel").with_cancel(token);
        opts.max_restarts = 5;
        let err = run_recovered(2, 4, &opts, |c, r| toy_model(c, r, &opts, 4)).unwrap_err();
        // Cancellation must surface typed and untried — one attempt, not
        // six restarts of a run nobody wants anymore.
        assert_eq!(err, RecoveryError::Cancelled { attempts: 1 });
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }

    #[test]
    fn progress_observer_sees_every_attempt_with_resume_steps() {
        #[derive(Default)]
        struct Recorder {
            attempts: std::sync::Mutex<Vec<(usize, Option<u64>)>>,
        }
        impl RunProgress for Recorder {
            fn on_attempt(&self, attempt: usize, resumed_from: Option<u64>) {
                self.attempts.lock().unwrap().push((attempt, resumed_from));
            }
        }
        let recorder = Arc::new(Recorder::default());
        let opts = scratch("progress")
            .with_plan(FaultPlan::seeded(1).with_kill(0, 3))
            .with_progress(recorder.clone());
        let report = run_recovered(2, 6, &opts, |c, r| toy_model(c, r, &opts, 6)).unwrap();
        assert_eq!(report.attempts, 2);
        // Cold start, then a resume from the step-2 checkpoint.
        assert_eq!(
            *recorder.attempts.lock().unwrap(),
            vec![(0, None), (1, Some(2))]
        );
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }

    #[test]
    fn a_refusing_rank_ends_the_run_untried() {
        let attempts = AtomicU64::new(0);
        let foreign = RecoveryError::ForeignCheckpoint {
            step: 2,
            rank: 1,
            reason: "a 4x3x1 field, the subdomain is 1x1x1".to_string(),
        };
        // A kill on the first attempt: the resumed second one refuses.
        let opts = scratch("refuse").with_plan(FaultPlan::seeded(1).with_kill(0, 3));
        let err = run_recovered(3, 6, &opts, |c, r| {
            if c.rank() == 0 {
                attempts.fetch_add(1, Ordering::SeqCst);
            }
            match r {
                Some(_) if c.rank() == 1 => Err(foreign.clone()),
                _ => toy_model(c, r, &opts, 6),
            }
        })
        .unwrap_err();
        assert_eq!(err, foreign);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "no third attempt");
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }

    #[test]
    fn unrecoverable_kill_exhausts_restarts() {
        let mut opts = scratch("exhaust").with_plan(FaultPlan::seeded(0).with_kill(0, 1));
        opts.max_restarts = 0;
        let err = run_recovered(2, 4, &opts, |c, r| toy_model(c, r, &opts, 4)).unwrap_err();
        match err {
            RecoveryError::RestartsExhausted { attempts, failures } => {
                assert_eq!(attempts, 1);
                assert_eq!(failures.len(), 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }

    #[test]
    fn only_the_first_attempt_runs_under_the_plan() {
        // The kill fires on every attempt that carries the plan; with
        // restarts left, the run ends after exactly one failure.
        let opts = scratch("first-only").with_plan(FaultPlan::seeded(0).with_kill(0, 1));
        let report = run_recovered(2, 4, &opts, |c, r| toy_model(c, r, &opts, 4)).unwrap();
        assert_eq!(report.attempts, 2);
        assert_eq!(report.failures.len(), 1);
        let _ = std::fs::remove_dir_all(store(&opts).root());
    }
}
