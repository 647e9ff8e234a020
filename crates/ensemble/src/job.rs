//! Job descriptions and terminal records.
//!
//! A [`JobSpec`] is everything the scheduler needs to run one AGCM
//! configuration as a managed job: the config itself, a [`Priority`], an
//! optional soft deadline (measured from submission), a retry budget
//! delegated to `agcm-resilience`, an optional fault plan (for injection
//! experiments), and an optional per-job [`TelemetrySink`]. A finished job
//! — completed, cancelled, or failed — is summarized as a [`JobRecord`].

use agcm_core::{AgcmConfig, RankOutcome};
use agcm_mps::FaultPlan;
use agcm_telemetry::{RunSummary, TelemetrySink};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Identifier assigned at submission, unique within an ensemble.
pub type JobId = u64;

/// Scheduling priority. Higher priorities dispatch first; within a
/// priority, submission order wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work; runs when nothing better fits.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Jumps the queue.
    High,
}

impl Priority {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Why a job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The soft deadline expired (queued or mid-run).
    Deadline,
    /// [`crate::Ensemble::cancel`] was called.
    Explicit,
}

/// Terminal status of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Every rank finished; outcomes are available.
    Completed,
    /// The job's world was unwound (or the job dequeued) by cancellation.
    Cancelled(CancelReason),
    /// Retries exhausted, store failure, or a genuine panic in the model.
    Failed(String),
}

impl JobStatus {
    /// Short label for reports (`completed`, `cancelled(deadline)`, ...).
    pub fn label(&self) -> String {
        match self {
            JobStatus::Completed => "completed".to_string(),
            JobStatus::Cancelled(CancelReason::Deadline) => "cancelled(deadline)".to_string(),
            JobStatus::Cancelled(CancelReason::Explicit) => "cancelled(explicit)".to_string(),
            JobStatus::Failed(_) => "failed".to_string(),
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Everything needed to run one AGCM configuration as a managed job.
#[derive(Clone)]
pub struct JobSpec {
    /// Name for reports (not required to be unique).
    pub name: String,
    /// Tenant the job is accounted to under the ensemble's
    /// [`TenantPolicy`](crate::TenantPolicy); `None` is the anonymous
    /// tenant. Quotas and fair-share dispatch key on this.
    pub tenant: Option<String>,
    /// Opaque caller correlation id, carried unchanged into the
    /// [`JobRecord`] and every [`JobObserver`](crate::JobObserver)
    /// callback. A serving layer uses it to map the ensemble's internal
    /// [`JobId`] (which changes across restarts) to its own durable id.
    pub tag: Option<u64>,
    /// The model configuration; `config.size()` is the job's rank cost
    /// against the ensemble's thread budget.
    pub config: AgcmConfig,
    /// Scheduling priority.
    pub priority: Priority,
    /// Soft deadline measured from submission; expiry cancels the job
    /// whether it is still queued or already running.
    pub deadline: Option<Duration>,
    /// Restarts allowed after a faulted attempt (checkpoint/restart via
    /// `agcm-resilience`); 0 = fail on first fault.
    pub max_restarts: usize,
    /// Fault plan injected on the job's first attempt.
    pub plan: Option<FaultPlan>,
    /// Checkpoint directory; `None` uses an ephemeral per-job temp dir
    /// removed after the run.
    pub checkpoint_dir: Option<PathBuf>,
    /// Fleet-wide content-addressed checkpoint store. When set, the
    /// job's shards route into the shared store under its config
    /// lineage instead of `checkpoint_dir`, and the job resumes from
    /// the longest committed prefix any same-lineage job already paid
    /// for. The job holds a lease on its lineage while it runs, so the
    /// store's GC cannot reclaim state under it.
    pub shared_store: Option<Arc<agcm_ckptstore::Store>>,
    /// Per-job telemetry sink: the job's span observer, told of its
    /// attempts and checkpoints, and handed its finished run once.
    pub sink: Option<Arc<dyn TelemetrySink>>,
    /// Fold the successful attempt's trace into a wall-time profile and
    /// skew report (off by default). Requires a `sink` to fold them
    /// (`TelemetrySink::record_finished`); a failed or cancelled job has
    /// no successful trace and so no profile.
    pub profile: bool,
}

// `Arc<dyn TelemetrySink>` has no `Debug`; render the spec without it.
impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("tenant", &self.tenant)
            .field("tag", &self.tag)
            .field("ranks", &self.config.size())
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("max_restarts", &self.max_restarts)
            .field("has_plan", &self.plan.is_some())
            .field("has_shared_store", &self.shared_store.is_some())
            .field("has_sink", &self.sink.is_some())
            .field("profile", &self.profile)
            .finish()
    }
}

impl JobSpec {
    /// A job with defaults: normal priority, no deadline, no retries, no
    /// faults, ephemeral checkpoints, no per-job sink.
    pub fn new(name: impl Into<String>, config: AgcmConfig) -> JobSpec {
        JobSpec {
            name: name.into(),
            tenant: None,
            tag: None,
            config,
            priority: Priority::Normal,
            deadline: None,
            max_restarts: 0,
            plan: None,
            checkpoint_dir: None,
            shared_store: None,
            sink: None,
            profile: false,
        }
    }

    /// Builder-style: account the job to `tenant`.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> JobSpec {
        self.tenant = Some(tenant.into());
        self
    }

    /// Builder-style: attach a caller correlation id.
    pub fn with_tag(mut self, tag: u64) -> JobSpec {
        self.tag = Some(tag);
        self
    }

    /// Builder-style: set the priority.
    pub fn with_priority(mut self, priority: Priority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Builder-style: set a soft deadline from submission.
    pub fn with_deadline(mut self, deadline: Duration) -> JobSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style: allow `max_restarts` checkpoint/restart retries.
    pub fn with_retries(mut self, max_restarts: usize) -> JobSpec {
        self.max_restarts = max_restarts;
        self
    }

    /// Builder-style: keep checkpoints under `dir` instead of a temp dir.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> JobSpec {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Builder-style: checkpoint into (and resume from) the fleet-wide
    /// content-addressed store.
    pub fn with_shared_store(mut self, store: Arc<agcm_ckptstore::Store>) -> JobSpec {
        self.shared_store = Some(store);
        self
    }

    /// Builder-style: route this job's telemetry to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> JobSpec {
        self.sink = Some(sink);
        self
    }

    /// Builder-style: deliver a wall-time profile of the run to the job's
    /// sink when it completes.
    pub fn with_profile(mut self) -> JobSpec {
        self.profile = true;
        self
    }
}

/// Terminal record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Identifier assigned at submission.
    pub id: JobId,
    /// The spec's name.
    pub name: String,
    /// The spec's tenant.
    pub tenant: Option<String>,
    /// The spec's caller correlation id.
    pub tag: Option<u64>,
    /// Rank cost charged against the thread budget.
    pub ranks: usize,
    /// Scheduling priority it ran (or queued) at.
    pub priority: Priority,
    /// How the job ended.
    pub status: JobStatus,
    /// Model attempts made (0 = never dispatched).
    pub attempts: usize,
    /// Wall seconds spent queued before dispatch (or before terminal
    /// cancellation for jobs that never dispatched).
    pub queue_seconds: f64,
    /// Wall seconds from dispatch to completion (0 for undispatched jobs).
    pub run_seconds: f64,
    /// Config lineage hash, recorded when the job used the fleet-wide
    /// checkpoint store (reuse provenance, hex in wire views).
    pub lineage: Option<u64>,
    /// Step the job's first attempt resumed from via the shared store's
    /// prefix index; `None` means it started from step 0 (or did not
    /// use the store). `Some(s)` with `s == config.steps` means the
    /// whole run was satisfied from the store with zero recomputation.
    pub resumed_from: Option<u64>,
    /// Per-rank model outcomes (completed jobs only) — byte-for-byte the
    /// same values a solo `run_model` of the same config produces.
    pub outcome: Option<Vec<RankOutcome>>,
    /// Per-job virtual-time run summary from the trace (completed jobs
    /// with a valid trace only).
    pub summary: Option<RunSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn status_labels() {
        assert_eq!(JobStatus::Completed.label(), "completed");
        assert_eq!(
            JobStatus::Cancelled(CancelReason::Deadline).label(),
            "cancelled(deadline)"
        );
        assert_eq!(JobStatus::Failed("x".into()).label(), "failed");
    }
}
