//! Ensemble serving: many AGCM runs on a bounded rank-thread budget.
//!
//! The paper measures one model on a dedicated processor mesh. Real
//! forecast production runs *ensembles* — many perturbed configurations
//! competing for one machine. This crate is the serving layer for that
//! workload, built entirely on the repo's existing machinery:
//!
//! - **Admission control**: a bounded queue; [`Ensemble::try_submit`]
//!   bounces with [`SubmitError::QueueFull`] when it is at capacity,
//!   [`Ensemble::submit`] blocks (backpressure). Degenerate configs are
//!   rejected at the door via `AgcmConfig::validate`.
//! - **Rank-thread budget**: the scheduler caps concurrent *ranks*, not
//!   jobs. A 2×2 job charges 4; jobs dispatch when they fit, with
//!   priority-then-FIFO ordering and work-conserving backfill.
//! - **Deadlines & cancellation**: soft deadlines from submission; expiry
//!   (or [`Ensemble::cancel`]) fires a cooperative
//!   [`agcm_mps::CancelToken`] that unwinds the job's whole world through
//!   the controlled-unwind machinery shared with fault injection. A
//!   cancelled job is a verdict — never retried — and never poisons the
//!   jobs after it.
//! - **Retries**: each job runs under
//!   [`agcm_core::run_model_resilient`], so a fault-injected attempt
//!   restarts from the last committed checkpoint.
//! - **Telemetry**: each job can route its own step/run records to a
//!   per-job [`agcm_telemetry::TelemetrySink`]; the fleet aggregates
//!   queue depth, rank occupancy, throughput and p50/p95 job latency in
//!   [`FleetSnapshot`].
//! - **Multi-tenancy** (optional): a [`TenantPolicy`] adds per-tenant
//!   in-flight quotas ([`SubmitError::QuotaExceeded`]), per-tenant rank
//!   caps, and weighted fair-share dispatch for a network-facing serving
//!   layer (`agcm-server`).
//! - **Journal hooks**: a [`JobObserver`] sees every dispatch and
//!   terminal record synchronously, so a serving layer can keep a
//!   durable job journal; [`Ensemble::resubmit`] re-admits
//!   journal-recovered jobs past capacity and quota checks.
//!
//! The scheduler is deterministic in *outcomes*: scheduling order varies
//! with timing, but every completed job's per-rank results are
//! bit-identical to a solo `run_model` of the same configuration (the
//! model is a pure function of its config; see the `serving` integration
//! test).

pub mod fleet;
pub mod job;
mod pool;
pub mod scheduler;

pub use fleet::{FleetMetrics, FleetSnapshot};
pub use job::{CancelReason, JobId, JobRecord, JobSpec, JobStatus, Priority};
pub use scheduler::{
    Ensemble, EnsembleConfig, JobObserver, JobView, SubmitError, TenantPolicy, TenantQuota,
    ANONYMOUS_TENANT,
};
