//! The ensemble scheduler: many AGCM runs on a bounded rank-thread budget.
//!
//! An [`Ensemble`] owns a bounded admission queue and a **rank budget**:
//! the cap is on concurrent *ranks* (model threads), not jobs, mirroring
//! how the paper's runs shared a fixed processor allocation. A dispatcher
//! thread picks the highest-priority queued job that *fits* the free
//! budget — work-conserving backfill, so a wide job waiting at the head
//! does not idle ranks a narrow job could use. Each dispatched job runs in
//! its own runner thread through `agcm_core::run_model_resilient`, which
//! gives every job, for free: checkpoint/restart retries on injected
//! faults, and a cooperative [`CancelToken`] threaded down into
//! `mps::Comm` so deadline expiry or [`Ensemble::cancel`] unwinds the
//! job's whole world at the next cancellation point.
//!
//! Deadlines are *soft* and measured from submission: a job still queued
//! when its deadline passes is dequeued and recorded as
//! `Cancelled(Deadline)`; a running job has its token cancelled at its
//! deadline and unwinds at its next cancellation point. The dispatcher
//! sleeps until the earliest deadline or until submit, cancel, a job's
//! end or shutdown wakes it. Cancellation is a verdict, not a fault —
//! the resilience layer never retries it.
//!
//! **Multi-tenant serving.** An ensemble can optionally enforce a
//! [`TenantPolicy`]: per-tenant caps on in-flight jobs (admission-time
//! backpressure, [`SubmitError::QuotaExceeded`]) and on concurrently
//! occupied ranks (dispatch-time shaping — an over-cap job stays queued,
//! it is not rejected), plus weighted fair-share dispatch: within a
//! priority class the tenant with the lowest `occupied_ranks / weight`
//! dispatches first. Without a policy the scheduler behaves exactly as
//! before (priority then FIFO).
//!
//! **Journal hooks.** A [`JobObserver`] passed to
//! [`Ensemble::start_with_observer`] sees every dispatch and every
//! terminal record, synchronously, in commit order. A serving layer uses
//! this to keep a durable job journal; [`Ensemble::resubmit`] is the
//! matching re-admission path that bypasses capacity and quota checks
//! for jobs that were already admitted once before a restart.

use crate::fleet::{FleetMetrics, FleetSnapshot};
use crate::job::{CancelReason, JobId, JobRecord, JobSpec, JobStatus, Priority};
use agcm_ckptstore::JobStoreBackend;
use agcm_core::{run_model_resilient, ConfigError, ResilienceOpts};
use agcm_costmodel::machine::MachineProfile;
use agcm_mps::{CancelToken, SpanObserver};
use agcm_resilience::recovery::RecoveryError;
use agcm_resilience::{CheckpointStore, RunProgress};
use agcm_telemetry::{skew_report, ProfileReport, ResilienceCounters, RunMetrics, TelemetrySink};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tenant name used for jobs whose [`JobSpec::tenant`] is `None`.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// Per-tenant admission quota and fair-share weight.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Maximum non-terminal (queued + running) jobs the tenant may have
    /// at once; submissions beyond this bounce with
    /// [`SubmitError::QuotaExceeded`].
    pub max_in_flight: usize,
    /// Maximum ranks the tenant may occupy concurrently. This shapes
    /// *dispatch*, not admission: an over-cap job waits in the queue
    /// until the tenant's running jobs free ranks.
    pub max_running_ranks: usize,
    /// Fair-share weight: within a priority class, the tenant with the
    /// lowest `occupied_ranks / weight` dispatches first.
    pub weight: f64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_in_flight: 16,
            max_running_ranks: usize::MAX,
            weight: 1.0,
        }
    }
}

/// Multi-tenant admission and fair-share policy.
#[derive(Debug, Clone, Default)]
pub struct TenantPolicy {
    /// Quota applied to tenants not named in [`TenantPolicy::tenants`].
    /// `None` makes the policy *strict*: unknown tenants are rejected
    /// with [`SubmitError::UnknownTenant`].
    pub default_quota: Option<TenantQuota>,
    /// Named tenant quotas.
    pub tenants: Vec<(String, TenantQuota)>,
}

impl TenantPolicy {
    /// Add a named tenant, builder-style.
    pub fn with_tenant(mut self, name: impl Into<String>, quota: TenantQuota) -> TenantPolicy {
        self.tenants.push((name.into(), quota));
        self
    }

    /// Resolve the quota a tenant is subject to; `None` means the tenant
    /// is not admissible at all (strict policy, unknown name).
    pub fn quota_for(&self, tenant: &str) -> Option<&TenantQuota> {
        self.tenants
            .iter()
            .find(|(n, _)| n == tenant)
            .map(|(_, q)| q)
            .or(self.default_quota.as_ref())
    }
}

/// Synchronous lifecycle hooks, called with the scheduler lock held —
/// implementations must be fast and must not call back into the
/// [`Ensemble`]. Events arrive in commit order: a job's dispatch always
/// precedes its terminal record, and a terminal record is delivered
/// exactly once per job.
pub trait JobObserver: Send + Sync {
    /// A job left the queue and its world is about to start.
    fn on_dispatch(&self, id: JobId, tag: Option<u64>) {
        let _ = (id, tag);
    }
    /// A job reached a terminal state (completed, cancelled, or failed —
    /// whether or not it was ever dispatched).
    fn on_terminal(&self, record: &JobRecord) {
        let _ = record;
    }
}

/// Ensemble-wide knobs.
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Maximum concurrent *ranks* (model threads) across all running
    /// jobs. A job of `config.size()` ranks charges that many against
    /// the budget for its whole run.
    pub rank_budget: usize,
    /// Maximum queued (admitted, not yet dispatched) jobs; submissions
    /// beyond this bounce with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Machine profile used to derive each completed job's virtual-time
    /// [`agcm_telemetry::RunSummary`].
    pub machine: MachineProfile,
    /// Optional multi-tenant quotas and fair-share weights. `None`
    /// disables all tenant accounting (single-tenant behavior).
    pub tenancy: Option<TenantPolicy>,
}

impl Default for EnsembleConfig {
    fn default() -> EnsembleConfig {
        EnsembleConfig {
            rank_budget: 8,
            queue_capacity: 64,
            machine: MachineProfile::t3d(),
            tenancy: None,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity (backpressure).
    QueueFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// The job needs more ranks than the budget can ever grant.
    TooLarge {
        /// Ranks the job needs.
        ranks: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The job's model configuration is degenerate.
    InvalidConfig(ConfigError),
    /// The tenant is at its in-flight job quota (per-tenant
    /// backpressure; other tenants are unaffected).
    QuotaExceeded {
        /// Tenant being throttled.
        tenant: String,
        /// The tenant's non-terminal jobs at the time of submission.
        in_flight: usize,
        /// The configured [`TenantQuota::max_in_flight`].
        max_in_flight: usize,
    },
    /// The policy is strict and does not know this tenant.
    UnknownTenant {
        /// The tenant name that was presented.
        tenant: String,
    },
    /// [`Ensemble::join`] has begun; no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            SubmitError::TooLarge { ranks, budget } => {
                write!(f, "job needs {ranks} ranks but the budget is {budget}")
            }
            SubmitError::InvalidConfig(e) => write!(f, "invalid config: {e}"),
            SubmitError::QuotaExceeded {
                tenant,
                in_flight,
                max_in_flight,
            } => write!(
                f,
                "tenant '{tenant}' is at its quota ({in_flight} of {max_in_flight} jobs in flight)"
            ),
            SubmitError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant '{tenant}'")
            }
            SubmitError::ShuttingDown => write!(f, "ensemble is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

/// A job admitted but not yet dispatched.
struct PendingJob {
    id: JobId,
    spec: JobSpec,
    submitted: Instant,
    /// Admission order; ties within a priority dispatch FIFO.
    seq: u64,
}

impl PendingJob {
    fn tenant(&self) -> &str {
        self.spec.tenant.as_deref().unwrap_or(ANONYMOUS_TENANT)
    }

    /// Terminal record for a job that never dispatched.
    fn undispatched_record(&self, status: JobStatus) -> JobRecord {
        JobRecord {
            id: self.id,
            name: self.spec.name.clone(),
            tenant: self.spec.tenant.clone(),
            tag: self.spec.tag,
            ranks: self.spec.config.size(),
            priority: self.spec.priority,
            status,
            attempts: 0,
            queue_seconds: self.submitted.elapsed().as_secs_f64(),
            run_seconds: 0.0,
            lineage: None,
            resumed_from: None,
            outcome: None,
            summary: None,
        }
    }

    /// Lease key the job holds on its lineage in the shared store: the
    /// caller's durable tag when present, else the ensemble id. Using
    /// the tag lets a serving layer release the same lease later by the
    /// only identifier *it* persists across restarts.
    fn lease_key(&self) -> u64 {
        self.spec.tag.unwrap_or(self.id)
    }
}

/// A job currently occupying ranks.
struct RunningJob {
    id: JobId,
    ranks: usize,
    tenant: String,
    token: CancelToken,
    deadline: Option<Instant>,
    /// Set (before the token fires) when the cancellation came from the
    /// deadline watchdog, so the terminal record can name the reason.
    deadline_hit: Arc<AtomicBool>,
    /// Committed prefix step the shared checkpoint store promised at
    /// dispatch (`None` = cold start or no store) — surfaced live in
    /// [`JobView::Running`].
    resumed_from: Option<u64>,
}

struct SchedState {
    next_seq: u64,
    pending: Vec<PendingJob>,
    running: Vec<RunningJob>,
    records: Vec<JobRecord>,
    free_ranks: usize,
    shutdown: bool,
}

struct Shared {
    cfg: EnsembleConfig,
    state: Mutex<SchedState>,
    /// New work, a finished job, or shutdown — wakes the dispatcher.
    work: Condvar,
    /// Queue space freed — wakes blocking [`Ensemble::submit`] callers.
    space: Condvar,
    /// A job reached a terminal state — wakes [`Ensemble::join`].
    done: Condvar,
    fleet: FleetMetrics,
    next_id: AtomicU64,
    observer: Option<Arc<dyn JobObserver>>,
}

impl Shared {
    /// Record a terminal state: observer first (journal write-ahead),
    /// then the in-memory record. Called with the scheduler lock held.
    fn commit_terminal(&self, st: &mut SchedState, record: JobRecord) {
        if let Some(obs) = &self.observer {
            obs.on_terminal(&record);
        }
        st.records.push(record);
    }
}

/// Point-in-time view of one job, from [`Ensemble::status`].
#[derive(Debug, Clone)]
pub enum JobView {
    /// Admitted, not yet dispatched. `position` is 1-based in dispatch
    /// order (priority, then FIFO) — the job's place in the fleet queue.
    Queued {
        /// 1-based dispatch position among queued jobs.
        position: usize,
        /// Ranks the job will charge when dispatched.
        ranks: usize,
    },
    /// Dispatched and occupying ranks.
    Running {
        /// Ranks currently charged against the budget.
        ranks: usize,
        /// Step the shared checkpoint store resumed the job from at
        /// dispatch (`None` = cold start or no store) — reuse
        /// provenance, visible while the job runs.
        resumed_from: Option<u64>,
    },
    /// Terminal; the full record.
    Done(Box<JobRecord>),
}

/// A running ensemble: submit jobs, cancel them, then [`join`] for the
/// terminal records.
///
/// [`join`]: Ensemble::join
pub struct Ensemble {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Ensemble {
    /// Start an ensemble: spawns the dispatcher thread.
    pub fn start(cfg: EnsembleConfig) -> Ensemble {
        Ensemble::start_inner(cfg, None)
    }

    /// Start an ensemble with a [`JobObserver`] receiving dispatch and
    /// terminal events (e.g. a serving layer's durable job journal).
    pub fn start_with_observer(cfg: EnsembleConfig, observer: Arc<dyn JobObserver>) -> Ensemble {
        Ensemble::start_inner(cfg, Some(observer))
    }

    fn start_inner(cfg: EnsembleConfig, observer: Option<Arc<dyn JobObserver>>) -> Ensemble {
        assert!(cfg.rank_budget > 0, "rank budget must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                next_seq: 0,
                pending: Vec::new(),
                running: Vec::new(),
                records: Vec::new(),
                free_ranks: cfg.rank_budget,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            done: Condvar::new(),
            fleet: FleetMetrics::new(),
            next_id: AtomicU64::new(1),
            observer,
            cfg,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ensemble-dispatcher".into())
                .spawn(move || dispatcher_loop(&shared))
                .expect("spawn dispatcher")
        };
        Ensemble {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Validate admissibility without touching the queue.
    fn admissible(&self, spec: &JobSpec) -> Result<usize, SubmitError> {
        if let Err(e) = spec.config.validate() {
            return Err(SubmitError::InvalidConfig(e));
        }
        let ranks = spec.config.size();
        if ranks > self.shared.cfg.rank_budget {
            return Err(SubmitError::TooLarge {
                ranks,
                budget: self.shared.cfg.rank_budget,
            });
        }
        Ok(ranks)
    }

    /// Would `spec` be admitted right now? Applies every
    /// [`Ensemble::try_submit`] verdict (validity, rank budget, shutdown,
    /// queue capacity, tenant quota) without enqueuing anything; a
    /// rejection counts against the fleet's rejected counter. The answer
    /// can go stale the moment the lock drops, so callers doing durable
    /// work between this check and `try_submit` (e.g. a write-ahead
    /// journal record) must still handle a `try_submit` rejection.
    pub fn admission_check(&self, spec: &JobSpec) -> Result<(), SubmitError> {
        let check = self.admissible(spec);
        let st = self.shared.state.lock().unwrap();
        self.admission_verdict(check, &st, spec)
    }

    /// Admit `spec` without blocking; bounces with
    /// [`SubmitError::QueueFull`] when the queue is at capacity.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let check = self.admissible(&spec);
        let mut st = self.shared.state.lock().unwrap();
        self.admission_verdict(check, &st, &spec)?;
        Ok(self.enqueue(&mut st, spec))
    }

    /// The non-blocking admission verdict, called with the lock held:
    /// `check` (validity, rank budget), then shutdown, queue capacity and
    /// tenant quota. A rejection counts against the fleet's rejected
    /// counter.
    fn admission_verdict(
        &self,
        check: Result<usize, SubmitError>,
        st: &SchedState,
        spec: &JobSpec,
    ) -> Result<(), SubmitError> {
        let verdict = check.and_then(|_| {
            if st.shutdown {
                Err(SubmitError::ShuttingDown)
            } else if st.pending.len() >= self.shared.cfg.queue_capacity {
                Err(SubmitError::QueueFull {
                    capacity: self.shared.cfg.queue_capacity,
                })
            } else {
                self.tenant_admission(st, spec)
            }
        });
        if verdict.is_err() {
            self.shared.fleet.on_reject();
        }
        verdict
    }

    /// Admit `spec`, blocking while the queue is full (backpressure).
    /// Still fails fast on the conditions waiting cannot fix — including
    /// a tenant at its in-flight quota, which must drain its *own* jobs.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if let Err(e) = self.admissible(&spec) {
            self.shared.fleet.on_reject();
            return Err(e);
        }
        let mut st = self.shared.state.lock().unwrap();
        while !st.shutdown && st.pending.len() >= self.shared.cfg.queue_capacity {
            st = self.shared.space.wait(st).unwrap();
        }
        if st.shutdown {
            self.shared.fleet.on_reject();
            return Err(SubmitError::ShuttingDown);
        }
        if let Err(e) = self.tenant_admission(&st, &spec) {
            self.shared.fleet.on_reject();
            return Err(e);
        }
        Ok(self.enqueue(&mut st, spec))
    }

    /// Re-admission path for journal recovery: the job was admitted once
    /// before a restart, so queue capacity and tenant quotas are
    /// bypassed — only config validity and the hard rank budget apply.
    pub fn resubmit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let check = self.admissible(&spec);
        let mut st = self.shared.state.lock().unwrap();
        let verdict = check.and_then(|_| {
            if st.shutdown {
                Err(SubmitError::ShuttingDown)
            } else {
                Ok(())
            }
        });
        if let Err(e) = verdict {
            self.shared.fleet.on_reject();
            return Err(e);
        }
        Ok(self.enqueue(&mut st, spec))
    }

    /// Enforce the tenant policy at admission. Called with the lock held.
    fn tenant_admission(&self, st: &SchedState, spec: &JobSpec) -> Result<(), SubmitError> {
        let Some(policy) = &self.shared.cfg.tenancy else {
            return Ok(());
        };
        let tenant = spec.tenant.as_deref().unwrap_or(ANONYMOUS_TENANT);
        let Some(quota) = policy.quota_for(tenant) else {
            return Err(SubmitError::UnknownTenant {
                tenant: tenant.to_string(),
            });
        };
        let in_flight = st.pending.iter().filter(|p| p.tenant() == tenant).count()
            + st.running.iter().filter(|r| r.tenant == tenant).count();
        if in_flight >= quota.max_in_flight {
            return Err(SubmitError::QuotaExceeded {
                tenant: tenant.to_string(),
                in_flight,
                max_in_flight: quota.max_in_flight,
            });
        }
        Ok(())
    }

    /// Point-in-time view of one job: queued (with its 1-based dispatch
    /// position), running, or terminal. `None` if the id was never
    /// assigned or its record was already drained by [`Ensemble::join`].
    pub fn status(&self, id: JobId) -> Option<JobView> {
        let st = self.shared.state.lock().unwrap();
        if let Some(p) = st.pending.iter().find(|p| p.id == id) {
            let key = (p.spec.priority, std::cmp::Reverse(p.seq));
            let position = 1 + st
                .pending
                .iter()
                .filter(|q| (q.spec.priority, std::cmp::Reverse(q.seq)) > key)
                .count();
            return Some(JobView::Queued {
                position,
                ranks: p.spec.config.size(),
            });
        }
        if let Some(r) = st.running.iter().find(|r| r.id == id) {
            return Some(JobView::Running {
                ranks: r.ranks,
                resumed_from: r.resumed_from,
            });
        }
        st.records
            .iter()
            .find(|r| r.id == id)
            .map(|r| JobView::Done(Box::new(r.clone())))
    }

    fn enqueue(&self, st: &mut SchedState, spec: JobSpec) -> JobId {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(PendingJob {
            id,
            spec,
            submitted: Instant::now(),
            seq,
        });
        self.shared.fleet.on_submit(st.pending.len());
        self.shared.work.notify_all();
        id
    }

    /// Cancel a job. A queued job is dequeued and recorded
    /// `Cancelled(Explicit)` immediately; a running job has its token
    /// cancelled and unwinds cooperatively. Returns `false` if the id is
    /// unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        if let Some(i) = st.pending.iter().position(|p| p.id == id) {
            let p = st.pending.remove(i);
            let record = p.undispatched_record(JobStatus::Cancelled(CancelReason::Explicit));
            self.shared.commit_terminal(&mut st, record);
            self.shared.fleet.on_cancel();
            self.shared.space.notify_all();
            self.shared.done.notify_all();
            return true;
        }
        if let Some(r) = st.running.iter().find(|r| r.id == id) {
            r.token.cancel();
            return true;
        }
        false
    }

    /// Current fleet-level metrics.
    pub fn fleet(&self) -> FleetSnapshot {
        self.shared.fleet.snapshot()
    }

    /// Stop admitting, drain everything queued and running, and return
    /// all terminal records sorted by job id.
    pub fn join(mut self) -> Vec<JobRecord> {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
            self.shared.space.notify_all();
            while !st.pending.is_empty() || !st.running.is_empty() {
                st = self.shared.done.wait(st).unwrap();
            }
        }
        if let Some(h) = self.dispatcher.take() {
            self.shared.work.notify_all();
            let _ = h.join();
        }
        let mut records = std::mem::take(&mut self.shared.state.lock().unwrap().records);
        records.sort_by_key(|r| r.id);
        records
    }
}

impl Drop for Ensemble {
    /// Dropping without [`Ensemble::join`] aborts: queued jobs are
    /// recorded `Cancelled(Explicit)`, running jobs have their tokens
    /// cancelled, and the drop blocks until the world threads unwind.
    fn drop(&mut self) {
        let Some(h) = self.dispatcher.take() else {
            return;
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            while let Some(p) = st.pending.pop() {
                let record = p.undispatched_record(JobStatus::Cancelled(CancelReason::Explicit));
                self.shared.commit_terminal(&mut st, record);
                self.shared.fleet.on_cancel();
            }
            for r in &st.running {
                r.token.cancel();
            }
            self.shared.work.notify_all();
            self.shared.space.notify_all();
        }
        let _ = h.join();
    }
}

/// The dispatcher: deadline watchdog + work-conserving backfill.
fn dispatcher_loop(shared: &Arc<Shared>) {
    let mut runners: Vec<JoinHandle<()>> = Vec::new();
    let mut st = shared.state.lock().unwrap();
    loop {
        let now = Instant::now();

        // Queued jobs whose deadline already passed never dispatch.
        let mut i = 0;
        while i < st.pending.len() {
            let expired = st.pending[i]
                .spec
                .deadline
                .is_some_and(|d| now.duration_since(st.pending[i].submitted) >= d);
            if expired {
                let p = st.pending.remove(i);
                let record = p.undispatched_record(JobStatus::Cancelled(CancelReason::Deadline));
                shared.commit_terminal(&mut st, record);
                shared.fleet.on_cancel();
                shared.space.notify_all();
                shared.done.notify_all();
            } else {
                i += 1;
            }
        }

        // Running jobs past deadline: mark the reason, then fire the token.
        for r in &st.running {
            if let Some(dl) = r.deadline {
                if now >= dl && !r.deadline_hit.load(Ordering::SeqCst) {
                    r.deadline_hit.store(true, Ordering::SeqCst);
                    r.token.cancel();
                }
            }
        }

        // Work-conserving backfill: repeatedly dispatch the best eligible
        // job that fits the free budget, even if a wider, better-priority
        // job is stuck waiting for space. With a tenant policy, "best"
        // also folds in per-tenant rank caps and weighted fair share.
        while let Some(i) = pick_next(shared, &st) {
            let p = st.pending.remove(i);
            dispatch(shared, &mut st, p, &mut runners);
        }

        if st.shutdown && st.pending.is_empty() && st.running.is_empty() {
            break;
        }
        // Sleep until the earliest deadline still to fire; submit,
        // cancel, a job's end and shutdown notify `work` sooner.
        let queued = st
            .pending
            .iter()
            .filter_map(|p| p.spec.deadline.map(|d| p.submitted + d));
        let running = st
            .running
            .iter()
            .filter(|r| !r.deadline_hit.load(Ordering::SeqCst))
            .filter_map(|r| r.deadline);
        st = match queued.chain(running).min() {
            Some(at) => {
                let timeout = at.saturating_duration_since(Instant::now());
                shared.work.wait_timeout(st, timeout).unwrap().0
            }
            None => shared.work.wait(st).unwrap(),
        };
    }
    drop(st);
    // `running` is empty, so every runner is past its finalize section.
    for h in runners {
        let _ = h.join();
    }
}

/// Choose the next pending job to dispatch, or `None` if nothing fits.
///
/// Without a tenant policy: highest priority, then FIFO, among jobs that
/// fit the free budget — identical to the pre-tenancy scheduler. With a
/// policy: jobs whose tenant would exceed its running-rank cap are
/// skipped (they stay queued), and priority ties break by weighted fair
/// share — the tenant with the lowest `occupied_ranks / weight` wins,
/// then FIFO.
fn pick_next(shared: &Shared, st: &SchedState) -> Option<usize> {
    let policy = shared.cfg.tenancy.as_ref();
    // (index, priority, fair-share usage, seq) of the best candidate.
    let mut best: Option<(usize, Priority, f64, u64)> = None;
    for (i, p) in st.pending.iter().enumerate() {
        let ranks = p.spec.config.size();
        if ranks > st.free_ranks {
            continue;
        }
        let mut usage = 0.0;
        if let Some(policy) = policy {
            let tenant = p.tenant();
            // Unknown tenants (possible via `resubmit` after a policy
            // change) carry no cap and usage 0.
            if let Some(q) = policy.quota_for(tenant) {
                let occupied: usize = st
                    .running
                    .iter()
                    .filter(|r| r.tenant == tenant)
                    .map(|r| r.ranks)
                    .sum();
                if occupied + ranks > q.max_running_ranks {
                    continue;
                }
                usage = occupied as f64 / q.weight.max(1e-9);
            }
        }
        let better = match best {
            None => true,
            Some((_, bp, bu, bs)) => {
                p.spec.priority > bp
                    || (p.spec.priority == bp && (usage < bu || (usage == bu && p.seq < bs)))
            }
        };
        if better {
            best = Some((i, p.spec.priority, usage, p.seq));
        }
    }
    best.map(|(i, _, _, _)| i)
}

/// Move one job from pending to running and spawn its runner thread.
fn dispatch(
    shared: &Arc<Shared>,
    st: &mut SchedState,
    p: PendingJob,
    runners: &mut Vec<JoinHandle<()>>,
) {
    let ranks = p.spec.config.size();
    debug_assert!(ranks <= st.free_ranks);
    st.free_ranks -= ranks;
    let token = CancelToken::new();
    let deadline_hit = Arc::new(AtomicBool::new(false));
    // Fleet checkpoint store: consult the prefix index under the
    // scheduler lock and take the lineage lease *now*, before the runner
    // thread exists — a concurrent GC between dispatch and the first
    // shard read must not reclaim the prefix the job is about to resume
    // from. `(lineage, planned_resume)` travels to the runner so the
    // terminal record can carry reuse provenance.
    let store_ctx = p.spec.shared_store.as_ref().map(|store| {
        let lineage = p.spec.config.lineage();
        let planned = store.longest_prefix(lineage, p.spec.config.steps as u64);
        store.acquire(lineage, p.lease_key());
        (lineage, planned)
    });
    st.running.push(RunningJob {
        id: p.id,
        ranks,
        tenant: p.tenant().to_string(),
        token: token.clone(),
        deadline: p.spec.deadline.map(|d| p.submitted + d),
        deadline_hit: Arc::clone(&deadline_hit),
        resumed_from: store_ctx.and_then(|(_, planned)| planned),
    });
    let queue_seconds = p.submitted.elapsed().as_secs_f64();
    shared.fleet.on_dispatch(
        queue_seconds,
        shared.cfg.rank_budget - st.free_ranks,
        st.pending.len(),
    );
    if let Some(obs) = &shared.observer {
        obs.on_dispatch(p.id, p.spec.tag);
    }
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("ensemble-job-{}", p.id))
        .spawn(move || run_job(&shared, p, store_ctx, queue_seconds, token, deadline_hit))
        .expect("spawn job runner");
    runners.push(handle);
}

/// Bridges the resilience layer's progress hooks and the mps substrate's
/// phase spans to a job's per-job [`TelemetrySink`], so a live telemetry
/// plane sees attempts, checkpoint commits and per-rank phase timings
/// *while the job runs*, not just from the post-hoc trace.
///
/// Phase pairing is done here: `phase_begin`/`phase_end` arrive on the
/// rank's own thread, and nesting is strict (the mps `Comm` guarantees
/// balanced begin/end per rank), so a per-rank stack of open phases with
/// wall-clock start instants suffices. Unbalanced ends (possible only if
/// a rank's world unwinds mid-phase) are dropped, never mispaired.
struct SinkBridge {
    sink: Arc<dyn TelemetrySink>,
    /// Per-rank stacks of `(phase, begin_instant)`.
    open: Mutex<Vec<Vec<(&'static str, Instant)>>>,
}

impl SinkBridge {
    fn new(sink: Arc<dyn TelemetrySink>) -> SinkBridge {
        SinkBridge {
            sink,
            open: Mutex::new(Vec::new()),
        }
    }
}

impl RunProgress for SinkBridge {
    fn on_attempt(&self, attempt: usize, resumed_from: Option<u64>) {
        // A retry re-enters every rank's world from scratch: any phases
        // left open by the faulted attempt will never see their end.
        self.open.lock().unwrap().clear();
        self.sink.record_attempt(attempt as u64, resumed_from);
    }

    fn on_checkpoint(&self, step: u64) {
        self.sink.record_checkpoint(step);
    }
}

impl SpanObserver for SinkBridge {
    fn phase_begin(&self, rank: usize, name: &'static str) {
        let mut open = self.open.lock().unwrap();
        if open.len() <= rank {
            open.resize_with(rank + 1, Vec::new);
        }
        open[rank].push((name, Instant::now()));
    }

    fn phase_end(&self, rank: usize, name: &'static str) {
        let begun = {
            let mut open = self.open.lock().unwrap();
            match open.get_mut(rank) {
                Some(stack) if stack.last().is_some_and(|(n, _)| *n == name) => stack.pop(),
                _ => None,
            }
        };
        if let Some((_, begin)) = begun {
            self.sink
                .record_live_phase(rank as u32, name, begin.elapsed().as_secs_f64());
        }
    }
}

/// Observes the first attempt's resume step so the terminal
/// [`JobRecord`] can report where the shared store actually picked the
/// run up — as opposed to the prefix *planned* at dispatch, which a
/// concurrent same-lineage job may have extended in the meantime.
/// Forwards every hook to an optional inner progress sink unchanged.
struct ResumeRecorder {
    /// Attempts started.
    attempts: AtomicU64,
    /// First attempt's resume step; `u64::MAX` = cold start (steps are
    /// far below that, so the sentinel is unambiguous).
    first_resume: AtomicU64,
    inner: Option<Arc<dyn RunProgress>>,
}

impl ResumeRecorder {
    fn new(inner: Option<Arc<dyn RunProgress>>) -> ResumeRecorder {
        ResumeRecorder {
            attempts: AtomicU64::new(0),
            first_resume: AtomicU64::new(u64::MAX),
            inner,
        }
    }

    fn attempts(&self) -> usize {
        self.attempts.load(Ordering::SeqCst) as usize
    }

    fn first(&self) -> Option<u64> {
        match self.first_resume.load(Ordering::SeqCst) {
            u64::MAX => None,
            step => Some(step),
        }
    }
}

impl RunProgress for ResumeRecorder {
    fn on_attempt(&self, attempt: usize, resumed_from: Option<u64>) {
        if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            self.first_resume
                .store(resumed_from.unwrap_or(u64::MAX), Ordering::SeqCst);
        }
        if let Some(inner) = &self.inner {
            inner.on_attempt(attempt, resumed_from);
        }
    }

    fn on_checkpoint(&self, step: u64) {
        if let Some(inner) = &self.inner {
            inner.on_checkpoint(step);
        }
    }
}

/// Runner thread body: run the model resiliently, summarize, finalize.
fn run_job(
    shared: &Arc<Shared>,
    p: PendingJob,
    store_ctx: Option<(u64, Option<u64>)>,
    queue_seconds: f64,
    token: CancelToken,
    deadline_hit: Arc<AtomicBool>,
) {
    let lease_key = p.lease_key();
    let spec = p.spec;
    let dispatched = Instant::now();
    let (dir, ephemeral) = match &spec.checkpoint_dir {
        Some(d) => (d.clone(), false),
        None => {
            // Job ids restart with every `Ensemble`, so they cannot name
            // a directory that must be unique in the process.
            static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
            let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
            let name = format!("agcm-ensemble-{}-{n}", std::process::id());
            (std::env::temp_dir().join(name), true)
        }
    };
    // With a shared store the directory store is only a shell: every
    // shard routes through the content-addressed backend, clamped to
    // this job's horizon so a longer-lived lineage never hands back a
    // checkpoint past `config.steps`.
    let mut opts = match (&spec.shared_store, store_ctx) {
        (Some(store), Some((lineage, _))) => {
            let backend =
                JobStoreBackend::new(Arc::clone(store), lineage, spec.config.steps as u64);
            ResilienceOpts::from_store(CheckpointStore::new(&dir).with_backend(Arc::new(backend)))
        }
        _ => ResilienceOpts::new(&dir),
    }
    .with_cancel(token);
    opts.max_restarts = spec.max_restarts;
    opts.plan = spec.plan.clone();
    let mut progress_inner: Option<Arc<dyn RunProgress>> = None;
    if let Some(sink) = spec.sink.as_ref() {
        let bridge = Arc::new(SinkBridge::new(Arc::clone(sink)));
        progress_inner = Some(Arc::clone(&bridge) as Arc<dyn RunProgress>);
        opts = opts.with_spans(bridge as Arc<dyn SpanObserver>);
    }
    let recorder = Arc::new(ResumeRecorder::new(progress_inner));
    opts = opts.with_progress(Arc::clone(&recorder) as Arc<dyn RunProgress>);

    let result = catch_unwind(AssertUnwindSafe(|| run_model_resilient(spec.config, opts)));
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Give back the lineage lease taken at dispatch — on every terminal
    // path, including cancellation and panic. Release does not reclaim:
    // the committed prefix stays cached for a resubmission until an
    // explicit GC sweeps unleased lineages.
    if let (Some(store), Some((lineage, _))) = (&spec.shared_store, store_ctx) {
        store.release(lineage, lease_key);
    }
    let run_seconds = dispatched.elapsed().as_secs_f64();

    let (status, attempts, outcome, summary) = match result {
        Ok(Ok(run)) => {
            // Per-job telemetry: derive virtual-time metrics from the
            // successful attempt's trace (one replay) and feed this job's
            // own sink.
            let summary = RunMetrics::from_trace_with_timeline(&run.trace, &shared.cfg.machine)
                .ok()
                .map(|(metrics, timeline)| {
                    let mut summary = metrics.summary.clone();
                    summary.resilience = Some(ResilienceCounters {
                        attempts: run.attempts as u64,
                        failures: run.failures.len() as u64,
                        fault_events: run.fault_events.iter().map(|e| e.len() as u64).sum(),
                    });
                    if let Some(sink) = spec.sink.as_ref() {
                        // Authoritative per-(rank, phase) virtual totals,
                        // streamed pre-summed so a live collector taking
                        // max-over-ranks reproduces `summary.phase_seconds`
                        // bit-for-bit (same values, same reduction).
                        let mut span_counts: std::collections::HashMap<(usize, &str), u64> =
                            std::collections::HashMap::new();
                        for s in &timeline.spans {
                            *span_counts.entry((s.rank, s.name)).or_insert(0) += 1;
                        }
                        for (rank, phases) in timeline.phase_seconds_per_rank().iter().enumerate() {
                            for (phase, secs) in phases {
                                let spans = span_counts.get(&(rank, *phase)).copied().unwrap_or(0);
                                sink.record_rank_phase(rank as u32, phase, *secs, spans);
                            }
                        }
                        // A profile folds the successful attempt's own
                        // wall stamps, so it needs no replay of its own.
                        if spec.profile {
                            let profile = ProfileReport::from_timeline(&timeline);
                            sink.record_profile(&profile, &skew_report(&timeline));
                        }
                        for step in &metrics.steps {
                            sink.record_step(step);
                        }
                        sink.record_run(&summary);
                    }
                    summary
                });
            (JobStatus::Completed, run.attempts, Some(run.ranks), summary)
        }
        Ok(Err(RecoveryError::Cancelled { attempts })) => {
            let reason = if deadline_hit.load(Ordering::SeqCst) {
                CancelReason::Deadline
            } else {
                CancelReason::Explicit
            };
            (JobStatus::Cancelled(reason), attempts, None, None)
        }
        Ok(Err(e)) => (
            JobStatus::Failed(e.to_string()),
            recorder.attempts(),
            None,
            None,
        ),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            (JobStatus::Failed(format!("panic: {msg}")), 1, None, None)
        }
    };

    let mut st = shared.state.lock().unwrap();
    let pos = st
        .running
        .iter()
        .position(|r| r.id == p.id)
        .expect("finished job is in the running set");
    let r = st.running.remove(pos);
    st.free_ranks += r.ranks;
    shared
        .fleet
        .on_release(shared.cfg.rank_budget - st.free_ranks);
    match &status {
        JobStatus::Completed => shared
            .fleet
            .on_complete(queue_seconds + run_seconds, attempts.saturating_sub(1)),
        JobStatus::Cancelled(_) => shared.fleet.on_cancel(),
        JobStatus::Failed(_) => shared.fleet.on_fail(),
    }
    let record = JobRecord {
        id: p.id,
        name: spec.name,
        tenant: spec.tenant,
        tag: spec.tag,
        ranks: r.ranks,
        priority: spec.priority,
        status,
        attempts,
        queue_seconds,
        run_seconds,
        lineage: store_ctx.map(|(lineage, _)| lineage),
        resumed_from: recorder.first(),
        outcome,
        summary,
    };
    shared.commit_terminal(&mut st, record);
    drop(st);
    shared.work.notify_all();
    shared.space.notify_all();
    shared.done.notify_all();
}
