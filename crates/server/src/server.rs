//! The serving loop: TCP accept, routing, tenant admission, journal
//! recovery, and the HTTP error mapping from [`SubmitError`].
//!
//! | Endpoint                  | Machinery                                        |
//! |---------------------------|--------------------------------------------------|
//! | `POST /v1/jobs`           | journal write-ahead → `Ensemble::try_submit`     |
//! | `GET /v1/jobs/{id}`       | `Ensemble::status` (queue position / run state)  |
//! | `GET /v1/jobs/{id}/result`| terminal `JobRecord` + `RunSummary::to_json`     |
//! | `DELETE /v1/jobs/{id}`    | `Ensemble::cancel` → `CancelToken` unwind        |
//! | `GET /v1/metrics`         | `FleetSnapshot` + per-endpoint/tenant registry   |
//! | `GET /healthz`            | liveness + recovery stats                        |
//!
//! Error mapping: `QueueFull`/`QuotaExceeded` → 429, `UnknownTenant` →
//! 403, `TooLarge`/`InvalidConfig` → 400, `ShuttingDown` → 503,
//! malformed JSON → 400, oversized body → 413.

use crate::api::{error_body, record_to_value, result_to_value, view_to_value, JobRequest};
use crate::http::{read_request, write_response, HttpLimits, ReadError, Request, Response};
use crate::journal::{checkpoint_dir, Journal};
use crate::log::{EventLog, LogLevel};
use agcm_ckptstore::Store;
use agcm_ensemble::{
    Ensemble, EnsembleConfig, JobId, JobObserver, JobRecord, JobView, SubmitError,
};
use agcm_telemetry::json::{ParseErrorKind, ParseLimits, Value};
use agcm_telemetry::{prom, LiveCollector, MetricsRegistry, TraceContext};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The scheduler underneath (rank budget, queue, tenancy, ...).
    pub ensemble: EnsembleConfig,
    /// Journal + checkpoint root. Created if missing.
    pub journal_dir: PathBuf,
    /// HTTP read bounds (also the JSON body byte limit).
    pub limits: HttpLimits,
    /// JSON nesting bound for request bodies.
    pub max_json_depth: usize,
    /// Per-socket read/write timeout: a peer that goes silent mid-request
    /// (or idles on a keep-alive connection) is closed after this long,
    /// so it cannot pin a connection thread forever.
    pub io_timeout: Duration,
    /// Maximum concurrent connections; new connections beyond the cap
    /// get an immediate 503 and are closed.
    pub max_connections: usize,
    /// Structured JSONL event-log path (access lines, scheduler
    /// decisions, recovery events). `None` disables event logging. The
    /// minimum level comes from `AGCM_LOG_LEVEL` (default `info`).
    pub event_log: Option<PathBuf>,
    /// Size-based rotation for the event log; `None` grows one file
    /// without bound (the pre-rotation behavior).
    pub event_log_rotation: Option<crate::log::RotationPolicy>,
    /// Service-level objectives; `None` disables SLO burn accounting.
    pub slo: Option<SloPolicy>,
    /// Wall-clock profile sampling frequency applied to every admitted
    /// job. `None` disables profiling (the default). When set, each
    /// finished job's folded-stack profile and measured-vs-modeled skew
    /// report are served at `GET /v1/jobs/{id}/profile`.
    pub profile_hz: Option<f64>,
}

/// One tenant's service-level objectives, evaluated per completed job.
#[derive(Debug, Clone, Copy)]
pub struct SloObjective {
    /// Queue-wait objective: seconds a job may sit queued before
    /// dispatch without burning budget.
    pub queue_seconds: f64,
    /// End-to-end latency objective (queue + run), seconds.
    pub total_seconds: f64,
}

/// Per-tenant SLOs with a default for tenants not named explicitly.
/// Each completed job increments one `good` or one `burn` counter per
/// objective, under the tenant's *bounded* metric label — so the burn
/// counters in `/v1/metrics` and `/metrics` cannot grow without bound
/// either.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Objectives for tenants without a named entry.
    pub default: SloObjective,
    /// Named per-tenant overrides.
    pub tenants: Vec<(String, SloObjective)>,
}

impl SloPolicy {
    /// Same objectives for every tenant, builder-style seed.
    pub fn uniform(queue_seconds: f64, total_seconds: f64) -> SloPolicy {
        SloPolicy {
            default: SloObjective {
                queue_seconds,
                total_seconds,
            },
            tenants: Vec::new(),
        }
    }

    /// Add a named tenant override, builder-style.
    pub fn with_tenant(mut self, name: impl Into<String>, slo: SloObjective) -> SloPolicy {
        self.tenants.push((name.into(), slo));
        self
    }

    /// The objectives governing `tenant`.
    pub fn objective_for(&self, tenant: &str) -> SloObjective {
        self.tenants
            .iter()
            .find(|(n, _)| n == tenant)
            .map(|(_, o)| *o)
            .unwrap_or(self.default)
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ensemble: EnsembleConfig::default(),
            journal_dir: PathBuf::from("journal"),
            limits: HttpLimits::default(),
            max_json_depth: 32,
            io_timeout: Duration::from_secs(30),
            max_connections: 128,
            event_log: None,
            event_log_rotation: None,
            slo: None,
            profile_hz: None,
        }
    }
}

/// What restart recovery did, reported on `/healthz` and by
/// [`AgcmServer::recovery`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Journal lines replayed.
    pub journal_lines: usize,
    /// Torn/corrupt lines dropped.
    pub corrupt_lines: usize,
    /// Jobs re-enqueued that had never dispatched.
    pub requeued: usize,
    /// Jobs re-enqueued that were running at the crash (these resume
    /// from their last committed checkpoint).
    pub resumed: usize,
    /// Jobs found already terminal (dropped at compaction).
    pub already_terminal: usize,
    /// Jobs whose journaled spec no longer re-validates (logged, skipped).
    pub unrecoverable: usize,
}

struct ServerState {
    cfg: ServerConfig,
    ensemble: RwLock<Option<Ensemble>>,
    journal: Arc<Journal>,
    /// Fleet-wide content-addressed checkpoint store under
    /// `<journal_dir>/store`: every admitted job checkpoints into it and
    /// resumes from the longest committed prefix of its config lineage.
    store: Arc<Store>,
    /// durable id → (ensemble id, tenant) for every job this process
    /// has admitted (including recovered ones).
    jobs: Mutex<HashMap<u64, (JobId, Option<String>)>>,
    next_durable: AtomicU64,
    recovery: RecoveryReport,
    metrics: Arc<MetricsRegistry>,
    /// Live telemetry: per-job trace contexts, attempt spans, phase
    /// rollups — everything behind `GET /v1/jobs/{id}/trace`.
    collector: Arc<LiveCollector>,
    /// Structured JSONL event log (access, dispatch, terminal, recovery).
    log: Arc<EventLog>,
    /// Tenants named in the policy — the only names that get their own
    /// metric keys. Everything else buckets under `other`/`anonymous`,
    /// so a hostile client cannot grow the registry without bound (or
    /// inject separators into metric names) via the tenant header.
    known_tenants: Vec<String>,
    started: Instant,
    shutting_down: AtomicBool,
}

/// Metric key for a tenant: policy-named tenants keep their (operator-
/// controlled) name; every other client-supplied name buckets under
/// `other` so the registry's key space stays bounded.
fn bounded_tenant<'a>(known: &'a [String], tenant: Option<&'a str>) -> &'a str {
    match tenant {
        None => "anonymous",
        Some(t) if known.iter().any(|k| k == t) => t,
        Some(_) => "other",
    }
}

/// The scheduler-side observer fan-out: journal first (durability), then
/// SLO burn accounting, then the structured event log. Runs with the
/// scheduler lock held, so every step is append/increment-cheap.
struct ServingObserver {
    journal: Arc<Journal>,
    log: Arc<EventLog>,
    metrics: Arc<MetricsRegistry>,
    collector: Arc<LiveCollector>,
    slo: Option<SloPolicy>,
    known_tenants: Vec<String>,
}

impl JobObserver for ServingObserver {
    fn on_dispatch(&self, id: JobId, tag: Option<u64>) {
        self.journal.on_dispatch(id, tag);
        if let Some(durable) = tag {
            let trace = self
                .collector
                .trace_of(durable)
                .map_or(Value::Null, |t| Value::Str(t.encode()));
            self.log.event(
                LogLevel::Info,
                "dispatch",
                vec![("job", Value::Num(durable as f64)), ("trace", trace)],
            );
        }
    }

    fn on_terminal(&self, record: &JobRecord) {
        self.journal.on_terminal(record);
        let Some(durable) = record.tag else { return };
        let label = bounded_tenant(&self.known_tenants, record.tenant.as_deref());
        let mut slo_fields: Vec<(&str, Value)> = Vec::new();
        if let Some(policy) = &self.slo {
            // SLO burn is judged on completed jobs only: a cancelled or
            // failed job's latency reflects the cancellation, not the
            // service, and those outcomes have their own counters.
            if matches!(record.status, agcm_ensemble::JobStatus::Completed) {
                let objective =
                    policy.objective_for(record.tenant.as_deref().unwrap_or("anonymous"));
                let queue_ok = record.queue_seconds <= objective.queue_seconds;
                let total_ok = record.queue_seconds + record.run_seconds <= objective.total_seconds;
                let verdict = |ok: bool| if ok { "good" } else { "burn" };
                self.metrics
                    .counter(&format!("slo.{label}.queue_{}", verdict(queue_ok)))
                    .inc();
                self.metrics
                    .counter(&format!("slo.{label}.latency_{}", verdict(total_ok)))
                    .inc();
                slo_fields.push(("slo_queue", Value::Str(verdict(queue_ok).into())));
                slo_fields.push(("slo_latency", Value::Str(verdict(total_ok).into())));
            }
        }
        if self.log.enabled(LogLevel::Info) {
            let trace = self
                .collector
                .trace_of(durable)
                .map_or(Value::Null, |t| Value::Str(t.encode()));
            let mut fields = vec![
                ("job", Value::Num(durable as f64)),
                ("trace", trace),
                ("state", Value::Str(record.status.label())),
                ("tenant", Value::Str(label.to_string())),
                ("attempts", Value::Num(record.attempts as f64)),
                ("queue_seconds", Value::Num(record.queue_seconds)),
                ("run_seconds", Value::Num(record.run_seconds)),
            ];
            fields.extend(slo_fields);
            self.log.event(LogLevel::Info, "terminal", fields);
        }
    }
}

/// Connection registry: each handler's join handle plus a clone of its
/// socket, so shutdown can force-close readers blocked on idle peers.
type ConnList = Arc<Mutex<Vec<(JoinHandle<()>, Option<TcpStream>)>>>;

/// A running server: owns the listener thread, the ensemble, and the
/// journal.
pub struct AgcmServer {
    state: Arc<ServerState>,
    local_addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: ConnList,
}

impl AgcmServer {
    /// Bind, replay the journal, re-admit live jobs, and start serving.
    pub fn start(cfg: ServerConfig) -> std::io::Result<AgcmServer> {
        let (journal, live, replay) = Journal::open(&cfg.journal_dir)?;
        let journal = Arc::new(journal);
        // The fleet checkpoint store shares the journal root. It must be
        // open before recovery so recovered jobs can lease their
        // lineages ahead of the startup GC sweep below.
        let store = Arc::new(
            Store::open(cfg.journal_dir.join("store"))
                .map_err(|e| std::io::Error::other(e.to_string()))?,
        );
        journal.attach_store(Arc::clone(&store));
        let log = Arc::new(match (&cfg.event_log, cfg.event_log_rotation) {
            (Some(path), Some(policy)) => {
                EventLog::open_rotating(path, LogLevel::from_env(), policy)?
            }
            (Some(path), None) => EventLog::open(path, LogLevel::from_env())?,
            (None, _) => EventLog::disabled(),
        });
        let metrics = Arc::new(MetricsRegistry::default());
        let collector = Arc::new(LiveCollector::new());
        let known_tenants: Vec<String> = cfg
            .ensemble
            .tenancy
            .as_ref()
            .map(|p| p.tenants.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        let observer = Arc::new(ServingObserver {
            journal: Arc::clone(&journal),
            log: Arc::clone(&log),
            metrics: Arc::clone(&metrics),
            collector: Arc::clone(&collector),
            slo: cfg.slo.clone(),
            known_tenants: known_tenants.clone(),
        });
        let ensemble =
            Ensemble::start_with_observer(cfg.ensemble.clone(), observer as Arc<dyn JobObserver>);

        // Re-admit every live job under its original durable id, via the
        // recovery path (bypasses capacity and quota — these jobs were
        // already admitted once). Dispatched-at-crash jobs resume from
        // their checkpoint directory, which is derived from the durable
        // id and therefore survives the restart. Each job's journaled
        // trace context is re-attached, so its trace id — and, because
        // attempt span ids derive deterministically from it — its whole
        // span tree survive the crash too.
        let mut report = RecoveryReport {
            journal_lines: replay.lines,
            corrupt_lines: replay.corrupt,
            already_terminal: replay.already_terminal,
            ..RecoveryReport::default()
        };
        // Lease every recoverable job's lineage *before* the startup GC
        // sweep, so the sweep reclaims only lineages whose jobs all
        // finished in the previous incarnation — never the committed
        // prefix a recovered job is about to resume from. Leases are
        // in-memory, so a fresh open holds none until this pass.
        for job in &live {
            if let Ok(req) = JobRequest::from_value(&job.spec) {
                store.acquire(req.config.lineage(), job.id);
            }
        }
        let swept = store.gc();
        if let Ok(gc) = &swept {
            if !gc.lineages.is_empty() {
                log.event(
                    LogLevel::Info,
                    "store_gc",
                    vec![
                        ("lineages", Value::Num(gc.lineages.len() as f64)),
                        ("chunks_reclaimed", Value::Num(gc.chunks_reclaimed as f64)),
                        ("bytes_reclaimed", Value::Num(gc.bytes_reclaimed as f64)),
                    ],
                );
            }
        }
        let mut jobs = HashMap::new();
        for job in &live {
            let Ok(req) = JobRequest::from_value(&job.spec) else {
                report.unrecoverable += 1;
                continue;
            };
            let trace = job
                .trace
                .as_deref()
                .and_then(TraceContext::parse)
                .unwrap_or_else(TraceContext::new_root);
            collector.begin_job(
                job.id,
                trace,
                bounded_tenant(&known_tenants, job.tenant.as_deref()),
            );
            let spec = req
                .to_spec(
                    job.tenant.as_deref(),
                    job.id,
                    checkpoint_dir(&cfg.journal_dir, job.id),
                )
                .with_shared_store(Arc::clone(&store))
                .with_trace(trace)
                .with_sink(collector.sink(job.id));
            let spec = match cfg.profile_hz {
                Some(hz) => spec.with_profile_hz(hz),
                None => spec,
            };
            match ensemble.resubmit(spec) {
                Ok(eid) => {
                    jobs.insert(job.id, (eid, job.tenant.clone()));
                    if job.dispatched {
                        report.resumed += 1;
                    } else {
                        report.requeued += 1;
                    }
                }
                Err(_) => {
                    // The job will never run, so the eager lease taken
                    // above must not pin its lineage forever.
                    store.release(req.config.lineage(), job.id);
                    report.unrecoverable += 1;
                }
            }
        }
        log.event(
            LogLevel::Info,
            "recovery",
            vec![
                ("journal_lines", Value::Num(report.journal_lines as f64)),
                ("corrupt_lines", Value::Num(report.corrupt_lines as f64)),
                ("requeued", Value::Num(report.requeued as f64)),
                ("resumed", Value::Num(report.resumed as f64)),
                ("unrecoverable", Value::Num(report.unrecoverable as f64)),
            ],
        );

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            next_durable: AtomicU64::new(replay.max_id + 1),
            cfg,
            ensemble: RwLock::new(Some(ensemble)),
            journal,
            store,
            jobs: Mutex::new(jobs),
            recovery: report,
            metrics,
            collector,
            log,
            known_tenants,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
        });
        let conns: ConnList = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("agcm-server-accept".into())
                .spawn(move || accept_loop(&listener, &state, &conns))
                .expect("spawn accept loop")
        };
        Ok(AgcmServer {
            state,
            local_addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (the ephemeral port, when `addr` asked for 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// What restart recovery did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.state.recovery
    }

    /// Graceful shutdown: stop accepting, drain connections, then tear
    /// down the ensemble (cancelling whatever is still live — their
    /// terminal records are journaled, so nothing resurrects).
    pub fn shutdown(mut self) {
        self.stop_serving();
        self.state.ensemble.write().unwrap().take();
    }

    /// Simulated crash for restart testing: the journal is detached
    /// *first*, so the ensemble teardown journals nothing — every job
    /// that was queued or running remains live in the log and is
    /// recovered by the next [`AgcmServer::start`] on the same
    /// journal directory.
    pub fn abort(mut self) {
        self.state.journal.detach();
        self.stop_serving();
        self.state.ensemble.write().unwrap().take();
    }

    fn stop_serving(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        // Force-close every socket first — a peer that connected and
        // went silent would otherwise pin its handler (and this join)
        // until the io timeout.
        for (_, stream) in &conns {
            if let Some(s) = stream {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for (h, _) in conns {
            let _ = h.join();
        }
    }
}

impl Drop for AgcmServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_serving();
            self.state.ensemble.write().unwrap().take();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, conns: &ConnList) {
    for stream in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A silent or dribbling peer is closed after the io timeout
        // instead of pinning its handler thread forever.
        let _ = stream.set_read_timeout(Some(state.cfg.io_timeout));
        let _ = stream.set_write_timeout(Some(state.cfg.io_timeout));
        let mut conns_guard = conns.lock().unwrap();
        // Reap finished connections so one-request-per-connection
        // clients (curl, the polling smoke client) cannot pile up dead
        // thread handles for the lifetime of the server.
        conns_guard.retain(|(h, _)| !h.is_finished());
        if conns_guard.len() >= state.cfg.max_connections {
            drop(conns_guard);
            let mut writer = stream;
            let mut resp = Response::json(
                503,
                error_body("overloaded", "connection limit reached, retry later"),
            );
            resp.close = true;
            let _ = write_response(&mut writer, &resp);
            continue;
        }
        let peer = stream.try_clone().ok();
        let state = Arc::clone(state);
        let handle = std::thread::Builder::new()
            .name("agcm-server-conn".into())
            .spawn(move || connection_loop(stream, &state))
            .expect("spawn connection thread");
        conns_guard.push((handle, peer));
    }
}

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>) {
    serve_connection(&stream, state);
    // The accept loop's registry holds a clone of this socket (so that
    // shutdown can force-close a blocked reader). Dropping our copy
    // therefore does NOT send FIN while that clone lives — shut the
    // socket down explicitly, or one-shot clients reading to EOF would
    // block until the registry reaps the entry.
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(stream: &TcpStream, state: &Arc<ServerState>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader, &state.cfg.limits) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(e) => {
                let (status, label) = match &e {
                    ReadError::BodyTooLarge { .. } => (413, "payload_too_large"),
                    ReadError::Io(_) => return,
                    _ => (400, "bad_request"),
                };
                let mut resp = Response::json(status, error_body(label, &e.to_string()));
                resp.close = true;
                let _ = write_response(&mut writer, &resp);
                // Drain the declared (unread) body, bounded, so closing
                // does not RST the 413 away before the client reads it.
                if let ReadError::BodyTooLarge { declared, .. } = e {
                    let mut sink = [0u8; 4096];
                    let mut remaining = declared.min(8 * 1024 * 1024);
                    while remaining > 0 {
                        let want = remaining.min(sink.len());
                        match std::io::Read::read(&mut reader, &mut sink[..want]) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => remaining -= n,
                        }
                    }
                }
                return;
            }
        };
        let close = request.wants_close() || state.shutting_down.load(Ordering::SeqCst);
        let started = Instant::now();
        let (route, mut response) = handle(state, &request);
        observe_request(
            state,
            route,
            response.status,
            started.elapsed().as_secs_f64(),
        );
        response.close = close;
        if write_response(&mut writer, &response).is_err() || close {
            return;
        }
    }
}

/// The closed set of per-endpoint metric labels. Every route the
/// dispatcher can return is listed here; anything a client invents maps
/// to `other`, so the latency-histogram key space is bounded exactly
/// like tenant labels are.
const ROUTE_LABELS: &[&str] = &[
    "healthz",
    "prom_metrics",
    "get_metrics",
    "post_jobs",
    "list_jobs",
    "get_job",
    "get_result",
    "get_trace",
    "get_profile",
    "delete_job",
    "other",
];

fn observe_request(state: &ServerState, route: &'static str, status: u16, seconds: f64) {
    debug_assert!(
        ROUTE_LABELS.contains(&route),
        "route label '{route}' is not in the closed ROUTE_LABELS set"
    );
    let route = if ROUTE_LABELS.contains(&route) {
        route
    } else {
        "other"
    };
    state
        .metrics
        .counter(&format!("http.requests.{route}"))
        .inc();
    state
        .metrics
        .histogram(&format!("http.latency_seconds.{route}"))
        .observe(seconds);
    state.log.event(
        LogLevel::Debug,
        "access",
        vec![
            ("route", Value::Str(route.into())),
            ("status", Value::Num(status as f64)),
            ("seconds", Value::Num(seconds)),
        ],
    );
}

/// Route and handle one request. Returns the route label (for metrics)
/// plus the response.
fn handle(state: &Arc<ServerState>, req: &Request) -> (&'static str, Response) {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ("healthz", healthz(state)),
        ("GET", ["metrics"]) => ("prom_metrics", prom_metrics(state)),
        ("GET", ["v1", "metrics"]) => ("get_metrics", metrics(state)),
        ("POST", ["v1", "jobs"]) => ("post_jobs", submit(state, req)),
        ("GET", ["v1", "jobs"]) => ("list_jobs", list_jobs(state, req)),
        ("GET", ["v1", "jobs", id]) => ("get_job", job_status(state, id, false)),
        ("GET", ["v1", "jobs", id, "result"]) => ("get_result", job_status(state, id, true)),
        ("GET", ["v1", "jobs", id, "trace"]) => ("get_trace", job_trace(state, id)),
        ("GET", ["v1", "jobs", id, "profile"]) => ("get_profile", job_profile(state, id)),
        ("DELETE", ["v1", "jobs", id]) => ("delete_job", cancel(state, id)),
        (_, ["v1", "jobs", ..]) | (_, ["v1", "metrics"]) | (_, ["healthz"]) | (_, ["metrics"]) => (
            "other",
            Response::json(405, error_body("method_not_allowed", &req.method)),
        ),
        _ => ("other", Response::json(404, error_body("not_found", path))),
    }
}

fn healthz(state: &ServerState) -> Response {
    let r = &state.recovery;
    let j = state.journal.stats();
    let body = Value::obj(vec![
        ("ok", Value::Bool(true)),
        (
            "uptime_seconds",
            Value::Num(state.started.elapsed().as_secs_f64()),
        ),
        (
            "journal",
            Value::obj(vec![
                ("appended_lines", Value::Num(j.appended_lines as f64)),
                ("compacted_live", Value::Num(j.compacted_live as f64)),
                ("dropped_terminal", Value::Num(j.dropped_terminal as f64)),
            ]),
        ),
        (
            "recovery",
            Value::obj(vec![
                ("journal_lines", Value::Num(r.journal_lines as f64)),
                ("corrupt_lines", Value::Num(r.corrupt_lines as f64)),
                ("requeued", Value::Num(r.requeued as f64)),
                ("resumed", Value::Num(r.resumed as f64)),
                ("already_terminal", Value::Num(r.already_terminal as f64)),
                ("unrecoverable", Value::Num(r.unrecoverable as f64)),
            ]),
        ),
    ]);
    Response::json(200, body.to_string())
}

/// The fleet checkpoint store's counters as a JSON object — the
/// serving-layer view of dedup effectiveness and prefix-reuse hit rate.
fn store_to_json(s: &agcm_ckptstore::StoreStats) -> Value {
    let n = |v: u64| Value::Num(v as f64);
    Value::obj(vec![
        ("chunks", n(s.chunks)),
        ("live_bytes", n(s.live_bytes)),
        ("manifests", n(s.manifests)),
        ("lineages", n(s.lineages)),
        ("leased_lineages", n(s.leased_lineages)),
        ("bytes_ingested", n(s.bytes_ingested)),
        ("bytes_written", n(s.bytes_written)),
        ("bytes_deduped", n(s.bytes_deduped)),
        ("shard_dedup_hits", n(s.shard_dedup_hits)),
        ("prefix_hits", n(s.prefix_hits)),
        ("prefix_misses", n(s.prefix_misses)),
        ("gc_runs", n(s.gc_runs)),
        ("chunks_reclaimed", n(s.chunks_reclaimed)),
        ("bytes_reclaimed", n(s.bytes_reclaimed)),
        ("orphans_swept", n(s.orphans_swept)),
        ("puts", n(s.puts)),
        ("put_seconds", Value::Num(s.put_seconds)),
        ("lock_wait_seconds", Value::Num(s.lock_wait_seconds)),
        ("fsync_seconds", Value::Num(s.fsync_seconds)),
    ])
}

fn metrics(state: &ServerState) -> Response {
    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    let mut fields = vec![
        ("fleet", ensemble.fleet().to_json()),
        ("server", state.metrics.snapshot().to_json()),
        ("live", state.collector.rollup()),
        ("store", store_to_json(&state.store.stats())),
    ];
    if let Some(policy) = &state.cfg.slo {
        fields.push((
            "slo",
            Value::obj(vec![
                ("queue_seconds", Value::Num(policy.default.queue_seconds)),
                ("total_seconds", Value::Num(policy.default.total_seconds)),
            ]),
        ));
    }
    Response::json(200, Value::obj(fields).to_string())
}

/// `GET /metrics`: the whole registry in Prometheus text exposition
/// format, plus gauges a scraper wants that live outside the registry
/// (uptime, fleet occupancy, tracked jobs).
fn prom_metrics(state: &ServerState) -> Response {
    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    let fleet = ensemble.fleet();
    let store = state.store.stats();
    let extras = vec![
        (
            "server.uptime_seconds".to_string(),
            state.started.elapsed().as_secs_f64(),
        ),
        ("fleet.ranks_busy".to_string(), fleet.ranks_busy),
        ("fleet.queue_depth".to_string(), fleet.queue_depth),
        (
            "fleet.jobs_completed".to_string(),
            fleet.jobs_completed as f64,
        ),
        ("fleet.jobs_failed".to_string(), fleet.jobs_failed as f64),
        (
            "live.tracked_jobs".to_string(),
            state.collector.tracked_jobs() as f64,
        ),
        ("store.chunks".to_string(), store.chunks as f64),
        ("store.live_bytes".to_string(), store.live_bytes as f64),
        ("store.lineages".to_string(), store.lineages as f64),
        (
            "store.bytes_written".to_string(),
            store.bytes_written as f64,
        ),
        (
            "store.bytes_deduped".to_string(),
            store.bytes_deduped as f64,
        ),
        ("store.puts".to_string(), store.puts as f64),
        ("store.put_seconds".to_string(), store.put_seconds),
        (
            "store.lock_wait_seconds".to_string(),
            store.lock_wait_seconds,
        ),
        ("store.fsync_seconds".to_string(), store.fsync_seconds),
        ("store.prefix_hits".to_string(), store.prefix_hits as f64),
        (
            "store.prefix_misses".to_string(),
            store.prefix_misses as f64,
        ),
        (
            "store.bytes_reclaimed".to_string(),
            store.bytes_reclaimed as f64,
        ),
    ];
    Response::prometheus(prom::render(&state.metrics.snapshot(), &extras))
}

/// `GET /v1/jobs[?tenant=name]`: every job this process knows, with its
/// current state (queue position for queued jobs), newest first.
fn list_jobs(state: &ServerState, req: &Request) -> Response {
    let filter = req
        .path
        .split_once('?')
        .map(|(_, q)| q)
        .and_then(|q| {
            q.split('&')
                .find_map(|kv| kv.strip_prefix("tenant=").map(str::to_string))
        })
        .filter(|t| !t.is_empty());
    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    let jobs = state.jobs.lock().unwrap();
    let mut entries: Vec<(u64, JobId, Option<String>)> = jobs
        .iter()
        .filter(|(_, (_, tenant))| match &filter {
            Some(f) => tenant.as_deref() == Some(f.as_str()),
            None => true,
        })
        .map(|(&durable, &(eid, ref tenant))| (durable, eid, tenant.clone()))
        .collect();
    drop(jobs);
    entries.sort_by_key(|&(durable, _, _)| std::cmp::Reverse(durable));
    let mut out = Vec::new();
    for (durable, eid, tenant) in entries {
        let Some(view) = ensemble.status(eid) else {
            continue;
        };
        let mut v = view_to_value(durable, &view);
        if let Some(fields) = v.as_obj_mut() {
            // Terminal records already carry `tenant`; only fill the gap
            // for queued/running views, so keys stay unique.
            if !fields.iter().any(|(k, _)| k == "tenant") {
                fields.push(("tenant".to_string(), tenant.map_or(Value::Null, Value::Str)));
            }
            if let Some(trace) = state.collector.trace_of(durable) {
                fields.push(("trace".to_string(), Value::Str(trace.encode())));
            }
        }
        out.push(v);
    }
    let body = Value::obj(vec![
        ("count", Value::Num(out.len() as f64)),
        ("jobs", Value::Arr(out)),
    ]);
    Response::json(200, body.to_string())
}

/// `GET /v1/jobs/{id}/trace`: the live span view — trace id, per-attempt
/// spans, last committed checkpoint, and the per-phase breakdown (wall
/// clock while running, authoritative virtual seconds once finished).
fn job_trace(state: &ServerState, id_text: &str) -> Response {
    let (durable, eid) = match lookup(state, id_text) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let Some(mut view) = state.collector.job_view(durable) else {
        return Response::json(
            404,
            error_body("no_trace", &format!("job {durable} has no trace recorded")),
        );
    };
    // Fold the scheduler's current verdict in, so one endpoint answers
    // "where is my job and what has it done so far".
    let guard = state.ensemble.read().unwrap();
    if let Some(ensemble) = guard.as_ref() {
        if let Some(job_view) = ensemble.status(eid) {
            let label = match &job_view {
                JobView::Queued { .. } => "queued".to_string(),
                JobView::Running { .. } => "running".to_string(),
                JobView::Done(record) => record.status.label(),
            };
            if let Some(fields) = view.as_obj_mut() {
                fields.push(("state".to_string(), Value::Str(label)));
            }
        }
    }
    Response::json(200, view.to_string())
}

/// `GET /v1/jobs/{id}/profile`: the job's sampled wall-clock profile —
/// folded stacks, per-phase self/total sample table, and the
/// measured-vs-modeled skew report — recorded when the run finished.
/// 404 until then (or when the server runs without `profile_hz`).
fn job_profile(state: &ServerState, id_text: &str) -> Response {
    let (durable, _) = match lookup(state, id_text) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    match state.collector.job_profile(durable) {
        Some(view) => Response::json(200, view.to_string()),
        None => Response::json(
            404,
            error_body(
                "no_profile",
                &format!("job {durable} has no profile recorded (still running, or profiling is disabled)"),
            ),
        ),
    }
}

/// Map a scheduler rejection onto HTTP.
fn submit_error_response(e: &SubmitError) -> Response {
    let (status, label) = match e {
        SubmitError::QueueFull { .. } => (429, "queue_full"),
        SubmitError::QuotaExceeded { .. } => (429, "quota_exceeded"),
        SubmitError::UnknownTenant { .. } => (403, "unknown_tenant"),
        SubmitError::TooLarge { .. } => (400, "too_large"),
        SubmitError::InvalidConfig(_) => (400, "invalid_config"),
        SubmitError::ShuttingDown => (503, "shutting_down"),
    };
    Response::json(status, error_body(label, &e.to_string()))
}

fn tenant_of(req: &Request) -> Option<String> {
    req.header("x-agcm-tenant")
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::to_string)
}

/// Tenant metric key, bounded by the policy's name set.
fn tenant_metric_label<'a>(state: &'a ServerState, tenant: Option<&'a str>) -> &'a str {
    bounded_tenant(&state.known_tenants, tenant)
}

fn submit(state: &Arc<ServerState>, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::json(400, error_body("bad_body", "body is not UTF-8"));
    };
    let limits = ParseLimits {
        max_depth: state.cfg.max_json_depth,
        max_bytes: state.cfg.limits.max_body,
    };
    let value = match Value::parse_untrusted(text, limits) {
        Ok(v) => v,
        Err(e) => {
            let status = if e.kind == ParseErrorKind::TooLarge {
                413
            } else {
                400
            };
            return Response::json(
                status,
                error_body(&format!("bad_json_{}", e.kind.label()), &e.to_string()),
            );
        }
    };
    let request = match JobRequest::from_value(&value) {
        Ok(r) => r,
        Err(msg) => return Response::json(400, error_body("bad_request", &msg)),
    };
    let tenant = tenant_of(req);

    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    let durable = state.next_durable.fetch_add(1, Ordering::Relaxed);
    // Mint the trace context here, at the edge: this id links the HTTP
    // request, the journal record, every scheduler decision, every
    // retry attempt and the rank-level phase spans underneath it.
    let trace = TraceContext::new_root();
    let tenant_label = tenant_metric_label(state, tenant.as_deref()).to_string();
    state.collector.begin_job(durable, trace, &tenant_label);
    let spec = request
        .to_spec(
            tenant.as_deref(),
            durable,
            checkpoint_dir(&state.cfg.journal_dir, durable),
        )
        .with_shared_store(Arc::clone(&state.store))
        .with_trace(trace)
        .with_sink(state.collector.sink(durable));
    let spec = match state.cfg.profile_hz {
        Some(hz) => spec.with_profile_hz(hz),
        None => spec,
    };
    // Deterministic rejections (quota, unknown tenant, queue full) are
    // answered before the write-ahead record: there is nothing durable
    // about a job that was never admitted, and journaling every bounce
    // would let rejected traffic grow the log without bound. The burned
    // durable id is a harmless gap — it was never acked and never
    // touched a checkpoint directory.
    if let Err(e) = ensemble.admission_check(&spec) {
        state
            .metrics
            .counter(&format!("tenant.{tenant_label}.rejected"))
            .inc();
        state.collector.forget(durable);
        return submit_error_response(&e);
    }
    // Write-ahead: the journal learns about the job before the scheduler
    // does, so a crash between the two resurrects (at worst) a job the
    // client was never acked — re-running it is idempotent, losing an
    // acked job is not. The trace context rides in the record, so the
    // resurrected job keeps its trace id.
    state.journal.submitted(
        durable,
        tenant.as_deref(),
        Some(&trace.encode()),
        &request.raw,
    );
    match ensemble.try_submit(spec) {
        Ok(eid) => {
            state.jobs.lock().unwrap().insert(durable, (eid, tenant));
            state
                .metrics
                .counter(&format!("tenant.{tenant_label}.submitted"))
                .inc();
            let body = Value::obj(vec![
                ("id", Value::Num(durable as f64)),
                ("state", Value::Str("queued".into())),
                ("trace", Value::Str(trace.encode())),
            ]);
            Response::json(202, body.to_string())
        }
        Err(e) => {
            // Lost race: another submission filled the queue or quota
            // between the admission check and here. The write-ahead
            // record must not resurrect this rejected job.
            state.journal.rejected(durable, &e.to_string());
            state
                .metrics
                .counter(&format!("tenant.{tenant_label}.rejected"))
                .inc();
            state.collector.forget(durable);
            submit_error_response(&e)
        }
    }
}

fn lookup(state: &ServerState, id_text: &str) -> Result<(u64, JobId), Response> {
    let Ok(durable) = id_text.parse::<u64>() else {
        return Err(Response::json(
            400,
            error_body("bad_id", "job id must be an integer"),
        ));
    };
    match state.jobs.lock().unwrap().get(&durable) {
        Some(&(eid, _)) => Ok((durable, eid)),
        None => Err(Response::json(
            404,
            error_body("not_found", &format!("no job {durable}")),
        )),
    }
}

fn job_status(state: &ServerState, id_text: &str, result: bool) -> Response {
    let (durable, eid) = match lookup(state, id_text) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    let Some(view) = ensemble.status(eid) else {
        return Response::json(404, error_body("not_found", &format!("no job {durable}")));
    };
    if result {
        match view {
            JobView::Done(record) => {
                Response::json(200, result_to_value(durable, &record).to_string())
            }
            _ => Response::json(409, error_body("not_finished", "job has no result yet")),
        }
    } else {
        Response::json(200, view_to_value(durable, &view).to_string())
    }
}

fn cancel(state: &ServerState, id_text: &str) -> Response {
    let (durable, eid) = match lookup(state, id_text) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let guard = state.ensemble.read().unwrap();
    let Some(ensemble) = guard.as_ref() else {
        return Response::json(503, error_body("shutting_down", "ensemble stopped"));
    };
    if ensemble.cancel(eid) {
        let body = Value::obj(vec![
            ("id", Value::Num(durable as f64)),
            ("cancelled", Value::Bool(true)),
        ]);
        Response::json(200, body.to_string())
    } else {
        // Already terminal: report the final state instead.
        match ensemble.status(eid) {
            Some(JobView::Done(record)) => {
                Response::json(409, record_to_value(durable, &record).to_string())
            }
            _ => Response::json(409, error_body("not_cancellable", "job already finished")),
        }
    }
}
