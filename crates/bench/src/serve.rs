//! The `reproduce serve` report: the serving layer exercised end to end
//! over a real TCP socket.
//!
//! Two phases, one journal-backed server each:
//!
//! - **Phase A (multi-tenant serving):** three tenants with weighted
//!   quotas submit concurrently under a strict policy on a bounded rank
//!   budget. A quota-exceeding tenant gets a typed 429 without touching
//!   anyone else, an unknown tenant gets 403, and a running job is
//!   cancelled cleanly over `DELETE`.
//! - **Phase B (journal recovery):** six checkpointing jobs are
//!   submitted, the server is killed mid-flight (journal detached, so
//!   the teardown records nothing), and a restart on the same journal
//!   directory must recover every job — queued jobs re-enqueue,
//!   the dispatched one resumes from its checkpoint — and run all of
//!   them to completion.
//!
//! Everything lands in `serve.json` with a machine-checkable `checks`
//! section, mirroring `reproduce ensemble`; the binary exits non-zero
//! when any check fails and CI greps the journal-recovery check.

use crate::analyze::{Check, Checks};
use agcm_core::report::Table;
use agcm_ensemble::{EnsembleConfig, TenantPolicy, TenantQuota};
use agcm_server::client::{delete_job, get, post_job, ClientResponse};
use agcm_server::{AgcmServer, ServerConfig, SloPolicy};
use agcm_telemetry::json::Value;
use agcm_telemetry::{prom, TraceContext};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where phase A's structured event log lands (uploaded as a CI
/// artifact alongside `serve.json`).
pub const EVENT_LOG: &str = "serve_events.jsonl";

/// Rank budget the phase-A tenants share: smaller than their combined
/// demand, so admission and fair-share dispatch actually gate work.
pub const RANK_BUDGET: usize = 6;

/// Phase-B rank budget: two-rank jobs on a two-rank budget serialize,
/// so at the kill exactly one job is dispatched and the rest are queued.
pub const RECOVERY_RANK_BUDGET: usize = 2;

/// Jobs submitted in phase B (all recovered after the kill).
pub const RECOVERY_JOBS: usize = 6;

/// The full serving report.
pub struct ServeReport {
    /// Per-job table for the terminal output.
    pub table: Table,
    /// The `serve.json` document.
    pub doc: Value,
    /// Machine-checkable invariants.
    pub checks: Checks,
}

/// A fresh journal directory under the working directory (gitignored).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("journal").join(format!("serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `POST /v1/jobs` body on the small smoke grid. `mesh_lon` is the
/// rank count (the mesh is 1×N).
fn job_body(name: &str, mesh_lon: usize, steps: usize, checkpoint_every: usize) -> String {
    format!(
        "{{\"name\":\"{name}\",\"grid\":{{\"lon\":24,\"lat\":12,\"lev\":2}},\
         \"mesh\":{{\"lat\":1,\"lon\":{mesh_lon}}},\"steps\":{steps},\
         \"checkpoint_every\":{checkpoint_every}}}"
    )
}

/// Extract the durable id from a 202 submission response.
fn accepted_id(resp: &ClientResponse) -> Result<u64, String> {
    if resp.status != 202 {
        return Err(format!("expected 202, got {}: {}", resp.status, resp.body));
    }
    resp.json()
        .get("id")
        .and_then(Value::as_f64)
        .map(|id| id as u64)
        .ok_or_else(|| format!("202 body without numeric id: {}", resp.body))
}

/// Extract durable id *and* the minted trace context from a 202 ack.
fn accepted_submission(resp: &ClientResponse) -> Result<(u64, String), String> {
    let id = accepted_id(resp)?;
    let trace = resp
        .json()
        .get("trace")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("202 body without trace: {}", resp.body))?;
    Ok((id, trace))
}

/// Poll `GET /v1/jobs/{id}` until the job reaches `want` (or time out).
fn wait_state(addr: SocketAddr, id: u64, want: &str, secs: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}")).map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!(
                "status poll for {id}: {} {}",
                resp.status, resp.body
            ));
        }
        let state = resp
            .json()
            .get("state")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_default();
        if state == want {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} stuck in {state:?}, wanted {want:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One row of the terminal table: what each submitted job ended up as.
struct JobRow {
    name: String,
    tenant: &'static str,
    ranks: usize,
    outcome: String,
}

/// Phase A: weighted tenants, typed rejections, cancellation, metrics,
/// and the end-to-end trace of one fully observed job.
struct PhaseA {
    checks: Vec<Check>,
    rows: Vec<JobRow>,
    fleet: Value,
    trace: Value,
}

fn phase_a(smoke: bool) -> PhaseA {
    let short_steps = if smoke { 60 } else { 240 };
    let long_steps = if smoke { 2_500 } else { 8_000 };

    let dir = scratch_dir("tenants");
    let tenancy = TenantPolicy {
        // Strict: no default quota, unknown tenants bounce with 403.
        default_quota: None,
        tenants: Vec::new(),
    }
    .with_tenant(
        "alice",
        TenantQuota {
            weight: 2.0,
            ..TenantQuota::default()
        },
    )
    .with_tenant("bob", TenantQuota::default())
    .with_tenant(
        "mallory",
        TenantQuota {
            max_in_flight: 2,
            max_running_ranks: 2,
            ..TenantQuota::default()
        },
    );
    // Fresh event log per run: the file is a CI artifact, not a ledger.
    let _ = std::fs::remove_file(EVENT_LOG);
    let server = AgcmServer::start(ServerConfig {
        journal_dir: dir.clone(),
        ensemble: EnsembleConfig {
            rank_budget: RANK_BUDGET,
            queue_capacity: 64,
            tenancy: Some(tenancy),
            ..EnsembleConfig::default()
        },
        event_log: Some(PathBuf::from(EVENT_LOG)),
        // Zero-second objectives: every completed job burns both SLOs,
        // so the burn-counting path is exercised deterministically.
        slo: Some(SloPolicy::uniform(0.0, 0.0)),
        ..ServerConfig::default()
    })
    .expect("phase A server starts");
    let addr = server.local_addr();
    eprintln!("serve: phase A listening on {addr}");

    let mut checks = Vec::new();
    let mut rows = Vec::new();

    // Liveness.
    let health = get(addr, "/healthz").expect("healthz reachable");
    let health_ok =
        health.status == 200 && matches!(health.json().get("ok"), Some(Value::Bool(true)));
    checks.push(Check {
        name: "health_ok",
        ok: health_ok,
        detail: format!("GET /healthz -> {}", health.status),
    });

    // A long-running victim for the DELETE check: dispatched first, so
    // it is running while everything else queues behind it.
    let victim =
        accepted_id(&post_job(addr, Some("alice"), &job_body("victim", 1, 100_000, 500)).unwrap())
            .expect("victim admits");
    let victim_running = wait_state(addr, victim, "running", 30);
    eprintln!("serve: victim running: {victim_running:?}");

    // Mallory's in-flight quota is 2: two long jobs admit, the third
    // bounces with a *typed* 429 while they are still in flight.
    let mut mallory_ids = Vec::new();
    for i in 0..2 {
        mallory_ids.push(
            accepted_id(
                &post_job(
                    addr,
                    Some("mallory"),
                    &job_body(&format!("m{i}"), 1, long_steps, 200),
                )
                .unwrap(),
            )
            .expect("mallory job admits"),
        );
    }
    let resp = post_job(addr, Some("mallory"), &job_body("m2", 1, 1, 1)).unwrap();
    let quota_typed = resp.status == 429
        && resp.json().get("error").and_then(Value::as_str) == Some("quota_exceeded");
    checks.push(Check {
        name: "quota_429_typed",
        ok: quota_typed,
        detail: format!(
            "mallory's 3rd in-flight job -> {} {}",
            resp.status, resp.body
        ),
    });

    // Unknown tenant under the strict policy: typed 403, and anonymous
    // submissions are unknown too.
    let resp = post_job(addr, Some("eve"), &job_body("e0", 1, 1, 1)).unwrap();
    let anon = post_job(addr, None, &job_body("a0", 1, 1, 1)).unwrap();
    let unknown_typed = resp.status == 403
        && resp.json().get("error").and_then(Value::as_str) == Some("unknown_tenant")
        && anon.status == 403;
    checks.push(Check {
        name: "unknown_tenant_403",
        ok: unknown_typed,
        detail: format!(
            "eve -> {} {}; anonymous -> {}",
            resp.status, resp.body, anon.status
        ),
    });

    // Concurrent submission: alice (weight 2) and bob race three jobs
    // each through the same socket while the victim occupies a rank.
    let submit_batch = move |tenant: &'static str, ranks: usize| {
        std::thread::spawn(move || {
            let mut ids = Vec::new();
            for i in 0..3 {
                let body = job_body(&format!("{tenant}-{i}"), ranks, short_steps, 50);
                ids.push(accepted_id(&post_job(addr, Some(tenant), &body).unwrap()));
            }
            ids
        })
    };
    eprintln!("serve: quota/403 checks done, submitting batches");
    let alice_jobs = submit_batch("alice", 1);
    let bob_jobs = submit_batch("bob", 2);
    let alice_ids: Vec<u64> = alice_jobs
        .join()
        .unwrap()
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("alice's batch admits");
    let bob_ids: Vec<u64> = bob_jobs
        .join()
        .unwrap()
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("bob's batch admits");

    eprintln!("serve: batches admitted, cancelling victim");
    // Cancel the victim mid-run.
    let cancel = delete_job(addr, victim).unwrap();
    let cancelled = wait_state(addr, victim, "cancelled(explicit)", 30);
    let cancel_ok = victim_running.is_ok() && cancel.status == 200 && cancelled.is_ok();
    checks.push(Check {
        name: "cancel_delete",
        ok: cancel_ok,
        detail: format!(
            "running: {victim_running:?}, DELETE -> {}, terminal: {cancelled:?}",
            cancel.status
        ),
    });
    rows.push(JobRow {
        name: "victim".into(),
        tenant: "alice",
        ranks: 1,
        outcome: if cancel_ok {
            "cancelled(explicit)"
        } else {
            "NOT cancelled"
        }
        .into(),
    });

    // Every admitted job of every tenant must complete despite the
    // rejected submissions and the cancellation happening around them.
    let mut failures = Vec::new();
    let batches: [(&'static str, usize, &[u64]); 3] = [
        ("alice", 1, &alice_ids),
        ("bob", 2, &bob_ids),
        ("mallory", 1, &mallory_ids),
    ];
    for (tenant, ranks, ids) in batches {
        for (i, &id) in ids.iter().enumerate() {
            let done = wait_state(addr, id, "completed", 120);
            if let Err(e) = &done {
                failures.push(e.clone());
            }
            rows.push(JobRow {
                name: format!("{tenant}-{i}"),
                tenant,
                ranks,
                outcome: if done.is_ok() {
                    "completed"
                } else {
                    "TIMED OUT"
                }
                .into(),
            });
        }
    }
    eprintln!("serve: completion wait done ({} failures)", failures.len());
    checks.push(Check {
        name: "multi_tenant_completed",
        ok: failures.is_empty(),
        detail: if failures.is_empty() {
            format!(
                "{} admitted jobs across 3 tenants all completed",
                alice_ids.len() + bob_ids.len() + mallory_ids.len()
            )
        } else {
            format!("stuck jobs: {failures:?}")
        },
    });

    // End-to-end observability: submit one more job, follow the trace id
    // minted in its 202 ack through the live trace view, and require the
    // live per-phase totals to equal the post-hoc run summary's exactly
    // (both are max-over-ranks sums of the same virtual timeline).
    let resp = post_job(addr, Some("alice"), &job_body("traced", 2, short_steps, 25)).unwrap();
    let (traced_id, trace_text) = accepted_submission(&resp).expect("traced job admits");
    let traced_done = wait_state(addr, traced_id, "completed", 120);
    rows.push(JobRow {
        name: "traced".into(),
        tenant: "alice",
        ranks: 2,
        outcome: if traced_done.is_ok() {
            "completed (traced)"
        } else {
            "TIMED OUT"
        }
        .into(),
    });
    let root = TraceContext::parse(&trace_text);
    let view = get(addr, &format!("/v1/jobs/{traced_id}/trace")).unwrap();
    let tv = view.json();
    let result = get(addr, &format!("/v1/jobs/{traced_id}/result")).unwrap();
    let summary_phases = result
        .json()
        .get("summary")
        .and_then(|s| s.get("phase_seconds"))
        .cloned()
        .unwrap_or(Value::Null);

    let linkage_err: Option<&'static str> = (|| {
        let Some(root) = root.as_ref() else {
            return Some("202 trace does not parse");
        };
        let trace_hex = root.trace_hex();
        if tv.get("trace").and_then(Value::as_str) != Some(trace_hex.as_str()) {
            return Some("trace view id differs from 202 ack");
        }
        let Some(Value::Arr(attempts)) = tv.get("attempts") else {
            return Some("no attempts array");
        };
        if attempts.is_empty() {
            return Some("no attempt spans");
        }
        let span_hex = root.span_hex();
        if !attempts
            .iter()
            .all(|a| a.get("parent").and_then(Value::as_str) == Some(span_hex.as_str()))
        {
            return Some("attempt span not parented to the root span");
        }
        if tv.get("phase_domain").and_then(Value::as_str) != Some("virtual") {
            return Some("finished job not in the virtual phase domain");
        }
        match tv.get("phases") {
            Some(Value::Obj(p)) if !p.is_empty() => None,
            _ => Some("no phase breakdown"),
        }
    })();
    checks.push(Check {
        name: "trace_linkage",
        ok: traced_done.is_ok() && linkage_err.is_none(),
        detail: match (&traced_done, linkage_err) {
            (Ok(()), None) => format!(
                "trace {} links 202 ack, attempts and rank phases",
                trace_text.split('-').next().unwrap_or("")
            ),
            (Err(e), _) => format!("traced job: {e}"),
            (_, Some(why)) => why.to_string(),
        },
    });

    let consistent = match (tv.get("phases"), &summary_phases) {
        (Some(Value::Obj(live)), Value::Obj(summary))
            if !live.is_empty() && live.len() == summary.len() =>
        {
            live.iter().all(|(name, lv)| {
                summary
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, sv)| Some((lv.as_f64()?, sv.as_f64()?)))
                    .is_some_and(|(l, s)| (l - s).abs() <= 1e-9)
            })
        }
        _ => false,
    };
    checks.push(Check {
        name: "live_view_consistent",
        ok: consistent,
        detail: if consistent {
            "live phase totals equal the run summary's to 1e-9".to_string()
        } else {
            format!(
                "live phases {:?} vs summary {summary_phases}",
                tv.get("phases")
            )
        },
    });

    // The Prometheus exposition must actually parse as v0.0.4 text and
    // carry at least one family of each kind.
    let prom_resp = get(addr, "/metrics").unwrap();
    let exposition = prom::validate(&prom_resp.body);
    let prom_ok = prom_resp.status == 200
        && exposition
            .as_ref()
            .is_ok_and(|s| s.counters >= 1 && s.gauges >= 1 && s.histograms >= 1);
    checks.push(Check {
        name: "metrics_exposition",
        ok: prom_ok,
        detail: match &exposition {
            Ok(s) => format!(
                "GET /metrics -> {}: {} counters, {} gauges, {} histograms, {} samples",
                prom_resp.status, s.counters, s.gauges, s.histograms, s.samples
            ),
            Err(e) => format!("exposition invalid: {e}"),
        },
    });

    // Fleet + request metrics over the wire.
    let metrics = get(addr, "/v1/metrics").unwrap();
    let m = metrics.json();
    let fleet = m.get("fleet").cloned().unwrap_or(Value::Null);
    let busy_peak = fleet
        .get("ranks_busy_peak")
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    checks.push(Check {
        name: "budget_never_exceeded",
        ok: busy_peak > 0.0 && busy_peak <= RANK_BUDGET as f64,
        detail: format!("peak {busy_peak} of {RANK_BUDGET} budget ranks busy"),
    });
    let posts = m
        .get("server")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("http.requests.post_jobs"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let latency_count = m
        .get("server")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get("http.latency_seconds.post_jobs"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let mallory_rejected = m
        .get("server")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get("tenant.mallory.rejected"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    checks.push(Check {
        name: "metrics_exposed",
        ok: metrics.status == 200
            && posts >= 11.0
            && latency_count >= posts
            && mallory_rejected >= 1.0,
        detail: format!(
            "{posts} POSTs counted, {latency_count} latency samples, mallory rejected {mallory_rejected}"
        ),
    });

    // Under the zero-second objectives every completed job burns both
    // SLOs, so burn counters must have accumulated under the tenant's
    // bounded label.
    let slo_counter = |name: &str| {
        m.get("server")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let queue_burn = slo_counter("slo.alice.queue_burn");
    let latency_burn = slo_counter("slo.alice.latency_burn");
    checks.push(Check {
        name: "slo_burn_counted",
        ok: queue_burn >= 1.0 && latency_burn >= 1.0,
        detail: format!(
            "alice burned queue SLO {queue_burn} times, latency SLO {latency_burn} times"
        ),
    });

    server.shutdown();

    // The structured event log must exist and hold parseable JSONL with
    // the leveled-event shape (access lines are Debug-filtered out by
    // the default Info level; dispatch/terminal lines remain).
    let log_lines = std::fs::read_to_string(EVENT_LOG)
        .map(|text| {
            let lines: Vec<&str> = text.lines().collect();
            let well_formed = lines.iter().all(|l| {
                Value::parse(l).is_ok_and(|v| v.get("level").is_some() && v.get("kind").is_some())
            });
            (lines.len(), well_formed)
        })
        .unwrap_or((0, false));
    checks.push(Check {
        name: "event_log_jsonl",
        ok: log_lines.0 > 0 && log_lines.1,
        detail: format!(
            "{EVENT_LOG}: {} leveled JSONL events{}",
            log_lines.0,
            if log_lines.1 {
                ""
            } else {
                " (malformed lines)"
            }
        ),
    });

    let _ = std::fs::remove_dir_all(&dir);
    PhaseA {
        checks,
        rows,
        fleet,
        trace: tv,
    }
}

/// Phase B: kill the server mid-flight, restart on the same journal,
/// and require every acked job to come back and finish.
struct PhaseB {
    checks: Vec<Check>,
    rows: Vec<JobRow>,
    recovery: Value,
}

fn phase_b(smoke: bool) -> PhaseB {
    let steps = if smoke { 3_000 } else { 10_000 };
    let dir = scratch_dir("recovery");
    let config = || ServerConfig {
        journal_dir: dir.clone(),
        ensemble: EnsembleConfig {
            rank_budget: RECOVERY_RANK_BUDGET,
            queue_capacity: 64,
            ..EnsembleConfig::default()
        },
        ..ServerConfig::default()
    };

    let server = AgcmServer::start(config()).expect("phase B server starts");
    let addr = server.local_addr();
    eprintln!("serve: phase B listening on {addr}");
    let mut ids = Vec::new();
    for i in 0..RECOVERY_JOBS {
        ids.push(
            accepted_id(
                &post_job(
                    addr,
                    Some("alice"),
                    &job_body(&format!("r{i}"), 2, steps, 500),
                )
                .unwrap(),
            )
            .expect("recovery job admits"),
        );
    }
    let first_running = wait_state(addr, ids[0], "running", 30);
    eprintln!("serve: phase B first job running: {first_running:?}, aborting");
    // Kill: the journal is detached before teardown, so the cancel wave
    // of the dying ensemble records no terminals — exactly what a
    // SIGKILL mid-run leaves on disk.
    server.abort();

    let server = AgcmServer::start(config()).expect("phase B server restarts");
    let addr = server.local_addr();
    let recovery = server.recovery().clone();
    eprintln!("serve: restarted, recovery: {recovery:?}");

    let mut failures = Vec::new();
    if let Err(e) = &first_running {
        failures.push(e.clone());
    }
    let mut rows = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let done = wait_state(addr, id, "completed", 180);
        eprintln!("serve: recovered job {id}: {done:?}");
        if let Err(e) = &done {
            failures.push(e.clone());
        }
        rows.push(JobRow {
            name: format!("r{i}"),
            tenant: "alice",
            ranks: 2,
            outcome: if done.is_ok() {
                "completed (after restart)"
            } else {
                "TIMED OUT"
            }
            .into(),
        });
    }

    let accounted = recovery.requeued + recovery.resumed == RECOVERY_JOBS
        && recovery.resumed >= 1
        && recovery.corrupt_lines == 0
        && recovery.unrecoverable == 0;
    let checks = vec![Check {
        name: "journal_recovery",
        ok: accounted && failures.is_empty(),
        detail: format!(
            "{} requeued + {} resumed of {RECOVERY_JOBS} killed jobs ({} corrupt lines); {}",
            recovery.requeued,
            recovery.resumed,
            recovery.corrupt_lines,
            if failures.is_empty() {
                "all completed after restart".to_string()
            } else {
                format!("failures: {failures:?}")
            }
        ),
    }];

    let recovery_json = Value::obj(vec![
        ("journal_lines", Value::Num(recovery.journal_lines as f64)),
        ("corrupt_lines", Value::Num(recovery.corrupt_lines as f64)),
        ("requeued", Value::Num(recovery.requeued as f64)),
        ("resumed", Value::Num(recovery.resumed as f64)),
        (
            "already_terminal",
            Value::Num(recovery.already_terminal as f64),
        ),
        ("unrecoverable", Value::Num(recovery.unrecoverable as f64)),
    ]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    PhaseB {
        checks,
        rows,
        recovery: recovery_json,
    }
}

/// Run both phases and assemble the report.
pub fn run_serve(smoke: bool) -> ServeReport {
    let a = phase_a(smoke);
    let b = phase_b(smoke);

    let mut table = Table::new(
        format!(
            "Serving smoke: {} tenant jobs on {} ranks + {} killed-and-recovered jobs on {}",
            a.rows.len(),
            RANK_BUDGET,
            b.rows.len(),
            RECOVERY_RANK_BUDGET
        ),
        &["Job", "Tenant", "Ranks", "Outcome"],
    );
    for r in a.rows.iter().chain(&b.rows) {
        table.add_row(vec![
            r.name.clone(),
            r.tenant.to_string(),
            r.ranks.to_string(),
            r.outcome.clone(),
        ]);
    }

    let mut checks = Checks::default();
    checks.extend(a.checks);
    checks.extend(b.checks);
    let doc = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                ("smoke", Value::Bool(smoke)),
                ("rank_budget", Value::Num(RANK_BUDGET as f64)),
                (
                    "recovery_rank_budget",
                    Value::Num(RECOVERY_RANK_BUDGET as f64),
                ),
                ("recovery_jobs", Value::Num(RECOVERY_JOBS as f64)),
            ]),
        ),
        ("fleet", a.fleet),
        ("trace", a.trace),
        ("recovery", b.recovery),
        ("checks", checks.to_json()),
    ]);

    ServeReport { table, doc, checks }
}
