//! End-to-end tests over a real TCP socket: submission, status, results,
//! tenant quotas, cancellation, malformed bodies, and kill-and-restart
//! journal recovery.

use agcm_ensemble::{EnsembleConfig, TenantPolicy, TenantQuota};
use agcm_server::client::{get, post_job, request, ClientResponse};
use agcm_server::{AgcmServer, ServerConfig};
use agcm_telemetry::json::Value;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(journal: PathBuf, ensemble: EnsembleConfig) -> ServerConfig {
    ServerConfig {
        journal_dir: journal,
        ensemble,
        ..ServerConfig::default()
    }
}

fn job_body(name: &str, mesh_lon: usize, steps: usize) -> String {
    format!(
        "{{\"name\":\"{name}\",\"grid\":{{\"lon\":24,\"lat\":12,\"lev\":2}},\
         \"mesh\":{{\"lat\":1,\"lon\":{mesh_lon}}},\"steps\":{steps}}}"
    )
}

fn delete_job(addr: SocketAddr, id: u64) -> ClientResponse {
    request(addr, "DELETE", &format!("/v1/jobs/{id}"), &[], None).unwrap()
}

fn submitted_id(resp: &ClientResponse) -> u64 {
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    resp.json().get("id").unwrap().as_f64().unwrap() as u64
}

fn wait_for_state(addr: SocketAddr, id: u64, state: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let v = resp.json();
        if v.get("state").unwrap().as_str().unwrap() == state {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state}: {}",
            resp.body
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_poll_and_fetch_result() {
    let dir = temp_dir("basic");
    let events = dir.with_extension("events.jsonl");
    let _ = std::fs::remove_file(&events);
    let server = AgcmServer::start(ServerConfig {
        event_log: Some(events.clone()),
        ..server_config(dir.clone(), EnsembleConfig::default())
    })
    .unwrap();
    let addr = server.local_addr();

    let health = get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(matches!(health.json().get("ok"), Some(Value::Bool(true))));
    // A healthy journal is not degraded, on either surface.
    let journal = health.json().get("journal").cloned().unwrap();
    assert_eq!(journal.get("degraded"), Some(&Value::Bool(false)));
    let prom = get(addr, "/metrics").unwrap();
    assert!(
        prom.body.lines().any(|l| l == "journal_degraded 0"),
        "{}",
        prom.body
    );

    let id = submitted_id(&post_job(addr, None, &job_body("basic", 2, 4)).unwrap());
    let done = wait_for_state(addr, id, "completed");
    assert_eq!(done.get("attempts").unwrap().as_f64(), Some(1.0));
    assert_eq!(done.get("ranks").unwrap().as_f64(), Some(2.0));

    // Result carries the virtual-time summary.
    let result = get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200, "body: {}", result.body);
    let summary = result.json();
    assert_eq!(summary.get("state").unwrap().as_str(), Some("completed"));
    assert!(
        summary.get("summary").unwrap().get("makespan").is_some()
            || summary.get("summary").unwrap().as_obj().is_some(),
        "summary should be a populated object: {}",
        result.body
    );

    // Metrics expose fleet and per-endpoint data.
    let metrics = get(addr, "/v1/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let m = metrics.json();
    assert_eq!(
        m.get("fleet")
            .unwrap()
            .get("jobs_completed")
            .and_then(Value::as_f64),
        Some(1.0)
    );
    assert!(m.get("server").is_some());
    // Each cold shard put names its chunk files, and the store counts them.
    let store = m.get("store").unwrap();
    let puts = store.get("puts").and_then(Value::as_f64).unwrap();
    let files = store
        .get("chunk_files_written")
        .and_then(Value::as_f64)
        .unwrap();
    assert!(
        puts > 0.0 && files >= puts,
        "{files} chunk files for {puts} puts"
    );
    // The field-storage recycle list reports beside them (this job's
    // fields are too small to pass through it), within its bound.
    let fields = m.get("fields").unwrap();
    let count = |k: &str| fields.get(k).and_then(Value::as_f64).unwrap();
    for k in ["hits", "misses", "evictions"] {
        assert!(count(k) >= 0.0, "{k}");
    }
    assert!(count("retained_bytes") <= count("high_water_bytes"));

    server.shutdown();
    // The event log is JSONL of leveled events: recovery, dispatch and
    // terminal lines at the default level.
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.lines().count() >= 1, "event log is empty");
    for line in log.lines() {
        let event = Value::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(event.get("level").is_some(), "no level: {line}");
        assert!(event.get("kind").is_some(), "no kind: {line}");
    }
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_store_counter_is_also_a_prometheus_gauge() {
    let dir = temp_dir("store-gauges");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();
    let id = submitted_id(&post_job(addr, None, &job_body("gauges", 1, 2)).unwrap());
    wait_for_state(addr, id, "completed");

    let m = get(addr, "/v1/metrics").unwrap().json();
    let keys: Vec<&str> = m
        .get("store")
        .and_then(Value::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    // Clients read this object by key (the benchmark reads the prefix
    // counters): its keys and their order are part of the API.
    assert_eq!(
        keys,
        [
            "chunks",
            "live_bytes",
            "manifests",
            "lineages",
            "leased_lineages",
            "bytes_ingested",
            "bytes_written",
            "bytes_deduped",
            "shard_dedup_hits",
            "prefix_hits",
            "prefix_misses",
            "gc_runs",
            "chunks_reclaimed",
            "bytes_reclaimed",
            "orphans_swept",
            "puts",
            "chunk_files_written",
            "put_seconds",
            "lock_wait_seconds",
            "fsync_seconds",
        ]
    );

    let prom = get(addr, "/metrics").unwrap();
    assert_eq!(prom.status, 200);
    agcm_telemetry::prom::validate(&prom.body).expect("exposition parses");
    for key in keys {
        let gauge = format!("# TYPE store_{key} gauge");
        assert!(
            prom.body.lines().any(|l| l == gauge),
            "/metrics lacks store_{key}"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiled_job_serves_profile_and_skew_over_http() {
    let dir = temp_dir("profile");
    let cfg = ServerConfig {
        profile: true,
        ..server_config(dir.clone(), EnsembleConfig::default())
    };
    let server = AgcmServer::start(cfg).unwrap();
    let addr = server.local_addr();

    let id = submitted_id(&post_job(addr, None, &job_body("profiled", 2, 6)).unwrap());
    wait_for_state(addr, id, "completed");

    let resp = get(addr, &format!("/v1/jobs/{id}/profile")).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let v = resp.json();
    assert_eq!(v.get("job").unwrap().as_f64(), Some(id as f64));
    assert!(v.get("trace").is_some(), "profile links its trace id");
    let profile = v.get("data").unwrap().get("profile").unwrap();
    let total = profile.get("total_nanos").unwrap().as_f64().unwrap();
    let folded_sum: f64 = profile
        .get("stacks")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("nanos").unwrap().as_f64().unwrap())
        .sum();
    assert!(total > 0.0);
    assert_eq!(folded_sum, total, "wall conservation over HTTP");
    let skew = v.get("data").unwrap().get("skew").unwrap();
    let rows = skew.get("rows").unwrap().as_arr().unwrap();
    assert!(!rows.is_empty(), "skew report has per-phase rows");

    // Unknown job: not_found, not a profile-specific error.
    let missing = get(addr, "/v1/jobs/999999/profile").unwrap();
    assert_eq!(missing.status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_is_404_when_profiling_is_disabled() {
    let dir = temp_dir("profile-off");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    let id = submitted_id(&post_job(addr, None, &job_body("plain", 1, 2)).unwrap());
    wait_for_state(addr, id, "completed");
    let resp = get(addr, &format!("/v1/jobs/{id}/profile")).unwrap();
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert_eq!(
        resp.json().get("error").unwrap().as_str(),
        Some("no_profile")
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_routes_and_methods() {
    let dir = temp_dir("routes");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    assert_eq!(get(addr, "/nope").unwrap().status, 404);
    assert_eq!(
        request(addr, "PUT", "/v1/jobs", &[], Some("{}"))
            .unwrap()
            .status,
        405
    );
    assert_eq!(get(addr, "/v1/jobs/999").unwrap().status, 404);
    assert_eq!(get(addr, "/v1/jobs/not-a-number").unwrap().status, 400);
    assert_eq!(delete_job(addr, 999).status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_bodies_are_typed_400s() {
    let dir = temp_dir("badbody");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    // Unterminated string → typed JSON error.
    let resp = post_job(addr, None, "{\"name\":\"unterminated").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.json().get("error").unwrap().as_str(),
        Some("bad_json_unterminated_string")
    );

    // Depth bomb → typed JSON error, bounded by max_json_depth.
    let bomb = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    let resp = post_job(addr, None, &bomb).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.json().get("error").unwrap().as_str(),
        Some("bad_json_too_deep")
    );

    // Valid JSON, invalid request → 400 with the field named.
    let resp = post_job(addr, None, "{\"name\":\"x\"}").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("grid"), "{}", resp.body);

    // Declared body over the HTTP limit → 413 before any parsing.
    let huge = format!(
        "{{\"name\":\"{}\"}}",
        "x".repeat(ServerConfig::default().limits.max_body + 10)
    );
    let resp = post_job(addr, None, &huge).unwrap();
    assert_eq!(resp.status, 413);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_bodies_under_the_size_limit_answer_promptly() {
    let dir = temp_dir("hostile");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();
    let limit = ServerConfig::default().limits.max_body;
    assert!(limit >= 256 * 1024);
    // 250 KiB in one string, then in some 25,000 short ones: each parses
    // whole, then is refused for the field it lacks.
    let mut long = String::new();
    while long.len() < 250 * 1024 {
        long.push_str("plain text, é and \\\\ escapes ");
    }
    let one = format!("{{\"name\":\"{long}\"}}");
    let many = format!(
        "{{\"name\":\"x\",\"tags\":[{}\"end\"]}}",
        "\"tag\",".repeat(250 * 1024 / 6)
    );
    for (what, body) in [("one string", one), ("many strings", many)] {
        assert!(body.len() > 250 * 1024 && body.len() < limit, "{what}");
        let started = Instant::now();
        let resp = post_job(addr, None, &body).unwrap();
        let took = started.elapsed();
        println!(
            "{what}: {} KiB body answered in {took:?}",
            body.len() / 1024
        );
        assert_eq!(resp.status, 400, "{what}: {}", resp.body);
        assert_eq!(
            resp.json().get("error").unwrap().as_str(),
            Some("bad_request")
        );
        assert!(took < Duration::from_secs(2), "{what} took {took:?}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_and_strict_policy() {
    let dir = temp_dir("tenants");
    let tenancy = TenantPolicy::default()
        .with_tenant(
            "mallory",
            TenantQuota {
                max_in_flight: 1,
                ..TenantQuota::default()
            },
        )
        .with_tenant(
            "alice",
            TenantQuota {
                weight: 2.0,
                ..TenantQuota::default()
            },
        )
        .with_tenant("bob", TenantQuota::default());
    // Strict: only the three named tenants are known.
    let ensemble = EnsembleConfig {
        rank_budget: 4,
        tenancy: Some(tenancy),
        ..EnsembleConfig::default()
    };
    let server = AgcmServer::start(server_config(dir.clone(), ensemble)).unwrap();
    let addr = server.local_addr();

    // First job admitted; second bounces 429 while the first is in flight.
    let id = submitted_id(&post_job(addr, Some("mallory"), &job_body("m1", 1, 200)).unwrap());
    let resp = post_job(addr, Some("mallory"), &job_body("m2", 1, 1)).unwrap();
    assert_eq!(resp.status, 429, "body: {}", resp.body);
    assert_eq!(
        resp.json().get("error").unwrap().as_str(),
        Some("quota_exceeded")
    );

    // Unknown tenant (strict policy) → 403.
    let resp = post_job(addr, Some("eve"), &job_body("e1", 1, 1)).unwrap();
    assert_eq!(resp.status, 403, "body: {}", resp.body);
    assert_eq!(
        resp.json().get("error").unwrap().as_str(),
        Some("unknown_tenant")
    );
    // Anonymous is unknown under strict, too.
    assert_eq!(
        post_job(addr, None, &job_body("a1", 1, 1)).unwrap().status,
        403
    );

    // A weight-2 tenant and a default-quota tenant race three jobs each
    // on the 4-rank budget; every admitted job completes.
    let race = |tenant: &'static str, ranks: usize| {
        std::thread::spawn(move || {
            (0..3)
                .map(|i| {
                    let body = job_body(&format!("{tenant}-{i}"), ranks, 4);
                    submitted_id(&post_job(addr, Some(tenant), &body).unwrap())
                })
                .collect::<Vec<_>>()
        })
    };
    let (alice, bob) = (race("alice", 1), race("bob", 2));
    let raced: Vec<u64> = [alice, bob]
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    for &raced_id in &raced {
        wait_for_state(addr, raced_id, "completed");
    }

    wait_for_state(addr, id, "completed");
    // Quota freed: mallory can submit again.
    let id2 = submitted_id(&post_job(addr, Some("mallory"), &job_body("m3", 1, 1)).unwrap());
    wait_for_state(addr, id2, "completed");

    // The fleet never ran more ranks than the budget, and every POST
    // above (admitted or not) was counted and timed.
    let m = get(addr, "/v1/metrics").unwrap().json();
    let busy_peak = m
        .get("fleet")
        .and_then(|f| f.get("ranks_busy_peak"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(
        busy_peak > 0.0 && busy_peak <= 4.0,
        "peak {busy_peak} ranks"
    );
    let server_metrics = m.get("server").unwrap();
    let counter = |name: &str| {
        server_metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let posts_made = 5 + raced.len();
    let posts = counter("http.requests.post_jobs");
    assert!(posts >= posts_made as f64, "{posts} of {posts_made} POSTs");
    let timed = server_metrics
        .get("histograms")
        .and_then(|h| h.get("http.latency_seconds.post_jobs"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(timed >= posts, "{timed} latency samples for {posts} POSTs");
    assert!(counter("tenant.mallory.rejected") >= 1.0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_cancels_a_running_job() {
    let dir = temp_dir("cancel");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    // Long job: 20k steps will not finish before the DELETE lands.
    let id = submitted_id(&post_job(addr, None, &job_body("victim", 1, 20000)).unwrap());
    wait_for_state(addr, id, "running");
    let resp = delete_job(addr, id);
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let done = wait_for_state(addr, id, "cancelled(explicit)");
    assert_eq!(
        done.get("state").unwrap().as_str(),
        Some("cancelled(explicit)")
    );

    // Result for a cancelled job → 200 with null summary? No: the job is
    // terminal, result reports its state with no summary payload.
    let result = get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200);
    assert!(matches!(result.json().get("summary"), Some(Value::Null)));

    // Cancelling again → 409 with the terminal record.
    assert_eq!(delete_job(addr, id).status, 409);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_and_restart_recovers_queued_and_running_jobs() {
    let dir = temp_dir("recovery");
    // Rank budget 1 serializes dispatch: one job runs, the rest queue.
    let ensemble = EnsembleConfig {
        rank_budget: 1,
        ..EnsembleConfig::default()
    };
    let server = AgcmServer::start(server_config(dir.clone(), ensemble.clone())).unwrap();
    let addr = server.local_addr();

    // The first job runs long enough not to finish before the abort and
    // commits a checkpoint every 10 steps; the three behind it queue.
    let long = "{\"name\":\"r0\",\"grid\":{\"lon\":24,\"lat\":12,\"lev\":2},\
                \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":1500,\"checkpoint_every\":10}";
    let mut ids = vec![submitted_id(&post_job(addr, Some("alice"), long).unwrap())];
    for i in 1..4 {
        ids.push(submitted_id(
            &post_job(addr, Some("alice"), &job_body(&format!("r{i}"), 1, 4)).unwrap(),
        ));
    }
    wait_for_state(addr, ids[0], "running");
    // A second shard put means the step-10 checkpoint is committed.
    let puts = || {
        let m = get(addr, "/v1/metrics").unwrap().json();
        m.get("store").unwrap().get("puts").and_then(Value::as_f64)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while puts() < Some(2.0) {
        assert!(Instant::now() < deadline, "no checkpoint committed");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.abort(); // crash: journal detached, nothing marked terminal

    // Restart on the same journal directory.
    let server = AgcmServer::start(server_config(dir.clone(), ensemble)).unwrap();
    let addr = server.local_addr();
    let recovery = server.recovery().clone();
    assert_eq!(
        recovery.requeued + recovery.resumed,
        4,
        "all four jobs recovered: {recovery:?}"
    );
    assert!(
        recovery.resumed >= 1,
        "the running job resumes: {recovery:?}"
    );
    assert_eq!(recovery.corrupt_lines, 0);
    assert_eq!(recovery.unrecoverable, 0, "{recovery:?}");

    // Recovered jobs keep their durable ids and are pollable.
    for &id in &ids {
        let resp = get(addr, &format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(resp.status, 200, "job {id} survives restart: {}", resp.body);
    }
    // healthz reports the same recovery counters.
    let health = get(addr, "/healthz").unwrap().json();
    assert_eq!(
        health
            .get("recovery")
            .unwrap()
            .get("requeued")
            .and_then(Value::as_f64)
            .unwrap()
            + health
                .get("recovery")
                .unwrap()
                .get("resumed")
                .and_then(Value::as_f64)
                .unwrap(),
        4.0
    );

    // Every recovered job runs to completion, and the one that was
    // running resumes from its committed checkpoint, not from step 0.
    for &id in &ids {
        wait_for_state(addr, id, "completed");
    }
    let resumed = get(addr, &format!("/v1/jobs/{}", ids[0])).unwrap().json();
    let from = resumed.get("resumed_from").and_then(Value::as_f64);
    assert!(
        from.is_some_and(|step| step >= 10.0),
        "running job resumed from {from:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_ids_are_never_reused_across_restarts() {
    let dir = temp_dir("idreuse");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();
    let first = submitted_id(&post_job(addr, None, &job_body("one", 1, 2)).unwrap());
    wait_for_state(addr, first, "completed");
    server.shutdown();

    // First restart compacts the terminal job away; a second restart
    // must still know the high-water mark — without the journal's
    // watermark record this reseeded the counter and handed job `first`'s
    // id (and its checkpoint directory) to the next submission.
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    server.shutdown();
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();
    let next = submitted_id(&post_job(addr, None, &job_body("two", 1, 2)).unwrap());
    assert!(
        next > first,
        "durable id {next} reuses or precedes {first} after two restarts"
    );
    wait_for_state(addr, next, "completed");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_do_not_hang_shutdown() {
    let dir = temp_dir("idle");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    // A client that connects and sends nothing: its handler blocks in
    // read_request until shutdown force-closes the socket.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(get(addr, "/healthz").unwrap().status, 200);

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on an idle connection");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connections_beyond_the_cap_get_503() {
    let dir = temp_dir("conncap");
    let server = AgcmServer::start(ServerConfig {
        max_connections: 1,
        ..server_config(dir.clone(), EnsembleConfig::default())
    })
    .unwrap();
    let addr = server.local_addr();

    // One idle connection occupies the only slot...
    let hog = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // ...so the next connection is turned away with a typed 503 without
    // having to send a byte (the server answers and closes on accept).
    let mut turned_away = std::net::TcpStream::connect(addr).unwrap();
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut turned_away, &mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("overloaded"), "{raw}");

    // Freeing the slot restores service.
    drop(hog);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(get(addr, "/healthz").unwrap().status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_metric_keys_are_bounded_to_the_policy() {
    let dir = temp_dir("tenantmetrics");
    let tenancy = TenantPolicy::default().with_tenant("mallory", TenantQuota::default());
    let ensemble = EnsembleConfig {
        tenancy: Some(tenancy),
        ..EnsembleConfig::default()
    };
    let server = AgcmServer::start(server_config(dir.clone(), ensemble)).unwrap();
    let addr = server.local_addr();

    // Unknown tenants (strict policy) are rejected — and must NOT mint
    // their own metric keys, or a hostile client could grow the registry
    // without bound one header value at a time.
    for name in ["eve", "eve2", "dotted.name with spaces"] {
        assert_eq!(
            post_job(addr, Some(name), &job_body("e", 1, 1))
                .unwrap()
                .status,
            403
        );
    }
    let id = submitted_id(&post_job(addr, Some("mallory"), &job_body("m", 1, 2)).unwrap());
    wait_for_state(addr, id, "completed");

    let counters = get(addr, "/v1/metrics").unwrap().json();
    let counters = counters
        .get("server")
        .unwrap()
        .get("counters")
        .unwrap()
        .clone();
    assert_eq!(
        counters
            .get("tenant.other.rejected")
            .and_then(Value::as_f64),
        Some(3.0),
        "unknown tenants bucket under 'other'"
    );
    assert_eq!(
        counters
            .get("tenant.mallory.submitted")
            .and_then(Value::as_f64),
        Some(1.0),
        "policy-named tenants keep their own key"
    );
    for leaked in ["tenant.eve.rejected", "tenant.eve2.rejected"] {
        assert!(
            counters.get(leaked).is_none(),
            "client-controlled metric key {leaked} leaked into the registry"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_links_submit_journal_attempts_and_phases() {
    let dir = temp_dir("trace");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();

    // The 202 ack carries the trace context minted at the edge.
    let resp = post_job(addr, Some("alice"), &job_body("traced", 2, 4)).unwrap();
    let id = submitted_id(&resp);
    let trace = resp
        .json()
        .get("trace")
        .and_then(Value::as_str)
        .expect("submit ack carries the trace context")
        .to_string();
    let root = agcm_telemetry::TraceContext::parse(&trace).expect("ack trace parses");
    wait_for_state(addr, id, "completed");

    // The live trace view links back to the same trace id and shows the
    // attempt span tree plus per-rank phase breakdown.
    let view = get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
    assert_eq!(view.status, 200, "body: {}", view.body);
    let v = view.json();
    assert_eq!(
        v.get("trace").and_then(Value::as_str),
        Some(root.trace_hex().as_str()),
        "trace id must link ack to live view: {}",
        view.body
    );
    let attempts = v.get("attempts").and_then(Value::as_arr).unwrap();
    assert!(!attempts.is_empty(), "at least one attempt span");
    for attempt in attempts {
        assert_eq!(
            attempt.get("parent").and_then(Value::as_str),
            Some(root.span_hex().as_str()),
            "attempt spans are children of the request's root span"
        );
    }
    assert_eq!(
        v.get("phase_domain").and_then(Value::as_str),
        Some("virtual")
    );
    let phases = v.get("phases").and_then(Value::as_obj).unwrap();
    assert!(!phases.is_empty(), "phase breakdown present: {}", view.body);

    // live_view_consistent: the finished job's live phase totals are the
    // post-hoc summary's phase_seconds, bit for bit.
    let result = get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    let summary_phases = result.json();
    let summary_phases = summary_phases
        .get("summary")
        .unwrap()
        .get("phase_seconds")
        .and_then(Value::as_obj)
        .expect("summary has phase_seconds")
        .to_vec();
    assert_eq!(phases.len(), summary_phases.len(), "same phase set");
    for (name, secs) in &summary_phases {
        let live = phases
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("phase {name} missing from live view"));
        let want = secs.as_f64().unwrap();
        assert_eq!(
            live.to_bits(),
            want.to_bits(),
            "phase {name}: live {live} != summary {want}"
        );
    }

    // The list endpoint sees the job, with tenant filtering.
    let list = get(addr, "/v1/jobs").unwrap().json();
    assert_eq!(list.get("count").and_then(Value::as_f64), Some(1.0));
    let list = get(addr, "/v1/jobs?tenant=alice").unwrap().json();
    let jobs = list.get("jobs").and_then(Value::as_arr).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("id").and_then(Value::as_f64), Some(id as f64));
    assert_eq!(
        jobs[0].get("trace").and_then(Value::as_str),
        Some(trace.as_str())
    );
    let list = get(addr, "/v1/jobs?tenant=nobody").unwrap().json();
    assert_eq!(list.get("count").and_then(Value::as_f64), Some(0.0));

    // The Prometheus endpoint parses as text exposition format.
    let prom = get(addr, "/metrics").unwrap();
    assert_eq!(prom.status, 200);
    let stats = agcm_telemetry::prom::validate(&prom.body).expect("exposition parses");
    assert!(stats.counters >= 1 && stats.gauges >= 1 && stats.histograms >= 1);
    assert!(prom.body.contains("store_chunk_files_written"));
    assert!(prom.body.contains("fields_retained_bytes"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_id_survives_kill_and_restart() {
    let dir = temp_dir("tracerestart");
    let ensemble = EnsembleConfig {
        rank_budget: 1,
        ..EnsembleConfig::default()
    };
    let server = AgcmServer::start(server_config(dir.clone(), ensemble.clone())).unwrap();
    let addr = server.local_addr();
    let resp = post_job(addr, None, &job_body("crashy", 1, 5000)).unwrap();
    let id = submitted_id(&resp);
    let trace = resp
        .json()
        .get("trace")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    wait_for_state(addr, id, "running");
    server.abort(); // crash

    // The restarted server re-attaches the journaled trace context: the
    // resumed job keeps its trace id, so a tracing backend sees one
    // trace spanning the crash.
    let server = AgcmServer::start(server_config(dir.clone(), ensemble)).unwrap();
    let addr = server.local_addr();
    let root = agcm_telemetry::TraceContext::parse(&trace).unwrap();
    let view = get(addr, &format!("/v1/jobs/{id}/trace")).unwrap();
    assert_eq!(view.status, 200, "body: {}", view.body);
    assert_eq!(
        view.json().get("trace").and_then(Value::as_str),
        Some(root.trace_hex().as_str()),
        "trace id must survive the crash: {}",
        view.body
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slo_burn_counters_accumulate_under_bounded_labels() {
    let dir = temp_dir("slo");
    let cfg = ServerConfig {
        // Impossible objectives: every completed job burns both budgets.
        slo: Some(agcm_server::SloPolicy::uniform(0.0, 0.0)),
        ..server_config(dir.clone(), EnsembleConfig::default())
    };
    let server = AgcmServer::start(cfg).unwrap();
    let addr = server.local_addr();
    let id = submitted_id(&post_job(addr, None, &job_body("burner", 1, 2)).unwrap());
    wait_for_state(addr, id, "completed");

    let m = get(addr, "/v1/metrics").unwrap().json();
    let counters = m.get("server").unwrap().get("counters").unwrap().clone();
    assert_eq!(
        counters
            .get("slo.anonymous.queue_burn")
            .and_then(Value::as_f64),
        Some(1.0),
        "queue SLO burn counted: {counters:?}"
    );
    assert_eq!(
        counters
            .get("slo.anonymous.latency_burn")
            .and_then(Value::as_f64),
        Some(1.0),
        "latency SLO burn counted"
    );
    assert!(m.get("slo").is_some(), "objectives surfaced in /v1/metrics");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_does_not_resurrect_finished_jobs() {
    let dir = temp_dir("graceful");
    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let addr = server.local_addr();
    let id = submitted_id(&post_job(addr, None, &job_body("done", 1, 2)).unwrap());
    wait_for_state(addr, id, "completed");
    server.shutdown();

    let server = AgcmServer::start(server_config(dir.clone(), EnsembleConfig::default())).unwrap();
    let recovery = server.recovery().clone();
    assert_eq!(recovery.requeued + recovery.resumed, 0, "{recovery:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
