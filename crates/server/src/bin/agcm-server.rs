//! The `agcm-server` binary: serve AGCM jobs over HTTP.
//!
//! ```text
//! agcm-server [--addr 127.0.0.1:8420] [--journal DIR]
//!             [--rank-budget N] [--queue-capacity N]
//!             [--tenant NAME:IN_FLIGHT:RANKS:WEIGHT]...
//!             [--default-quota IN_FLIGHT:RANKS:WEIGHT | --strict]
//!             [--event-log PATH] [--event-log-rotate BYTES:KEEP]
//!             [--slo QUEUE_SECS:TOTAL_SECS] [--profile]
//! ```
//!
//! With `--tenant` and no `--default-quota`, unknown tenants still get
//! [`TenantQuota::default`]; add `--strict` to reject them with 403.
//! Without any tenancy flag, the scheduler runs single-tenant (no
//! quotas), exactly as the in-process ensemble does. `--event-log`
//! appends leveled JSONL events (level via `AGCM_LOG_LEVEL`), and
//! `--event-log-rotate` caps the file at BYTES, keeping KEEP rotated
//! generations; `--slo`
//! sets uniform queue-wait / end-to-end latency objectives whose burn
//! counters surface in both metrics endpoints. `--profile` folds every
//! completed job's trace into a wall-time profile, served at
//! `GET /v1/jobs/{id}/profile`.

use agcm_ensemble::{EnsembleConfig, TenantPolicy, TenantQuota};
use agcm_server::{AgcmServer, RotationPolicy, ServerConfig, SloPolicy};
use std::path::PathBuf;

fn parse_quota(text: &str) -> Result<TenantQuota, String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [in_flight, ranks, weight] = parts.as_slice() else {
        return Err(format!("expected IN_FLIGHT:RANKS:WEIGHT, got {text:?}"));
    };
    Ok(TenantQuota {
        max_in_flight: in_flight
            .parse()
            .map_err(|e| format!("bad in-flight cap {in_flight:?}: {e}"))?,
        max_running_ranks: ranks
            .parse()
            .map_err(|e| format!("bad rank cap {ranks:?}: {e}"))?,
        weight: weight
            .parse()
            .map_err(|e| format!("bad weight {weight:?}: {e}"))?,
    })
}

fn run() -> Result<(), String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:8420".to_string(),
        ..ServerConfig::default()
    };
    let mut tenants: Vec<(String, TenantQuota)> = Vec::new();
    let mut default_quota: Option<TenantQuota> = None;
    let mut strict = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = take("--addr")?,
            "--journal" => cfg.journal_dir = PathBuf::from(take("--journal")?),
            "--rank-budget" => {
                cfg.ensemble.rank_budget = take("--rank-budget")?
                    .parse()
                    .map_err(|e| format!("bad rank budget: {e}"))?;
            }
            "--queue-capacity" => {
                cfg.ensemble.queue_capacity = take("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("bad queue capacity: {e}"))?;
            }
            "--tenant" => {
                let spec = take("--tenant")?;
                let Some((name, quota)) = spec.split_once(':') else {
                    return Err(format!(
                        "expected NAME:IN_FLIGHT:RANKS:WEIGHT, got {spec:?}"
                    ));
                };
                tenants.push((name.to_string(), parse_quota(quota)?));
            }
            "--default-quota" => default_quota = Some(parse_quota(&take("--default-quota")?)?),
            "--strict" => strict = true,
            "--event-log" => cfg.event_log = Some(PathBuf::from(take("--event-log")?)),
            "--event-log-rotate" => {
                let spec = take("--event-log-rotate")?;
                let Some((bytes, keep)) = spec.split_once(':') else {
                    return Err(format!("expected BYTES:KEEP, got {spec:?}"));
                };
                cfg.event_log_rotation = Some(RotationPolicy {
                    max_bytes: bytes
                        .parse()
                        .map_err(|e| format!("bad byte cap {bytes:?}: {e}"))?,
                    keep: keep
                        .parse()
                        .map_err(|e| format!("bad generation count {keep:?}: {e}"))?,
                });
            }
            "--slo" => {
                let spec = take("--slo")?;
                let Some((queue, total)) = spec.split_once(':') else {
                    return Err(format!("expected QUEUE_SECS:TOTAL_SECS, got {spec:?}"));
                };
                cfg.slo = Some(SloPolicy::uniform(
                    queue
                        .parse()
                        .map_err(|e| format!("bad queue objective {queue:?}: {e}"))?,
                    total
                        .parse()
                        .map_err(|e| format!("bad latency objective {total:?}: {e}"))?,
                ));
            }
            "--profile" => cfg.profile = true,
            "--help" | "-h" => {
                println!(
                    "usage: agcm-server [--addr A] [--journal DIR] [--rank-budget N] \
                     [--queue-capacity N] [--tenant NAME:INFLIGHT:RANKS:WEIGHT]... \
                     [--default-quota INFLIGHT:RANKS:WEIGHT | --strict] \
                     [--event-log PATH] [--event-log-rotate BYTES:KEEP] \
                     [--slo QUEUE_SECS:TOTAL_SECS] [--profile]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    if !tenants.is_empty() || default_quota.is_some() || strict {
        cfg.ensemble.tenancy = Some(TenantPolicy {
            default_quota: if strict {
                None
            } else {
                Some(default_quota.unwrap_or_default())
            },
            tenants,
        });
    } else {
        cfg.ensemble = EnsembleConfig {
            tenancy: None,
            ..cfg.ensemble
        };
    }

    let server = AgcmServer::start(cfg).map_err(|e| format!("failed to start: {e}"))?;
    let recovery = server.recovery();
    eprintln!(
        "agcm-server listening on {} (journal recovery: {} requeued, {} resumed, {} corrupt lines)",
        server.local_addr(),
        recovery.requeued,
        recovery.resumed,
        recovery.corrupt_lines
    );
    // Serve until the process is killed; the journal makes that safe.
    loop {
        std::thread::park();
    }
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("agcm-server: {msg}");
        std::process::exit(2);
    }
}
