//! The `reproduce store` report: the fleet-wide content-addressed
//! checkpoint store exercised end to end through the ensemble scheduler.
//!
//! One shared [`Store`] backs five jobs submitted in sequence:
//!
//! - **cold** seeds its lineage's prefix (every step paid for);
//! - **resubmit** is bit-identical to cold, so it resumes at the full
//!   horizon and recomputes nothing;
//! - **extend** runs the same trajectory to a longer horizon and only
//!   pays for the extension beyond cold's last commit;
//! - **twin** differs only in an inert balancing knob: its lineage hash
//!   is different (lineage is deliberately conservative), but every
//!   checkpoint byte it ingests already sits in the store, so content
//!   addressing recovers the sharing that lineage hashing gave up;
//! - **live** is a genuinely different trajectory whose lineage is
//!   re-leased after the fleet drains, standing in for a running job
//!   while GC reclaims everything terminal around it.
//!
//! Three machine-checked invariants land in `store.json` (CI greps the
//! grep-stable `name:ok` lines): `prefix_reuse` (resume steps and
//! bit-identity against solo `run_model` baselines), `dedup_verified`
//! (stored bytes strictly under ingested bytes), and `gc_safe` (GC
//! reclaims only unleased lineages and a final sweep drains the store).

use crate::analyze::{Check, Checks};
use agcm_ckptstore::Store;
use agcm_core::{run_model, AgcmConfig, RankOutcome, Table};
use agcm_ensemble::{Ensemble, EnsembleConfig, JobRecord, JobSpec, JobStatus, JobView};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use agcm_telemetry::json::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ranks per job (the mesh is 1×2 on the 24×12×2 smoke grid).
pub const RANKS: usize = 2;

/// The full store report.
pub struct StoreReport {
    /// Per-job provenance table for the terminal output.
    pub table: Table,
    /// What the durable layer cost: puts, their wall time, and the
    /// shares spent waiting for the store's lock and in fsync.
    pub cost: Table,
    /// The `store.json` document.
    pub doc: Value,
    /// Machine-checkable invariants.
    pub checks: Checks,
}

/// The shared trajectory every reusing job walks.
fn config(steps: usize, every: usize) -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(24, 12, 2), 1, RANKS, FilterVariant::LbFft)
        .with_steps(steps)
        .with_checkpointing(every)
}

/// Block until `id` is terminal and completed, then return its record.
fn wait_done(ensemble: &Ensemble, id: u64) -> JobRecord {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match ensemble.status(id) {
            Some(JobView::Done(record)) => {
                assert_eq!(record.status, JobStatus::Completed, "job {id} completes");
                return *record;
            }
            _ => {
                assert!(Instant::now() < deadline, "job {id} should finish");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Does a terminal record carry exactly this solo outcome, bit for bit?
fn matches_solo(record: &JobRecord, solo: &[RankOutcome]) -> bool {
    record.outcome.as_deref() == Some(solo)
}

/// Run the scenario and assemble the report.
pub fn run_store(smoke: bool) -> StoreReport {
    let (base, ext, every) = if smoke { (8, 12, 2) } else { (40, 56, 4) };

    let dir = PathBuf::from("journal").join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(dir.join("store")).expect("store opens"));
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: RANKS,
        ..EnsembleConfig::default()
    });

    // Solo baselines: the reuse paths must reproduce these bit for bit.
    let solo_base = run_model(config(base, every));
    let solo_ext = run_model(config(ext, every));

    // The twin differs only in a knob that is inert while physics
    // balancing is off: new lineage, identical trajectory.
    let mut twin_cfg = config(base, every);
    twin_cfg.balance_rounds += 1;
    // The live job is a genuinely different trajectory.
    let live_cfg = config(base, every).with_physics_balancing();

    let submit = |name: &str, cfg: AgcmConfig| {
        let id = ensemble
            .try_submit(JobSpec::new(name, cfg).with_shared_store(Arc::clone(&store)))
            .expect("queue admits");
        wait_done(&ensemble, id)
    };
    let cold = submit("cold", config(base, every));
    let resubmit = submit("resubmit", config(base, every));
    let extend = submit("extend", config(ext, every));
    let twin = submit("twin", twin_cfg);
    let live = submit("live", live_cfg);
    ensemble.join();

    let mut checks = Checks::default();

    // --- prefix_reuse: resume provenance + bit-identity ---------------
    let lineage = config(base, every).lineage();
    let cold_ok = cold.resumed_from.is_none()
        && cold.lineage == Some(lineage)
        && matches_solo(&cold, &solo_base.ranks);
    let resubmit_ok = resubmit.resumed_from == Some(base as u64)
        && resubmit.outcome == cold.outcome
        && matches_solo(&resubmit, &solo_base.ranks);
    let extend_ok = extend.resumed_from == Some(base as u64)
        && extend.lineage == Some(lineage)
        && matches_solo(&extend, &solo_ext.ranks);
    // Twin and live walk other lineages: both are cold runs.
    let others_cold = twin.resumed_from.is_none() && live.resumed_from.is_none();
    checks.push(Check {
        name: "prefix_reuse",
        ok: cold_ok && resubmit_ok && extend_ok && others_cold,
        detail: format!(
            "resubmit resumed {:?}/{base} (0 recomputed), extension {:?}/{ext} \
             ({} recomputed of {ext}), outcomes bit-identical to solo runs: \
             cold {cold_ok}, resubmit {resubmit_ok}, extend {extend_ok}",
            resubmit.resumed_from,
            extend.resumed_from,
            ext - base,
        ),
    });

    // --- dedup_verified: stored bytes < sum of per-job bytes ----------
    // The twin's whole checkpoint stream is a byte-level duplicate of
    // cold's (inert knob, same trajectory), so content addressing must
    // store strictly less than the fleet ingested.
    let stats = store.stats();
    let twin_identical = twin.outcome == cold.outcome;
    let dedup_ok =
        twin_identical && stats.bytes_written < stats.bytes_ingested && stats.bytes_deduped > 0;
    checks.push(Check {
        name: "dedup_verified",
        ok: dedup_ok,
        detail: format!(
            "{} bytes ingested across jobs, {} written after chunk dedup \
             ({} deduped, {} shard-level hits); twin trajectory identical: {twin_identical}",
            stats.bytes_ingested, stats.bytes_written, stats.bytes_deduped, stats.shard_dedup_hits,
        ),
    });

    // --- gc_safe: reclaim terminals, never touch a live lease ---------
    // Re-lease the live job's lineage (as a still-running holder would)
    // and GC: everything terminal goes, the leased lineage survives and
    // its shards stay readable. Releasing and sweeping again drains the
    // store completely.
    let live_lineage = live.lineage.expect("store-backed job records lineage");
    let drained_leases = store.stats().leased_lineages == 0;
    store.acquire(live_lineage, u64::MAX);
    let report = store.gc().expect("gc succeeds");
    let reclaimed_terminals =
        report.lineages.contains(&lineage) && !report.lineages.contains(&live_lineage);
    let last_commit = store.committed_steps(live_lineage).last().copied();
    let live_readable = last_commit.is_some_and(|step| {
        (0..RANKS as u32).all(|rank| {
            store
                .get_shard(live_lineage, step, rank)
                .is_ok_and(|bytes| !bytes.is_empty())
        })
    });
    store.release(live_lineage, u64::MAX);
    let sweep = store.gc().expect("final gc succeeds");
    let final_stats = store.stats();
    let drained = final_stats.chunks == 0 && final_stats.live_bytes == 0;
    checks.push(Check {
        name: "gc_safe",
        ok: drained_leases && reclaimed_terminals && live_readable && drained,
        detail: format!(
            "terminal jobs left 0 leases: {drained_leases}; first GC reclaimed {} lineages / \
             {} chunks without the leased one: {reclaimed_terminals}; leased shards at step \
             {last_commit:?} stayed readable: {live_readable}; release + sweep ({} lineages) \
             drained to 0 chunks: {drained}",
            report.lineages.len(),
            report.chunks_reclaimed,
            sweep.lineages.len(),
        ),
    });

    let mut table = Table::new(
        format!(
            "Checkpoint store smoke: 5 jobs on {RANKS} ranks, horizons {base}/{ext}, \
             checkpoint every {every}"
        ),
        &["Job", "Lineage", "Resumed from", "Steps recomputed"],
    );
    let jobs = [&cold, &resubmit, &extend, &twin, &live];
    for r in jobs {
        let steps = if r.name == "extend" { ext } else { base };
        table.add_row(vec![
            r.name.clone(),
            r.lineage
                .map_or_else(|| "-".into(), |l| format!("{l:016x}")),
            r.resumed_from
                .map_or_else(|| "cold".into(), |s| s.to_string()),
            (steps as u64 - r.resumed_from.unwrap_or(0)).to_string(),
        ]);
    }

    let mut cost = Table::new(
        "Durable layer: cost of the session's shard puts",
        &[
            "Puts",
            "Bytes written",
            "Put ms (total)",
            "Lock wait ms",
            "Fsync ms",
        ],
    );
    cost.add_row(vec![
        final_stats.puts.to_string(),
        final_stats.bytes_written.to_string(),
        format!("{:.2}", final_stats.put_seconds * 1e3),
        format!("{:.2}", final_stats.lock_wait_seconds * 1e3),
        format!("{:.2}", final_stats.fsync_seconds * 1e3),
    ]);

    let job_json = |r: &JobRecord| {
        Value::obj(vec![
            ("name", Value::Str(r.name.clone())),
            (
                "lineage",
                r.lineage
                    .map_or(Value::Null, |l| Value::Str(format!("{l:016x}"))),
            ),
            (
                "resumed_from",
                r.resumed_from.map_or(Value::Null, |s| Value::Num(s as f64)),
            ),
        ])
    };
    let doc = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                ("smoke", Value::Bool(smoke)),
                ("steps_base", Value::Num(base as f64)),
                ("steps_extended", Value::Num(ext as f64)),
                ("checkpoint_every", Value::Num(every as f64)),
                ("ranks", Value::Num(RANKS as f64)),
            ]),
        ),
        (
            "store",
            Value::obj(vec![
                ("bytes_ingested", Value::Num(stats.bytes_ingested as f64)),
                ("bytes_written", Value::Num(stats.bytes_written as f64)),
                ("bytes_deduped", Value::Num(stats.bytes_deduped as f64)),
                (
                    "shard_dedup_hits",
                    Value::Num(stats.shard_dedup_hits as f64),
                ),
                ("prefix_hits", Value::Num(stats.prefix_hits as f64)),
                ("prefix_misses", Value::Num(stats.prefix_misses as f64)),
                (
                    "chunks_reclaimed",
                    Value::Num(final_stats.chunks_reclaimed as f64),
                ),
                (
                    "bytes_reclaimed",
                    Value::Num(final_stats.bytes_reclaimed as f64),
                ),
                ("final_chunks", Value::Num(final_stats.chunks as f64)),
                ("puts", Value::Num(final_stats.puts as f64)),
                ("put_seconds", Value::Num(final_stats.put_seconds)),
                (
                    "lock_wait_seconds",
                    Value::Num(final_stats.lock_wait_seconds),
                ),
                ("fsync_seconds", Value::Num(final_stats.fsync_seconds)),
            ]),
        ),
        (
            "jobs",
            Value::Arr(jobs.iter().map(|r| job_json(r)).collect()),
        ),
        ("checks", checks.to_json()),
    ]);

    let _ = std::fs::remove_dir_all(&dir);
    StoreReport {
        table,
        cost,
        doc,
        checks,
    }
}
