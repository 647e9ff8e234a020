//! The `reproduce ensemble` report: the paper's scaling sweep replayed as
//! a *batch serving* workload.
//!
//! The paper times one model per dedicated processor mesh. This report
//! submits the same mixed-size sweep — plus a deadline-doomed job and a
//! fault-injected job — to the [`agcm_ensemble`] scheduler on a rank
//! budget *smaller* than the sum of the jobs' mesh sizes, then verifies
//! the serving properties end to end:
//!
//! - every completed job's per-rank results are **bit-identical** to a
//!   solo `run_model` of the same configuration,
//! - a deadline-expired job cancels its whole world and reports
//!   `Cancelled(Deadline)` without poisoning later jobs,
//! - a fault-injected job retries through checkpoints to success,
//! - the rank budget is never exceeded while the queue is observed
//!   non-empty, and the fleet reports throughput and p50/p95 latency.
//!
//! Everything lands in `ensemble.json` with a machine-checkable `checks`
//! section, mirroring `reproduce analyze`.

use crate::analyze::{analysis_grid, Check, Checks};
use agcm_core::model::run_model;
use agcm_core::report::Table;
use agcm_core::AgcmConfig;
use agcm_ensemble::{
    CancelReason, Ensemble, EnsembleConfig, FleetSnapshot, JobId, JobRecord, JobSpec, JobStatus,
    Priority,
};
use agcm_filtering::driver::FilterVariant;
use agcm_mps::fault::FaultPlan;
use agcm_telemetry::json::Value;
use std::time::Duration;

/// Rank budget the whole batch shares. The standard sweep alone needs 29
/// ranks per wave, so jobs must queue behind it.
pub const RANK_BUDGET: usize = 6;

/// Mixed mesh sizes of the standard sweep (1, 2, 2, 4, 4, 4, 6 and 6
/// ranks — each also run under the second filter organization, so 16
/// standard jobs in all).
pub const SWEEP_MESHES: [(usize, usize); 8] = [
    (1, 1),
    (1, 2),
    (2, 1),
    (2, 2),
    (1, 4),
    (4, 1),
    (2, 3),
    (3, 2),
];

/// The full ensemble-serving report.
pub struct EnsembleReport {
    /// Per-job table for the terminal output.
    pub table: Table,
    /// The `ensemble.json` document.
    pub doc: Value,
    /// Machine-checkable invariants.
    pub checks: Checks,
}

/// Build the standard sweep: each mesh under both filter organizations,
/// priorities cycled so the scheduler's priority path is exercised.
fn standard_jobs(steps: usize) -> Vec<JobSpec> {
    let grid = analysis_grid();
    let mut specs = Vec::new();
    for (i, &(lat, lon)) in SWEEP_MESHES.iter().enumerate() {
        for per_variable in [false, true] {
            let mut cfg =
                AgcmConfig::for_grid(grid, lat, lon, FilterVariant::LbFft).with_steps(steps);
            if per_variable {
                cfg = cfg.with_per_variable_filtering();
            }
            let org = if per_variable { "pervar" } else { "agg" };
            let priority = match i % 3 {
                0 => Priority::Normal,
                1 => Priority::Low,
                _ => Priority::High,
            };
            specs.push(
                JobSpec::new(format!("sweep-{lat}x{lon}-{org}"), cfg).with_priority(priority),
            );
        }
    }
    specs
}

/// Run the whole serving experiment and assemble the report.
pub fn run_ensemble(smoke: bool) -> EnsembleReport {
    let grid = analysis_grid();
    let steps = if smoke { 2 } else { 3 };

    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: RANK_BUDGET,
        queue_capacity: 64,
        ..EnsembleConfig::default()
    });

    // Submitted first so it dispatches immediately, with enough steps
    // that its 40 ms deadline fires mid-run and cancels a *running*
    // world.
    let doomed_id = ensemble
        .submit(
            JobSpec::new(
                "doomed-2x2",
                AgcmConfig::for_grid(grid, 2, 2, FilterVariant::LbFft).with_steps(2000),
            )
            .with_priority(Priority::High)
            .with_deadline(Duration::from_millis(40)),
        )
        .expect("doomed job admits");

    let standard = standard_jobs(steps);
    let mut standard_ids: Vec<JobId> = Vec::new();
    for spec in &standard {
        standard_ids.push(ensemble.submit(spec.clone()).expect("sweep job admits"));
    }

    // One faulted job: rank 1 is killed at step 2 of the first attempt;
    // per-step checkpoints plus two allowed restarts recover it.
    let fault_cfg = AgcmConfig::for_grid(grid, 2, 2, FilterVariant::LbFft)
        .with_steps(4)
        .with_checkpointing(1);
    let fault_id = ensemble
        .submit(
            JobSpec::new("faulted-2x2", fault_cfg)
                .with_fault_plan(FaultPlan::seeded(7).with_kill(1, 2))
                .with_retries(2),
        )
        .expect("faulted job admits");

    // Snapshot the fleet once everything is terminal but *before* join
    // consumes the ensemble.
    let total = 1 + standard.len() + 1;
    let fleet: FleetSnapshot = loop {
        let f = ensemble.fleet();
        if (f.jobs_completed + f.jobs_cancelled + f.jobs_failed) as usize == total {
            break f;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let records = ensemble.join();

    let find = |id: JobId| {
        records
            .iter()
            .find(|r| r.id == id)
            .expect("every submitted job has a record")
    };

    // --- Checks -----------------------------------------------------------
    let mut checks = Checks::default();

    let incomplete: Vec<&str> = standard_ids
        .iter()
        .chain([&fault_id])
        .map(|&id| find(id))
        .filter(|r| r.status != JobStatus::Completed)
        .map(|r| r.name.as_str())
        .collect();
    checks.push(Check {
        name: "completed_all_standard",
        ok: incomplete.is_empty(),
        detail: if incomplete.is_empty() {
            format!("{} standard + 1 faulted job all completed", standard.len())
        } else {
            format!("not completed: {incomplete:?}")
        },
    });

    // Bit-identical to solo: the scheduler must not perturb the model.
    let mut mismatches: Vec<&str> = Vec::new();
    let mut compared = 0usize;
    for (spec, &id) in standard.iter().zip(&standard_ids) {
        let record = find(id);
        if record.status != JobStatus::Completed {
            continue;
        }
        compared += 1;
        let solo = run_model(spec.config);
        if record.outcome.as_deref() != Some(&solo.ranks[..]) {
            mismatches.push(&record.name);
        }
    }
    let fault_record = find(fault_id);
    if fault_record.status == JobStatus::Completed {
        compared += 1;
        // run_model never checkpoints, so the same config is the clean
        // uninterrupted baseline for the recovered run.
        let solo = run_model(fault_cfg);
        if fault_record.outcome.as_deref() != Some(&solo.ranks[..]) {
            mismatches.push(&fault_record.name);
        }
    }
    checks.push(Check {
        name: "bit_identical_to_solo",
        ok: compared > 0 && mismatches.is_empty(),
        detail: if mismatches.is_empty() {
            format!("{compared} completed jobs match their solo runs exactly")
        } else {
            format!("diverged from solo: {mismatches:?}")
        },
    });

    let doomed = find(doomed_id);
    checks.push(Check {
        name: "deadline_cancelled_running",
        ok: doomed.status == JobStatus::Cancelled(CancelReason::Deadline) && doomed.attempts >= 1,
        detail: format!(
            "doomed job: status {}, attempts {} (>=1 means its world was dispatched, then unwound)",
            doomed.status.label(),
            doomed.attempts
        ),
    });

    // Every job submitted *after* the doomed one must be untouched by its
    // cancellation.
    let poisoned: Vec<&str> = records
        .iter()
        .filter(|r| r.id > doomed_id && r.status != JobStatus::Completed)
        .map(|r| r.name.as_str())
        .collect();
    checks.push(Check {
        name: "later_jobs_unpoisoned",
        ok: poisoned.is_empty(),
        detail: if poisoned.is_empty() {
            "every job after the cancelled one completed".to_string()
        } else {
            format!("affected: {poisoned:?}")
        },
    });

    let fault_resilience = fault_record
        .summary
        .as_ref()
        .and_then(|s| s.resilience)
        .map(|r| r.fault_events)
        .unwrap_or(0);
    checks.push(Check {
        name: "fault_retried_to_success",
        ok: fault_record.status == JobStatus::Completed
            && fault_record.attempts >= 2
            && fault_resilience >= 1,
        detail: format!(
            "faulted job: status {}, attempts {}, fault events {}",
            fault_record.status.label(),
            fault_record.attempts,
            fault_resilience
        ),
    });

    checks.push(Check {
        name: "budget_never_exceeded",
        ok: fleet.ranks_busy_peak > 0.0 && fleet.ranks_busy_peak <= RANK_BUDGET as f64,
        detail: format!(
            "peak {} of {} budget ranks busy",
            fleet.ranks_busy_peak, RANK_BUDGET
        ),
    });

    checks.push(Check {
        name: "queue_depth_observed",
        ok: fleet.queue_depth_peak > 0.0,
        detail: format!(
            "peak queue depth {} (sweep needs 29+ ranks on a budget of {})",
            fleet.queue_depth_peak, RANK_BUDGET
        ),
    });

    checks.push(Check {
        name: "latency_quantiles",
        ok: fleet.latency_p50 > 0.0
            && fleet.latency_p95 >= fleet.latency_p50
            && fleet.throughput_jobs_per_second > 0.0,
        detail: format!(
            "p50 {:.4}s, p95 {:.4}s, throughput {:.2} jobs/s",
            fleet.latency_p50, fleet.latency_p95, fleet.throughput_jobs_per_second
        ),
    });

    // --- Table + JSON -----------------------------------------------------
    let mut table = Table::new(
        format!(
            "Ensemble serving: {} jobs on a {}-rank budget",
            records.len(),
            RANK_BUDGET
        ),
        &[
            "Job", "Ranks", "Prio", "Status", "Attempts", "Queued s", "Run s",
        ],
    );
    for r in &records {
        table.add_row(vec![
            r.name.clone(),
            r.ranks.to_string(),
            r.priority.label().to_string(),
            r.status.label(),
            r.attempts.to_string(),
            format!("{:.4}", r.queue_seconds),
            format!("{:.4}", r.run_seconds),
        ]);
    }

    let doc = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                (
                    "grid",
                    Value::Str(format!("{}x{}x{}", grid.n_lon, grid.n_lat, grid.n_lev)),
                ),
                ("rank_budget", Value::Num(RANK_BUDGET as f64)),
                ("jobs", Value::Num(records.len() as f64)),
                ("smoke", Value::Bool(smoke)),
            ]),
        ),
        ("jobs", Value::Arr(records.iter().map(job_json).collect())),
        ("fleet", fleet.to_json()),
        ("checks", checks.to_json()),
    ]);

    EnsembleReport { table, doc, checks }
}

fn job_json(r: &JobRecord) -> Value {
    Value::obj(vec![
        ("id", Value::Num(r.id as f64)),
        ("name", Value::Str(r.name.clone())),
        ("ranks", Value::Num(r.ranks as f64)),
        ("priority", Value::Str(r.priority.label().to_string())),
        ("status", Value::Str(r.status.label())),
        ("attempts", Value::Num(r.attempts as f64)),
        ("queue_seconds", Value::Num(r.queue_seconds)),
        ("run_seconds", Value::Num(r.run_seconds)),
    ])
}
