//! End-to-end serving behaviour: admission control, budget enforcement,
//! bit-identical outcomes, deadlines, explicit cancellation, fault
//! retries, and per-job telemetry routing.

use agcm_core::{run_model, AgcmConfig};
use agcm_ensemble::{
    CancelReason, Ensemble, EnsembleConfig, JobId, JobSpec, JobStatus, JobView, Priority,
    SubmitError,
};
use agcm_filtering::driver::{FilterOrganization, FilterVariant};
use agcm_grid::latlon::GridSpec;
use agcm_mps::fault::FaultPlan;
use agcm_telemetry::{LiveCollector, MemorySink, RunSummary, TraceContext};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn small_grid() -> GridSpec {
    GridSpec::new(24, 12, 2)
}

fn job(name: &str, mesh_lat: usize, mesh_lon: usize, steps: usize) -> JobSpec {
    JobSpec::new(
        name,
        AgcmConfig::for_grid(small_grid(), mesh_lat, mesh_lon, FilterVariant::LbFft)
            .with_steps(steps),
    )
}

fn quick_config() -> EnsembleConfig {
    EnsembleConfig {
        rank_budget: 4,
        queue_capacity: 32,
        ..EnsembleConfig::default()
    }
}

#[test]
fn jobs_complete_bit_identical_to_solo_runs() {
    // A 6-rank budget: the 2x3 and 3x2 meshes admit, and the 16 jobs
    // below need 58 ranks, so most of them queue.
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 6,
        ..quick_config()
    });
    let meshes = [
        (1, 1),
        (2, 1),
        (1, 2),
        (2, 2),
        (1, 4),
        (4, 1),
        (2, 3),
        (3, 2),
    ];
    let mut specs = Vec::new();
    for (i, &(lat, lon)) in meshes.iter().enumerate() {
        let spec = job(&format!("{lat}x{lon}"), lat, lon, 2 + i % 2);
        let mut per_variable = spec.clone();
        per_variable.name += "-pervar";
        per_variable.config.filter_organization = FilterOrganization::PerVariable;
        specs.extend([spec, per_variable]);
    }
    for spec in &specs {
        ensemble.submit(spec.clone()).unwrap();
    }
    let records = ensemble.join();
    assert_eq!(records.len(), specs.len());
    for (record, spec) in records.iter().zip(&specs) {
        assert_eq!(record.status, JobStatus::Completed, "{}", record.name);
        assert_eq!(record.attempts, 1);
        let solo = run_model(spec.config);
        assert_eq!(
            record.outcome.as_ref().unwrap(),
            &solo.ranks,
            "{} must match its solo run exactly",
            record.name
        );
        let summary = record.summary.as_ref().unwrap();
        assert_eq!(summary.ranks, spec.config.size());
        assert_eq!(summary.steps, spec.config.steps);
    }
}

#[test]
fn budget_is_never_exceeded_and_fleet_observes_the_queue() {
    let ensemble = Ensemble::start(quick_config());
    // 6 jobs of up to 4 ranks on a 4-rank budget: they cannot all run at
    // once, so the queue must be observed non-empty at some point.
    for i in 0..6 {
        let (lat, lon) = [(2, 2), (1, 2), (2, 1)][i % 3];
        ensemble.submit(job(&format!("j{i}"), lat, lon, 2)).unwrap();
    }
    // Poll the live fleet view until everything is terminal, checking the
    // budget invariant at every sample.
    let fleet = loop {
        let f = ensemble.fleet();
        assert!(
            f.ranks_busy_peak <= 4.0,
            "budget exceeded: {} ranks busy",
            f.ranks_busy_peak
        );
        if f.jobs_completed + f.jobs_cancelled + f.jobs_failed == 6 {
            break f;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(fleet.jobs_submitted, 6);
    assert_eq!(fleet.jobs_completed, 6);
    assert!(fleet.ranks_busy_peak >= 1.0);
    assert!(fleet.queue_depth_peak >= 1.0, "contention must queue jobs");
    assert!(fleet.latency_p95 >= fleet.latency_p50);
    assert!(fleet.latency_p50 > 0.0);
    assert!(fleet.throughput_jobs_per_second > 0.0);
    let records = ensemble.join();
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
}

#[test]
fn deadline_cancels_a_running_job_without_poisoning_later_ones() {
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 4,
        queue_capacity: 8,
        ..EnsembleConfig::default()
    });
    // Plenty of steps so the deadline fires mid-run.
    let doomed = ensemble
        .submit(job("doomed", 2, 2, 500).with_deadline(Duration::from_millis(30)))
        .unwrap();
    let survivor = ensemble.submit(job("survivor", 2, 2, 2)).unwrap();
    let records = ensemble.join();
    let doomed = records.iter().find(|r| r.id == doomed).unwrap();
    assert_eq!(
        doomed.status,
        JobStatus::Cancelled(CancelReason::Deadline),
        "deadline must cancel the running world"
    );
    assert!(doomed.attempts >= 1, "job was dispatched before expiry");
    let survivor = records.iter().find(|r| r.id == survivor).unwrap();
    assert_eq!(survivor.status, JobStatus::Completed);
}

#[test]
fn queued_job_past_deadline_never_dispatches() {
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        queue_capacity: 8,
        ..EnsembleConfig::default()
    });
    // Occupy the whole budget, then queue a job whose deadline expires
    // while it waits.
    let blocker = ensemble.submit(job("blocker", 1, 2, 200)).unwrap();
    let starved = ensemble
        .submit(job("starved", 1, 2, 2).with_deadline(Duration::from_millis(5)))
        .unwrap();
    let records = ensemble.join();
    let starved = records.iter().find(|r| r.id == starved).unwrap();
    assert_eq!(starved.status, JobStatus::Cancelled(CancelReason::Deadline));
    assert_eq!(starved.attempts, 0, "never dispatched");
    assert!(starved.outcome.is_none());
    let blocker = records.iter().find(|r| r.id == blocker).unwrap();
    assert_eq!(blocker.status, JobStatus::Completed);
}

#[test]
fn deadlines_fire_on_time_with_nothing_else_to_wake_the_dispatcher() {
    // After the two submissions nothing notifies the dispatcher: no
    // submit, no cancel, no job ends before its deadline. It must wake on
    // its own at the queued job's deadline and again at the running
    // job's. Each job must turn terminal within 200 ms of its deadline.
    const SLACK: Duration = Duration::from_millis(200);
    let queued_deadline = Duration::from_millis(100);
    let running_deadline = Duration::from_millis(600);
    let (tx, rx) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let ensemble = Ensemble::start(EnsembleConfig {
            rank_budget: 2,
            queue_capacity: 8,
            ..EnsembleConfig::default()
        });
        let start = Instant::now();
        // Fills the budget and would run far past its deadline.
        let running = ensemble
            .submit(job("running", 1, 2, 200_000).with_deadline(running_deadline))
            .unwrap();
        let queued = ensemble
            .submit(job("queued", 1, 2, 2).with_deadline(queued_deadline))
            .unwrap();
        let terminal_after = |id: JobId| loop {
            if let Some(JobView::Done(record)) = ensemble.status(id) {
                return (start.elapsed(), *record);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let queued = terminal_after(queued);
        let running = terminal_after(running);
        let _ = tx.send((queued, running));
        ensemble.join();
    });
    let ((queued_at, queued), (running_at, running)) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("watchdog: a deadline never fired");
    scenario.join().expect("scenario thread");
    assert_eq!(queued.status, JobStatus::Cancelled(CancelReason::Deadline));
    assert_eq!(queued.attempts, 0, "never dispatched");
    assert!(
        queued_at < queued_deadline + SLACK,
        "queued job cancelled {queued_at:?} after submission, deadline {queued_deadline:?}"
    );
    assert_eq!(running.status, JobStatus::Cancelled(CancelReason::Deadline));
    assert!(running.attempts >= 1, "dispatched before its deadline");
    assert!(
        running_at < running_deadline + SLACK,
        "running job ended {running_at:?} after submission, deadline {running_deadline:?}"
    );
}

#[test]
fn explicit_cancel_of_queued_and_running_jobs() {
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        queue_capacity: 8,
        ..EnsembleConfig::default()
    });
    let running = ensemble.submit(job("running", 1, 2, 500)).unwrap();
    let queued = ensemble.submit(job("queued", 1, 2, 2)).unwrap();
    // The first job occupies the whole budget; the second is queued.
    assert!(ensemble.cancel(queued));
    std::thread::sleep(Duration::from_millis(10));
    assert!(ensemble.cancel(running));
    assert!(!ensemble.cancel(9999), "unknown id");
    let records = ensemble.join();
    let queued = records.iter().find(|r| r.id == queued).unwrap();
    assert_eq!(queued.status, JobStatus::Cancelled(CancelReason::Explicit));
    assert_eq!(queued.attempts, 0);
    let running = records.iter().find(|r| r.id == running).unwrap();
    assert_eq!(
        running.status,
        JobStatus::Cancelled(CancelReason::Explicit),
        "running job unwinds with the explicit reason, not deadline"
    );
}

#[test]
fn fault_injected_job_retries_to_success_via_checkpoints() {
    let ensemble = Ensemble::start(quick_config());
    let spec = JobSpec {
        plan: Some(FaultPlan::seeded(7).with_kill(1, 2)),
        ..JobSpec::new(
            "faulty",
            AgcmConfig::for_grid(small_grid(), 2, 2, FilterVariant::LbFft)
                .with_steps(4)
                .with_checkpointing(1),
        )
        .with_retries(2)
    };
    let id = ensemble.submit(spec.clone()).unwrap();
    let records = ensemble.join();
    let rec = records.iter().find(|r| r.id == id).unwrap();
    assert_eq!(rec.status, JobStatus::Completed);
    assert!(rec.attempts >= 2, "the injected kill forces a restart");
    // Recovered run still matches the uninterrupted solo run.
    let mut clean = spec.config;
    clean.checkpoint_every = 0;
    let solo = run_model(clean);
    assert_eq!(rec.outcome.as_ref().unwrap(), &solo.ranks);
    let resilience = rec.summary.as_ref().unwrap().resilience.unwrap();
    assert!(resilience.attempts >= 2);
    assert!(resilience.fault_events >= 1);
}

#[test]
fn admission_control_rejects_what_cannot_run() {
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        queue_capacity: 1,
        ..EnsembleConfig::default()
    });
    // Too large for the budget, ever.
    let err = ensemble.try_submit(job("wide", 2, 2, 2)).unwrap_err();
    assert_eq!(
        err,
        SubmitError::TooLarge {
            ranks: 4,
            budget: 2
        }
    );
    // Degenerate config.
    let err = ensemble.try_submit(job("no-steps", 1, 1, 0)).unwrap_err();
    assert!(matches!(err, SubmitError::InvalidConfig(_)));
    // Backpressure: fill the 1-slot queue behind a long runner.
    ensemble.submit(job("head", 1, 2, 300)).unwrap();
    ensemble.submit(job("queued", 1, 1, 1)).unwrap();
    let mut bounced = false;
    for i in 0..50 {
        match ensemble.try_submit(job(&format!("extra{i}"), 1, 1, 1)) {
            Err(SubmitError::QueueFull { capacity: 1 }) => {
                bounced = true;
                break;
            }
            Ok(_) => continue,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(bounced, "a full queue must bounce try_submit");
    let records = ensemble.join();
    assert!(
        records.iter().all(|r| r.status == JobStatus::Completed),
        "bounced submissions must not corrupt admitted ones"
    );
}

/// Block until `id` is terminal, then return its record.
fn wait_done(ensemble: &Ensemble, id: JobId) -> agcm_ensemble::JobRecord {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match ensemble.status(id) {
            Some(JobView::Done(record)) => return *record,
            _ => {
                assert!(Instant::now() < deadline, "job {id} should finish");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The one finished record `sink` got, checked against the job's own
/// terminal record: the same summary, phase totals equal bit for bit.
fn finished_record(sink: &MemorySink, record: &agcm_ensemble::JobRecord) -> RunSummary {
    let runs = sink.runs();
    assert_eq!(runs.len(), 1, "{}: one finished record", record.name);
    let summary = record
        .summary
        .as_ref()
        .expect("completed job has a summary");
    assert_eq!(&runs[0], summary, "{}", record.name);
    let bits = |s: &RunSummary| -> Vec<(&str, u64)> {
        s.phase_seconds
            .iter()
            .map(|&(p, secs)| (p, secs.to_bits()))
            .collect()
    };
    assert_eq!(bits(&runs[0]), bits(summary), "{}", record.name);
    runs[0].clone()
}

#[test]
fn per_job_sinks_receive_only_their_jobs_records() {
    let sink_a = Arc::new(MemorySink::new());
    let sink_b = Arc::new(MemorySink::new());
    let ensemble = Ensemble::start(quick_config());
    ensemble
        .submit(job("a", 1, 2, 2).with_sink(sink_a.clone()))
        .unwrap();
    ensemble
        .submit(job("b", 2, 2, 3).with_sink(sink_b.clone()))
        .unwrap();
    let records = ensemble.join();
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    let a = finished_record(&sink_a, &records[0]);
    let b = finished_record(&sink_b, &records[1]);
    assert_eq!((a.steps, a.ranks), (2, 2));
    assert_eq!((b.steps, b.ranks), (3, 4));
}

#[test]
fn a_resumed_job_reports_the_steps_it_computed_and_a_cancelled_one_nothing() {
    let dir = std::env::temp_dir().join(format!("agcm-serving-sink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(agcm_ckptstore::Store::open(dir.join("store")).unwrap());
    let ensemble = Ensemble::start(quick_config());
    let checkpointed = |name: &str, steps: usize, sink: &Arc<MemorySink>| {
        let mut spec = job(name, 1, 2, steps).with_sink(sink.clone());
        spec.config = spec.config.with_checkpointing(2);
        spec.with_shared_store(Arc::clone(&store))
    };
    let (cold, extended) = (Arc::new(MemorySink::new()), Arc::new(MemorySink::new()));
    let id = ensemble.submit(checkpointed("cold", 6, &cold)).unwrap();
    let cold_record = wait_done(&ensemble, id);
    assert_eq!(finished_record(&cold, &cold_record).steps, 6);
    // Same lineage, longer horizon: resumes at the 6-step commit and
    // computes only the 4 steps past it.
    let id = ensemble
        .submit(checkpointed("extended", 10, &extended))
        .unwrap();
    let extended_record = wait_done(&ensemble, id);
    assert_eq!(extended_record.resumed_from, Some(6));
    assert_eq!(finished_record(&extended, &extended_record).steps, 4);

    let cancelled = Arc::new(MemorySink::new());
    let id = ensemble
        .submit(job("cancelled", 1, 2, 1_000_000).with_sink(cancelled.clone()))
        .unwrap();
    while !matches!(ensemble.status(id), Some(JobView::Running { .. })) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(ensemble.cancel(id));
    let record = wait_done(&ensemble, id);
    assert_eq!(record.status, JobStatus::Cancelled(CancelReason::Explicit));
    assert!(cancelled.runs().is_empty(), "a cancelled job has no record");
    drop(ensemble);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiled_job_delivers_profile_and_skew_to_its_sink() {
    let collector = Arc::new(LiveCollector::new());
    collector.begin_job(1, TraceContext::new_root(), "alice");
    let ensemble = Ensemble::start(quick_config());
    let id = ensemble
        .submit(
            job("profiled", 2, 2, 4)
                .with_sink(collector.sink(1))
                .with_profile(),
        )
        .unwrap();
    let records = ensemble.join();
    assert_eq!(records[0].id, id);
    assert_eq!(records[0].status, JobStatus::Completed);
    let view = collector
        .job_profile(1)
        .expect("profiled job stored a profile");
    let data = view.get("data").unwrap();
    let profile = data.get("profile").unwrap();
    // The fold of the trace's wall stamps is exact to the nanosecond.
    let total = profile.get("total_nanos").and_then(|v| v.as_f64()).unwrap();
    let stacks = profile.get("stacks").unwrap().as_arr().unwrap();
    let folded: f64 = stacks
        .iter()
        .map(|s| s.get("nanos").and_then(|v| v.as_f64()).unwrap())
        .sum();
    assert!(total > 0.0);
    assert_eq!(
        folded, total,
        "folded stacks must sum to the ranks' extents"
    );
    // The skew join ran against the completed run's trace.
    let skew = data.get("skew").expect("skew present");
    let rows = skew.get("rows").unwrap().as_arr().unwrap();
    assert!(!rows.is_empty(), "skew join produced rows");
    let traced = skew.get("traced_phases").and_then(|v| v.as_f64()).unwrap();
    assert!(traced >= 3.0, "step/dynamics/physics all traced: {traced}");
    // An unprofiled job stores nothing.
    assert!(collector.job_profile(999).is_none());
}

#[test]
fn priorities_dispatch_high_before_low_when_contended() {
    // One rank of budget so jobs run strictly one at a time, and the
    // queue drains by priority.
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 1,
        queue_capacity: 16,
        ..EnsembleConfig::default()
    });
    let head = ensemble.submit(job("head", 1, 1, 50)).unwrap();
    let low = ensemble
        .submit(job("low", 1, 1, 1).with_priority(Priority::Low))
        .unwrap();
    let high = ensemble
        .submit(job("high", 1, 1, 1).with_priority(Priority::High))
        .unwrap();
    let records = ensemble.join();
    assert_eq!(records.len(), 3);
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    let queue_of = |id| records.iter().find(|r| r.id == id).unwrap().queue_seconds;
    // High overtook low in the queue behind the head job.
    assert!(
        queue_of(high) < queue_of(low),
        "high ({}) should dispatch before low ({})",
        queue_of(high),
        queue_of(low)
    );
    let _ = head;
}

#[test]
fn two_ensembles_run_same_id_jobs_without_sharing_checkpoints() {
    // Job ids restart with every ensemble, and neither job names a
    // checkpoint directory: each must get a directory of its own, or one
    // would resume from the other's checkpoints.
    let spec = |name: &str, mesh_lat, mesh_lon| {
        JobSpec::new(
            name,
            AgcmConfig::for_grid(small_grid(), mesh_lat, mesh_lon, FilterVariant::LbFft)
                .with_steps(6)
                .with_checkpointing(1),
        )
    };
    let one = Ensemble::start(quick_config());
    let two = Ensemble::start(quick_config());
    let mut submitted = Vec::new();
    for i in 0..3 {
        let a = spec(&format!("one-{i}"), 1, 2);
        let b = spec(&format!("two-{i}"), 2, 1);
        assert_eq!(
            one.submit(a.clone()).unwrap(),
            two.submit(b.clone()).unwrap()
        );
        submitted.extend([a, b]);
    }
    let records: Vec<_> = one.join().into_iter().chain(two.join()).collect();
    assert_eq!(records.len(), submitted.len());
    for record in &records {
        let spec = submitted.iter().find(|s| s.name == record.name).unwrap();
        assert_eq!(record.status, JobStatus::Completed, "{}", record.name);
        assert_eq!(record.attempts, 1, "{}", record.name);
        assert_eq!(record.resumed_from, None, "{} resumed", record.name);
        let mut clean = spec.config;
        clean.checkpoint_every = 0;
        assert_eq!(record.outcome.as_ref().unwrap(), &run_model(clean).ranks);
    }
}
