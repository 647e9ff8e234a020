//! Multi-tenant admission, fair-share dispatch shaping, observer hooks,
//! status queries, and the journal-recovery resubmit path — the ensemble
//! surface `agcm-server` builds on.

use agcm_core::AgcmConfig;
use agcm_ensemble::{
    Ensemble, EnsembleConfig, JobObserver, JobRecord, JobSpec, JobStatus, JobView, SubmitError,
    TenantPolicy, TenantQuota,
};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn tenant_config(policy: TenantPolicy) -> EnsembleConfig {
    EnsembleConfig {
        rank_budget: 4,
        queue_capacity: 32,
        tenancy: Some(policy),
    }
}

#[test]
fn in_flight_quota_rejects_with_typed_error_and_other_tenants_unaffected() {
    let policy = TenantPolicy {
        default_quota: Some(TenantQuota::default()),
        tenants: Vec::new(),
    }
    .with_tenant(
        "capped",
        TenantQuota {
            max_in_flight: 2,
            ..TenantQuota::default()
        },
    );
    let ensemble = Ensemble::start(tenant_config(policy));

    // Two in-flight jobs fill the quota; the third bounces typed.
    ensemble
        .try_submit(job("c1", 1, 1, 40).with_tenant("capped"))
        .unwrap();
    ensemble
        .try_submit(job("c2", 1, 1, 40).with_tenant("capped"))
        .unwrap();
    let err = ensemble
        .try_submit(job("c3", 1, 1, 2).with_tenant("capped"))
        .unwrap_err();
    match err {
        SubmitError::QuotaExceeded {
            tenant,
            in_flight,
            max_in_flight,
        } => {
            assert_eq!(tenant, "capped");
            assert_eq!(in_flight, 2);
            assert_eq!(max_in_flight, 2);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    // A different tenant (under the default quota) is unaffected.
    ensemble
        .try_submit(job("other", 1, 1, 2).with_tenant("roomy"))
        .unwrap();

    let records = ensemble.join();
    let completed = records
        .iter()
        .filter(|r| r.status == JobStatus::Completed)
        .count();
    assert_eq!(completed, 3, "admitted jobs all complete");
}

#[test]
fn strict_policy_rejects_unknown_tenants() {
    let policy = TenantPolicy::default().with_tenant("known", TenantQuota::default());
    let ensemble = Ensemble::start(tenant_config(policy));
    let err = ensemble
        .try_submit(job("j", 1, 1, 2).with_tenant("stranger"))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::UnknownTenant {
            tenant: "stranger".to_string()
        }
    );
    // Anonymous submissions (no tenant header) are unknown too.
    let err = ensemble.try_submit(job("anon", 1, 1, 2)).unwrap_err();
    assert!(matches!(err, SubmitError::UnknownTenant { tenant } if tenant == "anonymous"));
    ensemble.join();
}

#[test]
fn running_rank_cap_shapes_dispatch_without_rejecting() {
    // Tenant capped at 1 concurrent rank on a 4-rank budget: all three
    // 1-rank jobs are admitted, but they must run one after another —
    // the fleet's busy-rank peak stays at 1.
    let policy = TenantPolicy {
        default_quota: Some(TenantQuota {
            max_running_ranks: 1,
            ..TenantQuota::default()
        }),
        tenants: Vec::new(),
    };
    let ensemble = Ensemble::start(tenant_config(policy));
    for i in 0..3 {
        ensemble
            .try_submit(job(&format!("s{i}"), 1, 1, 30).with_tenant("shaped"))
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while ensemble.fleet().jobs_completed < 3 {
        assert!(std::time::Instant::now() < deadline, "jobs should finish");
        std::thread::sleep(Duration::from_millis(2));
    }
    let fleet = ensemble.fleet();
    assert_eq!(
        fleet.ranks_busy_peak, 1.0,
        "rank cap of 1 must serialize dispatch"
    );
    let records = ensemble.join();
    assert_eq!(records.len(), 3);
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
}

/// Observer recording dispatch tags and terminal records.
#[derive(Default)]
struct Recorder {
    dispatched: Mutex<Vec<(u64, Option<u64>)>>,
    terminal: Mutex<Vec<(Option<u64>, String)>>,
}

impl JobObserver for Recorder {
    fn on_dispatch(&self, id: u64, tag: Option<u64>) {
        self.dispatched.lock().unwrap().push((id, tag));
    }
    fn on_terminal(&self, record: &JobRecord) {
        self.terminal
            .lock()
            .unwrap()
            .push((record.tag, record.status.label()));
    }
}

#[test]
fn observer_sees_dispatch_then_terminal_with_tags() {
    let recorder = Arc::new(Recorder::default());
    let ensemble = Ensemble::start_with_observer(
        EnsembleConfig {
            rank_budget: 4,
            ..EnsembleConfig::default()
        },
        Arc::clone(&recorder) as Arc<dyn JobObserver>,
    );
    let id = ensemble
        .try_submit(job("tagged", 1, 1, 2).with_tag(7001))
        .unwrap();
    let records = ensemble.join();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].tag, Some(7001));
    assert_eq!(records[0].tenant, None);

    let dispatched = recorder.dispatched.lock().unwrap();
    assert_eq!(dispatched.as_slice(), &[(id, Some(7001))]);
    let terminal = recorder.terminal.lock().unwrap();
    assert_eq!(
        terminal.as_slice(),
        &[(Some(7001), "completed".to_string())]
    );
}

#[test]
fn observer_sees_undispatched_cancellations() {
    let recorder = Arc::new(Recorder::default());
    let ensemble = Ensemble::start_with_observer(
        EnsembleConfig {
            rank_budget: 1,
            ..EnsembleConfig::default()
        },
        Arc::clone(&recorder) as Arc<dyn JobObserver>,
    );
    // Occupy the budget, then cancel a queued job before it dispatches.
    let runner = ensemble
        .try_submit(job("runner", 1, 1, 60).with_tag(1))
        .unwrap();
    let queued = ensemble
        .try_submit(job("queued", 1, 1, 2).with_tag(2))
        .unwrap();
    assert!(ensemble.cancel(queued));
    ensemble.join();
    let _ = runner;

    let terminal = recorder.terminal.lock().unwrap();
    let cancelled = terminal
        .iter()
        .find(|(tag, _)| *tag == Some(2))
        .expect("queued job reaches a terminal record");
    assert_eq!(cancelled.1, "cancelled(explicit)");
    // The cancelled job never dispatched.
    let dispatched = recorder.dispatched.lock().unwrap();
    assert!(dispatched.iter().all(|(_, tag)| *tag != Some(2)));
}

#[test]
fn status_reports_queue_position_running_and_done() {
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 1,
        ..EnsembleConfig::default()
    });
    // Long enough to be seen running and to hold the one rank while the
    // queue is inspected; it is cancelled below.
    let running = ensemble.try_submit(job("r", 1, 1, 1_000_000)).unwrap();
    // Give the dispatcher time to start the first job.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !matches!(ensemble.status(running), Some(JobView::Running { .. })) {
        assert!(std::time::Instant::now() < deadline, "job should dispatch");
        std::thread::sleep(Duration::from_millis(1));
    }
    let q1 = ensemble.try_submit(job("q1", 1, 1, 2)).unwrap();
    let q2 = ensemble.try_submit(job("q2", 1, 1, 2)).unwrap();
    match ensemble.status(q1) {
        Some(JobView::Queued { position, ranks }) => {
            assert_eq!(position, 1);
            assert_eq!(ranks, 1);
        }
        other => panic!("q1 should be queued, got {other:?}"),
    }
    match ensemble.status(q2) {
        Some(JobView::Queued { position, .. }) => assert_eq!(position, 2),
        other => panic!("q2 should be queued at position 2, got {other:?}"),
    }
    assert!(ensemble.status(9999).is_none(), "unknown id is None");
    assert!(ensemble.cancel(running));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match ensemble.status(running) {
            Some(JobView::Done(record)) => {
                assert_eq!(record.status.label(), "cancelled(explicit)");
                break;
            }
            _ => assert!(std::time::Instant::now() < deadline, "job should end"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let records = ensemble.join();
    assert_eq!(records.len(), 3);
}

#[test]
fn resubmit_bypasses_capacity_and_quota() {
    // Queue capacity 1 and a strict policy that knows nobody: try_submit
    // bounces, resubmit (the journal-recovery path) does not.
    let cfg = EnsembleConfig {
        rank_budget: 1,
        queue_capacity: 1,
        tenancy: Some(TenantPolicy::default()),
    };
    let ensemble = Ensemble::start(cfg);
    let err = ensemble
        .try_submit(job("denied", 1, 1, 2).with_tenant("ghost"))
        .unwrap_err();
    assert!(matches!(err, SubmitError::UnknownTenant { .. }));

    for i in 0..3 {
        ensemble
            .resubmit(job(&format!("recovered-{i}"), 1, 1, 2).with_tenant("ghost"))
            .unwrap();
    }
    let records = ensemble.join();
    assert_eq!(records.len(), 3);
    assert!(records.iter().all(|r| r.status == JobStatus::Completed));
    assert!(records.iter().all(|r| r.tenant.as_deref() == Some("ghost")));
}
