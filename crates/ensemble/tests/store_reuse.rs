//! Fleet checkpoint store wired through the scheduler: a resubmitted
//! identical job resumes from the committed prefix instead of step 0,
//! an extended-horizon near-duplicate starts from the shorter run's
//! last commit (both bit-identical to solo runs), a byte-identical twin
//! on a new lineage dedups to chunks already stored, and GC reclaims
//! every unleased lineage but never a leased one.

use agcm_ckptstore::Store;
use agcm_core::{run_model, AgcmConfig};
use agcm_ensemble::{Ensemble, EnsembleConfig, JobSpec, JobStatus, JobView};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::latlon::GridSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(steps: usize) -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(24, 12, 2), 1, 2, FilterVariant::LbFft)
        .with_steps(steps)
        .with_checkpointing(2)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("agcm-store-reuse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Block until `id` is terminal, then return its record.
fn wait_done(ensemble: &Ensemble, id: u64) -> agcm_ensemble::JobRecord {
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

#[test]
fn resubmitted_and_extended_jobs_resume_from_the_fleet_prefix() {
    let dir = scratch("resume");
    let store = Arc::new(Store::open(dir.join("store")).unwrap());
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        ..EnsembleConfig::default()
    });
    let submit = |name: &str, cfg: AgcmConfig| {
        let id = ensemble
            .try_submit(JobSpec::new(name, cfg).with_shared_store(Arc::clone(&store)))
            .unwrap();
        let record = wait_done(&ensemble, id);
        assert_eq!(record.status, JobStatus::Completed, "{name}");
        record
    };
    // Every reuse path must reproduce the solo runs bit for bit.
    let solo_6 = run_model(config(6)).ranks;
    let solo_10 = run_model(config(10)).ranks;

    // Cold run: pays for every step and seeds the lineage's prefix.
    let rec_a = submit("cold", config(6));
    assert_eq!(rec_a.resumed_from, None, "nothing to reuse on a cold run");
    let lineage = rec_a.lineage.expect("store-backed job records lineage");
    assert_eq!(lineage, config(6).lineage());
    assert_eq!(rec_a.outcome.as_ref(), Some(&solo_6), "cold run is solo");

    // Identical resubmission: the whole horizon is already committed, so
    // the run resumes at step 6 and recomputes nothing.
    let rec_b = submit("retry", config(6));
    assert_eq!(rec_b.resumed_from, Some(6), "full-prefix resume");
    assert_eq!(
        rec_b.outcome.as_ref(),
        Some(&solo_6),
        "reused run reproduces the solo outcomes bit-for-bit"
    );

    // Extended horizon, same lineage: starts from the 6-step commit and
    // only pays for the extension.
    let rec_c = submit("extend", config(10));
    assert_eq!(rec_c.resumed_from, Some(6), "extension reuses the prefix");
    assert_eq!(
        rec_c.lineage,
        Some(lineage),
        "same trajectory, same lineage"
    );
    assert_eq!(rec_c.outcome.as_ref(), Some(&solo_10), "extension is solo");

    // A knob that is inert while physics balancing is off: the lineage
    // differs (it is deliberately conservative), the trajectory does
    // not, so every checkpoint byte the twin ingests is already stored.
    let mut twin_cfg = config(6);
    twin_cfg.balance_rounds += 1;
    let twin = submit("twin", twin_cfg);
    assert_ne!(twin.lineage, Some(lineage), "the knob is in the lineage");
    assert_eq!(twin.resumed_from, None, "a new lineage is a cold run");
    assert_eq!(twin.outcome, rec_a.outcome, "same trajectory as cold");
    let stats = store.stats();
    assert!(
        stats.bytes_written < stats.bytes_ingested && stats.bytes_deduped > 0,
        "content addressing dedups the twin: {stats:?}"
    );

    // A different trajectory shares nothing.
    let rec_d = submit("other", config(6).with_physics_balancing());
    assert_eq!(rec_d.resumed_from, None, "different lineage is a cold run");

    ensemble.join();
    let stats = store.stats();
    assert_eq!(stats.leased_lineages, 0, "terminal jobs hold no leases");
    assert!(stats.prefix_hits >= 2 && stats.prefix_misses >= 2);

    // Re-lease the other trajectory, as a job still running would: GC
    // reclaims the unleased lineages and leaves the leased one readable.
    let other = rec_d.lineage.unwrap();
    store.acquire(other, u64::MAX);
    let report = store.gc().unwrap();
    assert!(report.lineages.contains(&lineage), "{report:?}");
    assert!(!report.lineages.contains(&other), "{report:?}");
    let last = *store.committed_steps(other).last().expect("a commit");
    for rank in 0..2 {
        let shard = store.get_shard(other, last, rank).unwrap();
        assert!(!shard.is_empty(), "rank {rank} shard at step {last}");
    }
    // Released, the last lineage goes too: the store drains.
    store.release(other, u64::MAX);
    store.gc().unwrap();
    let stats = store.stats();
    assert_eq!((stats.chunks, stats.live_bytes), (0, 0), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
