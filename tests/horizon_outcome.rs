//! A run resumed at its own horizon (a resubmission) folds its shard
//! instead of decoding it: it streams the record once and folds each
//! row into the outcome, building no state. Its outcome must be the one
//! a decoded state gives, bit for bit — `max_wind`, `stable` and the
//! load series — and both must be the serial definitions (every value
//! finite; the largest |u|, |v|), computed here without the lane folds.
//!
//! A run never resumes past its own horizon: whatever else the store
//! holds, every backend resumes at the latest commit at or below it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use agcm_ckptstore::{JobStoreBackend, Store};
use ucla_agcm_repro::agcm::{
    run_model, run_model_resilient, AgcmConfig, RankOutcome, ResilienceOpts,
};
use ucla_agcm_repro::dynamics::ModelState;
use ucla_agcm_repro::ensemble::{Ensemble, EnsembleConfig, JobSpec, JobStatus, JobView};
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::arakawa::Variable;
use ucla_agcm_repro::grid::history::ByteOrder;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::grid::Decomp;
use ucla_agcm_repro::resilience::{
    fnv1a, run_recovered, write_atomic, CheckpointStore, ModelCheckpoint, ShardBackend,
};

/// The step every shard here is committed at: the runs' horizon.
const H: u64 = 4;

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("agcm-horizon-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Commit `records`, one per rank in rank order, as step `H` of the
/// directory store at `dir`.
fn commit_records(dir: &Path, records: &[Vec<u8>]) {
    let step_dir = dir.join(format!("step_{H:08}"));
    fs::create_dir_all(&step_dir).unwrap();
    for (rank, record) in records.iter().enumerate() {
        write_atomic(&step_dir.join(format!("rank_{rank:04}.agck")), record).unwrap();
    }
    CheckpointStore::new(dir)
        .commit(H, records.len() as u32)
        .unwrap();
}

/// Rank `rank`'s shard of `cfg` at step `H`: the initial state after
/// `edit`, with a load series no run would give by accident.
fn shard(cfg: &AgcmConfig, rank: usize, edit: &dyn Fn(&mut ModelState)) -> ModelCheckpoint {
    let sub = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon).subdomain_of_rank(rank);
    let mut state = ModelState::initial(cfg.grid, sub);
    edit(&mut state);
    ModelCheckpoint {
        rank: rank as u32,
        world: cfg.size() as u32,
        step: H,
        seeds: Vec::new(),
        scalars: vec![1.0, 2.5e6],
        series: (0..H)
            .map(|s| 1.0e6 + 0.25 * s as f64 + rank as f64)
            .collect(),
        fields: state.fields,
    }
}

/// A version-1 record: the version-2 one with the version it declares
/// and the FNV-1a trailer of that version.
fn version_1(ckpt: &ModelCheckpoint) -> Vec<u8> {
    let mut record = ckpt.encode(ByteOrder::Little);
    record[8..12].copy_from_slice(&1u32.to_le_bytes());
    let body = record.len() - 8;
    let sum = fnv1a(&record[..body]);
    record[body..].copy_from_slice(&sum.to_le_bytes());
    record
}

/// Commit every rank's shard of `cfg` (each `edit`ed, each encoded by
/// `encode`), resume `cfg` at its horizon, and check each rank's outcome
/// against its shard decoded into a state and scanned.
fn assert_fold_is_decode(
    tag: &str,
    cfg: AgcmConfig,
    edit: &dyn Fn(&mut ModelState),
    encode: &dyn Fn(&ModelCheckpoint) -> Vec<u8>,
) -> Vec<RankOutcome> {
    let dir = scratch(tag);
    let records: Vec<_> = (0..cfg.size())
        .map(|rank| encode(&shard(&cfg, rank, edit)))
        .collect();
    commit_records(&dir, &records);
    let cfg = cfg.with_steps(H as usize).with_checkpointing(H as usize);
    let run = run_model_resilient(cfg, ResilienceOpts::new(&dir)).unwrap();
    assert_eq!(run.attempts, 1, "{tag}");
    let decomp = Decomp::new(cfg.grid, cfg.mesh_lat, cfg.mesh_lon);
    let store = CheckpointStore::new(&dir);
    for (rank, folded) in run.ranks.iter().enumerate() {
        let ckpt = store.load_shard(H, rank as u32).unwrap();
        let series = ckpt.series.clone();
        let state = ModelState {
            fields: ckpt.fields,
            sub: decomp.subdomain_of_rank(rank),
            grid: cfg.grid,
        };
        let serial_max = [Variable::U, Variable::V]
            .iter()
            .flat_map(|&v| state.field(v).interior_rows().flatten())
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        let serial_finite = state
            .fields
            .iter()
            .all(|f| f.interior_rows().flatten().all(|x| x.is_finite()));
        let at = format!("{tag}, rank {rank}");
        assert_eq!(
            folded.max_wind.to_bits(),
            state.max_wind().to_bits(),
            "{at}"
        );
        assert_eq!(folded.max_wind.to_bits(), serial_max.to_bits(), "{at}");
        assert_eq!(folded.stable, !state.has_blown_up(), "{at}");
        assert_eq!(folded.stable, serial_finite, "{at}");
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&folded.physics_loads), bits(&series), "{at}");
    }
    let _ = fs::remove_dir_all(&dir);
    run.ranks
}

fn little(ckpt: &ModelCheckpoint) -> Vec<u8> {
    ckpt.encode(ByteOrder::Little)
}

fn unchanged(_: &mut ModelState) {}

/// A small grid whose rows (37 values) end in a ragged tail of the
/// eight-lane folds.
fn ragged() -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(37, 10, 3), 1, 1, FilterVariant::LbFft)
}

#[test]
fn paper_grid_shards_fold_to_their_decoded_outcome() {
    for (tag, cfg) in [
        ("paper-1x1", AgcmConfig::paper(1, 1, FilterVariant::LbFft)),
        ("paper-1x2", AgcmConfig::paper(1, 2, FilterVariant::LbFft)),
    ] {
        let ranks = assert_fold_is_decode(tag, cfg, &unchanged, &little);
        assert_eq!(ranks.len(), cfg.size());
        assert!(ranks.iter().all(|r| r.stable && r.max_wind > 10.0), "{tag}");
    }
}

#[test]
fn non_finite_values_outside_the_winds_fold_to_unstable_with_the_same_wind() {
    let clean = assert_fold_is_decode("clean", ragged(), &unchanged, &little);
    for (tag, bad) in [
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
        ("-inf", f64::NEG_INFINITY),
    ] {
        let poison = |s: &mut ModelState| {
            s.field_mut(Variable::Theta).set(36, 9, 2, bad);
            s.field_mut(Variable::Ozone).set(3, 0, 0, f64::INFINITY);
        };
        let ranks = assert_fold_is_decode(tag, ragged(), &poison, &little);
        assert!(!ranks[0].stable, "{tag}");
        assert_eq!(ranks[0].max_wind.to_bits(), clean[0].max_wind.to_bits());
    }
}

#[test]
fn signed_zeros_and_negative_winds_fold_to_their_decoded_outcome() {
    let zeros = |s: &mut ModelState| {
        for v in [Variable::U, Variable::V, Variable::Humidity] {
            s.field_mut(v)
                .interior_rows_mut()
                .flatten()
                .for_each(|x| *x = -0.0);
        }
    };
    let ranks = assert_fold_is_decode("zeros", ragged(), &zeros, &little);
    assert_eq!(ranks[0].max_wind.to_bits(), 0.0f64.to_bits());
    assert!(ranks[0].stable);

    // Every wind negative and |v| the largest: a fold of signed values or
    // of |u| alone would miss it.
    let negative = |s: &mut ModelState| {
        for (v, scale) in [(Variable::U, 1.0), (Variable::V, 300.0)] {
            for x in s.field_mut(v).interior_rows_mut().flatten() {
                *x = -(scale * x.abs() + 50.0);
            }
        }
    };
    let ranks = assert_fold_is_decode("negative", ragged(), &negative, &little);
    // |u| stays under 100 here; only |v| reaches past 150.
    assert!(ranks[0].max_wind > 150.0 && ranks[0].stable);
}

#[test]
fn big_endian_and_version_1_records_fold_to_their_decoded_outcome() {
    let big = |c: &ModelCheckpoint| c.encode(ByteOrder::Big);
    let cfg = AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 1, 2, FilterVariant::LbFft);
    for (tag, encode) in [
        ("big-endian", &big as &dyn Fn(&ModelCheckpoint) -> Vec<u8>),
        ("version-1", &version_1),
    ] {
        let ranks = assert_fold_is_decode(tag, cfg, &unchanged, encode);
        assert!(ranks.iter().all(|r| r.stable && r.max_wind > 10.0), "{tag}");
    }
}

/// A two-rank run of `steps` steps that commits every six.
fn six_step_commits(steps: usize) -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(24, 12, 2), 1, 2, FilterVariant::LbFft)
        .with_steps(steps)
        .with_checkpointing(6)
}

#[test]
fn a_shorter_run_on_a_directory_store_ignores_a_commit_past_its_horizon() {
    let dir = scratch("past-dir");
    run_model_resilient(six_step_commits(6), ResilienceOpts::new(&dir)).unwrap();
    assert_eq!(CheckpointStore::new(&dir).committed_steps(), vec![6]);
    let short = run_model_resilient(six_step_commits(4), ResilienceOpts::new(&dir)).unwrap();
    assert_eq!(short.attempts, 1);
    assert_eq!(short.ranks, run_model(six_step_commits(4)).ranks);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_shorter_ensemble_job_on_a_checkpoint_dir_ignores_a_commit_past_its_horizon() {
    let dir = scratch("past-ensemble");
    let ensemble = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        ..EnsembleConfig::default()
    });
    let submit = |name: &str, cfg: AgcmConfig| {
        let id = ensemble
            .try_submit(JobSpec::new(name, cfg).with_checkpoint_dir(&dir))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(JobView::Done(record)) = ensemble.status(id) {
                assert_eq!(record.status, JobStatus::Completed, "{name}");
                return record.outcome;
            }
            assert!(Instant::now() < deadline, "{name} should finish");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    submit("long", six_step_commits(6));
    let short = submit("short", six_step_commits(4));
    ensemble.join();
    assert_eq!(short, Some(run_model(six_step_commits(4)).ranks));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_shared_store_resumes_at_the_latest_commit_at_or_below_the_horizon() {
    let root = scratch("past-shared");
    let store = Arc::new(Store::open(&root).unwrap());
    let writer = JobStoreBackend::new(store.clone(), 0x11);
    for step in [10u64, 20, 40] {
        writer
            .put_shard(step, 0, 1, &&[step as u8; 64][..])
            .unwrap();
        writer.commit(step, 1).unwrap();
    }
    // The backend shows every commit of its lineage; the loop picks.
    assert_eq!(writer.committed_steps(), vec![10, 20, 40]);
    for (lineage, horizon, want) in [
        // The resume point is the horizon itself when a commit lands
        // exactly there, and the commit below it otherwise.
        (0x11, 20, Some(20)),
        (0x11, 25, Some(20)),
        (0x11, 100, Some(40)),
        // Another lineage sees nothing and starts cold.
        (0x12, 100, None),
    ] {
        let backend = JobStoreBackend::new(store.clone(), lineage);
        let opts = ResilienceOpts::from_store(
            CheckpointStore::new(root.join("unused")).with_backend(Arc::new(backend)),
        );
        let report = run_recovered(1, horizon, &opts, |_, resume| Ok(resume)).unwrap();
        assert_eq!(
            report.ranks,
            vec![want],
            "lineage {lineage:#x}, horizon {horizon}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
