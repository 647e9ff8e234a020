//! A resume at the run's horizon folds its shard; a resume short of it
//! decodes the shard into a state. Both read the record through one
//! parser and check it against the run with one `misfit`, so every shard
//! the decode refuses the fold must refuse too, with the same error:
//! never a panic, never an outcome.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ucla_agcm_repro::agcm::{run_model_resilient, AgcmConfig, ResilienceOpts};
use ucla_agcm_repro::dynamics::ModelState;
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::history::ByteOrder;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::grid::Decomp;
use ucla_agcm_repro::resilience::{
    write_atomic, CheckpointStore, ModelCheckpoint, RecoveryError, StoreError,
};

/// The step the shard is committed at.
const H: u64 = 3;

fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("agcm-refusal-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> AgcmConfig {
    AgcmConfig::for_grid(GridSpec::new(24, 12, 2), 1, 1, FilterVariant::LbFft)
}

/// The shard a run of [`cfg`] would commit at step `H`.
fn good_shard() -> ModelCheckpoint {
    let cfg = cfg();
    let sub = Decomp::new(cfg.grid, 1, 1).subdomain_of_rank(0);
    ModelCheckpoint {
        rank: 0,
        world: 1,
        step: H,
        seeds: Vec::new(),
        scalars: vec![0.0, 0.0],
        series: vec![1.0e6; H as usize],
        fields: ModelState::initial(cfg.grid, sub).fields,
    }
}

/// Commit `record` as rank 0's shard of step `H` at `dir`.
fn commit_record(dir: &Path, record: &[u8]) {
    let step_dir = dir.join(format!("step_{H:08}"));
    fs::create_dir_all(&step_dir).unwrap();
    write_atomic(&step_dir.join("rank_0000.agck"), record).unwrap();
    CheckpointStore::new(dir).commit(H, 1).unwrap();
}

/// Bad shards, each with whether the store (`true`) or the run's fit
/// (`false`) refuses it.
fn bad_shards() -> Vec<(&'static str, Vec<u8>, bool)> {
    let encode = |edit: &dyn Fn(&mut ModelCheckpoint)| {
        let mut ckpt = good_shard();
        edit(&mut ckpt);
        ckpt.encode(ByteOrder::Little)
    };
    let good = encode(&|_| {});
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x10;
    let cut = good[..good.len() - 100].to_vec();
    let other_grid = GridSpec::new(12, 12, 2);
    let other_sub = Decomp::new(other_grid, 1, 1).subdomain_of_rank(0);
    vec![
        ("flipped payload byte", flipped, true),
        ("cut short", cut, true),
        ("another world size", encode(&|c| c.world = 2), false),
        (
            "another field shape",
            encode(&|c| c.fields = ModelState::initial(other_grid, other_sub).fields),
            false,
        ),
        ("three scalars", encode(&|c| c.scalars.push(0.0)), false),
        ("another step", encode(&|c| c.step = H + 7), false),
    ]
}

#[test]
fn the_fold_refuses_every_shard_the_decode_refuses_alike() {
    for (tag, record, store_refuses) in bad_shards() {
        let dir = scratch(tag);
        commit_record(&dir, &record);
        // At the horizon (fold) and one step short of it (decode).
        let [fold, decode] = [H, H + 1].map(|steps| {
            let cfg = cfg().with_steps(steps as usize);
            run_model_resilient(cfg, ResilienceOpts::new(&dir))
                .map(|run| run.ranks)
                .unwrap_err()
        });
        assert_eq!(fold, decode, "{tag}");
        if store_refuses {
            assert!(
                matches!(fold, RecoveryError::Store(StoreError::Format(_))),
                "{tag}: {fold:?}"
            );
        } else {
            assert!(
                matches!(
                    fold,
                    RecoveryError::ForeignCheckpoint {
                        step: H,
                        rank: 0,
                        ..
                    }
                ),
                "{tag}: {fold:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_good_shard_resumes_both_ways() {
    let dir = scratch("good");
    commit_record(&dir, &good_shard().encode(ByteOrder::Little));
    for steps in [H, H + 1] {
        let run = run_model_resilient(cfg().with_steps(steps as usize), ResilienceOpts::new(&dir))
            .unwrap();
        assert!(run.ranks[0].stable, "steps {steps}");
        assert_eq!(run.ranks[0].physics_loads.len(), steps as usize);
    }
    let _ = fs::remove_dir_all(&dir);
}
