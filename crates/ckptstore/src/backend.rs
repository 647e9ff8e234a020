//! The [`ShardBackend`] adapter: one job's window onto the shared store.
//!
//! A `JobStoreBackend` binds a job's config lineage and horizon to the
//! fleet store. Shards route to `(lineage, step, rank)` slots; commits
//! publish into the lineage's prefix index. The crucial piece is
//! `committed_steps`: it reports commits *clamped to the job's own
//! horizon*, so when the recovery loop asks "what is the latest
//! committed step?" it receives the longest committed prefix another
//! job with the same lineage already paid for — never a step past this
//! job's end. Resuming exactly at the horizon means zero recomputed
//! steps; resuming below it recomputes only the tail.

use crate::store::Store;
use agcm_resilience::checkpoint::{RecordSource, RecordStream};
use agcm_resilience::coordinator::{ShardBackend, StoreError};
use std::sync::Arc;

/// One job's view of the shared [`Store`], for wiring into
/// `CheckpointStore::with_backend`.
pub struct JobStoreBackend {
    store: Arc<Store>,
    lineage: u64,
    horizon: u64,
}

impl JobStoreBackend {
    /// A backend for a job whose config lineage is `lineage` and whose
    /// run ends at step `horizon` (`cfg.steps`).
    pub fn new(store: Arc<Store>, lineage: u64, horizon: u64) -> JobStoreBackend {
        JobStoreBackend {
            store,
            lineage,
            horizon,
        }
    }

    /// The lineage this backend reads and writes.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }
}

impl ShardBackend for JobStoreBackend {
    fn put_shard(
        &self,
        step: u64,
        rank: u32,
        world: u32,
        record: &dyn RecordSource,
    ) -> Result<(), StoreError> {
        self.store
            .put_shard_from(self.lineage, step, rank, world, record)
    }

    fn commit(&self, step: u64, world: u32) -> Result<(), StoreError> {
        self.store.commit(self.lineage, step, world)
    }

    fn committed_steps(&self) -> Vec<u64> {
        self.store
            .committed_steps(self.lineage)
            .into_iter()
            .filter(|s| *s <= self.horizon)
            .collect()
    }

    fn open_shard(&self, step: u64, rank: u32) -> Result<Box<dyn RecordStream + '_>, StoreError> {
        let shard = self.store.open_shard(self.lineage, step, rank)?;
        Ok(Box::new(shard))
    }

    fn shard_count(&self, step: u64) -> usize {
        self.store.shard_count(self.lineage, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "agcm-ckptstore-backend-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn horizon_clamps_visible_commits() {
        let store = Arc::new(Store::open(scratch("clamp")).unwrap());
        let writer = JobStoreBackend::new(store.clone(), 0x11, 40);
        for step in [10u64, 20, 40] {
            writer
                .put_shard(step, 0, 1, &&[step as u8; 64][..])
                .unwrap();
            writer.commit(step, 1).unwrap();
        }
        // A shorter-horizon job with the same lineage sees only the
        // prefix it can use; the resume point is its own horizon when a
        // commit lands exactly there.
        let short = JobStoreBackend::new(store.clone(), 0x11, 20);
        assert_eq!(short.committed_steps(), vec![10, 20]);
        let mid = JobStoreBackend::new(store.clone(), 0x11, 25);
        assert_eq!(mid.committed_steps(), vec![10, 20]);
        let long = JobStoreBackend::new(store.clone(), 0x11, 100);
        assert_eq!(long.committed_steps(), vec![10, 20, 40]);
        // A different lineage sees nothing.
        let other = JobStoreBackend::new(store.clone(), 0x12, 100);
        assert!(other.committed_steps().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }
}
