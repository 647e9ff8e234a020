//! The [`ShardBackend`] adapter: one job's window onto the shared store.
//!
//! A `JobStoreBackend` binds a job's config lineage to the fleet store.
//! Shards route to `(lineage, step, rank)` slots; commits publish into
//! the lineage's prefix index, and `committed_steps` reports every step
//! any job of that lineage committed. The recovery loop resumes from the
//! latest of them at or below the run's own horizon — the longest
//! committed prefix another job already paid for, never a step past this
//! job's end — as it does for every backend. Resuming exactly at the
//! horizon means zero recomputed steps; resuming below it recomputes only
//! the tail.

use crate::store::Store;
use agcm_resilience::checkpoint::{RecordSource, RecordStream};
use agcm_resilience::coordinator::{ShardBackend, StoreError};
use std::sync::Arc;

/// One job's view of the shared [`Store`], for wiring into
/// `CheckpointStore::with_backend`.
pub struct JobStoreBackend {
    store: Arc<Store>,
    lineage: u64,
}

impl JobStoreBackend {
    /// A backend for a job whose config lineage is `lineage`.
    pub fn new(store: Arc<Store>, lineage: u64) -> JobStoreBackend {
        JobStoreBackend { store, lineage }
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
        self.store.committed_steps(self.lineage)
    }

    fn open_shard(&self, step: u64, rank: u32) -> Result<Box<dyn RecordStream + '_>, StoreError> {
        let shard = self.store.open_shard(self.lineage, step, rank)?;
        Ok(Box::new(shard))
    }

    fn shard_count(&self, step: u64) -> usize {
        self.store.shard_count(self.lineage, step)
    }
}
