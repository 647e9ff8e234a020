//! # agcm-ckptstore — content-addressed fleet-wide checkpoint store
//!
//! Every ensemble job used to checkpoint into a private directory and
//! recompute from step 0. At serving scale the dominant saving is not a
//! faster kernel but *reuse*: the fleet's workload is full of identical
//! retries and near-duplicate scenarios whose trajectories share a
//! prefix, and the paper's checkpoint/restart discipline (reproduced in
//! `agcm-resilience`) makes model state bit-identical and therefore
//! safe to key on. This crate turns those checkpoints into a shared,
//! deduplicated store:
//!
//! * [`store::Store`] — chunks each encoded `ModelCheckpoint` record,
//!   as it streams in, into FNV-1a-addressed content chunks written
//!   outside the store's lock behind one fsync barrier per shard,
//!   refcounts them across jobs, and persists a checksummed metadata
//!   index through the resilience coordinator's `write_atomic` (tmp,
//!   fsync, rename);
//! * the **prefix index** — per config-lineage commit sets, so a job
//!   whose `AgcmConfig` lineage matches an earlier run resumes from the
//!   longest committed step at or below its own horizon instead of
//!   step 0 ([`store::Store::longest_prefix`]);
//! * **leases + GC** — live jobs hold leases on their lineage;
//!   [`store::Store::gc`] reclaims only unleased lineages, decrementing
//!   chunk refcounts and deleting chunks that reach zero, so terminal
//!   cleanup can never drop a chunk another job still references;
//! * [`backend::JobStoreBackend`] — the
//!   [`agcm_resilience::ShardBackend`] adapter that routes one job's
//!   shards into the shared store, clamping visible commits to the
//!   job's own horizon (the clamp *is* the longest-matching-prefix
//!   rule).
//!
//! The crate is std-only and speaks encoded checkpoint records, never
//! model types: its only upstream dependency is the resilience crate's
//! trait surface and error type.

pub mod backend;
pub mod store;

/// The repo's one checksum, re-exported for crates (the server journal)
/// that frame lines the way the index does without a resilience edge.
pub use agcm_resilience::fnv1a;
pub use backend::JobStoreBackend;
pub use store::{GcReport, Store, StoreStats};
