//! # agcm-resilience — checkpoint/restart and fault recovery
//!
//! The paper's production runs were long: multi-year simulations at
//! hundreds of node-hours, on machines whose nodes failed. This crate adds
//! the fault-tolerance layer the reproduction needs to run at that scale:
//!
//! * [`checkpoint`] — a versioned, checksummed multi-field model
//!   checkpoint record (dynamics state, physics state, RNG seeds, timestep
//!   counter), extending the single-field history snapshot of
//!   `agcm_grid::history` and sharing its explicit byte-order discipline,
//!   written and read as a stream (one traversal, no record-sized
//!   buffer) through the sink/source pair every shard store speaks;
//! * [`coordinator`] — a per-rank shard store with an atomic rename commit
//!   protocol: a checkpoint exists only once every shard is in place and
//!   the `COMMIT` manifest has been published;
//! * [`recovery`] — the restart loop: run under a fault plan, detect rank
//!   deaths (surfaced by `agcm-mps` as typed failures, not panics), resume
//!   from the latest committed checkpoint, and verify nothing by luck —
//!   the model being a deterministic function of (state, step) makes
//!   recovered runs bit-identical to uninterrupted ones;
//! * [`metrics`] — counters aggregating what the fault plane and recovery
//!   loop did.
//!
//! Fault *injection* itself lives in `agcm_mps::fault`, inside the
//! message-passing substrate, so collectives and the model exercise faults
//! without code changes; this crate is the consumer that turns those
//! faults into recoveries.

pub mod checkpoint;
pub mod coordinator;
pub mod metrics;
pub mod recovery;

pub use checkpoint::{fnv1a, CheckpointError, ModelCheckpoint};
pub use coordinator::{write_atomic, write_coordinated, CheckpointStore, ShardBackend, StoreError};
pub use metrics::ResilienceMetrics;
pub use recovery::{
    run_recovered, AttemptFailure, RecoveryError, RecoveryOptions, RunProgress, RunReport,
};
