//! # agcm-resilience — checkpoint/restart and fault recovery
//!
//! The paper's production runs were long: multi-year simulations at
//! hundreds of node-hours, on machines whose nodes failed. This crate adds
//! the fault-tolerance layer the reproduction needs to run at that scale:
//!
//! * [`checkpoint`] — a versioned, checksummed multi-field model
//!   checkpoint record (dynamics state, physics state, RNG seeds, timestep
//!   counter) that records its writer's byte order and is read on a
//!   machine of either order (the paper's byte-order reversal routine),
//!   written and read as a stream (one traversal, no record-sized
//!   buffer) through the sink/source pair every shard store speaks;
//! * [`coordinator`] — a per-rank shard store with an atomic rename commit
//!   protocol: a checkpoint exists only once every shard is in place and
//!   the `COMMIT` manifest has been published;
//! * [`durable`] — the one durable-write path of the workspace: publish
//!   (tmp, fsync, rename, fsync the directory) for one file or a batch,
//!   and the append-only line log the server's journal and event log
//!   share;
//! * [`recovery`] — the restart loop every model run goes through: run
//!   under a fault plan, detect rank deaths (surfaced by `agcm-mps` as
//!   typed failures, not panics), resume from the latest checkpoint
//!   committed at or below the run's horizon, and verify nothing by luck —
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
pub mod durable;
pub mod metrics;
pub mod recovery;

pub use checkpoint::{fnv1a, frame_line, unframe_line, CheckpointError, ModelCheckpoint};
pub use coordinator::{write_coordinated, CheckpointStore, ShardBackend, StoreError};
pub use durable::write_atomic;
pub use metrics::ResilienceMetrics;
pub use recovery::{
    run_recovered, AttemptFailure, RecoveryError, ResilienceOpts, RunProgress, RunReport,
};
