//! # ucla-agcm-repro — umbrella crate
//!
//! A reproduction of *Lou & Farrara, "Performance Analysis and Optimization
//! on the UCLA Parallel Atmospheric General Circulation Model Code"*
//! (SC 1996). This crate re-exports the workspace members so examples and
//! integration tests can reach everything through one dependency:
//!
//! * [`mps`] — message-passing substrate (threads-as-ranks, collectives,
//!   Cartesian meshes, tracing);
//! * [`costmodel`] — Intel Paragon / Cray T3D / IBM SP-2 machine profiles
//!   and the trace-driven execution-time simulator;
//! * [`fft`] — from-scratch FFTs, DFT and convolution baselines;
//! * [`grid`] — Arakawa C lat-lon grid, decomposition, halo exchange;
//! * [`filtering`] — the three polar-filter implementations (convolution,
//!   transpose FFT, load-balanced FFT);
//! * [`physics`] — column physics emulation and load-balancing schemes 1-3;
//! * [`kernels`] — the §4 single-node kernels the dynamical core runs on:
//!   row primitives, the three fused fd sweeps, the layout studies;
//! * [`dynamics`] — the finite-difference dynamical core;
//! * [`agcm`] — the assembled model and report formatting;
//! * [`resilience`] — checkpoint/restart and fault recovery (paired with
//!   the deterministic fault-injection plane in [`mps::fault`]);
//! * [`ensemble`] — batch serving of many model runs on a bounded
//!   rank-thread budget: admission control, priorities with backfill,
//!   soft deadlines with cooperative cancellation, checkpoint-backed
//!   retries, fleet metrics;
//! * [`singlenode`] — the single-node optimization study;
//! * [`telemetry`] — metrics registry, per-rank span timelines, Perfetto
//!   (Chrome trace-event) export with message-flow arrows, structured
//!   per-step/per-run records, and the trace-analysis engine
//!   (communication matrices, wait-state detection, critical-path
//!   extraction — `telemetry::analysis`).
//!
//! See `DESIGN.md` for the full system inventory and the per-experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use agcm_core as agcm;
pub use agcm_costmodel as costmodel;
pub use agcm_dynamics as dynamics;
pub use agcm_ensemble as ensemble;
pub use agcm_fft as fft;
pub use agcm_filtering as filtering;
pub use agcm_grid as grid;
pub use agcm_kernels as kernels;
pub use agcm_mps as mps;
pub use agcm_physics as physics;
pub use agcm_resilience as resilience;
pub use agcm_singlenode as singlenode;
pub use agcm_telemetry as telemetry;
