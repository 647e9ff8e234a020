//! # agcm-core — the assembled parallel AGCM
//!
//! The full model of the paper's Figure 1: a time-stepping main body whose
//! every step runs the Dynamics component (spectral filtering + finite
//! differences, `agcm-dynamics`) followed by the Physics component (column
//! processes, `agcm-physics`), on a 2-D processor mesh over the 2°×2.5°
//! grid. Pre/post-processing is a one-time setup, "absolutely dominant
//! [cost] is the main body".
//!
//! * [`config`] — run configuration: grid, mesh, timestep, filter variant,
//!   physics balancing;
//! * [`model`] — the driver: spawn the mesh, step the model, collect the
//!   execution trace and per-rank results. Every run goes through
//!   `agcm-resilience`'s recovery loop with one per-rank body;
//!   [`model::run_model_resilient`] gives it a checkpoint store, restarts
//!   and a fault plan, [`model::run_model`] none of them;
//! * [`report`] — fixed-width table formatting for the `reproduce`
//!   harness, including paper-vs-measured columns.
//!
//! Component times are not measured here: the run returns its execution
//! trace, and `agcm-costmodel`'s replay turns the traced phases into the
//! per-component seconds of Figure 1 and Tables 1–7.

pub mod config;
pub mod model;
pub mod report;

pub use config::{AgcmConfig, ConfigError};
pub use model::{
    run_model, run_model_resilient, try_run_model, ModelRun, RankOutcome, ResilienceOpts,
};
pub use report::Table;
