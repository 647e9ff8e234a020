//! # agcm-bench — the reproduction harness
//!
//! Regenerates every table and figure of Lou & Farrara (SC'96):
//!
//! * [`paper`] — the paper's reported numbers, transcribed;
//! * [`harness`] — traced experiment runners and the trace→seconds
//!   conversion through `agcm-costmodel`, with the single calibration
//!   anchor per machine (the 1×1 Dynamics entry of Tables 4/6);
//! * [`analyze`] — the `reproduce analyze` report, and the [`analyze::Checks`]
//!   reporter every machine-checked report ends in;
//! * [`peak`] — the add+mul peak probe behind `bench-filter`'s stated
//!   bound;
//! * the `reproduce` binary — prints each table with paper-reported and
//!   model-measured columns side by side; its `singlenode`,
//!   `bench-filter` and `bench-kernels` subcommands time the paper's
//!   kernel pairs against their stated bounds. They report; performance
//!   regressions are judged only by `benchmark/`.
//!
//! The serving stack built on the model (scheduler, HTTP server, shared
//! checkpoint store) is not driven from here: its end-to-end checks are
//! the integration tests of `agcm-ensemble` and `agcm-server`.

pub mod analyze;
pub mod harness;
pub mod kernels;
pub mod paper;
pub mod peak;
