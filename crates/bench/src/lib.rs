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
//! * [`profile`] — the `reproduce profile` report: in-process sampling
//!   profiler over a real run, flamegraph, and the measured-vs-modeled
//!   skew join, with machine-checked invariants;
//! * [`history`] — `bench_history.jsonl` records and the median+MAD
//!   trend gate behind `reproduce bench-check`;
//! * [`peak`] — the add+mul peak probe behind `bench-filter`'s stated
//!   bound;
//! * [`alloccount`] — the counting global allocator the `reproduce`
//!   binary installs for allocation-freedom checks;
//! * the `reproduce` binary — prints each table with paper-reported and
//!   model-measured columns side by side; its `singlenode`,
//!   `bench-filter` and `bench-kernels` subcommands time the paper's
//!   kernel pairs against their stated bounds (the regression gate's
//!   absolute per-layer numbers live in `benchmark/`).

pub mod alloccount;
pub mod analyze;
pub mod ensemble;
pub mod harness;
pub mod history;
pub mod kernels;
pub mod paper;
pub mod peak;
pub mod profile;
pub mod serve;
pub mod store;
