//! # agcm-dynamics — the finite-difference dynamical core
//!
//! "AGCM/Dynamics … computes the evolution of the fluid flow governed by
//! the primitive equations by means of finite-differences" (paper §2),
//! preceded each step by the spectral filtering near the poles. This crate
//! provides a multi-layer shallow-water core on the uniform lat-lon grid —
//! the standard reduced form of the primitive equations that exhibits the
//! same computational structure: nearest-neighbour stencils, ghost-point
//! exchange, fast inertia-gravity waves that violate the CFL condition at
//! the poles unless filtered, and per-point flop counts dominated by
//! advection and pressure-gradient terms.
//!
//! (Substitution note, cf. DESIGN.md: variables are collocated rather than
//! C-staggered in the difference operators — the staggering metadata lives
//! in `agcm-grid::arakawa` — which changes none of the parallel structure
//! the paper measures: stencil footprint, halo width, flops per point.)
//!
//! * [`state`] — the prognostic model state (u, v, h/θ, p, q, o₃ per rank);
//! * [`advection`] — tracer advection, in the naive and restructured forms
//!   of the paper's single-node study (§3.4: −35% on a T3D node);
//! * [`tendencies`] — Coriolis, pressure-gradient and mass-flux terms;
//! * [`timestep`] — forward-backward/leapfrog stepping with an
//!   Asselin-Robert filter and CFL accounting;
//! * [`core`] — the per-step driver: polar filter → halo exchange →
//!   tendencies → advance, with flops and phases traced.

pub mod advection;
pub mod core;
pub mod state;
pub mod tendencies;
pub mod timestep;

pub use crate::core::{Dynamics, DynamicsConfig};
pub use state::ModelState;
