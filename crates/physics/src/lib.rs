//! # agcm-physics — column physics and its load balancing
//!
//! "The Physics component of the AGCM code consists of a large amount of
//! local computations with no interprocessor communication required …
//! it is only the load-imbalance in the column physics processing that
//! drags down the parallel efficiency" (paper §3.4). "The amount of
//! computation required at each grid point is determined by several
//! factors, including whether it is day or night, the cloud distribution,
//! and the amount of cumulus convection determined by the conditional
//! stability of the atmosphere."
//!
//! This crate emulates exactly those cost drivers and implements the three
//! load-balancing schemes the paper weighs:
//!
//! * [`radiation`] — solar geometry (day/night), shortwave and an
//!   O(levels²) longwave exchange kernel;
//! * [`clouds`] — a deterministic, spatially-correlated, time-evolving
//!   cloud field ("unpredictability of the cloud distribution");
//! * [`convection`] — conditionally-triggered cumulus adjustment with a
//!   data-dependent iteration count;
//! * [`forcing`] — the per-latitude and per-longitude tables every
//!   transcendental of a pass is hoisted into;
//! * [`kernel`] — the batch kernel that advances a latitude row (or any
//!   packed list of columns) side by side, allocation-free;
//! * [`step`] — one rank's physics pass over that kernel, and the original
//!   per-column formulation kept as its test oracle;
//! * [`load`] — load estimation from the previous pass's measured cost
//!   (the paper's §3.4 estimator) and the imbalance metric of Tables 1–3;
//! * [`balance`] — scheme 1 (cyclic all-to-all shuffle, Figure 4),
//!   scheme 2 (sorted greedy moves, Figure 5), scheme 3 (iterated pairwise
//!   exchange, Figure 6 — the adopted design), plus the executor that
//!   actually moves columns between ranks.

pub mod balance;
pub mod clouds;
pub mod convection;
pub mod forcing;
pub mod kernel;
pub mod load;
pub mod radiation;
pub mod step;

pub use balance::{BalanceScheme, Transfer};
pub use forcing::ColumnCost;
pub use load::imbalance;
pub use step::{PhysicsConfig, PhysicsStep};
