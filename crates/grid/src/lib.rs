//! # agcm-grid — the AGCM's spherical grid and its parallel decomposition
//!
//! The UCLA AGCM discretizes the atmosphere on a three-dimensional staggered
//! grid: an Arakawa C-mesh in the horizontal (latitude × longitude) with a
//! relatively small number of vertical layers (paper §2). The parallel code
//! partitions this grid two-dimensionally in the horizontal plane — columns
//! stay whole because vertical processes couple grid points strongly.
//!
//! * [`latlon`] — grid specification: the paper's 2° × 2.5° horizontal
//!   resolution (144 × 90 points) with 9 or 15 layers, latitude geometry,
//!   zonal grid spacing and the CFL analysis that motivates polar filtering;
//! * [`arakawa`] — C-grid staggering and the model's prognostic variables,
//!   including which are strongly/weakly filtered;
//! * [`field`] — field storage in both layouts compared by the paper's
//!   single-node study: one array per variable ([`field::Field3D`]) and the
//!   block-oriented `f(m,i,j,k)` array ([`field::BlockField`]);
//! * [`decomp`] — the 2-D horizontal domain decomposition over an M×N
//!   processor mesh;
//! * [`halo`] — the ghost-framed field the model state is stored in
//!   ([`halo::HaloField`], its storage recycled from one field to the
//!   next) and the ghost-point exchange between neighbouring subdomains
//!   (periodic in longitude, bounded at the poles);
//! * [`metrics`] — precomputed per-latitude metric tables (cos φ,
//!   half-latitude cos, reciprocal spacings): the paper's §3.4
//!   redundant-computation elimination, shared by the `agcm-kernels`
//!   flat kernels;
//! * [`dispatch`] — the one runtime SIMD dispatch (portable / AVX2 /
//!   AVX-512F compilations of a safe body) of the dynamics kernels and
//!   the column physics;
//! * [`history`] — the byte order a record is written in (the paper had
//!   to write a byte-order reversal routine to read NetCDF history data on
//!   the Paragon; here the model checkpoint record carries it).

pub mod arakawa;
pub mod decomp;
pub mod dispatch;
pub mod field;
pub mod halo;
pub mod history;
pub mod latlon;
pub mod metrics;
mod recycle;

pub use decomp::{Decomp, Subdomain};
pub use field::{BlockField, Field3D};
pub use latlon::GridSpec;
pub use metrics::MetricTables;
