//! # agcm-kernels — the paper's §4 single-node optimizations on the real
//! dynamics operators
//!
//! The source paper's second half (§3.4/§4) is about making one node
//! fast: eliminating redundant computation in nested loops, restructuring
//! loops so they stream through memory, the pointwise vector-multiply
//! primitive, and the block-array `f(m,i,j,k)` vs separate-array layout
//! comparison. This crate packages those techniques as flat-slice kernels
//! that the production dynamics (`agcm-dynamics`) runs through on every
//! timestep:
//!
//! * [`view`] — borrowed flat views over halo-padded storage, and the
//!   five exact-length rows of a stencil the row primitives read;
//! * [`tendency`] — the row primitives of the gradients, the flux-form
//!   divergence and the momentum / field updates, reading precomputed
//!   per-latitude [`agcm_grid::MetricTables`], and the whole-field kernels
//!   that loop them;
//! * [`advect`] — the upwind advection operator as a branch-free row
//!   primitive, whole-field in both the separate and block-interleaved
//!   layouts so the paper's layout study runs on the real operator;
//! * [`sweeps`] — the production path: the timestep's finite-difference
//!   phase as three row-fused sweeps (continuity, momentum, tracers) built
//!   from those primitives, tendencies in L1-sized row buffers;
//! * [`agcm_grid::dispatch`] — the one runtime SIMD dispatch (portable /
//!   AVX2 / AVX-512F compilations of a safe body) the sweeps, the flat
//!   upwind kernel and the stencil go through, as the column physics does;
//! * [`stencil`] — the 7-point Laplace stencil of the §3.4 cache
//!   experiment, separate vs block layout, over flat slices;
//! * [`pointwise`] — the pointwise vector-multiply primitive (Eq. 4);
//! * [`scratch`] — [`scratch::DynScratch`], a reusable workspace (the
//!   `FftWorkspace` pattern) so a warmed-up timestep allocates nothing.
//!
//! **Bit-identity contract.** Every kernel evaluates the *same*
//! floating-point expressions in the *same order* as the `from_fn`
//! reference implementations in `agcm-dynamics` (and the transliterated
//! study code in `agcm-singlenode`); hoisting a row-constant subexpression
//! out of the inner loop does not change its value, and divisions by
//! hoisted denominators stay divisions. Each expression has one
//! definition — a row primitive — whichever kernel reaches it. Two
//! rewrites go beyond hoisting, and both are exact:
//!
//! * *Select, then divide.* The reference upwind difference divides
//!   inside each arm of `if u >= 0 { (q_c − q_w)/dx } else { (q_e − q_c)/dx }`;
//!   the row primitive selects the numerator and divides once. The
//!   predicate is the same comparison on the same value (so `−0.0` takes
//!   the first arm and NaN the second, as before) and the same two
//!   operands reach the same correctly-rounded `/`: no bit can differ.
//!   What changes is that the loop has no branch left and vectorizes.
//! * *Width.* Each output point's operation chain uses only that point's
//!   inputs, so a SIMD lane performs exactly the scalar sequence; nothing
//!   is summed across lanes, no `mul_add` is written and Rust never fuses
//!   `a * b + c` on its own. A wider compilation of the same body cannot
//!   reorder anything within a chain.
//!
//! The equivalence tests in `tests/` (and the root `tests/fd_sweeps.rs`)
//! enforce exact `f64` equality across mesh shapes, pole rows, row widths
//! with vector tails, both layouts and every dispatch target the CPU has.

pub mod advect;
pub mod pointwise;
pub mod scratch;
pub mod stencil;
pub mod sweeps;
pub mod tendency;
pub mod view;

pub use scratch::DynScratch;
pub use view::HaloView;
