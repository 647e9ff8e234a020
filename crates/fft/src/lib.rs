//! # agcm-fft — Fourier transforms for the polar spectral filter
//!
//! The UCLA AGCM's polar filtering (paper §3.1–3.2) is an inverse Fourier
//! transform in wavenumber space; the original code evaluated it as a
//! physical-space *convolution* at O(N²) per line, the optimized code as an
//! *FFT* at O(N log N). Both implementations are provided here, from
//! scratch, so the `agcm-filtering` crate can reproduce the comparison:
//!
//! * [`dft`] — direct O(N²) DFT/IDFT, the one correctness oracle;
//! * [`radix2`] — in-place radix-2 FFT for power-of-two sizes, the engine
//!   inside the Bluestein fallback;
//! * [`plan`] — mixed-radix Cooley-Tukey (factors 2/3/5; the AGCM's
//!   N = 144 = 2⁴·3² longitudes are 2/3/5-smooth), with a Bluestein
//!   fallback for arbitrary sizes, evaluated by one iterative Stockham
//!   executor;
//! * [`real`] — real-signal helpers (half-spectrum packing);
//! * [`convolution`] — direct circular convolution and its FFT equivalent;
//! * [`ops`] — operation-count estimators used by the execution tracer;
//! * [`workspace`] — reusable scratch so the executor's entry points
//!   ([`plan::FftPlan::forward_into`] / `inverse_into`) allocate nothing
//!   per transform;
//! * [`batch`] — batched real-line filtering: two real lines packed per
//!   complex transform, one spectral-multiplier pass over many lines;
//! * [`lanes`] — the executor behind it: eight pair-packed transforms
//!   advance together in structure-of-arrays form (the line index is the
//!   SIMD dimension), bit-identical to the scalar pair path.
//!
//! Vendor FFT libraries (which the paper used on whole latitude lines after
//! the transpose) are replaced by [`plan::FftPlan`], per the substitution
//! table in `DESIGN.md`.

pub mod batch;
pub mod complex;
pub mod convolution;
pub mod dft;
pub mod lanes;
pub mod ops;
pub mod plan;
pub mod radix2;
pub mod real;
pub mod workspace;

pub use complex::Complex64;
pub use plan::{shared_plan, FftPlan};
pub use workspace::FftWorkspace;
