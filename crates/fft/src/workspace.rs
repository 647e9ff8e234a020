//! Reusable transform workspace: the allocation-free execution state.
//!
//! The paper amortizes the FFT *plan* ("its cost is not an issue … since it
//! is done only once"), but a plan alone is not enough: the executor also
//! needs scratch storage, and allocating it per call puts the allocator on
//! the per-line critical path. A [`FftWorkspace`] owns every buffer the
//! iterative executor touches, so [`crate::plan::FftPlan::forward_into`] /
//! [`crate::plan::FftPlan::inverse_into`] perform **zero heap allocations**
//! after the workspace is built (verified by a counting-allocator test in
//! `tests/alloc_free.rs`).
//!
//! One workspace serves one plan size at a time but grows monotonically, so
//! a single workspace can be shared across plans of different sizes (it
//! re-allocates only when it meets a larger size, then never again).

use crate::complex::Complex64;
use crate::lanes::LaneScratch;
use crate::plan::FftPlan;

/// Scratch buffers for the iterative mixed-radix / Bluestein executors.
///
/// Build one with [`FftPlan::workspace`] (pre-sized, so the first transform
/// is already allocation-free) or with [`FftWorkspace::new`] (empty; grows
/// on first use).
#[derive(Debug, Default)]
pub struct FftWorkspace {
    /// Ping-pong buffer for the Stockham stages; holds the padded
    /// convolution signal for Bluestein plans.
    pub(crate) scratch: Vec<Complex64>,
    /// Packing buffer for real-input fast paths (pair packing, half-size
    /// real transforms, spectral-multiplier application).
    pub(crate) line: Vec<Complex64>,
    /// Butterfly gather slots for the generic-radix path, sized from the
    /// plan's largest factor (this removes the old fixed `[ZERO; 8]` cap).
    pub(crate) slots: Vec<Complex64>,
    /// Half-spectrum staging buffer (`n/2 + 1` bins) for the even-size
    /// real-signal fast path.
    pub(crate) spec: Vec<Complex64>,
    /// Batch storage of the lane-batched filter executor
    /// (`crate::lanes::LaneBatch` borrows it per batch run).
    pub(crate) lanes: LaneScratch,
}

impl FftWorkspace {
    /// An empty workspace; buffers grow on first use with each plan.
    pub fn new() -> FftWorkspace {
        FftWorkspace::default()
    }

    /// Grow the buffers (never shrinking) so every `*_into` entry point of
    /// `plan` runs without allocating.
    pub fn reserve_for(&mut self, plan: &FftPlan) {
        let scratch = plan.scratch_len();
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, Complex64::ZERO);
        }
        if self.line.len() < plan.len() {
            self.line.resize(plan.len(), Complex64::ZERO);
        }
        let slots = plan.max_radix();
        if self.slots.len() < slots {
            self.slots.resize(slots, Complex64::ZERO);
        }
        let spec = plan.len() / 2 + 1;
        if self.spec.len() < spec {
            self.spec.resize(spec, Complex64::ZERO);
        }
        self.lanes.reserve_for(plan);
    }

    /// Split into the stage ping-pong buffer and the butterfly slots, both
    /// sized for `plan`.
    pub(crate) fn stage_buffers(&mut self, plan: &FftPlan) -> (&mut [Complex64], &mut [Complex64]) {
        // Grow only the two buffers handed out. `line`/`spec` may be lent
        // out (empty) while a nested transform runs — regrowing them here
        // would allocate a throwaway buffer on every call.
        let scratch = plan.scratch_len();
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, Complex64::ZERO);
        }
        let slots = plan.max_radix();
        if self.slots.len() < slots {
            self.slots.resize(slots, Complex64::ZERO);
        }
        (&mut self.scratch[..scratch], &mut self.slots[..slots])
    }

    /// Lend out the packing buffer (length ≥ `len`) while keeping the rest
    /// of the workspace usable for nested transforms. The buffer is moved
    /// out and back, so no allocation happens once it has reached `len`.
    pub(crate) fn with_line<R>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut [Complex64], &mut FftWorkspace) -> R,
    ) -> R {
        let mut line = std::mem::take(&mut self.line);
        if line.len() < len {
            line.resize(len, Complex64::ZERO);
        }
        let out = f(&mut line[..len], self);
        self.line = line;
        out
    }

    /// Same lending pattern for the half-spectrum staging buffer.
    pub(crate) fn with_spec<R>(
        &mut self,
        len: usize,
        f: impl FnOnce(&mut [Complex64], &mut FftWorkspace) -> R,
    ) -> R {
        let mut spec = std::mem::take(&mut self.spec);
        if spec.len() < len {
            spec.resize(len, Complex64::ZERO);
        }
        let out = f(&mut spec[..len], self);
        self.spec = spec;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_grows_monotonically() {
        let mut ws = FftWorkspace::new();
        ws.reserve_for(&FftPlan::new(16));
        let after_16 = ws.scratch.len();
        ws.reserve_for(&FftPlan::new(144));
        assert!(ws.scratch.len() >= 144);
        assert!(ws.scratch.len() >= after_16);
        // Shrinking never happens.
        ws.reserve_for(&FftPlan::new(4));
        assert!(ws.scratch.len() >= 144);
    }

    #[test]
    fn bluestein_needs_padded_scratch() {
        let mut ws = FftWorkspace::new();
        let plan = FftPlan::new(97); // prime → Bluestein, m = 256
        ws.reserve_for(&plan);
        assert!(ws.scratch.len() >= 256);
    }

    #[test]
    fn plan_builds_presized_workspace() {
        let plan = FftPlan::new(144);
        let ws = plan.workspace();
        assert!(ws.scratch.len() >= 144);
        assert!(ws.line.len() >= 144);
        assert!(ws.slots.len() >= 4);
    }
}
