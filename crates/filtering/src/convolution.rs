//! The original convolution filtering module (paper Eq. 2, §3.1; Tables
//! 8–11 left column).
//!
//! "In the original AGCM code, filtering was performed using the
//! convolution form … the summation defined in (2) was implemented in
//! several ways, involving either communications around processor rings in
//! the longitudinal direction, or communications in binary trees."
//!
//! Each processor row assembles its filtered lines (one variable at a
//! time) via either a **ring** pass or a **binary-tree**
//! gather-and-broadcast, then every processor computes the physical-space
//! convolution for its own longitude chunk: O(N²) work per line, plus the
//! load imbalance of polar rows doing everything — both of which the FFT
//! variants then remove.

use crate::filterfn::FilterKind;
use crate::lines::FilterSetup;
use agcm_fft::convolution::kernel_from_multiplier;
use agcm_grid::halo::HaloField;
use agcm_mps::message::Payload;
use agcm_mps::topology::CartComm;
use std::collections::HashMap;

/// How full lines are assembled within a processor row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvMode {
    /// Ring passes: P−1 steps, every chunk visits every processor.
    Ring,
    /// Binomial-tree gather to the row root, then broadcast.
    Tree,
}

/// The convolution filter with its precomputed physical-space kernels —
/// the inverse transforms of the spectral multipliers ("setup" cost, paid
/// once).
pub struct ConvolutionFilter {
    kernels: HashMap<(FilterKind, usize), Vec<f64>>,
    mode: ConvMode,
}

impl ConvolutionFilter {
    /// Precompute kernels for every filtered latitude.
    pub fn new(setup: &FilterSetup, mode: ConvMode) -> ConvolutionFilter {
        let mut kernels = HashMap::new();
        for kind in [FilterKind::Strong, FilterKind::Weak] {
            for lat in kind.filtered_lats(&setup.grid) {
                let mult = setup.multiplier(kind, lat);
                kernels.insert((kind, lat), kernel_from_multiplier(&setup.fft, mult));
            }
        }
        ConvolutionFilter { kernels, mode }
    }

    /// The assembly mode in use.
    pub fn mode(&self) -> ConvMode {
        self.mode
    }

    /// Apply both filter classes.
    pub fn apply(&self, setup: &FilterSetup, cart: &CartComm, fields: &mut [HaloField]) {
        // The row split is collective over the whole mesh, so it must
        // happen before any rank decides it has no filtering to do.
        let row_comm = cart.row_comm();
        for kind in [FilterKind::Strong, FilterKind::Weak] {
            for &var in setup.vars(kind) {
                self.apply_var(setup, cart, &row_comm, fields, kind, var);
            }
        }
    }

    /// Filter one variable of one class — the original one-at-a-time
    /// organization.
    fn apply_var(
        &self,
        setup: &FilterSetup,
        cart: &CartComm,
        row_comm: &agcm_mps::Comm,
        fields: &mut [HaloField],
        kind: FilterKind,
        var: usize,
    ) {
        let (my_row, my_col) = cart.coords();
        let sub = setup.decomp.subdomain(my_row, my_col);
        let filtered_lats: Vec<usize> = kind
            .filtered_lats(&setup.grid)
            .into_iter()
            .filter(|j| sub.lats().contains(j))
            .collect();
        // Rows with no filtered latitudes sit this variable out entirely
        // (every member of the row agrees, so the row-local collectives
        // below are safe to skip): that is the load imbalance of the
        // original code.
        if filtered_lats.is_empty() {
            return;
        }
        let nk = setup.grid.n_lev;
        let n_lon = setup.grid.n_lon;
        let mesh_lon = setup.decomp.mesh_lon;

        // Bundle all (lat, lev) chunks of this variable, lat-major.
        let mut bundle = Vec::with_capacity(filtered_lats.len() * nk * sub.ni);
        for &lat in &filtered_lats {
            for lev in 0..nk {
                bundle.extend_from_slice(fields[var].interior_row(lat - sub.j0, lev));
            }
        }

        // Assemble the full-longitude bundle on every row member.
        let blocks: Vec<Vec<f64>> = match self.mode {
            ConvMode::Ring => row_comm
                .allgather_ring(Payload::F64(bundle))
                .into_iter()
                .map(Payload::into_f64)
                .collect(),
            ConvMode::Tree => {
                // Binomial gather (concatenation keyed by column) + bcast.
                let gathered = row_comm.gather_f64(0, &bundle);
                let flat: Vec<f64> = match gathered {
                    Some(parts) => parts.into_iter().flatten().collect(),
                    None => Vec::new(),
                };
                let all = row_comm.bcast(0, Payload::F64(flat)).into_f64();
                // Split back into per-column blocks by known chunk sizes.
                let mut blocks = Vec::with_capacity(mesh_lon);
                let mut off = 0;
                for c in 0..mesh_lon {
                    let (_, ni_c) = setup.col_chunk(c);
                    let len = filtered_lats.len() * nk * ni_c;
                    blocks.push(all[off..off + len].to_vec());
                    off += len;
                }
                blocks
            }
        };

        // Convolve for our own chunk, line by line.
        let mut flops = 0.0;
        for (l_idx, &lat) in filtered_lats.iter().enumerate() {
            let kernel = &self.kernels[&(kind, lat)];
            for lev in 0..nk {
                // Reassemble the full line for this (lat, lev).
                let mut full = vec![0.0; n_lon];
                for (c, block) in blocks.iter().enumerate() {
                    let (i0, ni_c) = setup.col_chunk(c);
                    let start = (l_idx * nk + lev) * ni_c;
                    full[i0..i0 + ni_c].copy_from_slice(&block[start..start + ni_c]);
                }
                // out[i] = Σ_s kernel[s] · x[(i−s) mod n], for our chunk.
                let mut out = vec![0.0; sub.ni];
                for (di, slot) in out.iter_mut().enumerate() {
                    let i = sub.i0 + di;
                    let mut acc = 0.0;
                    for (s, &kv) in kernel.iter().enumerate() {
                        acc += kv * full[(i + n_lon - s) % n_lon];
                    }
                    *slot = acc;
                }
                flops += 2.0 * (sub.ni * n_lon) as f64;
                fields[var]
                    .interior_row_mut(lat - sub.j0, lev)
                    .copy_from_slice(&out);
            }
        }
        cart.comm().record_flops(flops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{filter_global, global_from_locals, local_from_global, synthetic_field};
    use agcm_grid::decomp::Decomp;
    use agcm_grid::field::Field3D;
    use agcm_grid::latlon::GridSpec;
    use agcm_mps::runtime::{run, run_traced};

    fn check_matches_reference(grid: GridSpec, mesh: (usize, usize), mode: ConvMode) {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let n_vars = 6;
        let globals: Vec<Field3D> = (0..n_vars).map(|v| synthetic_field(&grid, v)).collect();

        let locals = run(decomp.size(), |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let filter = ConvolutionFilter::new(&setup, mode);
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut fields: Vec<HaloField> =
                globals.iter().map(|g| local_from_global(g, &sub)).collect();
            filter.apply(&setup, &cart, &mut fields);
            fields
        });

        let setup = FilterSetup::new(grid, decomp);
        let mut expect = globals.clone();
        filter_global(&setup, &mut expect);

        for v in 0..n_vars {
            let per_rank: Vec<HaloField> = locals.iter().map(|l| l[v].clone()).collect();
            let got = global_from_locals(&per_rank, &decomp);
            let err = got.max_abs_diff(&expect[v]);
            assert!(
                err < 1e-8,
                "variable {v} differs from reference by {err} ({mode:?})"
            );
        }
    }

    #[test]
    fn ring_matches_reference_2x2() {
        check_matches_reference(GridSpec::new(36, 20, 2), (2, 2), ConvMode::Ring);
    }

    #[test]
    fn tree_matches_reference_2x2() {
        check_matches_reference(GridSpec::new(36, 20, 2), (2, 2), ConvMode::Tree);
    }

    #[test]
    fn ring_matches_reference_uneven() {
        check_matches_reference(GridSpec::new(45, 22, 2), (3, 4), ConvMode::Ring);
    }

    #[test]
    fn tree_matches_reference_uneven() {
        check_matches_reference(GridSpec::new(45, 22, 2), (3, 4), ConvMode::Tree);
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let grid = GridSpec::new(24, 10, 1);
        let decomp = Decomp::new(grid, 1, 1);
        let (_, trace) = run_traced(1, |c| {
            let cart = CartComm::new(c, 1, 1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let filter = ConvolutionFilter::new(&setup, ConvMode::Ring);
            let sub = decomp.subdomain_of_rank(0);
            let mut fields: Vec<HaloField> = (0..6)
                .map(|v| local_from_global(&synthetic_field(&grid, v), &sub))
                .collect();
            filter.apply(&setup, &cart, &mut fields);
        });
        // The only traffic is the CartComm/row_comm setup (empty splits).
        assert_eq!(trace.stats()[0].bytes_sent, 0);
    }

    #[test]
    fn convolution_does_more_work_than_fft() {
        // O(N²) vs O(N log N): at the paper's longitude count (N = 144)
        // the convolution variant must record far more flops than LB-FFT.
        let grid = GridSpec::new(144, 24, 1);
        let mesh = (2usize, 2usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let run_flops = |conv: bool| {
            let (_, trace) = run_traced(decomp.size(), |c| {
                let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
                let setup = FilterSetup::new(grid, decomp);
                let sub = decomp.subdomain_of_rank(c.rank());
                let mut fields: Vec<HaloField> = (0..6)
                    .map(|v| local_from_global(&synthetic_field(&grid, v), &sub))
                    .collect();
                if conv {
                    ConvolutionFilter::new(&setup, ConvMode::Ring).apply(
                        &setup,
                        &cart,
                        &mut fields,
                    );
                } else {
                    crate::PolarFilter::new(&setup, crate::FilterVariant::LbFft).apply(
                        &setup,
                        &cart,
                        &mut fields,
                    );
                }
            });
            trace.total_flops()
        };
        let conv = run_flops(true);
        let fft = run_flops(false);
        assert!(conv > 3.0 * fft, "convolution {conv} vs fft {fft}");
    }

    #[test]
    fn ring_needs_more_messages_than_tree() {
        // The paper's accounting (§3.1): the ring costs ~P·logP messages,
        // the binary tree O(2P) — fewer messages, at the price of moving
        // O(N·P + N·logP) data (more than the ring's N·P).
        let grid = GridSpec::new(48, 24, 1);
        let mesh = (2usize, 4usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let observe = |mode: ConvMode| {
            let (_, trace) = run_traced(decomp.size(), |c| {
                let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
                let setup = FilterSetup::new(grid, decomp);
                let filter = ConvolutionFilter::new(&setup, mode);
                let sub = decomp.subdomain_of_rank(c.rank());
                let mut fields: Vec<HaloField> = (0..6)
                    .map(|v| local_from_global(&synthetic_field(&grid, v), &sub))
                    .collect();
                filter.apply(&setup, &cart, &mut fields);
            });
            (trace.total_messages(), trace.total_bytes())
        };
        // Subtract the setup traffic (CartComm dup + row split), identical
        // for both modes, by comparing the two directly.
        let (ring_msgs, ring_bytes) = observe(ConvMode::Ring);
        let (tree_msgs, tree_bytes) = observe(ConvMode::Tree);
        assert!(
            ring_msgs > tree_msgs,
            "ring messages {ring_msgs} must exceed tree messages {tree_msgs}"
        );
        assert!(
            tree_bytes >= ring_bytes,
            "tree data {tree_bytes} must be at least the ring's {ring_bytes}"
        );
    }
}
