//! Load-balanced FFT filtering (paper §3.3, Tables 8–11 right column).
//!
//! The generic load-balancing module: filter lines are redistributed over
//! *all* P processors so each ends up with ⌈ΣR_j/N⌉ complete lines
//! (Eq. 3, Figure 2), the row transpose completes the movement (Figure 3),
//! every processor runs the same number of local FFT filters, and inverse
//! data movement restores the original layout. "All weakly filtered
//! variables are filtered concurrently, as are all strongly filtered
//! variables" — each class moves in a single collective exchange.

use crate::driver::FilterOrganization;
use crate::engine::{self, Assignment, FilterScratch};
use crate::lines::FilterSetup;
use agcm_grid::field::Field3D;
use agcm_mps::topology::CartComm;

/// Apply both filter classes with globally load-balanced FFT filtering
/// (aggregated organization, transient scratch).
pub fn apply(setup: &FilterSetup, cart: &CartComm, fields: &mut [Field3D]) {
    engine::apply(
        setup,
        cart,
        fields,
        Assignment::Balanced,
        FilterOrganization::Aggregated,
        &mut FilterScratch::new(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{filter_global, global_from_locals, local_from_global, synthetic_field};
    use agcm_grid::decomp::Decomp;
    use agcm_grid::latlon::GridSpec;
    use agcm_mps::runtime::{run, run_traced};

    fn check_matches_reference(grid: GridSpec, mesh: (usize, usize)) {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let n_vars = 6;
        let globals: Vec<Field3D> = (0..n_vars).map(|v| synthetic_field(&grid, v)).collect();

        let locals = run(decomp.size(), |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut fields: Vec<Field3D> =
                globals.iter().map(|g| local_from_global(g, &sub)).collect();
            apply(&setup, &cart, &mut fields);
            fields
        });

        let setup = FilterSetup::new(grid, decomp);
        let mut expect = globals.clone();
        filter_global(&setup, &mut expect);

        for v in 0..n_vars {
            let per_rank: Vec<Field3D> = locals.iter().map(|l| l[v].clone()).collect();
            let got = global_from_locals(&per_rank, &decomp);
            let err = got.max_abs_diff(&expect[v]);
            assert!(err < 1e-9, "variable {v} differs from reference by {err}");
        }
    }

    #[test]
    fn matches_reference_2x2() {
        check_matches_reference(GridSpec::new(36, 20, 2), (2, 2));
    }

    #[test]
    fn matches_reference_4x3() {
        check_matches_reference(GridSpec::new(48, 24, 3), (4, 3));
    }

    #[test]
    fn matches_reference_uneven() {
        check_matches_reference(GridSpec::new(45, 22, 2), (3, 4));
    }

    #[test]
    fn matches_reference_row_mesh() {
        // Degenerate mesh: one processor row.
        check_matches_reference(GridSpec::new(36, 12, 2), (1, 4));
    }

    #[test]
    fn agrees_with_unbalanced_fft() {
        // Both FFT variants are exact: they must agree with each other to
        // rounding error even on the paper-size grid.
        let grid = GridSpec::new(72, 30, 2);
        let mesh = (3usize, 2usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
        let run_variant = |lb: bool| {
            run(decomp.size(), |c| {
                let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
                let setup = FilterSetup::new(grid, decomp);
                let sub = decomp.subdomain_of_rank(c.rank());
                let mut fields: Vec<Field3D> =
                    globals.iter().map(|g| local_from_global(g, &sub)).collect();
                if lb {
                    apply(&setup, &cart, &mut fields);
                } else {
                    crate::fft::apply(&setup, &cart, &mut fields);
                }
                fields
            })
        };
        let a = run_variant(true);
        let b = run_variant(false);
        for v in 0..6 {
            let ga =
                global_from_locals(&a.iter().map(|l| l[v].clone()).collect::<Vec<_>>(), &decomp);
            let gb =
                global_from_locals(&b.iter().map(|l| l[v].clone()).collect::<Vec<_>>(), &decomp);
            assert!(ga.max_abs_diff(&gb) < 1e-9);
        }
    }

    #[test]
    fn work_is_balanced_across_all_ranks() {
        // The defining property: filter flops spread evenly, even though
        // only polar rows hold filterable latitudes.
        let grid = GridSpec::new(48, 24, 2);
        let mesh = (4usize, 2usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let (_, trace) = run_traced(decomp.size(), |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut fields: Vec<Field3D> = (0..6)
                .map(|v| local_from_global(&synthetic_field(&grid, v), &sub))
                .collect();
            apply(&setup, &cart, &mut fields);
        });
        let imbalance = trace.flop_imbalance();
        assert!(
            imbalance < 0.20,
            "flop imbalance {imbalance} should be small under LB"
        );
    }
}
