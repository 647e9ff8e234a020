//! FFT filtering **without** load balance (paper §3.2, Tables 8–11 middle
//! column).
//!
//! Each filtered line stays within the processor row that owns its
//! latitude: the row's processors transpose the lines among themselves so
//! each holds complete longitude lines, run the local FFT filter, and
//! transpose back. Asymptotically this replaces the O(N²) convolution with
//! O(N log N) — but the polar processor rows still do *all* the filtering
//! while mid-latitude rows idle, which is the load imbalance the next
//! variant removes.
//!
//! By default all variables of a filter class move in one aggregated pass
//! (the organization §3.3 allows, and the one Tables 8–11 run);
//! `FilterOrganization::PerVariable` is the pre-§3.3 one-variable-at-a-
//! time processing, kept for the message-count comparison.
//!
//! It runs as [`PolarFilter`](crate::PolarFilter) with
//! `FilterVariant::FftNoLb`: the shared redistribute engine with the
//! row-local line assignment.

#[cfg(test)]
mod tests {
    use crate::driver::{FilterVariant, PolarFilter};
    use crate::lines::FilterSetup;
    use crate::reference::{filter_global, global_from_locals, local_from_global, synthetic_field};
    use agcm_grid::decomp::Decomp;
    use agcm_grid::field::Field3D;
    use agcm_grid::halo::HaloField;
    use agcm_grid::latlon::GridSpec;
    use agcm_mps::runtime::{run, run_traced};
    use agcm_mps::topology::CartComm;

    fn apply(setup: &FilterSetup, cart: &CartComm, fields: &mut [HaloField]) {
        PolarFilter::new(setup, FilterVariant::FftNoLb).apply(setup, cart, fields);
    }

    fn check_matches_reference(grid: GridSpec, mesh: (usize, usize)) {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let n_vars = 6;
        let globals: Vec<Field3D> = (0..n_vars).map(|v| synthetic_field(&grid, v)).collect();

        // Parallel run.
        let locals = run(decomp.size(), |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut fields: Vec<HaloField> =
                globals.iter().map(|g| local_from_global(g, &sub)).collect();
            apply(&setup, &cart, &mut fields);
            fields
        });

        // Sequential oracle.
        let setup = FilterSetup::new(grid, decomp);
        let mut expect = globals.clone();
        filter_global(&setup, &mut expect);

        for v in 0..n_vars {
            let per_rank: Vec<HaloField> = locals.iter().map(|l| l[v].clone()).collect();
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
    fn matches_reference_uneven_mesh() {
        // Non-divisible grid/mesh: 45 lons over 4 cols, 22 lats over 3 rows.
        check_matches_reference(GridSpec::new(45, 22, 2), (3, 4));
    }

    #[test]
    fn matches_reference_single_rank() {
        check_matches_reference(GridSpec::new(24, 10, 2), (1, 1));
    }

    #[test]
    fn work_concentrates_on_polar_rows() {
        // The defining property of the unbalanced variant: mid-latitude
        // mesh rows record (almost) no filter flops.
        let grid = GridSpec::new(48, 24, 2);
        let mesh = (4usize, 2usize);
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let (_, trace) = run_traced(decomp.size(), |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut fields: Vec<HaloField> = (0..6)
                .map(|v| local_from_global(&synthetic_field(&grid, v), &sub))
                .collect();
            apply(&setup, &cart, &mut fields);
        });
        let stats = trace.stats();
        // Mesh rows 0 and 3 are polar (lats 0-5 and 18-23 of 24 → |φ|>45°),
        // rows 1 and 2 are mid-latitude.
        let polar: f64 = (0..2).chain(6..8).map(|r| stats[r].flops).sum();
        let mid: f64 = (2..6).map(|r| stats[r].flops).sum();
        assert!(polar > 10.0 * mid.max(1.0), "polar {polar} vs mid {mid}");
    }
}
