//! Cross-crate filter equivalence: every parallel implementation, on every
//! mesh shape, must reproduce the sequential oracle.

use ucla_agcm_repro::filtering::driver::{FilterVariant, PolarFilter};
use ucla_agcm_repro::filtering::lines::FilterSetup;
use ucla_agcm_repro::filtering::reference::{
    filter_global, global_from_locals, local_from_global, synthetic_field,
};
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::field::Field3D;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::run;
use ucla_agcm_repro::mps::topology::CartComm;

fn reference(grid: GridSpec, decomp: Decomp, globals: &[Field3D]) -> Vec<Field3D> {
    let setup = FilterSetup::new(grid, decomp);
    let mut expect = globals.to_vec();
    filter_global(&setup, &mut expect);
    expect
}

fn parallel(
    grid: GridSpec,
    mesh: (usize, usize),
    variant: FilterVariant,
    globals: &[Field3D],
) -> Vec<Field3D> {
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let locals = run(decomp.size(), |comm| {
        let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
        let setup = FilterSetup::new(grid, decomp);
        let filter = PolarFilter::new(&setup, variant);
        let sub = decomp.subdomain_of_rank(comm.rank());
        let mut fields: Vec<HaloField> =
            globals.iter().map(|g| local_from_global(g, &sub)).collect();
        filter.apply(&setup, &cart, &mut fields);
        fields
    });
    (0..globals.len())
        .map(|v| {
            global_from_locals(
                &locals.iter().map(|l| l[v].clone()).collect::<Vec<_>>(),
                &decomp,
            )
        })
        .collect()
}

#[test]
fn paper_grid_all_variants_match_reference() {
    // The real 144×90 horizontal grid (2 levels to keep runtime sane).
    let grid = GridSpec::new(144, 90, 2);
    let mesh = (3usize, 4usize);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    let expect = reference(grid, Decomp::new(grid, mesh.0, mesh.1), &globals);
    for variant in FilterVariant::ALL {
        let got = parallel(grid, mesh, variant, &globals);
        for v in 0..6 {
            let err = got[v].max_abs_diff(&expect[v]);
            assert!(err < 1e-8, "{variant:?} var {v}: err {err}");
        }
    }
}

#[test]
fn mesh_shape_does_not_change_the_answer() {
    let grid = GridSpec::new(60, 30, 2);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    let meshes = [(1usize, 1usize), (1, 5), (5, 1), (2, 3), (5, 6)];
    let baseline = parallel(grid, meshes[0], FilterVariant::LbFft, &globals);
    for &mesh in &meshes[1..] {
        let got = parallel(grid, mesh, FilterVariant::LbFft, &globals);
        for v in 0..6 {
            let err = got[v].max_abs_diff(&baseline[v]);
            assert!(err < 1e-9, "mesh {mesh:?} var {v}: err {err}");
        }
    }
}

#[test]
fn filtering_is_a_projection_near_idempotent() {
    // Applying the filter twice must damp no more than the square of
    // once: spectral multipliers in (0,1] make it a contraction.
    let grid = GridSpec::new(48, 24, 2);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    let once = parallel(grid, (2, 2), FilterVariant::LbFft, &globals);
    let twice = parallel(grid, (2, 2), FilterVariant::LbFft, &once);
    let norm = |fs: &[Field3D]| -> f64 {
        fs.iter()
            .flat_map(|f| f.as_slice().iter())
            .map(|v| v * v)
            .sum()
    };
    assert!(norm(&twice) <= norm(&once) + 1e-9);
}

#[test]
fn fifteen_layer_grid_works_end_to_end() {
    let grid = GridSpec::new(48, 24, 15);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    let expect = reference(grid, Decomp::new(grid, 2, 2), &globals);
    let got = parallel(grid, (2, 2), FilterVariant::LbFft, &globals);
    for v in 0..6 {
        assert!(got[v].max_abs_diff(&expect[v]) < 1e-8);
    }
}
