//! The three fused finite-difference sweeps are an *equivalence claim*:
//! `Dynamics::step` must leave every bit of every prognostic field where
//! the allocating `from_fn` oracle `Dynamics::step_reference` leaves it —
//! whatever the mesh, the row width (vector tails), the level count, the
//! filter, or the sign of a wind, including `−0.0` and NaN.
//!
//! (That each `#[target_feature]` compilation of a sweep agrees with the
//! portable one is pinned where the private wrappers are visible, in
//! `agcm_kernels::sweeps`' unit tests.)

use ucla_agcm_repro::dynamics::advection::upwind_tendency;
use ucla_agcm_repro::dynamics::core::{Dynamics, DynamicsConfig};
use ucla_agcm_repro::dynamics::state::ModelState;
use ucla_agcm_repro::dynamics::timestep::{max_stable_dt, signal_speed};
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::arakawa::Variable;
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::grid::metrics::MetricTables;
use ucla_agcm_repro::kernels::advect::upwind_into;
use ucla_agcm_repro::kernels::HaloView;
use ucla_agcm_repro::mps::runtime::run;
use ucla_agcm_repro::mps::topology::CartComm;

/// A 64-bit LCG (Knuth's MMIX constants); the high bits are the sample.
struct Lcg(u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 32) as u32
    }

    /// Uniform in (−1, 1), except that one draw in eight is `0.0` and one
    /// in eight `−0.0` — so winds change sign, vanish exactly, and carry
    /// the sign bit a careless select would lose.
    fn signed(&mut self) -> f64 {
        let r = self.next_u32();
        match r % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => (r >> 4) as f64 / (1u64 << 27) as f64 - 1.0,
        }
    }
}

/// A state of LCG values at physical magnitudes: thickness near 8 km,
/// winds within ±30 m/s, small positive-ish tracers.
fn seeded_state(grid: GridSpec, decomp: &Decomp, rank: usize) -> ModelState {
    let mut state = ModelState::zeros(grid, decomp.subdomain_of_rank(rank));
    let mut rng = Lcg(0x5eed ^ (rank as u64) << 32);
    for var in Variable::ALL {
        let (base, scale) = match var {
            Variable::Theta => (8.0e3, 50.0),
            Variable::U | Variable::V => (0.0, 30.0),
            Variable::Pressure => (1.0e5, 10.0),
            Variable::Humidity => (0.0, 0.02),
            Variable::Ozone => (0.0, 1.0e-6),
        };
        for x in state.field_mut(var).interior_rows_mut().flatten() {
            *x = base + scale * rng.signed();
        }
    }
    state
}

/// Bits of every field on every rank after `steps` steps of one path.
fn run_bits(
    grid: GridSpec,
    mesh: (usize, usize),
    filter: Option<FilterVariant>,
    reference: bool,
) -> Vec<Vec<u64>> {
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    run(decomp.size(), move |c| {
        let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
        let core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, filter));
        let mut state = seeded_state(grid, &decomp, c.rank());
        for _ in 0..2 {
            if reference {
                core.step_reference(&cart, &mut state);
            } else {
                core.step(&cart, &mut state);
            }
        }
        state
            .fields
            .iter()
            .flat_map(|f| f.interior_rows().flatten().map(|x| x.to_bits()))
            .collect()
    })
}

#[test]
fn sweeps_match_step_reference_bit_for_bit() {
    // Pole rows land on different ranks across the meshes; 37 and 50 leave
    // a vector tail at every width, 144 is the paper's row. Each mesh sees
    // every level count and both filter settings across the three widths.
    const MESHES: [(usize, usize); 4] = [(1, 1), (2, 2), (1, 4), (4, 1)];
    const WIDTHS: [usize; 3] = [37, 50, 144];
    const LEVELS: [usize; 3] = [1, 2, 9];
    for (m, &mesh) in MESHES.iter().enumerate() {
        for (w, &ni) in WIDTHS.iter().enumerate() {
            let n_lev = LEVELS[(m + w) % 3];
            let filter = ((m + w) % 2 == 0).then_some(FilterVariant::LbFft);
            let grid = GridSpec::new(ni * mesh.1, 12, n_lev);
            let sweeps = run_bits(grid, mesh, filter, false);
            let oracle = run_bits(grid, mesh, filter, true);
            for (rank, (a, b)) in sweeps.iter().zip(&oracle).enumerate() {
                assert!(
                    a == b,
                    "mesh {mesh:?} row width {ni} n_lev {n_lev} filter {filter:?} rank {rank}: \
                     sweeps diverged from step_reference"
                );
            }
        }
    }
}

#[test]
fn upwind_select_then_divide_is_exact_for_every_wind() {
    // The kernel selects the numerator by the wind's sign and divides
    // once; the reference divides inside each arm. Same operands, same
    // `/` — also where the predicate is delicate: ±0.0 and NaN winds.
    const WINDS: [f64; 7] = [0.0, -0.0, f64::NAN, 12.5, -12.5, 1e-310, -1e-310];
    for ni in [37usize, 50, 144] {
        let (nj, nk) = (5, 2);
        let grid = GridSpec::new(ni, nj, nk);
        let tables = MetricTables::new(&grid, 0, nj);
        let mut rng = Lcg(ni as u64);
        let mut halo = |pick_wind: bool| {
            let mut h = HaloField::zeros(ni, nj, nk, 1);
            for k in 0..nk {
                for j in -1..=nj as isize {
                    for i in -1..=ni as isize {
                        let v = if pick_wind {
                            WINDS[rng.next_u32() as usize % WINDS.len()]
                        } else {
                            rng.signed()
                        };
                        h.set(i, j, k, v);
                    }
                }
            }
            h
        };
        let (q, u, v) = (halo(false), halo(true), halo(true));
        let mut kernel = vec![0.0; ni * nj * nk];
        upwind_into(
            &HaloView::of(&q),
            &HaloView::of(&u),
            &HaloView::of(&v),
            &tables,
            &mut kernel,
        );
        let reference = upwind_tendency(&q, &u, &v, &grid, 0);
        for (p, (a, b)) in kernel.iter().zip(reference.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "row width {ni} point {p}: kernel {a:e} != reference {b:e}"
            );
        }
    }
}
