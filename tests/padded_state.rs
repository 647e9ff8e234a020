//! The prognostic state carries a one-point ghost frame, and nothing but
//! a ghost exchange may read it: a step's inputs are interiors, and every
//! consumer of a state — the step, the physics, the diagnostics,
//! equality and the checkpoint — must be blind to what the ghosts hold.
//!
//! Checked by poisoning: every ghost of every state field is set to NaN
//! before each step, on 1×1, 1×2, 2×2 and 2×3 meshes with the LB-FFT
//! filter, and the interiors must come out bit-identical to a clean run
//! and to the allocating oracle `Dynamics::step_reference`.

use ucla_agcm_repro::dynamics::core::{Dynamics, DynamicsConfig};
use ucla_agcm_repro::dynamics::state::ModelState;
use ucla_agcm_repro::dynamics::timestep::{max_stable_dt, signal_speed};
use ucla_agcm_repro::filtering::driver::FilterVariant;
use ucla_agcm_repro::grid::arakawa::Variable;
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::history::ByteOrder;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::run;
use ucla_agcm_repro::mps::topology::CartComm;
use ucla_agcm_repro::physics::step::PhysicsStep;
use ucla_agcm_repro::resilience::ModelCheckpoint;

const STEPS: usize = 3;
const MESHES: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 2), (2, 3)];

/// How a run treats the state before each step.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// `Dynamics::step`, ghosts left as the previous step left them.
    Clean,
    /// `Dynamics::step`, every ghost set to NaN first.
    Poisoned,
    /// `Dynamics::step_reference`, every ghost set to NaN first.
    Reference,
}

fn grid() -> GridSpec {
    GridSpec::new(48, 24, 3)
}

/// Set every ghost of `f` to NaN.
fn poison(f: &mut HaloField) {
    let (ni, nj, nk) = f.shape();
    let (ni, nj) = (ni as isize, nj as isize);
    for k in 0..nk {
        for j in -1..=nj {
            for i in -1..=ni {
                if !(0..ni).contains(&i) || !(0..nj).contains(&j) {
                    f.set(i, j, k, f64::NAN);
                }
            }
        }
    }
}

fn interior_bits(state: &ModelState) -> Vec<u64> {
    state
        .fields
        .iter()
        .flat_map(|f| f.interior_rows().flatten().map(|x| x.to_bits()))
        .collect()
}

/// Each rank's interior bits after `STEPS` steps (dynamics, then column
/// physics on θ) along `path`.
fn run_path(mesh: (usize, usize), path: Path) -> Vec<Vec<u64>> {
    let grid = grid();
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    run(decomp.size(), move |comm| {
        let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
        let sub = decomp.subdomain_of_rank(comm.rank());
        let core = Dynamics::new(
            grid,
            decomp,
            DynamicsConfig::new(dt, Some(FilterVariant::LbFft)),
        );
        let physics = PhysicsStep::new(grid, sub);
        let mut state = ModelState::initial(grid, sub);
        for step in 0..STEPS {
            if path != Path::Clean {
                state.fields.iter_mut().for_each(poison);
            }
            if path == Path::Reference {
                core.step_reference(&cart, &mut state);
            } else {
                core.step(&cart, &mut state);
            }
            let theta = state.field_mut(Variable::Theta);
            physics.run_local(comm, theta, step as f64 * dt);
        }
        interior_bits(&state)
    })
}

#[test]
fn nan_ghosts_change_no_interior_bit_on_any_mesh() {
    for mesh in MESHES {
        let clean = run_path(mesh, Path::Clean);
        let poisoned = run_path(mesh, Path::Poisoned);
        let reference = run_path(mesh, Path::Reference);
        for (rank, ((c, p), r)) in clean.iter().zip(&poisoned).zip(&reference).enumerate() {
            assert!(
                p.iter().all(|&b| !f64::from_bits(b).is_nan()),
                "mesh {mesh:?} rank {rank}: a NaN ghost reached the interior"
            );
            assert!(
                c == p,
                "mesh {mesh:?} rank {rank}: poisoned ghosts changed the step"
            );
            assert!(
                c == r,
                "mesh {mesh:?} rank {rank}: step diverged from step_reference"
            );
        }
    }
}

#[test]
fn diagnostics_equality_and_checkpoints_ignore_ghosts() {
    let grid = grid();
    let decomp = Decomp::new(grid, 1, 2);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    run(decomp.size(), move |comm| {
        let cart = CartComm::new(comm, 1, 2, (false, true));
        let core = Dynamics::new(
            grid,
            decomp,
            DynamicsConfig::new(dt, Some(FilterVariant::LbFft)),
        );
        let mut clean = ModelState::initial(grid, decomp.subdomain_of_rank(comm.rank()));
        // A stepped state: its ghosts hold exchanged values, not zeros.
        core.step(&cart, &mut clean);
        let mut poisoned = clean.clone();
        poisoned.fields.iter_mut().for_each(poison);

        assert!(!poisoned.has_blown_up(), "NaN ghosts are not a blow-up");
        assert_eq!(poisoned.max_wind().to_bits(), clean.max_wind().to_bits());
        assert_eq!(
            poisoned.local_mass().to_bits(),
            clean.local_mass().to_bits()
        );
        assert!(poisoned == clean, "equality compares interiors only");

        let record = |state: &ModelState| {
            ModelCheckpoint {
                rank: comm.rank() as u32,
                world: comm.size() as u32,
                step: 1,
                seeds: Vec::new(),
                scalars: vec![0.0, 0.0],
                series: vec![1.0],
                fields: state.fields.clone(),
            }
            .encode(ByteOrder::Little)
        };
        let bytes = record(&poisoned);
        assert_eq!(bytes, record(&clean), "a record holds interiors only");
        let (back, _) = ModelCheckpoint::decode(&bytes).expect("own record decodes");
        assert!(
            back.fields == clean.fields,
            "decoding restores every interior"
        );

        // And a changed interior point is seen by all of them.
        let mut moved = clean.clone();
        moved.fields[0].set(0, 0, 0, f64::NAN);
        assert!(moved.has_blown_up());
        assert!(moved != clean);
        assert_ne!(record(&moved), record(&clean));
    });
}
