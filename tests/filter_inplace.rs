//! The redistribute engine filters received messages in place and keeps
//! its message buffers in circulation. None of that may show in a value:
//!
//! * every organization × assignment, on meshes where a rank filters
//!   lines of latitude rows it does not own, matches the sequential
//!   oracle `filter_global` and — to the bit — the digests captured on the
//!   commit *before* the buffers circulated (three applications in a row,
//!   so every pass but the first packs into a buffer that still holds
//!   another pass's values);
//! * after two warm-up applications the forward buffers' pointers and
//!   capacities repeat on every rank: nothing is allocated, nothing grows;
//! * a rank that lost its buffers grows them again and reads nothing
//!   stale;
//! * a duplicated or delayed forward message ends exactly as it did
//!   before: same digest, or the same failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use ucla_agcm_repro::filtering::driver::{FilterOrganization, FilterVariant, PolarFilter};
use ucla_agcm_repro::filtering::engine::{self, Assignment, FilterScratch};
use ucla_agcm_repro::filtering::lines::FilterSetup;
use ucla_agcm_repro::filtering::reference::{
    filter_global, global_from_locals, local_from_global, synthetic_field,
};
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::field::Field3D;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::{run, run_traced, run_with_faults};
use ucla_agcm_repro::mps::topology::CartComm;
use ucla_agcm_repro::mps::{Comm, Event, FaultAction, FaultPlan};

/// Applications per run: the second and third pack into used buffers.
const PASSES: usize = 3;

fn grid() -> GridSpec {
    // 46 and 30 split unevenly over 3 columns / 4 rows.
    GridSpec::new(46, 30, 3)
}

fn globals(grid: &GridSpec) -> Vec<Field3D> {
    (0..6).map(|v| synthetic_field(grid, v)).collect()
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(fields: &[Field3D]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in fields {
        for v in f.as_slice() {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn assemble(locals: &[Vec<Field3D>], decomp: &Decomp) -> Vec<Field3D> {
    (0..locals[0].len())
        .map(|v| {
            let of_var: Vec<Field3D> = locals.iter().map(|l| l[v].clone()).collect();
            global_from_locals(&of_var, decomp)
        })
        .collect()
}

/// One rank's part of a run: its subdomain fields after `PASSES`
/// applications of `variant` in `organization`.
fn rank_body(
    comm: &Comm,
    mesh: (usize, usize),
    variant: FilterVariant,
    organization: FilterOrganization,
) -> Vec<Field3D> {
    let grid = grid();
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
    let setup = FilterSetup::new(grid, decomp);
    let filter = PolarFilter::with_organization(&setup, variant, organization);
    let sub = decomp.subdomain_of_rank(comm.rank());
    let mut fields: Vec<Field3D> = globals(&grid)
        .iter()
        .map(|g| local_from_global(g, &sub))
        .collect();
    for _ in 0..PASSES {
        filter.apply(&setup, &cart, &mut fields);
    }
    fields
}

fn filtered(
    mesh: (usize, usize),
    variant: FilterVariant,
    organization: FilterOrganization,
) -> Vec<Field3D> {
    let decomp = Decomp::new(grid(), mesh.0, mesh.1);
    let locals = run(decomp.size(), |comm| {
        rank_body(comm, mesh, variant, organization)
    });
    assemble(&locals, &decomp)
}

use FilterOrganization::{Aggregated, PerVariable};
use FilterVariant::{FftNoLb, LbFft};

/// `(mesh, variant, organization, digest at the parent commit)`. Under
/// `LbFft` (balanced assignment) on a mesh with more than one row, ranks
/// filter lines of latitudes they hold no part of.
const GOLDEN: [((usize, usize), FilterVariant, FilterOrganization, u64); 12] = [
    ((1, 2), LbFft, Aggregated, 0xab89baf5638789a1),
    ((1, 2), LbFft, PerVariable, 0xde13c75d43db01b7),
    ((2, 2), LbFft, Aggregated, 0xde13c75d43db01b7),
    ((2, 3), LbFft, Aggregated, 0x996a40648d364982),
    ((2, 3), LbFft, PerVariable, 0x996a40648d364982),
    ((2, 3), FftNoLb, Aggregated, 0x8e0f00615a254f02),
    ((2, 3), FftNoLb, PerVariable, 0x20e69a4d49b48426),
    ((3, 2), LbFft, Aggregated, 0x996a40648d364982),
    ((4, 1), LbFft, Aggregated, 0xde13c75d43db01b7),
    ((4, 1), LbFft, PerVariable, 0xde13c75d43db01b7),
    ((4, 3), LbFft, Aggregated, 0x4747c85a437356fc),
    ((4, 3), FftNoLb, PerVariable, 0x20e69a4d49b48426),
];

#[test]
fn in_place_filtering_matches_the_oracle_and_the_parent_digests() {
    let grid = grid();
    let mut expect = globals(&grid);
    let setup = FilterSetup::new(grid, Decomp::new(grid, 1, 1));
    for _ in 0..PASSES {
        filter_global(&setup, &mut expect);
    }
    let mut wrong = Vec::new();
    for (mesh, variant, organization, golden) in GOLDEN {
        let got = filtered(mesh, variant, organization);
        for (v, (g, e)) in got.iter().zip(&expect).enumerate() {
            let err = g.max_abs_diff(e);
            assert!(
                err < 1e-8,
                "{mesh:?} {variant:?} {organization:?} var {v}: off the oracle by {err}"
            );
        }
        let d = digest(&got);
        if d != golden {
            wrong.push(format!(
                "    (({}, {}), {variant:?}, {organization:?}, {d:#018x}),",
                mesh.0, mesh.1
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "digests differ from the parent's:\n{}",
        wrong.join("\n")
    );
}

/// `(pointer, capacity)` of every forward buffer of a scratch.
fn buffer_identity(scratch: &FilterScratch) -> Vec<(usize, usize)> {
    scratch
        .forward_buffers()
        .iter()
        .map(|b| (b.as_ptr() as usize, b.capacity()))
        .collect()
}

#[test]
fn forward_buffers_circulate_without_growing() {
    const STEPS: usize = 6;
    let grid = grid();
    for (mesh, assignment, organization) in [
        ((1usize, 2usize), Assignment::Balanced, Aggregated),
        ((2, 3), Assignment::Balanced, Aggregated),
        ((2, 3), Assignment::Balanced, PerVariable),
        ((2, 3), Assignment::RowLocal, Aggregated),
    ] {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        let per_rank = run(decomp.size(), |comm| {
            let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let sub = decomp.subdomain_of_rank(comm.rank());
            let mut fields: Vec<Field3D> = globals(&grid)
                .iter()
                .map(|g| local_from_global(g, &sub))
                .collect();
            let mut scratch = FilterScratch::new();
            (0..STEPS)
                .map(|_| {
                    engine::apply(
                        &setup,
                        &cart,
                        &mut fields,
                        assignment,
                        organization,
                        &mut scratch,
                    );
                    buffer_identity(&scratch)
                })
                .collect::<Vec<_>>()
        });
        for (rank, steps) in per_rank.iter().enumerate() {
            assert!(
                steps[2].iter().any(|&(_, cap)| cap > 0) || decomp.size() == 1,
                "{mesh:?} rank {rank} sends forward messages"
            );
            for step in 3..STEPS {
                assert_eq!(
                    steps[step], steps[2],
                    "{mesh:?} {assignment:?} {organization:?} rank {rank}: \
                     buffers of step {step} are not those of step 2"
                );
            }
        }
    }
}

#[test]
fn a_rank_that_lost_its_buffers_grows_them_again() {
    // What a return message that never arrives would leave behind: rank 0
    // starts the second and third application with no buffers at all (a
    // new scratch), its peers keep theirs. A pack never depends on what a
    // buffer holds, so the values are those of the undisturbed run.
    let grid = grid();
    let mesh = (2usize, 3usize);
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let locals = run(decomp.size(), |comm| {
        let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
        let setup = FilterSetup::new(grid, decomp);
        let sub = decomp.subdomain_of_rank(comm.rank());
        let mut fields: Vec<Field3D> = globals(&grid)
            .iter()
            .map(|g| local_from_global(g, &sub))
            .collect();
        let mut scratch = FilterScratch::new();
        for _ in 0..PASSES {
            if comm.rank() == 0 {
                scratch = FilterScratch::new();
            }
            engine::apply(
                &setup,
                &cart,
                &mut fields,
                Assignment::Balanced,
                Aggregated,
                &mut scratch,
            );
        }
        fields
    });
    let undisturbed = filtered(mesh, LbFft, Aggregated);
    assert_eq!(digest(&assemble(&locals, &decomp)), digest(&undisturbed));
}

/// `(destination, sequence number)` of the first forward message rank 0
/// sends in a fault-free run.
fn first_forward_message(mesh: (usize, usize)) -> (usize, u64) {
    let size = mesh.0 * mesh.1;
    let (_, trace) = run_traced(size, |comm| {
        rank_body(comm, mesh, LbFft, Aggregated);
    });
    let mut forward = false;
    for event in &trace.ranks[0] {
        match event {
            Event::PhaseBegin("redist_fwd") => forward = true,
            Event::Send { to, seq, .. } if forward => return (*to, *seq),
            _ => {}
        }
    }
    panic!("rank 0 sends no forward message on {mesh:?}");
}

/// How a run under `plan` ends: the digest of the filtered state, or the
/// failure (a rank's typed error, or the message of a rank's panic).
fn outcome(mesh: (usize, usize), plan: FaultPlan) -> Result<u64, String> {
    let decomp = Decomp::new(grid(), mesh.0, mesh.1);
    let ended = catch_unwind(AssertUnwindSafe(|| {
        run_with_faults(decomp.size(), Some(plan), |comm| {
            rank_body(comm, mesh, LbFft, Aggregated)
        })
    }));
    let run = ended.map_err(|panic| match panic.downcast_ref::<String>() {
        Some(message) => message.split_whitespace().collect::<Vec<_>>().join(" "),
        None => "a rank panicked".to_string(),
    })?;
    if let Some((rank, failure)) = run.failures().first() {
        return Err(format!("rank {rank}: {failure:?}"));
    }
    Ok(digest(&assemble(&run.into_results(), &decomp)))
}

#[test]
fn a_duplicated_or_delayed_forward_message_ends_as_it_did_before() {
    let mesh = (2usize, 3usize);
    let (to, seq) = first_forward_message(mesh);
    let clean = digest(&filtered(mesh, LbFft, Aggregated));

    // Held back until rank 0's next message to the same rank (its return
    // message): late, matched by tag all the same, nothing changes.
    let delayed = FaultPlan::seeded(7).with_targeted(0, to, seq, FaultAction::Delay);
    assert_eq!(outcome(mesh, delayed), Ok(clean));

    // The second copy is taken for the weak class's forward message and
    // fails its length check — before and after this change alike.
    let duplicated = FaultPlan::seeded(7).with_targeted(0, to, seq, FaultAction::Duplicate);
    let expect =
        "assertion `left == right` failed: forward message from rank 0 left: 256 right: 80";
    assert_eq!(outcome(mesh, duplicated), Err(expect.to_string()));
}
