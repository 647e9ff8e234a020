//! Integration tests of the substrate stack: message passing + grid +
//! cost-model replay working together, at sizes the unit tests don't reach.

use ucla_agcm_repro::costmodel::machine::MachineProfile;
use ucla_agcm_repro::costmodel::replay::replay;
use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::collectives::Op;
use ucla_agcm_repro::mps::message::Payload;
use ucla_agcm_repro::mps::runtime::{run, run_traced};
use ucla_agcm_repro::mps::topology::CartComm;

#[test]
fn paper_mesh_240_ranks_full_collective_suite() {
    // The paper's largest configuration: 8×30 = 240 ranks.
    let out = run(240, |comm| {
        comm.barrier();
        let sum = comm.allreduce_i64(Op::Sum, &[comm.rank() as i64])[0];
        let all = comm.allgather_i64(&[comm.rank() as i64]);
        let bc = comm
            .bcast(
                239,
                if comm.rank() == 239 {
                    Payload::F64(vec![3.25])
                } else {
                    Payload::Empty
                },
            )
            .into_f64();
        (sum, all.len(), bc[0])
    });
    let expect_sum: i64 = (0..240).sum();
    for (sum, len, bc) in out {
        assert_eq!(sum, expect_sum);
        assert_eq!(len, 240);
        assert_eq!(bc, 3.25);
    }
}

#[test]
fn halo_exchange_on_the_paper_mesh() {
    // 8×30 mesh over the 144×90 grid: every ghost must match the global
    // analytic field (with longitude wrap and polar clamping).
    let grid = GridSpec::paper_9_layer();
    let decomp = Decomp::new(grid, 8, 30);
    let truth = |i: usize, j: usize, k: usize| (i * 97 + j * 13 + k) as f64;
    run(240, |comm| {
        let cart = CartComm::new(comm, 8, 30, (false, true));
        let sub = decomp.subdomain_of_rank(comm.rank());
        let mut f = HaloField::zeros(sub.ni, sub.nj, 2, 1);
        f.fill_interior(|i, j, k| truth(sub.i0 + i, sub.j0 + j, k));
        f.exchange(&cart);
        for k in 0..2 {
            for j in -1..=(sub.nj as isize) {
                for i in -1..=(sub.ni as isize) {
                    let gi = ((sub.i0 as isize + i).rem_euclid(144)) as usize;
                    let gj = (sub.j0 as isize + j).clamp(0, 89) as usize;
                    assert_eq!(f.get(i, j, k), truth(gi, gj, k));
                }
            }
        }
    });
}

#[test]
fn trace_replay_reflects_message_volume() {
    // Two runs differing only in message size: the replay must charge the
    // bigger one more time on a bandwidth-dominated profile.
    let timed = |bytes: usize| {
        let (_, trace) = run_traced(2, |comm| {
            let other = 1 - comm.rank();
            comm.send(other, 1, Payload::F64(vec![0.0; bytes / 8]));
            comm.recv(other, 1);
        });
        replay(&trace, &MachineProfile::paragon()).total_time()
    };
    let small = timed(8 * 64);
    let large = timed(8 * 1024 * 1024);
    assert!(
        large > 10.0 * small,
        "bandwidth term must dominate: {small} vs {large}"
    );
}

#[test]
fn trace_replay_reflects_load_imbalance() {
    // One rank does 10x the flops; the simulated total time must track the
    // slow rank, and the paper's imbalance metric must see it.
    let (_, trace) = run_traced(4, |comm| {
        let work = if comm.rank() == 2 { 10.0e6 } else { 1.0e6 };
        comm.phase("physics", || comm.record_flops(work));
        comm.barrier();
    });
    let r = replay(&trace, &MachineProfile::t3d());
    let max = r.phase_time("physics");
    let min = r
        .phase_times
        .iter()
        .map(|m| m["physics"])
        .fold(f64::INFINITY, f64::min);
    assert!((max / min - 10.0).abs() < 0.5, "{max} vs {min}");
    // Imbalance (max-avg)/avg = (10 - 3.25)/3.25 ≈ 2.08.
    assert!((r.phase_imbalance("physics") - 2.077).abs() < 0.05);
}

#[test]
fn split_hierarchy_three_levels_deep() {
    // World → row → pair: contexts must stay isolated through the stack.
    let out = run(8, |comm| {
        let row = comm.split((comm.rank() / 4) as i64, (comm.rank() % 4) as i64);
        let pair = row.split((row.rank() / 2) as i64, (row.rank() % 2) as i64);
        let world_sum = comm.allreduce_i64(Op::Sum, &[1])[0];
        let row_sum = row.allreduce_i64(Op::Sum, &[1])[0];
        let pair_sum = pair.allreduce_i64(Op::Sum, &[1])[0];
        (world_sum, row_sum, pair_sum)
    });
    for (w, r, p) in out {
        assert_eq!((w, r, p), (8, 4, 2));
    }
}
