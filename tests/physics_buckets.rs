//! The batch kernel keeps the cloud noise and the convective trigger in
//! per-column tables, refilled only when the simulated hour or half hour
//! changes. One kernel reused over a time sequence — forward across both
//! buckets' boundaries, back again, and at a repeated time — must leave
//! every column and every flop where the per-column oracle does, locally
//! and through the balancer's reused per-thread pass state.

use ucla_agcm_repro::grid::decomp::{Decomp, Subdomain};
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::run;
use ucla_agcm_repro::physics::balance::exec::run_balanced;
use ucla_agcm_repro::physics::balance::scheme3::PairwiseExchange;
use ucla_agcm_repro::physics::step::{run_column, PhysicsConfig, PhysicsStep};

/// Model steps of 215.5 s from 1,500 s: across the half hours at 1,800,
/// 3,600, 5,400 and 7,200 s and the hours at 3,600 and 7,200 s; then the
/// same times backwards; then a repeated time, a step back across a
/// boundary and the repeated time again.
fn time_walk() -> Vec<f64> {
    let forward: Vec<f64> = (0..28).map(|n| 1_500.0 + 215.5 * n as f64).collect();
    let mut walk = forward.clone();
    walk.extend(forward.iter().rev());
    walk.extend([3_600.0, 3_600.0, 3_599.75, 3_600.0]);
    walk
}

/// A field of temperatures in (−6, 6) that convection mixes.
fn field(sub: &Subdomain, n_lev: usize, seed: usize) -> HaloField {
    HaloField::from_fn(sub.ni, sub.nj, n_lev, 1, |i, j, k| {
        ((i * 37 + j * 101 + k * 53 + seed * 7) % 211) as f64 / 211.0 * 12.0 - 6.0
    })
}

#[test]
fn one_kernel_walked_across_noise_buckets_matches_the_oracle() {
    let grid = GridSpec::new(37, 13, 9);
    let cfg = PhysicsConfig::for_grid(&grid);
    // A whole grid, and a mesh rank whose origin is not the grid's.
    for sub in [
        Decomp::new(grid, 1, 1).subdomain_of_rank(0),
        Decomp::new(grid, 2, 3).subdomain_of_rank(4),
    ] {
        run(1, |c| {
            let step = PhysicsStep::new(grid, sub);
            for (n, t) in time_walk().into_iter().enumerate() {
                let before = field(&sub, grid.n_lev, n);
                let mut after = before.clone();
                let flops = step.run_local(c, &mut after, t);
                let mut expected = 0.0;
                for j in 0..sub.nj {
                    for i in 0..sub.ni {
                        let mut col = before.column(i, j);
                        expected += run_column(&cfg, &grid, sub.i0 + i, sub.j0 + j, t, &mut col);
                        let got = after.column(i, j);
                        for k in 0..grid.n_lev {
                            assert_eq!(
                                got[k].to_bits(),
                                col[k].to_bits(),
                                "sub {sub:?} column ({i},{j}) level {k}, step {n} at t={t}"
                            );
                        }
                    }
                }
                assert_eq!(flops, expected, "sub {sub:?}, step {n} at t={t}");
            }
        });
    }
}

#[test]
fn balanced_passes_across_a_bucket_boundary_equal_local_passes() {
    let grid = GridSpec::new(50, 17, 9);
    let decomp = Decomp::new(grid, 2, 3);
    // Across a half hour, across an hour, then back across both.
    let times = [1_790.0, 1_810.0, 3_590.0, 3_610.0, 1_795.0];
    let theta =
        |rank: usize, n: usize| field(&decomp.subdomain_of_rank(rank), grid.n_lev, 10 * n + rank);
    // One step object per rank, reused across the times.
    let local = run(decomp.size(), |c| {
        let step = PhysicsStep::new(grid, decomp.subdomain_of_rank(c.rank()));
        times
            .iter()
            .enumerate()
            .map(|(n, &t)| {
                let mut th = theta(c.rank(), n);
                let flops = step.run_local(c, &mut th, t);
                (th, flops)
            })
            .collect::<Vec<_>>()
    });
    let plans: Vec<Vec<_>> = (0..times.len())
        .map(|n| {
            let loads: Vec<f64> = local.iter().map(|rank| rank[n].1).collect();
            let rounds = PairwiseExchange::default().plan_rounds(&loads, 0.0, 2);
            rounds.into_iter().flatten().collect()
        })
        .collect();
    assert!(
        plans.iter().all(|plan| !plan.is_empty()),
        "every pass must actually move columns"
    );
    // One world: each rank's thread keeps its pass state across the times.
    let balanced = run(decomp.size(), |c| {
        let sub = decomp.subdomain_of_rank(c.rank());
        times
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(n, (&t, plan))| {
                let mut th = theta(c.rank(), n);
                let pass = run_balanced(c, &grid, &sub, &mut th, t, plan);
                (th, pass)
            })
            .collect::<Vec<_>>()
    });
    for (rank, (passes, expected)) in balanced.iter().zip(&local).enumerate() {
        for (n, ((th, pass), (want, load))) in passes.iter().zip(expected).enumerate() {
            let t = times[n];
            let same = th
                .interior_rows()
                .flatten()
                .zip(want.interior_rows().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "rank {rank} at t={t}: balanced theta differs");
            assert_eq!(pass.owned, *load, "rank {rank} at t={t}: owned load");
        }
    }
    for (n, &t) in times.iter().enumerate() {
        let performed: f64 = balanced.iter().map(|rank| rank[n].1.performed).sum();
        let owned: f64 = local.iter().map(|rank| rank[n].1).sum();
        assert_eq!(performed, owned, "work is conserved at t={t}");
    }
}
