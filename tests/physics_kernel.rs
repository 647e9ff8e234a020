//! The batch column-physics kernel is an *equivalence claim*: a latitude
//! row advanced side by side from hoisted forcing tables must leave every
//! bit of every column where the per-column formulation (`run_column`,
//! kept as the oracle) leaves it — on one rank, through the balancer's
//! packed foreign columns, and in the flops it reports.

use ucla_agcm_repro::grid::decomp::{Decomp, Subdomain};
use ucla_agcm_repro::grid::halo::HaloField;
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::run;
use ucla_agcm_repro::physics::balance::exec::run_balanced;
use ucla_agcm_repro::physics::balance::scheme3::PairwiseExchange;
use ucla_agcm_repro::physics::forcing::Forcing;
use ucla_agcm_repro::physics::step::{run_column, PhysicsConfig, PhysicsStep};

/// Times spanning day and night at every longitude, both sides of the
/// half-hour and hour noise-bucket boundaries, and several days in.
const TIMES: [f64; 9] = [
    0.0,
    1_799.999,
    1_800.0,
    3_599.5,
    3_600.0,
    21_600.0,
    43_200.0,
    64_800.25,
    3.0 * 86_400.0 + 1_234.5,
];

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
}

/// A field of LCG temperatures in (−6, 6). One value in eight repeats the
/// one before it and one in sixteen is a signed zero, so equal neighbouring
/// layers and `−0.0` — where a careless rewrite loses the sign — occur.
fn seeded_field(sub: &Subdomain, n_lev: usize, seed: u64) -> HaloField {
    let mut rng = Lcg(seed);
    let mut prev = 0.5;
    HaloField::from_fn(sub.ni, sub.nj, n_lev, 1, |_, _, _| {
        let r = rng.next_u32();
        prev = match r % 16 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => prev,
            _ => (r >> 4) as f64 / (1u64 << 28) as f64 * 12.0 - 6.0,
        };
        prev
    })
}

/// One `run_local` pass over a copy of `theta`: the field after it and
/// the flops it reports.
fn local_pass(grid: GridSpec, sub: Subdomain, theta: &HaloField, t: f64) -> (HaloField, f64) {
    run(1, |c| {
        let mut theta = theta.clone();
        let flops = PhysicsStep::new(grid, sub).run_local(c, &mut theta, t);
        (theta, flops)
    })
    .pop()
    .expect("one rank")
}

/// `run_local` on `sub` against the oracle, column by column, bit by bit.
fn assert_matches_oracle(grid: GridSpec, sub: Subdomain, t: f64, seed: u64) {
    let cfg = PhysicsConfig::for_grid(&grid);
    let before = seeded_field(&sub, grid.n_lev, seed);
    let (after, flops) = local_pass(grid, sub, &before, t);

    let mut expected_flops = 0.0;
    for j in 0..sub.nj {
        for i in 0..sub.ni {
            let mut col = before.column(i, j);
            expected_flops += run_column(&cfg, &grid, sub.i0 + i, sub.j0 + j, t, &mut col);
            let got = after.column(i, j);
            for k in 0..grid.n_lev {
                assert_eq!(
                    got[k].to_bits(),
                    col[k].to_bits(),
                    "grid {grid:?} sub ({},{}) column ({i},{j}) level {k} at t={t}: {} vs {}",
                    sub.i0,
                    sub.j0,
                    got[k],
                    col[k]
                );
            }
        }
    }
    assert_eq!(flops, expected_flops, "grid {grid:?} t={t}");
}

#[test]
fn batch_kernel_is_bit_identical_to_the_column_oracle() {
    // Every level count the kernel's pair loop has a distinct shape for,
    // on a grid whose rows 0 and n_lat−1 sit half a cell from the poles.
    for (case, n_lev) in [1, 2, 9, 18].into_iter().enumerate() {
        let grid = GridSpec::new(36, 24, n_lev);
        let sub = Decomp::new(grid, 1, 1).subdomain_of_rank(0);
        for (n, &t) in TIMES.iter().enumerate() {
            assert_matches_oracle(grid, sub, t, (case * 100 + n) as u64);
        }
    }
    // Row lengths that are a multiple of no vector width, alone and as the
    // uneven sub-domains of a 2×3 mesh (i0, j0 ≠ 0 on most ranks).
    for (n_lon, n_lat) in [(37, 13), (50, 17)] {
        let grid = GridSpec::new(n_lon, n_lat, 9);
        let whole = Decomp::new(grid, 1, 1);
        let mesh = Decomp::new(grid, 2, 3);
        for (n, &t) in TIMES.iter().enumerate() {
            assert_matches_oracle(grid, whole.subdomain_of_rank(0), t, 1_000 + n as u64);
            for rank in 0..mesh.size() {
                let sub = mesh.subdomain_of_rank(rank);
                assert_matches_oracle(grid, sub, t, (2_000 + 10 * n + rank) as u64);
            }
        }
    }
}

#[test]
fn balanced_pass_equals_local_pass_on_2x3() {
    let grid = GridSpec::new(50, 17, 9);
    let decomp = Decomp::new(grid, 2, 3);
    for (n, t) in [21_600.0, 64_800.25].into_iter().enumerate() {
        let field = |rank: usize| {
            seeded_field(
                &decomp.subdomain_of_rank(rank),
                grid.n_lev,
                (n * 10 + rank) as u64,
            )
        };
        let local = run(decomp.size(), |c| {
            let mut theta = field(c.rank());
            let step = PhysicsStep::new(grid, decomp.subdomain_of_rank(c.rank()));
            let flops = step.run_local(c, &mut theta, t);
            (theta, flops)
        });
        let loads: Vec<f64> = local.iter().map(|(_, flops)| *flops).collect();
        let plan: Vec<_> = PairwiseExchange::default()
            .plan_rounds(&loads, 0.0, 2)
            .into_iter()
            .flatten()
            .collect();
        assert!(!plan.is_empty(), "the case must actually move columns");
        let balanced = run(decomp.size(), |c| {
            let mut theta = field(c.rank());
            let sub = decomp.subdomain_of_rank(c.rank());
            let pass = run_balanced(c, &grid, &sub, &mut theta, t, &plan);
            (theta, pass)
        });
        let mut performed = 0.0;
        for (rank, ((theta, pass), (expected, load))) in balanced.iter().zip(&local).enumerate() {
            let same = theta
                .interior_rows()
                .flatten()
                .zip(expected.interior_rows().flatten())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "rank {rank} at t={t}: balanced theta differs");
            assert_eq!(pass.owned, *load, "rank {rank}: owned load");
            performed += pass.performed;
        }
        assert_eq!(performed, loads.iter().sum::<f64>(), "work is conserved");
    }
}

#[test]
fn predicted_load_equals_flops_returned() {
    let grid = GridSpec::new(37, 13, 9);
    let decomp = Decomp::new(grid, 2, 3);
    for rank in 0..decomp.size() {
        let sub = decomp.subdomain_of_rank(rank);
        let theta = seeded_field(&sub, grid.n_lev, rank as u64);
        // One step object across all times: its tables must follow `t`.
        let step = PhysicsStep::new(grid, sub);
        for &t in &TIMES {
            let (_, performed) = local_pass(grid, sub, &theta, t);
            assert_eq!(step.predicted_load(t), performed, "rank {rank} at t={t}");
        }
    }
}

/// The benchmark's golden load sum, `ModelRun` loads and `owned`/`performed`
/// totals are sums of per-column charges taken in different orders (by row,
/// by block, by rank). They agree bit for bit only because every charge is
/// a whole number far below 2⁵³, which makes each partial sum exact.
#[test]
fn every_column_flop_charge_is_a_whole_number() {
    for n_lev in [1, 2, 9, 15, 18] {
        let grid = GridSpec::new(36, 24, n_lev);
        let cfg = PhysicsConfig::for_grid(&grid);
        let mut forcing = Forcing::new(&grid, 0.0);
        for &t in &TIMES {
            forcing.set_time(t);
            for j in 0..grid.n_lat {
                for i in 0..grid.n_lon {
                    let charge = forcing.cost(i, j).flops;
                    assert_eq!(charge.fract(), 0.0, "({i},{j}) at t={t}: {charge}");
                    assert!(charge > 0.0 && charge < 1e9);
                    let mut col = vec![0.25; n_lev];
                    assert_eq!(run_column(&cfg, &grid, i, j, t, &mut col), charge);
                }
            }
        }
    }
}
