//! Property tests for the physics load-balancing schemes, centred on the
//! adopted scheme 3 (iterated pairwise exchange).
//!
//! No external property-testing crate is available offline; properties run
//! over seeded SplitMix64 cases each, deterministic across runs. Three
//! families:
//!
//! * plan algebra — conservation of total load, non-increasing imbalance
//!   round over round, pairwise disjointness within a round;
//! * message-count bounds — scheme 1 pays exactly P·(P−1) messages on
//!   all-positive loads, scheme 2 at most P−1, scheme 3 at most ⌊P/2⌋
//!   *per round* (the paper's reason for adopting it);
//! * execution equivalence — running physics under any scheme-3 plan is
//!   bit-identical to the unbalanced run and performs the same total work.

use agcm_grid::decomp::Decomp;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::{
    apply_plan, BalanceScheme, CyclicShuffle, PairwiseExchange, SortedGreedy, Transfer,
};
use agcm_physics::load::imbalance;
use agcm_physics::step::PhysicsStep;

const CASES: u64 = 64;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
    /// A load in (0, 100): strictly positive, spread over two decades.
    fn load(&mut self) -> f64 {
        0.1 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 99.9
    }
    fn loads(&mut self, p: usize) -> Vec<f64> {
        (0..p).map(|_| self.load()).collect()
    }
}

/// Every transfer well-formed; no rank touched twice within one round
/// (scheme 3 exchanges between *disjoint* pairs of the sorted order).
fn assert_round_well_formed(round: &[Transfer], p: usize, case: u64) {
    let mut touched = vec![false; p];
    for t in round {
        assert_ne!(t.from, t.to, "case {case}: self-transfer");
        assert!(t.amount > 0.0, "case {case}: non-positive amount");
        assert!(t.from < p && t.to < p, "case {case}: rank out of range");
        for r in [t.from, t.to] {
            assert!(!touched[r], "case {case}: rank {r} in two pairs");
            touched[r] = true;
        }
    }
}

#[test]
fn plan_rounds_conserve_total_and_never_worsen_imbalance() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let p = rng.range(2, 13);
        let loads = rng.loads(p);
        let total: f64 = loads.iter().sum();
        let target = [0.0, 0.02, 0.1][rng.range(0, 3)];
        let max_rounds = rng.range(1, 5);

        let rounds = PairwiseExchange::default().plan_rounds(&loads, target, max_rounds);
        assert!(rounds.len() <= max_rounds, "case {case}");

        let mut current = loads.clone();
        let mut history = vec![imbalance(&current)];
        for round in &rounds {
            assert_round_well_formed(round, p, case);
            assert!(
                round.len() <= p / 2,
                "case {case}: {} transfers for P={p}",
                round.len()
            );
            apply_plan(&mut current, round);
            history.push(imbalance(&current));
        }
        let after: f64 = current.iter().sum();
        assert!(
            (after - total).abs() < 1e-9 * total.max(1.0),
            "case {case}: total load {total} -> {after}"
        );
        for w in history.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "case {case}: imbalance rose {} -> {}: {history:?}",
                w[0],
                w[1]
            );
        }
        // An early stop means the target was reached (or the loads ended
        // perfectly equal, where the pairwise plan is empty — imbalance 0).
        if rounds.len() < max_rounds {
            assert!(
                *history.last().unwrap() <= target + 1e-12,
                "case {case}: stopped early above target {target}: {history:?}"
            );
        }
    }
}

#[test]
fn message_count_bounds_scheme1_vs_scheme2_vs_scheme3() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5CE3 ^ case);
        let p = rng.range(2, 13);
        let loads = rng.loads(p);

        // Scheme 1 always shuffles everything: exactly P·(P−1) messages
        // when every load is positive (Figure 4's all-to-all).
        assert_eq!(
            CyclicShuffle.message_count(&loads),
            p * (p - 1),
            "case {case}: P={p}"
        );

        // Scheme 2: the greedy donor→receiver merge emits at most P−1
        // transfers (each step exhausts a donor or a receiver).
        let s2 = SortedGreedy::default().plan(&loads);
        assert!(
            s2.len() < p,
            "case {case}: scheme 2 planned {} > P-1={}",
            s2.len(),
            p - 1
        );

        // Scheme 3: at most ⌊P/2⌋ per round — and that bound holds for
        // every round of an iterated plan, not just the first.
        for round in PairwiseExchange::default().plan_rounds(&loads, 0.0, 4) {
            assert!(round.len() <= p / 2, "case {case}: P={p}");
        }
    }
}

#[test]
fn balanced_physics_is_bit_identical_and_work_conserving() {
    let grid = GridSpec::new(24, 12, 3);
    let decomp = Decomp::new(grid, 2, 2);
    let t = 21_600.0;

    let initial = |sub: &agcm_grid::decomp::Subdomain| {
        HaloField::from_fn(sub.ni, sub.nj, grid.n_lev, 1, |i, j, k| {
            ((sub.i0 + i) as f64 * 0.3).sin() + ((sub.j0 + j) as f64 * 0.2).cos() - 0.05 * k as f64
        })
    };

    // The unbalanced baseline, once.
    let baseline = run(decomp.size(), |c| {
        let sub = decomp.subdomain_of_rank(c.rank());
        let mut theta = initial(&sub);
        let flops = PhysicsStep::new(grid, sub).run_local(c, &mut theta, t);
        (theta, flops)
    });
    let baseline_total: f64 = baseline.iter().map(|(_, f)| f).sum();

    // Randomized scheme-3 plans over perturbed load estimates. Every rank
    // derives the same plan from the shared case seed, as the model does
    // from its gathered estimates.
    for case in 0..8u64 {
        let balanced = run(decomp.size(), |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut rng = Rng::new(case);
            let loads: Vec<f64> = (0..decomp.size())
                .map(|r| {
                    let predicted =
                        PhysicsStep::new(grid, decomp.subdomain_of_rank(r)).predicted_load(t);
                    predicted * (0.5 + 1.5 * (rng.load() / 100.0))
                })
                .collect();
            let target = [0.0, 0.05][rng.range(0, 2)];
            let rounds = PairwiseExchange::default().plan_rounds(&loads, target, rng.range(1, 4));
            let plan: Vec<Transfer> = rounds.into_iter().flatten().collect();
            let mut theta = initial(&sub);
            let br = run_balanced(c, &grid, &sub, &mut theta, t, &plan);
            (theta, br.performed)
        });
        let mut performed_total = 0.0;
        for (rank, ((theta, performed), (base, _))) in balanced.iter().zip(&baseline).enumerate() {
            assert_eq!(
                theta, base,
                "case {case}: rank {rank} diverged from the unbalanced run"
            );
            performed_total += performed;
        }
        assert!(
            (performed_total - baseline_total).abs() < 1e-6 * baseline_total,
            "case {case}: balancing changed total work {baseline_total} -> {performed_total}"
        );
    }
}
