//! Satellite + acceptance tests for the variable organization of the
//! redistribute engine:
//!
//! * aggregated (all variables of a class in one pass — production) and
//!   per-variable (paper-faithful) organizations produce the same fields;
//! * one aggregated filtered step sends at most one forward + one backward
//!   message per communicating rank pair **per filter class** (asserted
//!   from `WorldTrace` send counts against a no-filter baseline);
//! * aggregation strictly reduces total message count versus the
//!   one-variable-at-a-time organization.

use agcm_filtering::reference::{global_from_locals, local_from_global, synthetic_field};
use agcm_filtering::{FilterOrganization, FilterSetup, FilterVariant, PolarFilter};
use agcm_grid::decomp::Decomp;
use agcm_grid::field::Field3D;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::{run, run_traced};
use agcm_mps::topology::CartComm;
use agcm_mps::trace::{Event, WorldTrace};

const GRID: (usize, usize, usize) = (48, 24, 2);
const MESH: (usize, usize) = (3, 2);

fn run_filtered(
    variant: FilterVariant,
    organization: FilterOrganization,
    mesh: (usize, usize),
    traced: bool,
) -> (Vec<Vec<Field3D>>, WorldTrace) {
    let grid = GridSpec::new(GRID.0, GRID.1, GRID.2);
    let decomp = Decomp::new(grid, mesh.0, mesh.1);
    let globals: Vec<Field3D> = (0..6).map(|v| synthetic_field(&grid, v)).collect();
    let body = move |c: &agcm_mps::comm::Comm| {
        let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
        let setup = FilterSetup::new(grid, decomp);
        let filter = PolarFilter::with_organization(&setup, variant, organization);
        let sub = decomp.subdomain_of_rank(c.rank());
        let mut fields: Vec<Field3D> = globals.iter().map(|g| local_from_global(g, &sub)).collect();
        filter.apply(&setup, &cart, &mut fields);
        fields
    };
    if traced {
        run_traced(decomp.size(), body)
    } else {
        (run(decomp.size(), body), WorldTrace::default())
    }
}

/// Sends of the whole trace as ordered `(src, dst) → count`.
fn send_counts(trace: &WorldTrace) -> Vec<Vec<usize>> {
    let p = trace.size();
    let mut counts = vec![vec![0usize; p]; p];
    for (src, events) in trace.ranks.iter().enumerate() {
        for ev in events {
            if let Event::Send { to, .. } = ev {
                counts[src][*to] += 1;
            }
        }
    }
    counts
}

/// Trace a run that only sets up the communicator — the message floor any
/// filtered run sits on.
fn baseline_counts() -> Vec<Vec<usize>> {
    let grid = GridSpec::new(GRID.0, GRID.1, GRID.2);
    let decomp = Decomp::new(grid, MESH.0, MESH.1);
    let (_, trace) = run_traced(decomp.size(), move |c| {
        let _cart = CartComm::new(c, MESH.0, MESH.1, (false, true));
    });
    send_counts(&trace)
}

#[test]
fn organizations_produce_identical_fields() {
    for variant in [FilterVariant::FftNoLb, FilterVariant::LbFft] {
        let grid = GridSpec::new(GRID.0, GRID.1, GRID.2);
        let decomp = Decomp::new(grid, MESH.0, MESH.1);
        let (agg, _) = run_filtered(variant, FilterOrganization::Aggregated, MESH, false);
        let (per, _) = run_filtered(variant, FilterOrganization::PerVariable, MESH, false);
        for v in 0..6 {
            let ga = global_from_locals(
                &agg.iter().map(|l| l[v].clone()).collect::<Vec<_>>(),
                &decomp,
            );
            let gp = global_from_locals(
                &per.iter().map(|l| l[v].clone()).collect::<Vec<_>>(),
                &decomp,
            );
            let err = ga.max_abs_diff(&gp);
            assert!(
                err < 1e-9,
                "{variant:?} variable {v}: aggregated vs per-variable differ by {err}"
            );
        }
    }
}

#[test]
fn aggregated_step_sends_at_most_one_message_pair_per_class() {
    let base = baseline_counts();
    for variant in [FilterVariant::FftNoLb, FilterVariant::LbFft] {
        let (_, trace) = run_filtered(variant, FilterOrganization::Aggregated, MESH, true);
        let counts = send_counts(&trace);
        for (src, row) in counts.iter().enumerate() {
            for (dst, &c) in row.iter().enumerate() {
                let extra = c.saturating_sub(base[src][dst]);
                // 2 filter classes × (1 forward + 1 backward) at most.
                assert!(
                    extra <= 4,
                    "{variant:?}: rank {src}→{dst} sent {extra} filter messages (max 4)"
                );
            }
        }
    }
}

#[test]
fn aggregation_strictly_reduces_messages() {
    // Merging only has material when one rank pair exchanges chunks of
    // more than one variable. Under row-local owners that happens on any
    // mesh (round-robin interleaves all variables within a row); under
    // balanced owners the variable blocks of a 2-D mesh can land in
    // disjoint source rows, so the LbFft case uses a single-row mesh where
    // every variable's sources share the row.
    let cases = [
        (FilterVariant::FftNoLb, MESH),
        (FilterVariant::LbFft, (1, 6)),
    ];
    for (variant, mesh) in cases {
        let (_, agg) = run_filtered(variant, FilterOrganization::Aggregated, mesh, true);
        let (_, per) = run_filtered(variant, FilterOrganization::PerVariable, mesh, true);
        assert!(
            agg.total_messages() < per.total_messages(),
            "{variant:?}: aggregated {} vs per-variable {}",
            agg.total_messages(),
            per.total_messages()
        );
    }
}

#[test]
fn work_and_traffic_of_one_application_are_pinned() {
    // Flops are charged per latitude group of each owner
    // (pairs·pair_filter_flops + tail·real_filter_flops), and one
    // application's messages and bytes are fixed by the assignment — none
    // of it may move when the filter's executor or staging changes.
    // (variant, organization, per-rank flops summed, messages, bytes) on a
    // 2×3 mesh, CartComm set-up included; captured before the lane-batched
    // executor and the pass plan went in.
    let cases = [
        (
            FilterVariant::FftNoLb,
            FilterOrganization::Aggregated,
            184626.04802215387,
            78,
            66016,
        ),
        (
            FilterVariant::FftNoLb,
            FilterOrganization::PerVariable,
            190002.0480221539,
            174,
            66016,
        ),
        (
            FilterVariant::LbFft,
            FilterOrganization::Aggregated,
            184050.0480221539,
            134,
            82144,
        ),
        (
            FilterVariant::LbFft,
            FilterOrganization::PerVariable,
            184050.0480221539,
            134,
            82144,
        ),
    ];
    for (variant, organization, flops, messages, bytes) in cases {
        let (_, trace) = run_filtered(variant, organization, (2, 3), true);
        let got = (
            trace.total_flops(),
            trace.total_messages(),
            trace.total_bytes(),
        );
        assert_eq!(
            got,
            (flops, messages, bytes),
            "{variant:?} {organization:?}"
        );
    }
}
