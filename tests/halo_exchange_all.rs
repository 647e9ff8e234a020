//! `exchange_all` ≡ the same fields exchanged one by one, to the bit,
//! ghosts and corners included.
//!
//! `Dynamics::step` hands its six staged halos to one `exchange_all`,
//! which posts every field's sends of a phase before the first receive and
//! packs each strip into the buffer last received from that neighbour.
//! Neither may change a ghost value: messages between two ranks under one
//! tag are non-overtaking, so the k-th strip belongs to the k-th field,
//! and a circulating buffer is cleared before it is packed. Checked on
//! meshes with self-wrap (1×1), one neighbour on both sides (1×2), real
//! corners (2×2, 2×3), poles on every rank (1×n) and none in the middle
//! (3×1), with halo widths 1 and 2, mixed level counts and uneven
//! subdomains — and over repeated exchanges with the interior changed in
//! between, so every warmed buffer is reused.

use ucla_agcm_repro::grid::decomp::Decomp;
use ucla_agcm_repro::grid::halo::{exchange_all, HaloField};
use ucla_agcm_repro::grid::latlon::GridSpec;
use ucla_agcm_repro::mps::runtime::{run, run_traced};
use ucla_agcm_repro::mps::topology::CartComm;
use ucla_agcm_repro::mps::trace::Event;

/// 23 × 14: thirds of 23 are 8, 8, 7 and thirds of 14 are 5, 5, 4.
const N_LON: usize = 23;
const N_LAT: usize = 14;

/// `(halo width, levels)` of the fields one call exchanges.
const FIELDS: [(usize, usize); 5] = [(1, 3), (2, 3), (1, 2), (2, 1), (1, 3)];

/// A value that names its field, global point, level and round.
fn truth(field: usize, gi: usize, gj: usize, k: usize, round: usize) -> f64 {
    (field * 1_000_000 + gi * 10_000 + gj * 100 + k * 10 + round) as f64 + 0.25
}

fn staged(field: usize, i0: usize, j0: usize, shape: (usize, usize), round: usize) -> HaloField {
    let (h, nk) = FIELDS[field];
    let mut f = HaloField::zeros(shape.0, shape.1, nk, h);
    f.fill_interior(|i, j, k| truth(field, i0 + i, j0 + j, k, round));
    f
}

fn bits(f: &HaloField) -> Vec<u64> {
    f.padded().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn exchange_all_equals_one_by_one_on_every_mesh() {
    let grid = GridSpec::new(N_LON, N_LAT, 3);
    for mesh in [(1usize, 1usize), (1, 2), (2, 2), (2, 3), (3, 1)] {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        run(decomp.size(), |comm| {
            let cart = CartComm::new(comm, mesh.0, mesh.1, (false, true));
            let sub = decomp.subdomain_of_rank(comm.rank());
            let build = |round| -> Vec<HaloField> {
                (0..FIELDS.len())
                    .map(|v| staged(v, sub.i0, sub.j0, (sub.ni, sub.nj), round))
                    .collect()
            };
            let (mut single, mut batched) = (build(0), build(0));
            for round in 0..3 {
                // Refresh the interiors, keep the ghosts (and the warmed
                // buffers) of the previous round.
                for (v, (a, b)) in single.iter_mut().zip(&mut batched).enumerate() {
                    let fresh = |i, j, k| truth(v, sub.i0 + i, sub.j0 + j, k, round);
                    a.fill_interior(fresh);
                    b.fill_interior(fresh);
                }
                for f in &mut single {
                    f.exchange(&cart);
                }
                exchange_all(&mut batched, &cart);

                for (v, (a, b)) in single.iter().zip(&batched).enumerate() {
                    assert_eq!(
                        bits(a),
                        bits(b),
                        "mesh {mesh:?} rank {} field {v} round {round}",
                        comm.rank()
                    );
                    // And both are right: every ghost, corners included,
                    // holds the global value (longitude wraps, the poles
                    // replicate their edge row).
                    let (h, nk) = FIELDS[v];
                    let h = h as isize;
                    for k in 0..nk {
                        for j in -h..sub.nj as isize + h {
                            for i in -h..sub.ni as isize + h {
                                let gi = (sub.i0 as isize + i).rem_euclid(N_LON as isize);
                                let gj = (sub.j0 as isize + j).clamp(0, N_LAT as isize - 1);
                                assert_eq!(
                                    b.get(i, j, k),
                                    truth(v, gi as usize, gj as usize, k, round),
                                    "mesh {mesh:?} rank {} field {v} round {round} at ({i},{j},{k})",
                                    comm.rank()
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn exchange_all_sends_the_messages_of_one_by_one_exchanges() {
    // Posting order is all that differs: per rank, the same number of
    // messages of the same sizes (the cost model replays these counts).
    let grid = GridSpec::new(N_LON, N_LAT, 3);
    let decomp = Decomp::new(grid, 2, 2);
    let (_, trace) = run_traced(decomp.size(), |comm| {
        let cart = CartComm::new(comm, 2, 2, (false, true));
        let sub = decomp.subdomain_of_rank(comm.rank());
        let mut fields: Vec<HaloField> = (0..FIELDS.len())
            .map(|v| staged(v, sub.i0, sub.j0, (sub.ni, sub.nj), 0))
            .collect();
        comm.phase("batched", || exchange_all(&mut fields, &cart));
        comm.phase("single", || {
            for f in &mut fields {
                f.exchange(&cart);
            }
        });
    });
    for events in &trace.ranks {
        let sends_in = |phase: &str| -> Vec<usize> {
            let mut inside = false;
            let mut out = Vec::new();
            for e in events {
                match e {
                    Event::PhaseBegin(n) if *n == phase => inside = true,
                    Event::PhaseEnd(n) if *n == phase => inside = false,
                    Event::Send { bytes, .. } if inside => out.push(*bytes),
                    _ => {}
                }
            }
            out.sort_unstable();
            out
        };
        let batched = sends_in("batched");
        // On 2×2 every rank has one latitude neighbour: 2 + 1 per field.
        assert_eq!(batched.len(), 3 * FIELDS.len());
        assert_eq!(batched, sends_in("single"), "same messages, same sizes");
    }
}
