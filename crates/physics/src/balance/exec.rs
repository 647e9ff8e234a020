//! Executing a balance plan: actually moving columns between ranks.
//!
//! The paper first evaluated scheme 3 "without actually moving the data
//! arrays around"; this module is the complete implementation ("A complete
//! implementation of the load-balancing module for the physics component
//! is being developed", §6 — here it is). A donor selects columns whose
//! predicted cost sums to the planned amount, ships profile + coordinates
//! to the receiver, the receiver runs the physics on the foreign columns
//! and returns the results, and the donor writes them back. Column physics
//! is location-independent, so the balanced run is bit-identical to the
//! unbalanced one.

use super::Transfer;
use crate::kernel::ColumnKernel;
use agcm_grid::decomp::Subdomain;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use agcm_mps::comm::Comm;
use agcm_mps::message::Payload;
use std::cell::RefCell;
use std::ops::Range;

const TAG_META: u64 = 301;
const TAG_DATA: u64 = 302;
const TAG_RESULT: u64 = 303;

/// The two load measurements of a balanced pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancedRun {
    /// Flops this rank executed (own remaining + foreign columns) — the
    /// quantity whose spread Tables 1–3 report.
    pub performed: f64,
    /// Cost of the columns this rank *owns* (wherever they ran) — the
    /// correct estimate for planning the next pass's balancing, since
    /// delegation is transient and ownership never moves.
    pub owned: f64,
}

/// What a rank keeps from one balanced pass to the next, so a warmed pass
/// builds no tables and allocates no column buffers. [`run_balanced`] is a
/// free function called once per step by whoever drives the model, and a
/// rank is a thread, so the state is the thread's.
struct PassState {
    grid: GridSpec,
    /// Forcing tables and kernel scratch, moved to each pass's time.
    kernel: ColumnKernel,
    /// This pass's outgoing transfers: receiver and delegated columns.
    out: Vec<(usize, Range<usize>)>,
    /// Column buffers at rest, one per outgoing transfer. A buffer goes
    /// out as `TAG_DATA`, is advanced in place by the receiver, comes back
    /// as `TAG_RESULT` and is kept for the next pass.
    columns: Vec<Vec<f64>>,
}

thread_local! {
    static PASS: RefCell<Option<PassState>> = const { RefCell::new(None) };
}

/// Run one physics pass executing `plan` (in flop units).
///
/// Delegated columns are a prefix of the local columns in storage order
/// (`j·ni + i`), so each transfer is a range of that order and every level
/// of it is a run of whole or partial latitude rows: columns travel packed
/// level-major, which is the layout the batch kernel runs on.
pub fn run_balanced(
    comm: &Comm,
    grid: &GridSpec,
    sub: &Subdomain,
    theta: &mut HaloField,
    t: f64,
    plan: &[Transfer],
) -> BalancedRun {
    PASS.with_borrow_mut(|state| {
        let state = match state {
            Some(state) if state.grid == *grid => state,
            _ => state.insert(PassState {
                grid: *grid,
                kernel: ColumnKernel::new(grid, t),
                out: Vec::new(),
                columns: Vec::new(),
            }),
        };
        state.kernel.set_time(t);
        state.run(comm, sub, theta, plan)
    })
}

/// The parts of the column range `cols` (indices `j·ni + i`) that lie in
/// each latitude row: `(j, i range)`, south to north.
fn row_pieces(cols: &Range<usize>, ni: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let (start, end) = (cols.start, cols.end);
    let rows = if start < end {
        start / ni..(end - 1) / ni + 1
    } else {
        0..0
    };
    rows.map(move |j| {
        (
            j,
            start.max(j * ni) - j * ni..end.min((j + 1) * ni) - j * ni,
        )
    })
}

impl PassState {
    fn run(
        &mut self,
        comm: &Comm,
        sub: &Subdomain,
        theta: &mut HaloField,
        plan: &[Transfer],
    ) -> BalancedRun {
        let PassState {
            grid,
            kernel,
            out,
            columns,
        } = self;
        let me = comm.rank();
        let nk = grid.n_lev;
        let n_local = sub.ni * sub.nj;
        let global = |cursor: usize| (sub.i0 + cursor % sub.ni, sub.j0 + cursor / sub.ni);

        // --- Select columns to delegate, one contiguous scan, no overlap. -
        out.clear();
        let mut delegated_cost = 0.0;
        let mut cursor = 0usize;
        for tr in plan.iter().filter(|tr| tr.from == me) {
            let start = cursor;
            let mut shipped = 0.0;
            while shipped < tr.amount && cursor < n_local {
                let (gi, gj) = global(cursor);
                shipped += kernel.forcing().cost(gi, gj).flops;
                cursor += 1;
            }
            out.push((tr.to, start..cursor));
            delegated_cost += shipped;
        }
        if columns.len() < out.len() {
            columns.resize_with(out.len(), Vec::new);
        }

        // --- Ship delegated columns. --------------------------------------
        for ((to, cols), data) in out.iter().zip(columns.iter_mut()) {
            // The coordinates travel one way, so their buffer cannot come
            // home: the one message buffer a pass allocates.
            let mut meta: Vec<i64> = Vec::with_capacity(1 + 2 * cols.len());
            meta.push(cols.len() as i64);
            for (gi, gj) in cols.clone().map(global) {
                meta.push(gi as i64);
                meta.push(gj as i64);
            }
            let mut data = std::mem::take(data);
            data.clear();
            for k in 0..nk {
                for (j, i) in row_pieces(cols, sub.ni) {
                    data.extend_from_slice(&theta.interior_row(j, k)[i]);
                }
            }
            comm.send(*to, TAG_META, Payload::I64(meta));
            comm.send(*to, TAG_DATA, Payload::F64(data));
        }

        // --- Process what stays local: the rest of the cursor's row, ------
        // --- then whole rows. ---------------------------------------------
        let mut local_own = 0.0;
        let (mut j, mut i) = (cursor / sub.ni, cursor % sub.ni);
        while j < sub.nj {
            local_own += kernel.run_row(theta, sub, j, i..sub.ni);
            (j, i) = (j + 1, 0);
        }
        let mut flops = local_own;

        // --- Process foreign columns and return them in their buffer. -----
        for tr in plan.iter().filter(|tr| tr.to == me) {
            let meta = comm.recv_i64(tr.from, TAG_META);
            let mut data = comm.recv_f64(tr.from, TAG_DATA);
            let n_cols = meta[0] as usize;
            assert_eq!(data.len(), n_cols * nk, "column data length mismatch");
            flops += kernel.run_packed(
                |c| (meta[1 + 2 * c] as usize, meta[2 + 2 * c] as usize),
                &mut data,
            );
            comm.send(tr.from, TAG_RESULT, Payload::F64(data));
        }
        comm.record_flops(flops);

        // --- Collect results for our delegated columns. -------------------
        for ((to, cols), spare) in out.iter().zip(columns.iter_mut()) {
            let data = comm.recv_f64(*to, TAG_RESULT);
            let mut from = data.iter();
            for k in 0..nk {
                for (j, i) in row_pieces(cols, sub.ni) {
                    for (x, v) in theta.interior_row_mut(j, k)[i].iter_mut().zip(&mut from) {
                        *x = *v;
                    }
                }
            }
            *spare = data;
        }
        BalancedRun {
            performed: flops,
            owned: local_own + delegated_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::scheme3::PairwiseExchange;
    use crate::balance::BalanceScheme;
    use crate::load::imbalance;
    use crate::step::PhysicsStep;
    use agcm_grid::decomp::Decomp;
    use agcm_mps::runtime::{run, run_traced};

    fn initial_theta(grid: &GridSpec, sub: &Subdomain) -> HaloField {
        HaloField::from_fn(sub.ni, sub.nj, grid.n_lev, 1, |i, j, k| {
            ((sub.i0 + i) as f64 * 0.3).sin() + ((sub.j0 + j) as f64 * 0.2).cos() - 0.05 * k as f64
        })
    }

    #[test]
    fn balanced_run_is_bit_identical_to_local_run() {
        let grid = GridSpec::new(36, 24, 5);
        let decomp = Decomp::new(grid, 3, 2);
        let t = 43_200.0;

        let unbalanced = run(decomp.size(), |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut theta = initial_theta(&grid, &sub);
            PhysicsStep::new(grid, sub).run_local(c, &mut theta, t);
            theta
        });

        let balanced = run(decomp.size(), |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut theta = initial_theta(&grid, &sub);
            // All ranks compute the same plan from predicted loads.
            let loads: Vec<f64> = (0..decomp.size())
                .map(|r| PhysicsStep::new(grid, decomp.subdomain_of_rank(r)).predicted_load(t))
                .collect();
            let plan = PairwiseExchange::default().plan(&loads);
            run_balanced(c, &grid, &sub, &mut theta, t, &plan);
            theta
        });

        for (a, b) in unbalanced.iter().zip(&balanced) {
            assert_eq!(a, b, "results must be identical");
        }
    }

    #[test]
    fn balancing_reduces_measured_imbalance() {
        let grid = GridSpec::new(72, 46, 9);
        let decomp = Decomp::new(grid, 4, 4);
        let t = 21_600.0;

        let measure = |balance: bool| {
            let (loads, trace) = run_traced(decomp.size(), |c| {
                let sub = decomp.subdomain_of_rank(c.rank());
                let mut theta = initial_theta(&grid, &sub);
                if balance {
                    let loads: Vec<f64> = (0..decomp.size())
                        .map(|r| {
                            PhysicsStep::new(grid, decomp.subdomain_of_rank(r)).predicted_load(t)
                        })
                        .collect();
                    // Two rounds, as in Tables 1-3.
                    let scheme = PairwiseExchange::default();
                    let rounds = scheme.plan_rounds(&loads, 0.0, 2);
                    let mut flat = Vec::new();
                    for r in rounds {
                        flat.extend(r);
                    }
                    run_balanced(c, &grid, &sub, &mut theta, t, &flat).performed
                } else {
                    PhysicsStep::new(grid, sub).run_local(c, &mut theta, t)
                }
            });
            (imbalance(&loads), trace)
        };

        let (imb_before, _) = measure(false);
        let (imb_after, _) = measure(true);
        assert!(imb_before > 0.10, "unbalanced imbalance {imb_before}");
        assert!(
            imb_after < 0.5 * imb_before,
            "balancing must at least halve the imbalance: {imb_before} -> {imb_after}"
        );
    }

    #[test]
    fn empty_plan_equals_local_run() {
        let grid = GridSpec::new(24, 12, 3);
        let decomp = Decomp::new(grid, 2, 2);
        let out = run(4, |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut a = initial_theta(&grid, &sub);
            let fa = run_balanced(c, &grid, &sub, &mut a, 0.0, &[]).performed;
            let mut b = initial_theta(&grid, &sub);
            let fb = PhysicsStep::new(grid, sub).run_local(c, &mut b, 0.0);
            (a == b, (fa - fb).abs())
        });
        for (same, flopdiff) in out {
            assert!(same);
            assert!(flopdiff < 1e-9);
        }
    }

    #[test]
    fn chained_plan_through_intermediate_rank() {
        // Transfers can route through a rank that both receives and sends.
        let grid = GridSpec::new(24, 12, 3);
        let decomp = Decomp::new(grid, 2, 2);
        let plan = vec![
            Transfer {
                from: 0,
                to: 1,
                amount: 5_000.0,
            },
            Transfer {
                from: 1,
                to: 2,
                amount: 5_000.0,
            },
        ];
        let unbalanced = run(4, |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut theta = initial_theta(&grid, &sub);
            PhysicsStep::new(grid, sub).run_local(c, &mut theta, 0.0);
            theta
        });
        let routed = run(4, |c| {
            let sub = decomp.subdomain_of_rank(c.rank());
            let mut theta = initial_theta(&grid, &sub);
            run_balanced(c, &grid, &sub, &mut theta, 0.0, &plan);
            theta
        });
        for (a, b) in unbalanced.iter().zip(&routed) {
            assert_eq!(a, b);
        }
    }
}
