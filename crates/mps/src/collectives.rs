//! Collective operations.
//!
//! All collectives are built from the point-to-point layer, so their cost is
//! visible to the trace replayer exactly as the algorithm performs it: a
//! binomial-tree broadcast on P ranks records ⌈log₂P⌉ rounds of messages,
//! a ring allgather records P−1, and so on. This mirrors the paper's
//! accounting, which counts messages and data volume per algorithm
//! (convolution ring: P·logP messages; binary tree: O(2P); transpose: O(P²)).

use crate::comm::{Comm, COLL_BIT};
use crate::message::Payload;

const TAG_BARRIER: u64 = COLL_BIT | 1;
const TAG_BCAST: u64 = COLL_BIT | 2;
const TAG_REDUCE: u64 = COLL_BIT | 3;
const TAG_GATHER: u64 = COLL_BIT | 4;
const TAG_ALLGATHER: u64 = COLL_BIT | 5;
const TAG_ALLTOALL: u64 = COLL_BIT | 6;

/// Elementwise reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

impl Op {
    /// Apply to a pair of floats.
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            Op::Sum => a + b,
            Op::Max => a.max(b),
            Op::Min => a.min(b),
            Op::Prod => a * b,
        }
    }

    /// Apply to a pair of integers.
    pub fn apply_i64(self, a: i64, b: i64) -> i64 {
        match self {
            Op::Sum => a + b,
            Op::Max => a.max(b),
            Op::Min => a.min(b),
            Op::Prod => a * b,
        }
    }
}

fn combine_f64(acc: &mut [f64], other: &[f64], op: Op) {
    assert_eq!(acc.len(), other.len(), "reduction buffer length mismatch");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = op.apply_f64(*a, b);
    }
}

fn combine_i64(acc: &mut [i64], other: &[i64], op: Op) {
    assert_eq!(acc.len(), other.len(), "reduction buffer length mismatch");
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = op.apply_i64(*a, b);
    }
}

impl Comm {
    /// Dissemination barrier: ⌈log₂P⌉ rounds, each rank sends one empty
    /// message per round.
    pub fn barrier(&self) {
        self.record_collective("barrier");
        let size = self.size();
        let rank = self.rank();
        let mut step = 1;
        while step < size {
            let dst = (rank + step) % size;
            let src = (rank + size - step) % size;
            self.send_internal(dst, TAG_BARRIER, Payload::Empty);
            self.recv_internal(src, TAG_BARRIER);
            step <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root`. The root passes the payload;
    /// every rank (including the root) gets a copy back.
    pub fn bcast(&self, root: usize, payload: Payload) -> Payload {
        self.record_collective("bcast");
        let size = self.size();
        let rank = self.rank();
        assert!(
            root < size,
            "bcast root {root} out of range for size {size}"
        );
        if size == 1 {
            return payload;
        }
        let vrank = (rank + size - root) % size;
        let mut data = payload;
        // Receive from the parent: the rank obtained by clearing our lowest
        // set bit. The root (vrank 0) has no parent and exits the loop with
        // `mask` at the first power of two ≥ size.
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                let src = (vrank - mask + root) % size;
                data = self.recv_internal(src, TAG_BCAST).payload;
                break;
            }
            mask <<= 1;
        }
        // Forward to children: vrank + m for every power of two m below our
        // lowest set bit (below size for the root).
        let mut m = mask >> 1;
        while m > 0 {
            if vrank + m < size {
                let dst = (vrank + m + root) % size;
                self.send_internal(dst, TAG_BCAST, data.clone());
            }
            m >>= 1;
        }
        data
    }

    /// Broadcast an integer buffer from `root`; non-roots pass `&[]`.
    pub fn bcast_i64(&self, root: usize, data: &[i64]) -> Vec<i64> {
        let payload = if self.rank() == root {
            Payload::I64(data.to_vec())
        } else {
            Payload::Empty
        };
        self.bcast(root, payload).into_i64()
    }

    /// Binomial-tree reduction of float buffers to `root`.
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce_f64(&self, root: usize, op: Op, data: &[f64]) -> Option<Vec<f64>> {
        self.record_collective("reduce");
        let size = self.size();
        let rank = self.rank();
        assert!(
            root < size,
            "reduce root {root} out of range for size {size}"
        );
        let vrank = (rank + size - root) % size;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let vsrc = vrank | mask;
                if vsrc < size {
                    let src = (vsrc + root) % size;
                    let other = self.recv_internal(src, TAG_REDUCE).payload.into_f64();
                    combine_f64(&mut acc, &other, op);
                    self.record_flops(acc.len() as f64);
                }
            } else {
                let vdst = vrank & !mask;
                let dst = (vdst + root) % size;
                self.send_internal(dst, TAG_REDUCE, Payload::F64(acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Binomial-tree reduction of integer buffers to `root`.
    pub fn reduce_i64(&self, root: usize, op: Op, data: &[i64]) -> Option<Vec<i64>> {
        self.record_collective("reduce");
        let size = self.size();
        let rank = self.rank();
        assert!(
            root < size,
            "reduce root {root} out of range for size {size}"
        );
        let vrank = (rank + size - root) % size;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let vsrc = vrank | mask;
                if vsrc < size {
                    let src = (vsrc + root) % size;
                    let other = self.recv_internal(src, TAG_REDUCE).payload.into_i64();
                    combine_i64(&mut acc, &other, op);
                }
            } else {
                let vdst = vrank & !mask;
                let dst = (vdst + root) % size;
                self.send_internal(dst, TAG_REDUCE, Payload::I64(acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Reduce-to-root-then-broadcast allreduce for float buffers.
    pub fn allreduce_f64(&self, op: Op, data: &[f64]) -> Vec<f64> {
        match self.reduce_f64(0, op, data) {
            Some(result) => self.bcast(0, Payload::F64(result)).into_f64(),
            None => self.bcast(0, Payload::Empty).into_f64(),
        }
    }

    /// Reduce-to-root-then-broadcast allreduce for integer buffers.
    pub fn allreduce_i64(&self, op: Op, data: &[i64]) -> Vec<i64> {
        match self.reduce_i64(0, op, data) {
            Some(result) => self.bcast(0, Payload::I64(result)).into_i64(),
            None => self.bcast(0, Payload::Empty).into_i64(),
        }
    }

    /// Gather variable-length float buffers to `root`. Returns
    /// `Some(per-rank buffers)` on the root, `None` elsewhere.
    pub fn gather_f64(&self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.record_collective("gather");
        let size = self.size();
        let rank = self.rank();
        assert!(
            root < size,
            "gather root {root} out of range for size {size}"
        );
        if rank == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); size];
            out[root] = data.to_vec();
            #[allow(clippy::needless_range_loop)] // index drives multiple buffers
            for r in 0..size {
                if r != root {
                    out[r] = self.recv_internal(r, TAG_GATHER).payload.into_f64();
                }
            }
            Some(out)
        } else {
            self.send_internal(root, TAG_GATHER, Payload::F64(data.to_vec()));
            None
        }
    }

    /// Ring allgather of integer buffers; result is the concatenation in
    /// rank order. Buffers may have different lengths.
    pub fn allgather_i64(&self, data: &[i64]) -> Vec<i64> {
        let blocks = self.allgather_ring(Payload::I64(data.to_vec()));
        let mut out = Vec::new();
        for b in blocks {
            out.extend_from_slice(&b.into_i64());
        }
        out
    }

    /// Ring allgather of float buffers; result is the concatenation in rank
    /// order. Buffers may have different lengths.
    pub fn allgather_f64(&self, data: &[f64]) -> Vec<f64> {
        let blocks = self.allgather_ring(Payload::F64(data.to_vec()));
        let mut out = Vec::new();
        for b in blocks {
            out.extend_from_slice(&b.into_f64());
        }
        out
    }

    /// Ring allgather keeping per-rank payload boundaries.
    pub fn allgather_ring(&self, mine: Payload) -> Vec<Payload> {
        self.record_collective("allgather");
        let size = self.size();
        let rank = self.rank();
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut blocks: Vec<Option<Payload>> = (0..size).map(|_| None).collect();
        let mut current = mine.clone();
        blocks[rank] = Some(mine);
        for step in 1..size {
            self.send_internal(right, TAG_ALLGATHER, current);
            let from_idx = (rank + size - step) % size;
            current = self.recv_internal(left, TAG_ALLGATHER).payload;
            blocks[from_idx] = Some(current.clone());
        }
        blocks
            .into_iter()
            .map(|b| b.expect("ring fills every block"))
            .collect()
    }

    /// Personalized all-to-all: rank `i` passes `send[j]` for each rank `j`
    /// and receives what every rank addressed to it, indexed by source.
    /// This is the transpose primitive: P−1 messages per rank.
    pub fn alltoallv(&self, mut send: Vec<Payload>) -> Vec<Payload> {
        self.record_collective("alltoallv");
        let size = self.size();
        let rank = self.rank();
        assert_eq!(send.len(), size, "alltoallv needs one payload per rank");
        let mut recv: Vec<Option<Payload>> = (0..size).map(|_| None).collect();
        recv[rank] = Some(std::mem::replace(&mut send[rank], Payload::Empty));
        for offset in 1..size {
            let dst = (rank + offset) % size;
            let src = (rank + size - offset) % size;
            let payload = std::mem::replace(&mut send[dst], Payload::Empty);
            self.send_internal(dst, TAG_ALLTOALL, payload);
            recv[src] = Some(self.recv_internal(src, TAG_ALLTOALL).payload);
        }
        recv.into_iter()
            .map(|b| b.expect("all-to-all fills every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;

    #[test]
    fn op_semantics() {
        assert_eq!(Op::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(Op::Max.apply_f64(2.0, 3.0), 3.0);
        assert_eq!(Op::Min.apply_i64(2, 3), 2);
        assert_eq!(Op::Prod.apply_i64(2, 3), 6);
    }

    #[test]
    fn barrier_completes_various_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            run(p, |c| {
                for _ in 0..3 {
                    c.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                let out = run(p, move |c| {
                    let data = if c.rank() == root {
                        Payload::F64(vec![42.0, -1.0])
                    } else {
                        Payload::Empty
                    };
                    c.bcast(root, data).into_f64()
                });
                for r in out {
                    assert_eq!(r, vec![42.0, -1.0]);
                }
            }
        }
    }

    #[test]
    fn reduce_sum_every_root() {
        for p in [1, 2, 3, 6, 8] {
            for root in 0..p {
                let out = run(p, move |c| {
                    c.reduce_f64(root, Op::Sum, &[c.rank() as f64, 1.0])
                });
                let expect: f64 = (0..p).map(|r| r as f64).sum();
                for (r, res) in out.into_iter().enumerate() {
                    if r == root {
                        assert_eq!(res, Some(vec![expect, p as f64]));
                    } else {
                        assert_eq!(res, None);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_max_min_i64() {
        let out = run(5, |c| {
            let x = [(c.rank() as i64) * 3 - 4];
            let mx = c.reduce_i64(0, Op::Max, &x);
            let mn = c.reduce_i64(0, Op::Min, &x);
            (mx, mn)
        });
        assert_eq!(out[0].0, Some(vec![8]));
        assert_eq!(out[0].1, Some(vec![-4]));
    }

    #[test]
    fn allreduce_consistency() {
        for p in [1, 3, 4, 7] {
            let out = run(p, |c| c.allreduce_f64(Op::Sum, &[1.0, c.rank() as f64]));
            let sum: f64 = (0..p).map(|r| r as f64).sum();
            for r in out {
                assert_eq!(r, vec![p as f64, sum]);
            }
        }
    }

    #[test]
    fn gather_variable_lengths() {
        let out = run(4, |c| {
            let mine: Vec<f64> = (0..c.rank()).map(|i| i as f64).collect();
            c.gather_f64(2, &mine)
        });
        let g = out[2].clone().unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g[0], Vec::<f64>::new());
        assert_eq!(g[3], vec![0.0, 1.0, 2.0]);
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
    }

    #[test]
    fn allgather_flat_concat() {
        let out = run(4, |c| {
            c.allgather_i64(&[c.rank() as i64, 100 + c.rank() as i64])
        });
        for r in out {
            assert_eq!(r, vec![0, 100, 1, 101, 2, 102, 3, 103]);
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        let out = run(3, |c| {
            let mine: Vec<f64> = vec![c.rank() as f64; c.rank() + 1];
            c.allgather_f64(&mine)
        });
        for r in out {
            assert_eq!(r, vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn alltoallv_transpose() {
        // Rank i sends value 10*i + j to rank j; rank j must end up with
        // column j of that matrix.
        let out = run(4, |c| {
            let send: Vec<Payload> = (0..4)
                .map(|j| Payload::I64(vec![(10 * c.rank() + j) as i64]))
                .collect();
            let recv = c.alltoallv(send);
            recv.into_iter()
                .map(|p| p.into_i64()[0])
                .collect::<Vec<_>>()
        });
        for (j, r) in out.into_iter().enumerate() {
            let expect: Vec<i64> = (0..4).map(|i| (10 * i + j) as i64).collect();
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn single_rank_collectives() {
        run(1, |c| {
            c.barrier();
            assert_eq!(c.bcast(0, Payload::F64(vec![5.0])).into_f64(), vec![5.0]);
            assert_eq!(c.allreduce_f64(Op::Sum, &[2.0]), vec![2.0]);
            assert_eq!(c.allgather_i64(&[9]), vec![9]);
        });
    }
}
