//! Communication matrices from traces.
//!
//! The paper's filter comparison (§3.1–3.2) argues from communication
//! *structure*: how many messages, how many bytes, between whom. A
//! [`CommMatrix`] makes that structure measurable on real traces — per
//! src→dst cell message and byte counts, sliceable by phase — so the
//! ring/tree/transpose comparison falls out of recorded runs instead of
//! the closed-form formulas in `agcm_costmodel::analysis` (and the two can
//! be checked against each other).

use crate::analysis::{innermost_phases, innermost_spans, open_at};
use crate::json::Value;
use agcm_costmodel::machine::MachineProfile;
use agcm_mps::trace::{Event, WorldTrace};

/// Aggregate traffic of one src→dst pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCell {
    /// Messages sent src→dst.
    pub messages: u64,
    /// Bytes sent src→dst.
    pub bytes: u64,
}

impl CommCell {
    fn add(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }
}

/// A dense ranks×ranks matrix of [`CommCell`]s built from `Send` events.
///
/// Row `r` describes what rank `r` sent; column `c` what was sent *to*
/// rank `c`. On a complete trace (every send received) row and column sums
/// coincide with the per-rank [`RankStats`](agcm_mps::trace::RankStats)
/// send/receive totals — a property test in this crate holds the two
/// accountings together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    ranks: usize,
    /// Row-major `cells[src * ranks + dst]`.
    cells: Vec<CommCell>,
}

impl CommMatrix {
    /// An all-zero matrix.
    pub fn new(ranks: usize) -> CommMatrix {
        CommMatrix {
            ranks,
            cells: vec![CommCell::default(); ranks * ranks],
        }
    }

    /// The matrix of every send in the trace.
    pub fn from_trace(trace: &WorldTrace) -> CommMatrix {
        CommMatrix::sends(trace, |_, _| true)
    }

    /// The matrix of sends issued while a phase named `phase` was open
    /// (at any nesting depth) on the sending rank. Panics, naming every
    /// fault, if the trace's phase events do not pair.
    pub fn for_phase(trace: &WorldTrace, phase: &str) -> CommMatrix {
        let spans = trace.spans().expect("phase events pair");
        let innermost = innermost_spans(trace, &spans);
        let open = |src: usize, i: usize| open_at(&innermost[src], &spans, i);
        CommMatrix::sends(trace, |src, i| open(src, i).any(|s| s.name == phase))
    }

    /// The matrix of the sends at the event indices `pick(src, i)` accepts.
    fn sends(trace: &WorldTrace, pick: impl Fn(usize, usize) -> bool) -> CommMatrix {
        let mut m = CommMatrix::new(trace.size());
        for (src, evs) in trace.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Event::Send { to, bytes, .. } = *ev {
                    if pick(src, i) {
                        m.cells[src * m.ranks + to].add(bytes);
                    }
                }
            }
        }
        m
    }

    /// One matrix per *innermost* open phase, sorted by phase name; sends
    /// issued outside any phase land under `""`. The per-phase matrices
    /// partition [`CommMatrix::from_trace`]. Panics, naming every fault,
    /// if the trace's phase events do not pair.
    pub fn by_innermost_phase(trace: &WorldTrace) -> Vec<(&'static str, CommMatrix)> {
        let innermost = innermost_phases(trace, &trace.spans().expect("phase events pair"));
        let mut slices: Vec<(&'static str, CommMatrix)> = Vec::new();
        for (src, evs) in trace.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Event::Send { to, bytes, .. } = *ev {
                    let name = innermost[src][i].unwrap_or("");
                    if !slices.iter().any(|(n, _)| *n == name) {
                        slices.push((name, CommMatrix::new(trace.size())));
                    }
                    let (_, m) = slices.iter_mut().find(|(n, _)| *n == name).unwrap();
                    m.cells[src * m.ranks + to].add(bytes);
                }
            }
        }
        slices.sort_by_key(|(n, _)| *n);
        slices
    }

    /// Number of ranks (matrix dimension).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The src→dst cell.
    pub fn cell(&self, src: usize, dst: usize) -> CommCell {
        self.cells[src * self.ranks + dst]
    }

    /// Row sum: everything `rank` sent.
    pub fn sent_by(&self, rank: usize) -> CommCell {
        let mut total = CommCell::default();
        for dst in 0..self.ranks {
            let c = self.cell(rank, dst);
            total.messages += c.messages;
            total.bytes += c.bytes;
        }
        total
    }

    /// Column sum: everything sent *to* `rank`.
    pub fn sent_to(&self, rank: usize) -> CommCell {
        let mut total = CommCell::default();
        for src in 0..self.ranks {
            let c = self.cell(src, rank);
            total.messages += c.messages;
            total.bytes += c.bytes;
        }
        total
    }

    /// Total messages in the matrix.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().map(|c| c.messages).sum()
    }

    /// Total bytes in the matrix.
    pub fn total_bytes(&self) -> u64 {
        self.cells.iter().map(|c| c.bytes).sum()
    }

    /// Modeled communication seconds under `machine`, serialized upper
    /// bound (no overlap between pairs) — the measured-trace counterpart
    /// of `CommCost::time` in `agcm_costmodel::analysis`.
    pub fn modeled_time(&self, machine: &MachineProfile) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                c.messages as f64
                    * (machine.latency_s + machine.send_overhead_s + machine.recv_overhead_s)
                    + c.bytes as f64 / machine.bytes_per_sec
            })
            .sum()
    }

    /// JSON form: dimension, totals, and the non-zero cells.
    pub fn to_json(&self) -> Value {
        let cells: Vec<Value> = (0..self.ranks)
            .flat_map(|src| (0..self.ranks).map(move |dst| (src, dst)))
            .filter_map(|(src, dst)| {
                let c = self.cell(src, dst);
                (c.messages > 0).then(|| {
                    Value::obj(vec![
                        ("src", Value::Num(src as f64)),
                        ("dst", Value::Num(dst as f64)),
                        ("messages", Value::Num(c.messages as f64)),
                        ("bytes", Value::Num(c.bytes as f64)),
                    ])
                })
            })
            .collect();
        Value::obj(vec![
            ("ranks", Value::Num(self.ranks as f64)),
            ("total_messages", Value::Num(self.total_messages() as f64)),
            ("total_bytes", Value::Num(self.total_bytes() as f64)),
            ("cells", Value::Arr(cells)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(to: usize, bytes: usize, seq: u64) -> Event {
        Event::Send { to, bytes, seq }
    }

    fn trace() -> WorldTrace {
        WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("halo"),
                send(1, 100, 0),
                Event::PhaseEnd("halo"),
                Event::PhaseBegin("filter"),
                Event::PhaseBegin("redist_fwd"),
                send(1, 50, 1),
                send(2, 60, 0),
                Event::PhaseEnd("redist_fwd"),
                Event::PhaseEnd("filter"),
            ],
            vec![send(0, 10, 0)],
            vec![],
        ])
    }

    #[test]
    fn cells_and_sums() {
        let m = CommMatrix::from_trace(&trace());
        assert_eq!(m.ranks(), 3);
        assert_eq!(
            m.cell(0, 1),
            CommCell {
                messages: 2,
                bytes: 150,
            }
        );
        assert_eq!(m.cell(0, 2).bytes, 60);
        assert_eq!(m.cell(1, 0).messages, 1);
        assert_eq!(m.sent_by(0).messages, 3);
        assert_eq!(m.sent_by(0).bytes, 210);
        assert_eq!(m.sent_to(1).bytes, 150);
        assert_eq!(m.total_messages(), 4);
        assert_eq!(m.total_bytes(), 220);
    }

    #[test]
    fn phase_slicing_uses_open_stack() {
        let t = trace();
        // "filter" is open during both redist_fwd sends (nested).
        let filter = CommMatrix::for_phase(&t, "filter");
        assert_eq!(filter.total_messages(), 2);
        assert_eq!(filter.total_bytes(), 110);
        let halo = CommMatrix::for_phase(&t, "halo");
        assert_eq!(halo.total_messages(), 1);
        assert_eq!(halo.total_bytes(), 100);
        assert_eq!(CommMatrix::for_phase(&t, "nope").total_messages(), 0);
    }

    #[test]
    fn innermost_slices_partition_the_total() {
        let t = trace();
        let slices = CommMatrix::by_innermost_phase(&t);
        let names: Vec<&str> = slices.iter().map(|(n, _)| *n).collect();
        // Rank 1's bare send lands under "".
        assert_eq!(names, vec!["", "halo", "redist_fwd"]);
        let total = CommMatrix::from_trace(&t);
        let msg_sum: u64 = slices.iter().map(|(_, m)| m.total_messages()).sum();
        let byte_sum: u64 = slices.iter().map(|(_, m)| m.total_bytes()).sum();
        assert_eq!(msg_sum, total.total_messages());
        assert_eq!(byte_sum, total.total_bytes());
    }

    #[test]
    fn row_and_column_sums_match_rank_stats() {
        let t = trace();
        let m = CommMatrix::from_trace(&t);
        for (r, s) in t.stats().iter().enumerate() {
            assert_eq!(m.sent_by(r).messages as usize, s.sends);
            assert_eq!(m.sent_by(r).bytes as usize, s.bytes_sent);
        }
    }

    #[test]
    fn modeled_time_is_latency_plus_bandwidth() {
        let mut m = CommMatrix::new(2);
        m.cells[1].add(1000);
        let machine = MachineProfile {
            name: "test",
            flops_per_sec: 1.0,
            latency_s: 1.0e-3,
            bytes_per_sec: 1.0e6,
            send_overhead_s: 2.0e-3,
            recv_overhead_s: 3.0e-3,
        };
        // 1 msg × (1+2+3) ms + 1000 B / 1 MB/s = 0.006 + 0.001.
        assert!((m.modeled_time(&machine) - 0.007).abs() < 1e-12);
    }

    #[test]
    fn json_skips_zero_cells() {
        let doc = CommMatrix::from_trace(&trace()).to_json();
        assert_eq!(doc.get("ranks").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("cells").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("total_bytes").unwrap().as_f64(), Some(220.0));
    }
}
