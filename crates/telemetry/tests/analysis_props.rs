//! Property tests for the trace-analysis engine over random traces.
//!
//! Traces are generated by serializing a global stream of operations
//! (compute, balanced phase open/close, and src→dst messages) onto per-rank
//! event streams. Because every receive's matching send comes from an
//! earlier global operation — and sends never block under the eager cost
//! model — the generated traces replay without deadlock by construction.
//!
//! Invariants checked (the acceptance criteria of the analysis engine):
//! * the replay schedule is contiguous per rank (no hidden gaps);
//! * `busy + wait == finish` for every rank, exactly (to 1e-9);
//! * the critical path tiles `[0, makespan]` and its length equals the
//!   makespan to 1e-9, and is never shorter than any rank's busy time;
//! * communication-matrix row/column sums reproduce `RankStats`;
//! * phase-sliced wait tables sum back to the per-rank totals;
//! * the waits a run summary carries are `analyze`'s, bit for bit.

use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::schedule;
use agcm_mps::trace::{Event, WorldTrace};
use agcm_telemetry::analysis::analyze;
use agcm_telemetry::commmatrix::CommMatrix;
use agcm_telemetry::RunMetrics;

/// Minimal deterministic PRNG (Numerical Recipes LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NAMES: [&str; 5] = ["step", "dynamics", "physics", "filter", "halo"];

/// Build a random world by serializing global operations onto rank streams.
fn random_world(rng: &mut Lcg, n_ranks: usize, ops: usize) -> WorldTrace {
    let mut ranks: Vec<Vec<Event>> = vec![Vec::new(); n_ranks];
    let mut open: Vec<Vec<&'static str>> = vec![Vec::new(); n_ranks];
    let mut seqs = vec![0u64; n_ranks * n_ranks];
    for _ in 0..ops {
        let r = rng.below(n_ranks as u64) as usize;
        match rng.below(6) {
            0 | 1 => ranks[r].push(Event::Flops((1 + rng.below(2000)) as f64 * 1.0e3)),
            2 if open[r].len() < 4 => {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                open[r].push(name);
                ranks[r].push(Event::PhaseBegin(name));
            }
            3 if !open[r].is_empty() => {
                ranks[r].push(Event::PhaseEnd(open[r].pop().unwrap()));
            }
            _ if n_ranks > 1 => {
                let dst = (r + 1 + rng.below(n_ranks as u64 - 1) as usize) % n_ranks;
                let bytes = 8 * (1 + rng.below(500)) as usize;
                let seq = seqs[r * n_ranks + dst];
                seqs[r * n_ranks + dst] += 1;
                ranks[r].push(Event::Send {
                    to: dst,
                    bytes,
                    seq,
                });
                ranks[dst].push(Event::Recv {
                    from: r,
                    bytes,
                    seq,
                });
            }
            _ => ranks[r].push(Event::Flops(1.0e3)),
        }
    }
    for (r, stack) in open.iter_mut().enumerate() {
        while let Some(name) = stack.pop() {
            ranks[r].push(Event::PhaseEnd(name));
        }
    }
    WorldTrace::from_ranks(ranks)
}

fn machine() -> MachineProfile {
    MachineProfile {
        name: "prop",
        flops_per_sec: 1.0e6,
        latency_s: 1.0e-3,
        bytes_per_sec: 1.0e6,
        send_overhead_s: 2.0e-5,
        recv_overhead_s: 3.0e-5,
    }
}

#[test]
fn schedule_is_contiguous_on_random_traces() {
    let mut rng = Lcg(0xc0ffee);
    for case in 0..50 {
        let n = 1 + rng.below(5) as usize;
        let ops = 20 + rng.below(120) as usize;
        let trace = random_world(&mut rng, n, ops);
        let sched = schedule(&trace, &machine());
        for (r, times) in sched.times.iter().enumerate() {
            let mut clock = 0.0;
            for (i, t) in times.iter().enumerate() {
                assert!(
                    (t.start - clock).abs() < 1e-12,
                    "case {case} rank {r} event {i}: gap {} -> {}",
                    clock,
                    t.start
                );
                assert!(t.end >= t.start, "case {case} rank {r} event {i}");
                clock = t.end;
            }
            assert_eq!(clock, sched.finish_times[r], "case {case} rank {r}");
        }
    }
}

#[test]
fn busy_plus_wait_accounts_for_finish_exactly() {
    let mut rng = Lcg(0xbead);
    for case in 0..50 {
        let n = 2 + rng.below(4) as usize;
        let ops = 30 + rng.below(150) as usize;
        let trace = random_world(&mut rng, n, ops);
        let a = analyze(&trace, &machine()).expect("balanced by construction");
        for (r, w) in a.waits.ranks.iter().enumerate() {
            assert!(
                (w.busy + w.wait - w.finish).abs() < 1e-9,
                "case {case} rank {r}: busy {} + wait {} != finish {}",
                w.busy,
                w.wait,
                w.finish
            );
        }
        assert_eq!(a.waits.makespan, a.schedule.makespan(), "case {case}");
    }
}

#[test]
fn critical_path_length_equals_makespan_and_dominates_busy() {
    let mut rng = Lcg(0xdead_beef);
    for case in 0..50 {
        let n = 2 + rng.below(4) as usize;
        let ops = 30 + rng.below(150) as usize;
        let trace = random_world(&mut rng, n, ops);
        let a = analyze(&trace, &machine()).expect("balanced by construction");
        let makespan = a.schedule.makespan();
        assert!(
            (a.critical.length() - makespan).abs() < 1e-9,
            "case {case}: critical {} vs makespan {}",
            a.critical.length(),
            makespan
        );
        let max_busy = a.waits.ranks.iter().map(|w| w.busy).fold(0.0f64, f64::max);
        assert!(
            a.critical.length() >= max_busy - 1e-9,
            "case {case}: critical {} < max busy {}",
            a.critical.length(),
            max_busy
        );
        // The path tiles [0, makespan] without gaps or overlaps.
        let mut clock = 0.0;
        for (i, seg) in a.critical.segments.iter().enumerate() {
            assert!(
                (seg.start - clock).abs() < 1e-9,
                "case {case} segment {i}: gap {} -> {}",
                clock,
                seg.start
            );
            assert!(seg.end > seg.start, "case {case} segment {i}: empty");
            clock = seg.end;
        }
        assert!(
            (clock - makespan).abs() < 1e-9,
            "case {case}: path ends early"
        );
    }
}

#[test]
fn comm_matrix_row_and_column_sums_reproduce_rank_stats() {
    let mut rng = Lcg(0x5eed);
    for case in 0..50 {
        let n = 2 + rng.below(5) as usize;
        let ops = 30 + rng.below(200) as usize;
        let trace = random_world(&mut rng, n, ops);
        let m = CommMatrix::from_trace(&trace);
        for (r, s) in trace.stats().iter().enumerate() {
            assert_eq!(
                m.sent_by(r).messages as usize,
                s.sends,
                "case {case} rank {r}"
            );
            assert_eq!(
                m.sent_by(r).bytes as usize,
                s.bytes_sent,
                "case {case} rank {r}"
            );
            assert_eq!(
                m.sent_to(r).messages as usize,
                s.recvs,
                "case {case} rank {r}"
            );
            assert_eq!(
                m.sent_to(r).bytes as usize,
                s.bytes_recvd,
                "case {case} rank {r}"
            );
        }
    }
}

#[test]
fn phase_wait_tables_sum_to_rank_totals() {
    let mut rng = Lcg(0xf00d);
    for case in 0..30 {
        let n = 2 + rng.below(4) as usize;
        let ops = 40 + rng.below(120) as usize;
        let trace = random_world(&mut rng, n, ops);
        let a = analyze(&trace, &machine()).expect("balanced by construction");
        for r in 0..n {
            let from_phases: f64 = a.waits.phase_wait.iter().map(|(_, v)| v[r]).sum();
            assert!(
                (from_phases - a.waits.ranks[r].wait).abs() < 1e-9,
                "case {case} rank {r}: phase sum {} vs total {}",
                from_phases,
                a.waits.ranks[r].wait
            );
            let caused: f64 = a.waits.phase_caused.iter().map(|(_, v)| v[r]).sum();
            assert!(
                (caused - a.waits.ranks[r].caused).abs() < 1e-9,
                "case {case} rank {r}: caused sum {} vs total {}",
                caused,
                a.waits.ranks[r].caused
            );
        }
        // Flow conservation: total wait suffered == total wait caused.
        let suffered: f64 = a.waits.ranks.iter().map(|w| w.wait).sum();
        let caused: f64 = a.waits.ranks.iter().map(|w| w.caused).sum();
        assert!((suffered - caused).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn run_summary_waits_equal_analyze_bit_for_bit() {
    let mut rng = Lcg(0x0ddba11);
    for case in 0..50 {
        let n = 1 + rng.below(5) as usize;
        let ops = 30 + rng.below(150) as usize;
        let trace = random_world(&mut rng, n, ops);
        let a = analyze(&trace, &machine()).expect("balanced by construction");
        let summary = RunMetrics::from_trace(&trace, &machine())
            .expect("balanced by construction")
            .summary;
        let waits: Vec<u64> = a.waits.ranks.iter().map(|w| w.wait.to_bits()).collect();
        let carried: Vec<u64> = summary.wait_seconds.iter().map(|w| w.to_bits()).collect();
        assert_eq!(carried, waits, "case {case}");
        assert_eq!(
            summary.idle_imbalance.to_bits(),
            a.waits.idle_imbalance().to_bits(),
            "case {case}"
        );
    }
}
