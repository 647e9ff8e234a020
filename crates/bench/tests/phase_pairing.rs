//! Differential test: every reader of `WorldTrace::spans` against the
//! private phase stack it replaced.
//!
//! Each oracle below is one of the walkers that paired `PhaseBegin` /
//! `PhaseEnd` events on its own before the library had one pairing: the
//! trace's phase check, the replay's phase-time fold, the timeline's span
//! pairing and its per-rank phase seconds, the innermost-phase table, the
//! comm matrix's phase slicing, the per-phase flop fold and the fd/halo
//! wall split. On a few thousand seeded random traces (nested, with
//! repeated names, messages between ranks and wall stamps) each consumer
//! must equal its oracle bit for bit, and on unbalanced traces `spans()`
//! must report exactly the faults the old check reported. Randomness comes
//! from a hand-rolled LCG, so the test is deterministic.

use agcm_bench::kernels::fd_phase_seconds;
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::{replay, schedule, EventSchedule};
use agcm_mps::trace::{imbalance, Event, PhaseFault, PhaseFaultKind, WorldTrace};
use agcm_telemetry::analysis::innermost_phases;
use agcm_telemetry::commmatrix::{CommCell, CommMatrix};
use agcm_telemetry::timeline::{Span, Timeline};
use agcm_telemetry::RunMetrics;
use std::collections::HashMap;

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

const NAMES: [&str; 5] = ["step", "dynamics", "filter", "halo", "fd"];

/// A random world: global operations (work, phase open/close, messages)
/// serialized onto rank streams, so every receive's send comes first and
/// the trace replays without deadlock. Names repeat; a phase may nest in
/// one of its own name unless `no_self_nesting`. Every phase event gets a
/// monotone wall stamp off the nanosecond grid.
fn random_world(rng: &mut Lcg, n_ranks: usize, ops: usize, no_self_nesting: bool) -> WorldTrace {
    let mut ranks: Vec<Vec<Event>> = vec![Vec::new(); n_ranks];
    let mut open: Vec<Vec<&'static str>> = vec![Vec::new(); n_ranks];
    let mut seqs = vec![0u64; n_ranks * n_ranks];
    for _ in 0..ops {
        let r = rng.below(n_ranks as u64) as usize;
        match rng.below(7) {
            0 | 1 => ranks[r].push(Event::Flops((1 + rng.below(2000)) as f64 * 1.37e3)),
            2 | 3 if open[r].len() < 5 => {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                if !(no_self_nesting && open[r].contains(&name)) {
                    open[r].push(name);
                    ranks[r].push(Event::PhaseBegin(name));
                }
            }
            4 if !open[r].is_empty() => {
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
            _ => ranks[r].push(Event::Flops(0.1)),
        }
    }
    for (r, stack) in open.iter_mut().enumerate() {
        while let Some(name) = stack.pop() {
            ranks[r].push(Event::PhaseEnd(name));
        }
    }
    let mut trace = WorldTrace::from_ranks(ranks);
    trace.walls = trace
        .ranks
        .iter()
        .map(|evs| {
            let mut t = rng.below(1000) as f64 * 1.37e-7;
            evs.iter()
                .filter(|e| e.is_phase())
                .map(|_| {
                    t += rng.below(1000) as f64 * 1.37e-7;
                    t
                })
                .collect()
        })
        .collect();
    trace
}

/// Phase events with no stack discipline at all: random names, random
/// begins and ends, between bits of work.
fn unbalanced_world(rng: &mut Lcg, n_ranks: usize) -> WorldTrace {
    WorldTrace::from_ranks(
        (0..n_ranks)
            .map(|_| {
                (0..rng.below(12))
                    .map(|_| {
                        let name = NAMES[rng.below(3) as usize];
                        match rng.below(5) {
                            0 | 1 => Event::PhaseBegin(name),
                            2 | 3 => Event::PhaseEnd(name),
                            _ => Event::Flops(1.0),
                        }
                    })
                    .collect()
            })
            .collect(),
    )
}

fn machine() -> MachineProfile {
    MachineProfile {
        name: "diff",
        flops_per_sec: 1.0e6,
        latency_s: 1.0e-3,
        bytes_per_sec: 1.0e6,
        send_overhead_s: 2.0e-5,
        recv_overhead_s: 3.0e-5,
    }
}

// ---- The oracles: the walkers `WorldTrace::spans` replaced. ----

/// The trace's phase check, which returned the faults and nothing else.
fn phase_check(trace: &WorldTrace) -> Result<(), Vec<PhaseFault>> {
    let mut faults = Vec::new();
    for (rank, evs) in trace.ranks.iter().enumerate() {
        let mut open: Vec<&'static str> = Vec::new();
        for ev in evs {
            match ev {
                Event::PhaseBegin(name) => open.push(name),
                Event::PhaseEnd(name) => match open.pop() {
                    Some(top) if top == *name => {}
                    Some(top) => faults.push(PhaseFault {
                        rank,
                        name,
                        kind: PhaseFaultKind::MismatchedEnd { open: top },
                    }),
                    None => faults.push(PhaseFault {
                        rank,
                        name,
                        kind: PhaseFaultKind::UnmatchedEnd,
                    }),
                },
                _ => {}
            }
        }
        for name in open {
            faults.push(PhaseFault {
                rank,
                name,
                kind: PhaseFaultKind::UnclosedBegin,
            });
        }
    }
    if faults.is_empty() {
        Ok(())
    } else {
        Err(faults)
    }
}

/// The replay's per-rank phase-time fold.
fn replay_phase_times(
    trace: &WorldTrace,
    sched: &EventSchedule,
) -> Vec<HashMap<&'static str, f64>> {
    trace
        .ranks
        .iter()
        .enumerate()
        .map(|(r, evs)| {
            let mut open: Vec<(&'static str, f64)> = Vec::new();
            let mut acc: HashMap<&'static str, f64> = HashMap::new();
            for (i, ev) in evs.iter().enumerate() {
                match *ev {
                    Event::PhaseBegin(name) => open.push((name, sched.times[r][i].end)),
                    Event::PhaseEnd(name) => {
                        let (open_name, start) = open.pop().unwrap();
                        assert_eq!(open_name, name);
                        *acc.entry(name).or_insert(0.0) += sched.times[r][i].end - start;
                    }
                    _ => {}
                }
            }
            acc
        })
        .collect()
}

/// The timeline's own pairing (`Timeline::from_schedule`).
fn timeline_spans(trace: &WorldTrace, sched: &EventSchedule) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for (r, evs) in trace.ranks.iter().enumerate() {
        let walls = trace.walls.get(r).map(|w| w.as_slice());
        let mut phase_seq = 0usize;
        let mut open: Vec<(&'static str, f64, Option<f64>, usize)> = Vec::new();
        for (i, ev) in evs.iter().enumerate() {
            match *ev {
                Event::PhaseBegin(name) => {
                    let wall = walls.and_then(|w| w.get(phase_seq)).copied();
                    phase_seq += 1;
                    open.push((name, sched.times[r][i].end, wall, i));
                }
                Event::PhaseEnd(_) => {
                    let wall = walls.and_then(|w| w.get(phase_seq)).copied();
                    phase_seq += 1;
                    let (name, virt_start, wall_start, begin_event) = open.pop().unwrap();
                    spans.push(Span {
                        rank: r,
                        name,
                        depth: open.len(),
                        virt_start,
                        virt_end: sched.times[r][i].end,
                        wall_start,
                        wall_end: wall,
                        begin_event,
                        end_event: i,
                    });
                }
                _ => {}
            }
        }
    }
    spans.sort_by_key(|s| (s.rank, s.begin_event));
    spans
}

/// The timeline's per-rank phase seconds, summed in span order.
fn timeline_phase_seconds(ranks: usize, spans: &[Span]) -> Vec<HashMap<&'static str, f64>> {
    let mut acc: Vec<HashMap<&'static str, f64>> = vec![HashMap::new(); ranks];
    for s in spans {
        *acc[s.rank].entry(s.name).or_insert(0.0) += s.virt_duration();
    }
    acc
}

/// The innermost open phase at every event (`analysis::innermost_phases`).
fn innermost(trace: &WorldTrace) -> Vec<Vec<Option<&'static str>>> {
    trace
        .ranks
        .iter()
        .map(|evs| {
            let mut open: Vec<&'static str> = Vec::new();
            evs.iter()
                .map(|ev| {
                    match *ev {
                        Event::PhaseBegin(name) => open.push(name),
                        Event::PhaseEnd(_) => {
                            open.pop();
                        }
                        _ => {}
                    }
                    open.last().copied()
                })
                .collect()
        })
        .collect()
}

/// Dense `cells[src * ranks + dst]` of a comm matrix.
type Cells = Vec<CommCell>;

fn cells(m: &CommMatrix) -> Cells {
    let n = m.ranks();
    (0..n * n).map(|k| m.cell(k / n, k % n)).collect()
}

fn add(cell: &mut CommCell, bytes: usize) {
    cell.messages += 1;
    cell.bytes += bytes as u64;
}

/// The comm matrix's phase slicing (`CommMatrix::filtered`).
fn comm_for_phase(trace: &WorldTrace, phase: &str) -> Cells {
    let n = trace.size();
    let mut m = vec![CommCell::default(); n * n];
    for (src, evs) in trace.ranks.iter().enumerate() {
        let mut open: Vec<&'static str> = Vec::new();
        for ev in evs {
            match *ev {
                Event::PhaseBegin(name) => open.push(name),
                Event::PhaseEnd(_) => {
                    open.pop();
                }
                Event::Send { to, bytes, .. } if open.contains(&phase) => {
                    add(&mut m[src * n + to], bytes);
                }
                _ => {}
            }
        }
    }
    m
}

/// `CommMatrix::by_innermost_phase` over the oracle innermost table.
fn comm_by_innermost(trace: &WorldTrace) -> Vec<(&'static str, Cells)> {
    let n = trace.size();
    let mut slices: Vec<(&'static str, Cells)> = Vec::new();
    for (src, (evs, phases)) in trace.ranks.iter().zip(innermost(trace)).enumerate() {
        for (ev, phase) in evs.iter().zip(phases) {
            if let Event::Send { to, bytes, .. } = *ev {
                let name = phase.unwrap_or("");
                if !slices.iter().any(|(nm, _)| *nm == name) {
                    slices.push((name, vec![CommCell::default(); n * n]));
                }
                let (_, m) = slices.iter_mut().find(|(nm, _)| *nm == name).unwrap();
                add(&mut m[src * n + to], bytes);
            }
        }
    }
    slices.sort_by_key(|(nm, _)| *nm);
    slices
}

/// The per-phase flop fold (`run::phase_flops`).
fn phase_flops(events: &[Event], skip: Option<&str>) -> Vec<(&'static str, f64)> {
    let mut acc: Vec<(&'static str, f64)> = Vec::new();
    let mut open: Vec<&'static str> = Vec::new();
    for ev in events {
        match *ev {
            Event::PhaseBegin(name) => open.push(name),
            Event::PhaseEnd(_) => {
                open.pop();
            }
            Event::Flops(f) => {
                for &name in &open {
                    if Some(name) == skip {
                        continue;
                    }
                    match acc.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, sum)) => *sum += f,
                        None => acc.push((name, f)),
                    }
                }
            }
            _ => {}
        }
    }
    acc
}

/// The fd/halo wall split (`kernels::fd_phase_seconds`).
fn fd_seconds(trace: &WorldTrace) -> Vec<f64> {
    let phase_events = trace.ranks[0].iter().filter(|e| e.is_phase());
    let (mut out, mut fd_begin, mut halo_begin, mut halo) = (Vec::new(), None, 0.0, 0.0);
    for (ev, &wall) in phase_events.zip(&trace.walls[0]) {
        match *ev {
            Event::PhaseBegin("fd") => (fd_begin, halo) = (Some(wall), 0.0),
            Event::PhaseBegin("halo") => halo_begin = wall,
            Event::PhaseEnd("halo") if fd_begin.is_some() => halo += wall - halo_begin,
            Event::PhaseEnd("fd") => {
                let begin: f64 = fd_begin.take().unwrap();
                out.push(wall - begin - halo);
            }
            _ => {}
        }
    }
    out
}

/// `RunSummary`'s reduction of per-rank `(name, value)` lists: one value
/// per name (missing ranks 0), reduced by `reduce`, sorted by name.
fn per_phase(
    per_rank: &[Vec<(&'static str, f64)>],
    reduce: impl Fn(&[f64]) -> f64,
) -> Vec<(&'static str, f64)> {
    let mut names: Vec<&'static str> = per_rank.iter().flatten().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = per_rank
                .iter()
                .map(|l| l.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v))
                .collect();
            (name, reduce(&values))
        })
        .collect()
}

fn sorted(m: &HashMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    let mut v: Vec<(&'static str, f64)> = m.iter().map(|(n, v)| (*n, *v)).collect();
    v.sort_unstable_by_key(|(n, _)| *n);
    v
}

/// `Debug` prints every f64 exactly and tells -0.0 from 0.0, so equal
/// renderings are bit-identical values.
fn same<T: std::fmt::Debug>(got: T, want: T, what: &str, case: usize) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "case {case}: {what}"
    );
}

#[test]
fn every_span_reader_equals_its_old_walker_bit_for_bit() {
    let mut rng = Lcg(0x5eed_f01d);
    let (mut spans_seen, mut self_nested) = (0, 0);
    for case in 0..2000 {
        let n = 1 + rng.below(4) as usize;
        let ops = 20 + rng.below(180) as usize;
        let trace = random_world(&mut rng, n, ops, false);
        let m = machine();
        let spans = trace
            .spans()
            .unwrap_or_else(|f| panic!("case {case}: {f:?}"));
        phase_check(&trace).unwrap();
        spans_seen += spans.len();

        let sched = schedule(&trace, &m);
        let want_times = replay_phase_times(&trace, &sched);
        let got_times = replay(&trace, &m).phase_times;
        same(
            got_times.iter().map(sorted).collect::<Vec<_>>(),
            want_times.iter().map(sorted).collect(),
            "replay phase_times",
            case,
        );

        let timeline = Timeline::from_trace(&trace, &m).unwrap();
        let want_spans = timeline_spans(&trace, &sched);
        same(&timeline.spans, &want_spans, "timeline spans", case);
        self_nested += usize::from(
            want_spans
                .iter()
                .any(|a| want_spans.iter().any(|b| a.name == b.name && a.contains(b))),
        );

        same(
            innermost_phases(&trace, &spans),
            innermost(&trace),
            "innermost phases",
            case,
        );

        for phase in NAMES.iter().chain(&["nope"]) {
            same(
                cells(&CommMatrix::for_phase(&trace, phase)),
                comm_for_phase(&trace, phase),
                phase,
                case,
            );
        }
        let by_phase: Vec<(&str, Cells)> = CommMatrix::by_innermost_phase(&trace)
            .iter()
            .map(|(name, m)| (*name, cells(m)))
            .collect();
        same(
            by_phase,
            comm_by_innermost(&trace),
            "by innermost phase",
            case,
        );

        // The run summary's per-phase seconds and flop imbalance, and each
        // step's flop imbalance, from the oracle folds.
        let metrics = RunMetrics::from_trace(&trace, &m).unwrap();
        let secs: Vec<Vec<_>> = timeline_phase_seconds(n, &want_spans)
            .iter()
            .map(sorted)
            .collect();
        same(
            &metrics.summary.phase_seconds,
            &per_phase(&secs, |v| v.iter().copied().fold(0.0, f64::max)),
            "summary phase seconds",
            case,
        );
        let flops: Vec<_> = trace.ranks.iter().map(|e| phase_flops(e, None)).collect();
        same(
            &metrics.summary.phase_flop_imbalance,
            &per_phase(&flops, imbalance),
            "summary phase flops",
            case,
        );
        for (k, step) in metrics.steps.iter().enumerate() {
            let flops: Vec<_> = (0..n)
                .map(|r| {
                    want_spans
                        .iter()
                        .filter(|s| s.rank == r && s.name == "step")
                        .nth(k)
                        .map_or(Vec::new(), |s| {
                            phase_flops(&trace.ranks[r][s.begin_event..=s.end_event], Some("step"))
                        })
                })
                .collect();
            same(
                &step.phase_flop_imbalance,
                &per_phase(&flops, imbalance),
                "step phase flops",
                case,
            );
        }
    }
    // The corpus is what the test claims: many spans, and in many traces
    // a phase nested in one of its own name.
    assert!(spans_seen > 20_000, "{spans_seen} spans");
    assert!(self_nested > 200, "{self_nested} traces with self-nesting");
}

#[test]
fn the_fd_split_equals_the_old_walker_bit_for_bit() {
    // The old walker kept one fd start and one halo start, so it is only
    // defined on traces where neither phase nests in itself.
    let mut rng = Lcg(0xfd_4a10);
    let mut fds = 0;
    for case in 0..2000 {
        let (n, ops) = (1 + rng.below(2) as usize, 20 + rng.below(180) as usize);
        let trace = random_world(&mut rng, n, ops, true);
        let want = fd_seconds(&trace);
        fds += want.len();
        same(fd_phase_seconds(&trace), want, "fd seconds", case);
    }
    assert!(fds > 5_000, "{fds} fd phases");
}

#[test]
fn spans_report_the_faults_the_old_check_reported() {
    let mut rng = Lcg(0xbad_5eed);
    let mut faulty = 0;
    for case in 0..3000 {
        let n = 1 + rng.below(3) as usize;
        let trace = unbalanced_world(&mut rng, n);
        let want = phase_check(&trace);
        faulty += usize::from(want.is_err());
        assert_eq!(trace.spans().map(|_| ()), want, "case {case}");
    }
    assert!(faulty > 2000, "{faulty} faulty traces");
}

#[test]
#[should_panic(expected = "name: \"left-open\", kind: UnclosedBegin")]
fn replay_refuses_an_unclosed_phase_and_names_it() {
    // Replay used to accept a begin that nothing closed (it panicked only
    // on a mismatched or unmatched end).
    let trace = WorldTrace::from_ranks(vec![
        vec![Event::PhaseBegin("p"), Event::PhaseEnd("p")],
        vec![Event::PhaseBegin("left-open"), Event::Flops(1.0e6)],
    ]);
    replay(&trace, &machine());
}
