//! Property test: for *random balanced* phase-event streams, the extracted
//! spans always nest correctly — matching names, contained event ranges,
//! monotone virtual intervals, depths consistent with containment — and
//! there are exactly as many spans as `PhaseBegin` events; with random
//! monotone wall stamps, the folded profile sums to the ranks' extents to
//! the nanosecond. Randomness comes from a hand-rolled LCG so the test is
//! deterministic and dependency-free.

use agcm_costmodel::machine::MachineProfile;
use agcm_mps::trace::{Event, WorldTrace};
use agcm_telemetry::timeline::Timeline;
use agcm_telemetry::ProfileReport;

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

const NAMES: [&str; 6] = ["step", "dynamics", "physics", "filter", "halo", "balance"];

/// Generate a random *balanced* event stream: at each point, either open a
/// phase, close the innermost open one, or do some work. Closes everything
/// at the end.
fn balanced_stream(rng: &mut Lcg, len: usize) -> Vec<Event> {
    let mut events = Vec::new();
    let mut open: Vec<&'static str> = Vec::new();
    for _ in 0..len {
        match rng.below(4) {
            // Open (bounded depth so streams stay interesting, not towers).
            0 | 1 if open.len() < 5 => {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                open.push(name);
                events.push(Event::PhaseBegin(name));
            }
            2 if !open.is_empty() => {
                events.push(Event::PhaseEnd(open.pop().unwrap()));
            }
            _ => events.push(Event::Flops((1 + rng.below(1000)) as f64 * 1.0e3)),
        }
    }
    while let Some(name) = open.pop() {
        events.push(Event::PhaseEnd(name));
    }
    events
}

fn machine() -> MachineProfile {
    MachineProfile {
        name: "prop",
        flops_per_sec: 1.0e6,
        latency_s: 1.0e-3,
        bytes_per_sec: 1.0e6,
        send_overhead_s: 1.0e-6,
        recv_overhead_s: 1.0e-6,
    }
}

#[test]
fn random_balanced_streams_yield_correctly_nested_spans() {
    let mut rng = Lcg(0x5eed_cafe);
    for case in 0..200 {
        let n_ranks = 1 + (rng.below(4) as usize);
        let ranks: Vec<Vec<Event>> = (0..n_ranks)
            .map(|_| {
                let len = 10 + rng.below(60) as usize;
                balanced_stream(&mut rng, len)
            })
            .collect();
        let begins: usize = ranks
            .iter()
            .flatten()
            .filter(|e| matches!(e, Event::PhaseBegin(_)))
            .count();
        let mut trace = WorldTrace::from_ranks(ranks);
        assert!(trace.spans().is_ok(), "case {case}: generator bug");
        // Monotone wall stamps off the nanosecond grid, one per phase event;
        // a third of them equal their predecessor, so children often tile
        // their parent exactly and a fold of rounded durations (rather than
        // of rounded stamps) would leave a parent negative self time.
        let mut extents = 0u64;
        trace.walls = trace
            .ranks
            .iter()
            .map(|evs| {
                let mut t = rng.below(100_000) as f64 * 1.37e-10;
                let walls: Vec<f64> = evs
                    .iter()
                    .filter(|e| matches!(e, Event::PhaseBegin(_) | Event::PhaseEnd(_)))
                    .map(|_| {
                        t += (rng.below(3) * rng.below(100_000)) as f64 * 1.37e-10;
                        t
                    })
                    .collect();
                extents += walls.last().map_or(0, |w| (w * 1e9).round() as u64);
                walls
            })
            .collect();

        let tl = Timeline::from_trace(&trace, &machine())
            .unwrap_or_else(|e| panic!("case {case}: {e:?}"));

        // One span per PhaseBegin.
        assert_eq!(tl.spans.len(), begins, "case {case}");

        // Wall conservation: self times plus idle telescope to the extents.
        let profile = ProfileReport::from_timeline(&tl);
        let folded: u64 = profile.stacks.iter().map(|s| s.nanos).sum();
        assert_eq!(
            (folded, profile.total_nanos),
            (extents, extents),
            "case {case}"
        );

        for (i, s) in tl.spans.iter().enumerate() {
            // Sanity per span.
            assert!(s.begin_event < s.end_event, "case {case} span {i}");
            assert!(
                s.virt_start <= s.virt_end,
                "case {case} span {i}: {} > {}",
                s.virt_start,
                s.virt_end
            );
            assert_eq!(
                trace.ranks[s.rank][s.begin_event],
                Event::PhaseBegin(s.name),
                "case {case} span {i}"
            );
            assert_eq!(
                trace.ranks[s.rank][s.end_event],
                Event::PhaseEnd(s.name),
                "case {case} span {i}"
            );
        }

        // Pairwise nesting: same-rank spans either nest or are disjoint,
        // and nesting in event ranges implies nesting in virtual time and
        // a strictly greater depth.
        for a in &tl.spans {
            for b in &tl.spans {
                if a.rank != b.rank || std::ptr::eq(a, b) {
                    continue;
                }
                let disjoint = a.end_event < b.begin_event || b.end_event < a.begin_event;
                if disjoint {
                    continue;
                }
                let a_contains_b = a.contains(b);
                let b_contains_a = b.contains(a);
                assert!(
                    a_contains_b ^ b_contains_a,
                    "case {case}: overlapping spans must nest: {a:?} vs {b:?}"
                );
                let (outer, inner) = if a_contains_b { (a, b) } else { (b, a) };
                assert!(
                    outer.depth < inner.depth,
                    "case {case}: {outer:?} {inner:?}"
                );
                assert!(
                    outer.virt_start <= inner.virt_start && inner.virt_end <= outer.virt_end,
                    "case {case}: virtual interval must contain nested span"
                );
            }
        }
    }
}

#[test]
fn streams_with_communication_still_nest() {
    // Balanced phases around a send/recv pair across ranks: the recv-side
    // span is stretched by the wait but still nests.
    let mut rng = Lcg(0xfeed);
    for case in 0..50 {
        let pre = rng.below(5) as f64;
        let trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("step"),
                Event::Flops(1.0e6 * (1.0 + pre)),
                Event::Send {
                    to: 1,
                    bytes: 500,
                    seq: 0,
                },
                Event::PhaseEnd("step"),
            ],
            vec![
                Event::PhaseBegin("step"),
                Event::PhaseBegin("halo"),
                Event::Recv {
                    from: 0,
                    bytes: 500,
                    seq: 0,
                },
                Event::PhaseEnd("halo"),
                Event::PhaseEnd("step"),
            ],
        ]);
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let step1 = tl
            .spans
            .iter()
            .find(|s| s.rank == 1 && s.name == "step")
            .unwrap();
        let halo = tl
            .spans
            .iter()
            .find(|s| s.rank == 1 && s.name == "halo")
            .unwrap();
        assert!(step1.contains(halo), "case {case}");
        // The halo span absorbs the wait for rank 0's send.
        assert!(halo.virt_end >= 1.0 * (1.0 + pre), "case {case}");
    }
}
