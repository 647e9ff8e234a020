//! Per-phase wall-time profiles folded from a traced run's own stamps.
//!
//! The paper's per-component shares (Fig. 1, Tables 4–7) come from
//! per-processor timers around each component. A recorded trace already
//! is that timer: every `PhaseBegin`/`PhaseEnd` carries a wall stamp
//! since the world's shared epoch, and each [`Timeline`] span carries its
//! start and end. [`ProfileReport::from_timeline`] folds them:
//!
//! - a span's *self* time is its duration minus its direct children's,
//!   in integer nanoseconds from rounded stamps, so the fold telescopes
//!   exactly;
//! - each self time is added to the span's root-to-leaf stack
//!   (`step;dynamics;filter`);
//! - a rank's time up to its last stamp that no top-level span covers
//!   goes to [`IDLE_FRAME`].
//!
//! The folded stacks therefore sum to the ranks' extents to the
//! nanosecond ([`ProfileReport::conservation_ok`]). Rounding is monotone
//! and one rank's stamps come from one `Instant`, so no self time is
//! negative.
//!
//! ## Outputs
//!
//! Folded-stack text (`step;dynamics;filter 42`), a dependency-free SVG
//! flamegraph ([`crate::flamegraph`]), a per-phase self/total table, and
//! a [`SkewReport`] that puts the same walk's self times on both clocks:
//! measured wall fractions beside the cost model's virtual fractions per
//! phase.

use crate::json::Value;
use crate::timeline::Timeline;
use std::collections::{BTreeMap, BTreeSet};

/// Pseudo-frame for rank time outside any top-level phase.
pub const IDLE_FRAME: &str = "(idle)";

/// A wall stamp (seconds since the run epoch) as whole nanoseconds.
/// Spans without stamps (hand-built traces) weigh nothing.
fn nanos(stamp: Option<f64>) -> u64 {
    stamp.map_or(0, |s| (s * 1e9).round() as u64)
}

/// One walk over a timeline's spans, on both clocks.
struct SelfTimes {
    /// Per span of [`Timeline::spans`]: self wall nanoseconds and self
    /// virtual seconds (duration minus the direct children's).
    spans: Vec<(u64, f64)>,
    /// Σ over ranks of the rank's last wall stamp.
    wall_total: u64,
    /// Σ over ranks of wall time no top-level span covers.
    wall_idle: u64,
    /// Σ over ranks of virtual time no top-level span covers.
    virt_idle: f64,
}

impl SelfTimes {
    fn of(tl: &Timeline) -> SelfTimes {
        let n = tl.finish_times.len();
        let mut extent = vec![0u64; n];
        let mut covered = vec![0u64; n];
        let mut virt_covered = vec![0.0f64; n];
        let mut spans: Vec<(u64, f64)> = Vec::with_capacity(tl.spans.len());
        // Indices of the open ancestors of the current span. Spans come
        // sorted by (rank, begin event), so a span's parent is the last
        // one seen one level up, and a new rank starts at depth 0.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in tl.spans.iter().enumerate() {
            let wall = nanos(s.wall_end).saturating_sub(nanos(s.wall_start));
            let virt = s.virt_duration();
            open.truncate(s.depth);
            match open.last() {
                Some(&parent) => {
                    spans[parent].0 = spans[parent].0.saturating_sub(wall);
                    spans[parent].1 -= virt;
                }
                None => {
                    covered[s.rank] += wall;
                    virt_covered[s.rank] += virt;
                }
            }
            extent[s.rank] = extent[s.rank].max(nanos(s.wall_end));
            spans.push((wall, virt));
            open.push(i);
        }
        let wall_idle = (0..n).map(|r| extent[r].saturating_sub(covered[r])).sum();
        let virt_idle = (0..n)
            .map(|r| (tl.finish_times[r] - virt_covered[r]).max(0.0))
            .sum();
        SelfTimes {
            spans,
            wall_total: extent.iter().sum(),
            wall_idle,
            virt_idle,
        }
    }
}

/// One folded stack: a root-to-leaf frame path and its self wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    /// Frame path, outermost first.
    pub frames: Vec<String>,
    /// Wall nanoseconds spent with exactly this stack open.
    pub nanos: u64,
}

/// Per-phase wall-time attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// Nanoseconds with this phase innermost (leaf) — its *self* time.
    pub self_nanos: u64,
    /// Nanoseconds with this phase anywhere on the stack — its *total*.
    pub total_nanos: u64,
}

/// A run's wall time, folded by phase stack.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Σ over ranks of each rank's last wall stamp: the whole the folded
    /// stacks must add up to.
    pub total_nanos: u64,
    /// Folded stacks, sorted by frame path.
    pub stacks: Vec<FoldedStack>,
}

impl ProfileReport {
    /// Fold a recorded timeline's wall stamps into stacks.
    pub fn from_timeline(tl: &Timeline) -> ProfileReport {
        let times = SelfTimes::of(tl);
        let mut folded: BTreeMap<Vec<&str>, u64> = BTreeMap::new();
        let mut path: Vec<&str> = Vec::new();
        for (s, &(wall, _)) in tl.spans.iter().zip(&times.spans) {
            path.truncate(s.depth);
            path.push(s.name);
            match folded.get_mut(&path) {
                Some(n) => *n += wall,
                None => {
                    folded.insert(path.clone(), wall);
                }
            }
        }
        if times.wall_idle > 0 {
            folded.insert(vec![IDLE_FRAME], times.wall_idle);
        }
        ProfileReport {
            total_nanos: times.wall_total,
            stacks: folded
                .into_iter()
                .map(|(frames, nanos)| FoldedStack {
                    frames: frames.into_iter().map(str::to_string).collect(),
                    nanos,
                })
                .collect(),
        }
    }

    /// The folded-stack text format (`a;b;c 42`), one line per stack —
    /// loadable by any flamegraph toolchain.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.frames.join(";"));
            out.push(' ');
            out.push_str(&s.nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Wall conservation: the folded stacks account for every nanosecond
    /// of every rank's extent, no more, no less.
    pub fn conservation_ok(&self) -> bool {
        self.stacks.iter().map(|s| s.nanos).sum::<u64>() == self.total_nanos
    }

    /// Per-phase self/total wall time, heaviest self first.
    pub fn phase_table(&self) -> Vec<PhaseStat> {
        let mut table: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.stacks {
            if let Some(leaf) = s.frames.last() {
                table.entry(leaf).or_default().0 += s.nanos;
            }
            // Count each stack once per phase even if a name repeats.
            let distinct: BTreeSet<&str> = s.frames.iter().map(String::as_str).collect();
            for f in distinct {
                table.entry(f).or_default().1 += s.nanos;
            }
        }
        let mut rows: Vec<PhaseStat> = table
            .into_iter()
            .map(|(name, (self_nanos, total_nanos))| PhaseStat {
                name: name.to_string(),
                self_nanos,
                total_nanos,
            })
            .collect();
        rows.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.name.cmp(&b.name)));
        rows
    }

    /// The report as JSON (stacks, total, phase table).
    pub fn to_json(&self) -> Value {
        let stacks = Value::Arr(
            self.stacks
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("stack", Value::Str(s.frames.join(";"))),
                        ("nanos", Value::Num(s.nanos as f64)),
                    ])
                })
                .collect(),
        );
        let phases = Value::Arr(
            self.phase_table()
                .into_iter()
                .map(|p| {
                    Value::obj(vec![
                        ("phase", Value::Str(p.name)),
                        ("self_nanos", Value::Num(p.self_nanos as f64)),
                        ("total_nanos", Value::Num(p.total_nanos as f64)),
                    ])
                })
                .collect(),
        );
        Value::obj(vec![
            ("total_nanos", Value::Num(self.total_nanos as f64)),
            ("stacks", stacks),
            ("phases", phases),
        ])
    }

    /// A self-contained SVG flamegraph of the folded stacks.
    pub fn flamegraph_svg(&self, title: &str) -> String {
        crate::flamegraph::render(&self.stacks, title)
    }
}

/// One row of the measured-vs-modeled join.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewRow {
    /// Phase name (or [`IDLE_FRAME`]).
    pub phase: String,
    /// Fraction of total rank wall time spent in this phase exclusively.
    pub measured_self_frac: f64,
    /// Fraction of total virtual rank-seconds spent in this phase
    /// exclusively (children subtracted).
    pub modeled_self_frac: f64,
    /// Self wall nanoseconds behind `measured_self_frac`.
    pub measured_self_nanos: u64,
    /// Virtual self seconds behind `modeled_self_frac`.
    pub modeled_self_seconds: f64,
    /// `(measured − modeled) × 100` percentage points.
    pub skew_points: f64,
}

/// Measured wall fractions joined against cost-model virtual fractions,
/// one row per traced phase plus [`IDLE_FRAME`].
#[derive(Debug, Clone, Default)]
pub struct SkewReport {
    /// Rows sorted by modeled fraction, heaviest first.
    pub rows: Vec<SkewRow>,
    /// Sum of per-rank virtual finish times (the modeled denominator).
    pub total_virtual_seconds: f64,
    /// Sum of per-rank wall extents (the measured denominator).
    pub total_wall_nanos: u64,
    /// Distinct phases in the trace.
    pub traced_phases: usize,
}

impl SkewReport {
    /// Fixed-width text table for terminal output.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>8}  {}\n",
            "phase", "measured%", "modeled%", "skew", "wall ms"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>9.2}% {:>9.2}% {:>+7.2}  {:.3}\n",
                r.phase,
                r.measured_self_frac * 100.0,
                r.modeled_self_frac * 100.0,
                r.skew_points,
                r.measured_self_nanos as f64 / 1e6,
            ));
        }
        out
    }

    /// The report as JSON.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Value::obj(vec![
                                ("phase", Value::Str(r.phase.clone())),
                                ("measured_self_frac", Value::Num(r.measured_self_frac)),
                                ("modeled_self_frac", Value::Num(r.modeled_self_frac)),
                                (
                                    "measured_self_nanos",
                                    Value::Num(r.measured_self_nanos as f64),
                                ),
                                ("modeled_self_seconds", Value::Num(r.modeled_self_seconds)),
                                ("skew_points", Value::Num(r.skew_points)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total_virtual_seconds",
                Value::Num(self.total_virtual_seconds),
            ),
            ("total_wall_nanos", Value::Num(self.total_wall_nanos as f64)),
            ("traced_phases", Value::Num(self.traced_phases as f64)),
        ])
    }
}

/// Self time per phase on both clocks, from one walk over `tl`'s spans.
///
/// Both sides are reduced to *self* fractions of total rank-time:
/// measured = self wall nanoseconds / summed rank extents, modeled =
/// exclusive virtual seconds / summed virtual finish times. Time a rank
/// spends outside any phase lands in the [`IDLE_FRAME`] row on both
/// sides, so the two columns each sum to 1 and are directly comparable.
pub fn skew_report(tl: &Timeline) -> SkewReport {
    let times = SelfTimes::of(tl);
    let mut by_phase: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for (s, &(wall, virt)) in tl.spans.iter().zip(&times.spans) {
        let row = by_phase.entry(s.name).or_default();
        row.0 += wall;
        row.1 += virt;
    }
    let traced_phases = by_phase.len();
    by_phase.insert(IDLE_FRAME, (times.wall_idle, times.virt_idle));

    let total_virtual: f64 = tl.finish_times.iter().sum();
    let frac = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut rows: Vec<SkewRow> = by_phase
        .into_iter()
        .map(|(phase, (wall, virt))| {
            let measured = frac(wall as f64, times.wall_total as f64);
            let modeled = frac(virt, total_virtual);
            SkewRow {
                phase: phase.to_string(),
                measured_self_frac: measured,
                modeled_self_frac: modeled,
                measured_self_nanos: wall,
                modeled_self_seconds: virt,
                skew_points: (measured - modeled) * 100.0,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.modeled_self_frac
            .total_cmp(&a.modeled_self_frac)
            .then_with(|| a.phase.cmp(&b.phase))
    });

    SkewReport {
        rows,
        total_virtual_seconds: total_virtual,
        total_wall_nanos: times.wall_total,
        traced_phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_costmodel::machine::MachineProfile;
    use agcm_mps::trace::{Event, WorldTrace};

    fn machine() -> MachineProfile {
        MachineProfile {
            name: "test",
            flops_per_sec: 1.0e6,
            latency_s: 1.0e-3,
            bytes_per_sec: 1.0e6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        }
    }

    /// Two ranks, walls in milliseconds. Rank 0 nests three deep and has
    /// a gap between steps; rank 1 starts late.
    fn two_rank_trace() -> WorldTrace {
        let mut trace = WorldTrace::from_ranks(vec![
            vec![
                Event::PhaseBegin("step"),
                Event::PhaseBegin("dynamics"),
                Event::PhaseBegin("filter"),
                Event::PhaseEnd("filter"),
                Event::PhaseEnd("dynamics"),
                Event::PhaseBegin("physics"),
                Event::PhaseEnd("physics"),
                Event::PhaseEnd("step"),
                Event::PhaseBegin("step"),
                Event::PhaseEnd("step"),
            ],
            vec![
                Event::PhaseBegin("step"),
                Event::PhaseBegin("physics"),
                Event::PhaseEnd("physics"),
                Event::PhaseEnd("step"),
            ],
        ]);
        trace.walls = vec![
            vec![
                0.001, 0.002, 0.003, 0.005, 0.006, 0.006, 0.009, 0.010, 0.012, 0.015,
            ],
            vec![0.004, 0.004, 0.007, 0.008],
        ];
        trace
    }

    #[test]
    fn fold_is_exact_on_two_ranks() {
        let tl = Timeline::from_trace(&two_rank_trace(), &machine()).unwrap();
        let report = ProfileReport::from_timeline(&tl);
        assert_eq!(
            report.folded(),
            concat!(
                "(idle) 7000000\n",
                "step 6000000\n",
                "step;dynamics 2000000\n",
                "step;dynamics;filter 2000000\n",
                "step;physics 6000000\n",
            ),
        );
        // Rank 0 ends at 15 ms, rank 1 at 8 ms: nothing lost or doubled.
        assert_eq!(report.total_nanos, 23_000_000);
        assert!(report.conservation_ok());
        let table = report.phase_table();
        assert_eq!(
            table[0],
            PhaseStat {
                name: "(idle)".into(),
                self_nanos: 7_000_000,
                total_nanos: 7_000_000,
            }
        );
        let step = table.iter().find(|p| p.name == "step").unwrap();
        assert_eq!((step.self_nanos, step.total_nanos), (6_000_000, 16_000_000));
    }

    #[test]
    fn skew_measured_equals_modeled_when_walls_follow_the_flops() {
        // At 1 Mflop/s a phase event's virtual time is the flops before
        // it over 1e6; stamping the same seconds makes the clocks agree.
        let mut trace = WorldTrace::from_ranks(vec![
            vec![
                Event::Flops(1.0e3),
                Event::PhaseBegin("step"),
                Event::PhaseBegin("dynamics"),
                Event::Flops(3.0e3),
                Event::PhaseEnd("dynamics"),
                Event::Flops(2.0e3),
                Event::PhaseEnd("step"),
            ],
            vec![
                Event::PhaseBegin("physics"),
                Event::Flops(4.0e3),
                Event::PhaseEnd("physics"),
            ],
        ]);
        trace.walls = vec![vec![0.001, 0.001, 0.004, 0.006], vec![0.0, 0.004]];
        let tl = Timeline::from_trace(&trace, &machine()).unwrap();
        let skew = skew_report(&tl);
        assert_eq!(skew.traced_phases, 3);
        assert_eq!(skew.total_wall_nanos, 10_000_000);
        for r in &skew.rows {
            assert!(
                (r.measured_self_frac - r.modeled_self_frac).abs() < 1e-12,
                "{r:?}"
            );
        }
        let dynamics = skew.rows.iter().find(|r| r.phase == "dynamics").unwrap();
        assert_eq!(dynamics.measured_self_nanos, 3_000_000);
        assert!((dynamics.modeled_self_frac - 0.3).abs() < 1e-12);
        let m: f64 = skew.rows.iter().map(|r| r.measured_self_frac).sum();
        let v: f64 = skew.rows.iter().map(|r| r.modeled_self_frac).sum();
        assert!((m - 1.0).abs() < 1e-12 && (v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_json_carries_nanos() {
        let tl = Timeline::from_trace(&two_rank_trace(), &machine()).unwrap();
        let v = ProfileReport::from_timeline(&tl).to_json();
        let back = Value::parse(&v.to_string()).expect("report JSON parses");
        let total = back.get("total_nanos").and_then(Value::as_f64).unwrap();
        let stacks = back.get("stacks").and_then(Value::as_arr).unwrap();
        let sum: f64 = stacks
            .iter()
            .map(|s| s.get("nanos").and_then(Value::as_f64).unwrap())
            .sum();
        assert_eq!((total, sum), (23.0e6, 23.0e6));
    }
}
