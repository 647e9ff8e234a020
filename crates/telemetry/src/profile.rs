//! In-process wall-clock sampling profiler.
//!
//! The cost model (PR 3/4) predicts where time *should* go; this module
//! measures where it *actually* goes, the way the paper's own §3.4 per-
//! component timings were measured. Rank threads publish their current
//! phase stack into a lock-free per-rank slot registry — the existing
//! `PhaseBegin`/`PhaseEnd` instrumentation drives it through the
//! [`SpanObserver`] hook, so nothing in the model changes — and a sampler
//! thread snapshots every live slot at a configurable Hz, accumulating
//! folded stacks.
//!
//! ## Concurrency design
//!
//! Each rank owns one [`PhaseSlot`]: a seqlock (sequence counter odd while
//! the writer is mid-update) over a fixed-depth stack of interned phase
//! ids. The rank thread is the only writer; the sampler retries a
//! bounded number of times on a torn read and otherwise *skips* the slot
//! for that tick (counted, never blocking the rank). Phase names are
//! interned into a fixed lock-free table of `OnceLock<&'static str>`
//! slots, so the publication path — begin, end, intern — performs **zero
//! allocations** and takes no locks. The disabled path (no observer
//! installed) is a single `Option` check in the substrate.
//!
//! ## Outputs
//!
//! [`Profiler::stop`] folds the samples into a [`ProfileReport`]:
//! folded-stack text (`step;dynamics;filter 42`), a dependency-free SVG
//! flamegraph ([`crate::flamegraph`]), a per-phase self/total table, and —
//! joined against a recorded trace — a [`SkewReport`] comparing measured
//! wall fractions with the cost model's virtual fractions per phase: the
//! repo's first measured-vs-modeled accountability check.

use crate::json::Value;
use crate::timeline::Timeline;
use agcm_costmodel::machine::MachineProfile;
use agcm_mps::span::SpanObserver;
use agcm_mps::trace::{PhaseFault, WorldTrace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deepest phase stack a slot can publish; deeper frames are dropped and
/// counted in [`ProfileReport::truncated`]. The model nests four deep
/// (step > dynamics > filter > fft), so 16 leaves ample headroom.
pub const MAX_DEPTH: usize = 16;

/// Interner capacity: distinct phase names a profile can distinguish.
/// Names beyond the cap fold into the reserved `(other)` frame.
pub const MAX_PHASES: usize = 128;

/// Pseudo-frame for a live rank currently outside any phase.
pub const IDLE_FRAME: &str = "(idle)";

/// Pseudo-frame for phase names past the interner capacity.
pub const OVERFLOW_FRAME: &str = "(other)";

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProfileConfig {
    /// Target sampling frequency. Clamped to `[1, 20_000]` Hz.
    pub hz: f64,
    /// Number of rank slots to preallocate; events from ranks at or above
    /// this index are dropped (counted in [`ProfileReport::dropped_ranks`]).
    pub max_ranks: usize,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            // A prime default keeps the sampler from beating in lockstep
            // with millisecond-periodic model phases.
            hz: 997.0,
            max_ranks: 256,
        }
    }
}

impl ProfileConfig {
    /// A config sampling at `hz` with the default rank capacity.
    pub fn at_hz(hz: f64) -> ProfileConfig {
        ProfileConfig {
            hz,
            ..ProfileConfig::default()
        }
    }

    fn clamped_hz(&self) -> f64 {
        self.hz.clamp(1.0, 20_000.0)
    }
}

/// Lock-free phase-name interner: a fixed table of `OnceLock` slots.
/// Interning scans published entries (string equality merges the same
/// literal from different crates) and claims the first empty slot on a
/// miss — no allocation, no mutex, at worst a bounded CAS race.
struct Interner {
    names: [OnceLock<&'static str>; MAX_PHASES],
    overflow: AtomicU64,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            names: [const { OnceLock::new() }; MAX_PHASES],
            overflow: AtomicU64::new(0),
        }
    }

    /// Intern `name`, returning its 1-based id; 0 means the table is full.
    fn intern(&self, name: &'static str) -> u32 {
        let mut i = 0;
        while i < MAX_PHASES {
            match self.names[i].get() {
                Some(n) => {
                    if *n == name {
                        return (i + 1) as u32;
                    }
                    i += 1;
                }
                None => {
                    if self.names[i].set(name).is_ok() {
                        return (i + 1) as u32;
                    }
                    // Lost the claim race: re-inspect the same slot.
                }
            }
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
        0
    }

    /// Resolve an id back to its name. Called at report time only.
    fn resolve(&self, id: u32) -> &'static str {
        if id == 0 {
            return OVERFLOW_FRAME;
        }
        self.names
            .get(id as usize - 1)
            .and_then(|n| n.get().copied())
            .unwrap_or(OVERFLOW_FRAME)
    }
}

/// One rank's published phase stack, seqlock-protected. The rank thread
/// is the single writer; the sampler reads with a retry loop. Every
/// field is an atomic, so even a torn snapshot is well-defined (and then
/// discarded by the sequence check).
struct PhaseSlot {
    /// Seqlock sequence: odd while the writer is mid-update.
    seq: AtomicU32,
    /// Whether the rank's thread is currently running.
    live: AtomicBool,
    /// Current stack depth (may exceed `MAX_DEPTH`; excess frames are
    /// not stored).
    depth: AtomicU32,
    /// Interned phase ids, innermost last.
    stack: [AtomicU32; MAX_DEPTH],
    /// Pushes that arrived beyond `MAX_DEPTH`.
    truncated: AtomicU64,
}

impl PhaseSlot {
    fn new() -> PhaseSlot {
        PhaseSlot {
            seq: AtomicU32::new(0),
            live: AtomicBool::new(false),
            depth: AtomicU32::new(0),
            stack: [const { AtomicU32::new(0) }; MAX_DEPTH],
            truncated: AtomicU64::new(0),
        }
    }

    fn write<F: FnOnce(&PhaseSlot)>(&self, f: F) {
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: write in progress
        f(self);
        self.seq.fetch_add(1, Ordering::Release); // even: stable
    }

    fn push(&self, id: u32) {
        self.write(|s| {
            let d = s.depth.load(Ordering::Relaxed) as usize;
            if d < MAX_DEPTH {
                s.stack[d].store(id, Ordering::Relaxed);
            } else {
                s.truncated.fetch_add(1, Ordering::Relaxed);
            }
            s.depth.store(d as u32 + 1, Ordering::Relaxed);
        });
    }

    fn pop(&self) {
        self.write(|s| {
            let d = s.depth.load(Ordering::Relaxed);
            s.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        });
    }

    fn reset(&self, live: bool) {
        self.write(|s| {
            s.depth.store(0, Ordering::Relaxed);
            s.live.store(live, Ordering::Relaxed);
        });
    }

    /// Snapshot the stack if the slot is live and stable; `None` when the
    /// rank is not running or the writer kept interfering.
    fn snapshot(&self, out: &mut Vec<u32>) -> SnapshotOutcome {
        const RETRIES: usize = 8;
        for _ in 0..RETRIES {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if !self.live.load(Ordering::Relaxed) {
                return SnapshotOutcome::Dead;
            }
            let depth = (self.depth.load(Ordering::Relaxed) as usize).min(MAX_DEPTH);
            out.clear();
            for i in 0..depth {
                out.push(self.stack[i].load(Ordering::Relaxed));
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == s1 {
                return SnapshotOutcome::Sampled;
            }
        }
        SnapshotOutcome::Contended
    }
}

enum SnapshotOutcome {
    Sampled,
    Dead,
    Contended,
}

struct ProfShared {
    interner: Interner,
    slots: Vec<PhaseSlot>,
    stop: AtomicBool,
    dropped_ranks: AtomicU64,
    sampled: Mutex<Option<Sampled>>,
}

#[derive(Default)]
struct Sampled {
    /// Folded stacks keyed by interned-id path; empty path = idle.
    stacks: HashMap<Vec<u32>, u64>,
    ticks: u64,
    total_samples: u64,
    idle_samples: u64,
    skipped_samples: u64,
}

/// The [`SpanObserver`] face of the profiler: attach it to a world via
/// `WorldOptions::spans` (possibly through a
/// [`FanoutObserver`](agcm_mps::FanoutObserver)). Publication is
/// allocation-free and lock-free.
pub struct ProfileObserver {
    shared: Arc<ProfShared>,
}

impl ProfileObserver {
    fn slot(&self, rank: usize) -> Option<&PhaseSlot> {
        let slot = self.shared.slots.get(rank);
        if slot.is_none() {
            self.shared.dropped_ranks.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }
}

impl SpanObserver for ProfileObserver {
    fn phase_begin(&self, rank: usize, name: &'static str) {
        if let Some(slot) = self.slot(rank) {
            // A phase event from a rank that never announced itself still
            // marks the slot live, so the profiler works even on paths
            // that bypass the runtime's lifecycle hooks.
            if !slot.live.load(Ordering::Relaxed) {
                slot.reset(true);
            }
            slot.push(self.shared.interner.intern(name));
        }
    }

    fn phase_end(&self, rank: usize, _name: &'static str) {
        if let Some(slot) = self.slot(rank) {
            slot.pop();
        }
    }

    fn rank_started(&self, rank: usize) {
        if let Some(slot) = self.slot(rank) {
            slot.reset(true);
        }
    }

    fn rank_finished(&self, rank: usize) {
        if let Some(slot) = self.slot(rank) {
            slot.reset(false);
        }
    }
}

/// A running sampling profiler: owns the sampler thread.
pub struct Profiler {
    shared: Arc<ProfShared>,
    handle: Option<JoinHandle<()>>,
    started: Instant,
    hz: f64,
}

impl Profiler {
    /// Start sampling at `cfg.hz`. The profiler samples nothing until an
    /// [`observer`](Profiler::observer) is attached to a running world.
    pub fn start(cfg: ProfileConfig) -> Profiler {
        let hz = cfg.clamped_hz();
        let shared = Arc::new(ProfShared {
            interner: Interner::new(),
            slots: (0..cfg.max_ranks.max(1))
                .map(|_| PhaseSlot::new())
                .collect(),
            stop: AtomicBool::new(false),
            dropped_ranks: AtomicU64::new(0),
            sampled: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let interval = Duration::from_secs_f64(1.0 / hz);
        let handle = std::thread::Builder::new()
            .name("agcm-profiler".into())
            .spawn(move || sampler_loop(&worker, interval))
            .expect("spawn sampler thread");
        Profiler {
            shared,
            handle: Some(handle),
            started: Instant::now(),
            hz,
        }
    }

    /// The observer rank threads publish through. Attach to
    /// `WorldOptions::spans`.
    pub fn observer(&self) -> Arc<dyn SpanObserver> {
        Arc::new(ProfileObserver {
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stop the sampler and fold what it saw into a report.
    pub fn stop(mut self) -> ProfileReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let sampled = self
            .shared
            .sampled
            .lock()
            .unwrap()
            .take()
            .unwrap_or_default();
        let mut stacks: Vec<FoldedStack> = sampled
            .stacks
            .iter()
            .map(|(ids, &samples)| FoldedStack {
                frames: if ids.is_empty() {
                    vec![IDLE_FRAME.to_string()]
                } else {
                    ids.iter()
                        .map(|&id| self.shared.interner.resolve(id).to_string())
                        .collect()
                },
                samples,
            })
            .collect();
        // Name-level merge: distinct id paths can resolve to the same
        // frame path (interner overflow), so re-fold by name.
        let mut by_name: BTreeMap<Vec<String>, u64> = BTreeMap::new();
        for s in stacks.drain(..) {
            *by_name.entry(s.frames).or_insert(0) += s.samples;
        }
        let stacks: Vec<FoldedStack> = by_name
            .into_iter()
            .map(|(frames, samples)| FoldedStack { frames, samples })
            .collect();
        let truncated = self
            .shared
            .slots
            .iter()
            .map(|s| s.truncated.load(Ordering::Relaxed))
            .sum();
        ProfileReport {
            hz: self.hz,
            wall_seconds,
            ticks: sampled.ticks,
            total_samples: sampled.total_samples,
            idle_samples: sampled.idle_samples,
            skipped_samples: sampled.skipped_samples,
            dropped_phases: self.shared.interner.overflow.load(Ordering::Relaxed),
            dropped_ranks: self.shared.dropped_ranks.load(Ordering::Relaxed),
            truncated,
            stacks,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn sampler_loop(shared: &ProfShared, interval: Duration) {
    let mut acc = Sampled::default();
    let mut scratch: Vec<u32> = Vec::with_capacity(MAX_DEPTH);
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        acc.ticks += 1;
        for slot in &shared.slots {
            match slot.snapshot(&mut scratch) {
                SnapshotOutcome::Sampled => {
                    acc.total_samples += 1;
                    if scratch.is_empty() {
                        acc.idle_samples += 1;
                    }
                    *acc.stacks.entry(scratch.clone()).or_insert(0) += 1;
                }
                SnapshotOutcome::Dead => {}
                SnapshotOutcome::Contended => acc.skipped_samples += 1,
            }
        }
    }
    *shared.sampled.lock().unwrap() = Some(acc);
}

/// One folded stack: a root-to-leaf frame path and its sample count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStack {
    /// Frame path, outermost first.
    pub frames: Vec<String>,
    /// Samples that observed exactly this stack.
    pub samples: u64,
}

/// Per-phase sample attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name.
    pub name: String,
    /// Samples with this phase innermost (leaf) — its *self* time.
    pub self_samples: u64,
    /// Samples with this phase anywhere on the stack — its *total* time.
    pub total_samples: u64,
}

/// Everything the sampler saw, folded.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Effective sampling frequency (after clamping).
    pub hz: f64,
    /// Wall seconds the profiler ran.
    pub wall_seconds: f64,
    /// Sampler wake-ups.
    pub ticks: u64,
    /// Successful slot snapshots (= sum over folded stacks).
    pub total_samples: u64,
    /// Snapshots of live ranks outside any phase.
    pub idle_samples: u64,
    /// Snapshots abandoned to writer contention (not in `total_samples`).
    pub skipped_samples: u64,
    /// Phase-begin events whose name missed the interner table.
    pub dropped_phases: u64,
    /// Phase events from ranks beyond the slot capacity.
    pub dropped_ranks: u64,
    /// Frames dropped past [`MAX_DEPTH`].
    pub truncated: u64,
    /// Folded stacks, sorted by frame path.
    pub stacks: Vec<FoldedStack>,
}

impl ProfileReport {
    /// The folded-stack text format (`a;b;c 42`), one line per stack —
    /// loadable by any flamegraph toolchain.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.frames.join(";"));
            out.push(' ');
            out.push_str(&s.samples.to_string());
            out.push('\n');
        }
        out
    }

    /// Sample conservation: the folded stacks account for every recorded
    /// sample, no more, no less.
    pub fn conservation_ok(&self) -> bool {
        self.stacks.iter().map(|s| s.samples).sum::<u64>() == self.total_samples
    }

    /// Per-phase self/total sample counts, heaviest self first.
    pub fn phase_table(&self) -> Vec<PhaseStat> {
        let mut table: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.stacks {
            if let Some(leaf) = s.frames.last() {
                table.entry(leaf).or_default().0 += s.samples;
            }
            // Count each stack once per phase even if a name repeats.
            let distinct: BTreeSet<&str> = s.frames.iter().map(String::as_str).collect();
            for f in distinct {
                table.entry(f).or_default().1 += s.samples;
            }
        }
        let mut rows: Vec<PhaseStat> = table
            .into_iter()
            .map(|(name, (self_samples, total_samples))| PhaseStat {
                name: name.to_string(),
                self_samples,
                total_samples,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.self_samples
                .cmp(&a.self_samples)
                .then(a.name.cmp(&b.name))
        });
        rows
    }

    /// The report as JSON (stacks, counters, phase table).
    pub fn to_json(&self) -> Value {
        let stacks = Value::Arr(
            self.stacks
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("stack", Value::Str(s.frames.join(";"))),
                        ("samples", Value::Num(s.samples as f64)),
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
                        ("self_samples", Value::Num(p.self_samples as f64)),
                        ("total_samples", Value::Num(p.total_samples as f64)),
                    ])
                })
                .collect(),
        );
        Value::obj(vec![
            ("hz", Value::Num(self.hz)),
            ("wall_seconds", Value::Num(self.wall_seconds)),
            ("ticks", Value::Num(self.ticks as f64)),
            ("total_samples", Value::Num(self.total_samples as f64)),
            ("idle_samples", Value::Num(self.idle_samples as f64)),
            ("skipped_samples", Value::Num(self.skipped_samples as f64)),
            ("dropped_phases", Value::Num(self.dropped_phases as f64)),
            ("dropped_ranks", Value::Num(self.dropped_ranks as f64)),
            ("truncated", Value::Num(self.truncated as f64)),
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
    /// Phase name (or a pseudo-frame).
    pub phase: String,
    /// Fraction of wall samples with this phase innermost.
    pub measured_self_frac: f64,
    /// Fraction of total virtual rank-seconds spent in this phase
    /// exclusively (children subtracted).
    pub modeled_self_frac: f64,
    /// Self samples behind `measured_self_frac`.
    pub measured_samples: u64,
    /// Virtual self seconds behind `modeled_self_frac`.
    pub modeled_self_seconds: f64,
    /// `(measured − modeled) × 100` percentage points.
    pub skew_points: f64,
    /// Whether the phase appears in the recorded trace.
    pub in_trace: bool,
}

/// Measured wall fractions joined against cost-model virtual fractions,
/// one row per phase in the union of both domains.
#[derive(Debug, Clone, Default)]
pub struct SkewReport {
    /// Rows sorted by modeled fraction, heaviest first.
    pub rows: Vec<SkewRow>,
    /// Sum of per-rank virtual finish times (the modeled denominator).
    pub total_virtual_seconds: f64,
    /// Wall samples (the measured denominator).
    pub total_samples: u64,
    /// Phases in the trace (the join is complete iff each has a row —
    /// true by construction, recorded for the machine check).
    pub traced_phases: usize,
}

impl SkewReport {
    /// True if every *sampled* phase also exists in the trace — sampling
    /// must never invent phases the model does not know about.
    pub fn sampled_phases_in_trace(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.measured_samples > 0 && r.phase != IDLE_FRAME)
            .all(|r| r.in_trace)
    }

    /// True if every traced phase got a row in the join.
    pub fn join_complete(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.phase != IDLE_FRAME && r.in_trace)
            .count()
            == self.traced_phases
    }

    /// Fixed-width text table for terminal output.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>8}  {}\n",
            "phase", "measured%", "modeled%", "skew", "samples"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>9.2}% {:>9.2}% {:>+7.2}  {}{}\n",
                r.phase,
                r.measured_self_frac * 100.0,
                r.modeled_self_frac * 100.0,
                r.skew_points,
                r.measured_samples,
                if r.in_trace { "" } else { "  [not in trace]" }
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
                                ("measured_samples", Value::Num(r.measured_samples as f64)),
                                ("modeled_self_seconds", Value::Num(r.modeled_self_seconds)),
                                ("skew_points", Value::Num(r.skew_points)),
                                ("in_trace", Value::Bool(r.in_trace)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total_virtual_seconds",
                Value::Num(self.total_virtual_seconds),
            ),
            ("total_samples", Value::Num(self.total_samples as f64)),
            ("traced_phases", Value::Num(self.traced_phases as f64)),
        ])
    }
}

/// Join a sampled profile against the cost model's replay of `trace`.
///
/// Both sides are reduced to *self* fractions of total rank-time:
/// measured = leaf samples / total samples, modeled = exclusive virtual
/// seconds / summed virtual finish times. Time a rank spends outside any
/// phase lands in the [`IDLE_FRAME`] row on both sides, so the two
/// columns each sum to ~1 and are directly comparable.
pub fn skew_report(
    report: &ProfileReport,
    trace: &WorldTrace,
    machine: &MachineProfile,
) -> Result<SkewReport, Vec<PhaseFault>> {
    let tl = Timeline::from_trace(trace, machine)?;

    // Exclusive (self) virtual seconds per phase: walk each rank's spans
    // in begin order, subtracting every span's duration from its direct
    // parent.
    let mut self_secs: BTreeMap<&str, f64> = BTreeMap::new();
    let mut idle_secs = 0.0;
    for rank in 0..tl.finish_times.len() {
        let mut stack: Vec<(&str, usize)> = Vec::new(); // (name, end_event)
        let mut top_level_covered = 0.0;
        for s in tl.rank_spans(rank) {
            while let Some(&(_, end)) = stack.last() {
                if end < s.begin_event {
                    stack.pop();
                } else {
                    break;
                }
            }
            match stack.last() {
                Some(&(parent, _)) => *self_secs.entry(parent).or_insert(0.0) -= s.virt_duration(),
                None => top_level_covered += s.virt_duration(),
            }
            *self_secs.entry(s.name).or_insert(0.0) += s.virt_duration();
            stack.push((s.name, s.end_event));
        }
        idle_secs += (tl.finish_times[rank] - top_level_covered).max(0.0);
    }
    let total_virtual: f64 = tl.finish_times.iter().sum();

    let traced: BTreeSet<&str> = self_secs.keys().copied().collect();
    let measured: BTreeMap<String, u64> = report
        .phase_table()
        .into_iter()
        .map(|p| (p.name, p.self_samples))
        .collect();

    let mut names: BTreeSet<String> = traced.iter().map(|s| s.to_string()).collect();
    names.extend(measured.keys().cloned());
    names.insert(IDLE_FRAME.to_string());

    let total_samples = report.total_samples;
    let mut rows: Vec<SkewRow> = names
        .into_iter()
        .map(|phase| {
            let samples = if phase == IDLE_FRAME {
                report.idle_samples
            } else {
                measured.get(&phase).copied().unwrap_or(0)
            };
            let modeled_secs = if phase == IDLE_FRAME {
                idle_secs
            } else {
                self_secs.get(phase.as_str()).copied().unwrap_or(0.0)
            };
            let measured_frac = if total_samples > 0 {
                samples as f64 / total_samples as f64
            } else {
                0.0
            };
            let modeled_frac = if total_virtual > 0.0 {
                modeled_secs / total_virtual
            } else {
                0.0
            };
            SkewRow {
                in_trace: phase == IDLE_FRAME || traced.contains(phase.as_str()),
                measured_self_frac: measured_frac,
                modeled_self_frac: modeled_frac,
                measured_samples: samples,
                modeled_self_seconds: modeled_secs,
                skew_points: (measured_frac - modeled_frac) * 100.0,
                phase,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.modeled_self_frac
            .partial_cmp(&a.modeled_self_frac)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.phase.cmp(&b.phase))
    });

    Ok(SkewReport {
        rows,
        total_virtual_seconds: total_virtual,
        total_samples,
        traced_phases: traced.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::trace::Event;

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

    #[test]
    fn interner_merges_equal_names_and_overflows_gracefully() {
        let i = Interner::new();
        let a = i.intern("step");
        let b = i.intern("step");
        let c = i.intern("physics");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "step");
        assert_eq!(i.resolve(0), OVERFLOW_FRAME);
    }

    #[test]
    fn slot_snapshot_sees_pushed_stack() {
        let slot = PhaseSlot::new();
        slot.reset(true);
        slot.push(1);
        slot.push(2);
        let mut out = Vec::new();
        assert!(matches!(slot.snapshot(&mut out), SnapshotOutcome::Sampled));
        assert_eq!(out, vec![1, 2]);
        slot.pop();
        assert!(matches!(slot.snapshot(&mut out), SnapshotOutcome::Sampled));
        assert_eq!(out, vec![1]);
        slot.reset(false);
        assert!(matches!(slot.snapshot(&mut out), SnapshotOutcome::Dead));
    }

    #[test]
    fn deep_stacks_truncate_but_stay_balanced() {
        let slot = PhaseSlot::new();
        slot.reset(true);
        for i in 0..(MAX_DEPTH as u32 + 4) {
            slot.push(i + 1);
        }
        assert_eq!(slot.truncated.load(Ordering::Relaxed), 4);
        for _ in 0..(MAX_DEPTH + 4) {
            slot.pop();
        }
        let mut out = Vec::new();
        assert!(matches!(slot.snapshot(&mut out), SnapshotOutcome::Sampled));
        assert!(out.is_empty());
    }

    #[test]
    fn profiler_samples_a_busy_observer() {
        let profiler = Profiler::start(ProfileConfig {
            hz: 4000.0,
            max_ranks: 4,
        });
        let obs = profiler.observer();
        obs.rank_started(0);
        obs.phase_begin(0, "step");
        obs.phase_begin(0, "dynamics");
        std::thread::sleep(Duration::from_millis(60));
        obs.phase_end(0, "dynamics");
        obs.phase_end(0, "step");
        obs.rank_finished(0);
        let report = profiler.stop();
        assert!(report.total_samples > 0, "sampler saw nothing");
        assert!(report.conservation_ok());
        let folded = report.folded();
        assert!(
            folded.contains("step;dynamics"),
            "expected nested stack in:\n{folded}"
        );
        let table = report.phase_table();
        let dyn_row = table.iter().find(|p| p.name == "dynamics").unwrap();
        let step_row = table.iter().find(|p| p.name == "step").unwrap();
        assert!(dyn_row.self_samples > 0);
        assert!(step_row.total_samples >= dyn_row.total_samples);
    }

    #[test]
    fn finished_ranks_are_not_sampled() {
        let profiler = Profiler::start(ProfileConfig {
            hz: 4000.0,
            max_ranks: 2,
        });
        let obs = profiler.observer();
        obs.rank_started(0);
        obs.rank_finished(0);
        std::thread::sleep(Duration::from_millis(30));
        let report = profiler.stop();
        assert_eq!(report.total_samples, 0, "dead slot was sampled");
    }

    #[test]
    fn out_of_range_ranks_are_counted_not_crashed() {
        let profiler = Profiler::start(ProfileConfig {
            hz: 100.0,
            max_ranks: 1,
        });
        let obs = profiler.observer();
        obs.phase_begin(7, "step");
        obs.phase_end(7, "step");
        let report = profiler.stop();
        assert!(report.dropped_ranks >= 2);
    }

    #[test]
    fn skew_report_joins_every_traced_phase() {
        // Build a tiny trace: step > {dynamics, physics}.
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::PhaseBegin("dynamics"),
            Event::Flops(3.0e6),
            Event::PhaseEnd("dynamics"),
            Event::PhaseBegin("physics"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("physics"),
            Event::PhaseEnd("step"),
        ]]);
        let report = ProfileReport {
            hz: 1000.0,
            wall_seconds: 0.1,
            ticks: 80,
            total_samples: 80,
            idle_samples: 0,
            stacks: vec![
                FoldedStack {
                    frames: vec!["step".into(), "dynamics".into()],
                    samples: 60,
                },
                FoldedStack {
                    frames: vec!["step".into(), "physics".into()],
                    samples: 20,
                },
            ],
            ..ProfileReport::default()
        };
        let skew = skew_report(&report, &trace, &machine()).unwrap();
        assert_eq!(skew.traced_phases, 3);
        assert!(skew.join_complete());
        assert!(skew.sampled_phases_in_trace());
        let dynamics = skew.rows.iter().find(|r| r.phase == "dynamics").unwrap();
        // Modeled: 3 of 4 Mflop = 75% self; measured: 60/80 = 75%.
        assert!((dynamics.modeled_self_frac - 0.75).abs() < 1e-9);
        assert!((dynamics.measured_self_frac - 0.75).abs() < 1e-9);
        assert!(dynamics.skew_points.abs() < 1e-9);
        // "step" self time is zero on both sides (all time is in children).
        let step = skew.rows.iter().find(|r| r.phase == "step").unwrap();
        assert!(step.modeled_self_frac.abs() < 1e-9);
        // Fractions sum to ~1 on both sides (idle row included).
        let m: f64 = skew.rows.iter().map(|r| r.measured_self_frac).sum();
        let v: f64 = skew.rows.iter().map(|r| r.modeled_self_frac).sum();
        assert!((m - 1.0).abs() < 1e-9, "measured sums to {m}");
        assert!((v - 1.0).abs() < 1e-9, "modeled sums to {v}");
    }

    #[test]
    fn skew_flags_phases_sampled_but_not_traced() {
        let trace = WorldTrace::from_ranks(vec![vec![
            Event::PhaseBegin("step"),
            Event::Flops(1.0e6),
            Event::PhaseEnd("step"),
        ]]);
        let report = ProfileReport {
            total_samples: 10,
            stacks: vec![FoldedStack {
                frames: vec!["rogue".into()],
                samples: 10,
            }],
            ..ProfileReport::default()
        };
        let skew = skew_report(&report, &trace, &machine()).unwrap();
        assert!(!skew.sampled_phases_in_trace());
        assert!(skew.join_complete());
    }

    #[test]
    fn report_json_roundtrips_counts() {
        let report = ProfileReport {
            hz: 997.0,
            total_samples: 5,
            stacks: vec![FoldedStack {
                frames: vec!["step".into()],
                samples: 5,
            }],
            ..ProfileReport::default()
        };
        let v = report.to_json();
        assert_eq!(v.get("total_samples").and_then(Value::as_f64), Some(5.0));
        let back = Value::parse(&v.to_string()).expect("report JSON parses");
        assert_eq!(back.get("hz").and_then(Value::as_f64), Some(997.0));
    }
}
