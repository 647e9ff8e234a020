//! The `reproduce analyze` report: paper-style tables derived from the
//! trace-analysis engine (`agcm_telemetry::analysis`).
//!
//! Where the original `reproduce` experiments print the paper's Tables 1–11
//! from replayed *phase totals*, this report digs one level deeper with the
//! analysis engine: per-phase speedup and parallel efficiency across a mesh
//! sweep, wait-state decomposition (who waits, who *causes* the waiting),
//! measured communication matrices checked against the closed-form
//! predictions of `agcm_costmodel::analysis`, and the critical path through
//! the rank×phase span graph. Everything is returned both as aligned text
//! tables and as one structured JSON document (`analysis.json`) with a
//! machine-checkable `checks` section.

use agcm_core::config::AgcmConfig;
use agcm_core::model::run_model;
use agcm_core::report::{fmt_pct, fmt_ratio, Table};
use agcm_costmodel::analysis::{
    convolution_ring, convolution_tree, physics_scheme_messages, transpose_fft,
    transpose_fft_messages_exact,
};
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::replay;
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::ModelState;
use agcm_dynamics::timestep::{max_stable_dt, signal_speed};
use agcm_filtering::driver::FilterVariant;
use agcm_grid::decomp::Decomp;
use agcm_grid::latlon::GridSpec;
use agcm_mps::runtime::run;
use agcm_mps::topology::CartComm;
use agcm_mps::trace::PhaseFault;
use agcm_telemetry::analysis::{analyze, TraceAnalysis};
use agcm_telemetry::commmatrix::CommMatrix;
use agcm_telemetry::json::Value;

use crate::harness::{filter_trace, model_run};

/// One named pass/fail check in a report.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable key (also the JSON field name under `"checks"`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub ok: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The machine checks of one report, and the one way they are reported:
/// `"name":"ok"|"violated"` in the JSON artifact, a readable line plus a
/// grep-stable `name:ok` line on stdout, and the binary's exit code.
#[derive(Debug, Clone, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    /// Append one check.
    pub fn push(&mut self, check: Check) {
        self.0.push(check);
    }

    /// The checks, in the order they were made.
    pub fn iter(&self) -> std::slice::Iter<'_, Check> {
        self.0.iter()
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }

    /// The `"checks"` object of a JSON artifact.
    pub fn to_json(&self) -> Value {
        let verdict = |c: &Check| Value::Str(if c.ok { "ok" } else { "violated" }.to_string());
        Value::obj(self.0.iter().map(|c| (c.name, verdict(c))).collect())
    }

    /// Print each check with its evidence, then one `name:ok` / `name:FAIL`
    /// line per check for CI to count.
    pub fn print_lines(&self) {
        for c in &self.0 {
            let verdict = if c.ok { "ok" } else { "VIOLATED" };
            println!("check {}: {verdict} ({})", c.name, c.detail);
        }
        for c in &self.0 {
            println!("{}:{}", c.name, if c.ok { "ok" } else { "FAIL" });
        }
    }
}

impl Extend<Check> for Checks {
    fn extend<I: IntoIterator<Item = Check>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

/// The full analysis report: printable tables, the JSON document, the
/// checks, and the analyzed smoke-run for the flow-event Perfetto export.
pub struct AnalyzeReport {
    /// Aligned text tables, in presentation order.
    pub tables: Vec<Table>,
    /// The `analysis.json` document.
    pub doc: Value,
    /// Machine-checkable invariants.
    pub checks: Checks,
    /// The analyzed 2×3 smoke run (source of `trace_analyzed.json`).
    pub smoke: TraceAnalysis,
}

/// The reduced grid every analysis experiment runs on: large enough to
/// exercise both filter classes and all phases, small enough that the whole
/// report (a dozen model runs) completes in seconds.
fn analysis_grid() -> GridSpec {
    GridSpec::new(48, 24, 3)
}

/// Ranks lying in the polar rows (mesh row 0 or `rows − 1`) of a
/// `rows × cols` mesh, with the row-major rank convention
/// `rank = row·cols + col`.
pub fn polar_ranks(rows: usize, cols: usize) -> Vec<usize> {
    (0..rows * cols)
        .filter(|r| r / cols == 0 || r / cols == rows - 1)
        .collect()
}

/// Run the whole analysis and assemble the report.
///
/// `Err` carries phase faults from a malformed trace — the caller (the
/// `reproduce analyze` subcommand) exits non-zero on them.
pub fn run_analysis(machine: &MachineProfile) -> Result<AnalyzeReport, Vec<PhaseFault>> {
    let grid = analysis_grid();
    let mut tables = Vec::new();
    let mut checks = Checks::default();

    let (scaling_table, scaling_json) = scaling_section(grid, machine)?;
    tables.push(scaling_table);

    let (wait_tables, wait_json, wait_checks) = wait_section(grid, machine)?;
    tables.extend(wait_tables);
    checks.extend(wait_checks);

    let (filter_table, filter_json, filter_checks) = filter_comm_section(grid, machine);
    tables.push(filter_table);
    checks.extend(filter_checks);

    let (crit_tables, crit_json, crit_checks, smoke, balance) = critical_section(grid, machine)?;
    tables.extend(crit_tables);
    checks.extend(crit_checks);

    let (phys_table, phys_json) = physics_section(&balance);
    tables.push(phys_table);

    let (kern_table, kern_json, kern_checks) = kernels_section(grid, machine);
    tables.push(kern_table);
    checks.extend(kern_checks);

    let doc = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                ("machine", Value::Str(machine.name.to_string())),
                (
                    "grid",
                    Value::Str(format!("{}x{}x{}", grid.n_lon, grid.n_lat, grid.n_lev)),
                ),
            ]),
        ),
        ("scaling", scaling_json),
        ("wait_states", wait_json),
        ("filter_comm", filter_json),
        ("critical_path", crit_json),
        ("physics_balance", phys_json),
        ("kernels", kern_json),
        ("checks", checks.to_json()),
    ]);

    Ok(AnalyzeReport {
        tables,
        doc,
        checks,
        smoke,
    })
}

/// Mesh sweep: per-phase speedup vs 1×1 and parallel efficiency, with both
/// imbalance metrics (flops and idle time) side by side — the paper's
/// Tables 4–7 shape, derived from the analysis engine instead of raw phase
/// totals.
fn scaling_section(
    grid: GridSpec,
    machine: &MachineProfile,
) -> Result<(Table, Value), Vec<PhaseFault>> {
    const MESHES: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (4, 2)];
    const PHASES: [&str; 3] = ["dynamics", "physics", "step"];
    let steps = 2;

    let mut t = Table::new(
        "Scaling sweep (LB-FFT): per-phase speedup vs 1x1, efficiency, imbalance",
        &[
            "Mesh",
            "Ranks",
            "Dyn speedup",
            "Phys speedup",
            "Step speedup",
            "Efficiency",
            "Flop imb",
            "Idle imb",
        ],
    );
    let mut rows_json = Vec::new();
    let mut base: Option<Vec<f64>> = None;
    for (rows, cols) in MESHES {
        let run = model_run(grid, (rows, cols), FilterVariant::LbFft, steps);
        let ranks = rows * cols;
        let r = replay(&run.trace, machine);
        let times: Vec<f64> = PHASES.iter().map(|p| r.phase_time(p)).collect();
        let a = analyze(&run.trace, machine)?;
        let base_times = base.get_or_insert_with(|| times.clone());
        let speedups: Vec<f64> = times
            .iter()
            .zip(base_times.iter())
            .map(|(t, b)| b / t)
            .collect();
        let efficiency = speedups[2] / ranks as f64;
        let flop_imb = run.trace.flop_imbalance();
        let idle_imb = a.waits.idle_imbalance();
        t.add_row(vec![
            format!("{rows}x{cols}"),
            ranks.to_string(),
            fmt_ratio(speedups[0]),
            fmt_ratio(speedups[1]),
            fmt_ratio(speedups[2]),
            fmt_pct(efficiency),
            fmt_pct(flop_imb),
            fmt_pct(idle_imb),
        ]);
        rows_json.push(Value::obj(vec![
            ("mesh", Value::Str(format!("{rows}x{cols}"))),
            ("ranks", Value::Num(ranks as f64)),
            (
                "phase_seconds",
                Value::obj(
                    PHASES
                        .iter()
                        .zip(times.iter())
                        .map(|(p, s)| (*p, Value::Num(*s)))
                        .collect(),
                ),
            ),
            (
                "phase_speedup",
                Value::obj(
                    PHASES
                        .iter()
                        .zip(speedups.iter())
                        .map(|(p, s)| (*p, Value::Num(*s)))
                        .collect(),
                ),
            ),
            ("parallel_efficiency", Value::Num(efficiency)),
            ("flop_imbalance", Value::Num(flop_imb)),
            ("idle_imbalance", Value::Num(idle_imb)),
            ("makespan", Value::Num(a.waits.makespan)),
        ]));
    }
    Ok((t, Value::Arr(rows_json)))
}

/// Wait-state comparison on the 4-row mesh: plain FFT (no load balancing —
/// polar rows do all filter work) against LB-FFT. The acceptance check:
/// the wait time *caused by* polar-row ranks acting as late senders must be
/// strictly lower under LB-FFT.
fn wait_section(
    grid: GridSpec,
    machine: &MachineProfile,
) -> Result<(Vec<Table>, Value, Vec<Check>), Vec<PhaseFault>> {
    let (rows, cols) = (4, 2);
    let polar = polar_ranks(rows, cols);
    let steps = 2;

    let mut variants_json = Vec::new();
    let mut tables = Vec::new();
    let mut polar_caused = Vec::new();
    for variant in [FilterVariant::FftNoLb, FilterVariant::LbFft] {
        let run = model_run(grid, (rows, cols), variant, steps);
        let w = analyze(&run.trace, machine)?.waits;
        let caused = w.caused_by(&polar);
        polar_caused.push(caused);

        let mut t = Table::new(
            format!(
                "Wait states, {rows}x{cols} mesh, {} (virtual {} seconds)",
                variant.label(),
                machine.name
            ),
            &["Rank", "Busy", "Wait", "Caused", "Finish"],
        );
        for (r, rw) in w.ranks.iter().enumerate() {
            t.add_row(vec![
                format!("{r}{}", if polar.contains(&r) { " (polar)" } else { "" }),
                format!("{:.6}", rw.busy),
                format!("{:.6}", rw.wait),
                format!("{:.6}", rw.caused),
                format!("{:.6}", rw.finish),
            ]);
        }
        tables.push(t);

        variants_json.push(Value::obj(vec![
            ("variant", Value::Str(variant.label().to_string())),
            (
                "ranks",
                Value::Arr(
                    w.ranks
                        .iter()
                        .map(|rw| {
                            Value::obj(vec![
                                ("busy", Value::Num(rw.busy)),
                                ("wait", Value::Num(rw.wait)),
                                ("caused", Value::Num(rw.caused)),
                                ("finish", Value::Num(rw.finish)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "phase_wait",
                Value::obj(
                    w.phase_wait
                        .iter()
                        .map(|(n, v)| (*n, Value::Num(v.iter().sum())))
                        .collect(),
                ),
            ),
            ("total_wait", Value::Num(w.total_wait())),
            ("polar_caused_wait", Value::Num(caused)),
            ("idle_imbalance", Value::Num(w.idle_imbalance())),
            ("makespan", Value::Num(w.makespan)),
        ]));
    }

    let check = Check {
        name: "lb_fft_polar_wait_lower",
        ok: polar_caused[1] < polar_caused[0],
        detail: format!(
            "polar-caused wait: fft-nolb {:.6} s vs lb-fft {:.6} s",
            polar_caused[0], polar_caused[1]
        ),
    };
    let json = Value::obj(vec![
        ("mesh", Value::Str(format!("{rows}x{cols}"))),
        (
            "polar_ranks",
            Value::Arr(polar.iter().map(|&r| Value::Num(r as f64)).collect()),
        ),
        ("variants", Value::Arr(variants_json)),
    ]);
    Ok((tables, json, vec![check]))
}

/// Measured filter communication matrices on a 1×6 mesh against the
/// closed-form predictions. The transpose-FFT count must match
/// [`transpose_fft_messages_exact`] *exactly* (two redistribute passes —
/// one per filter class — each moving one message per ordered rank pair).
fn filter_comm_section(grid: GridSpec, machine: &MachineProfile) -> (Table, Value, Vec<Check>) {
    let p = 6;
    let n = grid.n_lon;
    let exact = transpose_fft_messages_exact(p, 2);

    let mut t = Table::new(
        format!("Filter communication, 1x{p} mesh: measured vs closed form"),
        &[
            "Variant",
            "Msgs measured",
            "Msgs predicted",
            "Bytes",
            "Modeled time",
        ],
    );
    let mut rows_json = Vec::new();
    let mut checks = Vec::new();
    let mut conv_msgs = Vec::new();
    for variant in FilterVariant::ALL {
        let (trace, _dt) = filter_trace(grid, (1, p), variant);
        // Everything inside the filter: the redistribute phases for the FFT
        // variants, the "filter" phase for the convolution ones. Top-level
        // ("") sends are model-state setup, not filtering.
        let filter_comm: Vec<(&str, CommMatrix)> = CommMatrix::by_innermost_phase(&trace)
            .into_iter()
            .filter(|(name, _)| !name.is_empty())
            .collect();
        let msgs: u64 = filter_comm.iter().map(|(_, m)| m.total_messages()).sum();
        let bytes: u64 = filter_comm.iter().map(|(_, m)| m.total_bytes()).sum();
        let modeled: f64 = filter_comm
            .iter()
            .map(|(_, m)| m.modeled_time(machine))
            .sum();
        let (predicted, exact_form) = match variant {
            FilterVariant::ConvolutionRing => (convolution_ring(n, p).messages, false),
            FilterVariant::ConvolutionTree => (convolution_tree(n, p).messages, false),
            FilterVariant::FftNoLb | FilterVariant::LbFft => (exact, true),
        };
        if exact_form {
            checks.push(Check {
                name: match variant {
                    FilterVariant::FftNoLb => "transpose_messages_exact_fft",
                    _ => "transpose_messages_exact_lb_fft",
                },
                ok: msgs as f64 == exact,
                detail: format!(
                    "{}: measured {msgs} vs 2*passes*p*(p-1) = {exact}",
                    variant.label()
                ),
            });
        } else {
            conv_msgs.push(msgs);
        }
        t.add_row(vec![
            variant.label().to_string(),
            msgs.to_string(),
            if exact_form {
                format!("{exact} (exact)")
            } else {
                format!("{predicted:.1} (asymptotic)")
            },
            bytes.to_string(),
            format!("{modeled:.6}"),
        ]);
        rows_json.push(Value::obj(vec![
            ("variant", Value::Str(variant.label().to_string())),
            ("messages", Value::Num(msgs as f64)),
            ("predicted_messages", Value::Num(predicted)),
            ("predicted_is_exact", Value::Bool(exact_form)),
            ("bytes", Value::Num(bytes as f64)),
            ("modeled_seconds", Value::Num(modeled)),
            ("asymptotic_p2", Value::Num(transpose_fft(n, p).messages)),
        ]));
    }
    // The paper's §3.1 ordering: ring costs more messages than tree.
    checks.push(Check {
        name: "ring_messages_exceed_tree",
        ok: conv_msgs[0] > conv_msgs[1],
        detail: format!("ring {} vs tree {}", conv_msgs[0], conv_msgs[1]),
    });
    (t, Value::Arr(rows_json), checks)
}

/// Critical path of the 2×3 smoke run (the CI trace configuration):
/// phase and rank attribution of the makespan, plus the structural
/// invariant `|path length − makespan| < 1e-9`.
#[allow(clippy::type_complexity)]
fn critical_section(
    grid: GridSpec,
    machine: &MachineProfile,
) -> Result<(Vec<Table>, Value, Vec<Check>, TraceAnalysis, CommMatrix), Vec<PhaseFault>> {
    let cfg = AgcmConfig::for_grid(grid, 2, 3, FilterVariant::LbFft)
        .with_steps(3)
        .with_physics_balancing();
    let run = run_model(cfg);
    let a = analyze(&run.trace, machine)?;

    let makespan = a.schedule.makespan();
    let gap = (a.critical.length() - makespan).abs();
    let check = Check {
        name: "critical_path_invariant",
        ok: gap < 1e-9,
        detail: format!(
            "path length {:.9} vs makespan {makespan:.9} (gap {gap:.2e})",
            a.critical.length()
        ),
    };

    let mut by_phase = Table::new(
        "Critical path, 2x3 mesh LB-FFT: makespan attribution by phase",
        &["Phase", "Seconds", "Share"],
    );
    for (name, secs) in a.critical.by_phase() {
        by_phase.add_row(vec![
            if name.is_empty() { "(none)" } else { name }.to_string(),
            format!("{secs:.6}"),
            fmt_pct(secs / makespan),
        ]);
    }
    let mut by_rank = Table::new(
        "Critical path: makespan attribution by rank",
        &["Rank", "Seconds", "Share"],
    );
    for (r, secs) in a.critical.by_rank(run.trace.size()).iter().enumerate() {
        by_rank.add_row(vec![
            r.to_string(),
            format!("{secs:.6}"),
            fmt_pct(secs / makespan),
        ]);
    }

    let json = Value::obj(vec![
        ("mesh", Value::Str("2x3".to_string())),
        ("makespan", Value::Num(makespan)),
        ("length", Value::Num(a.critical.length())),
        ("segments", Value::Num(a.critical.segments.len() as f64)),
        (
            "by_phase",
            Value::obj(
                a.critical
                    .by_phase()
                    .into_iter()
                    .map(|(n, s)| (if n.is_empty() { "(none)" } else { n }, Value::Num(s)))
                    .collect(),
            ),
        ),
        (
            "by_rank",
            Value::Arr(
                a.critical
                    .by_rank(run.trace.size())
                    .into_iter()
                    .map(Value::Num)
                    .collect(),
            ),
        ),
    ]);
    let balance = CommMatrix::for_phase(&run.trace, "balance");
    Ok((vec![by_phase, by_rank], json, vec![check], a, balance))
}

/// Physics load-balancing communication: the closed-form per-pass message
/// counts of the paper's three schemes next to the *measured* balance-phase
/// traffic of the smoke run (scheme 3, two rounds).
fn physics_section(balance: &CommMatrix) -> (Table, Value) {
    let p = balance.ranks();

    let mut t = Table::new(
        format!("Physics balancing messages, {p} ranks: closed forms vs measured"),
        &["Scheme", "Messages/pass (closed form)"],
    );
    for scheme in [1u8, 2, 3] {
        t.add_row(vec![
            format!("Scheme {scheme}"),
            format!("{:.0}", physics_scheme_messages(scheme, p)),
        ]);
    }
    t.add_row(vec![
        "Measured (scheme 3, balance phase)".to_string(),
        balance.total_messages().to_string(),
    ]);

    let json = Value::obj(vec![
        ("ranks", Value::Num(p as f64)),
        (
            "closed_form_per_pass",
            Value::obj(
                [1u8, 2, 3]
                    .iter()
                    .map(|&s| {
                        (
                            match s {
                                1 => "scheme1",
                                2 => "scheme2",
                                _ => "scheme3",
                            },
                            Value::Num(physics_scheme_messages(s, p)),
                        )
                    })
                    .collect(),
            ),
        ),
        ("measured_balance", balance.to_json()),
    ]);
    (t, json)
}

/// The §4 kernel path, deterministically (no wall-clock): the kernel
/// dynamics step must stay bit-identical to the `from_fn` reference, and
/// the `dyn.tendencies`/`dyn.advection` sub-phases must show up in the
/// replayed trace with non-zero modeled time inside "fd".
fn kernels_section(grid: GridSpec, machine: &MachineProfile) -> (Table, Value, Vec<Check>) {
    let steps = 3;
    let decomp = Decomp::new(grid, 1, 1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    let identical = run(1, move |c| {
        let cart = CartComm::new(c, 1, 1, (false, true));
        let dyn_core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, None));
        let mut s_ref = ModelState::initial(grid, decomp.subdomain_of_rank(0));
        let mut s_ker = s_ref.clone();
        for _ in 0..steps {
            dyn_core.step_reference(&cart, &mut s_ref);
            dyn_core.step(&cart, &mut s_ker);
        }
        s_ref.fields.iter().zip(s_ker.fields.iter()).all(|(a, b)| {
            a.interior_rows()
                .flatten()
                .zip(b.interior_rows().flatten())
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
    })[0];

    // Sub-phase accounting from a traced model run (replay accumulates
    // phases inclusively, so fd already contains the dyn.* time).
    let trace_steps = 2;
    let trace_run = model_run(grid, (1, 1), FilterVariant::LbFft, trace_steps);
    let r = replay(&trace_run.trace, machine);
    let (t_tend, t_adv, t_fd) = (
        r.phase_time("dyn.tendencies"),
        r.phase_time("dyn.advection"),
        r.phase_time("fd"),
    );
    // h, u, v and the two tracers each advance once per point per step.
    let points = 5 * grid.n_lon * grid.n_lat * grid.n_lev * trace_steps;

    let mut t = Table::new(
        "Dynamics kernel path (paper §4): identity and phase accounting",
        &["Quantity", "Value"],
    );
    t.add_row(vec![
        format!("bit-identical to reference ({steps} steps)"),
        identical.to_string(),
    ]);
    t.add_row(vec![
        "dyn.tendencies modeled s".to_string(),
        format!("{t_tend:.6}"),
    ]);
    t.add_row(vec![
        "dyn.advection modeled s".to_string(),
        format!("{t_adv:.6}"),
    ]);
    t.add_row(vec![
        "fd modeled s (inclusive)".to_string(),
        format!("{t_fd:.6}"),
    ]);
    t.add_row(vec![
        format!("dyn.points_updated ({trace_steps} traced steps)"),
        points.to_string(),
    ]);

    let checks = vec![
        Check {
            name: "kernel_step_bit_identical",
            ok: identical,
            detail: format!("kernel vs from_fn reference, {steps} steps on the analysis grid"),
        },
        Check {
            name: "dyn_subphases_traced",
            ok: t_tend > 0.0 && t_adv > 0.0 && t_tend + t_adv <= t_fd,
            detail: format!(
                "dyn.tendencies {t_tend:.6} s + dyn.advection {t_adv:.6} s within fd {t_fd:.6} s"
            ),
        },
    ];
    let json = Value::obj(vec![
        ("steps", Value::Num(steps as f64)),
        ("bit_identical", Value::Bool(identical)),
        ("dyn_tendencies_seconds", Value::Num(t_tend)),
        ("dyn_advection_seconds", Value::Num(t_adv)),
        ("fd_seconds", Value::Num(t_fd)),
        ("points_updated", Value::Num(points as f64)),
    ]);
    (t, json, checks)
}
