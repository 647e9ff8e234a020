//! Regenerate every table and figure of Lou & Farrara (SC'96).
//!
//! ```text
//! reproduce [all|figure1|tables1to3|tables4to7|tables8to11|singlenode|summary
//!           |bench-filter|bench-kernels [--smoke]|trace|analyze|ensemble [--smoke]
//!           |serve [--smoke]|profile [--smoke]|store [--smoke]|bench-check]
//! ```
//!
//! `all` (the default) runs the paper's tables and figures plus the two
//! kernel benchmarks.
//!
//! `bench-filter` is the filter fast-path regression benchmark: it times
//! the batched real-input filtering kernel against the original per-line
//! complex path and counts redistribute messages per filtered step, then
//! writes the numbers to `BENCH_filter.json` for machine-readable
//! before/after tracking.
//!
//! `bench-kernels` is the §4 kernel benchmark: the 7-point stencil (both
//! layouts), the real upwind advection operator and the full tendency
//! step, reference `from_fn` path vs the `agcm-kernels` flat kernels; and
//! the column-physics pass, batch kernel vs the per-column `run_column`
//! oracle, with its divide bound beside it. Written to
//! `BENCH_kernels.json`.
//!
//! `trace` runs a short instrumented model and emits `trace.json` (Chrome
//! trace-event format — open at <https://ui.perfetto.dev>) plus
//! `metrics.jsonl` (one structured record per step and per run), then
//! validates both artifacts and exits non-zero if they are malformed.
//!
//! `bench-check` re-times the filter, dynamics and physics kernels and
//! judges each speedup against the *trend* of recent runs recorded in
//! `bench_history.jsonl` (median − 3·MAD over the newest window); with
//! fewer than 5 recorded runs it falls back to the committed
//! `BENCH_filter.json` / `BENCH_kernels.json` value divided by the
//! tolerance (override: `AGCM_BENCH_TOLERANCE`). Every verdict lands in
//! `bench_check.json`, and a failure names the metric with its observed,
//! committed, and floor values. `bench-filter`, `bench-kernels`, and
//! `bench-check` itself all append their measurements to the history.
//!
//! `profile` runs a short instrumented model under the in-process
//! sampling profiler and writes `profile_folded.txt`, `flamegraph.svg`,
//! and `profile.json` with the measured-vs-modeled skew report.
//! `--smoke` keeps the run CI-sized.
//!
//! `analyze`, `ensemble`, `serve`, `profile` and `store` each end in
//! machine checks reported one way (`agcm_bench::analyze::Checks`):
//! `"name":"ok"|"violated"` under `"checks"` in the JSON artifact, a
//! grep-able `name:ok` line per check on stdout, and a non-zero exit when
//! any check fails.
//!
//! Each table prints the paper-reported values next to the model-measured
//! ones. Absolute agreement is not expected (the substrate is a simulator,
//! see DESIGN.md); the shapes — who wins, by what factor, how things scale
//! — are the result. Run in release mode: the 240-rank experiments do the
//! real filtering work.

use agcm_bench::analyze::Checks;
use agcm_bench::harness::{
    calibrate, day_times, filter_seconds_per_day, filter_trace, filter_trace_organized, model_run,
    physics_lb_simulation, time_median,
};
use agcm_bench::paper;
use agcm_core::report::{fmt_pct, fmt_ratio, fmt_secs, Table};
use agcm_costmodel::machine::MachineProfile;
use agcm_dynamics::advection::{advect_naive, advect_restructured, AdvShape};
use agcm_fft::batch::{filter_lines_flat, filter_pair};
use agcm_fft::convolution::apply_spectral_multiplier;
use agcm_fft::plan::FftPlan;
use agcm_filtering::driver::{FilterOrganization, FilterVariant};
use agcm_grid::field::BlockField;
use agcm_grid::latlon::GridSpec;
use agcm_singlenode::blockarray::{
    laplace_block, laplace_block_kernel, laplace_separate, laplace_separate_kernel,
    paper_test_fields,
};
use agcm_telemetry::json::Value;
use std::path::Path;

/// Counting allocator for the `profile` allocation-freedom check; it
/// forwards to the system allocator and costs one thread-local read per
/// allocation when not armed.
#[global_allocator]
static ALLOCATOR: agcm_bench::alloccount::CountingAlloc = agcm_bench::alloccount::CountingAlloc;

/// Where bench runs accumulate for the trend gate.
const HISTORY_PATH: &str = "bench_history.jsonl";

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "figure1" => figure1(),
        "tables1to3" => tables_1_to_3(),
        "tables4to7" => tables_4_to_7(),
        "tables8to11" => tables_8_to_11(),
        "singlenode" => singlenode(),
        "summary" => summary(),
        "bench-filter" => bench_filter(),
        "bench-kernels" => bench_kernels(std::env::args().nth(2).as_deref() == Some("--smoke")),
        "trace" => trace(),
        "analyze" => analyze(),
        "ensemble" => ensemble(std::env::args().nth(2).as_deref() == Some("--smoke")),
        "serve" => serve(std::env::args().nth(2).as_deref() == Some("--smoke")),
        "profile" => profile(std::env::args().nth(2).as_deref() == Some("--smoke")),
        "store" => store(std::env::args().nth(2).as_deref() == Some("--smoke")),
        "bench-check" => bench_check(),
        "all" => {
            figure1();
            tables_1_to_3();
            tables_4_to_7();
            tables_8_to_11();
            singlenode();
            summary();
            bench_filter();
            bench_kernels(false);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("usage: reproduce [all|figure1|tables1to3|tables4to7|tables8to11|singlenode|summary|bench-filter|bench-kernels [--smoke]|trace|analyze|ensemble [--smoke]|serve [--smoke]|profile [--smoke]|store [--smoke]|bench-check]");
            std::process::exit(2);
        }
    }
}

/// Figure 1: component shares of the main body, original (convolution)
/// filtering, on 16 and 240 nodes.
fn figure1() {
    println!("\n=== Figure 1: execution-time shares (original convolution filter) ===\n");
    let grid = GridSpec::paper_9_layer();
    let machine = MachineProfile::paragon();
    let mut t = Table::new(
        "Figure 1 shares: paper vs measured",
        &[
            "Nodes",
            "Dyn/main paper",
            "Dyn/main ours",
            "Filt/Dyn paper",
            "Filt/Dyn ours",
        ],
    );
    for (mesh, paper_dyn, paper_filt) in [
        (
            (4usize, 4usize),
            paper::figure1::DYNAMICS_SHARE_16,
            paper::figure1::FILTER_SHARE_16,
        ),
        (
            (8, 30),
            paper::figure1::DYNAMICS_SHARE_240,
            paper::figure1::FILTER_SHARE_240,
        ),
    ] {
        let run = model_run(grid, mesh, FilterVariant::ConvolutionRing, 1);
        let times = day_times(&run, &machine);
        t.add_row(vec![
            format!("{}x{}", mesh.0, mesh.1),
            fmt_pct(paper_dyn),
            fmt_pct(times.dynamics / times.total),
            fmt_pct(paper_filt),
            fmt_pct(times.filter / times.dynamics),
        ]);
    }
    println!("{t}");
}

/// Tables 1–3: physics load-balancing simulation (scheme 3, T3D seconds).
fn tables_1_to_3() {
    println!("\n=== Tables 1-3: physics load-balancing simulation (scheme 3) ===\n");
    let grid = GridSpec::paper_9_layer();
    // Calibrate the T3D against Table 6's single-node anchor so the load
    // *seconds* are on the paper's scale.
    let anchor = model_run(grid, (1, 1), FilterVariant::ConvolutionRing, 1);
    let machine = calibrate(
        &MachineProfile::t3d(),
        &anchor,
        paper::TABLE6_T3D_OLD[0].dynamics,
    );
    let papers = [&paper::TABLE1_64, &paper::TABLE2_126, &paper::TABLE3_252];
    for (idx, (mesh, paper_rows)) in paper::LB_MESHES.iter().zip(papers).enumerate() {
        let stages = physics_lb_simulation(grid, *mesh, 6.0 * 3600.0, &machine);
        let mut t = Table::new(
            format!(
                "Table {}: {}x{} = {} nodes (paper | measured)",
                idx + 1,
                mesh.0,
                mesh.1,
                mesh.0 * mesh.1
            ),
            &[
                "Code status",
                "Max(p)",
                "Min(p)",
                "Imb%(p)",
                "Max",
                "Min",
                "Imb%",
            ],
        );
        for (stage, prow) in stages.iter().zip(paper_rows.iter()) {
            t.add_row(vec![
                prow.stage.to_string(),
                fmt_secs(prow.max),
                fmt_secs(prow.min),
                format!("{:.0}%", prow.imbalance_pct),
                fmt_secs(stage.max),
                fmt_secs(stage.min),
                format!("{:.0}%", stage.imbalance_pct),
            ]);
        }
        println!("{t}");
    }
}

/// Tables 4–7: whole-model timings, old vs new filter, Paragon and T3D.
fn tables_4_to_7() {
    println!("\n=== Tables 4-7: AGCM timings (seconds/simulated day) ===\n");
    let grid = GridSpec::paper_9_layer();
    let meshes = [(1usize, 1usize), (4, 4), (8, 8), (8, 30)];

    // One run per (mesh, variant); traces are machine-independent.
    let runs_old: Vec<_> = meshes
        .iter()
        .map(|&m| model_run(grid, m, FilterVariant::ConvolutionRing, 1))
        .collect();
    let runs_new: Vec<_> = meshes
        .iter()
        .map(|&m| model_run(grid, m, FilterVariant::LbFft, 1))
        .collect();

    // Calibrate each machine once, on the old-filter 1×1 Dynamics anchor.
    let paragon = calibrate(
        &MachineProfile::paragon(),
        &runs_old[0],
        paper::TABLE4_PARAGON_OLD[0].dynamics,
    );
    let t3d = calibrate(
        &MachineProfile::t3d(),
        &runs_old[0],
        paper::TABLE6_T3D_OLD[0].dynamics,
    );

    let specs: [(
        &str,
        &MachineProfile,
        &[paper::AgcmTimingRow; 4],
        &Vec<agcm_core::model::ModelRun>,
    ); 4] = [
        (
            "Table 4: old filtering, Intel Paragon",
            &paragon,
            &paper::TABLE4_PARAGON_OLD,
            &runs_old,
        ),
        (
            "Table 5: new filtering, Intel Paragon",
            &paragon,
            &paper::TABLE5_PARAGON_NEW,
            &runs_new,
        ),
        (
            "Table 6: old filtering, Cray T3D",
            &t3d,
            &paper::TABLE6_T3D_OLD,
            &runs_old,
        ),
        (
            "Table 7: new filtering, Cray T3D",
            &t3d,
            &paper::TABLE7_T3D_NEW,
            &runs_new,
        ),
    ];
    for (title, machine, paper_rows, runs) in specs {
        let mut t = Table::new(
            format!("{title} (paper | measured)"),
            &[
                "Node mesh",
                "Dyn(p)",
                "Spd(p)",
                "Tot(p)",
                "Dyn",
                "Spd",
                "Tot",
            ],
        );
        let base = day_times(&runs[0], machine).dynamics;
        for (run, prow) in runs.iter().zip(paper_rows.iter()) {
            let times = day_times(run, machine);
            t.add_row(vec![
                format!("{}x{}", prow.mesh.0, prow.mesh.1),
                fmt_secs(prow.dynamics),
                fmt_ratio(prow.speedup),
                fmt_secs(prow.total),
                fmt_secs(times.dynamics),
                fmt_ratio(base / times.dynamics),
                fmt_secs(times.total),
            ]);
        }
        println!("{t}");
    }
}

/// Tables 8–11: filtering times per variant, 9- and 15-layer models.
fn tables_8_to_11() {
    println!("\n=== Tables 8-11: total filtering times (seconds/simulated day) ===\n");
    let grid9 = GridSpec::paper_9_layer();
    let grid15 = GridSpec::paper_15_layer();
    // Calibrate on the same anchor as Tables 4-7.
    let anchor = model_run(grid9, (1, 1), FilterVariant::ConvolutionRing, 1);
    let paragon = calibrate(
        &MachineProfile::paragon(),
        &anchor,
        paper::TABLE4_PARAGON_OLD[0].dynamics,
    );
    let t3d = calibrate(
        &MachineProfile::t3d(),
        &anchor,
        paper::TABLE6_T3D_OLD[0].dynamics,
    );

    let specs: [(
        &str,
        GridSpec,
        &MachineProfile,
        &[paper::FilterTimingRow; 5],
    ); 4] = [
        (
            "Table 8: Paragon, 9-layer",
            grid9,
            &paragon,
            &paper::TABLE8_PARAGON_9,
        ),
        ("Table 9: T3D, 9-layer", grid9, &t3d, &paper::TABLE9_T3D_9),
        (
            "Table 10: Paragon, 15-layer",
            grid15,
            &paragon,
            &paper::TABLE10_PARAGON_15,
        ),
        (
            "Table 11: T3D, 15-layer",
            grid15,
            &t3d,
            &paper::TABLE11_T3D_15,
        ),
    ];
    for (title, grid, machine, paper_rows) in specs {
        let mut t = Table::new(
            format!("{title} (paper | measured)"),
            &[
                "Node mesh",
                "Conv(p)",
                "FFT(p)",
                "LB(p)",
                "Conv",
                "FFT",
                "LB-FFT",
            ],
        );
        for prow in paper_rows.iter() {
            let mesh = prow.mesh;
            let mut measured = [0.0f64; 3];
            for (slot, variant) in [
                FilterVariant::ConvolutionRing,
                FilterVariant::FftNoLb,
                FilterVariant::LbFft,
            ]
            .into_iter()
            .enumerate()
            {
                let (trace, dt) = filter_trace(grid, mesh, variant);
                measured[slot] = filter_seconds_per_day(&trace, dt, machine);
            }
            t.add_row(vec![
                format!("{}x{}", mesh.0, mesh.1),
                fmt_secs(prow.convolution),
                fmt_secs(prow.fft),
                fmt_secs(prow.lb_fft),
                fmt_secs(measured[0]),
                fmt_secs(measured[1]),
                fmt_secs(measured[2]),
            ]);
        }
        println!("{t}");
    }
}

/// §3.4 single-node results: block-array stencil, advection restructuring.
fn singlenode() {
    println!("\n=== Single-node optimization (paper §3.4), wall-clock on this machine ===\n");

    // Block-array vs separate arrays, 7-point Laplace on 12 fields of 32³,
    // each layout in its get/set transliteration and its agcm-kernels flat
    // form (§4: same arithmetic, addressing compiled away).
    let fields = paper_test_fields(12);
    let block = BlockField::from_fields(&fields);
    let t_sep = time_median(7, || {
        std::hint::black_box(laplace_separate(std::hint::black_box(&fields)));
    });
    let t_blk = time_median(7, || {
        std::hint::black_box(laplace_block(std::hint::black_box(&block)));
    });
    let t_sep_k = time_median(7, || {
        std::hint::black_box(laplace_separate_kernel(std::hint::black_box(&fields)));
    });
    let t_blk_k = time_median(7, || {
        std::hint::black_box(laplace_block_kernel(std::hint::black_box(&block)));
    });
    let mut t = Table::new(
        "Laplace stencil, 12 fields of 32x32x32",
        &["Layout", "seconds", "speed-up"],
    );
    t.add_row(vec![
        "separate arrays".into(),
        format!("{t_sep:.4}"),
        "1.00".into(),
    ]);
    t.add_row(vec![
        "block array".into(),
        format!("{t_blk:.4}"),
        fmt_ratio(t_sep / t_blk),
    ]);
    t.add_row(vec![
        "separate, flat kernel".into(),
        format!("{t_sep_k:.4}"),
        fmt_ratio(t_sep / t_sep_k),
    ]);
    t.add_row(vec![
        "block, flat kernel".into(),
        format!("{t_blk_k:.4}"),
        fmt_ratio(t_sep / t_blk_k),
    ]);
    println!("{t}");
    println!(
        "paper: block array {}x faster on Paragon, {}x on T3D (1996 caches);\nmodern cache hierarchies shrink the gap — direction is the reproducible part.\n",
        paper::claims::STENCIL_SPEEDUP_PARAGON,
        paper::claims::STENCIL_SPEEDUP_T3D
    );

    // Advection restructuring.
    let grid = GridSpec::paper_9_layer();
    let shape = AdvShape {
        ni: 144,
        nj: 90,
        nk: 9,
    };
    let n = shape.ni * shape.nj * shape.nk;
    let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let u: Vec<f64> = (0..n).map(|i| 10.0 + (i as f64 * 0.02).cos()).collect();
    let v: Vec<f64> = (0..n).map(|i| -(i as f64 * 0.03).sin()).collect();
    let t_naive = time_median(7, || {
        std::hint::black_box(advect_naive(&q, &u, &v, shape, &grid, 0));
    });
    let t_opt = time_median(7, || {
        std::hint::black_box(advect_restructured(&q, &u, &v, shape, &grid, 0));
    });
    let mut t = Table::new(
        "Advection routine, 144x90x9",
        &["Version", "seconds", "reduction"],
    );
    t.add_row(vec![
        "original loops".into(),
        format!("{t_naive:.4}"),
        "-".into(),
    ]);
    t.add_row(vec![
        "restructured".into(),
        format!("{t_opt:.4}"),
        fmt_pct(1.0 - t_opt / t_naive),
    ]);
    println!("{t}");
    println!(
        "paper: restructuring reduced advection time by ~{} on one T3D node.\n",
        fmt_pct(paper::claims::ADVECTION_REDUCTION)
    );
}

/// Filter fast-path regression benchmark: the batched, allocation-free
/// real-input kernel vs the original per-line complex path on the paper's
/// 144-point longitude circles, plus redistribute messages per filtered
/// step under the aggregated vs per-variable organizations. Results go to
/// stdout and to `BENCH_filter.json` (committed, for before/after
/// tracking).
fn bench_filter() {
    println!("\n=== Filter fast path: batched real vs per-line complex (n=144) ===\n");
    let k = measure_filter_kernel();
    let (n, batch) = (k.n, k.batch);
    let ns_per_line = |t: f64| t * 1e9 / batch as f64;
    let lines_per_sec = |t: f64| batch as f64 / t;
    let speedup = k.kernel_speedup();

    let mut t = Table::new(
        format!("Kernel, {batch} lines of n={n}"),
        &["Path", "ns/line", "lines/s", "speed-up"],
    );
    t.add_row(vec![
        "per-line complex (original)".into(),
        format!("{:.0}", ns_per_line(k.t_complex)),
        format!("{:.0}", lines_per_sec(k.t_complex)),
        "1.00".into(),
    ]);
    t.add_row(vec![
        "scalar pairs (filter_pair, the oracle)".into(),
        format!("{:.0}", ns_per_line(k.t_scalar_pairs)),
        format!("{:.0}", lines_per_sec(k.t_scalar_pairs)),
        fmt_ratio(k.t_complex / k.t_scalar_pairs),
    ]);
    t.add_row(vec![
        "batched real (production, lane-batched)".into(),
        format!("{:.0}", ns_per_line(k.t_batched)),
        format!("{:.0}", lines_per_sec(k.t_batched)),
        fmt_ratio(speedup),
    ]);
    println!("{t}");

    // The bound, ESCAPE-dwarf style: the flops the tracer charges a line,
    // at the add+mul rate this core sustains at the executor's vector
    // width, against what the executor achieves.
    let target = agcm_fft::lanes::dispatch_target();
    let lanes = agcm_fft::lanes::W;
    let flops_per_line = agcm_fft::ops::pair_filter_flops(n) / 2.0;
    let peak = agcm_bench::peak::add_mul_rate(7);
    let bound_ns = flops_per_line / peak * 1e9;
    let fraction = bound_ns / ns_per_line(k.t_batched);
    println!(
        "Lane-batched executor: W={lanes} pair-packed transforms per batch, dispatch target {target}; \
         {:.0} ns/line, {:.2}x the scalar pair path.\n\
         Bound: {flops_per_line:.0} flops/line at the measured add+mul rate {:.1} GFlop/s = {bound_ns:.0} ns/line; \
         fraction achieved {:.2}\n",
        ns_per_line(k.t_batched),
        k.lane_speedup(),
        peak / 1e9,
        fraction,
    );

    // Messages per filtered step: the aggregated organization moves all
    // variables of a filter class in one redistribute pass. Single-row
    // mesh: every variable's source rows coincide, so chunks of different
    // variables travelling between the same rank pair actually merge
    // (on multi-row meshes the balanced owner blocks can align with rank
    // boundaries and the counts tie).
    let grid = GridSpec::paper_9_layer();
    let mesh = (1usize, 6usize);
    let variant = FilterVariant::LbFft;
    let (agg, _) = filter_trace_organized(grid, mesh, variant, FilterOrganization::Aggregated);
    let (per, _) = filter_trace_organized(grid, mesh, variant, FilterOrganization::PerVariable);
    println!(
        "Messages per filtered step ({variant:?}, {}x{} mesh): aggregated {} vs per-variable {}\n",
        mesh.0,
        mesh.1,
        agg.total_messages(),
        per.total_messages()
    );

    let json = format!(
        "{{\n  \"benchmark\": \"filter_fast_path\",\n  \"n_lon\": {n},\n  \"batch_lines\": {batch},\n  \"per_line_complex\": {{\n    \"ns_per_line\": {:.1},\n    \"lines_per_sec\": {:.1}\n  }},\n  \"batched_real\": {{\n    \"ns_per_line\": {:.1},\n    \"lines_per_sec\": {:.1}\n  }},\n  \"kernel_speedup\": {:.2},\n  \"lane_batched\": {{\n    \"ns_per_line\": {:.1},\n    \"speedup\": {:.2},\n    \"lanes\": {lanes},\n    \"dispatch_target\": \"{target}\",\n    \"flops_per_line\": {flops_per_line:.0},\n    \"add_mul_gflops\": {:.1},\n    \"bound_ns_per_line\": {bound_ns:.1},\n    \"bound_fraction\": {fraction:.2}\n  }},\n  \"messages_per_filtered_step\": {{\n    \"variant\": \"{variant:?}\",\n    \"mesh\": \"{}x{}\",\n    \"aggregated\": {},\n    \"per_variable\": {}\n  }}\n}}\n",
        ns_per_line(k.t_complex),
        lines_per_sec(k.t_complex),
        ns_per_line(k.t_batched),
        lines_per_sec(k.t_batched),
        speedup,
        ns_per_line(k.t_batched),
        k.lane_speedup(),
        peak / 1e9,
        mesh.0,
        mesh.1,
        agg.total_messages(),
        per.total_messages(),
    );
    std::fs::write("BENCH_filter.json", &json)
        .unwrap_or_else(|e| eprintln!("could not write BENCH_filter.json: {e}"));
    println!("wrote BENCH_filter.json");
    record_history("filter", k.history());
}

/// Append one suite's measurements to `bench_history.jsonl` for the
/// `bench-check` trend gate. Best-effort: a read-only checkout must not
/// fail the bench itself.
fn record_history(suite: &str, metrics: Vec<(String, f64)>) {
    use agcm_bench::history::{append, HistoryEntry};
    let entry = HistoryEntry::now(suite, metrics);
    match append(Path::new(HISTORY_PATH), &entry) {
        Ok(()) => println!("appended {suite} run to {HISTORY_PATH}"),
        Err(e) => eprintln!("could not append to {HISTORY_PATH}: {e}"),
    }
}

/// The kernel speedups `bench-kernels` and `bench-check` both append to
/// the history (and `bench-check` gates).
fn kernel_history(b: &agcm_bench::kernels::KernelBench) -> Vec<(String, f64)> {
    vec![
        ("stencil.kernel_speedup".into(), b.stencil.kernel_speedup()),
        (
            "advection.kernel_speedup".into(),
            b.advection.kernel_speedup(),
        ),
        ("tendency_step.speedup".into(), b.step.kernel_speedup()),
        ("fd_sweeps.speedup".into(), b.fd.kernel_speedup()),
        ("physics.speedup".into(), b.physics.kernel_speedup()),
    ]
}

/// `bench-kernels`: the §4 kernel benchmark — stencil (both layouts),
/// real upwind advection, the full tendency step, its fd phase alone and
/// the column-physics pass, reference vs kernel paths. Prints the tables and writes
/// `BENCH_kernels.json` (committed, gated by `bench-check`).
fn bench_kernels(smoke: bool) {
    use agcm_bench::kernels::{
        divide_seconds, physics_bytes_per_column, physics_divides_per_column, run_kernel_bench,
        FD_DIVIDES_PER_POINT,
    };

    println!("\n=== Single-node kernels: reference vs flat vs block (paper §4) ===\n");
    let b = run_kernel_bench(smoke);

    let mut t = Table::new(
        "Kernel paths, ns per output point",
        &[
            "Experiment",
            "reference",
            "kernel",
            "block",
            "kernel speed-up",
            "block/kernel",
        ],
    );
    for (name, p) in [
        ("7-pt stencil, 12 fields 32^3", &b.stencil),
        ("upwind advection, 144x90x9", &b.advection),
        ("full tendency step, 9-layer", &b.step),
        ("fd sweeps alone, 9-layer", &b.fd),
        ("column physics, 9-layer (per column)", &b.physics),
    ] {
        t.add_row(vec![
            name.into(),
            format!("{:.1}", p.ns_per_point(p.reference)),
            format!("{:.1}", p.ns_per_point(p.kernel)),
            p.block
                .map_or("-".into(), |blk| format!("{:.1}", p.ns_per_point(blk))),
            fmt_ratio(p.kernel_speedup()),
            p.block_speedup().map_or("-".into(), fmt_ratio),
        ]);
    }
    println!("{t}");
    println!(
        "paper §4: hoisted metric factors + flat traversals on the real operators;\nblock column is per tracer ({} interleaved).",
        4
    );
    let n_lev = GridSpec::paper_9_layer().n_lev;
    let (divides, bytes) = (
        physics_divides_per_column(n_lev),
        physics_bytes_per_column(n_lev),
    );
    let divide_ns = divide_seconds(if smoke { 3 } else { 9 }) * 1e9;
    let fd_target = agcm_kernels::dispatch::dispatch_target();
    let fd_bound_ns = FD_DIVIDES_PER_POINT as f64 * divide_ns;
    let fd_bound_fraction = fd_bound_ns / b.fd.ns_per_point(b.fd.kernel);
    println!(
        "fd sweeps ({fd_target}): bound by {FD_DIVIDES_PER_POINT} f64 divides per point (bit-identity forbids\nreciprocals) = {fd_bound_ns:.1} ns at this machine's divider throughput; the three sweeps reach\n{:.0}% of that bound.\n",
        100.0 * fd_bound_fraction
    );
    let bound_ns = divides as f64 * divide_ns;
    let bound_fraction = bound_ns / b.physics.ns_per_point(b.physics.kernel);
    println!(
        "column physics: bound by the longwave's {divides} f64 divides per column (bit-identity\nforbids reciprocals) = {bound_ns:.1} ns at this machine's divider throughput; the kernel\nreaches {:.0}% of that bound; {bytes} B of field per column.\n",
        100.0 * bound_fraction
    );

    let path = |p: &agcm_bench::kernels::PathTimes| {
        format!(
            "{{\n      \"reference\": {:.1},\n      \"kernel\": {:.1},\n      \"block\": {}\n    }}",
            p.ns_per_point(p.reference),
            p.ns_per_point(p.kernel),
            p.block
                .map_or("null".to_string(), |blk| format!("{:.1}", p.ns_per_point(blk))),
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"dyn_kernels\",\n  \"stencil\": {{\n    \"config\": \"12 fields 32x32x32\",\n    \"ns_per_point\": {},\n    \"kernel_speedup\": {:.2},\n    \"block_speedup\": {:.2}\n  }},\n  \"advection\": {{\n    \"config\": \"144x90x9, block m=4\",\n    \"ns_per_point\": {},\n    \"kernel_speedup\": {:.2},\n    \"block_speedup\": {:.2}\n  }},\n  \"tendency_step\": {{\n    \"config\": \"paper 9-layer, 1 rank, no filter\",\n    \"ns_per_point\": {},\n    \"speedup\": {:.2}\n  }},\n  \"fd_sweeps\": {{\n    \"config\": \"paper 9-layer, 1 rank, fd phase net of its halo exchange\",\n    \"ns_per_point\": {{\n      \"reference\": {:.1},\n      \"kernel\": {:.1}\n    }},\n    \"speedup\": {:.2},\n    \"divides_per_point\": {FD_DIVIDES_PER_POINT},\n    \"dispatch_target\": \"{fd_target}\",\n    \"divide_bound_ns_per_point\": {fd_bound_ns:.1},\n    \"bound_fraction\": {fd_bound_fraction:.2}\n  }},\n  \"physics\": {{\n    \"config\": \"paper 9-layer, 1 rank, batch kernel vs run_column oracle\",\n    \"ns_per_column\": {{\n      \"reference\": {:.1},\n      \"kernel\": {:.1}\n    }},\n    \"speedup\": {:.2},\n    \"divides_per_column\": {divides},\n    \"bytes_per_column\": {bytes},\n    \"divide_bound_ns_per_column\": {bound_ns:.1},\n    \"bound_fraction\": {bound_fraction:.2}\n  }}\n}}\n",
        path(&b.stencil),
        b.stencil.kernel_speedup(),
        b.stencil.block_speedup().unwrap_or(1.0),
        path(&b.advection),
        b.advection.kernel_speedup(),
        b.advection.block_speedup().unwrap_or(1.0),
        path(&b.step),
        b.step.kernel_speedup(),
        b.fd.ns_per_point(b.fd.reference),
        b.fd.ns_per_point(b.fd.kernel),
        b.fd.kernel_speedup(),
        b.physics.ns_per_point(b.physics.reference),
        b.physics.ns_per_point(b.physics.kernel),
        b.physics.kernel_speedup(),
    );
    std::fs::write("BENCH_kernels.json", &json)
        .unwrap_or_else(|e| eprintln!("could not write BENCH_kernels.json: {e}"));
    println!("wrote BENCH_kernels.json");
    record_history("kernels", kernel_history(&b));
}

/// One timing of the filter kernel on a 36-line latitude group, three
/// ways. Shared by `bench-filter` (which reports and records) and
/// `bench-check` (which compares against the committed record).
struct FilterKernelTimes {
    n: usize,
    batch: usize,
    /// Seconds per batch: every line widened to a complex transform.
    t_complex: f64,
    /// Seconds per batch: scalar `filter_pair` on consecutive pairs.
    t_scalar_pairs: f64,
    /// Seconds per batch: `filter_lines_flat` (lane-batched).
    t_batched: f64,
}

impl FilterKernelTimes {
    /// Production path over the original per-line complex path.
    fn kernel_speedup(&self) -> f64 {
        self.t_complex / self.t_batched
    }

    /// Lane-batched executor over the scalar pair path it reproduces.
    fn lane_speedup(&self) -> f64 {
        self.t_scalar_pairs / self.t_batched
    }

    /// The metrics `bench-filter` and `bench-check` both append to the
    /// history (and `bench-check` gates).
    fn history(&self) -> Vec<(String, f64)> {
        vec![
            ("kernel_speedup".into(), self.kernel_speedup()),
            ("lane_batched.speedup".into(), self.lane_speedup()),
        ]
    }
}

fn measure_filter_kernel() -> FilterKernelTimes {
    let n = 144usize;
    // One strongly-filtered polar latitude in the 9-layer configuration
    // moves 4 variables × 9 levels = 36 lines.
    let batch = 36usize;
    let plan = FftPlan::new(n);
    let mult: Vec<f64> = (0..n)
        .map(|k| {
            let s = k.min(n - k) as f64 / (n as f64 / 2.0);
            1.0 / (1.0 + 8.0 * s * s)
        })
        .collect();
    let base: Vec<f64> = (0..batch * n)
        .map(|j| (j as f64 * 0.37).sin() + 0.3 * (j as f64 * 0.11).cos())
        .collect();

    let reps = 31;
    let mut buf = base.clone();
    let t_complex = time_median(reps, || {
        for line in buf.chunks_mut(n) {
            let out = apply_spectral_multiplier(&plan, line, &mult);
            line.copy_from_slice(&out);
        }
    });
    let mut buf = base.clone();
    let mut ws = plan.workspace();
    let t_scalar_pairs = time_median(reps, || {
        for pair in buf.chunks_exact_mut(2 * n) {
            let (a, b) = pair.split_at_mut(n);
            filter_pair(&plan, a, b, &mult, &mut ws);
        }
    });
    let mut buf = base.clone();
    let t_batched = time_median(reps, || {
        filter_lines_flat(&plan, &mut buf, &mult, &mut ws);
    });
    FilterKernelTimes {
        n,
        batch,
        t_complex,
        t_scalar_pairs,
        t_batched,
    }
}

/// The shared tail of every machine-checked report: print the checks,
/// write the JSON artifact, exit non-zero if a check failed.
fn conclude(what: &str, artifact: &str, doc: &Value, checks: &Checks) {
    checks.print_lines();
    if let Err(e) = std::fs::write(artifact, format!("{doc}\n")) {
        eprintln!("could not write {artifact}: {e}");
        std::process::exit(1);
    }
    println!("wrote {artifact}");
    if !checks.all_ok() {
        eprintln!("one or more {what} checks failed");
        std::process::exit(1);
    }
}

/// `trace`: run a short instrumented model with a file sink installed,
/// export the per-rank timeline as Chrome trace-event JSON, print the
/// per-phase load table, and validate both artifacts before exiting.
fn trace() {
    use agcm_core::model::run_model;
    use agcm_core::AgcmConfig;
    use agcm_telemetry::{chrome, FileSink, RunMetrics, Timeline};

    println!("\n=== Instrumented run: trace.json + metrics.jsonl ===\n");
    let machine = MachineProfile::t3d();
    let sink = match FileSink::create("metrics.jsonl") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not create metrics.jsonl: {e}");
            std::process::exit(1);
        }
    };
    assert!(
        agcm_telemetry::install(std::sync::Arc::new(sink), machine),
        "telemetry was already installed in this process"
    );

    // A reduced grid keeps the artifact small while exercising every phase:
    // dynamics, both filter redistributions, and balanced physics.
    let cfg = AgcmConfig::for_grid(GridSpec::new(48, 24, 3), 2, 2, FilterVariant::LbFft)
        .with_steps(3)
        .with_physics_balancing();
    let run = run_model(cfg);

    let timeline = match Timeline::from_trace(&run.trace, &machine) {
        Ok(t) => t,
        Err(faults) => {
            eprintln!("trace has unbalanced phase events: {faults:?}");
            std::process::exit(1);
        }
    };
    if let Err(e) = chrome::write_chrome_trace("trace.json", &timeline) {
        eprintln!("could not write trace.json: {e}");
        std::process::exit(1);
    }
    let metrics = RunMetrics::from_timeline(&run.trace, &timeline);

    let mut t = Table::new(
        format!(
            "Per-phase load, {} ranks x {} steps (virtual T3D seconds)",
            metrics.summary.ranks, metrics.summary.steps
        ),
        &["Phase", "max seconds", "flop imbalance"],
    );
    for (name, secs) in &metrics.summary.phase_seconds {
        let imb = metrics
            .summary
            .phase_flop_imbalance
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        t.add_row(vec![name.to_string(), format!("{secs:.6}"), fmt_pct(imb)]);
    }
    println!("{t}");

    // --- Validate the artifacts we just wrote. ---------------------------
    let mut ok = true;

    let text = std::fs::read_to_string("trace.json").unwrap_or_default();
    match Value::parse(&text) {
        Ok(doc) => {
            let events = doc
                .get("traceEvents")
                .and_then(Value::as_arr)
                .unwrap_or(&[]);
            let mut complete = 0usize;
            let mut virtual_tracks: Vec<usize> = Vec::new();
            for ev in events {
                if ev.get("ph").and_then(Value::as_str) != Some("X") {
                    continue;
                }
                complete += 1;
                for key in ["ts", "dur", "pid", "tid"] {
                    if ev.get(key).and_then(Value::as_f64).is_none() {
                        eprintln!("trace.json: complete event lacks numeric '{key}'");
                        ok = false;
                    }
                }
                if ev.get("pid").and_then(Value::as_f64) == Some(chrome::VIRTUAL_PID as f64) {
                    let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(-1.0) as usize;
                    if !virtual_tracks.contains(&tid) {
                        virtual_tracks.push(tid);
                    }
                }
            }
            if complete == 0 {
                eprintln!("trace.json: no complete ('X') events");
                ok = false;
            }
            if virtual_tracks.len() != run.trace.size() {
                eprintln!(
                    "trace.json: {} virtual tracks for {} ranks",
                    virtual_tracks.len(),
                    run.trace.size()
                );
                ok = false;
            }
            println!(
                "trace.json: {complete} spans on {} rank tracks (open at https://ui.perfetto.dev)",
                virtual_tracks.len()
            );
        }
        Err(e) => {
            eprintln!("trace.json is not valid JSON: {e:?}");
            ok = false;
        }
    }

    let text = std::fs::read_to_string("metrics.jsonl").unwrap_or_default();
    let mut step_records = 0usize;
    let mut run_imbalance = None;
    for line in text.lines() {
        match Value::parse(line) {
            Ok(rec) => match rec.get("kind").and_then(Value::as_str) {
                Some("step") => step_records += 1,
                Some("run") => {
                    run_imbalance = rec.get("flop_imbalance").and_then(Value::as_f64);
                }
                _ => {
                    eprintln!("metrics.jsonl: record without a known 'kind'");
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("metrics.jsonl: unparseable line: {e:?}");
                ok = false;
            }
        }
    }
    if step_records != cfg.steps {
        eprintln!(
            "metrics.jsonl: {step_records} step records for {} steps",
            cfg.steps
        );
        ok = false;
    }
    match run_imbalance {
        Some(imb) if (imb - run.trace.flop_imbalance()).abs() < 1e-9 => {
            println!(
                "metrics.jsonl: {step_records} step records; run flop imbalance {} matches the trace",
                fmt_pct(imb)
            );
        }
        Some(imb) => {
            eprintln!(
                "metrics.jsonl: run flop_imbalance {imb} disagrees with trace {}",
                run.trace.flop_imbalance()
            );
            ok = false;
        }
        None => {
            eprintln!("metrics.jsonl: no run record");
            ok = false;
        }
    }

    if !ok {
        std::process::exit(1);
    }
    println!("wrote trace.json and metrics.jsonl (validated)");
}

/// `analyze`: the trace-analysis report — per-phase scaling, wait states,
/// communication matrices vs closed forms, critical path — written to
/// `analysis.json` plus a flow-event Perfetto trace `trace_analyzed.json`.
/// Exits non-zero on phase faults or any failed invariant check.
fn analyze() {
    use agcm_bench::analyze::run_analysis;
    use agcm_telemetry::chrome;

    println!("\n=== Trace analysis: analysis.json + trace_analyzed.json ===\n");
    let machine = MachineProfile::t3d();
    let report = match run_analysis(&machine) {
        Ok(r) => r,
        Err(faults) => {
            eprintln!("trace has unbalanced phase events:");
            for f in faults {
                eprintln!("  {f:?}");
            }
            std::process::exit(1);
        }
    };
    for t in &report.tables {
        println!("{t}");
    }
    if let Err(e) = chrome::write_chrome_trace_analyzed("trace_analyzed.json", &report.smoke) {
        eprintln!("could not write trace_analyzed.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote trace_analyzed.json ({} flows on the smoke run)",
        report.smoke.flows.len()
    );
    conclude("analysis", "analysis.json", &report.doc, &report.checks);
}

/// `ensemble`: the paper's scaling sweep served as a batch workload on a
/// bounded rank budget — admission control, deadlines, cancellation,
/// fault retries, fleet telemetry — written to `ensemble.json` with a
/// machine-checkable `checks` section. Exits non-zero on any failed
/// check. `--smoke` shortens the standard jobs for CI.
fn ensemble(smoke: bool) {
    use agcm_bench::ensemble::run_ensemble;

    println!("\n=== Ensemble serving: scaling sweep as a batch workload ===\n");
    let report = run_ensemble(smoke);
    println!("{}", report.table);
    conclude("ensemble", "ensemble.json", &report.doc, &report.checks);
}

/// `serve`: the network-facing serving layer exercised end to end over a
/// real TCP socket — concurrent tenants under weighted quotas, a typed
/// 429 for the quota-exceeding tenant, 403 for an unknown one, a
/// `DELETE`-cancelled running job, and a kill-and-restart journal
/// recovery — written to `serve.json` with a machine-checkable `checks`
/// section. Exits non-zero on any failed check.
fn serve(smoke: bool) {
    use agcm_bench::serve::run_serve;

    println!("\n=== Serving layer: multi-tenant HTTP front end + journal recovery ===\n");
    let report = run_serve(smoke);
    println!("{}", report.table);
    conclude("serving", "serve.json", &report.doc, &report.checks);
}

/// `store [--smoke]`: the fleet-wide content-addressed checkpoint store
/// driven through the scheduler — identical resubmission resumes at the
/// full horizon, an extended run pays only for the extension, a
/// byte-identical twin lineage dedups to zero new chunks, and GC
/// reclaims terminals without touching a leased lineage — written to
/// `store.json` with a machine-checkable `checks` section. Exits
/// non-zero on any failed check.
fn store(smoke: bool) {
    use agcm_bench::store::run_store;

    println!("\n=== Checkpoint store: fleet-wide prefix reuse, dedup, and GC ===\n");
    let report = run_store(smoke);
    println!("{}", report.table);
    println!("{}", report.cost);
    conclude("store", "store.json", &report.doc, &report.checks);
}

/// `profile [--smoke]`: sample a real run with the in-process wall-clock
/// profiler; write `profile_folded.txt`, `flamegraph.svg`, and
/// `profile.json`; print the per-phase table and the measured-vs-modeled
/// skew table. Any failed invariant exits non-zero.
fn profile(smoke: bool) {
    use agcm_bench::profile::run_profile;

    println!("\n=== In-process sampling profile: measured wall vs modeled virtual time ===\n");
    let r = run_profile(smoke);

    let mut t = Table::new(
        format!(
            "Sampled phases, {} samples at {:.0} Hz over {:.3}s wall",
            r.report.total_samples, r.report.hz, r.report.wall_seconds
        ),
        &["Phase", "self", "total", "self %"],
    );
    for p in r.report.phase_table() {
        t.add_row(vec![
            p.name.clone(),
            format!("{}", p.self_samples),
            format!("{}", p.total_samples),
            fmt_pct(p.self_samples as f64 / r.report.total_samples.max(1) as f64),
        ]);
    }
    println!("{t}");
    println!("{}", r.skew.table_text());

    if let Err(e) = std::fs::write("profile_folded.txt", r.report.folded()) {
        eprintln!("could not write profile_folded.txt: {e}");
        std::process::exit(1);
    }
    let title = if smoke {
        "AGCM profiled run (smoke)"
    } else {
        "AGCM profiled run"
    };
    if let Err(e) = std::fs::write("flamegraph.svg", r.report.flamegraph_svg(title)) {
        eprintln!("could not write flamegraph.svg: {e}");
        std::process::exit(1);
    }
    println!("wrote profile_folded.txt and flamegraph.svg");
    conclude("profile", "profile.json", &r.doc, &r.checks);
}

/// `bench-check`: re-time the filter, dynamics and physics kernels and
/// judge each speedup with the trend gate — median − 3·MAD over the recent
/// `bench_history.jsonl` runs, falling back to the committed
/// `BENCH_filter.json` / `BENCH_kernels.json` value over the tolerance
/// when the history is too thin. Writes every verdict to
/// `bench_check.json`; a failure names the metric and its observed,
/// committed, and floor values in the exit message.
fn bench_check() {
    use agcm_bench::history::{judge, load, series, TrendVerdict};

    let tolerance = std::env::var("AGCM_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|t| *t >= 1.0)
        .unwrap_or(1.25);
    let history = load(Path::new(HISTORY_PATH));
    println!(
        "\n=== Bench regression check: trend gate over {} recorded runs ===\n",
        history.len()
    );

    let committed_filter = match std::fs::read_to_string("BENCH_filter.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read BENCH_filter.json (run `reproduce bench-filter` first): {e}");
            std::process::exit(1);
        }
    };
    let committed_filter = Value::parse(&committed_filter).ok();
    let committed_filter_of = |path: &[&str]| -> f64 {
        path.iter()
            .fold(committed_filter.as_ref(), |v, key| v?.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| {
                eprintln!("BENCH_filter.json has no numeric '{}'", path.join("."));
                std::process::exit(1);
            })
    };
    let committed_kernels = match std::fs::read_to_string("BENCH_kernels.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "could not read BENCH_kernels.json (run `reproduce bench-kernels` first): {e}"
            );
            std::process::exit(1);
        }
    };
    let Ok(doc) = Value::parse(&committed_kernels) else {
        eprintln!("BENCH_kernels.json is not valid JSON");
        std::process::exit(1);
    };
    let committed_of = |section: &str, key: &str| -> f64 {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| {
                eprintln!("BENCH_kernels.json has no numeric '{section}.{key}'");
                std::process::exit(1);
            })
    };

    let k = measure_filter_kernel();
    let b = agcm_bench::kernels::run_kernel_bench(true);

    // (suite, metric name in the history, committed anchor, observed)
    let measurements = [
        (
            "filter",
            "kernel_speedup",
            committed_filter_of(&["kernel_speedup"]),
            k.kernel_speedup(),
        ),
        (
            "filter",
            "lane_batched.speedup",
            committed_filter_of(&["lane_batched", "speedup"]),
            k.lane_speedup(),
        ),
        (
            "kernels",
            "stencil.kernel_speedup",
            committed_of("stencil", "kernel_speedup"),
            b.stencil.kernel_speedup(),
        ),
        (
            "kernels",
            "advection.kernel_speedup",
            committed_of("advection", "kernel_speedup"),
            b.advection.kernel_speedup(),
        ),
        (
            "kernels",
            "tendency_step.speedup",
            committed_of("tendency_step", "speedup"),
            b.step.kernel_speedup(),
        ),
        (
            "kernels",
            "fd_sweeps.speedup",
            committed_of("fd_sweeps", "speedup"),
            b.fd.kernel_speedup(),
        ),
        (
            "kernels",
            "physics.speedup",
            committed_of("physics", "speedup"),
            b.physics.kernel_speedup(),
        ),
    ];
    let verdicts: Vec<TrendVerdict> = measurements
        .iter()
        .map(|(suite, metric, committed, observed)| {
            judge(
                &format!("{suite}.{metric}"),
                *observed,
                *committed,
                tolerance,
                &series(&history, suite, metric),
            )
        })
        .collect();

    for v in &verdicts {
        println!("{} {}", if v.ok { "ok  " } else { "FAIL" }, v.describe());
    }

    let delta = Value::obj(vec![
        ("tolerance", Value::Num(tolerance)),
        ("history_runs", Value::Num(history.len() as f64)),
        (
            "checks",
            Value::Arr(verdicts.iter().map(TrendVerdict::to_json).collect()),
        ),
        ("ok", Value::Bool(verdicts.iter().all(|v| v.ok))),
    ]);
    if let Err(e) = std::fs::write("bench_check.json", format!("{delta}\n")) {
        eprintln!("could not write bench_check.json: {e}");
    } else {
        println!("wrote bench_check.json");
    }

    // This run's measurements extend the trend for the next one.
    record_history("filter", k.history());
    record_history("kernels", kernel_history(&b));

    let failed: Vec<&TrendVerdict> = verdicts.iter().filter(|v| !v.ok).collect();
    if !failed.is_empty() {
        for v in &failed {
            eprintln!("FAIL: {} regressed — {}", v.metric, v.describe());
        }
        std::process::exit(1);
    }
    println!("\nOK: all kernel speedups within tolerance (see bench_check.json)");
}

/// §4 headline claims, checked against the measured tables.
fn summary() {
    println!("\n=== Summary: the paper's headline claims vs this reproduction ===\n");
    let grid9 = GridSpec::paper_9_layer();
    let grid15 = GridSpec::paper_15_layer();
    let anchor = model_run(grid9, (1, 1), FilterVariant::ConvolutionRing, 1);
    let paragon = calibrate(
        &MachineProfile::paragon(),
        &anchor,
        paper::TABLE4_PARAGON_OLD[0].dynamics,
    );
    let t3d = calibrate(
        &MachineProfile::t3d(),
        &anchor,
        paper::TABLE6_T3D_OLD[0].dynamics,
    );

    let filt = |grid, mesh, variant: FilterVariant, machine: &MachineProfile| {
        let (trace, dt) = filter_trace(grid, mesh, variant);
        filter_seconds_per_day(&trace, dt, machine)
    };

    let conv240 = filt(grid9, (8, 30), FilterVariant::ConvolutionRing, &paragon);
    let lb240 = filt(grid9, (8, 30), FilterVariant::LbFft, &paragon);
    let lb16 = filt(grid9, (4, 4), FilterVariant::LbFft, &paragon);
    let lb240_15 = filt(grid15, (8, 30), FilterVariant::LbFft, &paragon);
    let lb16_15 = filt(grid15, (4, 4), FilterVariant::LbFft, &paragon);

    let old240 = model_run(grid9, (8, 30), FilterVariant::ConvolutionRing, 1);
    let new240 = model_run(grid9, (8, 30), FilterVariant::LbFft, 1);
    let old_tot = day_times(&old240, &paragon).total;
    let new_times = day_times(&new240, &paragon);
    let t3d_tot = day_times(&new240, &t3d).total;

    let mut t = Table::new("Headline claims", &["Claim", "Paper", "Measured"]);
    t.add_row(vec![
        "LB-FFT vs convolution filtering, 240 nodes".into(),
        format!("~{:.0}x", paper::claims::FILTER_SPEEDUP_240),
        format!("{:.2}x", conv240 / lb240),
    ]);
    t.add_row(vec![
        "LB-FFT filter scaling 16->240, 9-layer".into(),
        format!("{:.2}", paper::claims::FILTER_SCALING_9),
        format!("{:.2}", lb16 / lb240),
    ]);
    t.add_row(vec![
        "LB-FFT filter scaling 16->240, 15-layer".into(),
        format!("{:.2}", paper::claims::FILTER_SCALING_15),
        format!("{:.2}", lb16_15 / lb240_15),
    ]);
    t.add_row(vec![
        "Whole code, new vs old filter, 240 nodes".into(),
        format!("~{:.0}x", paper::claims::CODE_SPEEDUP_240),
        format!("{:.2}x", old_tot / new_times.total),
    ]);
    t.add_row(vec![
        "T3D vs Paragon (new code, 240 nodes)".into(),
        format!("~{:.1}x", paper::claims::T3D_OVER_PARAGON),
        format!("{:.2}x", new_times.total / t3d_tot),
    ]);
    t.add_row(vec![
        "Filtering share of Dynamics, 240 nodes, new module".into(),
        fmt_pct(paper::claims::FILTER_SHARE_240_NEW),
        fmt_pct(new_times.filter / new_times.dynamics),
    ]);
    println!("{t}");
}
