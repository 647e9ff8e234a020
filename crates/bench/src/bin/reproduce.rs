//! Regenerate every table and figure of Lou & Farrara (SC'96).
//!
//! ```text
//! reproduce [all|figure1|tables1to3|tables4to7|tables8to11|singlenode|summary
//!           |bench-filter|bench-kernels [--smoke]|trace|analyze]
//! ```
//!
//! `all` (the default) runs the paper's tables and figures plus the two
//! kernel benchmarks.
//!
//! `bench-filter` is the filter fast-path benchmark: it times the
//! batched real-input filtering kernel against the original per-line
//! complex path and counts redistribute messages per filtered step, then
//! writes the numbers to `BENCH_filter.json`. Both `BENCH_*.json` files
//! are reports of the paper's kernel pairs, not a gate: performance
//! regressions are judged by `benchmark/`.
//!
//! `bench-kernels` is the §4 kernel benchmark: the 7-point stencil (both
//! layouts), the real upwind advection operator and the full tendency
//! step, reference `from_fn` path vs the `agcm-kernels` flat kernels; and
//! the column-physics pass, batch kernel vs the per-column `run_column`
//! oracle, with its divide bound beside it. Written to
//! `BENCH_kernels.json`.
//!
//! `trace` makes one instrumented run (paper 9-layer grid, 2x2 mesh) and
//! replays its trace once. From that replay it writes `trace.json`
//! (Chrome trace-event format — open at <https://ui.perfetto.dev>),
//! `metrics.jsonl` (one structured record per step and per run), and the
//! wall-time profile: `profile_folded.txt`, `flamegraph.svg`, and
//! `profile.json` with the measured-vs-modeled skew report.
//!
//! `trace` and `analyze` each end in machine checks reported one way
//! (`agcm_bench::analyze::Checks`): a grep-able `name:ok` line per check
//! on stdout, `"name":"ok"|"violated"` under `"checks"` in their JSON
//! artifact (`profile.json`, `analysis.json`), and a non-zero exit when
//! any check fails.
//!
//! Each table prints the paper-reported values next to the model-measured
//! ones. Absolute agreement is not expected (the substrate is a simulator,
//! see DESIGN.md); the shapes — who wins, by what factor, how things scale
//! — are the result. Run in release mode: the 240-rank experiments do the
//! real filtering work.

use agcm_bench::analyze::{Check, Checks};
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
            eprintln!("usage: reproduce [all|figure1|tables1to3|tables4to7|tables8to11|singlenode|summary|bench-filter|bench-kernels [--smoke]|trace|analyze]");
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

/// Filter fast-path benchmark: the batched, allocation-free real-input
/// kernel vs the original per-line complex path on the paper's 144-point
/// longitude circles, plus redistribute messages per filtered step under
/// the aggregated vs per-variable organizations. Results go to stdout and
/// to `BENCH_filter.json`.
fn bench_filter() {
    println!("\n=== Filter fast path: batched real vs per-line complex (n=144) ===\n");
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

    // Seconds per batch, three ways: every line widened to a complex
    // transform; scalar `filter_pair` on consecutive pairs; and
    // `filter_lines_flat`, lane-batched.
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
    let mut buf = base;
    let t_batched = time_median(reps, || {
        filter_lines_flat(&plan, &mut buf, &mult, &mut ws);
    });
    let ns_per_line = |t: f64| t * 1e9 / batch as f64;
    let lines_per_sec = |t: f64| batch as f64 / t;
    let speedup = t_complex / t_batched;
    let lane_speedup = t_scalar_pairs / t_batched;

    let mut t = Table::new(
        format!("Kernel, {batch} lines of n={n}"),
        &["Path", "ns/line", "lines/s", "speed-up"],
    );
    t.add_row(vec![
        "per-line complex (original)".into(),
        format!("{:.0}", ns_per_line(t_complex)),
        format!("{:.0}", lines_per_sec(t_complex)),
        "1.00".into(),
    ]);
    t.add_row(vec![
        "scalar pairs (filter_pair, the oracle)".into(),
        format!("{:.0}", ns_per_line(t_scalar_pairs)),
        format!("{:.0}", lines_per_sec(t_scalar_pairs)),
        fmt_ratio(t_complex / t_scalar_pairs),
    ]);
    t.add_row(vec![
        "batched real (production, lane-batched)".into(),
        format!("{:.0}", ns_per_line(t_batched)),
        format!("{:.0}", lines_per_sec(t_batched)),
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
    let fraction = bound_ns / ns_per_line(t_batched);
    println!(
        "Lane-batched executor: W={lanes} pair-packed transforms per batch, dispatch target {target}; \
         {:.0} ns/line, {:.2}x the scalar pair path.\n\
         Bound: {flops_per_line:.0} flops/line at the measured add+mul rate {:.1} GFlop/s = {bound_ns:.0} ns/line; \
         fraction achieved {:.2}\n",
        ns_per_line(t_batched),
        lane_speedup,
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

    let json = agcm_bench::kernels::filter_json(&agcm_bench::kernels::FilterReport {
        n_lon: n,
        batch_lines: batch,
        ns_per_line: [t_complex, t_scalar_pairs, t_batched].map(ns_per_line),
        add_mul_gflops: peak / 1e9,
        variant,
        mesh,
        messages: (agg.total_messages(), per.total_messages()),
    });
    std::fs::write("BENCH_filter.json", format!("{json}\n"))
        .unwrap_or_else(|e| eprintln!("could not write BENCH_filter.json: {e}"));
    println!("wrote BENCH_filter.json");
}

/// `bench-kernels`: the §4 kernel benchmark — stencil (both layouts),
/// real upwind advection, the full tendency step, its fd phase alone and
/// the column-physics pass, reference vs kernel paths. Prints the tables and writes
/// `BENCH_kernels.json`.
fn bench_kernels(smoke: bool) {
    use agcm_bench::kernels::{
        divide_seconds, kernels_json, physics_bytes_per_column, physics_divides_per_column,
        run_kernel_bench, DivideBound, FD_DIVIDES_PER_POINT,
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
    let fd_target = agcm_grid::dispatch::dispatch_target();
    let fd = DivideBound::new(FD_DIVIDES_PER_POINT, divide_ns, &b.fd);
    println!(
        "fd sweeps ({fd_target}): bound by {FD_DIVIDES_PER_POINT} f64 divides per point (bit-identity forbids\nreciprocals) = {:.1} ns at this machine's divider throughput; the three sweeps reach\n{:.0}% of that bound.\n",
        fd.bound_ns,
        100.0 * fd.fraction
    );
    let physics = DivideBound::new(divides, divide_ns, &b.physics);
    println!(
        "column physics: bound by the longwave's {divides} f64 divides per column (bit-identity\nforbids reciprocals) = {:.1} ns at this machine's divider throughput; the kernel\nreaches {:.0}% of that bound; {bytes} B of field per column.\n",
        physics.bound_ns,
        100.0 * physics.fraction
    );

    let json = kernels_json(&b, &fd, &physics);
    std::fs::write("BENCH_kernels.json", format!("{json}\n"))
        .unwrap_or_else(|e| eprintln!("could not write BENCH_kernels.json: {e}"));
    println!("wrote BENCH_kernels.json");
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

/// `trace`: one instrumented run (paper 9-layer grid, 2x2 mesh, LB-FFT,
/// balanced physics, 4 steps) replayed once into its timeline and run
/// metrics. Writes `trace.json`, `metrics.jsonl`, `profile_folded.txt`,
/// `flamegraph.svg` and `profile.json` from them, prints the per-phase
/// load, wall-time and skew tables, then checks the artifacts; any failed
/// check exits non-zero.
fn trace() {
    use agcm_core::model::run_model;
    use agcm_core::AgcmConfig;
    use agcm_telemetry::{chrome, skew_report, ProfileReport, RunMetrics};

    println!("\n=== Instrumented run: trace, metrics and wall-time profile ===\n");
    let machine = MachineProfile::t3d();
    let cfg = AgcmConfig::for_grid(GridSpec::paper_9_layer(), 2, 2, FilterVariant::LbFft)
        .with_steps(4)
        .with_physics_balancing();
    let run = run_model(cfg);
    let (metrics, timeline) = match RunMetrics::from_trace_with_timeline(&run.trace, &machine) {
        Ok(derived) => derived,
        Err(faults) => {
            eprintln!("trace has unbalanced phase events: {faults:?}");
            std::process::exit(1);
        }
    };
    let profile = ProfileReport::from_timeline(&timeline);
    let skew = skew_report(&timeline);

    let write = |path: &str, contents: String| {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    };
    write("trace.json", chrome::to_chrome_json(&timeline).to_string());
    let records = metrics
        .steps
        .iter()
        .map(|step| step.to_json())
        .chain(std::iter::once(metrics.summary.to_json()));
    write(
        "metrics.jsonl",
        records.map(|record| format!("{record}\n")).collect(),
    );
    write("profile_folded.txt", profile.folded());
    write(
        "flamegraph.svg",
        profile.flamegraph_svg("AGCM profiled run"),
    );

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
    let total = profile.total_nanos;
    let mut t = Table::new(
        format!(
            "Per-phase wall time, {} ranks, {:.3} rank-ms in total",
            metrics.summary.ranks,
            total as f64 / 1e6
        ),
        &["Phase", "self ms", "total ms", "self %"],
    );
    for p in profile.phase_table() {
        t.add_row(vec![
            p.name.clone(),
            format!("{:.3}", p.self_nanos as f64 / 1e6),
            format!("{:.3}", p.total_nanos as f64 / 1e6),
            fmt_pct(p.self_nanos as f64 / total.max(1) as f64),
        ]);
    }
    println!("{t}");
    println!("{}", skew.table_text());

    // --- Check the artifacts just written. -------------------------------
    let mut checks = Checks::default();
    let text = std::fs::read_to_string("trace.json").unwrap_or_default();
    let (json_ok, json_detail, tracks) = match Value::parse(&text) {
        Ok(doc) => {
            let complete: Vec<&Value> = doc
                .get("traceEvents")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter(|ev| ev.get("ph").and_then(Value::as_str) == Some("X"))
                .collect();
            let numeric = complete.iter().all(|ev| {
                ["ts", "dur", "pid", "tid"]
                    .iter()
                    .all(|key| ev.get(key).and_then(Value::as_f64).is_some())
            });
            let mut tracks: Vec<usize> = complete
                .iter()
                .filter(|ev| {
                    ev.get("pid").and_then(Value::as_f64) == Some(chrome::VIRTUAL_PID as f64)
                })
                .map(|ev| ev.get("tid").and_then(Value::as_f64).unwrap_or(-1.0) as usize)
                .collect();
            tracks.sort_unstable();
            tracks.dedup();
            let detail = format!(
                "{} complete spans, every one with numeric ts/dur/pid/tid: {numeric} \
                 (open at https://ui.perfetto.dev)",
                complete.len()
            );
            (!complete.is_empty() && numeric, detail, Some(tracks.len()))
        }
        Err(e) => (false, format!("not valid JSON: {e:?}"), None),
    };
    checks.push(Check {
        name: "trace_json_valid",
        ok: json_ok,
        detail: json_detail,
    });
    checks.push(Check {
        name: "virtual_track_per_rank",
        ok: tracks == Some(run.trace.size()),
        detail: format!("{tracks:?} virtual tracks for {} ranks", run.trace.size()),
    });

    let text = std::fs::read_to_string("metrics.jsonl").unwrap_or_default();
    let records: Vec<Option<Value>> = text.lines().map(|l| Value::parse(l).ok()).collect();
    let kinds: Vec<Option<&str>> = records
        .iter()
        .map(|r| r.as_ref()?.get("kind")?.as_str())
        .collect();
    let step_records = kinds.iter().filter(|k| **k == Some("step")).count();
    let well_formed = kinds.iter().all(|k| matches!(k, Some("step" | "run")));
    checks.push(Check {
        name: "step_record_per_step",
        ok: well_formed && step_records == cfg.steps,
        detail: format!(
            "{step_records} step records for {} steps; every line parses with a known kind: {well_formed}",
            cfg.steps
        ),
    });
    let run_imbalance = records
        .iter()
        .flatten()
        .find(|r| r.get("kind").and_then(Value::as_str) == Some("run"))
        .and_then(|r| r.get("flop_imbalance")?.as_f64());
    let traced = run.trace.flop_imbalance();
    checks.push(Check {
        name: "run_imbalance_matches_trace",
        ok: run_imbalance.is_some_and(|imb| (imb - traced).abs() < 1e-9),
        detail: format!("run record {run_imbalance:?}, trace {traced}"),
    });

    checks.push(Check {
        name: "wall_conservation",
        ok: profile.conservation_ok() && profile.total_nanos > 0,
        detail: format!(
            "{} folded stacks sum to the {} ns the ranks' last stamps span",
            profile.stacks.len(),
            profile.total_nanos
        ),
    });
    let measured_sum: f64 = skew.rows.iter().map(|r| r.measured_self_frac).sum();
    let modeled_sum: f64 = skew.rows.iter().map(|r| r.modeled_self_frac).sum();
    checks.push(Check {
        name: "skew_report",
        ok: (measured_sum - 1.0).abs() < 1e-6 && (modeled_sum - 1.0).abs() < 1e-6,
        detail: format!(
            "{} traced phases; fraction sums measured {measured_sum:.6}, modeled {modeled_sum:.6}",
            skew.traced_phases
        ),
    });

    println!("wrote trace.json, metrics.jsonl, profile_folded.txt and flamegraph.svg");
    let doc = Value::obj(vec![
        ("benchmark", Value::Str("trace".into())),
        ("profile", profile.to_json()),
        ("skew", skew.to_json()),
        ("checks", checks.to_json()),
    ]);
    conclude("trace", "profile.json", &doc, &checks);
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
    let analyzed = chrome::to_chrome_json_analyzed(&report.smoke).to_string();
    if let Err(e) = std::fs::write("trace_analyzed.json", analyzed) {
        eprintln!("could not write trace_analyzed.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote trace_analyzed.json ({} flows on the smoke run)",
        report.smoke.flows.len()
    );
    conclude("analysis", "analysis.json", &report.doc, &report.checks);
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
