//! The §4 kernel benchmarks: reference `get`/`set` operators vs the
//! `agcm-kernels` flat-slice kernels vs the block-interleaved layout, on
//! the paper's own configurations.
//!
//! Five experiments, reported by `reproduce bench-kernels` and written
//! to `BENCH_kernels.json`:
//!
//! - **stencil** — the §3.4 cache experiment: 7-point Laplace over 12
//!   fields of 32³, separate `get`/`set` reference vs flat separate
//!   kernel vs block kernel.
//! - **advection** — the real upwind operator on the paper's 144×90×9
//!   dynamics mesh: allocating reference vs flat kernel vs the
//!   block-interleaved multi-tracer traversal (per-tracer normalized).
//! - **tendency step** — the whole-model hot path: `Dynamics::step`
//!   (kernel path over the reusable scratch) vs
//!   `Dynamics::step_reference` (original allocating `from_fn` path) on
//!   the paper's 9-layer grid, single rank.
//! - **fd sweeps** — the finite-difference phase alone, inside that
//!   step: wall time of the traced "fd" phase net of its nested `h*` halo
//!   exchange, the three fused sweeps vs `step_reference`'s operators.
//!   Thirteen f64 divides per point and no reciprocal allowed, so the
//!   divider's throughput is the stated bound.
//! - **column physics** — the paper's other §4 target ("a routine
//!   involved in the longwave radiation calculation"): the row-batched
//!   table-driven `PhysicsStep::run_local` vs the per-column `run_column`
//!   oracle on the same grid, in ns per column.

use crate::harness::time_median;
use agcm_dynamics::advection::upwind_tendency;
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::ModelState;
use agcm_dynamics::timestep::{max_stable_dt, signal_speed};
use agcm_filtering::FilterVariant;
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::Decomp;
use agcm_grid::field::BlockField;
use agcm_grid::halo::HaloField;
use agcm_grid::latlon::GridSpec;
use agcm_grid::metrics::MetricTables;
use agcm_kernels::advect::{upwind_block_into, upwind_into, BlockHalo};
use agcm_kernels::stencil::{laplace_block_into, laplace_separate_into};
use agcm_kernels::HaloView;
use agcm_mps::runtime::{run, run_traced};
use agcm_mps::topology::CartComm;
use agcm_mps::trace::{PhaseSpan, WorldTrace};
use agcm_physics::step::{run_column, PhysicsConfig, PhysicsStep};
use agcm_singlenode::blockarray::{laplace_separate, paper_test_fields};
use agcm_telemetry::json::Value;
use std::hint::black_box;

/// Wall-clock seconds for the three paths of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct PathTimes {
    /// The original `get`/`set` (or `from_fn`) implementation.
    pub reference: f64,
    /// The flat-slice kernel, separate arrays.
    pub kernel: f64,
    /// The block-interleaved kernel (`None` where no block variant
    /// exists).
    pub block: Option<f64>,
    /// Output grid points per evaluation (for ns/point).
    pub points: usize,
}

impl PathTimes {
    /// ns/point for a given path time.
    pub fn ns_per_point(&self, t: f64) -> f64 {
        t * 1e9 / self.points as f64
    }

    /// reference / kernel.
    pub fn kernel_speedup(&self) -> f64 {
        self.reference / self.kernel
    }

    /// kernel (separate) / block — the layout gain on top of the flat
    /// kernels.
    pub fn block_speedup(&self) -> Option<f64> {
        self.block.map(|b| self.kernel / b)
    }
}

/// All five experiments.
#[derive(Debug, Clone, Copy)]
pub struct KernelBench {
    /// 7-point Laplace, 12 fields of 32³.
    pub stencil: PathTimes,
    /// Upwind advection, 144×90×9.
    pub advection: PathTimes,
    /// Full dynamics timestep, paper 9-layer grid, 1 rank.
    pub step: PathTimes,
    /// The "fd" phase of that timestep, net of its nested halo exchange.
    pub fd: PathTimes,
    /// One physics pass, paper 9-layer grid, 1 rank; a "point" is a column.
    pub physics: PathTimes,
}

/// §3.4 stencil: 12 fields of 32³ (the paper's configuration). The
/// kernel paths run `_into` caller-owned buffers — the production usage —
/// while the reference allocates per call like the original routine.
/// Several evaluations per timed repetition amortize timer jitter.
pub fn bench_stencil(reps: usize) -> PathTimes {
    const EVALS: usize = 8;
    let fields = paper_test_fields(12);
    let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
    let block = BlockField::from_fields(&fields);
    let shape = (32, 32, 32);
    let mut out = vec![0.0; 32 * 32 * 32];
    let reference = time_median(reps, || {
        for _ in 0..EVALS {
            black_box(laplace_separate(black_box(&fields)));
        }
    }) / EVALS as f64;
    let kernel = time_median(reps, || {
        for _ in 0..EVALS {
            laplace_separate_into(black_box(&refs), shape, black_box(&mut out));
        }
    }) / EVALS as f64;
    let blk = time_median(reps, || {
        for _ in 0..EVALS {
            laplace_block_into(black_box(block.as_slice()), 12, shape, black_box(&mut out));
        }
    }) / EVALS as f64;
    PathTimes {
        reference,
        kernel,
        block: Some(blk),
        points: 32 * 32 * 32,
    }
}

/// A deterministic halo field with non-zero ghosts (interior formula
/// extended into the margins — physically meaningless, numerically
/// equivalent work for every path).
fn bench_halo(ni: usize, nj: usize, nk: usize, seed: usize) -> HaloField {
    let mut h = HaloField::zeros(ni, nj, nk, 1);
    for k in 0..nk {
        for j in -1..=nj as isize {
            for i in -1..=ni as isize {
                let x = (i + 2 * j) as f64 + (k * 3 + seed * 7) as f64;
                h.set(i, j, k, 10.0 + (x * 0.13).sin() * 5.0);
            }
        }
    }
    h
}

/// The real upwind operator on the paper's 144×90×9 dynamics mesh.
/// The block path advects 4 interleaved tracers in one traversal; its
/// time is divided by 4 so every column is per tracer.
pub fn bench_advection(reps: usize) -> PathTimes {
    const M: usize = 4;
    let (ni, nj, nk) = (144, 90, 9);
    let grid = GridSpec::new(ni, nj, nk);
    let t = MetricTables::new(&grid, 0, nj);
    let q = bench_halo(ni, nj, nk, 0);
    let u = bench_halo(ni, nj, nk, 1);
    let v = bench_halo(ni, nj, nk, 2);
    let tracers: Vec<HaloField> = (0..M).map(|s| bench_halo(ni, nj, nk, 10 + s)).collect();
    let refs: Vec<&HaloField> = tracers.iter().collect();
    let blk = BlockHalo::from_halos(&refs);

    let n = ni * nj * nk;
    let reference = time_median(reps, || {
        black_box(upwind_tendency(
            black_box(&q),
            black_box(&u),
            black_box(&v),
            &grid,
            0,
        ));
    });
    let mut out = vec![0.0; n];
    let kernel = time_median(reps, || {
        upwind_into(
            &HaloView::of(black_box(&q)),
            &HaloView::of(black_box(&u)),
            &HaloView::of(black_box(&v)),
            &t,
            black_box(&mut out),
        );
    });
    let mut blk_out = vec![0.0; n * M];
    let block = time_median(reps, || {
        upwind_block_into(
            black_box(&blk),
            &HaloView::of(black_box(&u)),
            &HaloView::of(black_box(&v)),
            &t,
            black_box(&mut blk_out),
        );
    }) / M as f64;
    PathTimes {
        reference,
        kernel,
        block: Some(block),
        points: n,
    }
}

/// Full dynamics timestep, kernel path vs reference path, on the paper's
/// 9-layer grid with a single rank (no filter: this measures the
/// finite-difference hot path, not FFTs). `steps` timesteps per timed
/// repetition.
pub fn bench_step(steps: usize, reps: usize) -> PathTimes {
    let grid = GridSpec::paper_9_layer();
    let decomp = Decomp::new(grid, 1, 1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    let out = run(1, move |c| {
        let cart = CartComm::new(c, 1, 1, (false, true));
        let dyn_core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, None));
        let mut s_ref = ModelState::initial(grid, decomp.subdomain_of_rank(0));
        let mut s_ker = s_ref.clone();
        // Warm up both paths (scratch built here; first-touch effects
        // off the timed region).
        dyn_core.step_reference(&cart, &mut s_ref);
        dyn_core.step(&cart, &mut s_ker);
        let reference = time_median(reps, || {
            for _ in 0..steps {
                dyn_core.step_reference(&cart, black_box(&mut s_ref));
            }
        }) / steps as f64;
        let kernel = time_median(reps, || {
            for _ in 0..steps {
                dyn_core.step(&cart, black_box(&mut s_ker));
            }
        }) / steps as f64;
        (reference, kernel)
    });
    let (reference, kernel) = out[0];
    PathTimes {
        reference,
        kernel,
        block: None,
        points: grid.n_lon * grid.n_lat * grid.n_lev,
    }
}

/// f64 divides the fd sweeps perform per grid point: 3 in the flux
/// divergence, 1 per gradient, 2 per upwind tendency of `u`, `v` and the
/// two tracers.
pub const FD_DIVIDES_PER_POINT: usize = 3 + 2 + 4 * 2;

/// Wall seconds rank 0 spent in each "fd" phase of a traced run, net of
/// the "halo" phases nested inside it, in closing order.
pub fn fd_phase_seconds(trace: &WorldTrace) -> Vec<f64> {
    let spans = trace.spans().expect("phase events pair");
    let rank0 = || spans.iter().filter(|s| s.rank == 0);
    let wall = |s: &PhaseSpan| trace.walls[0][s.end_wall] - trace.walls[0][s.begin_wall];
    let inside =
        |fd: &PhaseSpan, h: &PhaseSpan| (fd.begin_event..fd.end_event).contains(&h.begin_event);
    rank0()
        .filter(|fd| fd.name == "fd")
        .map(|fd| {
            let halos = rank0().filter(|h| h.name == "halo" && inside(fd, h));
            wall(fd) - halos.fold(0.0, |acc, h| acc + wall(h))
        })
        .collect()
}

/// The finite-difference phase on the paper's 9-layer grid, single rank,
/// no filter: median over `steps` traced steps of the "fd" phase's own
/// time, `step_reference`'s operators vs the three fused sweeps.
pub fn bench_fd_sweeps(steps: usize) -> PathTimes {
    let grid = GridSpec::paper_9_layer();
    let decomp = Decomp::new(grid, 1, 1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    let fd_median = |reference: bool| {
        let (_, trace) = run_traced(1, |c| {
            let cart = CartComm::new(c, 1, 1, (false, true));
            let dyn_core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, None));
            let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(0));
            // One warm-up step (scratch built, pages touched), dropped below.
            for _ in 0..=steps {
                if reference {
                    dyn_core.step_reference(&cart, black_box(&mut state));
                } else {
                    dyn_core.step(&cart, black_box(&mut state));
                }
            }
        });
        let mut fd = fd_phase_seconds(&trace).split_off(1);
        fd.sort_by(f64::total_cmp);
        fd[fd.len() / 2]
    };
    PathTimes {
        reference: fd_median(true),
        kernel: fd_median(false),
        block: None,
        points: grid.points(),
    }
}

/// Divides the batch kernel performs per column of `n_lev` layers: one
/// per layer pair of the longwave exchange. With no reciprocal allowed
/// (bit-identity) the divider's throughput is the kernel's stated bound.
pub fn physics_divides_per_column(n_lev: usize) -> usize {
    n_lev * (n_lev - 1) / 2
}

/// Seconds per f64 divide at this machine's divider throughput: an
/// L1-resident stream of independent quotients, the same `slice / scalar`
/// shape as the kernel's pair loop, compiled portable: on the AVX-512F
/// host of `BENCH_kernels.json` its AVX2 and AVX-512F compilations took
/// the same 0.67 ns per divide. `divides × this` bounds a kernel.
pub fn divide_seconds(reps: usize) -> f64 {
    const N: usize = 1024;
    const SWEEPS: usize = 64;
    let num: Vec<f64> = (0..N).map(|c| 1.0 + c as f64 * 0.37).collect();
    let mut out = vec![0.0; N];
    time_median(reps, || {
        for s in 0..SWEEPS {
            let d = black_box(2.0 + s as f64);
            for (o, &x) in out.iter_mut().zip(black_box(&num)) {
                *o = x / d;
            }
            black_box(&mut out);
        }
    }) / (N * SWEEPS) as f64
}

/// Bytes of the field one column moves through memory per pass: every
/// level read and written once; the block scratch stays in L1.
pub fn physics_bytes_per_column(n_lev: usize) -> usize {
    2 * 8 * n_lev
}

/// One physics pass on the paper's 9-layer grid, single rank: the batch
/// kernel behind `PhysicsStep::run_local` vs the per-column oracle loop it
/// replaced (`column` → `run_column` → `set_column`). Time advances one
/// model step per pass so day/night and the noise buckets move as in a
/// run. `passes` passes per timed repetition.
pub fn bench_physics(passes: usize, reps: usize) -> PathTimes {
    let grid = GridSpec::paper_9_layer();
    let sub = Decomp::new(grid, 1, 1).subdomain_of_rank(0);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    let out = run(1, move |c| {
        let theta0 = ModelState::initial(grid, sub).fields[Variable::Theta.index()].clone();
        let cfg = PhysicsConfig::for_grid(&grid);
        let step = PhysicsStep::new(grid, sub);
        let (mut th_ref, mut th_ker) = (theta0.clone(), theta0);
        step.run_local(c, &mut th_ker, 0.0);
        let (mut t_ref, mut t_ker) = (0.0, dt);
        let reference = time_median(reps, || {
            for _ in 0..passes {
                for j in 0..sub.nj {
                    for i in 0..sub.ni {
                        let mut col = th_ref.column(i, j);
                        black_box(run_column(&cfg, &grid, i, j, t_ref, &mut col));
                        th_ref.set_column(i, j, &col);
                    }
                }
                t_ref += dt;
            }
        }) / passes as f64;
        let kernel = time_median(reps, || {
            for _ in 0..passes {
                black_box(step.run_local(c, black_box(&mut th_ker), t_ker));
                t_ker += dt;
            }
        }) / passes as f64;
        (reference, kernel)
    });
    let (reference, kernel) = out[0];
    PathTimes {
        reference,
        kernel,
        block: None,
        points: grid.columns(),
    }
}

/// Run all five experiments. `smoke` shortens the repetitions for CI.
pub fn run_kernel_bench(smoke: bool) -> KernelBench {
    let (reps, steps) = if smoke { (3, 2) } else { (9, 4) };
    KernelBench {
        stencil: bench_stencil(reps),
        advection: bench_advection(reps),
        step: bench_step(steps, if smoke { 3 } else { 7 }),
        fd: bench_fd_sweeps(if smoke { 6 } else { 40 }),
        physics: bench_physics(steps, reps),
    }
}

/// A JSON object from `key => value` pairs, in order.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => { Value::obj(vec![$(($key, $value)),*]) };
}

/// `x` rounded to `places` decimals: the precision a report keeps.
fn rounded(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

fn text(s: &str) -> Value {
    Value::Str(s.into())
}

fn count(n: usize) -> Value {
    Value::Num(n as f64)
}

/// What `reproduce bench-filter` measured; [`filter_json`] derives the
/// rest of `BENCH_filter.json` from it.
#[derive(Debug, Clone)]
pub struct FilterReport {
    pub n_lon: usize,
    pub batch_lines: usize,
    /// ns per line: per-line complex, scalar pairs, lane-batched.
    pub ns_per_line: [f64; 3],
    /// The add+mul rate the bound is stated at.
    pub add_mul_gflops: f64,
    pub variant: FilterVariant,
    pub mesh: (usize, usize),
    /// Redistribute messages per filtered step: aggregated, per variable.
    pub messages: (usize, usize),
}

/// `BENCH_filter.json`.
pub fn filter_json(r: &FilterReport) -> Value {
    let [complex, pairs, batched] = r.ns_per_line;
    let flops = agcm_fft::ops::pair_filter_flops(r.n_lon) / 2.0;
    let bound_ns = flops / r.add_mul_gflops;
    let path =
        |ns: f64| obj! { "ns_per_line" => rounded(ns, 1), "lines_per_sec" => rounded(1e9 / ns, 1) };
    obj! {
        "benchmark" => text("filter_fast_path"),
        "n_lon" => count(r.n_lon),
        "batch_lines" => count(r.batch_lines),
        "per_line_complex" => path(complex),
        "batched_real" => path(batched),
        "kernel_speedup" => rounded(complex / batched, 2),
        "lane_batched" => obj! {
            "ns_per_line" => rounded(batched, 1),
            "speedup" => rounded(pairs / batched, 2),
            "lanes" => count(agcm_fft::lanes::W),
            "dispatch_target" => text(agcm_fft::lanes::dispatch_target()),
            "flops_per_line" => rounded(flops, 0),
            "add_mul_gflops" => rounded(r.add_mul_gflops, 1),
            "bound_ns_per_line" => rounded(bound_ns, 1),
            "bound_fraction" => rounded(bound_ns / batched, 2),
        },
        "messages_per_filtered_step" => obj! {
            "variant" => text(&format!("{:?}", r.variant)),
            "mesh" => text(&format!("{}x{}", r.mesh.0, r.mesh.1)),
            "aggregated" => count(r.messages.0),
            "per_variable" => count(r.messages.1),
        },
    }
}

/// A kernel's divide bound: f64 divides per point (or column), what they
/// cost at this machine's divider throughput, and the fraction of that
/// bound the kernel path reaches.
#[derive(Debug, Clone, Copy)]
pub struct DivideBound {
    pub divides: usize,
    pub bound_ns: f64,
    pub fraction: f64,
}

impl DivideBound {
    /// `divides` at `divide_ns` each, against `p`'s kernel path.
    pub fn new(divides: usize, divide_ns: f64, p: &PathTimes) -> DivideBound {
        let bound_ns = divides as f64 * divide_ns;
        let fraction = bound_ns / p.ns_per_point(p.kernel);
        DivideBound {
            divides,
            bound_ns,
            fraction,
        }
    }
}

/// `BENCH_kernels.json`.
pub fn kernels_json(b: &KernelBench, fd: &DivideBound, physics: &DivideBound) -> Value {
    let ns = |p: &PathTimes, t: f64| rounded(p.ns_per_point(t), 1);
    let two =
        |p: &PathTimes| obj! { "reference" => ns(p, p.reference), "kernel" => ns(p, p.kernel) };
    let three = |p: &PathTimes| {
        let block = p.block.map_or(Value::Null, |blk| ns(p, blk));
        obj! { "reference" => ns(p, p.reference), "kernel" => ns(p, p.kernel), "block" => block }
    };
    let layouts = |config: &str, p: &PathTimes| {
        obj! {
            "config" => text(config),
            "ns_per_point" => three(p),
            "kernel_speedup" => rounded(p.kernel_speedup(), 2),
            "block_speedup" => rounded(p.block_speedup().unwrap_or(1.0), 2),
        }
    };
    let n_lev = GridSpec::paper_9_layer().n_lev;
    obj! {
        "benchmark" => text("dyn_kernels"),
        "stencil" => layouts("12 fields 32x32x32", &b.stencil),
        "advection" => layouts("144x90x9, block m=4", &b.advection),
        "tendency_step" => obj! {
            "config" => text("paper 9-layer, 1 rank, no filter"),
            "ns_per_point" => three(&b.step),
            "speedup" => rounded(b.step.kernel_speedup(), 2),
        },
        "fd_sweeps" => obj! {
            "config" => text("paper 9-layer, 1 rank, fd phase net of its halo exchange"),
            "ns_per_point" => two(&b.fd),
            "speedup" => rounded(b.fd.kernel_speedup(), 2),
            "divides_per_point" => count(fd.divides),
            "dispatch_target" => text(agcm_grid::dispatch::dispatch_target()),
            "divide_bound_ns_per_point" => rounded(fd.bound_ns, 1),
            "bound_fraction" => rounded(fd.fraction, 2),
        },
        "physics" => obj! {
            "config" => text("paper 9-layer, 1 rank, batch kernel vs run_column oracle"),
            "ns_per_column" => two(&b.physics),
            "speedup" => rounded(b.physics.kernel_speedup(), 2),
            "divides_per_column" => count(physics.divides),
            "bytes_per_column" => count(physics_bytes_per_column(n_lev)),
            "divide_bound_ns_per_column" => rounded(physics.bound_ns, 1),
            "bound_fraction" => rounded(physics.fraction, 2),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_sane_numbers() {
        let b = bench_stencil(1);
        assert!(b.reference > 0.0 && b.kernel > 0.0);
        assert!(b.kernel_speedup() > 0.0);
        assert!(b.block_speedup().unwrap() > 0.0);
        let s = bench_step(1, 1);
        assert!(s.reference > 0.0 && s.kernel > 0.0 && s.block.is_none());
        let f = bench_fd_sweeps(2);
        assert!(f.reference > 0.0 && f.kernel > 0.0 && f.points == 144 * 90 * 9);
        let p = bench_physics(1, 1);
        assert!(p.reference > 0.0 && p.kernel > 0.0 && p.points == 144 * 90);
        assert_eq!(physics_divides_per_column(9), 36);
        assert!(divide_seconds(1) > 0.0);
    }
}
