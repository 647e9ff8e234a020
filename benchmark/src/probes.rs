//! The per-layer ladder: one probe per layer, each timing a named public
//! call from outside (or counting what that call moves). The probes do not
//! depend on the workload; a traced run of any workload reports them all,
//! so a change in an end-to-end number can be laid beside the layer
//! numbers of the same process on the same machine.

use crate::inputs::{job_body, probe_data, TINY_GRID, TINY_STEPS};
use crate::model::{paper_config, tiny_config, SMOKE_STEPS, STEPS};
use crate::phases;
use crate::report::Outcome;
use crate::stats::{exact, quiet, Better, Summary};
use crate::{Budget, Scratch};
use agcm_ckptstore::Store;
use agcm_core::run_model;
use agcm_costmodel::machine::MachineProfile;
use agcm_costmodel::replay::replay;
use agcm_dynamics::core::{Dynamics, DynamicsConfig};
use agcm_dynamics::state::ModelState;
use agcm_dynamics::timestep::{max_stable_dt, signal_speed};
use agcm_ensemble::{Ensemble, EnsembleConfig, JobSpec, JobView};
use agcm_fft::batch::filter_lines_flat;
use agcm_fft::FftPlan;
use agcm_filtering::driver::{FilterVariant, PolarFilter};
use agcm_filtering::lines::FilterSetup;
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::Decomp;
use agcm_grid::halo::HaloField;
use agcm_grid::history::ByteOrder;
use agcm_grid::latlon::GridSpec;
use agcm_grid::metrics::MetricTables;
use agcm_kernels::advect::upwind_into;
use agcm_kernels::stencil::laplace_separate_into;
use agcm_kernels::HaloView;
use agcm_mps::collectives::Op;
use agcm_mps::message::Payload;
use agcm_mps::runtime::{run, run_traced};
use agcm_mps::topology::CartComm;
use agcm_mps::trace::WorldTrace;
use agcm_physics::balance::exec::run_balanced;
use agcm_physics::balance::scheme3::PairwiseExchange;
use agcm_physics::load::LoadTracker;
use agcm_physics::step::PhysicsStep;
use agcm_resilience::checkpoint::ModelCheckpoint;
use agcm_resilience::coordinator::CheckpointStore;
use agcm_server::client::get;
use agcm_server::{AgcmServer, Journal, ServerConfig};
use agcm_telemetry::json::Value;
use agcm_telemetry::RunMetrics;
use std::hint::black_box;
use std::time::Instant;

/// How long each probe samples.
#[derive(Clone, Copy)]
struct Scale {
    seconds: f64,
    min_batches: usize,
}

impl Scale {
    fn of(budget: &Budget) -> Scale {
        Scale {
            seconds: budget.pick(0.2, 0.0),
            min_batches: budget.pick(5, 2),
        }
    }

    /// Seconds per call of `f`, one sample per batch of `calls`, after one
    /// warm-up batch.
    fn sample(&self, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
        for _ in 0..calls {
            f();
        }
        let started = Instant::now();
        let mut out = Vec::new();
        while out.len() < self.min_batches || started.elapsed().as_secs_f64() < self.seconds {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            out.push(t.elapsed().as_secs_f64() / calls as f64);
        }
        out
    }

    /// The quiet quartile of [`Scale::sample`], scaled to a unit.
    fn time(&self, calls: usize, per_second: f64, f: impl FnMut()) -> Summary {
        scaled(&self.sample(calls, f), per_second)
    }
}

/// Seconds → unit (`1e3` for ms, `1e6` for µs, `1e9` for ns).
fn scaled(seconds: &[f64], per_second: f64) -> Summary {
    let v: Vec<f64> = seconds.iter().map(|s| s * per_second).collect();
    quiet(&v, Better::Lower)
}

/// Seconds per `bytes` → MB/s.
fn mbps(seconds: &[f64], bytes: usize) -> Summary {
    let v: Vec<f64> = seconds.iter().map(|s| bytes as f64 / 1e6 / s).collect();
    quiet(&v, Better::Higher)
}

/// Run every probe.
pub fn ladder(seed: u64, budget: &Budget, scratch: &Scratch) -> Outcome {
    let scale = &Scale::of(budget);
    let mut out = Outcome::default();
    type Probe<'a> = (&'a str, &'a dyn Fn(&mut Outcome));
    let probes: [Probe; 12] = [
        ("machine+kernels", &|out| {
            machine_and_kernels(seed, budget, scale, out)
        }),
        ("fft", &|out| fft(seed, scale, out)),
        ("grid", &|out| grid(scale, out)),
        ("filtering", &|out| filtering(scale, out)),
        ("dynamics", &|out| dynamics(scale, out)),
        ("physics", &|out| physics(seed, scale, out)),
        ("mps", &|out| mps(seed, scale, out)),
        ("counts", &|out| counts(budget, out)),
        ("checkpoints", &|out| checkpoints(scale, scratch, out)),
        ("ensemble", &|out| ensemble(scale, scratch, out)),
        ("replay+summary", &|out| {
            replay_and_summary(budget, scale, out)
        }),
        ("server", &|out| server(scale, scratch, out)),
    ];
    let mut spent = Vec::new();
    for (name, probe) in probes {
        let started = Instant::now();
        probe(&mut out);
        spent.push(format!("{name} {:.1}", started.elapsed().as_secs_f64()));
    }
    out.notes
        .push(format!("probe seconds: {}", spent.join(", ")));
    out
}

/// Size of the last-level cache of cpu0, from sysfs; 32 MiB if unreadable.
fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let bytes = digits.parse::<usize>().unwrap_or(0)
            * match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => 1,
            };
        let level = level.trim().parse().unwrap_or(0);
        if level > best.0 && bytes > 0 {
            best = (level, bytes);
        }
    }
    if best.1 == 0 {
        32 << 20
    } else {
        best.1
    }
}

/// Memory this process may still take: `MemAvailable`, or the cgroup's
/// limit if that is lower.
fn free_memory_bytes() -> usize {
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let available = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<usize>().ok())
        .map_or(usize::MAX, |kb| kb * 1024);
    let cgroup = std::fs::read_to_string("/sys/fs/cgroup/memory.max")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    available.min(cgroup)
}

/// A halo field filled, ghosts included, from seeded data.
fn seeded_halo(seed: u64, ni: usize, nj: usize, nk: usize) -> HaloField {
    let mut h = HaloField::zeros(ni, nj, nk, 1);
    let mut data = probe_data(seed, (ni + 2) * (nj + 2) * nk).into_iter();
    for k in 0..nk {
        for j in -1..=nj as isize {
            for i in -1..=ni as isize {
                h.set(i, j, k, 10.0 * data.next().expect("sized above"));
            }
        }
    }
    h
}

/// STREAM triad for the roofline, then the two kernels the dynamics spends
/// its finite-difference time in.
fn machine_and_kernels(seed: u64, budget: &Budget, scale: &Scale, out: &mut Outcome) {
    // Each array at least four times the last-level cache, so the triad
    // streams from memory — unless the machine cannot spare a quarter of
    // its free memory for the three of them. The smoke run only checks
    // the plumbing.
    let llc = llc_bytes();
    let spare = free_memory_bytes() / 4 / 3;
    let n = budget.pick((4 * llc).min(spare), 1 << 20) / 8;
    let (b, c) = (probe_data(seed, n), probe_data(seed + 1, n));
    let mut a = vec![0.0f64; n];
    let triad = scale.sample(1, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
    });
    let gbps: Vec<f64> = triad.iter().map(|s| 24.0 * n as f64 / 1e9 / s).collect();
    let triad = quiet(&gbps, Better::Higher);
    out.notes.push(format!(
        "machine: last-level cache {:.1} MiB; triad arrays 3 x {:.1} MiB ({}), one thread",
        llc as f64 / (1 << 20) as f64,
        (8 * n) as f64 / (1 << 20) as f64,
        if 8 * n >= 4 * llc {
            "at least 4x the cache"
        } else {
            "UNDER 4x the cache: memory-limited or smoke"
        }
    ));
    out.put("machine.triad_gbps", triad);
    drop((a, b, c));

    let (ni, nj, nk) = (144, 90, 9);
    let points = ni * nj * nk;
    let tables = MetricTables::new(&GridSpec::new(ni, nj, nk), 0, nj);
    let [q, u, v] = [0, 1, 2].map(|s| seeded_halo(seed + s, ni, nj, nk));
    let mut tendency = vec![0.0; points];
    let upwind = scale.sample(4, || {
        upwind_into(
            &HaloView::of(black_box(&q)),
            &HaloView::of(black_box(&u)),
            &HaloView::of(black_box(&v)),
            &tables,
            black_box(&mut tendency),
        );
    });
    let upwind = scaled(&upwind, 1e9 / points as f64);
    // Three padded inputs read once and one output written once.
    let bytes_per_pt = (3 * q.padded().len() + points) as f64 * 8.0 / points as f64;
    out.put("kernels.upwind_ns_per_pt", upwind);
    out.put("kernels.upwind_bytes_per_pt", exact(bytes_per_pt));
    out.put(
        "kernels.upwind_bw_frac",
        exact(bytes_per_pt / upwind.value / triad.value),
    );

    let fields: Vec<Vec<f64>> = (0..12)
        .map(|f| probe_data(seed + 10 + f, 32 * 32 * 32))
        .collect();
    let refs: Vec<&[f64]> = fields.iter().map(Vec::as_slice).collect();
    let mut lap = vec![0.0; 32 * 32 * 32];
    let laplace = scale.time(8, 1e9 / (32.0 * 32.0 * 32.0), || {
        laplace_separate_into(black_box(&refs), (32, 32, 32), black_box(&mut lap));
    });
    out.put("kernels.laplace_ns_per_pt", laplace);
}

/// The polar filter's inner loop: 36 lines of 144 points, one multiplier.
fn fft(seed: u64, scale: &Scale, out: &mut Outcome) {
    let (n, lines) = (144, 36);
    let plan = FftPlan::new(n);
    let mut ws = plan.workspace();
    let multiplier: Vec<f64> = (0..n)
        .map(|k| 1.0 / (1.0 + 0.3 * k.min(n - k) as f64))
        .collect();
    let mut buf = probe_data(seed, n * lines);
    let per_batch = scale.time(16, 1e9 / lines as f64, || {
        filter_lines_flat(&plan, black_box(&mut buf), &multiplier, &mut ws);
    });
    out.put("fft.filter_ns_per_line", per_batch);
}

/// Per-rank results of a two-rank probe: rank 0's samples.
fn rank0<T>(mut per_rank: Vec<T>) -> T {
    per_rank.swap_remove(0)
}

/// Ghost-point exchange of one 72×90×9 subdomain on a 1×2 mesh.
fn grid(scale: &Scale, out: &mut Outcome) {
    let samples = run(2, |comm| {
        let cart = CartComm::new(comm, 1, 2, (false, true));
        let mut h = seeded_halo(comm.rank() as u64, 72, 90, 9);
        lockstep(comm, scale, 8, || h.exchange(&cart))
    });
    out.put("grid.halo_exchange_us", scaled(&rank0(samples), 1e6));
    let (_, trace) = run_traced(2, |comm| {
        let cart = CartComm::new(comm, 1, 2, (false, true));
        seeded_halo(comm.rank() as u64, 72, 90, 9).exchange(&cart);
    });
    out.put("grid.halo_bytes", exact(trace.total_bytes() as f64));
}

/// [`Scale::sample`] for a collective call: rank 0 decides after each batch
/// whether another follows, so every rank makes the same number of calls.
fn lockstep(comm: &agcm_mps::Comm, scale: &Scale, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..calls {
        f();
    }
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        out.push(t.elapsed().as_secs_f64() / calls as f64);
        let more = out.len() < scale.min_batches || started.elapsed().as_secs_f64() < scale.seconds;
        if comm.bcast_i64(0, &[i64::from(more)])[0] == 0 {
            return out;
        }
    }
}

/// `PolarFilter::apply` (LB-FFT) on the fields `Dynamics::step` hands it,
/// on one rank (self-wrap only) and on two (real transposes).
fn filtering(scale: &Scale, out: &mut Outcome) {
    let grid = GridSpec::paper_9_layer();
    let apply = |mesh_lon: usize, timed: bool| {
        let decomp = Decomp::new(grid, 1, mesh_lon);
        run_traced(mesh_lon, |comm| {
            let cart = CartComm::new(comm, 1, mesh_lon, (false, true));
            let setup = FilterSetup::new(grid, decomp);
            let filter = PolarFilter::new(&setup, FilterVariant::LbFft);
            let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(comm.rank()));
            let mut once =
                || comm.phase("filter", || filter.apply(&setup, &cart, &mut state.fields));
            if timed {
                lockstep(comm, scale, 2, once)
            } else {
                once();
                Vec::new()
            }
        })
    };
    out.put(
        "filtering.apply_ms_1x1",
        scaled(&rank0(apply(1, true).0), 1e3),
    );
    out.put(
        "filtering.apply_ms_1x2",
        scaled(&rank0(apply(2, true).0), 1e3),
    );
    // One untimed application on its own, so the counts are the filter's
    // alone and not the probe's lockstep traffic.
    let (_, trace) = apply(2, false);
    out.put(
        "filtering.msgs_per_apply",
        exact(trace.total_messages() as f64),
    );
    out.put(
        "filtering.bytes_per_apply",
        exact(trace.total_bytes() as f64),
    );
    let share = (0..2)
        .map(|rank| {
            let ps = phases::phases(&trace, rank);
            let redist = phases::total(&ps, |p| p.name == "redist_fwd" || p.name == "redist_bwd");
            redist / phases::total(&ps, |p| p.name == "filter")
        })
        .fold(0.0, f64::max);
    out.put("filtering.redist_share", exact(share));
}

/// One unfiltered dynamics step on one rank, with and without its
/// (self-wrapping) halo exchange. The timestep respects the unfiltered
/// polar CFL limit, so the state stays finite however long the probe runs.
fn dynamics(scale: &Scale, out: &mut Outcome) {
    let grid = GridSpec::paper_9_layer();
    let decomp = Decomp::new(grid, 1, 1);
    let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
    let (step, compute) = rank0(run(1, |comm| {
        let cart = CartComm::new(comm, 1, 1, (false, true));
        let core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, None));
        let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(0));
        let step = scale.time(2, 1e3, || core.step(&cart, black_box(&mut state)));
        let compute = scale.time(2, 1e9 / grid.points() as f64, || {
            core.compute_step_no_comm(black_box(&mut state))
        });
        (step, compute)
    }));
    out.put("dynamics.step_nofilter_ms", step);
    out.put("dynamics.compute_ns_per_pt", compute);
}

/// Column physics on one rank, the balanced pass on two, and the planner.
fn physics(seed: u64, scale: &Scale, out: &mut Outcome) {
    let grid = GridSpec::paper_9_layer();
    let cfg = paper_config(2, 1);
    let local = rank0(run(1, |comm| {
        let sub = Decomp::new(grid, 1, 1).subdomain_of_rank(0);
        let step = PhysicsStep::new(grid, sub);
        let mut state = ModelState::initial(grid, sub);
        let mut t = 0.0;
        scale.sample(1, || {
            step.run_local(comm, &mut state.fields[Variable::Theta.index()], t);
            t += cfg.dt;
        })
    }));
    out.put("physics.run_local_ms", scaled(&local, 1e3));
    out.put(
        "physics.ns_per_column",
        scaled(&local, 1e9 / grid.columns() as f64),
    );

    let balanced = rank0(run(2, |comm| {
        let sub = Decomp::new(grid, 1, 2).subdomain_of_rank(comm.rank());
        let mut state = ModelState::initial(grid, sub);
        let theta = &mut state.fields[Variable::Theta.index()];
        let mut tracker = LoadTracker::new();
        tracker.record(PhysicsStep::new(grid, sub).run_local(comm, theta, 0.0));
        let mut t = cfg.dt;
        // The balanced pass as the model runs it: estimates, plan, exchange.
        lockstep(comm, scale, 1, || {
            let loads = tracker
                .gather_estimates(comm)
                .expect("every rank has history");
            let plan: Vec<_> = PairwiseExchange::default()
                .plan_rounds(&loads, cfg.balance_target, cfg.balance_rounds)
                .into_iter()
                .flatten()
                .collect();
            let pass = run_balanced(comm, &grid, &sub, theta, t, &plan);
            tracker.record(pass.owned);
            t += cfg.dt;
        })
    }));
    out.put("physics.balanced_ms", scaled(&balanced, 1e3));

    let loads: Vec<f64> = probe_data(seed, 252).iter().map(|x| x * 1e6).collect();
    let plan = scale.time(32, 1e6, || {
        black_box(PairwiseExchange::default().plan_rounds(black_box(&loads), 0.06, 2));
    });
    out.put("physics.plan_us", plan);
}

/// Latency, bandwidth and the collectives the model leans on, two ranks.
fn mps(seed: u64, scale: &Scale, out: &mut Outcome) {
    let big = probe_data(seed, (1 << 20) / 8);
    let transposed = probe_data(seed, 1_300_000 / 8);
    let per_rank = run(2, |comm| {
        let peer = 1 - comm.rank();
        // A round trip; one-way time is half of it.
        let pingpong = |payload: &[f64]| {
            lockstep(comm, scale, 16, || {
                if comm.rank() == 0 {
                    comm.send(peer, 7, Payload::F64(payload.to_vec()));
                    black_box(comm.recv(peer, 7));
                } else {
                    let got = comm.recv(peer, 7);
                    comm.send(peer, 7, got.payload);
                }
            })
        };
        let small = pingpong(&[1.0]);
        let large = pingpong(&big);
        let allreduce = lockstep(comm, scale, 64, || {
            black_box(comm.allreduce_f64(Op::Sum, &[comm.rank() as f64]));
        });
        let barrier = lockstep(comm, scale, 64, || comm.barrier());
        let alltoallv = lockstep(comm, scale, 2, || {
            let send = (0..2).map(|_| Payload::F64(transposed.clone())).collect();
            black_box(comm.alltoallv(send));
        });
        (small, large, allreduce, barrier, alltoallv)
    });
    let (small, large, allreduce, barrier, alltoallv) = rank0(per_rank);
    out.put("mps.pingpong_us", scaled(&small, 1e6 / 2.0));
    let one_way: Vec<f64> = large.iter().map(|s| s / 2.0).collect();
    out.put("mps.pingpong_mbps", mbps(&one_way, 1 << 20));
    out.put("mps.allreduce_us", scaled(&allreduce, 1e6));
    out.put("mps.barrier_us", scaled(&barrier, 1e6));
    out.put("mps.alltoallv_ms", scaled(&alltoallv, 1e3));
    out.put(
        "mps.world_spawn_us",
        scale.time(8, 1e6, || {
            black_box(run(2, |comm| comm.rank()));
        }),
    );
}

/// Exact counts per steady step: a 2N-step run minus an N-step run, so
/// what set-up sends is not charged to the steps.
fn counts(budget: &Budget, out: &mut Outcome) {
    let n = budget.pick(10, 4);
    let per_step = |mesh: (usize, usize), balance: bool| {
        let mut cfg = agcm_core::AgcmConfig::paper(mesh.0, mesh.1, FilterVariant::LbFft);
        if balance {
            cfg = cfg.with_physics_balancing();
        }
        let (short, long) = (
            run_model(cfg.with_steps(n)),
            run_model(cfg.with_steps(2 * n)),
        );
        let per =
            |f: fn(&WorldTrace) -> usize| (f(&long.trace) - f(&short.trace)) as f64 / n as f64;
        (
            per(WorldTrace::total_messages),
            per(WorldTrace::total_bytes),
            long,
        )
    };
    let (msgs, bytes, _) = per_step((1, 1), false);
    out.put("mps.msgs_per_step_1x1", exact(msgs));
    out.put("mps.bytes_per_step_1x1", exact(bytes));
    let (msgs, bytes, _) = per_step((1, 2), true);
    out.put("mps.msgs_per_step_1x2", exact(msgs));
    out.put("mps.bytes_per_step_1x2", exact(bytes));
    let (msgs, bytes, balanced) = per_step((2, 3), true);
    out.put("mps.msgs_per_step_2x3", exact(msgs));
    out.put("mps.bytes_per_step_2x3", exact(bytes));

    // Physics imbalance at the last step of the 2x3 run, without and with
    // scheme 3 (on 1x2 the two halves of the globe differ by under 2 %).
    let (_, _, unbalanced) = per_step((2, 3), false);
    out.put(
        "physics.imbalance_before",
        exact(unbalanced.physics_imbalance(2 * n - 1)),
    );
    out.put(
        "physics.imbalance_after",
        exact(balanced.physics_imbalance(2 * n - 1)),
    );
}

/// One rank's paper-grid checkpoint (≈5.6 MB), `scale`d so that no two
/// variants share a chunk.
fn paper_checkpoint(step: u64, factor: f64) -> ModelCheckpoint {
    let grid = GridSpec::paper_9_layer();
    let mut state = ModelState::initial(grid, Decomp::new(grid, 1, 1).subdomain_of_rank(0));
    for f in &mut state.fields {
        f.as_mut_slice().iter_mut().for_each(|v| *v *= factor);
    }
    ModelCheckpoint {
        rank: 0,
        world: 1,
        step,
        seeds: Vec::new(),
        scalars: vec![0.0, 0.0],
        series: Vec::new(),
        fields: state.fields,
    }
}

/// Checkpoint encode/decode, the directory store's commit, and the
/// content-addressed store's put/get/commit/gc/open.
fn checkpoints(scale: &Scale, scratch: &Scratch, out: &mut Outcome) {
    let ckpt = paper_checkpoint(10, 1.0);
    let record = ckpt.encode(ByteOrder::Little);
    let bytes = record.len();
    out.notes.push(format!(
        "checkpoint shard: {:.2} MB encoded",
        bytes as f64 / 1e6
    ));
    let encode = scale.sample(1, || {
        black_box(ckpt.encode(ByteOrder::Little));
    });
    out.put("resilience.encode_mbps", mbps(&encode, bytes));
    let decode = scale.sample(1, || {
        black_box(ModelCheckpoint::decode(black_box(&record)).expect("own record decodes"));
    });
    out.put("resilience.decode_mbps", mbps(&decode, bytes));

    let dir_store = CheckpointStore::new(scratch.path().join("dir-store"));
    let mut shard = ckpt.clone();
    let commit = scale.time(1, 1e3, || {
        shard.step += 10;
        dir_store.write_shard(&shard).expect("shard written");
        dir_store.commit(shard.step, 1).expect("commit");
    });
    out.put("resilience.dir_commit_ms", commit);
    let _ = std::fs::remove_dir_all(dir_store.root());

    // Cold puts need content the store has never seen: one variant each.
    let root = scratch.path().join("cas-store");
    let store = Store::open(&root).expect("store opens");
    let variants: Vec<Vec<u8>> = (0..scale.min_batches.max(3))
        .map(|k| paper_checkpoint(10, 1.0 + (k + 1) as f64 * 1e-3).encode(ByteOrder::Little))
        .collect();
    let time_each = |f: &mut dyn FnMut(usize, &[u8])| -> Vec<f64> {
        variants
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let t = Instant::now();
                f(k, v);
                t.elapsed().as_secs_f64()
            })
            .collect()
    };
    let lineage = |k: usize| 0xc01d_0000 + k as u64;
    let cold = time_each(&mut |k, v| store.put_shard(lineage(k), 10, 0, 1, v).expect("cold put"));
    let commit = time_each(&mut |k, _| store.commit(lineage(k), 10, 1).expect("commit"));
    // The same bytes under the next step: every chunk is already there.
    let dedup = time_each(&mut |k, v| store.put_shard(lineage(k), 20, 0, 1, v).expect("dedup put"));
    let get = time_each(&mut |k, _| {
        black_box(store.get_shard(lineage(k), 10, 0).expect("get"));
    });
    out.put("ckptstore.put_mbps_cold", mbps(&cold, bytes));
    out.put("ckptstore.put_mbps_dedup", mbps(&dedup, bytes));
    out.put("ckptstore.get_mbps", mbps(&get, bytes));
    out.put("ckptstore.commit_ms", scaled(&commit, 1e3));
    let stats = store.stats();
    out.put(
        "ckptstore.dedup_ratio",
        exact(stats.bytes_deduped as f64 / stats.bytes_ingested as f64),
    );
    // Nothing holds a lease, so one pass reclaims every lineage.
    let started = Instant::now();
    let reclaimed = store.gc().expect("gc");
    out.put(
        "ckptstore.gc_ms",
        exact(started.elapsed().as_secs_f64() * 1e3),
    );
    out.check(reclaimed.lineages.len() == variants.len(), || {
        format!(
            "gc reclaimed {} of {} lineages",
            reclaimed.lineages.len(),
            variants.len()
        )
    });

    // Reopen with 200 manifests: what a restarted server replays.
    for step in 0..200u64 {
        let small = probe_data(step, 512);
        let small: Vec<u8> = small.iter().flat_map(|v| v.to_le_bytes()).collect();
        store
            .put_shard(0x0be4, step, 0, 1, &small)
            .expect("small put");
        store.commit(0x0be4, step, 1).expect("small commit");
    }
    drop(store);
    let open = scale.time(1, 1e3, || {
        black_box(Store::open(&root).expect("store reopens"));
    });
    out.put("ckptstore.open_ms", open);
    let _ = std::fs::remove_dir_all(&root);
}

/// The tiny job of `serve_small`, submitted to the scheduler in-process:
/// admission, dispatch, world spawn, the run and its trace replay, with no
/// HTTP and no journal.
fn ensemble(scale: &Scale, scratch: &Scratch, out: &mut Outcome) {
    let ens = Ensemble::start(EnsembleConfig {
        rank_budget: 2,
        ..EnsembleConfig::default()
    });
    let dir = scratch.path().join("ensemble");
    let mut failed = 0;
    let job = scale.time(8, 1e6, || {
        let spec = JobSpec::new("probe", tiny_config()).with_checkpoint_dir(&dir);
        let id = ens.submit(spec).expect("tiny job admitted");
        loop {
            match ens.status(id) {
                Some(JobView::Done(record)) => {
                    failed += usize::from(record.status.label() != "completed");
                    break;
                }
                _ => std::thread::yield_now(),
            }
        }
    });
    out.check(failed == 0, || {
        format!("{failed} in-process tiny jobs did not complete")
    });
    out.put("ensemble.tiny_job_us", job);
    drop(ens);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the scheduler does once per served job after the run: replay the
/// trace through the cost model and summarize it.
fn replay_and_summary(budget: &Budget, scale: &Scale, out: &mut Outcome) {
    let machine = MachineProfile::t3d();
    let tiny = run_model(tiny_config()).trace;
    let big = run_model(paper_config(2, budget.pick(STEPS, SMOKE_STEPS))).trace;
    out.put(
        "costmodel.replay_tiny_us",
        scale.time(8, 1e6, || {
            black_box(replay(&tiny, &machine));
        }),
    );
    out.put(
        "costmodel.replay_1x2_ms",
        scale.time(1, 1e3, || {
            black_box(replay(&big, &machine));
        }),
    );
    out.put(
        "telemetry.summary_tiny_us",
        scale.time(8, 1e6, || {
            black_box(RunMetrics::from_trace(&tiny, &machine).expect("valid phases"));
        }),
    );
    out.put(
        "telemetry.summary_1x2_ms",
        scale.time(1, 1e3, || {
            black_box(RunMetrics::from_trace(&big, &machine).expect("valid phases"));
        }),
    );
}

/// The HTTP round trip and the journal, without a job behind them.
fn server(scale: &Scale, scratch: &Scratch, out: &mut Outcome) {
    let dir = scratch.path().join("probe-journal");
    let srv = AgcmServer::start(ServerConfig {
        journal_dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("probe server starts");
    let addr = srv.local_addr();
    let mut refused = 0;
    let healthz = scale.time(16, 1e6, || match get(addr, "/healthz") {
        Ok(resp) if resp.status == 200 => {}
        _ => refused += 1,
    });
    out.check(refused == 0, || {
        format!("{refused} /healthz requests failed")
    });
    out.put("server.healthz_us", healthz);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // 4000 submitted + 4000 terminal records: what a restart replays after
    // five busy `serve_small` segments without a compaction.
    let spec = Value::parse(&job_body("probe", TINY_GRID, TINY_STEPS, 0)).expect("own body parses");
    let (journal, _, _) = Journal::open(&dir).expect("journal opens");
    let mut id = 0;
    let append = scale.time(64, 1e6, || {
        id += 1;
        journal.submitted(id, None, Some("00-probe"), &spec);
    });
    out.put("server.journal_append_us", append);
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    let (journal, _, _) = Journal::open(&dir).expect("journal opens");
    for id in 1..=4000 {
        journal.submitted(id, None, Some("00-probe"), &spec);
        journal.rejected(id, "probe");
    }
    let log = std::fs::read(journal.path()).expect("log readable");
    let path = journal.path().to_path_buf();
    drop(journal);
    let replay: Vec<f64> = (0..scale.min_batches.max(3))
        .map(|_| {
            // `open` compacts the log, so put the 8000 records back first.
            std::fs::write(&path, &log).expect("log restored");
            let started = Instant::now();
            let (_, live, stats) = Journal::open(&dir).expect("journal reopens");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            assert!(
                live.is_empty() && stats.lines >= 8000,
                "replayed {} lines",
                stats.lines
            );
            ms
        })
        .collect();
    out.put("server.journal_replay_ms", quiet(&replay, Better::Lower));
    let _ = std::fs::remove_dir_all(&dir);
}
