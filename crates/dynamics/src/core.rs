//! The Dynamics driver: filter → halo exchange → finite differences.
//!
//! One call to [`Dynamics::step`] is one model timestep of the Dynamics
//! component (paper §2): the polar spectral filter runs first ("the
//! spectral filtering is performed at each time step before the
//! finite-difference procedures are called", §3.3), ghost points are
//! exchanged, and the multi-layer shallow-water equations advance with a
//! forward-backward scheme (mass first, then winds against the updated
//! mass field — stable for gravity waves up to CFL 1).
//!
//! Every phase is bracketed in the execution trace ("filter", "halo",
//! "fd"), which is how Figure 1 and Tables 4–7 are regenerated. Inside
//! "fd" the compute is three row-fused sweeps, sub-bracketed as
//! "dyn.tendencies" (the continuity sweep, then — after the nested "halo"
//! of `h*` — the momentum sweep) and "dyn.advection" (the tracer sweep).
//! The momentum sweep computes the winds' upwind self-advection in the
//! same pass as the gradients and the update, so those `2·UPWIND` flops
//! per point are charged to "dyn.tendencies" with it; "dyn.advection"
//! carries the two tracers. Phases accumulate inclusively in the
//! cost-model replay and the per-step flop total is the same sum, so the
//! outer "fd" accounting is unchanged.
//!
//! The production [`Dynamics::step`] runs the §4-optimized sweeps from
//! `agcm-kernels` over a reusable [`DynScratch`] workspace (zero heap
//! allocations once warmed up); [`Dynamics::step_reference`] keeps the
//! original allocating `from_fn` operators. Both paths are bit-identical
//! — enforced by the equivalence tests below and in `tests/fd_sweeps.rs`.
//!
//! The state's fields carry their ghost frame, and the step never copies
//! one: it swaps each swept field with its previous-state buffer in the
//! scratch (O(1)), exchanges the ghosts of those buffers — which now hold
//! the current state — and the sweeps write the new state out of place
//! from them. `h*` is the new thickness field itself, its ghosts exchanged
//! in place. Pressure is not advanced, so it is neither swapped nor
//! exchanged.

use crate::advection::upwind_tendency;
use crate::state::ModelState;
use crate::tendencies::{coriolis_param, flops, flux_divergence, grad_x, grad_y};
use crate::timestep::GRAVITY;
use agcm_filtering::driver::{FilterOrganization, FilterVariant, PolarFilter};
use agcm_filtering::lines::FilterSetup;
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::{Decomp, Subdomain};
use agcm_grid::halo::{exchange_all, HaloField};
use agcm_grid::latlon::GridSpec;
use agcm_kernels::sweeps::{continuity_sweep, momentum_sweep, tracer_sweep};
use agcm_kernels::{DynScratch, HaloView};
use agcm_mps::topology::CartComm;
use std::cell::RefCell;

/// The variables the sweeps advance, in the order of
/// [`DynScratch::prev`]. Pressure is carried unchanged.
const SWEPT: [Variable; 5] = [
    Variable::U,
    Variable::V,
    Variable::Theta,
    Variable::Humidity,
    Variable::Ozone,
];

/// Position of swept variable `v` in [`SWEPT`].
fn slot(v: Variable) -> usize {
    SWEPT
        .iter()
        .position(|&s| s == v)
        .expect("the sweeps advance this variable")
}

/// Configuration of the dynamical core.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsConfig {
    /// Timestep in seconds.
    pub dt: f64,
    /// Gravitational acceleration (m/s²).
    pub gravity: f64,
    /// Polar filter variant, or `None` to run unfiltered (unstable unless
    /// `dt` respects the polar CFL limit).
    pub filter: Option<FilterVariant>,
    /// Variable organization of the FFT filter variants (aggregated; the
    /// pre-§3.3 per-variable one is kept for the message-count comparison).
    pub filter_organization: FilterOrganization,
}

impl DynamicsConfig {
    /// A configuration with the standard gravity and the chosen filter
    /// (aggregated organization).
    pub fn new(dt: f64, filter: Option<FilterVariant>) -> DynamicsConfig {
        DynamicsConfig {
            dt,
            gravity: GRAVITY,
            filter,
            filter_organization: FilterOrganization::default(),
        }
    }

    /// Override the filter's variable organization.
    pub fn with_filter_organization(mut self, organization: FilterOrganization) -> DynamicsConfig {
        self.filter_organization = organization;
        self
    }
}

/// The per-rank Dynamics component.
pub struct Dynamics {
    grid: GridSpec,
    cfg: DynamicsConfig,
    setup: FilterSetup,
    filter: Option<PolarFilter>,
    /// Reusable kernel workspace (per rank; `Dynamics` is built inside
    /// each rank's thread, so interior mutability needs no `Sync`).
    scratch: RefCell<DynScratch>,
}

impl Dynamics {
    /// Build the component (precomputes the filter setup — the paper's
    /// once-per-run bookkeeping).
    pub fn new(grid: GridSpec, decomp: Decomp, cfg: DynamicsConfig) -> Dynamics {
        let setup = FilterSetup::new(grid, decomp);
        let filter = cfg
            .filter
            .map(|v| PolarFilter::with_organization(&setup, v, cfg.filter_organization));
        Dynamics {
            grid,
            cfg,
            setup,
            filter,
            scratch: RefCell::new(DynScratch::new()),
        }
    }

    /// The filter setup (shared bookkeeping).
    pub fn setup(&self) -> &FilterSetup {
        &self.setup
    }

    /// Size the scratch for `sub`, refreshing the Coriolis table whenever
    /// the buffers were (re)built. No-op after the first step.
    fn ensure_scratch(&self, scratch: &mut DynScratch, sub: Subdomain) {
        if scratch.ensure(&self.grid, sub.j0, sub.ni, sub.nj, SWEPT.len()) {
            for (j, f) in scratch.f_cor.iter_mut().enumerate() {
                *f = coriolis_param(self.grid.latitude(sub.j0 + j));
            }
        }
    }

    /// Swap each swept field of `state` with its previous-state buffer:
    /// the buffers now hold the current state, ghosts still to exchange,
    /// and the state holds storage the sweeps overwrite.
    fn swap_in(scratch: &mut DynScratch, state: &mut ModelState) {
        for (prev, &v) in scratch.prev.iter_mut().zip(&SWEPT) {
            let field = state.field_mut(v);
            assert_eq!(field.shape(), prev.shape(), "state shape mismatch");
            std::mem::swap(field, prev);
        }
    }

    /// The finite-difference phase: the three forward-backward sweeps
    /// from the previous-state buffers into `state`. With a mesh each
    /// sweep is bracketed and charged in the trace and `h*` is exchanged
    /// between continuity and momentum; without one
    /// ([`Dynamics::compute_step_no_comm`]) nothing is traced and the `h*`
    /// ghosts stay as they are.
    fn fd_sweeps(&self, cart: Option<&CartComm>, scratch: &mut DynScratch, state: &mut ModelState) {
        let sub = state.sub;
        let npts = (sub.ni * sub.nj * self.grid.n_lev) as f64;
        let dt = self.cfg.dt;
        let traced = |name: &'static str, flops_per_pt: f64, sweep: &mut dyn FnMut()| match cart {
            Some(cart) => cart.comm().phase(name, || {
                sweep();
                cart.comm().record_flops(flops_per_pt * npts);
            }),
            None => sweep(),
        };
        let DynScratch {
            prev,
            tables,
            f_cor,
            rows,
            ..
        } = scratch;
        let old = |v: Variable| HaloView::of(&prev[slot(v)]);
        let (u_h, v_h) = (old(Variable::U), old(Variable::V));

        // 1. Continuity: h* = h − dt·∇·(h·u), the new thickness field.
        traced("dyn.tendencies", flops::FLUX_DIV + 2.0, &mut || {
            let theta = state.field_mut(Variable::Theta);
            continuity_sweep(&old(Variable::Theta), &u_h, &v_h, tables, dt, theta, rows);
        });

        // Refresh the thickness halo with the updated field (backward
        // part of forward-backward): the state's own ghost frame.
        if let Some(cart) = cart {
            let hstar = state.field_mut(Variable::Theta);
            cart.comm().phase("halo", || hstar.exchange(cart));
        }

        // 2. Momentum: Coriolis + pressure gradient on h* + advection.
        let momentum_flops = 2.0 * (flops::GRAD + flops::UPWIND + flops::MOMENTUM);
        traced("dyn.tendencies", momentum_flops, &mut || {
            // u, v mutably and h* at once: split the field vec at θ's index.
            let (winds, rest) = state.fields.split_at_mut(Variable::Theta.index());
            let [u, v] = winds else {
                unreachable!("u and v precede θ")
            };
            let hs = HaloView::of(&rest[0]);
            let g = self.cfg.gravity;
            momentum_sweep(&hs, &u_h, &v_h, tables, f_cor, dt, g, u, v, rows);
        });

        // 3. Tracers: upwind advection by the old winds.
        traced("dyn.advection", 2.0 * (flops::UPWIND + 2.0), &mut || {
            let (left, right) = state.fields.split_at_mut(Variable::Ozone.index());
            let mut tracers = [
                (
                    old(Variable::Humidity),
                    &mut left[Variable::Humidity.index()],
                ),
                (old(Variable::Ozone), &mut right[0]),
            ];
            tracer_sweep(&u_h, &v_h, tables, dt, &mut tracers, rows);
        });
    }

    /// Advance the local state by one timestep. Collective over the mesh.
    ///
    /// This is the optimized path: the fused `agcm-kernels` sweeps over the
    /// reusable scratch, bit-identical to [`Dynamics::step_reference`].
    pub fn step(&self, cart: &CartComm, state: &mut ModelState) {
        let comm = cart.comm();

        // --- Spectral filtering. ------------------------------------------
        if let Some(filter) = &self.filter {
            comm.phase("filter", || {
                filter.apply(&self.setup, cart, &mut state.fields)
            });
        }

        let sub = state.sub;
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        self.ensure_scratch(scratch, sub);

        // --- Ghost-point exchange (communication phase). -------------------
        // The five swept fields in one exchange: each phase's sends are
        // posted before its first receive, so they share one round trip.
        Self::swap_in(scratch, state);
        comm.phase("halo", || exchange_all(&mut scratch.prev, cart));

        // --- Finite differences (forward-backward). ------------------------
        comm.phase("fd", || self.fd_sweeps(Some(cart), scratch, state));
    }

    /// The per-step sweep sequence with **no communication and no trace
    /// events**: the state is swapped into the previous-state buffers as
    /// in [`Dynamics::step`], but their ghosts keep whatever the swapped-in
    /// storage held (neighbour data from an earlier real step, zeros on a
    /// fresh state) and h* is not re-exchanged. Not a substitute for
    /// `step` — it exists so the counting-allocator test and the kernel
    /// benchmarks can drive the hot compute path in isolation.
    pub fn compute_step_no_comm(&self, state: &mut ModelState) {
        let sub = state.sub;
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        self.ensure_scratch(scratch, sub);
        Self::swap_in(scratch, state);
        self.fd_sweeps(None, scratch, state);
    }

    /// The original `from_fn` timestep, kept verbatim as the bit-exact
    /// reference for the kernel path (and as the baseline the committed
    /// kernel benchmarks measure against). Allocates fresh halos and
    /// tendency fields every call.
    pub fn step_reference(&self, cart: &CartComm, state: &mut ModelState) {
        let comm = cart.comm();

        // --- Spectral filtering. ------------------------------------------
        if let Some(filter) = &self.filter {
            comm.phase("filter", || {
                filter.apply(&self.setup, cart, &mut state.fields)
            });
        }

        // --- Ghost-point exchange (communication phase). -------------------
        let sub = state.sub;
        let mut halos: Vec<HaloField> = comm.phase("halo", || {
            Variable::ALL
                .iter()
                .map(|&v| {
                    let mut h = state.field(v).clone();
                    h.exchange(cart);
                    h
                })
                .collect()
        });

        // --- Finite differences (forward-backward). ------------------------
        comm.phase("fd", || {
            let dt = self.cfg.dt;
            let g = self.cfg.gravity;
            let (u_h, v_h) = (&halos[Variable::U.index()], &halos[Variable::V.index()]);
            let h_h = &halos[Variable::Theta.index()];
            let npts = (sub.ni * sub.nj * self.grid.n_lev) as f64;

            // 1. Continuity, flux form: h* = h − dt·∇·(h·u).
            let div = flux_divergence(h_h, u_h, v_h, &self.grid, sub.j0);
            let mut h_new = state.field(Variable::Theta).clone();
            for (hv, dv) in h_new.interior_rows_mut().flatten().zip(div.as_slice()) {
                *hv -= dt * dv;
            }
            comm.record_flops((flops::FLUX_DIV + 2.0) * npts);

            // Refresh the thickness halo with the updated field (backward
            // part of forward-backward).
            let mut hstar = h_new.clone();
            comm.phase("halo", || hstar.exchange(cart));

            // 2. Momentum: Coriolis + pressure gradient on h* + advection.
            let dhdx = grad_x(&hstar, &self.grid, sub.j0);
            let dhdy = grad_y(&hstar, &self.grid, sub.j0);
            let adv_u = upwind_tendency(u_h, u_h, v_h, &self.grid, sub.j0);
            let adv_v = upwind_tendency(v_h, u_h, v_h, &self.grid, sub.j0);
            comm.record_flops((2.0 * flops::GRAD + 2.0 * flops::UPWIND) * npts);

            let mut u_new = state.field(Variable::U).clone();
            let mut v_new = state.field(Variable::V).clone();
            for k in 0..self.grid.n_lev {
                for j in 0..sub.nj {
                    let f = coriolis_param(self.grid.latitude(sub.j0 + j));
                    for i in 0..sub.ni {
                        let (ii, jj) = (i as isize, j as isize);
                        let (uu, vv) = (u_new.get(ii, jj, k), v_new.get(ii, jj, k));
                        u_new.set(
                            ii,
                            jj,
                            k,
                            uu + dt * (f * vv - g * dhdx.get(i, j, k) + adv_u.get(i, j, k)),
                        );
                        v_new.set(
                            ii,
                            jj,
                            k,
                            vv + dt * (-f * uu - g * dhdy.get(i, j, k) + adv_v.get(i, j, k)),
                        );
                    }
                }
            }
            comm.record_flops(2.0 * flops::MOMENTUM * npts);

            // 3. Tracers: upwind advection by the old winds.
            for tracer in [Variable::Humidity, Variable::Ozone] {
                let adv = upwind_tendency(&halos[tracer.index()], u_h, v_h, &self.grid, sub.j0);
                let fld = state.field_mut(tracer);
                for (qv, av) in fld.interior_rows_mut().flatten().zip(adv.as_slice()) {
                    *qv += dt * av;
                }
                comm.record_flops((flops::UPWIND + 2.0) * npts);
            }

            *state.field_mut(Variable::Theta) = h_new;
            *state.field_mut(Variable::U) = u_new;
            *state.field_mut(Variable::V) = v_new;
        });
        halos.clear();
    }
}

/// Area-weighted global mass of the thickness field, reduced over the
/// mesh: `Σ h·cosφ`. Conserved exactly by the flux-form continuity
/// operator (collective).
pub fn global_mass(cart: &CartComm, state: &ModelState) -> f64 {
    let sub = state.sub;
    let mut local = 0.0;
    let h = state.field(Variable::Theta);
    for k in 0..state.grid.n_lev {
        for j in 0..sub.nj {
            let w = state.grid.latitude(sub.j0 + j).cos();
            for x in h.interior_row(j, k) {
                local += x * w;
            }
        }
    }
    cart.comm()
        .allreduce_f64(agcm_mps::collectives::Op::Sum, &[local])[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestep::{max_stable_dt, signal_speed};
    use agcm_mps::runtime::run;

    fn run_steps(
        grid: GridSpec,
        mesh: (usize, usize),
        dt: f64,
        filter: Option<FilterVariant>,
        steps: usize,
    ) -> Vec<(bool, f64, f64, f64)> {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        run(decomp.size(), move |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let dyn_core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, filter));
            let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(c.rank()));
            let mass0 = global_mass(&cart, &state);
            // No early exit on blow-up: ranks must stay in lockstep through
            // the collectives, and NaNs propagate harmlessly.
            for _ in 0..steps {
                dyn_core.step(&cart, &mut state);
            }
            let mass1 = global_mass(&cart, &state);
            // Global diagnostics so every rank reports the same values.
            use agcm_mps::collectives::Op;
            let blown = cart
                .comm()
                .allreduce_i64(Op::Max, &[i64::from(state.has_blown_up())])[0]
                == 1;
            let wind = cart.comm().allreduce_f64(Op::Max, &[state.max_wind()])[0];
            (blown, wind, mass0, mass1)
        })
    }

    #[test]
    fn stable_at_conservative_timestep() {
        let grid = GridSpec::new(48, 24, 2);
        let dt = max_stable_dt(&grid, signal_speed(), 0.5, None);
        let out = run_steps(grid, (2, 2), dt, None, 10);
        for (blown, wind, _, _) in out {
            assert!(!blown);
            assert!(wind < 200.0, "wind stayed physical: {wind}");
        }
    }

    #[test]
    fn mass_is_conserved() {
        let grid = GridSpec::new(48, 24, 2);
        let dt = max_stable_dt(&grid, signal_speed(), 0.4, None);
        let out = run_steps(grid, (2, 2), dt, None, 8);
        for (_, _, m0, m1) in out {
            assert!(
                (m1 - m0).abs() < 1e-9 * m0.abs(),
                "mass {m0} -> {m1} must be conserved by the flux form"
            );
        }
    }

    #[test]
    fn filter_permits_timestep_the_raw_grid_cannot_take() {
        // THE experiment of the paper's §2: at a timestep sized for the
        // 45°-filtered CFL limit, the unfiltered model explodes at the
        // poles while the filtered one stays bounded.
        let grid = GridSpec::new(64, 32, 1);
        // Courant 0.35 at the 45° cutoff: comfortably stable under the
        // filter (damping × gravity-wave growth < 1 at every wavenumber),
        // yet ~5× beyond the raw polar CFL limit.
        let dt = max_stable_dt(&grid, signal_speed(), 0.35, Some(45.0));
        assert!(crate::timestep::worst_courant(&grid, signal_speed(), dt) > 3.0);

        let unfiltered = run_steps(grid, (2, 2), dt, None, 60);
        let filtered = run_steps(grid, (2, 2), dt, Some(FilterVariant::LbFft), 60);

        let unfiltered_bad = unfiltered
            .iter()
            .any(|(blown, wind, _, _)| *blown || *wind > 1.0e3);
        assert!(
            unfiltered_bad,
            "unfiltered run should go unstable: {unfiltered:?}"
        );
        for (blown, wind, _, _) in &filtered {
            assert!(!blown, "filtered run must not blow up");
            assert!(*wind < 500.0, "filtered winds bounded: {wind}");
        }
    }

    #[test]
    fn parallel_runs_match_single_rank() {
        // Bit-for-bit domain-decomposition independence over a few steps.
        let grid = GridSpec::new(32, 16, 2);
        let dt = max_stable_dt(&grid, signal_speed(), 0.4, None);
        let single = run_steps(grid, (1, 1), dt, Some(FilterVariant::LbFft), 3);
        let multi = run_steps(grid, (2, 2), dt, Some(FilterVariant::LbFft), 3);
        // Compare the scalar diagnostics (mass is global and exact).
        let (_, w1, _, m1) = single[0];
        for &(_, w4, _, m4) in &multi {
            assert!((m1 - m4).abs() < 1e-6 * m1.abs(), "mass {m1} vs {m4}");
            assert!((w1 - w4).abs() < 1e-6, "max wind {w1} vs {w4}");
        }
    }

    fn run_fields(
        grid: GridSpec,
        mesh: (usize, usize),
        dt: f64,
        filter: Option<FilterVariant>,
        steps: usize,
        reference: bool,
    ) -> Vec<Vec<f64>> {
        let decomp = Decomp::new(grid, mesh.0, mesh.1);
        run(decomp.size(), move |c| {
            let cart = CartComm::new(c, mesh.0, mesh.1, (false, true));
            let dyn_core = Dynamics::new(grid, decomp, DynamicsConfig::new(dt, filter));
            let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(c.rank()));
            for _ in 0..steps {
                if reference {
                    dyn_core.step_reference(&cart, &mut state);
                } else {
                    dyn_core.step(&cart, &mut state);
                }
            }
            state
                .fields
                .iter()
                .flat_map(|f| f.interior_rows().flatten().copied())
                .collect()
        })
    }

    #[test]
    fn kernel_step_is_bit_identical_to_reference() {
        // The acceptance bar for the optimized path: full-model results
        // bit-identical to the from_fn reference, across mesh shapes (the
        // pole rows land on different ranks), filtered and unfiltered.
        let grid = GridSpec::new(32, 16, 2);
        let dt = max_stable_dt(&grid, signal_speed(), 0.3, None);
        for (mesh, filter) in [
            ((1, 1), None),
            ((2, 2), Some(FilterVariant::LbFft)),
            ((1, 4), None),
            ((4, 1), Some(FilterVariant::LbFft)),
        ] {
            let opt = run_fields(grid, mesh, dt, filter, 4, false);
            let reference = run_fields(grid, mesh, dt, filter, 4, true);
            for (rank, (a, b)) in opt.iter().zip(&reference).enumerate() {
                assert_eq!(a.len(), b.len());
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "mesh {mesh:?} filter {filter:?} rank {rank}: kernel path diverged"
                );
            }
        }
    }

    #[test]
    fn filter_phase_appears_in_trace() {
        let grid = GridSpec::new(32, 16, 1);
        let decomp = Decomp::new(grid, 2, 2);
        let dt = max_stable_dt(&grid, signal_speed(), 0.4, Some(45.0));
        let (_, trace) = agcm_mps::runtime::run_traced(4, |c| {
            let cart = CartComm::new(c, 2, 2, (false, true));
            let dyn_core = Dynamics::new(
                grid,
                decomp,
                DynamicsConfig::new(dt, Some(FilterVariant::LbFft)),
            );
            let mut state = ModelState::initial(grid, decomp.subdomain_of_rank(c.rank()));
            dyn_core.step(&cart, &mut state);
        });
        use agcm_mps::trace::Event;
        for evs in &trace.ranks {
            let names: Vec<&str> = evs
                .iter()
                .filter_map(|e| match e {
                    Event::PhaseBegin(n) => Some(*n),
                    _ => None,
                })
                .collect();
            assert!(names.contains(&"filter"));
            assert!(names.contains(&"halo"));
            assert!(names.contains(&"fd"));
            assert!(names.contains(&"dyn.tendencies"));
            assert!(names.contains(&"dyn.advection"));
        }
    }
}
