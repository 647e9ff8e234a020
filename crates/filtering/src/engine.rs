//! The redistribute → filter → restore engine (Figures 2–3).
//!
//! Both FFT variants share the same three-phase structure; they differ only
//! in the [`Assignment`] of lines to processors:
//!
//! 1. **Forward movement** — every rank packs, for each filterable line
//!    whose latitude it owns, its longitude chunk, addressed to the line's
//!    assigned filterer. One message per communicating pair; pairs with
//!    nothing to exchange send nothing (a transpose within a processor row
//!    costs O(row²) messages, not O(mesh²) — Figure 3's row transpose is
//!    the row-local special case). Chunks a rank assigns to itself do not
//!    move at all.
//! 2. **Local filtering** — the assignee pairs up its lines latitude by
//!    latitude (one spectral multiplier per latitude; consecutive lines of
//!    a latitude in canonical order form a pair, an odd last line is a
//!    tail) and runs the pairs eight at a time through the lane-batched
//!    FFT executor (`agcm_fft::lanes`), lanes filled across latitude
//!    groups, each lane with its latitude's multiplier. Chunks are gathered
//!    **straight into the lanes** — from the field row when the chunk is
//!    the rank's own, from the received message otherwise — and results
//!    scattered straight back **to where they came from**: the field row,
//!    or the same offsets of the received message. Tails go through the
//!    half-size real transform.
//! 3. **Inverse movement** — each received message, now filtered, is sent
//!    back as it is and restores "the data layout which existed prior to
//!    the filtering."
//!
//! Packing order is the canonical line order on both sides, so no indices
//! travel with the data — the set-up bookkeeping makes the streams
//! self-describing.
//!
//! Everything about a pass that is fixed for the run — who sends what to
//! whom, which lines this rank filters, how they pair, where each chunk of
//! each line comes from and returns to — is a **pass plan**, built on the
//! first application of a `(class, assignment, variable selection)` and
//! cached in the [`FilterScratch`]; a warmed pass constructs no maps or
//! sets and makes no counting sweeps.
//!
//! **Message buffers circulate.** The `Vec` a rank packs for a peer
//! travels there, is filtered in place, travels back, is unpacked and
//! stays with the rank as its next forward buffer for that peer (`clear` +
//! `extend`, capacity kept): a warmed pass allocates nothing and zeroes
//! nothing. Filtering in place is safe because a chunk's source and sink
//! are the same `offset..offset + ni` of the same message by construction
//! of the pass plan, every chunk belongs to exactly one line, every line
//! to exactly one pair or tail, and a lane batch loads all of its lines
//! before it stores any. A buffer that never comes back (a fault run) is
//! simply grown again by the next pack; which messages a pass sends is
//! decided by its plan, never by what a buffer happens to hold.
//!
//! With `only_var: None` (the production organization) one pass moves
//! *every* variable of a filter class, so a filtered step costs at most one
//! forward and one backward message per communicating rank pair per class —
//! the aggregation the paper's §3.3 reorganization allows. `Some(var)`
//! reproduces the original one-variable-at-a-time organization for the
//! paper-faithful runs.

use crate::driver::FilterOrganization;
use crate::filterfn::FilterKind;
use crate::lines::FilterSetup;
use agcm_fft::batch::{debug_assert_symmetric, filter_line};
use agcm_fft::lanes::{LaneBatch, W};
use agcm_fft::ops::{pair_filter_flops, real_filter_flops};
use agcm_fft::FftWorkspace;
use agcm_grid::field::Field3D;
use agcm_mps::message::Payload;
use agcm_mps::topology::CartComm;
use std::collections::BTreeMap;

const TAG_FWD: u64 = 401;
const TAG_BWD: u64 = 402;

/// Which of the set-up's two line → rank assignments a pass uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Lines stay in the mesh row owning their latitude (FFT without load
    /// balance).
    RowLocal,
    /// Lines spread evenly over all ranks (paper Eq. 3).
    Balanced,
}

impl Assignment {
    fn owners(self, setup: &FilterSetup, kind: FilterKind) -> &[usize] {
        match self {
            Assignment::RowLocal => setup.row_local_owners(kind),
            Assignment::Balanced => setup.balanced_owners(kind),
        }
    }
}

/// Reusable per-rank state of the redistribute engine.
///
/// Everything the engine needs across timesteps lives here — the cached
/// pass plans, FFT workspace (lane storage included), the message buffers
/// in circulation — so a long simulation stops paying the allocator on
/// the filter's critical path.
#[derive(Default)]
pub struct FilterScratch {
    /// Pass plans built so far.
    plans: Vec<PassPlan>,
    /// Workspace for the allocation-free FFT executors.
    ws: FftWorkspace,
    /// This rank's forward buffers, indexed by destination: packed, sent,
    /// and put back here when they return filtered. Empty while away.
    forward: Vec<Vec<f64>>,
    /// Peers' forward buffers while this rank filters them, indexed by
    /// source: received, filtered in place, sent back. Empty otherwise.
    visiting: Vec<Vec<f64>>,
    /// One assembled line, for the scalar tail path.
    tail: Vec<f64>,
}

impl FilterScratch {
    /// Empty scratch; plans are built and buffers grow on first use.
    pub fn new() -> FilterScratch {
        FilterScratch::default()
    }

    /// The forward buffers at rest, indexed by destination rank (empty
    /// before the first pass and for ranks never sent to). Their pointers
    /// and capacities are what the circulation test watches.
    pub fn forward_buffers(&self) -> &[Vec<f64>] {
        &self.forward
    }
}

/// What a pass plan was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    setup: u64,
    rank: usize,
    kind: FilterKind,
    assignment: Assignment,
    only_var: Option<usize>,
}

/// A line this rank holds a longitude chunk of.
struct Held {
    var: usize,
    /// Local latitude row.
    j: usize,
    lev: usize,
    /// The rank that filters the line.
    owner: usize,
    /// Where the chunk sits in the message to `owner` — and, filtered, in
    /// the same message when it returns.
    offset: usize,
}

/// A line this rank filters.
struct Owned {
    var: usize,
    lat: usize,
    lev: usize,
}

/// One longitude chunk `i0..i0 + ni` of an owned line: held by rank `peer`
/// at `offset` in the message it sends, which is filtered in place and
/// sent back. `peer` may be this rank itself: the chunk is then the
/// line's row of the rank's own field.
struct Chunk {
    peer: usize,
    offset: usize,
    i0: usize,
    ni: usize,
}

/// The run-constant bookkeeping of one pass (see the module docs).
struct PassPlan {
    key: PlanKey,
    /// First latitude row of this rank's subdomain.
    j0: usize,
    held: Vec<Held>,
    owned: Vec<Owned>,
    /// `mesh_lon` chunks per owned line, in `owned` order.
    chunks: Vec<Chunk>,
    /// Values this rank sends to each rank forward — and gets back from
    /// it in the inverse movement.
    held_values: Vec<usize>,
    /// Values each rank sends this rank forward — and gets back.
    owned_values: Vec<usize>,
    /// Two owned lines of one latitude filtered as one transform:
    /// `(line a, line b, latitude)`, latitude groups in ascending order.
    pairs: Vec<(usize, usize, usize)>,
    /// Odd last lines of their latitude group: `(line, latitude)`.
    tails: Vec<(usize, usize)>,
    /// Flops charged per application: per latitude group
    /// `pairs·pair_filter_flops + tail·real_filter_flops`.
    flops: f64,
}

impl PassPlan {
    fn build(setup: &FilterSetup, key: PlanKey) -> PassPlan {
        let p = setup.decomp.size();
        let rank = key.rank;
        let sub = setup.decomp.subdomain_of_rank(rank);
        let mesh_lon = setup.decomp.mesh_lon;
        let n_lon = setup.grid.n_lon;
        let lines = setup.lines(key.kind);
        let owners = key.assignment.owners(setup, key.kind);
        assert_eq!(owners.len(), lines.len(), "one owner per line");

        let mut held = Vec::new();
        let mut held_values = vec![0usize; p];
        let mut owned = Vec::new();
        let mut chunks = Vec::new();
        let mut owned_values = vec![0usize; p];
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (line, &owner) in lines.iter().zip(owners) {
            if key.only_var.is_some_and(|v| v != line.var) {
                continue;
            }
            if sub.lats().contains(&line.lat) {
                held.push(Held {
                    var: line.var,
                    j: line.lat - sub.j0,
                    lev: line.lev,
                    owner,
                    offset: held_values[owner],
                });
                held_values[owner] += sub.ni;
            }
            if owner == rank {
                groups.entry(line.lat).or_default().push(owned.len());
                owned.push(Owned {
                    var: line.var,
                    lat: line.lat,
                    lev: line.lev,
                });
                // Every column of the mesh row owning the latitude holds
                // a non-empty chunk.
                let src_row = setup.decomp.row_of_lat(line.lat);
                for c in 0..mesh_lon {
                    let peer = src_row * mesh_lon + c;
                    let (i0, ni) = setup.col_chunk(c);
                    chunks.push(Chunk {
                        peer,
                        offset: owned_values[peer],
                        i0,
                        ni,
                    });
                    owned_values[peer] += ni;
                }
            }
        }

        // All lines at one latitude share one multiplier, so they pair up
        // into single transforms; the odd line is the group's tail.
        let mut pairs = Vec::new();
        let mut tails = Vec::new();
        let mut flops = 0.0;
        for (&lat, rows) in &groups {
            debug_assert_symmetric(setup.multiplier(key.kind, lat));
            let (paired, tail) = rows.split_at(rows.len() / 2 * 2);
            pairs.extend(paired.chunks_exact(2).map(|ab| (ab[0], ab[1], lat)));
            tails.extend(tail.iter().map(|&line| (line, lat)));
            flops += (paired.len() / 2) as f64 * pair_filter_flops(n_lon)
                + tail.len() as f64 * real_filter_flops(n_lon);
        }
        PassPlan {
            key,
            j0: sub.j0,
            held,
            owned,
            chunks,
            held_values,
            owned_values,
            pairs,
            tails,
            flops,
        }
    }

    /// The chunks of owned line `line`.
    fn chunks_of(&self, line: usize, mesh_lon: usize) -> &[Chunk] {
        &self.chunks[line * mesh_lon..(line + 1) * mesh_lon]
    }
}

/// The ranks other than `rank` that `values` (a plan's `held_values` or
/// `owned_values`) exchanges a message with, and that message's length.
fn peers_of(values: &[usize], rank: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let values = values.iter().enumerate();
    values.filter_map(move |(peer, &len)| (peer != rank && len > 0).then_some((peer, len)))
}

/// Where the chunks of owned lines live — before and after filtering, the
/// same place.
struct ChunkEnds<'a> {
    rank: usize,
    /// First latitude row of this rank's subdomain.
    j0: usize,
    fields: &'a mut [Field3D],
    /// Forward messages received, by source rank.
    visiting: &'a mut [Vec<f64>],
}

impl ChunkEnds<'_> {
    /// The unfiltered values of chunk `c` of `line`: the rank's own field
    /// row, or the peer's forward message.
    fn source(&self, line: &Owned, c: &Chunk) -> &[f64] {
        if c.peer == self.rank {
            self.fields[line.var].row_slice(line.lat - self.j0, line.lev)
        } else {
            &self.visiting[c.peer][c.offset..c.offset + c.ni]
        }
    }

    /// Where the filtered values of chunk `c` of `line` go: over the
    /// unfiltered ones.
    fn sink(&mut self, line: &Owned, c: &Chunk) -> &mut [f64] {
        if c.peer == self.rank {
            self.fields[line.var].row_slice_mut(line.lat - self.j0, line.lev)
        } else {
            &mut self.visiting[c.peer][c.offset..c.offset + c.ni]
        }
    }
}

/// Apply both filter classes through the engine under `assignment`: one
/// aggregated pass per class moving every variable (the production
/// organization), or one pass per variable (paper-faithful).
pub fn apply(
    setup: &FilterSetup,
    cart: &CartComm,
    fields: &mut [Field3D],
    assignment: Assignment,
    organization: FilterOrganization,
    scratch: &mut FilterScratch,
) {
    for kind in [FilterKind::Strong, FilterKind::Weak] {
        match organization {
            FilterOrganization::Aggregated => {
                redistribute_filter(setup, cart, fields, kind, assignment, None, scratch);
            }
            FilterOrganization::PerVariable => {
                for &var in setup.vars(kind) {
                    redistribute_filter(setup, cart, fields, kind, assignment, Some(var), scratch);
                }
            }
        }
    }
}

/// Run one pass of one filter class through the
/// redistribute/filter/restore engine. `only_var` restricts the pass to a
/// single variable; `None` moves every variable of the class concurrently
/// (the §3.3 reorganization).
fn redistribute_filter(
    setup: &FilterSetup,
    cart: &CartComm,
    fields: &mut [Field3D],
    kind: FilterKind,
    assignment: Assignment,
    only_var: Option<usize>,
    scratch: &mut FilterScratch,
) {
    let comm = cart.comm();
    let p = comm.size();
    let rank = comm.rank();
    let mesh_lon = setup.decomp.mesh_lon;
    let key = PlanKey {
        setup: setup.id(),
        rank,
        kind,
        assignment,
        only_var,
    };
    let FilterScratch {
        plans,
        ws,
        forward,
        visiting,
        tail,
    } = scratch;
    let at = plans.iter().position(|plan| plan.key == key);
    let at = at.unwrap_or_else(|| {
        plans.push(PassPlan::build(setup, key));
        plans.len() - 1
    });
    let plan = &plans[at];
    forward.resize_with(p, Vec::new);
    visiting.resize_with(p, Vec::new);
    // The peers a pass exchanges messages with are the plan's, whatever
    // the buffers hold: a forward buffer at rest still carries the last
    // pass's (other class's, other variable's) values.
    let peers = |values| peers_of(values, rank);

    // --- Phase 1: forward movement (skip empty pairs, nothing to self). --
    comm.phase_begin("redist_fwd");
    for (dst, len) in peers(&plan.held_values) {
        forward[dst].clear();
        // Grows a buffer that is new, or was lost to a fault, in one step.
        forward[dst].reserve(len);
    }
    for h in &plan.held {
        if h.owner != rank {
            forward[h.owner].extend_from_slice(fields[h.var].row_slice(h.j, h.lev));
        }
    }
    for (dst, _) in peers(&plan.held_values) {
        comm.send(
            dst,
            TAG_FWD,
            Payload::F64(std::mem::take(&mut forward[dst])),
        );
    }
    for (src, len) in peers(&plan.owned_values) {
        visiting[src] = comm.recv_f64(src, TAG_FWD);
        assert_eq!(visiting[src].len(), len, "forward message from rank {src}");
    }
    comm.phase_end("redist_fwd");

    // --- Phase 2: gather into lanes, filter, scatter back in place. ------
    comm.phase_begin("filter_local");
    let mut ends = ChunkEnds {
        rank,
        j0: plan.j0,
        fields: &mut *fields,
        visiting,
    };
    {
        let mut lanes = LaneBatch::new(&setup.fft, ws);
        for batch in plan.pairs.chunks(W) {
            lanes.begin(batch.len());
            for (lane, &(a, b, lat)) in batch.iter().enumerate() {
                lanes.set_multiplier(lane, setup.multiplier(kind, lat));
                for (slot, line) in [(2 * lane, a), (2 * lane + 1, b)] {
                    for c in plan.chunks_of(line, mesh_lon) {
                        lanes.load(slot, c.i0, ends.source(&plan.owned[line], c));
                    }
                }
            }
            lanes.run();
            for (lane, &(a, b, _)) in batch.iter().enumerate() {
                for (slot, line) in [(2 * lane, a), (2 * lane + 1, b)] {
                    for c in plan.chunks_of(line, mesh_lon) {
                        lanes.store(slot, c.i0, ends.sink(&plan.owned[line], c));
                    }
                }
            }
        }
    }
    tail.resize(setup.grid.n_lon, 0.0);
    for &(line, lat) in &plan.tails {
        let owned = &plan.owned[line];
        for c in plan.chunks_of(line, mesh_lon) {
            tail[c.i0..c.i0 + c.ni].copy_from_slice(ends.source(owned, c));
        }
        filter_line(&setup.fft, tail, setup.multiplier(kind, lat), ws);
        for c in plan.chunks_of(line, mesh_lon) {
            ends.sink(owned, c)
                .copy_from_slice(&tail[c.i0..c.i0 + c.ni]);
        }
    }
    comm.record_flops(plan.flops);
    agcm_telemetry::registry()
        .counter("filter.lines_filtered")
        .add(plan.owned.len() as u64);
    comm.phase_end("filter_local");

    // --- Phase 3: inverse movement (same sparsity, reversed): every ------
    // --- visiting buffer goes home, every forward buffer comes home. -----
    comm.phase_begin("redist_bwd");
    for (dst, _) in peers(&plan.owned_values) {
        comm.send(
            dst,
            TAG_BWD,
            Payload::F64(std::mem::take(&mut visiting[dst])),
        );
    }
    for (src, len) in peers(&plan.held_values) {
        forward[src] = comm.recv_f64(src, TAG_BWD);
        assert_eq!(forward[src].len(), len, "return message from rank {src}");
    }
    for h in &plan.held {
        // Lines this rank filtered itself were scattered in place.
        if h.owner != rank {
            let row = fields[h.var].row_slice_mut(h.j, h.lev);
            let len = row.len();
            row.copy_from_slice(&forward[h.owner][h.offset..h.offset + len]);
        }
    }
    comm.phase_end("redist_bwd");
}
