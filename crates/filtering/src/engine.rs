//! The redistribute → filter → restore engine (Figures 2–3).
//!
//! Both FFT variants share the same three-phase structure; they differ only
//! in the *assignment* of lines to processors:
//!
//! 1. **Forward movement** — every rank packs, for each filterable line
//!    whose latitude it owns, its longitude chunk, addressed to the line's
//!    assigned filterer. One message per communicating pair; pairs with
//!    nothing to exchange send nothing (a transpose within a processor row
//!    costs O(row²) messages, not O(mesh²) — Figure 3's row transpose is
//!    the row-local special case). Chunks a rank assigns to itself move by
//!    local copy.
//! 2. **Local filtering** — the assignee reassembles complete longitude
//!    lines back to back in one contiguous buffer, groups them by latitude
//!    (one spectral multiplier per latitude), and filters them through the
//!    batched FFT engine: two real lines per complex transform, the odd
//!    tail through the half-size real transform, all scratch reused from a
//!    [`FilterScratch`].
//! 3. **Inverse movement** — filtered lines are split back into the
//!    original chunks and returned; "inverse data movements … restore the
//!    data layout which existed prior to the filtering."
//!
//! Packing order is the canonical line order on both sides, so no indices
//! travel with the data — the set-up bookkeeping makes the streams
//! self-describing.
//!
//! With `only_var: None` (the production organization) one pass moves
//! *every* variable of a filter class, so a filtered step costs at most one
//! forward and one backward message per communicating rank pair per class —
//! the aggregation the paper's §3.3 reorganization allows. `Some(var)`
//! reproduces the original one-variable-at-a-time organization for the
//! paper-faithful runs.

use crate::filterfn::FilterKind;
use crate::lines::FilterSetup;
use agcm_fft::batch::filter_lines;
use agcm_fft::ops::{pair_filter_flops, real_filter_flops};
use agcm_fft::FftWorkspace;
use agcm_grid::field::Field3D;
use agcm_mps::message::Payload;
use agcm_mps::topology::CartComm;
use std::collections::{BTreeMap, BTreeSet};

const TAG_FWD: u64 = 401;
const TAG_BWD: u64 = 402;

/// Reusable per-rank state of the redistribute engine.
///
/// Everything the engine needs across timesteps lives here — FFT
/// workspace, line-assembly buffer, receive staging, pack cursors — so a
/// long simulation stops paying the allocator on the filter's critical
/// path. Buffers grow to the high-water mark on the first filtered step
/// and are reused verbatim afterwards. (Outgoing message buffers are the
/// one exception: the transport takes ownership of each sent `Vec`, so
/// those are built per send, sized once from the line counts.)
#[derive(Default)]
pub struct FilterScratch {
    /// Workspace for the allocation-free FFT executor.
    ws: FftWorkspace,
    /// Complete owned lines, back to back in canonical line order.
    assembled: Vec<f64>,
    /// Latitude of each assembled line (parallel to the chunks of
    /// `assembled`).
    lats: Vec<usize>,
    /// Receive staging, indexed by source rank.
    bufs: Vec<Vec<f64>>,
    /// Return-path staging, indexed by owner rank.
    ret_bufs: Vec<Vec<f64>>,
    /// Per-rank consumption cursors (reset per phase).
    cursors: Vec<usize>,
    /// Values bound for each rank in the movement being packed.
    sizes: Vec<usize>,
}

impl FilterScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> FilterScratch {
        FilterScratch::default()
    }

    fn reset(&mut self, p: usize) {
        self.assembled.clear();
        self.lats.clear();
        self.bufs.iter_mut().for_each(Vec::clear);
        self.bufs.resize(p, Vec::new());
        self.ret_bufs.iter_mut().for_each(Vec::clear);
        self.ret_bufs.resize(p, Vec::new());
        self.cursors.clear();
        self.cursors.resize(p, 0);
        self.sizes.clear();
        self.sizes.resize(p, 0);
    }

    /// Outgoing buffers for a movement of `sizes[dst]` values to each
    /// `dst`, each allocated once at its final size; what `rank` addresses
    /// to itself is packed straight into its staging buffer instead.
    fn outgoing(&self, rank: usize) -> Vec<Vec<f64>> {
        self.sizes
            .iter()
            .enumerate()
            .map(|(dst, &len)| Vec::with_capacity(if dst == rank { 0 } else { len }))
            .collect()
    }

    fn reset_cursors(&mut self) {
        self.cursors.iter_mut().for_each(|c| *c = 0);
    }
}

/// Run one filter class through the redistribute/filter/restore engine.
///
/// `owners[l]` names the rank that filters line `l` (indices into
/// `setup.lines(kind)`). `only_var` restricts the pass to a single variable
/// — the original code's one-variable-at-a-time organization; `None`
/// moves every variable of the class concurrently (the §3.3
/// reorganization).
pub(crate) fn redistribute_filter(
    setup: &FilterSetup,
    cart: &CartComm,
    fields: &mut [Field3D],
    kind: FilterKind,
    owners: &[usize],
    only_var: Option<usize>,
    scratch: &mut FilterScratch,
) {
    let comm = cart.comm();
    let p = comm.size();
    let rank = comm.rank();
    let (my_row, my_col) = cart.coords();
    let sub = setup.decomp.subdomain(my_row, my_col);
    let lines = setup.lines(kind);
    assert_eq!(owners.len(), lines.len(), "one owner per line");
    let n_lon = setup.grid.n_lon;
    let mesh_lon = setup.decomp.mesh_lon;
    let selected = |var: usize| only_var.is_none_or(|v| v == var);
    let holds = |lat: usize| sub.lats().contains(&lat);
    scratch.reset(p);

    // --- Phase 1: forward movement (skip empty pairs, self by copy). -----
    // Send buffers are freshly allocated: `Payload::F64` hands the Vec to
    // the transport, which owns it until the receiver drains it.
    comm.phase_begin("redist_fwd");
    for (idx, line) in lines.iter().enumerate() {
        if selected(line.var) && holds(line.lat) {
            scratch.sizes[owners[idx]] += sub.ni;
        }
    }
    let mut send = scratch.outgoing(rank);
    for (idx, line) in lines.iter().enumerate() {
        if selected(line.var) && holds(line.lat) {
            let row = fields[line.var].row_slice(line.lat - sub.j0, line.lev);
            let dst = owners[idx];
            if dst == rank {
                scratch.bufs[rank].extend_from_slice(row);
            } else {
                send[dst].extend_from_slice(row);
            }
        }
    }
    for (dst, buf) in send.into_iter().enumerate() {
        if dst != rank && !buf.is_empty() {
            comm.send(dst, TAG_FWD, Payload::F64(buf));
        }
    }
    // Sources: every column of the mesh row owning the latitude of each
    // line assigned to us (all hold a non-empty chunk).
    let mut fwd_sources: BTreeSet<usize> = BTreeSet::new();
    for (idx, line) in lines.iter().enumerate() {
        if owners[idx] == rank && selected(line.var) {
            let src_row = setup.decomp.row_of_lat(line.lat);
            for c in 0..mesh_lon {
                fwd_sources.insert(src_row * mesh_lon + c);
            }
        }
    }
    for &src in &fwd_sources {
        if src != rank {
            scratch.bufs[src] = comm.recv_f64(src, TAG_FWD);
        }
    }

    comm.phase_end("redist_fwd");

    // --- Phase 2: assemble contiguously, batch-filter per latitude. ------
    comm.phase_begin("filter_local");
    for (idx, line) in lines.iter().enumerate() {
        if owners[idx] != rank || !selected(line.var) {
            continue;
        }
        let src_row = setup.decomp.row_of_lat(line.lat);
        let start = scratch.assembled.len();
        scratch.assembled.resize(start + n_lon, 0.0);
        for c in 0..mesh_lon {
            let src = src_row * mesh_lon + c;
            let (i0, ni) = setup.col_chunk(c);
            let cur = scratch.cursors[src];
            scratch.assembled[start + i0..start + i0 + ni]
                .copy_from_slice(&scratch.bufs[src][cur..cur + ni]);
            scratch.cursors[src] += ni;
        }
        scratch.lats.push(line.lat);
    }
    // All lines at one latitude share one multiplier, so they batch into
    // pair-packed transforms (two lines per FFT; the odd line goes through
    // the half-size real transform).
    let mut groups: BTreeMap<usize, Vec<&mut [f64]>> = BTreeMap::new();
    for (chunk, &lat) in scratch
        .assembled
        .chunks_exact_mut(n_lon)
        .zip(scratch.lats.iter())
    {
        groups.entry(lat).or_default().push(chunk);
    }
    let mut flops = 0.0;
    for (lat, mut rows) in groups {
        let mult = setup.multiplier(kind, lat);
        let (pairs, tail) = (rows.len() / 2, rows.len() % 2);
        filter_lines(&setup.fft, &mut rows, mult, &mut scratch.ws);
        flops += pairs as f64 * pair_filter_flops(n_lon) + tail as f64 * real_filter_flops(n_lon);
    }
    comm.record_flops(flops);
    agcm_telemetry::registry()
        .counter("filter.lines_filtered")
        .add(scratch.lats.len() as u64);
    comm.phase_end("filter_local");

    // --- Phase 3: inverse movement (same sparsity, reversed). ------------
    comm.phase_begin("redist_bwd");
    scratch.sizes.iter_mut().for_each(|s| *s = 0);
    for &lat in &scratch.lats {
        let dst_row = setup.decomp.row_of_lat(lat);
        for c in 0..mesh_lon {
            scratch.sizes[dst_row * mesh_lon + c] += setup.col_chunk(c).1;
        }
    }
    let mut back = scratch.outgoing(rank);
    for (out, &lat) in scratch.assembled.chunks_exact(n_lon).zip(&scratch.lats) {
        let dst_row = setup.decomp.row_of_lat(lat);
        for c in 0..mesh_lon {
            let (i0, ni) = setup.col_chunk(c);
            let dst = dst_row * mesh_lon + c;
            if dst == rank {
                scratch.ret_bufs[rank].extend_from_slice(&out[i0..i0 + ni]);
            } else {
                back[dst].extend_from_slice(&out[i0..i0 + ni]);
            }
        }
    }
    for (dst, buf) in back.into_iter().enumerate() {
        if dst != rank && !buf.is_empty() {
            comm.send(dst, TAG_BWD, Payload::F64(buf));
        }
    }
    // Sources of returned data: the owners of the lines whose chunks we
    // hold.
    let mut bwd_sources: BTreeSet<usize> = BTreeSet::new();
    for (idx, line) in lines.iter().enumerate() {
        if selected(line.var) && holds(line.lat) {
            bwd_sources.insert(owners[idx]);
        }
    }
    for &src in &bwd_sources {
        if src != rank {
            scratch.ret_bufs[src] = comm.recv_f64(src, TAG_BWD);
        }
    }
    scratch.reset_cursors();
    for (idx, line) in lines.iter().enumerate() {
        if selected(line.var) && holds(line.lat) {
            let o = owners[idx];
            let cur = scratch.cursors[o];
            let chunk = &scratch.ret_bufs[o][cur..cur + sub.ni];
            fields[line.var].set_row(line.lat - sub.j0, line.lev, chunk);
            scratch.cursors[o] += sub.ni;
        }
    }
    // Every returned byte must have been consumed.
    for (o, buf) in scratch.ret_bufs.iter().enumerate() {
        debug_assert_eq!(scratch.cursors[o], buf.len(), "stray data from owner {o}");
    }
    comm.phase_end("redist_bwd");
}
