//! Ghost-point (halo) exchange.
//!
//! "Message exchanges are needed among (logically) neighboring processors
//! (nodes) in finite-difference calculations" (paper §2). Each subdomain
//! carries a ghost margin of `h` points in both horizontal directions;
//! [`HaloField::exchange`] fills the margins from the four neighbours:
//! periodically in longitude, bounded at the poles (where a zero-gradient
//! copy of the nearest interior row stands in for the AGCM's special pole
//! treatment).
//!
//! The exchange is two-phase — east/west first, then north/south including
//! the already-filled longitude ghosts — so diagonal (corner) ghosts come
//! out right without extra messages.
//!
//! [`exchange_all`] is the one implementation, for any number of fields at
//! once: within a phase it posts every field's sends before the first
//! receive, so the fields share one round trip instead of waiting for one
//! each. Messages and tags are those of exchanging the fields one by one;
//! messages between two ranks with one tag are non-overtaking, so the
//! k-th strip received under a tag belongs to the k-th field.
//!
//! Message buffers circulate: the strip sent towards a neighbour is packed
//! into the buffer last received *from* that neighbour (same mesh row or
//! column, so the same length), which the field keeps between exchanges —
//! a warmed exchange allocates nothing.

use crate::recycle;
use agcm_mps::comm::Comm;
use agcm_mps::message::Payload;
use agcm_mps::topology::CartComm;
use std::borrow::{Borrow, BorrowMut};

const TAG_EAST: u64 = 101;
const TAG_WEST: u64 = 102;
const TAG_NORTH: u64 = 103;
const TAG_SOUTH: u64 = 104;

/// Indices into [`HaloField`]'s buffers at rest, by neighbour.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

/// A local field with ghost margins of width `h` in longitude and latitude.
///
/// Interior indices run `0..ni` / `0..nj`; ghosts are addressed with
/// negative or overflowing indices through the signed accessors. The
/// interior is the field's value and the ghosts a copy of its neighbours'
/// edges, refreshed by an exchange: two halo fields are equal when their
/// interior shapes and interior values are, whatever their ghosts hold.
/// Everything but the stencil kernels reaches the interior through the
/// row, column and level accessors, so only this type and
/// `agcm-kernels`' flat view know where the ghosts sit in memory.
#[derive(Debug)]
pub struct HaloField {
    ni: usize,
    nj: usize,
    nk: usize,
    h: usize,
    /// Padded data, shape `(ni + 2h) × (nj + 2h) × nk`, longitude fastest.
    data: Vec<f64>,
    /// Message buffers at rest, by neighbour: `spare[d]` is what neighbour
    /// `d` sent last and what the next strip for `d` is packed into.
    spare: [Vec<f64>; 4],
}

pub use crate::recycle::{storage_stats, StorageStats};

impl Clone for HaloField {
    fn clone(&self) -> HaloField {
        let mut out = HaloField::zeros(self.ni, self.nj, self.nk, self.h);
        out.data.copy_from_slice(&self.data);
        out.spare = self.spare.clone();
        out
    }
}

impl Drop for HaloField {
    fn drop(&mut self) {
        recycle::global().give_back(std::mem::take(&mut self.data));
    }
}

impl PartialEq for HaloField {
    fn eq(&self, other: &HaloField) -> bool {
        self.shape() == other.shape() && self.interior_rows().eq(other.interior_rows())
    }
}

impl HaloField {
    /// A zero-filled halo field for an `ni × nj × nk` interior with ghost
    /// width `h`. An empty interior stores nothing, ghosts included.
    pub fn zeros(ni: usize, nj: usize, nk: usize, h: usize) -> HaloField {
        assert!(h >= 1, "halo width must be at least 1");
        let padded = if ni == 0 || nj == 0 || nk == 0 {
            0
        } else {
            (ni + 2 * h) * (nj + 2 * h) * nk
        };
        HaloField {
            ni,
            nj,
            nk,
            h,
            data: recycle::global().zeros(padded),
            spare: Default::default(),
        }
    }

    /// A field of ghost width `h` whose interior is `f(i, j, k)` (local
    /// indices) and whose ghosts are zero.
    pub fn from_fn(
        ni: usize,
        nj: usize,
        nk: usize,
        h: usize,
        f: impl FnMut(usize, usize, usize) -> f64,
    ) -> HaloField {
        let mut out = HaloField::zeros(ni, nj, nk, h);
        out.fill_interior(f);
        out
    }

    /// Interior shape `(ni, nj, nk)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.ni, self.nj, self.nk)
    }

    /// Ghost width.
    pub fn halo_width(&self) -> usize {
        self.h
    }

    #[inline]
    fn offset(&self, i: isize, j: isize, k: usize) -> usize {
        let h = self.h as isize;
        debug_assert!(
            i >= -h
                && i < self.ni as isize + h
                && j >= -h
                && j < self.nj as isize + h
                && k < self.nk,
            "halo index ({i},{j},{k}) out of range"
        );
        let pi = (i + h) as usize;
        let pj = (j + h) as usize;
        (k * (self.nj + 2 * self.h) + pj) * (self.ni + 2 * self.h) + pi
    }

    /// Read at signed indices (ghosts reachable with negatives/overflow).
    #[inline]
    pub fn get(&self, i: isize, j: isize, k: usize) -> f64 {
        self.data[self.offset(i, j, k)]
    }

    /// Write at signed indices.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: usize, v: f64) {
        let off = self.offset(i, j, k);
        self.data[off] = v;
    }

    /// The full padded storage, ghosts included, longitude fastest. Use
    /// [`HaloField::row_stride`] / [`HaloField::plane_stride`] /
    /// [`HaloField::interior_origin`] to navigate — the flat view the
    /// `agcm-kernels` crate runs its stencils over.
    pub fn padded(&self) -> &[f64] {
        &self.data
    }

    /// The full padded storage, mutably — ghosts included, so a caller
    /// that rewrites it rewrites them too.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Padded row stride `ni + 2h`.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.ni + 2 * self.h
    }

    /// Padded plane stride `(ni + 2h) · (nj + 2h)`.
    #[inline]
    pub fn plane_stride(&self) -> usize {
        (self.ni + 2 * self.h) * (self.nj + 2 * self.h)
    }

    /// Index of interior point `(0, 0, 0)` within [`HaloField::padded`].
    #[inline]
    pub fn interior_origin(&self) -> usize {
        self.h * self.row_stride() + self.h
    }

    /// Initialize the interior from `f(i, j, k)` (local indices).
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        let nj = self.nj;
        for (r, row) in self.interior_rows_mut().enumerate() {
            for (i, x) in row.iter_mut().enumerate() {
                *x = f(i, r % nj, r / nj);
            }
        }
    }

    /// Number of interior points, `ni · nj · nk`.
    pub fn interior_len(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// Interior row `(j, k)`: `ni` contiguous values, no ghosts.
    #[inline]
    pub fn interior_row(&self, j: usize, k: usize) -> &[f64] {
        let start = self.offset(0, j as isize, k);
        &self.data[start..start + self.ni]
    }

    /// Mutably borrow interior row `(j, k)`.
    #[inline]
    pub fn interior_row_mut(&mut self, j: usize, k: usize) -> &mut [f64] {
        let start = self.offset(0, j as isize, k);
        &mut self.data[start..start + self.ni]
    }

    /// Every interior row, level by level and south to north within a
    /// level: the interior in the order of an unpadded `i`-fastest array.
    pub fn interior_rows(&self) -> impl Iterator<Item = &[f64]> {
        let (row, h, ni, nj) = (self.row_stride(), self.h, self.ni, self.nj);
        self.data
            .chunks_exact(self.plane_stride())
            .flat_map(move |plane| {
                plane[h * row..(h + nj) * row]
                    .chunks_exact(row)
                    .map(move |r| &r[h..h + ni])
            })
    }

    /// [`HaloField::interior_rows`], mutably.
    pub fn interior_rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let (row, h, ni, nj) = (self.row_stride(), self.h, self.ni, self.nj);
        let plane = self.plane_stride();
        self.data.chunks_exact_mut(plane).flat_map(move |plane| {
            plane[h * row..(h + nj) * row]
                .chunks_exact_mut(row)
                .map(move |r| &mut r[h..h + ni])
        })
    }

    /// One vertical column at interior point `(i, j)`.
    pub fn column(&self, i: usize, j: usize) -> Vec<f64> {
        (0..self.nk)
            .map(|k| self.get(i as isize, j as isize, k))
            .collect()
    }

    /// Overwrite one vertical column at interior point `(i, j)`.
    pub fn set_column(&mut self, i: usize, j: usize, col: &[f64]) {
        assert_eq!(col.len(), self.nk, "column length must equal n_lev");
        for (k, &v) in col.iter().enumerate() {
            self.set(i as isize, j as isize, k, v);
        }
    }

    /// Columns `i` of interior row `j` on every level, for a kernel that
    /// walks many columns side by side: the storage from interior point
    /// `(i.start, j, 0)` on, and the stride between levels — level `k` of
    /// column `i.start + c` is `slice[k · stride + c]`.
    pub fn columns_mut(&mut self, j: usize, i: std::ops::Range<usize>) -> (&mut [f64], usize) {
        assert!(
            i.start <= i.end && i.end <= self.ni && j < self.nj,
            "row segment outside the field"
        );
        let start = self.offset(i.start as isize, j as isize, 0);
        let stride = self.plane_stride();
        (&mut self.data[start..], stride)
    }

    /// Pack a block of columns `[i_lo, i_lo+count_i) × [j_lo, j_hi) × levels`,
    /// column index fastest, into `out` (cleared first, capacity kept).
    /// The block is a few values wide and many rows tall, so each column
    /// is gathered by one strided walk down the rows rather than by a tiny
    /// copy per row.
    fn pack(&self, out: &mut Vec<f64>, i_lo: isize, j_lo: isize, j_hi: isize, count_i: usize) {
        let per_level = count_i * (j_hi - j_lo) as usize;
        out.clear();
        out.resize(per_level * self.nk, 0.0);
        for (k, block) in out.chunks_exact_mut(per_level).enumerate() {
            let src = &self.data[self.offset(i_lo, j_lo, k)..];
            for di in 0..count_i {
                let column = src[di..].iter().step_by(self.row_stride());
                for (o, &x) in block[di..].iter_mut().step_by(count_i).zip(column) {
                    *o = x;
                }
            }
        }
    }

    fn unpack(&mut self, buf: &[f64], i_lo: isize, j_lo: isize, j_hi: isize, count_i: usize) {
        let per_level = count_i * (j_hi - j_lo) as usize;
        assert_eq!(buf.len(), per_level * self.nk, "halo buffer mis-sized");
        let row = self.row_stride();
        for (k, block) in buf.chunks_exact(per_level).enumerate() {
            let first = self.offset(i_lo, j_lo, k);
            let dst = &mut self.data[first..];
            for di in 0..count_i {
                let column = dst[di..].iter_mut().step_by(row);
                for (x, &v) in column.zip(block[di..].iter().step_by(count_i)) {
                    *x = v;
                }
            }
        }
    }

    /// Padded span of the `count_j` full rows (ghost columns included)
    /// from `j_lo` at level `k`: adjacent rows are adjacent in storage.
    fn rows_span(&self, j_lo: isize, count_j: usize, k: usize) -> std::ops::Range<usize> {
        let start = self.offset(-(self.h as isize), j_lo, k);
        start..start + count_j * self.row_stride()
    }

    /// Pack a block of rows `[lon incl. ghosts] × [j_lo, j_lo+count_j)`
    /// into `out` (cleared first, capacity kept).
    fn pack_rows(&self, out: &mut Vec<f64>, j_lo: isize, count_j: usize) {
        out.clear();
        for k in 0..self.nk {
            out.extend_from_slice(&self.data[self.rows_span(j_lo, count_j, k)]);
        }
    }

    fn unpack_rows(&mut self, buf: &[f64], j_lo: isize, count_j: usize) {
        let per_level = self.row_stride() * count_j;
        assert_eq!(buf.len(), per_level * self.nk, "halo buffer mis-sized");
        for (k, rows) in buf.chunks_exact(per_level).enumerate() {
            let span = self.rows_span(j_lo, count_j, k);
            self.data[span].copy_from_slice(rows);
        }
    }

    /// Zero-gradient pole treatment: copy full padded row `j_src` over
    /// the `h` ghost rows starting at `j_ghost`, on every level.
    fn replicate_row(&mut self, j_src: isize, j_ghost: isize) {
        for k in 0..self.nk {
            let src = self.rows_span(j_src, 1, k);
            for dj in 0..self.h as isize {
                let dst = self.rows_span(j_ghost + dj, 1, k).start;
                self.data.copy_within(src.clone(), dst);
            }
        }
    }

    /// Exchange ghost margins with the four mesh neighbours:
    /// [`exchange_all`] on this one field.
    ///
    /// Dimension 1 of `cart` (longitude) must be periodic; dimension 0
    /// (latitude) is bounded, and at the poles the ghost rows are filled by
    /// zero-gradient extrapolation.
    pub fn exchange(&mut self, cart: &CartComm) {
        exchange_all(std::slice::from_mut(self), cart);
    }

    /// Send the `h` interior columns from `i_lo` to neighbour `to`, in the
    /// buffer last received from it.
    fn send_columns(&mut self, comm: &Comm, to: usize, dir: usize, tag: u64, i_lo: isize) {
        let mut edge = std::mem::take(&mut self.spare[dir]);
        self.pack(&mut edge, i_lo, 0, self.nj as isize, self.h);
        comm.send(to, tag, Payload::F64(edge));
    }

    /// Receive neighbour `from`'s columns into the `h` ghost columns from
    /// `i_lo`, and keep the buffer for the next send to it.
    fn recv_columns(&mut self, comm: &Comm, from: usize, dir: usize, tag: u64, i_lo: isize) {
        let buf = comm.recv_f64(from, tag);
        self.unpack(&buf, i_lo, 0, self.nj as isize, self.h);
        self.spare[dir] = buf;
    }

    /// Send the `h` full padded rows from `j_lo` to neighbour `to`.
    fn send_rows(&mut self, comm: &Comm, to: usize, dir: usize, tag: u64, j_lo: isize) {
        let mut edge = std::mem::take(&mut self.spare[dir]);
        self.pack_rows(&mut edge, j_lo, self.h);
        comm.send(to, tag, Payload::F64(edge));
    }

    /// Receive neighbour `from`'s rows into the `h` ghost rows from `j_lo`.
    fn recv_rows(&mut self, comm: &Comm, from: usize, dir: usize, tag: u64, j_lo: isize) {
        let buf = comm.recv_f64(from, tag);
        self.unpack_rows(&buf, j_lo, self.h);
        self.spare[dir] = buf;
    }
}

/// Exchange the ghost margins of every field in `fields` with the four
/// mesh neighbours — the same messages, tags and ghosts as exchanging
/// them one after another, but each phase posts all its sends before its
/// first receive (see the module docs). The fields may differ in shape and
/// halo width, and may be owned (`[HaloField]`) or borrowed from
/// wherever they live (`[&mut HaloField]`).
///
/// Dimension 1 of `cart` (longitude) must be periodic; dimension 0
/// (latitude) is bounded, and at the poles the ghost rows are filled by
/// zero-gradient extrapolation.
pub fn exchange_all<F: BorrowMut<HaloField>>(fields: &mut [F], cart: &CartComm) {
    let comm = cart.comm();
    for f in fields.iter().map(Borrow::borrow) {
        assert!(
            f.ni >= f.h && f.nj >= f.h,
            "interior must be at least as wide as the halo"
        );
    }

    // --- Phase 1: east-west (longitude, periodic). -----------------------
    let east = cart.neighbor(1, 1).expect("longitude is periodic");
    let west = cart.neighbor(1, -1).expect("longitude is periodic");
    // Our easternmost h interior columns go east and become the east
    // neighbour's west ghost. And vice versa.
    for f in fields.iter_mut().map(BorrowMut::borrow_mut) {
        f.send_columns(comm, east, EAST, TAG_EAST, (f.ni - f.h) as isize);
        f.send_columns(comm, west, WEST, TAG_WEST, 0);
    }
    for f in fields.iter_mut().map(BorrowMut::borrow_mut) {
        f.recv_columns(comm, west, WEST, TAG_EAST, -(f.h as isize));
        f.recv_columns(comm, east, EAST, TAG_WEST, f.ni as isize);
    }

    // --- Phase 2: north-south (latitude, bounded), full padded rows. ------
    let north = cart.neighbor(0, 1);
    let south = cart.neighbor(0, -1);
    for f in fields.iter_mut().map(BorrowMut::borrow_mut) {
        if let Some(n) = north {
            f.send_rows(comm, n, NORTH, TAG_NORTH, (f.nj - f.h) as isize);
        }
        if let Some(s) = south {
            f.send_rows(comm, s, SOUTH, TAG_SOUTH, 0);
        }
    }
    for f in fields.iter_mut().map(BorrowMut::borrow_mut) {
        let (h, njh) = (f.h as isize, f.nj as isize);
        match south {
            Some(s) => f.recv_rows(comm, s, SOUTH, TAG_NORTH, -h),
            // South pole: zero-gradient.
            None => f.replicate_row(0, -h),
        }
        match north {
            Some(n) => f.recv_rows(comm, n, NORTH, TAG_SOUTH, njh),
            // North pole: zero-gradient.
            None => f.replicate_row(njh - 1, njh),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::runtime::run;
    use agcm_mps::topology::CartComm;

    /// Global analytic function used to verify exchanged ghosts.
    fn truth(gi: usize, gj: usize, k: usize) -> f64 {
        (gi * 1000 + gj * 10 + k) as f64
    }

    #[test]
    fn exchange_fills_ghosts_with_neighbor_values() {
        // Global 8x6 grid on a 2x2 mesh, 2 levels, halo widths 1 and 2.
        let (glon, glat) = (8usize, 6usize);
        run(4, |c| {
            let cart = CartComm::new(c, 2, 2, (false, true));
            let (row, col) = cart.coords();
            let (ni, nj, nk) = (4usize, 3usize, 2usize);
            let (i0, j0) = (col * ni, row * nj);
            for h in [1usize, 2] {
                let mut f = HaloField::zeros(ni, nj, nk, h);
                f.fill_interior(|i, j, k| truth(i0 + i, j0 + j, k));
                f.exchange(&cart);

                // Every ghost point must hold the global value (with
                // longitude wraparound), except polar rows which replicate
                // the edge.
                for k in 0..nk {
                    for j in -(h as isize)..(nj + h) as isize {
                        for i in -(h as isize)..(ni + h) as isize {
                            let gj_raw = j0 as isize + j;
                            let gi = ((i0 as isize + i).rem_euclid(glon as isize)) as usize;
                            let gj = gj_raw.clamp(0, glat as isize - 1) as usize;
                            let expect = truth(gi, gj, k);
                            assert_eq!(
                                f.get(i, j, k),
                                expect,
                                "width {h} rank ({row},{col}) ghost at local ({i},{j},{k})"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn exchange_on_single_column_mesh_wraps_to_self() {
        // One processor in longitude: east and west neighbours are itself.
        run(2, |c| {
            let cart = CartComm::new(c, 2, 1, (false, true));
            let (row, _) = cart.coords();
            let (ni, nj, nk, h) = (6usize, 2usize, 1usize, 1usize);
            let j0 = row * nj;
            let mut f = HaloField::zeros(ni, nj, nk, h);
            f.fill_interior(|i, j, k| truth(i, j0 + j, k));
            f.exchange(&cart);
            // West ghost must be the wrapped easternmost column.
            for j in 0..nj as isize {
                assert_eq!(f.get(-1, j, 0), truth(ni - 1, j0 + j as usize, 0));
                assert_eq!(f.get(ni as isize, j, 0), truth(0, j0 + j as usize, 0));
            }
        });
    }

    #[test]
    fn polar_ghosts_are_zero_gradient() {
        run(1, |c| {
            let cart = CartComm::new(c, 1, 1, (false, true));
            let mut f = HaloField::zeros(4, 3, 1, 1);
            f.fill_interior(|i, j, _| (i + 10 * j) as f64);
            f.exchange(&cart);
            for i in 0..4isize {
                assert_eq!(f.get(i, -1, 0), f.get(i, 0, 0), "south pole ghost");
                assert_eq!(f.get(i, 3, 0), f.get(i, 2, 0), "north pole ghost");
            }
        });
    }

    #[test]
    fn corner_ghosts_filled_by_two_phase_exchange() {
        let (glon, glat) = (6usize, 6usize);
        run(9, |c| {
            let cart = CartComm::new(c, 3, 3, (false, true));
            let (row, col) = cart.coords();
            let (ni, nj) = (2usize, 2usize);
            let (i0, j0) = (col * ni, row * nj);
            let mut f = HaloField::zeros(ni, nj, 1, 1);
            f.fill_interior(|i, j, _| truth(i0 + i, j0 + j, 0));
            f.exchange(&cart);
            // Check the four diagonal corners (interior rows only exist for
            // middle ranks; clamp at poles).
            for (ci, cj) in [(-1isize, -1isize), (2, -1), (-1, 2), (2, 2)] {
                let gi = ((i0 as isize + ci).rem_euclid(glon as isize)) as usize;
                let gj = (j0 as isize + cj).clamp(0, glat as isize - 1) as usize;
                assert_eq!(
                    f.get(ci, cj, 0),
                    truth(gi, gj, 0),
                    "corner ({ci},{cj}) on ({row},{col})"
                );
            }
        });
    }

    #[test]
    fn accessors_and_shape() {
        let mut f = HaloField::zeros(4, 4, 2, 2);
        assert_eq!(f.shape(), (4, 4, 2));
        assert_eq!(f.halo_width(), 2);
        f.set(-2, -2, 1, 9.0);
        assert_eq!(f.get(-2, -2, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "halo width")]
    fn zero_halo_rejected() {
        HaloField::zeros(4, 4, 1, 0);
    }

    #[test]
    fn flat_view_agrees_with_signed_accessors() {
        let mut f = HaloField::zeros(5, 3, 2, 1);
        f.fill_interior(|i, j, k| (i + 10 * j + 100 * k) as f64);
        f.set(-1, 1, 1, 7.5);
        let (row, plane, origin) = (f.row_stride(), f.plane_stride(), f.interior_origin());
        assert_eq!(row, 7);
        assert_eq!(plane, 35);
        let p = f.padded();
        for k in 0..2usize {
            for j in 0..3isize {
                for i in 0..5isize {
                    let at = origin + k * plane + j as usize * row + i as usize;
                    assert_eq!(p[at], f.get(i, j, k));
                }
            }
        }
        assert_eq!(p[origin + plane + row - 1], 7.5, "ghost via flat view");
    }

    #[test]
    fn equality_and_row_accessors_see_the_interior_only() {
        let a = HaloField::from_fn(4, 3, 2, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let mut b = a.clone();
        for (j, k) in [(-1isize, 0usize), (3, 1)] {
            for i in -1..=4isize {
                b.set(i, j, k, f64::NAN);
            }
        }
        b.set(-1, 1, 0, f64::NAN);
        assert_eq!(a, b, "ghosts are not part of the value");
        let rows: Vec<f64> = b.interior_rows().flatten().copied().collect();
        let expect: Vec<f64> = (0..2)
            .flat_map(|k| {
                (0..3).flat_map(move |j| (0..4).map(move |i| (i + 10 * j + 100 * k) as f64))
            })
            .collect();
        assert_eq!(rows, expect, "interior rows in unpadded order");
        assert_eq!(b.interior_len(), 24);
        assert_eq!(b.interior_row(2, 1), &expect[20..24]);
        assert_eq!(b.column(3, 2), vec![23.0, 123.0]);
        b.interior_row_mut(0, 0)[1] = -1.0;
        assert_ne!(a, b);
    }

    #[test]
    fn columns_walk_levels_by_the_plane_stride() {
        let mut f = HaloField::from_fn(5, 3, 3, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let (cols, stride) = f.columns_mut(2, 1..4);
        assert_eq!(stride, 7 * 5);
        for k in 0..3 {
            for c in 0..3 {
                assert_eq!(cols[k * stride + c], (1 + c + 20 + 100 * k) as f64);
            }
        }
        cols[stride] = -5.0;
        assert_eq!(f.get(1, 2, 1), -5.0);
        f.set_column(4, 0, &[1.0, 2.0, 3.0]);
        assert_eq!(f.column(4, 0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_interiors_store_nothing() {
        // However large the other extents: a decoder sizes fields from
        // untrusted counts.
        let f = HaloField::zeros(0, 1 << 40, 1 << 20, 1);
        assert_eq!((f.interior_len(), f.padded().len()), (0, 0));
        assert_eq!(f.interior_rows().count(), 0);
        assert_eq!(f, HaloField::zeros(0, 1 << 40, 1 << 20, 1));
        assert_ne!(f, HaloField::zeros(0, 1, 1, 1));
    }
}
