//! Borrowed flat views over halo-padded storage.
//!
//! The reference operators read ghosts through the bounds-checked signed
//! accessor `HaloField::get(isize, isize, usize)`, recomputing the padded
//! offset per call. The kernels instead walk the padded slice directly:
//! a [`HaloView`] captures the strides once, and each per-row slice the
//! kernels carve out is exact-length, so the compiler drops the bounds
//! checks and vectorizes the inner loops.

use agcm_grid::halo::HaloField;

/// The five exact-length rows of the 5-point star around interior row
/// `(j, k)`: the row itself (`c`), the same row one column east and west
/// (`e`, `w`), and rows `j + 1` and `j − 1` (`n`, `s`) — `ni` values
/// each, ghosts included where they reach.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Star<'a> {
    pub c: &'a [f64],
    pub e: &'a [f64],
    pub w: &'a [f64],
    pub n: &'a [f64],
    pub s: &'a [f64],
}

/// A read-only flat view of a [`HaloField`]'s padded storage.
#[derive(Debug, Clone, Copy)]
pub struct HaloView<'a> {
    data: &'a [f64],
    /// Interior shape.
    pub ni: usize,
    /// Interior latitude rows.
    pub nj: usize,
    /// Levels.
    pub nk: usize,
    row: usize,
    plane: usize,
    origin: usize,
}

impl<'a> HaloView<'a> {
    /// View the padded storage of `h`. Requires halo width ≥ 1 (always
    /// true — `HaloField::zeros` rejects zero-width halos).
    pub fn of(h: &'a HaloField) -> HaloView<'a> {
        let (ni, nj, nk) = h.shape();
        HaloView {
            data: h.padded(),
            ni,
            nj,
            nk,
            row: h.row_stride(),
            plane: h.plane_stride(),
            origin: h.interior_origin(),
        }
    }

    /// The padded data.
    #[inline]
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Flat index of interior point `(0, j, k)`.
    #[inline]
    pub fn row_base(&self, j: usize, k: usize) -> usize {
        self.origin + k * self.plane + j * self.row
    }

    /// Interior row `(j, k)`: `ni` contiguous values, no ghosts.
    #[inline(always)]
    pub(crate) fn interior_row(&self, j: usize, k: usize) -> &'a [f64] {
        let b = self.row_base(j, k);
        &self.data[b..b + self.ni]
    }

    /// The stencil rows around interior row `(j, k)`.
    #[inline(always)]
    pub(crate) fn star(&self, j: usize, k: usize) -> Star<'a> {
        let (d, b, ni, row) = (self.data, self.row_base(j, k), self.ni, self.row);
        Star {
            c: self.interior_row(j, k),
            e: &d[b + 1..b + 1 + ni],
            w: &d[b - 1..b - 1 + ni],
            n: &d[b + row..b + row + ni],
            s: &d[b - row..b - row + ni],
        }
    }

    /// True if `other` shares this view's interior shape (and therefore,
    /// with equal halo widths, its strides).
    #[inline]
    pub fn same_shape(&self, other: &HaloView) -> bool {
        self.ni == other.ni && self.nj == other.nj && self.nk == other.nk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_walks_the_interior_and_ghosts() {
        let mut h = HaloField::zeros(4, 3, 2, 1);
        h.fill_interior(|i, j, k| (i + 10 * j + 100 * k) as f64);
        h.set(-1, 0, 1, -7.0);
        let v = HaloView::of(&h);
        assert_eq!((v.ni, v.nj, v.nk), (4, 3, 2));
        for k in 0..2usize {
            for j in 0..3usize {
                let b = v.row_base(j, k);
                for i in 0..4usize {
                    assert_eq!(v.data()[b + i], h.get(i as isize, j as isize, k));
                }
            }
        }
        // West ghost of (0, 0, 1) is one step before the row base.
        assert_eq!(v.data()[v.row_base(0, 1) - 1], -7.0);
        let star = v.star(1, 1);
        assert_eq!(star.w[0], h.get(-1, 1, 1));
        assert_eq!(star.e[3], h.get(4, 1, 1));
        assert_eq!((star.n[2], star.s[2]), (h.get(2, 2, 1), h.get(2, 0, 1)));
        assert_eq!(star.c, &v.data()[v.row_base(1, 1)..][..4]);
    }
}
