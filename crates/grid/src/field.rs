//! Field storage layouts.
//!
//! The paper's single-node study (§3.4) compares two layouts for a set of m
//! discrete fields on an `idim × jdim × kdim` grid:
//!
//! * **separate arrays** — one contiguous array per field, the AGCM's
//!   original choice ([`Field3D`]);
//! * **a block-oriented array** `f(m, idim, jdim, kdim)` in which all m
//!   field values at a grid point are adjacent in memory ([`BlockField`]).
//!
//! On a 7-point Laplace stencil over several fields the block layout was
//! 5× faster on the Paragon and 2.6× on the T3D, yet it did *not* pay off
//! in the full advection routine. Both layouts are first-class here so the
//! `agcm-singlenode` crate can reproduce that comparison.
//!
//! Index convention: `i` (longitude) is the fastest axis, then `j`
//! (latitude), then `k` (level) — the Fortran layout of the original code
//! transliterated to row-major Rust by reversing subscript order.

/// One scalar field on an `ni × nj × nk` grid; longitude fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3D {
    ni: usize,
    nj: usize,
    nk: usize,
    data: Vec<f64>,
}

impl Field3D {
    /// A zero-filled field.
    pub fn zeros(ni: usize, nj: usize, nk: usize) -> Field3D {
        Field3D {
            ni,
            nj,
            nk,
            data: vec![0.0; ni * nj * nk],
        }
    }

    /// A field initialized by `f(i, j, k)`.
    pub fn from_fn(
        ni: usize,
        nj: usize,
        nk: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Field3D {
        let mut data = Vec::with_capacity(ni * nj * nk);
        for k in 0..nk {
            for j in 0..nj {
                for i in 0..ni {
                    data.push(f(i, j, k));
                }
            }
        }
        Field3D { ni, nj, nk, data }
    }

    /// Grid shape `(ni, nj, nk)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.ni, self.nj, self.nk)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field has zero points (never true for a constructed field).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn offset(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            i < self.ni && j < self.nj && k < self.nk,
            "index ({i},{j},{k}) out of range for shape ({},{},{})",
            self.ni,
            self.nj,
            self.nk
        );
        (k * self.nj + j) * self.ni + i
    }

    /// Read the value at `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.offset(i, j, k)]
    }

    /// Write the value at `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let off = self.offset(i, j, k);
        self.data[off] = v;
    }

    /// The raw data, `i` fastest.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow one latitude row (all longitudes) at `(j, k)` — the unit of
    /// data the polar filter redistributes, and a contiguous slice.
    pub fn row_slice(&self, j: usize, k: usize) -> &[f64] {
        let start = self.offset(0, j, k);
        &self.data[start..start + self.ni]
    }

    /// Mutably borrow one latitude row at `(j, k)`.
    pub fn row_slice_mut(&mut self, j: usize, k: usize) -> &mut [f64] {
        let start = self.offset(0, j, k);
        &mut self.data[start..start + self.ni]
    }

    /// Copy one latitude row at `(j, k)`.
    pub fn row(&self, j: usize, k: usize) -> Vec<f64> {
        self.row_slice(j, k).to_vec()
    }

    /// Overwrite one latitude row at `(j, k)`.
    pub fn set_row(&mut self, j: usize, k: usize, row: &[f64]) {
        assert_eq!(row.len(), self.ni, "row length must equal n_lon");
        let start = self.offset(0, j, k);
        self.data[start..start + self.ni].copy_from_slice(row);
    }

    /// Maximum absolute difference to another field of the same shape.
    pub fn max_abs_diff(&self, other: &Field3D) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// `m` fields interleaved per grid point: Fortran `f(m, i, j, k)`, i.e. the
/// variable index is the fastest axis.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockField {
    m: usize,
    ni: usize,
    nj: usize,
    nk: usize,
    data: Vec<f64>,
}

impl BlockField {
    /// A zero-filled block field of `m` variables.
    pub fn zeros(m: usize, ni: usize, nj: usize, nk: usize) -> BlockField {
        BlockField {
            m,
            ni,
            nj,
            nk,
            data: vec![0.0; m * ni * nj * nk],
        }
    }

    /// Interleave `m` separate fields (all the same shape) into one block
    /// array — the transformation the paper applied to the advection
    /// routine ("about a dozen three-dimensional arrays were combined into
    /// one single array").
    pub fn from_fields(fields: &[Field3D]) -> BlockField {
        assert!(!fields.is_empty(), "need at least one field");
        let (ni, nj, nk) = fields[0].shape();
        for f in fields {
            assert_eq!(f.shape(), (ni, nj, nk), "all fields must share a shape");
        }
        let m = fields.len();
        let mut out = BlockField::zeros(m, ni, nj, nk);
        for (v, f) in fields.iter().enumerate() {
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        out.set(v, i, j, k, f.get(i, j, k));
                    }
                }
            }
        }
        out
    }

    /// Split back into separate per-variable fields.
    pub fn to_fields(&self) -> Vec<Field3D> {
        (0..self.m)
            .map(|v| Field3D::from_fn(self.ni, self.nj, self.nk, |i, j, k| self.get(v, i, j, k)))
            .collect()
    }

    /// Shape `(m, ni, nj, nk)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.m, self.ni, self.nj, self.nk)
    }

    #[inline]
    fn offset(&self, v: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(v < self.m && i < self.ni && j < self.nj && k < self.nk);
        ((k * self.nj + j) * self.ni + i) * self.m + v
    }

    /// Read variable `v` at `(i, j, k)`.
    #[inline]
    pub fn get(&self, v: usize, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.offset(v, i, j, k)]
    }

    /// Write variable `v` at `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, v: usize, i: usize, j: usize, k: usize, val: f64) {
        let off = self.offset(v, i, j, k);
        self.data[off] = val;
    }

    /// The raw interleaved data (variable index fastest).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw interleaved data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut f = Field3D::zeros(4, 3, 2);
        f.set(1, 2, 1, 7.5);
        assert_eq!(f.get(1, 2, 1), 7.5);
        assert_eq!(f.get(0, 0, 0), 0.0);
        assert_eq!(f.len(), 24);
        assert!(!f.is_empty());
    }

    #[test]
    fn layout_is_lon_fastest() {
        let f = Field3D::from_fn(3, 2, 2, |i, j, k| (i + 10 * j + 100 * k) as f64);
        // Consecutive memory must advance i first.
        assert_eq!(&f.as_slice()[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(f.as_slice()[3], 10.0); // j advanced
        assert_eq!(f.as_slice()[6], 100.0); // k advanced
    }

    #[test]
    fn rows() {
        let mut f = Field3D::from_fn(4, 3, 2, |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(f.row(1, 0), vec![10.0, 11.0, 12.0, 13.0]);
        f.set_row(0, 1, &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(f.row(0, 1), vec![9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn block_layout_is_variable_fastest() {
        let a = Field3D::from_fn(2, 1, 1, |i, _, _| i as f64);
        let b = Field3D::from_fn(2, 1, 1, |i, _, _| 10.0 + i as f64);
        let blk = BlockField::from_fields(&[a, b]);
        // Memory order: (v0,i0), (v1,i0), (v0,i1), (v1,i1).
        assert_eq!(blk.as_slice(), &[0.0, 10.0, 1.0, 11.0]);
    }

    #[test]
    fn block_roundtrip() {
        let fields: Vec<Field3D> = (0..3)
            .map(|v| Field3D::from_fn(5, 4, 3, |i, j, k| (v * 1000 + i + 10 * j + 100 * k) as f64))
            .collect();
        let blk = BlockField::from_fields(&fields);
        assert_eq!(blk.shape(), (3, 5, 4, 3));
        let back = blk.to_fields();
        for (orig, rec) in fields.iter().zip(&back) {
            assert_eq!(orig.max_abs_diff(rec), 0.0);
        }
    }

    #[test]
    fn max_abs_diff_metric() {
        let a = Field3D::zeros(2, 2, 1);
        let mut b = Field3D::zeros(2, 2, 1);
        b.set(1, 1, 0, -3.0);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn bad_row_length_rejected() {
        Field3D::zeros(4, 2, 1).set_row(0, 0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mismatched_block_fields_rejected() {
        BlockField::from_fields(&[Field3D::zeros(2, 2, 1), Field3D::zeros(3, 2, 1)]);
    }
}
