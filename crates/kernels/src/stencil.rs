//! The §3.4 cache experiment's 7-point Laplace stencil over flat slices.
//!
//! `r(i,j,k) = Σ_m (Σ_neighbours f_m − 6·f_m)` evaluated for `m` fields
//! stored either separately or block-interleaved `f(m,i,j,k)`. These are
//! the optimized twins of `agcm_singlenode::blockarray::{laplace_separate,
//! laplace_block}`: same accumulation order (bit-identical results), but
//! the per-point bounds-checked `get`/`set` offset arithmetic is replaced
//! by exact-length row slices the compiler vectorizes. On x86-64 each
//! kernel runtime-dispatches (`dispatched!`) to an AVX-512F/AVX2
//! compilation of the same loop body where the CPU supports it — wider
//! lanes, identical per-point arithmetic order. Interior points only; the
//! boundary ring of `out` is zeroed.

use agcm_grid::dispatched;

/// Sum of 7-point Laplacians over fields stored separately, accumulated
/// field-by-field into `out` (the reference's order).
///
/// Dispatches at runtime to the widest SIMD compilation of the same loop
/// body the CPU supports. Vector width cannot change results: each output
/// point's addition chain lives entirely within one lane, so vector lanes
/// perform exactly the scalar sequence — bit-identical by construction.
pub fn laplace_separate_into(fields: &[&[f64]], shape: (usize, usize, usize), out: &mut [f64]) {
    let (ni, nj, nk) = shape;
    let n = ni * nj * nk;
    assert!(!fields.is_empty(), "need at least one field");
    assert!(ni >= 2 && nj >= 2 && nk >= 2, "stencil needs 3D interior");
    assert_eq!(out.len(), n, "output buffer mis-sized");
    for f in fields {
        assert_eq!(f.len(), n, "field mis-sized");
    }
    out.fill(0.0);
    separate_rows(fields, shape, out);
}

dispatched! {
    /// The separate-layout loop body over a zeroed `out`.
    fn separate_rows / separate_rows_body / separate_rows_avx2 / separate_rows_avx512 (
        fields: &[&[f64]],
        shape: (usize, usize, usize),
        out: &mut [f64],
    ) {
        let (ni, nj, nk) = shape;
        if nj < 3 {
            return; // no interior rows — out stays zeroed
        }
        let (rj, rk) = (ni, ni * nj);
        // Fused-plane traversal: within each k-plane the interior rows form
        // one contiguous span (the neighbour-offset formulas stay valid at the
        // i-boundary columns in between — they just compute wrap-around
        // garbage there, re-zeroed below). One long vector loop per
        // (plane, field) instead of one short one per (row, field). Every
        // interior point still accumulates its fields in reference order, so
        // results stay bit-identical.
        let span = (nj - 2) * ni - 2; // (1,1,k) ..= (ni-2,nj-2,k), contiguous
        for k in 1..nk - 1 {
            let b = (k * nj + 1) * ni + 1; // first interior point of the plane
            let o = &mut out[b..b + span];
            for f in fields {
                let c = &f[b..b + span];
                let w = &f[b - 1..b - 1 + span];
                let e = &f[b + 1..b + 1 + span];
                let s = &f[b - rj..b - rj + span];
                let nn = &f[b + rj..b + rj + span];
                let d = &f[b - rk..b - rk + span];
                let u = &f[b + rk..b + rk + span];
                for i in 0..span {
                    // Same chain as the reference: W + E + S + N + D + U − 6C.
                    let lap = w[i] + e[i] + s[i] + nn[i] + d[i] + u[i] - 6.0 * c[i];
                    o[i] += lap;
                }
            }
            // Re-zero the i-boundary columns the fused span swept through.
            for j in 1..nj - 1 {
                let row = (k * nj + j) * ni;
                out[row] = 0.0;
                out[row + ni - 1] = 0.0;
            }
        }
    }
}

/// The same sum over a block-interleaved array (variable index fastest):
/// one traversal of the grid, the `m` values of a point adjacent in
/// memory. Accumulation order over `v` matches the separate kernel, so
/// both layouts stay bit-identical.
pub fn laplace_block_into(block: &[f64], m: usize, shape: (usize, usize, usize), out: &mut [f64]) {
    let (ni, nj, nk) = shape;
    assert!(m >= 1, "need at least one field");
    assert!(ni >= 2 && nj >= 2 && nk >= 2, "stencil needs 3D interior");
    assert_eq!(block.len(), m * ni * nj * nk, "block mis-sized");
    assert_eq!(out.len(), ni * nj * nk, "output buffer mis-sized");
    out.fill(0.0);
    block_rows(block, m, shape, out);
}

dispatched! {
    /// The block-layout loop body over a zeroed `out`.
    fn block_rows / block_rows_body / block_rows_avx2 / block_rows_avx512 (
        block: &[f64],
        m: usize,
        shape: (usize, usize, usize),
        out: &mut [f64],
    ) {
        let (ni, nj, nk) = shape;
        let (rj, rk) = (ni * m, ni * nj * m);
        for k in 1..nk - 1 {
            for j in 1..nj - 1 {
                let ob = (k * nj + j) * ni;
                let o = &mut out[ob + 1..ob + ni - 1];
                let bb = ob * m;
                #[allow(clippy::needless_range_loop)] // o and block advance differently
                for i in 0..ni - 2 {
                    let p = bb + (i + 1) * m;
                    let c = &block[p..p + m];
                    let w = &block[p - m..p];
                    let e = &block[p + m..p + 2 * m];
                    let s = &block[p - rj..p - rj + m];
                    let nn = &block[p + rj..p + rj + m];
                    let d = &block[p - rk..p - rk + m];
                    let u = &block[p + rk..p + rk + m];
                    let mut acc = 0.0;
                    for v in 0..m {
                        acc += w[v] + e[v] + s[v] + nn[v] + d[v] + u[v] - 6.0 * c[v];
                    }
                    o[i] = acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(shape: (usize, usize, usize), seed: usize) -> Vec<f64> {
        let n = shape.0 * shape.1 * shape.2;
        (0..n)
            .map(|x| ((x * 31 + seed * 7) as f64 * 0.11).sin())
            .collect()
    }

    #[test]
    fn layouts_agree_bit_for_bit() {
        let shape = (9, 7, 5);
        let fields: Vec<Vec<f64>> = (0..4).map(|s| field(shape, s)).collect();
        let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
        let n = shape.0 * shape.1 * shape.2;
        // Interleave by hand.
        let mut block = vec![0.0; 4 * n];
        for (v, f) in fields.iter().enumerate() {
            for (p, &x) in f.iter().enumerate() {
                block[p * 4 + v] = x;
            }
        }
        let mut sep = vec![0.0; n];
        let mut blk = vec![0.0; n];
        laplace_separate_into(&refs, shape, &mut sep);
        laplace_block_into(&block, 4, shape, &mut blk);
        assert_eq!(sep, blk, "layouts must agree bit-for-bit");
    }

    #[test]
    fn every_dispatch_target_agrees_bitwise() {
        // Both layouts' private wrappers against their portable
        // compilations, on ragged rows and the paper grid.
        type Separate = unsafe fn(&[&[f64]], (usize, usize, usize), &mut [f64]);
        type Block = unsafe fn(&[f64], usize, (usize, usize, usize), &mut [f64]);
        for shape in [(37, 5, 3), (50, 4, 3), (144, 90, 9)] {
            let n = shape.0 * shape.1 * shape.2;
            let fields: Vec<Vec<f64>> = (0..3).map(|s| field(shape, s)).collect();
            let refs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            let block: Vec<f64> = (0..3 * n).map(|p| fields[p % 3][p / 3]).collect();
            let separate = |f: Separate| {
                let mut out = vec![0.0; n];
                // SAFETY: a target-feature wrapper is passed only after
                // detecting that feature; the others are safe functions.
                unsafe { f(&refs, shape, &mut out) };
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let blocked = |f: Block| {
                let mut out = vec![0.0; n];
                // SAFETY: as above.
                unsafe { f(&block, 3, shape, &mut out) };
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            let (sep, blk) = (separate(separate_rows_body), blocked(block_rows_body));
            assert_eq!(sep, separate(separate_rows), "{shape:?}: dispatched");
            assert_eq!(blk, blocked(block_rows), "{shape:?}: dispatched");
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    assert_eq!(sep, separate(separate_rows_avx2), "{shape:?}: avx2");
                    assert_eq!(blk, blocked(block_rows_avx2), "{shape:?}: avx2");
                }
                if is_x86_feature_detected!("avx512f") {
                    assert_eq!(sep, separate(separate_rows_avx512), "{shape:?}: avx512f");
                    assert_eq!(blk, blocked(block_rows_avx512), "{shape:?}: avx512f");
                }
            }
        }
    }

    #[test]
    fn linear_field_has_zero_laplacian() {
        let (ni, nj, nk) = (8, 8, 8);
        let f: Vec<f64> = (0..ni * nj * nk)
            .map(|p| {
                let (k, r) = (p / (ni * nj), p % (ni * nj));
                let (j, i) = (r / ni, r % ni);
                (i + 2 * j + 3 * k) as f64
            })
            .collect();
        let mut out = vec![0.0; ni * nj * nk];
        laplace_separate_into(&[&f], (ni, nj, nk), &mut out);
        for k in 1..nk - 1 {
            for j in 1..nj - 1 {
                for i in 1..ni - 1 {
                    assert!(out[(k * nj + j) * ni + i].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn boundary_ring_zeroed() {
        let shape = (6, 6, 6);
        let f = field(shape, 0);
        let mut out = vec![7.0; 216];
        laplace_separate_into(&[&f], shape, &mut out);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[(5 * 6 + 3) * 6 + 3], 0.0, "j boundary");
    }
}
