//! Two-dimensional horizontal domain decomposition.
//!
//! "A two-dimensional grid partition in the horizontal plane is used in the
//! parallel implementation … Each subdomain in such a grid is a rectangular
//! region which contains all grid points in the vertical direction"
//! (paper §2). A `P_lat × P_lon` processor mesh tiles the 144 × 90 grid;
//! remainders go to the lower-index processors so sizes differ by at most
//! one row/column.

use crate::latlon::GridSpec;

/// A rectangular horizontal subdomain (owning all vertical levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subdomain {
    /// First owned longitude column.
    pub i0: usize,
    /// Number of owned longitude columns.
    pub ni: usize,
    /// First owned latitude row.
    pub j0: usize,
    /// Number of owned latitude rows.
    pub nj: usize,
}

impl Subdomain {
    /// Owned longitude indices.
    pub fn lons(&self) -> std::ops::Range<usize> {
        self.i0..self.i0 + self.ni
    }

    /// Owned latitude indices.
    pub fn lats(&self) -> std::ops::Range<usize> {
        self.j0..self.j0 + self.nj
    }

    /// Number of horizontal columns owned.
    pub fn columns(&self) -> usize {
        self.ni * self.nj
    }
}

/// Split `n` items over `p` parts: part `idx` gets `(start, len)` with the
/// remainder spread over the first parts.
pub fn block_partition(n: usize, p: usize, idx: usize) -> (usize, usize) {
    assert!(p > 0, "cannot partition over zero parts");
    assert!(idx < p, "part index {idx} out of range for {p} parts");
    let base = n / p;
    let rem = n % p;
    let start = idx * base + idx.min(rem);
    let len = base + usize::from(idx < rem);
    (start, len)
}

/// The decomposition of a grid over a `mesh_lat × mesh_lon` processor mesh.
///
/// Mesh row `r` (dimension 0) owns a band of latitudes; mesh column `c`
/// (dimension 1) owns a band of longitudes — matching
/// `agcm_mps::CartComm`'s convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomp {
    /// The global grid.
    pub grid: GridSpec,
    /// Processors along latitude (mesh rows, M in the paper).
    pub mesh_lat: usize,
    /// Processors along longitude (mesh columns, N in the paper).
    pub mesh_lon: usize,
}

impl Decomp {
    /// Create a decomposition; the mesh may not exceed the grid.
    pub fn new(grid: GridSpec, mesh_lat: usize, mesh_lon: usize) -> Decomp {
        assert!(
            mesh_lat > 0 && mesh_lon > 0,
            "mesh dimensions must be positive"
        );
        assert!(
            mesh_lat <= grid.n_lat && mesh_lon <= grid.n_lon,
            "mesh {mesh_lat}x{mesh_lon} exceeds grid {}x{}",
            grid.n_lat,
            grid.n_lon
        );
        Decomp {
            grid,
            mesh_lat,
            mesh_lon,
        }
    }

    /// Total processors.
    pub fn size(&self) -> usize {
        self.mesh_lat * self.mesh_lon
    }

    /// The subdomain owned by mesh position `(row, col)`.
    pub fn subdomain(&self, row: usize, col: usize) -> Subdomain {
        let (j0, nj) = block_partition(self.grid.n_lat, self.mesh_lat, row);
        let (i0, ni) = block_partition(self.grid.n_lon, self.mesh_lon, col);
        Subdomain { i0, ni, j0, nj }
    }

    /// The subdomain owned by a row-major rank.
    pub fn subdomain_of_rank(&self, rank: usize) -> Subdomain {
        assert!(rank < self.size(), "rank {rank} out of range");
        self.subdomain(rank / self.mesh_lon, rank % self.mesh_lon)
    }

    /// Mesh row owning global latitude `j`.
    pub fn row_of_lat(&self, j: usize) -> usize {
        assert!(j < self.grid.n_lat, "latitude {j} out of range");
        (0..self.mesh_lat)
            .find(|&r| {
                let (j0, nj) = block_partition(self.grid.n_lat, self.mesh_lat, r);
                j >= j0 && j < j0 + nj
            })
            .expect("every latitude has an owner")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_covers_exactly() {
        for n in [1usize, 7, 90, 144] {
            for p in [1usize, 2, 3, 8, 30] {
                if p > n {
                    continue;
                }
                let mut total = 0;
                let mut next = 0;
                for idx in 0..p {
                    let (start, len) = block_partition(n, p, idx);
                    assert_eq!(start, next, "parts must be contiguous");
                    assert!(len >= n / p && len <= n / p + 1, "balanced within one");
                    next = start + len;
                    total += len;
                }
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn paper_mesh_8x30() {
        // 240 nodes: 8 latitude bands of 90 rows, 30 longitude bands of 144.
        let d = Decomp::new(GridSpec::paper_9_layer(), 8, 30);
        assert_eq!(d.size(), 240);
        let s = d.subdomain(0, 0);
        // 90/8 = 11 r 2 → first two rows get 12.
        assert_eq!((s.j0, s.nj), (0, 12));
        // 144/30 = 4 r 24 → first 24 cols get 5.
        assert_eq!((s.i0, s.ni), (0, 5));
        let last = d.subdomain(7, 29);
        assert_eq!(last.j0 + last.nj, 90);
        assert_eq!(last.i0 + last.ni, 144);
    }

    #[test]
    fn subdomains_tile_the_grid() {
        let d = Decomp::new(GridSpec::paper_9_layer(), 4, 4);
        let mut owned = vec![false; 144 * 90];
        for rank in 0..d.size() {
            let s = d.subdomain_of_rank(rank);
            for j in s.lats() {
                for i in s.lons() {
                    assert!(!owned[j * 144 + i], "point ({i},{j}) owned twice");
                    owned[j * 144 + i] = true;
                }
            }
        }
        assert!(owned.into_iter().all(|b| b), "every point must be owned");
    }

    #[test]
    fn ownership_lookup_agrees_with_subdomains() {
        let d = Decomp::new(GridSpec::paper_9_layer(), 3, 7);
        for j in [0, 29, 30, 89] {
            let r = d.row_of_lat(j);
            let s = d.subdomain(r, 0);
            assert!(s.lats().contains(&j));
        }
    }

    #[test]
    fn single_processor_owns_everything() {
        let d = Decomp::new(GridSpec::paper_9_layer(), 1, 1);
        let s = d.subdomain(0, 0);
        assert_eq!(s.columns(), 144 * 90);
    }

    #[test]
    #[should_panic(expected = "exceeds grid")]
    fn oversized_mesh_rejected() {
        Decomp::new(GridSpec::new(4, 4, 1), 5, 1);
    }
}
