//! 2-D Cartesian process topologies.
//!
//! The UCLA AGCM decomposes the horizontal (latitude × longitude) grid over
//! a 2-D processor mesh: "an M×N processor mesh, with M processors in the
//! latitudinal direction and N processors in the longitudinal direction"
//! (paper §3.3). [`CartComm`] wraps a [`Comm`] with that shape: coordinate
//! arithmetic, periodic/non-periodic neighbours for halo exchange, and row
//! sub-communicators (processor rows are what the filtering transpose and
//! row redistribution operate on).
//!
//! Convention: dimension 0 is latitude (rows of the mesh), dimension 1 is
//! longitude (columns). Longitude is periodic on the sphere; latitude is not
//! (the poles are boundaries).

use crate::comm::Comm;

/// A communicator arranged as an `rows × cols` mesh, row-major.
pub struct CartComm {
    comm: Comm,
    rows: usize,
    cols: usize,
    periodic: (bool, bool),
}

impl CartComm {
    /// Arrange `comm` as a `rows × cols` mesh. `periodic.0` applies to the
    /// row (latitude) dimension, `periodic.1` to the column (longitude)
    /// dimension. The AGCM uses `(false, true)`.
    ///
    /// Collective: internally duplicates `comm` so mesh traffic gets its own
    /// context. Every rank of `comm` must call this.
    ///
    /// # Panics
    /// If `rows * cols != comm.size()`.
    pub fn new(comm: &Comm, rows: usize, cols: usize, periodic: (bool, bool)) -> CartComm {
        assert_eq!(
            rows * cols,
            comm.size(),
            "mesh {rows}x{cols} does not match communicator size {}",
            comm.size()
        );
        CartComm {
            comm: comm.dup(),
            rows,
            cols,
            periodic,
        }
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This rank's `(row, col)` coordinates.
    pub fn coords(&self) -> (usize, usize) {
        self.coords_of(self.comm.rank())
    }

    /// Coordinates of an arbitrary rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.comm.size(), "rank {rank} out of range");
        (rank / self.cols, rank % self.cols)
    }

    /// Rank at `(row, col)`.
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "coords ({row},{col}) out of range"
        );
        row * self.cols + col
    }

    /// Neighbour in `dim` (0 = row/latitude, 1 = col/longitude) at signed
    /// displacement `disp`. Returns `None` at a non-periodic boundary.
    pub fn neighbor(&self, dim: usize, disp: isize) -> Option<usize> {
        let (row, col) = self.coords();
        let (pos, extent, periodic) = match dim {
            0 => (row as isize, self.rows as isize, self.periodic.0),
            1 => (col as isize, self.cols as isize, self.periodic.1),
            _ => panic!("dimension {dim} out of range for a 2-D mesh"),
        };
        let raw = pos + disp;
        let wrapped = if periodic {
            raw.rem_euclid(extent)
        } else if raw < 0 || raw >= extent {
            return None;
        } else {
            raw
        };
        Some(match dim {
            0 => self.rank_of(wrapped as usize, col),
            _ => self.rank_of(row, wrapped as usize),
        })
    }

    /// Sub-communicator of this rank's mesh row (all longitudes at one
    /// latitude band). Collective over the whole mesh.
    pub fn row_comm(&self) -> Comm {
        let (row, col) = self.coords();
        self.comm.split(row as i64, col as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run;

    fn mesh_2x3(c: &Comm) -> CartComm {
        CartComm::new(c, 2, 3, (false, true))
    }

    #[test]
    fn coords_roundtrip() {
        run(6, |c| {
            let rank = c.rank();
            let m = mesh_2x3(c);
            let (r, q) = m.coords();
            assert_eq!(m.rank_of(r, q), rank);
            assert_eq!(m.coords_of(rank), (r, q));
        });
    }

    #[test]
    fn longitude_is_periodic() {
        run(6, |c| {
            let m = mesh_2x3(c);
            let (row, col) = m.coords();
            // +1 in longitude always exists and wraps.
            let east = m.neighbor(1, 1).unwrap();
            assert_eq!(m.coords_of(east), (row, (col + 1) % 3));
            // Wrap the long way round.
            let far = m.neighbor(1, -4).unwrap();
            assert_eq!(m.coords_of(far).1, (col + 3 - 1) % 3);
        });
    }

    #[test]
    fn latitude_is_bounded() {
        run(6, |c| {
            let m = mesh_2x3(c);
            let (row, _) = m.coords();
            if row == 0 {
                assert_eq!(m.neighbor(0, -1), None, "no neighbour past the pole");
                assert!(m.neighbor(0, 1).is_some());
            } else {
                assert!(m.neighbor(0, -1).is_some());
                assert_eq!(m.neighbor(0, 1), None);
            }
        });
    }

    #[test]
    fn row_comm_spans_the_mesh_row() {
        run(6, |c| {
            let m = mesh_2x3(c);
            let rc = m.row_comm();
            assert_eq!(rc.size(), 3);
            assert_eq!(rc.rank(), m.coords().1);
        });
    }

    #[test]
    #[should_panic(expected = "does not match communicator size")]
    fn bad_mesh_shape_panics() {
        run(6, |c| {
            CartComm::new(c, 2, 2, (false, true));
        });
    }

    #[test]
    fn single_row_mesh() {
        run(4, |c| {
            let m = CartComm::new(c, 1, 4, (false, true));
            assert_eq!(m.neighbor(0, 1), None);
            assert_eq!(m.neighbor(1, 2), Some((m.coords().1 + 2) % 4));
        });
    }
}
