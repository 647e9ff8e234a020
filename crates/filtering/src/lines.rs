//! Filter-line bookkeeping: the "non-trivial set-up code" of §3.3.
//!
//! A **line** is the unit the filter operates on: one variable at one
//! filtered latitude and one vertical level — a complete circle of
//! longitude points. Initially a line is scattered over the processor row
//! that owns its latitude (each processor holds a longitude chunk). The
//! set-up phase enumerates all lines per filter class, decides who filters
//! which line under each strategy, and precomputes the spectral
//! multipliers. "Its cost is not an issue for a long AGCM simulation since
//! it is done only once, and its cost is also nearly independent of AGCM
//! problem size."

use crate::filterfn::FilterKind;
use agcm_fft::{shared_plan, FftPlan};
use agcm_grid::arakawa::Variable;
use agcm_grid::decomp::{block_partition, Decomp};
use agcm_grid::latlon::GridSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One filterable line: variable × latitude × level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Line {
    /// Index into [`Variable::ALL`] / the caller's field slice.
    pub var: usize,
    /// Global latitude row.
    pub lat: usize,
    /// Vertical level.
    pub lev: usize,
}

/// Precomputed bookkeeping shared by all three filter implementations.
pub struct FilterSetup {
    /// The global grid.
    pub grid: GridSpec,
    /// The processor-mesh decomposition.
    pub decomp: Decomp,
    /// Field indices subject to strong filtering.
    pub strong_vars: Vec<usize>,
    /// Field indices subject to weak filtering.
    pub weak_vars: Vec<usize>,
    /// Lines per class (`[strong, weak]`), canonical order.
    lines: [Vec<Line>; 2],
    /// Spectral multiplier per class and global latitude row; `None` for
    /// rows the class does not filter.
    multipliers: [Vec<Option<Vec<f64>>>; 2],
    /// Row-local owner of every line, per class.
    row_local: [Vec<usize>; 2],
    /// Load-balanced owner of every line, per class.
    balanced: [Vec<usize>; 2],
    /// Process-unique identity, so state derived from a setup (the
    /// engine's cached pass plans) can tell which setup it belongs to.
    id: u64,
    /// FFT plan for whole longitude lines, shared through the process-wide
    /// per-size plan cache (every rank and every setup of one run reuses
    /// the same plan — the paper's once-per-run setup cost, done once per
    /// *process*).
    pub fft: Arc<FftPlan>,
}

impl FilterSetup {
    /// Build the setup for a grid/decomposition with the standard variable
    /// classification from [`Variable`].
    pub fn new(grid: GridSpec, decomp: Decomp) -> FilterSetup {
        let strong_vars: Vec<usize> = Variable::strongly_filtered()
            .iter()
            .map(|v| v.index())
            .collect();
        let weak_vars: Vec<usize> = Variable::weakly_filtered()
            .iter()
            .map(|v| v.index())
            .collect();
        FilterSetup::with_vars(grid, decomp, strong_vars, weak_vars)
    }

    /// Build the setup with explicit variable sets (levels default to the
    /// grid's; pressure etc. are treated as full 3-D fields for filtering
    /// cost purposes, as the per-layer filter applies "on every vertical
    /// layer").
    pub fn with_vars(
        grid: GridSpec,
        decomp: Decomp,
        strong_vars: Vec<usize>,
        weak_vars: Vec<usize>,
    ) -> FilterSetup {
        assert_eq!(
            grid, decomp.grid,
            "setup grid must match the decomposition grid"
        );
        let enumerate = |kind: FilterKind, vars: &[usize]| -> Vec<Line> {
            let lats = kind.filtered_lats(&grid);
            let mut lines = Vec::with_capacity(vars.len() * lats.len() * grid.n_lev);
            for &var in vars {
                for &lat in &lats {
                    for lev in 0..grid.n_lev {
                        lines.push(Line { var, lat, lev });
                    }
                }
            }
            lines
        };
        let lines = [
            enumerate(FilterKind::Strong, &strong_vars),
            enumerate(FilterKind::Weak, &weak_vars),
        ];
        let multipliers = KINDS.map(|kind| {
            let mut table = vec![None; grid.n_lat];
            for lat in kind.filtered_lats(&grid) {
                table[lat] = Some(kind.multiplier(&grid, lat));
            }
            table
        });
        let row_local = lines.each_ref().map(|l| row_local_assignment(&decomp, l));
        let balanced = lines
            .each_ref()
            .map(|l| balanced_assignment(&decomp, l.len()));
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        FilterSetup {
            grid,
            decomp,
            strong_vars,
            weak_vars,
            lines,
            multipliers,
            row_local,
            balanced,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            fft: shared_plan(grid.n_lon),
        }
    }

    /// Process-unique identity of this setup.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// All lines of one filter class, in canonical (var, lat, lev) order.
    pub fn lines(&self, kind: FilterKind) -> &[Line] {
        &self.lines[kind_index(kind)]
    }

    /// Variable indices of one filter class.
    pub fn vars(&self, kind: FilterKind) -> &[usize] {
        match kind {
            FilterKind::Strong => &self.strong_vars,
            FilterKind::Weak => &self.weak_vars,
        }
    }

    /// The precomputed spectral multiplier for a filtered latitude.
    pub fn multiplier(&self, kind: FilterKind, lat: usize) -> &[f64] {
        self.multipliers[kind_index(kind)]
            .get(lat)
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("latitude {lat} is not filtered by {kind:?}"))
    }

    /// Longitude chunk `(i0, ni)` held by mesh column `c`.
    pub fn col_chunk(&self, c: usize) -> (usize, usize) {
        block_partition(self.grid.n_lon, self.decomp.mesh_lon, c)
    }

    /// **Load-balanced assignment** (paper Eq. 3 / Figure 2): line `l` of
    /// `kind` is filtered by rank `owner[l]`, with every rank receiving
    /// ⌈L/P⌉ or ⌊L/P⌋ complete lines regardless of how many lines each
    /// hemisphere contributes. Computed once at set-up.
    pub fn balanced_owners(&self, kind: FilterKind) -> &[usize] {
        &self.balanced[kind_index(kind)]
    }

    /// **Row-local assignment** (FFT *without* load balance): each line
    /// stays within the mesh row owning its latitude; lines of a row are
    /// dealt round-robin over that row's columns, so the assignment stays
    /// balanced within the row even when a single variable is processed at
    /// a time (any contiguous run of lines spreads across all columns).
    /// Polar rows stay overloaded relative to mid-latitude rows — that is
    /// the point of the comparison. Computed once at set-up.
    pub fn row_local_owners(&self, kind: FilterKind) -> &[usize] {
        &self.row_local[kind_index(kind)]
    }

    /// Per-rank line counts for an assignment — used by tests and by the
    /// Figure 2 demonstration.
    pub fn owner_counts(&self, owners: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.decomp.size()];
        for &o in owners {
            counts[o] += 1;
        }
        counts
    }
}

/// Both filter classes, in the order the per-class tables are indexed.
const KINDS: [FilterKind; 2] = [FilterKind::Strong, FilterKind::Weak];

fn kind_index(kind: FilterKind) -> usize {
    match kind {
        FilterKind::Strong => 0,
        FilterKind::Weak => 1,
    }
}

fn balanced_assignment(decomp: &Decomp, n_lines: usize) -> Vec<usize> {
    let p = decomp.size();
    let mut owners = vec![0usize; n_lines];
    for rank in 0..p {
        let (start, len) = block_partition(n_lines, p, rank);
        owners[start..start + len].fill(rank);
    }
    owners
}

fn row_local_assignment(decomp: &Decomp, lines: &[Line]) -> Vec<usize> {
    let n_cols = decomp.mesh_lon;
    // Lines dealt so far within each mesh row.
    let mut dealt = vec![0usize; decomp.mesh_lat];
    lines
        .iter()
        .map(|line| {
            let row = decomp.row_of_lat(line.lat);
            let owner = row * n_cols + dealt[row] % n_cols;
            dealt[row] += 1;
            owner
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(mesh_lat: usize, mesh_lon: usize) -> FilterSetup {
        let grid = GridSpec::paper_9_layer();
        FilterSetup::new(grid, Decomp::new(grid, mesh_lat, mesh_lon))
    }

    #[test]
    fn line_counts() {
        let s = setup(4, 4);
        // Strong: 4 vars × 46 lats × 9 levels.
        assert_eq!(s.lines(FilterKind::Strong).len(), 4 * 46 * 9);
        // Weak: 2 vars × 30 lats × 9 levels.
        assert_eq!(s.lines(FilterKind::Weak).len(), 2 * 30 * 9);
    }

    #[test]
    fn balanced_owners_match_eq3() {
        let s = setup(4, 8);
        let owners = s.balanced_owners(FilterKind::Strong);
        let counts = s.owner_counts(owners);
        let total: usize = counts.iter().sum();
        assert_eq!(total, s.lines(FilterKind::Strong).len());
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Eq. (3): every processor gets ⌈ΣR/N⌉ (or one fewer).
        assert!(
            max - min <= 1,
            "balanced counts must differ by at most 1: {counts:?}"
        );
        assert_eq!(max, s.lines(FilterKind::Strong).len().div_ceil(32));
    }

    #[test]
    fn row_local_owners_stay_in_their_row() {
        let s = setup(6, 4);
        let lines = s.lines(FilterKind::Weak);
        let owners = s.row_local_owners(FilterKind::Weak);
        for (line, &owner) in lines.iter().zip(owners) {
            let owner_row = owner / 4;
            assert_eq!(owner_row, s.decomp.row_of_lat(line.lat));
        }
    }

    #[test]
    fn row_local_assignment_is_imbalanced_balanced_is_not() {
        // The entire motivation for §3.3: equatorial rows idle under the
        // row-local scheme.
        let s = setup(8, 4);
        let row_counts = s.owner_counts(s.row_local_owners(FilterKind::Strong));
        let lb_counts = s.owner_counts(s.balanced_owners(FilterKind::Strong));
        assert_eq!(
            row_counts.iter().copied().min().unwrap(),
            0,
            "some ranks must be idle"
        );
        assert!(
            lb_counts.iter().copied().min().unwrap() > 0,
            "LB leaves nobody idle"
        );
        let row_max = row_counts.iter().copied().max().unwrap();
        let lb_max = lb_counts.iter().copied().max().unwrap();
        assert!(
            row_max > 2 * lb_max,
            "polar rows carry a large excess: row {row_max} vs lb {lb_max}"
        );
    }

    #[test]
    fn multipliers_precomputed_for_all_filtered_lats() {
        let s = setup(2, 2);
        for kind in [FilterKind::Strong, FilterKind::Weak] {
            for lat in kind.filtered_lats(&s.grid) {
                assert_eq!(s.multiplier(kind, lat).len(), 144);
            }
        }
    }

    #[test]
    fn col_chunks_tile_longitude() {
        let s = setup(2, 30);
        let mut next = 0;
        for c in 0..30 {
            let (i0, ni) = s.col_chunk(c);
            assert_eq!(i0, next);
            next = i0 + ni;
        }
        assert_eq!(next, 144);
    }

    #[test]
    #[should_panic(expected = "not filtered")]
    fn multiplier_for_unfiltered_lat_panics() {
        let s = setup(2, 2);
        s.multiplier(FilterKind::Strong, 45); // equatorial row
    }

    #[test]
    fn canonical_line_order() {
        let s = setup(2, 2);
        let lines = s.lines(FilterKind::Weak);
        // var-major, then lat, then lev.
        assert!(lines
            .windows(2)
            .all(|w| { (w[0].var, w[0].lat, w[0].lev) < (w[1].var, w[1].lat, w[1].lev) }));
    }
}
