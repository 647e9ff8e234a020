//! Everything the seed decides: job names and their order, the paper-grid
//! lineages of the serving workloads, and the probe data. The program under
//! test receives only what is generated here, never the seed.

/// SplitMix64: tiny, seedable, and good enough to shuffle names.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A model grid as the wire API spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    pub lon: usize,
    pub lat: usize,
    pub lev: usize,
}

/// The `serve_small` job: about a millisecond of model compute.
pub const TINY_GRID: Grid = Grid {
    lon: 24,
    lat: 12,
    lev: 2,
};
pub const TINY_STEPS: usize = 4;

/// The paper's 2°×2.5°×9 grid with `lat` latitudes. The serving
/// workloads vary `lat` to get distinct lineages of (almost) equal cost.
pub fn paper_grid(lat: usize) -> Grid {
    Grid {
        lon: 144,
        lat,
        lev: 9,
    }
}

/// A `POST /v1/jobs` body: mesh 1×1, default (LB-FFT) filter.
pub fn job_body(name: &str, grid: Grid, steps: usize, checkpoint_every: usize) -> String {
    format!(
        "{{\"name\":\"{name}\",\"grid\":{{\"lon\":{},\"lat\":{},\"lev\":{}}},\
         \"mesh\":{{\"lat\":1,\"lon\":1}},\"steps\":{steps},\
         \"checkpoint_every\":{checkpoint_every}}}",
        grid.lon, grid.lat, grid.lev
    )
}

/// The tiny jobs of one `serve_small` segment, dealt to `clients` in a
/// seeded shuffle: `out[c]` is client c's bodies in submission order.
pub fn small_jobs(
    seed: u64,
    segment: usize,
    clients: usize,
    per_client: usize,
) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed ^ (segment as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut names: Vec<String> = (0..clients * per_client)
        .map(|i| format!("tiny-{segment}-{i}-{:08x}", rng.next_u64() as u32))
        .collect();
    // Fisher–Yates.
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i + 1));
    }
    names
        .chunks(per_client)
        .map(|chunk| {
            chunk
                .iter()
                .map(|n| job_body(n, TINY_GRID, TINY_STEPS, 0))
                .collect()
        })
        .collect()
}

/// The two clients' latitude counts for one paper-grid segment. Drawn from
/// {86, 88, 92, 94} as a pair that sums to 180, so the two lineages differ
/// (no shared prefix, no dedup between clients) while every segment does
/// the same total work.
pub fn paper_lats(seed: u64, segment: usize) -> [usize; 2] {
    let mut rng = Rng::new(seed ^ (segment as u64).wrapping_mul(0xe703_7ed1_a0b4_28db));
    let lat = [86, 88, 92, 94][rng.below(4)];
    [lat, 180 - lat]
}

/// `n` seeded values in [1, 2): smooth enough to stay finite through any
/// kernel, irregular enough not to be special-cased.
pub fn probe_data(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| 1.0 + rng.unit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_job_bodies() {
        assert_eq!(small_jobs(7, 3, 2, 40), small_jobs(7, 3, 2, 40));
        assert_ne!(small_jobs(7, 3, 2, 40), small_jobs(8, 3, 2, 40));
        assert_ne!(small_jobs(7, 3, 2, 40), small_jobs(7, 4, 2, 40));
        assert_eq!(paper_lats(7, 3), paper_lats(7, 3));
        assert_eq!(probe_data(7, 100), probe_data(7, 100));
    }

    #[test]
    fn every_job_is_dealt_exactly_once() {
        let dealt = small_jobs(1, 0, 2, 40);
        assert_eq!(dealt.len(), 2);
        let mut all: Vec<&String> = dealt.iter().flatten().collect();
        assert_eq!(all.len(), 80);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 80, "names are unique");
    }

    #[test]
    fn paper_lineages_differ_and_balance() {
        for segment in 0..32 {
            let [a, b] = paper_lats(5, segment);
            assert_ne!(a, b);
            assert_eq!(a + b, 180);
        }
    }

    #[test]
    fn job_body_is_the_wire_format() {
        assert_eq!(
            job_body("j", TINY_GRID, 4, 0),
            "{\"name\":\"j\",\"grid\":{\"lon\":24,\"lat\":12,\"lev\":2},\
             \"mesh\":{\"lat\":1,\"lon\":1},\"steps\":4,\"checkpoint_every\":0}"
        );
    }
}
