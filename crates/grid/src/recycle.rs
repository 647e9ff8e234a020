//! Field storage that outlives its field. Freed to malloc, a job's ≈ 1 MB
//! [`HaloField`](crate::halo::HaloField) buffers went back to the kernel
//! and the next job faulted every page in again. Storage under
//! [`BYPASS_BYTES`] skips the list: malloc serves it without faulting.
//!
//! No knob bounds the list: live plus retained bytes never exceed the
//! high-water mark of live bytes, so it never raises the process's peak.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Storage below this many bytes bypasses the list.
const BYPASS_BYTES: usize = 128 * 1024;

/// Whether a buffer of `capacity` values may hold a field of `len`: it
/// wastes at most an eighth, so a paper-grid job's buffers serve the next
/// one's on a few more or fewer latitudes.
fn fits(capacity: usize, len: usize) -> bool {
    capacity >= len && capacity - len <= len / 8
}

fn bytes(buf: &Vec<f64>) -> u64 {
    (buf.capacity() * 8) as u64
}

/// The recycle list's counters (`/v1/metrics` reports them as `fields`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Buffers handed out from the list.
    pub hits: u64,
    /// Buffers the list had none of, allocated fresh.
    pub misses: u64,
    /// Retained buffers freed to keep the list under its bound.
    pub evictions: u64,
    /// Bytes held for reuse now.
    pub retained_bytes: u64,
    /// Most bytes ever live at once: the bound on live + retained.
    pub high_water_bytes: u64,
}

/// A recycle list. The process has one ([`global`]); tests build their
/// own so that other tests cannot disturb them.
#[derive(Default)]
pub(crate) struct Recycler {
    /// Retained buffers, oldest first.
    retained: VecDeque<Vec<f64>>,
    live_bytes: u64,
    stats: StorageStats,
}

impl Recycler {
    /// `len` zeros, in the smallest retained buffer that [`fits`], or in
    /// a new one after evicting, oldest first, what no longer fits under
    /// the mark.
    pub(crate) fn zeros(&mut self, len: usize) -> Vec<f64> {
        if len * 8 < BYPASS_BYTES {
            return vec![0.0; len];
        }
        let best = (0..self.retained.len())
            .filter(|&at| fits(self.retained[at].capacity(), len))
            .min_by_key(|&at| self.retained[at].capacity());
        let mut buf = match best.and_then(|at| self.retained.remove(at)) {
            Some(buf) => {
                self.stats.hits += 1;
                self.stats.retained_bytes -= bytes(&buf);
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(len)
            }
        };
        self.live_bytes += bytes(&buf);
        let s = &mut self.stats;
        s.high_water_bytes = s.high_water_bytes.max(self.live_bytes);
        while self.live_bytes + s.retained_bytes > s.high_water_bytes {
            let old = self
                .retained
                .pop_front()
                .expect("the live bytes fit the mark");
            s.retained_bytes -= bytes(&old);
            s.evictions += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Take back a buffer [`Recycler::zeros`] handed out.
    pub(crate) fn give_back(&mut self, buf: Vec<f64>) {
        if buf.capacity() * 8 >= BYPASS_BYTES {
            self.live_bytes -= bytes(&buf);
            self.stats.retained_bytes += bytes(&buf);
            self.retained.push_back(buf);
        }
    }
}

/// The process's recycle list, also after a panic elsewhere: every
/// update leaves it consistent, and a dropping field must not panic.
pub(crate) fn global() -> MutexGuard<'static, Recycler> {
    static GLOBAL: OnceLock<Mutex<Recycler>> = OnceLock::new();
    let list = GLOBAL.get_or_init(Mutex::default);
    list.lock().unwrap_or_else(|e| e.into_inner())
}

/// The counters of the process's recycle list, which every
/// [`HaloField`](crate::halo::HaloField) of 128 KiB or more is built in.
pub fn storage_stats() -> StorageStats {
    global().stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest length the list keeps.
    const MIN: usize = BYPASS_BYTES / 8;

    #[test]
    fn a_hit_zero_fills_a_buffer_dropped_dirty() {
        let mut r = Recycler::default();
        let mut a = r.zeros(MIN);
        a.fill(7.0);
        let ptr = a.as_ptr();
        r.give_back(a);
        let b = r.zeros(MIN);
        assert_eq!(b.as_ptr(), ptr, "the retained buffer comes back");
        assert!(b.iter().all(|&x| x == 0.0));
        let s = r.stats;
        assert_eq!((s.hits, s.misses, s.retained_bytes), (1, 1, 0));
    }

    #[test]
    fn other_lengths_miss_and_small_storage_bypasses() {
        // Longer, or shorter by more than an eighth: a miss.
        for len in [9 * MIN + 1, 8 * MIN - 1] {
            let mut r = Recycler::default();
            let buf = r.zeros(9 * MIN);
            r.give_back(buf);
            let _other = r.zeros(len);
            assert_eq!((r.stats.hits, r.stats.misses), (0, 2), "length {len}");
        }
        // Shorter by at most an eighth: a hit, on the smallest buffer
        // that fits whatever its age.
        let mut r = Recycler::default();
        let (a, b) = (r.zeros(8 * MIN + 1), r.zeros(9 * MIN));
        let a_ptr = a.as_ptr();
        r.give_back(a);
        r.give_back(b);
        let c = r.zeros(8 * MIN);
        assert_eq!((c.as_ptr(), c.len()), (a_ptr, 8 * MIN));
        assert_eq!(r.stats.hits, 1);
        let before = r.stats;
        let buf = r.zeros(MIN - 1);
        r.give_back(buf);
        assert_eq!(r.stats, before, "small storage is not counted");
    }

    #[test]
    fn a_miss_evicts_oldest_first() {
        let mut r = Recycler::default();
        let (a, b) = (r.zeros(2 * MIN), r.zeros(3 * MIN));
        let b_ptr = b.as_ptr();
        r.give_back(a);
        r.give_back(b);
        // A third length fits under the mark once one retained buffer
        // goes: the older one.
        let _c = r.zeros(MIN);
        let s = r.stats;
        assert_eq!((s.misses, s.evictions), (3, 1));
        assert_eq!(s.retained_bytes, (3 * MIN * 8) as u64);
        let again = r.zeros(3 * MIN);
        assert_eq!(again.as_ptr(), b_ptr, "the newer one stayed");
    }

    #[test]
    fn live_plus_retained_never_exceeds_the_high_water_mark() {
        let mut r = Recycler::default();
        let lens = [MIN, 2 * MIN, 3 * MIN];
        let mut live: Vec<Vec<f64>> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || (x.is_multiple_of(2) && live.len() < 8) {
                live.push(r.zeros(lens[(x >> 8) as usize % 3]));
            } else {
                r.give_back(live.swap_remove((x >> 8) as usize % live.len()));
            }
            let live_bytes: usize = live.iter().map(|b| b.capacity() * 8).sum();
            let s = r.stats;
            assert!(
                live_bytes as u64 + s.retained_bytes <= s.high_water_bytes,
                "{s:?}"
            );
        }
        assert!(r.stats.hits > 0 && r.stats.evictions > 0);
    }
}
