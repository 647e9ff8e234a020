//! Load measurement and the paper's imbalance metric.
//!
//! Tables 1–3 define:
//!
//! ```text
//! AverageLoad = (Σ LocalLoad_i) / P
//! PercentageOfLoadImbalance = (MaxLoad − AverageLoad) / AverageLoad
//! ```
//!
//! and estimate the current pass's load from a timing of the previous
//! pass. [`LoadTracker`] carries that one-pass memory per rank.

use agcm_mps::collectives::Op;
use agcm_mps::comm::Comm;

/// The paper's percentage-of-load-imbalance metric (as a fraction; multiply
/// by 100 for the tables' percentages).
pub use agcm_mps::trace::imbalance;

/// Summary statistics of a load vector, as printed in Tables 1–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSummary {
    /// Largest per-rank load.
    pub max: f64,
    /// Smallest per-rank load.
    pub min: f64,
    /// Mean per-rank load.
    pub avg: f64,
    /// `(max − avg) / avg`.
    pub imbalance: f64,
}

/// Summarize a load vector.
pub fn summarize(loads: &[f64]) -> LoadSummary {
    assert!(!loads.is_empty(), "cannot summarize an empty load vector");
    LoadSummary {
        max: loads.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        min: loads.iter().copied().fold(f64::INFINITY, f64::min),
        avg: loads.iter().sum::<f64>() / loads.len() as f64,
        imbalance: imbalance(loads),
    }
}

/// Per-rank memory of the previous pass's measured load.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadTracker {
    previous: Option<f64>,
}

impl LoadTracker {
    /// A tracker with no history yet.
    pub fn new() -> LoadTracker {
        LoadTracker { previous: None }
    }

    /// Record this pass's measured load.
    pub fn record(&mut self, load: f64) {
        self.previous = Some(load);
    }

    /// The estimate for the upcoming pass: the previous measurement, if
    /// any. With no history the balancer should skip balancing (the
    /// paper's scheme needs an estimate before it "can proceed").
    pub fn estimate(&self) -> Option<f64> {
        self.previous
    }

    /// Gather every rank's estimate. Returns `None` (everywhere) until all
    /// ranks have history. Collective.
    pub fn gather_estimates(&self, comm: &Comm) -> Option<Vec<f64>> {
        let have = i64::from(self.previous.is_some());
        let all_have = comm.allreduce_i64(Op::Min, &[have])[0] == 1;
        if !all_have {
            return None;
        }
        Some(comm.allgather_f64(&[self.previous.expect("checked")]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agcm_mps::runtime::run;

    #[test]
    fn paper_metric_examples() {
        // Table 1 before balancing: max 11.0, min 4.9 — 37% with the
        // implied average ≈ 8.0.
        let loads = [11.0, 8.0, 8.1, 4.9];
        let s = summarize(&loads);
        assert_eq!(s.max, 11.0);
        assert_eq!(s.min, 4.9);
        assert!((s.imbalance - (11.0 - s.avg) / s.avg).abs() < 1e-12);
    }

    #[test]
    fn balanced_vector_has_zero_imbalance() {
        assert_eq!(imbalance(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn figure5_loads() {
        // 65/24/38/15: avg 35.5, max 65 → (65−35.5)/35.5 ≈ 83%.
        let imb = imbalance(&[65.0, 24.0, 38.0, 15.0]);
        assert!((imb - 29.5 / 35.5).abs() < 1e-12);
    }

    #[test]
    fn tracker_lifecycle() {
        let mut t = LoadTracker::new();
        assert_eq!(t.estimate(), None);
        t.record(7.5);
        assert_eq!(t.estimate(), Some(7.5));
        t.record(9.0);
        assert_eq!(t.estimate(), Some(9.0));
    }

    #[test]
    fn gather_requires_everyone() {
        let out = run(3, |c| {
            let mut t = LoadTracker::new();
            // Only rank 1 has history on the first try.
            if c.rank() == 1 {
                t.record(5.0);
            }
            let first = t.gather_estimates(c);
            // Then everyone records.
            t.record(c.rank() as f64 + 1.0);
            let second = t.gather_estimates(c);
            (first, second)
        });
        for (first, second) in out {
            assert_eq!(first, None);
            assert_eq!(second, Some(vec![1.0, 2.0, 3.0]));
        }
    }
}
