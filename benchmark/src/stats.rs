//! Estimators: quantiles, nearest-rank percentiles, and the two summaries a
//! reported metric goes through.
//!
//! An end-to-end metric is computed once per repetition, scaled by the
//! machine's speed around that repetition (see `calib`), and reported as
//! the median over repetitions ([`typical`]). A probe is a short loop with
//! no calibration beside it; interference only ever slows it, so it reports
//! the quartile on its good side ([`quiet`]): p25 for lower-is-better, p75
//! for higher-is-better. The median, IQR and sample count are printed
//! beside every value so a reader can see how noisy the run was.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted `values`.
/// Panics on an empty slice: every caller has at least one repetition.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with at
/// least `p` % of the sample at or below it. With fewer than 20 samples
/// p95 is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One metric across the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    pub p50: f64,
    /// p75 − p25.
    pub iqr: f64,
    pub n: usize,
}

/// Summarize the unscaled samples of a probe: interference only slows
/// them, so the quartile on the good side.
pub fn quiet(values: &[f64], better: Better) -> Summary {
    let quartile = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    Summary {
        value: quantile(values, quartile),
        ..typical(values)
    }
}

/// Summarize per-repetition values that were scaled by the machine's
/// speed: what is left is noise on both sides, so the median.
pub fn typical(values: &[f64]) -> Summary {
    Summary {
        value: median(values),
        p50: median(values),
        iqr: quantile(values, 0.75) - quantile(values, 0.25),
        n: values.len(),
    }
}

/// A value that was counted or read once, not sampled.
pub fn exact(value: f64) -> Summary {
    Summary {
        value,
        p50: value,
        iqr: 0.0,
        n: 1,
    }
}

/// Spread of a metric across invocations as the driver computes it:
/// (Q3 − Q1) ÷ median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // CPython's exclusive method: clamp the index, then extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn quiet_quartile_takes_the_good_side() {
        let v = [10.0, 11.0, 12.0, 13.0, 30.0];
        let lo = quiet(&v, Better::Lower);
        assert_eq!((lo.value, lo.p50, lo.iqr, lo.n), (11.0, 12.0, 2.0, 5));
        assert_eq!(quiet(&v, Better::Higher).value, 13.0);
    }

    #[test]
    fn typical_is_the_median() {
        let t = typical(&[10.0, 11.0, 12.0, 13.0, 30.0]);
        assert_eq!((t.value, t.iqr, t.n), (12.0, 2.0, 5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        // Fewer than 20 samples: p95 is the maximum.
        assert_eq!(percentile(&[3.0, 9.0, 1.0], 95.0), 9.0);
        // 22 samples: rank ceil(20.9) = 21, the second largest.
        let w: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 21.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
