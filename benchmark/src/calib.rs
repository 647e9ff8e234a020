//! Machine-speed calibration.
//!
//! The VM this benchmark runs on shares its cores and caches: its speed
//! moves by a factor of 1.6 over tens of seconds, for every workload alike,
//! and no amount of repetition inside a 20-second run averages that out. So
//! a fixed piece of work the benchmark owns — a polynomial over a 4 MiB
//! array, past L2 and inside the last-level cache — is timed in turns with
//! the repetitions, on as many threads as the workload keeps busy, and each
//! repetition's times are scaled by the speed the machine had around it.
//! The calibration loop is not program code, so a change to the program
//! moves a scaled metric exactly as it moves the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration takes on the seed machine when it is quiet. A
/// scaled time is what the repetition would have taken at this speed.
pub const REFERENCE_S: f64 = 1.30e-3;

const ELEMS: usize = 512 * 1024;
/// Untimed passes first: a core that sat idle while the workload ran on
/// another needs a few milliseconds to come back up to speed.
const WARM_PASSES: usize = 12;
const PASSES: usize = 6;

pub struct Calibrator {
    /// One array per thread, kept so that calibrating never page-faults.
    arrays: Vec<Vec<f64>>,
}

fn pass(a: &mut [f64]) {
    for x in a.iter_mut() {
        let v = *x;
        *x = ((v * 0.999 + 0.001) * v + 0.5) * 0.5 + 0.1 * v;
    }
    black_box(a);
}

impl Calibrator {
    /// A calibrator for a workload that keeps `threads` cores busy.
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            arrays: vec![vec![0.5; ELEMS]; threads],
        }
    }

    /// Seconds the calibration loop takes right now: the mean over the
    /// threads, which run it at the same time. A single-threaded workload
    /// is calibrated on the calling thread.
    pub fn seconds(&mut self) -> f64 {
        fn timed(a: &mut [f64]) -> f64 {
            for _ in 0..WARM_PASSES {
                pass(a);
            }
            let started = Instant::now();
            for _ in 0..PASSES {
                pass(a);
            }
            started.elapsed().as_secs_f64()
        }
        if let [only] = self.arrays.as_mut_slice() {
            return timed(only);
        }
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .arrays
                .iter_mut()
                .map(|a| scope.spawn(move || timed(a)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

/// Speed of the machine around a repetition, from the calibrations before
/// and after it: 1.0 is the quiet seed machine, 0.7 a machine on which the
/// same work takes 1/0.7 times as long. Multiply a measured time by it.
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

/// The machine's speed over a run, for the reader of the report.
pub fn describe_speed(speeds: &[f64]) -> String {
    format!(
        "machine speed against the reference: median {:.2}, quartiles {:.2}..{:.2}; times are scaled by it",
        crate::stats::median(speeds),
        crate::stats::quantile(speeds, 0.25),
        crate::stats::quantile(speeds, 0.75)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_scales_times_to_the_reference_machine() {
        // A machine at half speed: calibration takes twice the reference.
        let s = speed(2.0 * REFERENCE_S, 2.0 * REFERENCE_S);
        assert!((s - 0.5).abs() < 1e-12);
        // So a repetition measured at 2 s would have taken 1 s.
        assert!((2.0 * s - 1.0).abs() < 1e-12);
        let mut cal = Calibrator::new(2);
        assert!(cal.seconds() > 0.0);
    }
}
