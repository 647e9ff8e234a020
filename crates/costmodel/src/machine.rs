//! Machine profiles for the paper's three evaluation platforms.
//!
//! Numbers are *sustained* application rates, not peaks — "the overall
//! performance of the parallel AGCM code is well below the peak
//! performances on both Intel Paragon and Cray T3D nodes" (§3.4). The flop
//! rates are calibrated so the single-node (1×1) Dynamics entries of
//! Tables 4 and 6 come out in proportion: the paper measures the AGCM
//! running ≈2.5× faster on a T3D node than a Paragon node. Latency and
//! bandwidth are era-typical published figures.

/// A linear (LogGP-flavoured) machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Human-readable machine name.
    pub name: &'static str,
    /// Sustained floating-point rate per node (flop/s).
    pub flops_per_sec: f64,
    /// One-way message latency (s).
    pub latency_s: f64,
    /// Per-byte transfer rate (bytes/s).
    pub bytes_per_sec: f64,
    /// Sender CPU overhead per message (s).
    pub send_overhead_s: f64,
    /// Receiver CPU overhead per message (s).
    pub recv_overhead_s: f64,
}

impl MachineProfile {
    /// Intel Paragon XP/S: i860 XP nodes. Sustained ≈8 Mflop/s on this
    /// code class; NX messaging with ~100 µs short-message latency and
    /// ~30 MB/s realized bandwidth.
    pub fn paragon() -> MachineProfile {
        MachineProfile {
            name: "Intel Paragon",
            flops_per_sec: 8.0e6,
            latency_s: 100.0e-6,
            bytes_per_sec: 30.0e6,
            send_overhead_s: 40.0e-6,
            recv_overhead_s: 40.0e-6,
        }
    }

    /// Cray T3D: 150 MHz Alpha 21064 nodes. Sustained ≈20 Mflop/s
    /// (≈2.5× the Paragon on the AGCM, matching Tables 4 vs 6); low-latency
    /// interconnect (~20 µs through the portable message layer) at
    /// ~60 MB/s realized.
    pub const fn t3d() -> MachineProfile {
        MachineProfile {
            name: "Cray T3D",
            flops_per_sec: 20.0e6,
            latency_s: 20.0e-6,
            bytes_per_sec: 60.0e6,
            send_overhead_s: 10.0e-6,
            recv_overhead_s: 10.0e-6,
        }
    }

    /// IBM SP-2: POWER2 nodes, faster per node than both but with a
    /// higher-latency switch. The paper ran on it but tabulates no SP-2
    /// numbers; the profile is provided for the same qualitative studies.
    pub fn sp2() -> MachineProfile {
        MachineProfile {
            name: "IBM SP-2",
            flops_per_sec: 40.0e6,
            latency_s: 50.0e-6,
            bytes_per_sec: 35.0e6,
            send_overhead_s: 25.0e-6,
            recv_overhead_s: 25.0e-6,
        }
    }

    /// Time for `flops` floating-point operations of local work.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.flops_per_sec
    }

    /// Time the *sender* is occupied by a `bytes`-byte message.
    pub fn send_time(&self, bytes: usize) -> f64 {
        self.send_overhead_s + bytes as f64 / self.bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3d_is_about_2_5x_paragon() {
        // Tables 4/6: 1x1 Dynamics 8702 s (Paragon) vs 3480 s (T3D) → 2.50x.
        let ratio = MachineProfile::t3d().flops_per_sec / MachineProfile::paragon().flops_per_sec;
        assert!((ratio - 2.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn t3d_has_lower_latency() {
        assert!(MachineProfile::t3d().latency_s < MachineProfile::paragon().latency_s);
    }

    #[test]
    fn compute_time_linear() {
        let m = MachineProfile::paragon();
        assert!((m.compute_time(8.0e6) - 1.0).abs() < 1e-12);
        assert!((m.compute_time(4.0e6) - 0.5).abs() < 1e-12);
    }
}
