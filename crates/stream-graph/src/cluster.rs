//! The device cluster a stream graph is allocated onto.

use serde::{Deserialize, Serialize};

/// Most devices a wire request or a graph delta may name. The analytic
/// simulator and the warm-start polish each keep a dense
/// `devices × devices` link matrix, so one request's memory grows with
/// the square of its device count; at this bound one matrix is 8 MiB.
/// The paper's clusters have 5 to 20 devices.
pub const MAX_DEVICES: usize = 1024;

/// A homogeneous cluster of computing devices, mirroring the paper's
/// experimental environment (§V): devices with a fixed MIPS capacity
/// connected by links of fixed bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of available devices.
    pub devices: usize,
    /// Per-device compute capacity in MIPS (millions of instructions per
    /// second). The paper uses 1.25e3 MIPS.
    pub mips: f64,
    /// Link bandwidth between any two devices, in megabits per second.
    /// The paper uses 1000 Mbps (medium graphs) and 1500 Mbps (large).
    pub link_mbps: f64,
}

impl ClusterSpec {
    /// Create a cluster spec.
    pub fn new(devices: usize, mips: f64, link_mbps: f64) -> Self {
        assert!(devices > 0, "cluster must have at least one device");
        assert!(mips > 0.0 && link_mbps > 0.0, "capacities must be positive");
        Self {
            devices,
            mips,
            link_mbps,
        }
    }

    /// The paper's medium-graph cluster: 1.25e3 MIPS devices, 1000 Mbps.
    pub fn paper_medium(devices: usize) -> Self {
        Self::new(devices, 1.25e3, 1000.0)
    }

    /// The paper's large/x-large cluster: 1.25e3 MIPS devices, 1500 Mbps.
    pub fn paper_large(devices: usize) -> Self {
        Self::new(devices, 1.25e3, 1500.0)
    }

    /// Per-device compute capacity in instructions/second.
    #[inline]
    pub fn instr_per_sec(&self) -> f64 {
        self.mips * 1e6
    }

    /// Link bandwidth in bytes/second.
    #[inline]
    pub fn link_bytes_per_sec(&self) -> f64 {
        self.link_mbps * 1e6 / 8.0
    }

    /// Total cluster compute capacity in instructions/second.
    #[inline]
    pub fn total_instr_per_sec(&self) -> f64 {
        self.instr_per_sec() * self.devices as f64
    }

    /// The excess-device variant of this cluster (§V): node CPU demand and
    /// bandwidth are reduced by 33% *on the workload side*; the cluster-side
    /// effect is a 33% lower link bandwidth.
    pub fn with_reduced_bandwidth(&self, factor: f64) -> Self {
        Self {
            link_mbps: self.link_mbps * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let c = ClusterSpec::paper_medium(10);
        assert_eq!(c.devices, 10);
        assert!((c.instr_per_sec() - 1.25e9).abs() < 1.0);
        assert!((c.link_bytes_per_sec() - 125e6).abs() < 1.0);
        assert!((c.total_instr_per_sec() - 1.25e10).abs() < 10.0);
    }

    #[test]
    fn reduced_bandwidth() {
        let c = ClusterSpec::paper_large(10).with_reduced_bandwidth(0.67);
        assert!((c.link_mbps - 1005.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        ClusterSpec::new(0, 1.0, 1.0);
    }
}
