//! Device presets with the paper's measured constants.

/// Performance/capacity description of a simulated accelerator.
///
/// The conversion methods return **simulated seconds** for a given amount of
/// work; they are pure functions of the spec, usable both by the
/// discrete-event pipeline and by the analytic performance model.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: &'static str,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Sustained back-projection throughput in updates/s (the paper's GUPS
    /// × 1e9; Table 5 measures 111–129 GUPS on V100, 125–166 on A100).
    pub bp_updates_per_sec: f64,
    /// Host↔device interconnect bandwidth in bytes/s (`BW_pci`).
    pub pcie_bytes_per_sec: f64,
}

impl DeviceSpec {
    /// Nvidia Tesla V100 SXM2 16 GB as deployed in ABCI compute nodes
    /// (PCIe 3.0 ×16 host link).
    pub fn v100_16gb() -> Self {
        DeviceSpec {
            name: "V100-16GB",
            memory_bytes: 16 * (1 << 30),
            bp_updates_per_sec: 115e9,
            pcie_bytes_per_sec: 12.0e9,
        }
    }

    /// Nvidia Tesla A100 SXM4 40 GB (Section 6.2's second platform).
    pub fn a100_40gb() -> Self {
        DeviceSpec {
            name: "A100-40GB",
            memory_bytes: 40 * (1 << 30),
            bp_updates_per_sec: 155e9,
            pcie_bytes_per_sec: 20.0e9,
        }
    }

    /// A deliberately tiny device for exercising out-of-core paths at test
    /// scale: `memory_bytes` chosen by the caller.
    pub fn tiny(memory_bytes: u64) -> Self {
        DeviceSpec {
            name: "tiny-sim",
            memory_bytes,
            bp_updates_per_sec: 10e9,
            pcie_bytes_per_sec: 2e9,
        }
    }

    /// Simulated seconds for a host→device or device→host copy of `bytes`.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.pcie_bytes_per_sec
    }

    /// Simulated seconds for a back-projection of `updates` voxel updates
    /// (`T_bp` of the performance model, Eq 14 with `TH_bp` = this spec).
    pub fn backprojection_secs(&self, updates: u64) -> f64 {
        updates as f64 / self.bp_updates_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper_constants() {
        let v = DeviceSpec::v100_16gb();
        assert_eq!(v.memory_bytes, 17_179_869_184);
        // Paper: RTK ≈ 104.7–113.7 GUPS, ours ≈ 115 average.
        assert!(v.bp_updates_per_sec >= 100e9 && v.bp_updates_per_sec <= 130e9);
    }

    #[test]
    fn a100_is_faster_and_larger() {
        let v = DeviceSpec::v100_16gb();
        let a = DeviceSpec::a100_40gb();
        assert!(a.memory_bytes > v.memory_bytes);
        assert!(a.bp_updates_per_sec > v.bp_updates_per_sec);
    }

    #[test]
    fn transfer_time_is_linear() {
        let v = DeviceSpec::v100_16gb();
        let t1 = v.transfer_secs(1 << 30);
        let t2 = v.transfer_secs(2 << 30);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        // 1 GiB over ~12 GB/s ≈ 0.09 s.
        assert!((t1 - 0.0894).abs() < 0.01);
    }

    #[test]
    fn backprojection_time_matches_table5_scale() {
        // Table 5: tomo_00030 → 1024³ on V100 takes T_bp ≈ 6.7 s.
        let v = DeviceSpec::v100_16gb();
        let updates = 1024u64 * 1024 * 1024 * 720;
        let t = v.backprojection_secs(updates);
        assert!((t - 6.7).abs() < 1.0, "modelled {t} s");
    }
}
