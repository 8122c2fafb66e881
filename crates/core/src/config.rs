//! Top-level configuration and errors.

use std::sync::Arc;

use scalefbp_faults::FaultInject;
use scalefbp_filter::FilterWindow;
use scalefbp_geom::{CbctGeometry, GeometryError, RowSource};
use scalefbp_gpusim::{Device, DeviceError, DeviceSpec};
use scalefbp_obs::MetricsRegistry;

pub use scalefbp_exec::{BackendChoice, FilterChoice, KernelChoice};
pub use scalefbp_mpisim::ReduceMode;

/// Errors from the reconstruction drivers.
#[derive(Debug)]
pub enum ReconstructionError {
    /// Invalid acquisition geometry.
    Geometry(GeometryError),
    /// The device cannot hold even a single-slice working set.
    DeviceTooSmall {
        /// Bytes needed for the minimal working set.
        needed: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// A device operation failed.
    Device(DeviceError),
    /// Projection data does not match the geometry.
    ShapeMismatch(String),
    /// The checkpoint subsystem refused to open, read or commit — a
    /// corrupt manifest, a stale config fingerprint, or storage failure.
    Checkpoint(String),
    /// The run was killed by the chaos harness after committing
    /// checkpoints. Not a failure: a resumed run picks up from the
    /// committed slabs and produces the identical volume.
    Interrupted {
        /// Slab checkpoints this run committed before dying.
        completed_slabs: usize,
    },
    /// The rank layout does not fit the problem: the distributed driver
    /// needs `1 ≤ N_r ≤ N_p` and `1 ≤ N_g ≤ N_z`.
    Layout(String),
    /// Outside input the run cannot use: a failed projection read (an I/O
    /// error, a row source that returned rows of the wrong shape, or an
    /// injected read error that outlasted its retries), or a fault plan
    /// that fails a rank no recovery path covers.
    Input(String),
}

impl std::fmt::Display for ReconstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructionError::Geometry(e) => write!(f, "geometry error: {e}"),
            ReconstructionError::DeviceTooSmall { needed, capacity } => write!(
                f,
                "device too small: minimal working set {needed} B exceeds capacity {capacity} B"
            ),
            ReconstructionError::Device(e) => write!(f, "device error: {e}"),
            ReconstructionError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
            ReconstructionError::Checkpoint(what) => write!(f, "checkpoint error: {what}"),
            ReconstructionError::Interrupted { completed_slabs } => write!(
                f,
                "run interrupted by chaos kill switch after {completed_slabs} checkpointed slab(s)"
            ),
            ReconstructionError::Layout(what) => write!(f, "invalid rank layout: {what}"),
            ReconstructionError::Input(what) => write!(f, "input error: {what}"),
        }
    }
}

impl std::error::Error for ReconstructionError {}

impl From<GeometryError> for ReconstructionError {
    fn from(e: GeometryError) -> Self {
        ReconstructionError::Geometry(e)
    }
}

impl From<DeviceError> for ReconstructionError {
    fn from(e: DeviceError) -> Self {
        ReconstructionError::Device(e)
    }
}

impl From<scalefbp_ckpt::CheckpointError> for ReconstructionError {
    fn from(e: scalefbp_ckpt::CheckpointError) -> Self {
        ReconstructionError::Checkpoint(e.to_string())
    }
}

// `KernelChoice`, `FilterChoice` and `BackendChoice` are defined in
// `scalefbp-exec`, beside the host kernels, and re-exported above.

/// Configuration of a reconstruction run.
#[derive(Clone, Debug)]
pub struct FdkConfig {
    /// Acquisition/reconstruction geometry (Table 1).
    pub geometry: CbctGeometry,
    /// Ramp-filter apodisation window.
    pub window: FilterWindow,
    /// Batch count `N_c` per group/device (the paper fixes 8).
    pub nc: usize,
    /// Simulated device executing the back-projection.
    pub device: DeviceSpec,
    /// Back-projection kernel the drivers dispatch to.
    pub kernel: KernelChoice,
    /// Reduction algorithm. The iterative driver runs the named
    /// collective. The FDK distributed driver folds worker chunks at the
    /// group leader in rank order whatever the mode (same bits in all
    /// three); there the mode picks the wire framing (`segmented` ships
    /// one message per z-segment) and the modelled reduce cost its
    /// deadlines derive from. See `docs/communication.md`.
    pub reduce_mode: ReduceMode,
    /// Cost model of the streaming driver's device (see
    /// [`build_device`](Self::build_device)): the default
    /// ([`BackendChoice::Sim`]) charges the `gpusim` model of
    /// [`device`](Self::device), `Cpu` counts bytes with unlimited memory
    /// and zero modelled time. Volumes are bitwise identical on both; the
    /// in-core and distributed drivers charge no device.
    pub backend: BackendChoice,
    /// Multiplier applied to the perf-model batch estimate when the
    /// fault-tolerant driver derives its failure-detection deadlines
    /// (see [`derive_deadlines`](crate::derive_deadlines)): a deadline
    /// is `timeout_scale ×` the modelled time of the awaited work,
    /// floored at the legacy constants so tiny problems keep their old
    /// detection latency. Larger values tolerate slower stragglers
    /// before speculating; must be finite and positive.
    pub timeout_scale: f64,
}

impl FdkConfig {
    /// A config with the paper's defaults (`N_c = 8`, Ram-Lak window,
    /// V100-16GB device, SIMD kernel).
    pub fn new(geometry: CbctGeometry) -> Self {
        FdkConfig {
            geometry,
            window: FilterWindow::RamLak,
            nc: 8,
            device: DeviceSpec::v100_16gb(),
            kernel: KernelChoice::default(),
            reduce_mode: ReduceMode::default(),
            backend: BackendChoice::default(),
            timeout_scale: 2.0,
        }
    }

    /// Builder: apodisation window.
    pub fn with_window(mut self, window: FilterWindow) -> Self {
        self.window = window;
        self
    }

    /// Builder: batch count.
    pub fn with_nc(mut self, nc: usize) -> Self {
        assert!(nc > 0, "batch count must be positive");
        self.nc = nc;
        self
    }

    /// Builder: device spec.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Builder: back-projection kernel.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: distributed reduction algorithm.
    pub fn with_reduce_mode(mut self, reduce_mode: ReduceMode) -> Self {
        self.reduce_mode = reduce_mode;
        self
    }

    /// Builder: the device cost model (`sim` or `cpu`).
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Builder: deadline multiplier for the fault-tolerant driver.
    pub fn with_timeout_scale(mut self, timeout_scale: f64) -> Self {
        assert!(
            timeout_scale.is_finite() && timeout_scale > 0.0,
            "timeout scale must be finite and positive"
        );
        self.timeout_scale = timeout_scale;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ReconstructionError> {
        self.geometry.validate()?;
        Ok(())
    }

    /// Checks that `projections` is the full `N_v × N_p × N_u` scan the
    /// geometry describes — every driver's first step.
    pub fn check_projections(
        &self,
        projections: &dyn RowSource,
    ) -> Result<(), ReconstructionError> {
        let g = &self.geometry;
        let (nv, np, nu) = projections.shape();
        if (nv, np, nu) != (g.nv, g.np, g.nu) {
            return Err(ReconstructionError::ShapeMismatch(format!(
                "projections {nv}×{np}×{nu} vs geometry {}×{}×{}",
                g.nv, g.np, g.nu
            )));
        }
        Ok(())
    }

    /// The streaming driver's device under the configured cost model:
    /// `sim` models [`self.device`](FdkConfig::device), `cpu` counts
    /// ([`Device::counted`]). Either consults `injector` (as `rank`) and
    /// records rank-labelled `gpu.*` metrics into `registry`.
    pub fn build_device(
        &self,
        injector: Arc<dyn FaultInject>,
        rank: usize,
        registry: MetricsRegistry,
    ) -> Device {
        match self.backend {
            BackendChoice::Sim => {
                Device::with_observability(self.device.clone(), injector, rank, registry)
            }
            BackendChoice::Cpu => Device::counted(injector, rank, registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = FdkConfig::new(CbctGeometry::ideal(32, 16, 48, 48));
        assert_eq!(c.nc, 8);
        assert_eq!(c.window, FilterWindow::RamLak);
        assert_eq!(c.device.name, "V100-16GB");
        assert_eq!(c.kernel, KernelChoice::Simd);
        assert_eq!(c.reduce_mode, ReduceMode::Hierarchical);
        assert_eq!(c.timeout_scale, 2.0);
        c.validate().unwrap();
    }

    #[test]
    fn reduce_mode_builder_and_names_round_trip() {
        for mode in ReduceMode::ALL {
            let c = FdkConfig::new(CbctGeometry::ideal(32, 16, 48, 48)).with_reduce_mode(mode);
            assert_eq!(c.reduce_mode, mode);
            assert_eq!(mode.name().parse::<ReduceMode>().unwrap(), mode);
        }
        let err = "ring".parse::<ReduceMode>().unwrap_err();
        assert!(err.contains("unknown reduce mode"), "{err}");
    }

    #[test]
    fn kernel_and_filter_choices_round_trip_through_names() {
        for k in KernelChoice::ALL {
            assert_eq!(k.name().parse::<KernelChoice>().unwrap(), k);
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(KernelChoice::ALL.len(), 2);
        assert_eq!(FilterChoice::default(), FilterChoice::TwoPass);
        for gone in ["parallel", "blocked", "incremental", "warp", "simd-batched"] {
            let err = gone.parse::<KernelChoice>().unwrap_err();
            assert!(err.contains("unknown kernel"), "{err}");
        }
    }

    #[test]
    fn builders_apply() {
        let c = FdkConfig::new(CbctGeometry::ideal(32, 16, 48, 48))
            .with_window(FilterWindow::Hann)
            .with_nc(4)
            .with_device(DeviceSpec::a100_40gb());
        assert_eq!(c.window, FilterWindow::Hann);
        assert_eq!(c.nc, 4);
        assert_eq!(c.device.name, "A100-40GB");
    }

    #[test]
    fn invalid_geometry_fails_validation() {
        let mut g = CbctGeometry::ideal(32, 16, 48, 48);
        g.np = 0;
        assert!(FdkConfig::new(g).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "batch count must be positive")]
    fn zero_nc_rejected() {
        let _ = FdkConfig::new(CbctGeometry::ideal(32, 16, 48, 48)).with_nc(0);
    }

    #[test]
    #[should_panic(expected = "timeout scale must be finite and positive")]
    fn non_positive_timeout_scale_rejected() {
        let _ = FdkConfig::new(CbctGeometry::ideal(32, 16, 48, 48)).with_timeout_scale(0.0);
    }
}
