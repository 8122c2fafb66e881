//! The [`Executor`] trait: the seam between the reconstruction drivers
//! and whatever actually owns buffers, moves bytes and launches kernels.

use scalefbp_backproject::{KernelStats, TextureWindow};
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};
use scalefbp_gpusim::{DeviceCounters, DeviceError};

use crate::{BackendChoice, FilterChoice, KernelChoice};

/// Metric names whose values are *modelled time* and therefore differ
/// legitimately between the `sim` backend (which charges the `gpusim`
/// cost model) and the `cpu` backend (which records zero modelled time).
/// Cross-backend metric-snapshot comparisons must exclude exactly these;
/// every byte, call and update counter outside this list is required to
/// be equal (see `docs/backends.md`).
pub const TIME_DOMAIN_METRICS: &[&str] = &[
    "gpu.transfer.nanos",
    "gpu.kernel.nanos",
    "pipeline.model.makespan_secs",
];

/// Errors from executor operations.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A simulated-device operation failed (capacity or injected fault).
    Device(DeviceError),
    /// A launch descriptor or transfer violated a validity invariant
    /// (dead buffer, aliasing output, zero work, oversized transfer).
    InvalidLaunch(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Device(e) => write!(f, "device error: {e}"),
            ExecError::InvalidLaunch(what) => write!(f, "invalid launch: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

/// Opaque handle of one executor-owned buffer. Stable for the lifetime
/// of the owning [`ExecBuffer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

impl std::fmt::Display for BufferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// Which primitive a launch descriptor requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Ramp filtering (Eq 2).
    Filter,
    /// Back-projection (Algorithm 1 and its streaming variants).
    BackProject,
    /// Partial-volume reduction.
    Reduce,
}

impl KernelKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Filter => "filter",
            KernelKind::BackProject => "backproject",
            KernelKind::Reduce => "reduce",
        }
    }
}

/// A backend-neutral kernel launch: what the drivers hand to
/// [`Executor::launch`]. The `sim` backend charges its cost model from
/// `work_items`.
#[derive(Clone, Debug)]
pub struct LaunchDescriptor {
    /// Which primitive to run.
    pub kind: KernelKind,
    /// Human-readable tag for traces and error messages.
    pub label: &'static str,
    /// Buffers the kernel reads. May be empty for a launch accounted
    /// without device-resident operands.
    pub inputs: Vec<BufferId>,
    /// Buffer the kernel writes, if device-resident. Must not alias any
    /// input.
    pub output: Option<BufferId>,
    /// Work size: voxel updates for back-projection, rows for filtering.
    /// Must be positive.
    pub work_items: u64,
}

impl LaunchDescriptor {
    /// A back-projection launch of `updates` voxel updates — the one
    /// descriptor the streaming drivers issue per batch.
    pub fn backprojection(updates: u64) -> Self {
        LaunchDescriptor {
            kind: KernelKind::BackProject,
            label: "bp",
            inputs: Vec::new(),
            output: None,
            work_items: updates,
        }
    }

    /// Builder: input buffers.
    pub fn with_inputs(mut self, inputs: Vec<BufferId>) -> Self {
        self.inputs = inputs;
        self
    }

    /// Builder: output buffer.
    pub fn with_output(mut self, output: BufferId) -> Self {
        self.output = Some(output);
        self
    }
}

/// An RAII executor-memory allocation; freed (and returned to the
/// backend's budget / lifetime table) on drop.
pub struct ExecBuffer {
    pub(crate) id: BufferId,
    pub(crate) bytes: u64,
    // Held only for its Drop side effect (release bookkeeping).
    #[allow(dead_code)]
    pub(crate) guard: BufferGuard,
}

/// Backend-private release bookkeeping carried by an [`ExecBuffer`].
#[allow(dead_code)]
pub(crate) enum BufferGuard {
    Sim(scalefbp_gpusim::DeviceBuffer),
    Cpu(crate::cpu::CpuAllocGuard),
}

impl ExecBuffer {
    /// The stable handle launch descriptors and transfers reference.
    #[inline]
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Allocation size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for ExecBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecBuffer")
            .field("id", &self.id)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// One compute backend: buffer lifetime, host↔device transfer, kernel
/// launch and accounting, plus the host-side kernel dispatch the real
/// backends share.
///
/// ## Contracts (asserted by `tests/backend_conformance.rs`)
///
/// * **Numerics**: [`filter_stack`](Executor::filter_stack),
///   [`backproject`](Executor::backproject) and
///   [`backproject_window`](Executor::backproject_window) are bitwise
///   identical across every computing backend — they run the same host
///   kernels; the backends differ only in accounting.
/// * **Accounting**: `sim` reproduces the pre-executor `gpusim` charges
///   exactly (bytes, calls, updates, modelled seconds, `gpu.*` metric
///   names and values). `cpu` records the same byte/call/update
///   counters with zero modelled time, so cross-backend snapshots are
///   equal outside [`TIME_DOMAIN_METRICS`].
/// * **Lifetimes**: transfers and launches may only reference live
///   buffer ids; an output buffer never aliases an input. The in-process
///   backends do not validate ids (their drivers hold the `ExecBuffer`s,
///   so the ids are live by construction); a zero-work launch is
///   rejected with [`ExecError::InvalidLaunch`].
pub trait Executor: Send + Sync {
    /// Which backend this executor implements.
    fn backend(&self) -> BackendChoice;

    /// Allocates `bytes` of backend memory.
    fn alloc(&self, bytes: u64) -> Result<ExecBuffer, ExecError>;

    /// Records a host→device copy of `bytes` into `dst` (when the
    /// driver keeps the operand device-resident); returns the modelled
    /// duration in seconds (0.0 on `cpu`).
    fn h2d(&self, dst: Option<BufferId>, bytes: u64) -> Result<f64, ExecError>;

    /// Records a device→host copy of `bytes` from `src`; returns the
    /// modelled duration in seconds (0.0 on `cpu`).
    fn d2h(&self, src: Option<BufferId>, bytes: u64) -> Result<f64, ExecError>;

    /// Accounts one kernel launch; returns the modelled duration in
    /// seconds (0.0 on `cpu`). Does not compute — the host-dispatch
    /// methods below do.
    fn launch(&self, desc: &LaunchDescriptor) -> Result<f64, ExecError>;

    /// Drains the backend's queue. The in-process backends are
    /// synchronous, so this is a no-op; a real GPU backend blocks here.
    fn sync(&self) -> Result<(), ExecError> {
        Ok(())
    }

    /// Snapshot of the cumulative traffic/work counters.
    fn counters(&self) -> DeviceCounters;

    /// Runs the filtering stage ([`FilterChoice`] has a single variant).
    fn filter_stack(
        &self,
        pipeline: &FilterPipeline,
        choice: FilterChoice,
        stack: &mut ProjectionStack,
    ) -> Result<(), ExecError>;

    /// Runs the configured in-core back-projection kernel.
    fn backproject(
        &self,
        choice: KernelChoice,
        stack: &ProjectionStack,
        mats: &[ProjectionMatrix],
        vol: &mut Volume,
    ) -> Result<KernelStats, ExecError>;

    /// Runs the streaming (ring-buffer) back-projection kernel.
    fn backproject_window(
        &self,
        choice: KernelChoice,
        window: &TextureWindow,
        mats: &[ProjectionMatrix],
        vol: &mut Volume,
    ) -> Result<KernelStats, ExecError>;
}
