//! The host kernels and the choices every driver dispatches on.
//!
//! Every driver runs the same host kernels ([`host`] and
//! `FilterPipeline::filter_stack`), so volumes never depend on
//! `--backend`. The backend picks only how the streaming driver's device
//! (`scalefbp_gpusim::Device`) is charged: the V100 cost model (`sim`)
//! or byte counts with zero seconds (`cpu`). The cross-backend contracts
//! (bitwise volumes, snapshots equal outside [`TIME_DOMAIN_METRICS`])
//! are pinned by `tests/backend_conformance.rs` and documented in
//! `docs/backends.md`.

use std::convert::Infallible;

use scalefbp_backproject::KernelStats;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};

mod choices;
pub mod host;

pub use choices::{BackendChoice, FilterChoice, KernelChoice};

/// Metric names whose values are *modelled time* and therefore differ
/// legitimately between the `sim` cost model and the `cpu` one, which
/// never registers them. Cross-backend metric-snapshot comparisons must
/// exclude exactly these; every byte, call and update counter outside
/// this list is required to be equal (see `docs/backends.md`).
pub const TIME_DOMAIN_METRICS: &[&str] = &[
    "gpu.transfer.nanos",
    "gpu.kernel.nanos",
    "pipeline.model.makespan_secs",
];

/// The host kernels behind the two calls the benchmark's layer trace
/// times. No driver uses it; ROADMAP item 1, which may edit
/// `benchmark/`, deletes it together with [`CpuExecutor`].
pub trait Executor {
    /// [`FilterPipeline::filter_stack`] on `stack`.
    fn filter_stack(
        &self,
        pipeline: &FilterPipeline,
        _choice: FilterChoice,
        stack: &mut ProjectionStack,
    ) -> Result<(), Infallible> {
        pipeline.filter_stack(stack);
        Ok(())
    }

    /// [`host::run_backprojection`] of `stack` into `vol`.
    fn backproject(
        &self,
        choice: KernelChoice,
        stack: &ProjectionStack,
        mats: &[ProjectionMatrix],
        vol: &mut Volume,
    ) -> Result<KernelStats, Infallible> {
        Ok(host::run_backprojection(choice, stack, mats, vol))
    }
}

/// The one [`Executor`]: the host kernels, nothing else.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuExecutor;

impl CpuExecutor {
    /// The executor.
    pub fn new() -> Self {
        CpuExecutor
    }
}

impl Executor for CpuExecutor {}
