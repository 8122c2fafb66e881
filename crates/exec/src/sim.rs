//! [`SimExecutor`]: the `gpusim` cost model behind the [`Executor`]
//! trait. Every charge goes through the same [`Device`] calls the
//! drivers issued before the executor split, so `gpu.*` counters,
//! modelled seconds and capacity enforcement are reproduced exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scalefbp_backproject::{KernelStats, TextureWindow};
use scalefbp_faults::{FaultInject, NoFaults};
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};
use scalefbp_gpusim::{Device, DeviceCounters, DeviceSpec};
use scalefbp_obs::MetricsRegistry;

use crate::executor::{BufferGuard, ExecBuffer};
use crate::{
    host, BackendChoice, BufferId, ExecError, Executor, FilterChoice, KernelChoice, KernelKind,
    LaunchDescriptor,
};

/// Process-wide buffer-id source, shared by all executors so ids are
/// unique across backends within a run.
pub(crate) static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_buffer_id() -> BufferId {
    BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed))
}

/// The simulated-device backend (the default). Wraps a
/// [`Device`] built with the caller's fault injector, rank label and
/// metrics registry — byte-identical accounting to the pre-executor
/// drivers.
#[derive(Clone)]
pub struct SimExecutor {
    device: Device,
}

impl SimExecutor {
    /// An executor over a fresh fault-free device of `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_observability(spec, Arc::new(NoFaults), 0, MetricsRegistry::new())
    }

    /// An executor whose device consults `injector` (addressed as
    /// `rank`) and records rank-labelled `gpu.*` metrics into
    /// `registry` — the exact construction the drivers used directly.
    pub fn with_observability(
        spec: DeviceSpec,
        injector: Arc<dyn FaultInject>,
        rank: usize,
        registry: MetricsRegistry,
    ) -> Self {
        SimExecutor {
            device: Device::with_observability(spec, injector, rank, registry),
        }
    }

    /// The wrapped simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl Executor for SimExecutor {
    fn backend(&self) -> BackendChoice {
        BackendChoice::Sim
    }

    fn alloc(&self, bytes: u64) -> Result<ExecBuffer, ExecError> {
        let buf = self.device.alloc(bytes)?;
        Ok(ExecBuffer {
            id: next_buffer_id(),
            bytes,
            guard: BufferGuard::Sim(buf),
        })
    }

    fn h2d(&self, _dst: Option<BufferId>, bytes: u64) -> Result<f64, ExecError> {
        Ok(self.device.try_h2d(bytes)?)
    }

    fn d2h(&self, _src: Option<BufferId>, bytes: u64) -> Result<f64, ExecError> {
        Ok(self.device.try_d2h(bytes)?)
    }

    fn launch(&self, desc: &LaunchDescriptor) -> Result<f64, ExecError> {
        if desc.work_items == 0 {
            return Err(ExecError::InvalidLaunch(format!(
                "{}: zero work items",
                desc.label
            )));
        }
        match desc.kind {
            // The cost model charges back-projection launches; filter
            // and reduce run host-side in every current driver, so a
            // launch of those kinds is accepted but not charged.
            KernelKind::BackProject => Ok(self.device.launch_backprojection(desc.work_items)),
            KernelKind::Filter | KernelKind::Reduce => Ok(0.0),
        }
    }

    fn counters(&self) -> DeviceCounters {
        self.device.counters()
    }

    fn filter_stack(
        &self,
        pipeline: &FilterPipeline,
        _choice: FilterChoice,
        stack: &mut ProjectionStack,
    ) -> Result<(), ExecError> {
        pipeline.filter_stack(stack);
        Ok(())
    }

    fn backproject(
        &self,
        choice: KernelChoice,
        stack: &ProjectionStack,
        mats: &[ProjectionMatrix],
        vol: &mut Volume,
    ) -> Result<KernelStats, ExecError> {
        Ok(host::run_backprojection(choice, stack, mats, vol))
    }

    fn backproject_window(
        &self,
        choice: KernelChoice,
        window: &TextureWindow,
        mats: &[ProjectionMatrix],
        vol: &mut Volume,
    ) -> Result<KernelStats, ExecError> {
        Ok(host::run_window_backprojection(choice, window, mats, vol))
    }
}
