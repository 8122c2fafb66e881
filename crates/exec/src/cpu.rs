//! [`CpuExecutor`]: native host execution with byte/call accounting and
//! zero modelled time.
//!
//! The CPU backend runs exactly the same kernels as [`SimExecutor`](crate::SimExecutor)
//! (via [`crate::host`]) so volumes are bitwise identical; what changes
//! is the resource model: memory is unlimited (allocation is pure
//! bookkeeping and never fails), transfers and launches cost zero
//! modelled seconds, and only the *byte-domain* `gpu.*` metrics are
//! recorded — never `gpu.transfer.nanos` / `gpu.kernel.nanos` (see
//! [`crate::TIME_DOMAIN_METRICS`]).

use std::sync::Arc;

use parking_lot::Mutex;
use scalefbp_backproject::{KernelStats, TextureWindow};
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};
use scalefbp_gpusim::{DeviceCounters, FLOPS_PER_UPDATE, TRANSFER_SIZE_BOUNDS};
use scalefbp_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::executor::{BufferGuard, ExecBuffer};
use crate::sim::next_buffer_id;
use crate::{
    host, BackendChoice, BufferId, ExecError, Executor, FilterChoice, KernelChoice, KernelKind,
    LaunchDescriptor,
};

/// Byte-domain `gpu.*` handles — the same names and rank label the sim
/// device registers, minus the time-domain counters.
struct CpuMetrics {
    h2d_bytes: Counter,
    h2d_calls: Counter,
    d2h_bytes: Counter,
    d2h_calls: Counter,
    kernel_updates: Counter,
    kernel_launches: Counter,
    kernel_flops: Counter,
    peak_allocated: Gauge,
    transfer_sizes: Histogram,
}

impl CpuMetrics {
    fn new(registry: &MetricsRegistry, rank: usize) -> Self {
        CpuMetrics {
            h2d_bytes: registry.rank_counter("gpu.h2d.bytes", rank),
            h2d_calls: registry.rank_counter("gpu.h2d.calls", rank),
            d2h_bytes: registry.rank_counter("gpu.d2h.bytes", rank),
            d2h_calls: registry.rank_counter("gpu.d2h.calls", rank),
            kernel_updates: registry.rank_counter("gpu.kernel.updates", rank),
            kernel_launches: registry.rank_counter("gpu.kernel.launches", rank),
            kernel_flops: registry.rank_counter("gpu.kernel.flops", rank),
            peak_allocated: registry.rank_gauge("gpu.mem.peak_bytes", rank),
            transfer_sizes: registry.rank_histogram(
                "gpu.transfer.bytes",
                rank,
                &TRANSFER_SIZE_BOUNDS,
            ),
        }
    }
}

struct CpuMem {
    allocated: u64,
}

/// Releases a CPU allocation's bookkeeping on drop.
pub(crate) struct CpuAllocGuard {
    mem: Arc<Mutex<CpuMem>>,
    bytes: u64,
}

impl Drop for CpuAllocGuard {
    fn drop(&mut self) {
        self.mem.lock().allocated -= self.bytes;
    }
}

/// The native host backend. Cheap to clone (shared state).
#[derive(Clone)]
pub struct CpuExecutor {
    mem: Arc<Mutex<CpuMem>>,
    metrics: Arc<CpuMetrics>,
}

impl CpuExecutor {
    /// An executor recording into a private registry.
    pub fn new() -> Self {
        Self::with_observability(0, MetricsRegistry::new())
    }

    /// An executor recording rank-labelled byte-domain `gpu.*` metrics
    /// into `registry`.
    pub fn with_observability(rank: usize, registry: MetricsRegistry) -> Self {
        CpuExecutor {
            mem: Arc::new(Mutex::new(CpuMem { allocated: 0 })),
            metrics: Arc::new(CpuMetrics::new(&registry, rank)),
        }
    }

    /// Currently tracked bytes (bookkeeping only — nothing is reserved).
    pub fn allocated(&self) -> u64 {
        self.mem.lock().allocated
    }
}

impl Default for CpuExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor for CpuExecutor {
    fn backend(&self) -> BackendChoice {
        BackendChoice::Cpu
    }

    fn alloc(&self, bytes: u64) -> Result<ExecBuffer, ExecError> {
        let mut mem = self.mem.lock();
        mem.allocated += bytes;
        self.metrics.peak_allocated.raise(mem.allocated as f64);
        drop(mem);
        Ok(ExecBuffer {
            id: next_buffer_id(),
            bytes,
            guard: BufferGuard::Cpu(CpuAllocGuard {
                mem: Arc::clone(&self.mem),
                bytes,
            }),
        })
    }

    fn h2d(&self, _dst: Option<BufferId>, bytes: u64) -> Result<f64, ExecError> {
        self.metrics.h2d_bytes.add(bytes);
        self.metrics.h2d_calls.inc();
        self.metrics.transfer_sizes.observe(bytes);
        Ok(0.0)
    }

    fn d2h(&self, _src: Option<BufferId>, bytes: u64) -> Result<f64, ExecError> {
        self.metrics.d2h_bytes.add(bytes);
        self.metrics.d2h_calls.inc();
        self.metrics.transfer_sizes.observe(bytes);
        Ok(0.0)
    }

    fn launch(&self, desc: &LaunchDescriptor) -> Result<f64, ExecError> {
        if desc.work_items == 0 {
            return Err(ExecError::InvalidLaunch(format!(
                "{}: zero work items",
                desc.label
            )));
        }
        match desc.kind {
            KernelKind::BackProject => {
                self.metrics.kernel_updates.add(desc.work_items);
                self.metrics.kernel_launches.inc();
                self.metrics
                    .kernel_flops
                    .add(desc.work_items.saturating_mul(FLOPS_PER_UPDATE));
                Ok(0.0)
            }
            KernelKind::Filter | KernelKind::Reduce => Ok(0.0),
        }
    }

    fn counters(&self) -> DeviceCounters {
        DeviceCounters {
            h2d_bytes: self.metrics.h2d_bytes.get(),
            d2h_bytes: self.metrics.d2h_bytes.get(),
            h2d_calls: self.metrics.h2d_calls.get(),
            d2h_calls: self.metrics.d2h_calls.get(),
            kernel_updates: self.metrics.kernel_updates.get(),
            kernel_launches: self.metrics.kernel_launches.get(),
            transfer_secs: 0.0,
            kernel_secs: 0.0,
            peak_allocated: self.metrics.peak_allocated.get() as u64,
        }
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
