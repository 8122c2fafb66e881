//! The simulated device: capacity enforcement and traffic counters.

use std::sync::Arc;

use parking_lot::Mutex;
use scalefbp_faults::{Channel, FaultInject, FaultKind, NoFaults};
use scalefbp_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::DeviceSpec;

/// Simulated FLOPs per voxel update — matches the cost model of
/// `scalefbp-backproject`'s kernel counters (one fused multiply-add per
/// interpolation tap plus addressing arithmetic).
pub const FLOPS_PER_UPDATE: u64 = 42;

/// Bucket bounds (bytes) for the transfer-size histogram: 64 KiB to 4 GiB
/// in 16× steps, spanning single-row slabs up to whole sub-volumes.
const TRANSFER_SIZE_BOUNDS: [u64; 5] = [
    64 * 1024,
    1024 * 1024,
    16 * 1024 * 1024,
    256 * 1024 * 1024,
    4 * 1024 * 1024 * 1024,
];

/// Errors from device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation would exceed the device memory capacity — the failure
    /// mode of the non-out-of-core baselines in Table 5 (RTK cannot build
    /// volumes beyond 8 GB on a 16 GB V100). Also injectable as a
    /// *transient* fault, in which case a retry succeeds.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// A host↔device copy failed transiently (injected fault; the
    /// simulated hardware has no spontaneous transfer errors).
    TransferError {
        /// Which transfer direction failed (`"h2d"` or `"d2h"`).
        op: &'static str,
        /// Bytes the failed transfer carried.
        bytes: u64,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, free {free} B"
                )
            }
            DeviceError::TransferError { op, bytes } => {
                write!(f, "device {op} transfer of {bytes} B failed")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Cumulative traffic/work counters of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceCounters {
    /// Host→device bytes transferred.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred.
    pub d2h_bytes: u64,
    /// Number of H2D transfer calls.
    pub h2d_calls: u64,
    /// Number of D2H transfer calls.
    pub d2h_calls: u64,
    /// Voxel updates executed by kernels.
    pub kernel_updates: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Simulated seconds accumulated by transfers.
    pub transfer_secs: f64,
    /// Simulated seconds accumulated by kernels.
    pub kernel_secs: f64,
    /// High-water mark of allocated bytes.
    pub peak_allocated: u64,
}

struct Inner {
    /// The cost model: `Some(spec)` enforces the spec's capacity and
    /// charges its seconds; `None` is the counted model, with unlimited
    /// capacity and zero seconds.
    spec: Option<DeviceSpec>,
    allocated: u64,
    /// Simulated-seconds accumulators stay `f64` (not registry nanos):
    /// callers assert exact equality with the per-call returns.
    transfer_secs: f64,
    kernel_secs: f64,
    /// Persistent compute-rate degradation from a fired
    /// [`FaultKind::SlowDevice`]: kernel durations are multiplied by
    /// `slow_factor` once accumulated kernel time reaches
    /// `slow_from_nanos`. `1.0` (the `NoFaults` value) leaves the
    /// modelled times bit-identical to an uninstrumented device.
    slow_factor: f64,
    slow_from_nanos: u64,
}

/// Cached registry handles for one device — registered at construction,
/// one atomic op per counted event afterwards. A counted device has no
/// time-domain handles.
struct DeviceMetrics {
    h2d_bytes: Counter,
    h2d_calls: Counter,
    d2h_bytes: Counter,
    d2h_calls: Counter,
    kernel_updates: Counter,
    kernel_launches: Counter,
    kernel_flops: Counter,
    transfer_nanos: Option<Counter>,
    kernel_nanos: Option<Counter>,
    peak_allocated: Gauge,
    transfer_sizes: Histogram,
}

impl DeviceMetrics {
    fn new(registry: &MetricsRegistry, rank: usize, timed: bool) -> Self {
        let nanos = |name: &str| timed.then(|| registry.rank_counter(name, rank));
        DeviceMetrics {
            h2d_bytes: registry.rank_counter("gpu.h2d.bytes", rank),
            h2d_calls: registry.rank_counter("gpu.h2d.calls", rank),
            d2h_bytes: registry.rank_counter("gpu.d2h.bytes", rank),
            d2h_calls: registry.rank_counter("gpu.d2h.calls", rank),
            kernel_updates: registry.rank_counter("gpu.kernel.updates", rank),
            kernel_launches: registry.rank_counter("gpu.kernel.launches", rank),
            kernel_flops: registry.rank_counter("gpu.kernel.flops", rank),
            transfer_nanos: nanos("gpu.transfer.nanos"),
            kernel_nanos: nanos("gpu.kernel.nanos"),
            peak_allocated: registry.rank_gauge("gpu.mem.peak_bytes", rank),
            transfer_sizes: registry.rank_histogram(
                "gpu.transfer.bytes",
                rank,
                &TRANSFER_SIZE_BOUNDS,
            ),
        }
    }
}

/// A simulated accelerator under one of two cost models: modelled
/// ([`with_observability`](Self::with_observability): the spec's
/// capacity, PCIe and kernel seconds) or counted
/// ([`counted`](Self::counted): unlimited capacity, zero seconds, byte
/// and call counters only). Both consult the fault injector at the same
/// operations. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Device {
    inner: Arc<Mutex<Inner>>,
    metrics: Arc<DeviceMetrics>,
    /// Fault hook consulted by allocations, transfers and launches.
    injector: Arc<dyn FaultInject>,
    /// World rank this device belongs to (the fault plan's site address).
    rank: usize,
}

/// An RAII device-memory allocation; freed (and returned to the device's
/// budget) on drop.
pub struct DeviceBuffer {
    device: Arc<Mutex<Inner>>,
    bytes: u64,
}

impl std::fmt::Debug for DeviceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        let mut inner = self.device.lock();
        inner.allocated -= self.bytes;
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Device")
            .field("spec", &inner.spec.as_ref().map_or("counted", |s| s.name))
            .field("allocated", &inner.allocated)
            .finish()
    }
}

impl Device {
    /// Creates a fault-free modelled device of the given spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_observability(spec, Arc::new(NoFaults), 0, MetricsRegistry::new())
    }

    /// A modelled device whose operations consult `injector`, addressed
    /// as `rank` in the fault plan, and whose counters (`gpu.h2d.bytes`,
    /// `gpu.kernel.flops`, …) land rank-labelled in `registry`, so they
    /// join the run's exported snapshot alongside communication and I/O
    /// metrics.
    pub fn with_observability(
        spec: DeviceSpec,
        injector: Arc<dyn FaultInject>,
        rank: usize,
        registry: MetricsRegistry,
    ) -> Self {
        Self::build(Some(spec), injector, rank, &registry)
    }

    /// A counted device: unlimited capacity, 0.0 s from every call, and
    /// the byte-domain `gpu.*` metrics only — it never registers
    /// `gpu.transfer.nanos` or `gpu.kernel.nanos`. It consults `injector`
    /// exactly as a modelled device does, so a fault plan fires at the
    /// same operations under either model.
    pub fn counted(injector: Arc<dyn FaultInject>, rank: usize, registry: MetricsRegistry) -> Self {
        Self::build(None, injector, rank, &registry)
    }

    fn build(
        spec: Option<DeviceSpec>,
        injector: Arc<dyn FaultInject>,
        rank: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        Device {
            metrics: Arc::new(DeviceMetrics::new(registry, rank, spec.is_some())),
            inner: Arc::new(Mutex::new(Inner {
                spec,
                allocated: 0,
                transfer_secs: 0.0,
                kernel_secs: 0.0,
                slow_factor: 1.0,
                slow_from_nanos: 0,
            })),
            injector,
            rank,
        }
    }

    /// Allocates `bytes` of device memory, enforcing the capacity. An
    /// injected [`FaultKind::DeviceOom`] fails this call transiently
    /// (memory is not actually consumed, so retrying succeeds).
    pub fn alloc(&self, bytes: u64) -> Result<DeviceBuffer, DeviceError> {
        let mut inner = self.inner.lock();
        let capacity = inner.spec.as_ref().map_or(u64::MAX, |s| s.memory_bytes);
        let free = capacity - inner.allocated;
        if matches!(
            self.injector.on_op(self.rank, Channel::DeviceAlloc),
            Some(FaultKind::DeviceOom)
        ) {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                free: 0,
            });
        }
        if bytes > free {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                free,
            });
        }
        inner.allocated += bytes;
        self.metrics.peak_allocated.raise(inner.allocated as f64);
        Ok(DeviceBuffer {
            device: Arc::clone(&self.inner),
            bytes,
        })
    }

    /// Host→device copy; returns the simulated duration (s). An injected
    /// [`FaultKind::TransferError`] fails the call transiently (no bytes
    /// counted; a retry succeeds).
    pub fn h2d(&self, bytes: u64) -> Result<f64, DeviceError> {
        let m = &self.metrics;
        self.transfer("h2d", bytes, &m.h2d_bytes, &m.h2d_calls)
    }

    /// Device→host copy (see [`h2d`](Self::h2d)).
    pub fn d2h(&self, bytes: u64) -> Result<f64, DeviceError> {
        let m = &self.metrics;
        self.transfer("d2h", bytes, &m.d2h_bytes, &m.d2h_calls)
    }

    fn transfer(
        &self,
        op: &'static str,
        bytes: u64,
        total: &Counter,
        calls: &Counter,
    ) -> Result<f64, DeviceError> {
        if matches!(
            self.injector.on_op(self.rank, Channel::DeviceTransfer),
            Some(FaultKind::TransferError)
        ) {
            return Err(DeviceError::TransferError { op, bytes });
        }
        let mut inner = self.inner.lock();
        let secs = inner.spec.as_ref().map_or(0.0, |s| s.transfer_secs(bytes));
        inner.transfer_secs += secs;
        drop(inner);
        total.add(bytes);
        calls.inc();
        if let Some(nanos) = &self.metrics.transfer_nanos {
            nanos.add((secs * 1e9).round() as u64);
        }
        self.metrics.transfer_sizes.observe(bytes);
        Ok(secs)
    }

    /// Records a back-projection launch of `updates` voxel updates; returns
    /// the simulated duration (s).
    ///
    /// The launch consults the fault injector on [`Channel::Compute`]: a
    /// fired [`FaultKind::SlowDevice`] permanently degrades this device's
    /// compute rate (modelled time only — the computed bits are produced
    /// elsewhere and are never touched). Under `NoFaults` the arithmetic
    /// is exactly the healthy path: `secs` is the same `f64` an
    /// uninstrumented device would return.
    pub fn launch_backprojection(&self, updates: u64) -> f64 {
        if let Some(FaultKind::SlowDevice { factor, from_nanos }) =
            self.injector.on_op(self.rank, Channel::Compute)
        {
            let mut inner = self.inner.lock();
            inner.slow_factor = inner.slow_factor.max(factor.max(1) as f64);
            inner.slow_from_nanos = from_nanos;
        }
        let mut inner = self.inner.lock();
        let honest = inner
            .spec
            .as_ref()
            .map_or(0.0, |s| s.backprojection_secs(updates));
        let degraded = inner.slow_factor > 1.0
            && (inner.kernel_secs * 1e9).round() as u64 >= inner.slow_from_nanos;
        let secs = if degraded {
            honest * inner.slow_factor
        } else {
            honest
        };
        inner.kernel_secs += secs;
        drop(inner);
        self.metrics.kernel_updates.add(updates);
        self.metrics.kernel_launches.inc();
        self.metrics
            .kernel_flops
            .add(updates.saturating_mul(FLOPS_PER_UPDATE));
        if let Some(nanos) = &self.metrics.kernel_nanos {
            nanos.add((secs * 1e9).round() as u64);
        }
        secs
    }

    /// Snapshot of the counters (assembled from the registry-backed
    /// integer counters plus the device's simulated-seconds accumulators).
    pub fn counters(&self) -> DeviceCounters {
        let inner = self.inner.lock();
        DeviceCounters {
            h2d_bytes: self.metrics.h2d_bytes.get(),
            d2h_bytes: self.metrics.d2h_bytes.get(),
            h2d_calls: self.metrics.h2d_calls.get(),
            d2h_calls: self.metrics.d2h_calls.get(),
            kernel_updates: self.metrics.kernel_updates.get(),
            kernel_launches: self.metrics.kernel_launches.get(),
            transfer_secs: inner.transfer_secs,
            kernel_secs: inner.kernel_secs,
            peak_allocated: self.metrics.peak_allocated.get() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_enforces_capacity() {
        let d = Device::new(DeviceSpec::tiny(1000));
        let a = d.alloc(600).unwrap();
        let err = d.alloc(500).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 500,
                free: 400
            }
        );
        drop(a);
        d.alloc(1000).unwrap();
    }

    #[test]
    fn rtk_style_full_volume_fails_on_v100() {
        // Table 5: a 2048³ volume (32 GB) cannot be allocated on a 16 GB
        // V100 — the reason RTK's column shows ✗.
        let d = Device::new(DeviceSpec::v100_16gb());
        let vol_2048 = 2048u64 * 2048 * 2048 * 4;
        assert!(d.alloc(vol_2048).is_err());
        // A 1024³ volume (4 GB) fits.
        assert!(d.alloc(1024u64 * 1024 * 1024 * 4).is_ok());
    }

    #[test]
    fn counters_track_traffic_and_time() {
        let d = Device::new(DeviceSpec::tiny(1 << 20));
        let t1 = d.h2d(2_000_000).unwrap();
        let t2 = d.d2h(4_000_000).unwrap();
        let t3 = d.launch_backprojection(50_000_000);
        let c = d.counters();
        assert_eq!(c.h2d_bytes, 2_000_000);
        assert_eq!(c.d2h_bytes, 4_000_000);
        assert_eq!(c.h2d_calls, 1);
        assert_eq!(c.d2h_calls, 1);
        assert_eq!(c.kernel_updates, 50_000_000);
        assert_eq!(c.kernel_launches, 1);
        assert!((c.transfer_secs - (t1 + t2)).abs() < 1e-12);
        assert!((c.kernel_secs - t3).abs() < 1e-12);
        assert!(t2 > t1);
    }

    #[test]
    fn peak_allocation_watermark() {
        let d = Device::new(DeviceSpec::tiny(1000));
        {
            let _a = d.alloc(700).unwrap();
        }
        let _b = d.alloc(300).unwrap();
        assert_eq!(d.counters().peak_allocated, 700);
    }

    #[test]
    fn device_clones_share_state() {
        let d = Device::new(DeviceSpec::tiny(1000));
        let d2 = d.clone();
        let _buf = d.alloc(400).unwrap();
        assert!(d2.alloc(601).is_err(), "the clone sees the allocation");
        d2.h2d(100).unwrap();
        assert_eq!(d.counters().h2d_bytes, 100);
    }

    #[test]
    fn injected_oom_and_transfer_faults_are_transient() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                rank: 3,
                channel: Channel::DeviceAlloc,
                op_index: 0,
                kind: FaultKind::DeviceOom,
            },
            FaultEvent {
                rank: 3,
                channel: Channel::DeviceTransfer,
                op_index: 1,
                kind: FaultKind::TransferError,
            },
        ]);
        let d = Device::with_observability(
            DeviceSpec::tiny(1000),
            FaultInjector::new(plan),
            3,
            MetricsRegistry::new(),
        );
        // First alloc hits the injected OOM; the retry succeeds.
        assert!(matches!(
            d.alloc(100),
            Err(DeviceError::OutOfMemory { free: 0, .. })
        ));
        let _buf = d.alloc(100).unwrap();
        // Transfer op 0 is clean, op 1 faults, op 2 (retry) succeeds.
        assert!(d.h2d(10).is_ok());
        assert_eq!(
            d.d2h(20),
            Err(DeviceError::TransferError {
                op: "d2h",
                bytes: 20
            })
        );
        assert!(d.d2h(20).is_ok());
        // Failed transfers never pollute the counters.
        assert_eq!(d.counters().d2h_calls, 1);
        assert_eq!(d.counters().d2h_bytes, 20);
    }

    #[test]
    fn injected_slow_device_degrades_kernel_time_after_threshold() {
        use scalefbp_faults::{FaultInjector, FaultPlan};
        let spec = DeviceSpec::tiny(1 << 20);
        let h1 = Device::new(spec.clone()).launch_backprojection(1_000_000);
        // Slowdown ×3 once 1 launch worth of kernel nanos has accrued:
        // the first launch runs at full rate, later ones degraded.
        let from_nanos = (h1 * 1e9).round() as u64;
        let slowed = || {
            let plan = FaultPlan::parse(&format!("rank 5 compute op 0 slow:3:{from_nanos}"));
            let injector = FaultInjector::new(plan.unwrap());
            Device::with_observability(spec.clone(), injector, 5, MetricsRegistry::new())
        };
        let d = slowed();
        let t1 = d.launch_backprojection(1_000_000);
        assert_eq!(t1.to_bits(), h1.to_bits(), "pre-threshold launch is honest");
        let t2 = d.launch_backprojection(1_000_000);
        assert_eq!(t2.to_bits(), (h1 * 3.0).to_bits(), "degraded launch is ×3");
        // Model time is deterministic: a replay is bit-identical.
        let d2 = slowed();
        assert_eq!(d2.launch_backprojection(1_000_000).to_bits(), t1.to_bits());
        assert_eq!(d2.launch_backprojection(1_000_000).to_bits(), t2.to_bits());
    }

    #[test]
    fn registry_receives_rank_labelled_metrics() {
        let reg = MetricsRegistry::new();
        let d = Device::with_observability(
            DeviceSpec::tiny(1 << 30),
            Arc::new(NoFaults),
            2,
            reg.clone(),
        );
        let _buf = d.alloc(4096).unwrap();
        d.h2d(1_000_000).unwrap();
        d.d2h(2_000_000).unwrap();
        d.launch_backprojection(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gpu.h2d.bytes", Some(2)), Some(1_000_000));
        assert_eq!(snap.counter("gpu.d2h.bytes", Some(2)), Some(2_000_000));
        assert_eq!(
            snap.counter("gpu.kernel.flops", Some(2)),
            Some(10 * FLOPS_PER_UPDATE)
        );
        assert_eq!(snap.gauge("gpu.mem.peak_bytes", Some(2)), Some(4096.0));
        // Transfer durations mirror into integer nanoseconds.
        assert!(snap.counter("gpu.transfer.nanos", Some(2)).unwrap() > 0);
    }

    #[test]
    fn counted_device_records_byte_domain_metrics_with_zero_time() {
        use scalefbp_faults::{FaultInjector, FaultPlan};
        let plan = FaultPlan::parse(
            "rank 0 device-alloc op 0 device-oom\n\
             rank 0 device-transfer op 0 transfer-error\n\
             rank 0 compute op 0 slow:3:0",
        )
        .unwrap();
        let reg = MetricsRegistry::new();
        let d = Device::counted(FaultInjector::new(plan), 0, reg.clone());
        // The injector is consulted on every channel, as on a modelled
        // device: the first alloc and the first transfer fail.
        assert!(matches!(
            d.alloc(1),
            Err(DeviceError::OutOfMemory { free: 0, .. })
        ));
        let buf = d.alloc(1 << 50).unwrap(); // unlimited capacity
        let _more = d.alloc(1 << 50).unwrap();
        assert!(matches!(
            d.h2d(12345),
            Err(DeviceError::TransferError { .. })
        ));
        assert_eq!(d.h2d(12345), Ok(0.0));
        assert_eq!(d.d2h(6789), Ok(0.0));
        assert_eq!(d.launch_backprojection(1000), 0.0); // slowed, still 0
        assert_eq!(d.launch_backprojection(1000), 0.0);
        drop(buf);
        let c = d.counters();
        assert_eq!((c.h2d_bytes, c.h2d_calls), (12345, 1));
        assert_eq!((c.d2h_bytes, c.d2h_calls), (6789, 1));
        assert_eq!((c.kernel_updates, c.kernel_launches), (2000, 2));
        assert_eq!((c.transfer_secs, c.kernel_secs), (0.0, 0.0));
        assert_eq!(c.peak_allocated, 1 << 51);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("gpu.kernel.flops", Some(0)),
            Some(2000 * FLOPS_PER_UPDATE)
        );
        // A counted device never registers modelled time.
        assert_eq!(snap.counter("gpu.transfer.nanos", Some(0)), None);
        assert_eq!(snap.counter("gpu.kernel.nanos", Some(0)), None);
    }

    #[test]
    fn concurrent_allocation_is_safe() {
        let d = Device::new(DeviceSpec::tiny(100_000));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = d.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        if let Ok(buf) = d.alloc(1000) {
                            d.h2d(1000).unwrap();
                            drop(buf);
                        }
                    }
                });
            }
        });
        // Every buffer came back: the whole capacity is free again.
        d.alloc(100_000).unwrap();
        assert_eq!(d.counters().h2d_bytes, d.counters().h2d_calls * 1000);
    }
}
