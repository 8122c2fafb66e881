//! Bandwidth-modelled storage endpoints.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use scalefbp_faults::{
    apply_bit_flip, open_frame, retry_with_backoff, seal_frame, BackoffPolicy, Channel,
    FaultInject, FaultKind, NoFaults, RecoveryEvent, RecoveryLog,
};
use scalefbp_obs::{Counter, Histogram, MetricsRegistry};

/// Latency-histogram bucket bounds in simulated nanoseconds: 1 µs, 100 µs,
/// 10 ms, 1 s, 100 s — spanning single-row reads up to full-volume stores.
const LATENCY_BOUNDS: [u64; 5] = [1_000, 100_000, 10_000_000, 1_000_000_000, 100_000_000_000];

/// Modelled cost of one fsync barrier (the durable-ordering point of the
/// atomic write protocol): a fixed device-flush latency.
const FSYNC_MODEL_SECS: f64 = 1e-4;

/// Traffic counters for one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StorageCounters {
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub written_bytes: u64,
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Simulated seconds spent (model time, not wall time).
    pub secs: f64,
}

/// Registry-backed traffic metrics of one endpoint, shared by every view
/// (clones and fault-instrumented views accumulate in one place). Metric
/// names are prefixed with the endpoint name (`io.local-nvme.read.bytes`)
/// and left unranked — an endpoint models one shared storage target, so
/// per-rank attribution happens at the pipeline level instead.
struct StorageMetrics {
    read_bytes: Counter,
    written_bytes: Counter,
    reads: Counter,
    writes: Counter,
    fsyncs: Counter,
    renames: Counter,
    /// Sealed reads whose CRC check failed (`integrity.io.<name>.failures`).
    integrity_failures: Counter,
    read_latency: Histogram,
    write_latency: Histogram,
    /// Simulated-seconds accumulator stays `f64` for exact equality with
    /// the per-call returns (the histograms hold the integer-nanos view).
    secs: Mutex<f64>,
}

impl StorageMetrics {
    fn new(registry: &MetricsRegistry, name: &str) -> Self {
        StorageMetrics {
            read_bytes: registry.counter(&format!("io.{name}.read.bytes")),
            written_bytes: registry.counter(&format!("io.{name}.write.bytes")),
            reads: registry.counter(&format!("io.{name}.read.ops")),
            writes: registry.counter(&format!("io.{name}.write.ops")),
            fsyncs: registry.counter(&format!("io.{name}.fsync.ops")),
            renames: registry.counter(&format!("io.{name}.rename.ops")),
            integrity_failures: registry.counter(&format!("integrity.io.{name}.failures")),
            read_latency: registry
                .histogram(&format!("io.{name}.read.latency_nanos"), &LATENCY_BOUNDS),
            write_latency: registry
                .histogram(&format!("io.{name}.write.latency_nanos"), &LATENCY_BOUNDS),
            secs: Mutex::new(0.0),
        }
    }
}

struct Inner {
    name: &'static str,
    read_bw: f64,
    write_bw: f64,
    root: Option<PathBuf>,
    metrics: Arc<StorageMetrics>,
    registry: MetricsRegistry,
    injector: Arc<dyn FaultInject>,
    rank: usize,
}

/// A storage target (PFS or node-local disk) with a bandwidth cost model,
/// traffic accounting and optional real file backing. Cheap to clone.
#[derive(Clone)]
pub struct StorageEndpoint {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for StorageEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEndpoint")
            .field("name", &self.inner.name)
            .field("read_bw", &self.inner.read_bw)
            .field("write_bw", &self.inner.write_bw)
            .finish()
    }
}

impl StorageEndpoint {
    /// A custom endpoint. `root = None` makes file operations panic
    /// (counter-only mode for paper-scale simulations).
    pub fn new(name: &'static str, read_bw: f64, write_bw: f64, root: Option<PathBuf>) -> Self {
        Self::with_observability(name, read_bw, write_bw, root, MetricsRegistry::new())
    }

    /// [`new`](Self::new) recording this endpoint's traffic into a shared
    /// registry (`io.<name>.read.bytes`, read/write latency histograms, …)
    /// so it lands in the run's exported snapshot.
    pub fn with_observability(
        name: &'static str,
        read_bw: f64,
        write_bw: f64,
        root: Option<PathBuf>,
        registry: MetricsRegistry,
    ) -> Self {
        assert!(
            read_bw > 0.0 && write_bw > 0.0,
            "bandwidths must be positive"
        );
        StorageEndpoint {
            inner: Arc::new(Inner {
                name,
                read_bw,
                write_bw,
                root,
                metrics: Arc::new(StorageMetrics::new(&registry, name)),
                registry,
                injector: Arc::new(NoFaults),
                rank: 0,
            }),
        }
    }

    /// The registry this endpoint reports into.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// A view of this endpoint whose reads are instrumented with a fault
    /// injector on behalf of `rank`. Counters (and the backing directory)
    /// stay shared with the original endpoint, so traffic from faulted and
    /// plain views accumulates in one place.
    pub fn with_fault_injector(&self, injector: Arc<dyn FaultInject>, rank: usize) -> Self {
        StorageEndpoint {
            inner: Arc::new(Inner {
                name: self.inner.name,
                read_bw: self.inner.read_bw,
                write_bw: self.inner.write_bw,
                root: self.inner.root.clone(),
                metrics: Arc::clone(&self.inner.metrics),
                registry: self.inner.registry.clone(),
                injector,
                rank,
            }),
        }
    }

    /// Consults the fault injector for one storage-read operation; an
    /// injected [`FaultKind::ReadError`] surfaces as an `io::Error` before
    /// any bytes are counted.
    fn check_read_fault(&self) -> std::io::Result<()> {
        if let Some(kind) = self
            .inner
            .injector
            .on_op(self.inner.rank, Channel::StorageRead)
        {
            if matches!(kind, FaultKind::ReadError) {
                return Err(std::io::Error::other(format!(
                    "injected storage read error on {} (rank {})",
                    self.inner.name, self.inner.rank
                )));
            }
        }
        Ok(())
    }

    /// The ABCI Lustre parallel file system: ~28.5 GB/s aggregate store
    /// bandwidth (`BW_store` of Section 6.3 — a single 4096³ volume takes
    /// ~9 s, the weak-scaling floor of Figure 14).
    pub fn lustre_pfs(root: Option<PathBuf>) -> Self {
        Self::new("lustre-pfs", 28.5e9, 28.5e9, root)
    }

    /// Node-local NVMe SSD: `BW_load` consistent with Table 5
    /// (17.9 GB loaded in ~9.5 s ⇒ ≈ 1.9 GB/s).
    pub fn local_nvme(root: Option<PathBuf>) -> Self {
        Self::new("local-nvme", 1.9e9, 1.2e9, root)
    }

    /// Endpoint name.
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Counter snapshot (assembled from the registry-backed integer
    /// counters plus the shared simulated-seconds accumulator).
    pub fn counters(&self) -> StorageCounters {
        let m = &self.inner.metrics;
        StorageCounters {
            read_bytes: m.read_bytes.get(),
            written_bytes: m.written_bytes.get(),
            reads: m.reads.get(),
            writes: m.writes.get(),
            secs: *m.secs.lock(),
        }
    }

    /// Records a modelled read of `bytes`; returns simulated seconds.
    pub fn record_read(&self, bytes: u64) -> f64 {
        let secs = bytes as f64 / self.inner.read_bw;
        let m = &self.inner.metrics;
        m.read_bytes.add(bytes);
        m.reads.inc();
        m.read_latency.observe_secs(secs);
        *m.secs.lock() += secs;
        secs
    }

    /// Fault-aware [`record_read`](Self::record_read): consults the
    /// injector first, so an injected read error costs nothing and counts
    /// nothing — the caller is expected to retry.
    pub fn try_record_read(&self, bytes: u64) -> std::io::Result<f64> {
        self.check_read_fault()?;
        Ok(self.record_read(bytes))
    }

    /// Records a modelled write of `bytes`; returns simulated seconds.
    pub fn record_write(&self, bytes: u64) -> f64 {
        let secs = bytes as f64 / self.inner.write_bw;
        let m = &self.inner.metrics;
        m.written_bytes.add(bytes);
        m.writes.inc();
        m.write_latency.observe_secs(secs);
        *m.secs.lock() += secs;
        secs
    }

    /// Resolves a relative path under the endpoint's root.
    ///
    /// # Panics
    /// Panics in counter-only mode (no root configured).
    pub fn resolve(&self, rel: &Path) -> PathBuf {
        let root = self
            .inner
            .root
            .as_ref()
            .expect("storage endpoint has no backing directory (counter-only mode)");
        root.join(rel)
    }

    /// Writes raw bytes to a file under the root (creating parent
    /// directories) and records the modelled cost; returns simulated
    /// seconds.
    pub fn write_file(&self, rel: &Path, data: &[u8]) -> std::io::Result<f64> {
        let path = self.resolve(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        Ok(self.record_write(data.len() as u64))
    }

    /// Reads a whole file under the root, recording the modelled cost.
    pub fn read_file(&self, rel: &Path) -> std::io::Result<Vec<u8>> {
        self.check_read_fault()?;
        let path = self.resolve(rel);
        let mut f = std::fs::File::open(path)?;
        let mut data = Vec::new();
        f.read_to_end(&mut data)?;
        self.record_read(data.len() as u64);
        Ok(data)
    }

    /// Modelled fsync barrier on `rel`: the durable-ordering point of
    /// the atomic write protocol. Syncs the real file and charges a
    /// fixed model flush latency; returns simulated seconds.
    pub fn fsync(&self, rel: &Path) -> std::io::Result<f64> {
        std::fs::File::open(self.resolve(rel))?.sync_all()?;
        let m = &self.inner.metrics;
        m.fsyncs.inc();
        *m.secs.lock() += FSYNC_MODEL_SECS;
        Ok(FSYNC_MODEL_SECS)
    }

    /// Atomically renames `from` to `to` under the root (the publish
    /// step of the atomic write protocol; a metadata operation, so no
    /// bandwidth is charged).
    pub fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(self.resolve(from), self.resolve(to))?;
        self.inner.metrics.renames.inc();
        Ok(())
    }

    /// The temp-file name the atomic write protocol stages `rel` under.
    pub fn staging_name(rel: &Path) -> PathBuf {
        let mut p = rel.as_os_str().to_owned();
        p.push(".tmp");
        PathBuf::from(p)
    }

    /// Crash-consistent write: `data` is staged in `<rel>.tmp`,
    /// fsync-modelled, then renamed over `rel` — a reader can never
    /// observe a torn `rel`, only the old file or the new one. Returns
    /// simulated seconds.
    pub fn write_file_atomic(&self, rel: &Path, data: &[u8]) -> std::io::Result<f64> {
        let tmp = Self::staging_name(rel);
        let mut secs = self.write_file(&tmp, data)?;
        secs += self.fsync(&tmp)?;
        self.rename(&tmp, rel)?;
        Ok(secs)
    }

    /// Atomic, integrity-sealed write: `payload` is framed as
    /// `[crc32][payload]` and written via the crash-consistent protocol.
    pub fn write_file_sealed(&self, rel: &Path, payload: &[u8]) -> std::io::Result<f64> {
        self.write_file_atomic(rel, &seal_frame(payload))
    }

    /// Reads and opens a sealed file. The injector's
    /// [`Channel::Corrupt`] is consulted once per sealed read: a fired
    /// [`FaultKind::BitFlip`] flips one seeded byte of the frame after
    /// it leaves disk, and the CRC check then rejects it with an
    /// `InvalidData` error (counted in `integrity.io.<name>.failures`).
    /// The bytes were transferred either way, so the read is costed.
    pub fn read_file_sealed(&self, rel: &Path) -> std::io::Result<Vec<u8>> {
        let mut frame = self.read_file(rel)?;
        if let Some(FaultKind::BitFlip { seed }) =
            self.inner.injector.on_op(self.inner.rank, Channel::Corrupt)
        {
            apply_bit_flip(&mut frame, seed);
        }
        match open_frame(&frame) {
            Ok(payload) => Ok(payload.to_vec()),
            Err(e) => {
                self.inner.metrics.integrity_failures.inc();
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", rel.display()),
                ))
            }
        }
    }

    /// [`read_file_sealed`](Self::read_file_sealed) under the shared
    /// bounded-backoff policy: transient faults (injected read errors,
    /// checksum mismatches) are retried with deterministic model-time
    /// delays counted in `retry.backoff.*`; corruption detections and
    /// retries are recorded in `recovery` when given. Non-transient
    /// errors (missing file, permissions) fail immediately.
    pub fn read_file_sealed_retrying(
        &self,
        rel: &Path,
        policy: BackoffPolicy,
        recovery: Option<&RecoveryLog>,
    ) -> std::io::Result<Vec<u8>> {
        let attempts = self.inner.registry.counter("retry.backoff.attempts");
        let delay_ms = self.inner.registry.counter("retry.backoff.delay_millis");
        // Outer Err = transient (retried); Ok(Err) = terminal (returned
        // as-is without consuming the attempt budget).
        let result = retry_with_backoff(
            policy,
            |attempt| match self.read_file_sealed(rel) {
                Ok(v) => Ok(Ok(v)),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied
                    ) =>
                {
                    Ok(Err(e))
                }
                Err(e) => {
                    if let Some(log) = recovery {
                        let what = rel.display().to_string();
                        let event = if e.kind() == std::io::ErrorKind::InvalidData {
                            RecoveryEvent::CorruptionDetected {
                                rank: self.inner.rank,
                                what,
                                attempt,
                            }
                        } else {
                            RecoveryEvent::IoRetry {
                                rank: self.inner.rank,
                                what,
                                attempt,
                            }
                        };
                        log.record(event);
                    }
                    Err(e)
                }
            },
            |_attempt, delay, _e| {
                attempts.inc();
                delay_ms.add(delay);
            },
        );
        match result {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) | Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("scalefbp-iosim-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn modelled_times_follow_bandwidth() {
        let s = StorageEndpoint::new("t", 100.0, 50.0, None);
        assert!((s.record_read(200) - 2.0).abs() < 1e-12);
        assert!((s.record_write(200) - 4.0).abs() < 1e-12);
        let c = s.counters();
        assert_eq!(c.read_bytes, 200);
        assert_eq!(c.written_bytes, 200);
        assert_eq!((c.reads, c.writes), (1, 1));
        assert!((c.secs - 6.0).abs() < 1e-12);
    }

    #[test]
    fn pfs_preset_stores_4096_cubed_in_about_nine_seconds() {
        // The Figure 14 floor: one 4096³ f32 volume over 28.5 GB/s ≈ 9.6 s.
        let pfs = StorageEndpoint::lustre_pfs(None);
        let bytes = 4096u64 * 4096 * 4096 * 4;
        let t = pfs.record_write(bytes);
        assert!((t - 9.6).abs() < 0.5, "modelled {t} s");
    }

    #[test]
    fn nvme_preset_loads_tomo29_in_about_table5_time() {
        // Table 5: 17.9 GB loaded with T_load ≈ 9.5 s.
        let nvme = StorageEndpoint::local_nvme(None);
        let t = nvme.record_read(17_900_000_000);
        assert!((t - 9.4).abs() < 0.5, "modelled {t} s");
    }

    #[test]
    fn file_roundtrip_counts_traffic() {
        let s = StorageEndpoint::new("t", 1e9, 1e9, Some(tmpdir("roundtrip")));
        let rel = Path::new("sub/dir/data.bin");
        let payload: Vec<u8> = (0..=255).collect();
        s.write_file(rel, &payload).unwrap();
        let back = s.read_file(rel).unwrap();
        assert_eq!(back, payload);
        let c = s.counters();
        assert_eq!(c.written_bytes, 256);
        assert_eq!(c.read_bytes, 256);
    }

    #[test]
    fn missing_file_is_io_error() {
        let s = StorageEndpoint::new("t", 1e9, 1e9, Some(tmpdir("missing")));
        assert!(s.read_file(Path::new("nope.bin")).is_err());
    }

    #[test]
    #[should_panic(expected = "counter-only mode")]
    fn counter_only_mode_rejects_file_ops() {
        let s = StorageEndpoint::lustre_pfs(None);
        let _ = s.resolve(Path::new("x"));
    }

    #[test]
    fn injected_read_error_is_transient_and_uncounted() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 5,
            channel: Channel::StorageRead,
            op_index: 1,
            kind: FaultKind::ReadError,
        }]);
        let inj = FaultInjector::new(plan);
        let base = StorageEndpoint::new("t", 100.0, 100.0, None);
        let s = base.with_fault_injector(inj, 5);
        // op 0 succeeds, op 1 is the injected error, op 2 succeeds again.
        assert!(s.try_record_read(100).is_ok());
        let err = s.try_record_read(100).unwrap_err();
        assert!(err.to_string().contains("injected storage read error"));
        assert!(s.try_record_read(100).is_ok());
        // The failed read counted nothing, and counters are shared with
        // the un-instrumented base endpoint.
        let c = base.counters();
        assert_eq!(c.reads, 2);
        assert_eq!(c.read_bytes, 200);
    }

    #[test]
    fn registry_receives_prefixed_metrics_with_latency_histogram() {
        use scalefbp_obs::{MetricKey, MetricValue};
        let reg = MetricsRegistry::new();
        let s = StorageEndpoint::with_observability("nvme", 100.0, 50.0, None, reg.clone());
        s.record_read(200); // 2 s modelled
        s.record_write(100); // 2 s modelled
        let snap = reg.snapshot();
        assert_eq!(snap.counter("io.nvme.read.bytes", None), Some(200));
        assert_eq!(snap.counter("io.nvme.write.ops", None), Some(1));
        match snap
            .get(&MetricKey::new("io.nvme.read.latency_nanos", None))
            .unwrap()
        {
            MetricValue::Histogram { count, sum, .. } => {
                assert_eq!(*count, 1);
                assert_eq!(*sum, 2_000_000_000); // 2 s in nanos
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Fault-instrumented views share the same registry metrics.
        use scalefbp_faults::NoFaults;
        let view = s.with_fault_injector(Arc::new(NoFaults), 3);
        view.record_read(100);
        assert_eq!(
            reg.snapshot().counter("io.nvme.read.bytes", None),
            Some(300)
        );
    }

    #[test]
    fn sealed_roundtrip_is_atomic_and_checksummed() {
        let dir = tmpdir("sealed");
        let s = StorageEndpoint::new("t", 1e9, 1e9, Some(dir.clone()));
        let rel = Path::new("ckpt/slab_000.bin");
        let payload: Vec<u8> = (0..200u8).collect();
        s.write_file_sealed(rel, &payload).unwrap();
        // The staging temp is gone, the published file carries the frame.
        assert!(!dir.join("ckpt/slab_000.bin.tmp").exists());
        assert_eq!(s.read_file_sealed(rel).unwrap(), payload);
        let snap = s.metrics_registry().snapshot();
        assert_eq!(snap.counter("io.t.fsync.ops", None), Some(1));
        assert_eq!(snap.counter("io.t.rename.ops", None), Some(1));
        assert_eq!(snap.counter("integrity.io.t.failures", None), Some(0));
        // A flipped byte on disk is detected as InvalidData.
        let abs = dir.join("ckpt/slab_000.bin");
        let mut bytes = std::fs::read(&abs).unwrap();
        bytes[7] ^= 0x40;
        std::fs::write(&abs, &bytes).unwrap();
        let err = s.read_file_sealed(rel).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            s.metrics_registry()
                .snapshot()
                .counter("integrity.io.t.failures", None),
            Some(1)
        );
    }

    #[test]
    fn injected_corruption_is_detected_then_retried_to_success() {
        use scalefbp_faults::{FaultEvent, FaultInjector, FaultPlan};
        let dir = tmpdir("sealed-corrupt");
        let base = StorageEndpoint::new("t", 1e9, 1e9, Some(dir));
        let rel = Path::new("shard.bin");
        base.write_file_sealed(rel, b"payload bytes").unwrap();
        // The 2nd sealed read on rank 3 gets one flipped byte.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            rank: 3,
            channel: Channel::Corrupt,
            op_index: 1,
            kind: FaultKind::BitFlip { seed: 77 },
        }]);
        let s = base.with_fault_injector(FaultInjector::new(plan), 3);
        assert_eq!(s.read_file_sealed(rel).unwrap(), b"payload bytes");
        assert!(s.read_file_sealed(rel).is_err());
        // Under the backoff policy the corruption is transient: detect,
        // record, retry, succeed — with deterministic model delays.
        let log = RecoveryLog::new();
        let plan2 = FaultPlan::from_events(vec![FaultEvent {
            rank: 3,
            channel: Channel::Corrupt,
            op_index: 0,
            kind: FaultKind::BitFlip { seed: 78 },
        }]);
        let s2 = base.with_fault_injector(FaultInjector::new(plan2), 3);
        let back = s2
            .read_file_sealed_retrying(rel, BackoffPolicy::integrity(), Some(&log))
            .unwrap();
        assert_eq!(back, b"payload bytes");
        let events = log.events();
        assert!(
            matches!(
                events.as_slice(),
                [RecoveryEvent::CorruptionDetected {
                    rank: 3,
                    attempt: 1,
                    ..
                }]
            ),
            "{events:?}"
        );
        let snap = base.metrics_registry().snapshot();
        assert_eq!(snap.counter("retry.backoff.attempts", None), Some(1));
        assert_eq!(
            snap.counter("retry.backoff.delay_millis", None),
            Some(BackoffPolicy::integrity().delay_millis(1))
        );
    }

    #[test]
    fn sealed_retry_does_not_spin_on_missing_files() {
        let s = StorageEndpoint::new("t", 1e9, 1e9, Some(tmpdir("sealed-missing")));
        let log = RecoveryLog::new();
        let err = s
            .read_file_sealed_retrying(
                Path::new("gone.bin"),
                BackoffPolicy::integrity(),
                Some(&log),
            )
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(log.is_empty());
        assert_eq!(
            s.metrics_registry()
                .snapshot()
                .counter("retry.backoff.attempts", None),
            Some(0)
        );
    }

    #[test]
    fn clones_share_counters() {
        let s = StorageEndpoint::new("t", 1e9, 1e9, None);
        let s2 = s.clone();
        s.record_read(100);
        s2.record_write(50);
        assert_eq!(s.counters().written_bytes, 50);
        assert_eq!(s2.counters().read_bytes, 100);
    }
}
