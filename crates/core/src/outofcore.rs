//! The streaming driver on one device — Algorithm 3's slab plan, its
//! stages and its report. Every run walks the batches through one slab
//! loop on the caller's thread, starting no thread; the [`Schedule`]
//! picks only what the run exports, Table 5's serial timeline or Figure
//! 9's replayed pipeline (`pipelined.rs`). So both schedules write the
//! same bits and charge the device the same bytes.

use std::sync::Arc;
use std::time::Instant;

use scalefbp_ckpt::{resume_partition, CheckpointSpec, CheckpointStore};
use scalefbp_faults::{
    retry_with_backoff, BackoffPolicy, FaultInject, FaultInjector, FaultPlan, NoFaults,
    RecoveryEvent, RecoveryLog,
};
use scalefbp_geom::{RowRange, RowSource, SubVolumeTask, Volume, VolumeDecomposition};
use scalefbp_gpusim::{Device, DeviceBuffer, DeviceCounters, DeviceError};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use scalefbp_pipeline::TraceCollector;

use crate::checkpoint::{commit_slab, config_fingerprint, open_store, slab_from_bytes};
use crate::pipelined::replay;
use crate::stream::{scale_sum, DataPath, Ring, BLOCK_BYTES};
use crate::{FdkConfig, ReconstructionError};

/// Modelled host bandwidths (bytes/second) of the load, filter and store
/// stages, for the overlapped schedule's deterministic replay.
const MODEL_HOST_LOAD_BW: f64 = 8.0e9;
const MODEL_FILTER_BW: f64 = 2.0e9;
const MODEL_STORE_BW: f64 = 6.0e9;

/// The driver is single-rank: its device, storage view, recovery events
/// and `pipeline.*` / `gpu.*` metrics are all labelled rank 0.
const RANK: usize = 0;

/// What a run of [`OutOfCoreReconstructor::reconstruct`] exports. Under
/// either, the stages run back to back on the caller's thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Algorithm 3: records the `ooc.*` counters and exports Table 5's
    /// serial trace.
    Serial,
    /// Figure 9: records the rank-0 `pipeline.*` metrics and exports
    /// Figure 10's model trace, the batches replayed through the
    /// pipeline's queue recurrence.
    Overlapped,
}

/// What a reconstruction runs under besides its source; every schedule
/// takes every option, and a bare [`Schedule`] converts to a run with none.
#[derive(Clone, Copy, Debug)]
pub struct StreamRun<'a> {
    /// How the stages run.
    pub schedule: Schedule,
    /// Device and storage faults to inject and recover from.
    pub faults: Option<&'a FaultPlan>,
    /// The modelled storage the load stage reads from; the run's metrics,
    /// its `io.*` traffic included, land in its registry.
    pub storage: Option<&'a StorageEndpoint>,
    /// Slab checkpoints, committed into `spec.dir` every `spec.every`
    /// slabs; with `spec.resume`, loaded instead of recomputed.
    pub checkpoint: Option<(&'a StorageEndpoint, &'a CheckpointSpec)>,
}

impl From<Schedule> for StreamRun<'_> {
    fn from(schedule: Schedule) -> Self {
        StreamRun {
            schedule,
            faults: None,
            storage: None,
            checkpoint: None,
        }
    }
}

/// Per-batch record of a run (a row of Table 5, per batch); a batch
/// resumed from a checkpoint is zero but for its index. The seconds are
/// modelled: load (by the storage endpoint, if any), filter and store at
/// host bandwidths, the transfers and the kernel by the device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OocBatch {
    /// Batch (sub-volume) index.
    pub index: usize,
    /// Detector rows newly moved host→device: `a₀b₀` for the first
    /// computed batch and after a resumed one, else the differential
    /// `b_{i-1}b_i`.
    pub rows_loaded: usize,
    /// Load seconds.
    pub load_secs: f64,
    /// Filter seconds.
    pub filter_secs: f64,
    /// H2D seconds.
    pub h2d_secs: f64,
    /// Kernel seconds.
    pub bp_secs: f64,
    /// D2H seconds.
    pub d2h_secs: f64,
    /// Store seconds.
    pub store_secs: f64,
}

/// Outcome statistics of a streaming run.
#[derive(Clone, Debug)]
pub struct OutOfCoreReport {
    /// Slab thickness `N_b` chosen for the device.
    pub nb: usize,
    /// Ring-buffer height `H` (detector rows resident).
    pub window_rows: usize,
    /// Per-batch records, in batch order.
    pub batches: Vec<OocBatch>,
    /// Device traffic and work counters.
    pub device: DeviceCounters,
    /// Total wall-clock seconds of the reconstruction.
    pub wall_secs: f64,
    /// Wall-clock stage spans, one per stage and batch, back to back in
    /// `load → filter → bp → store` order, with the recovery log absorbed.
    pub trace: TraceCollector,
    /// Deterministic model-time timeline, what `--trace-out` exports:
    /// each batch's h2d → bp → d2h back to back (serial), or the batches
    /// replayed through the Figure 9 queue recurrence (overlapped).
    pub model_trace: TraceCollector,
    /// Device and storage retries, canonically ordered.
    pub recovery: Vec<RecoveryEvent>,
    /// The run's `gpu.*`, `ooc.*` or `pipeline.*`, `retry.backoff.*` and
    /// storage `io.*` metrics — deterministic, exportable.
    pub metrics: MetricsSnapshot,
}

impl OutOfCoreReport {
    /// Back-projection throughput in GUPS over wall time — the paper's
    /// kernel metric (Table 5's Perf. column).
    pub fn wall_gups(&self) -> f64 {
        self.device.kernel_updates as f64 / self.wall_secs.max(1e-12) / 1e9
    }
}

/// The streaming out-of-core reconstructor of Algorithm 3.
///
/// Chooses the largest slab thickness `N_b` whose working set — the
/// detector-row ring buffer `H·N_p·N_u`, one sub-volume slab
/// `N_x·N_y·N_b`, and the projection-matrix table — fits the simulated
/// device, then reconstructs slab by slab, moving each detector row to the
/// device **once** (the differential update of Eq 6–7). Output volumes may
/// exceed device memory by orders of magnitude (the paper builds 256 GB
/// volumes on a 16 GB V100).
pub struct OutOfCoreReconstructor {
    config: FdkConfig,
    nb: usize,
    window_rows: usize,
    /// Bytes per row block read from the source ([`BLOCK_BYTES`]; the
    /// stream tests shrink it to cut batches into several blocks).
    pub(crate) block_bytes: usize,
}

impl OutOfCoreReconstructor {
    /// Plans a reconstructor for `config`. Fails with
    /// [`ReconstructionError::DeviceTooSmall`] if even a one-slice slab
    /// exceeds device memory.
    pub fn new(config: FdkConfig) -> Result<Self, ReconstructionError> {
        config.validate()?;
        let g = &config.geometry;
        // Planning always follows the configured device spec, whatever
        // backend executes: the slab plan, streaming pattern and byte
        // counters stay backend-invariant (the conformance contract).
        let capacity = config.device.memory_bytes;
        let mats_bytes = (g.np * 12 * 4) as u64;

        // Start from the paper's N_b = N_z / N_c and shrink until the
        // working set fits.
        let mut nb = g.nz.div_ceil(config.nc).max(1);
        loop {
            let decomp = VolumeDecomposition::full(g, nb);
            let window_rows = decomp.max_rows().min(g.nv);
            let window_bytes = (window_rows * g.np * g.nu * 4) as u64;
            let slab_bytes = (g.nx * g.ny * nb * 4) as u64;
            let needed = window_bytes + slab_bytes + mats_bytes;
            if needed <= capacity {
                return Ok(OutOfCoreReconstructor {
                    config,
                    nb,
                    window_rows,
                    block_bytes: BLOCK_BYTES,
                });
            }
            if nb == 1 {
                return Err(ReconstructionError::DeviceTooSmall { needed, capacity });
            }
            nb = (nb / 2).max(1);
        }
    }

    /// The chosen slab thickness `N_b`.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// The ring-buffer height `H`.
    pub fn window_rows(&self) -> usize {
        self.window_rows
    }

    /// The sub-volume plan.
    pub fn plan(&self) -> VolumeDecomposition {
        VolumeDecomposition::full(&self.config.geometry, self.nb)
    }

    /// Runs the reconstruction: per batch, load its new detector rows
    /// from `source` block by block, filter each block on the "CPU" and
    /// write it into the device ring, which drops it (the scan is never
    /// held whole), then back-project the slab and store it.
    /// Bit-identical to [`crate::fdk_reconstruct_configured`] under either
    /// schedule, any recovered fault plan and any resume (asserted by the
    /// integration tests) — the paper's criterion for the streaming kernel.
    ///
    /// Errors: a failed read is [`ReconstructionError::Input`]; a fault
    /// plan that outlasts the retry budget is
    /// [`ReconstructionError::Device`] or [`ReconstructionError::Input`];
    /// `spec.kill_after_saves` is [`ReconstructionError::Interrupted`].
    pub fn reconstruct<'a>(
        &self,
        source: &dyn RowSource,
        run: impl Into<StreamRun<'a>>,
    ) -> Result<(Volume, OutOfCoreReport), ReconstructionError> {
        let (g, run) = (&self.config.geometry, run.into());
        self.config.check_projections(source)?;
        let t0 = Instant::now();
        let registry = run
            .storage
            .map_or_else(MetricsRegistry::new, |s| s.metrics_registry().clone());
        let decomp = self.plan();
        let stages = Stages::new(self, &decomp, source, &run, &registry);
        let mut sink = Sink {
            out: Volume::zeros(g.nx, g.ny, g.nz),
            ckpt: None,
            pending: Vec::new(),
        };
        // Slabs an earlier run committed are pasted first, on this thread.
        let mut batches = Vec::new();
        if let Some((endpoint, spec)) = run.checkpoint {
            let store = open_store(
                endpoint,
                spec,
                config_fingerprint(&self.config, "outofcore"),
            )?;
            let z: Vec<_> = decomp
                .tasks()
                .iter()
                .map(|t| (t.z_begin, t.z_end))
                .collect();
            for i in resume_partition(&z, &store.manifest().committed_ranges()).0 {
                let payload = store.load_slab(z[i], None)?;
                sink.out
                    .paste_slab(&slab_from_bytes(g.nx, g.ny, z[i], &payload)?);
                stages.batches.inc();
                batches.push(OocBatch {
                    index: i,
                    ..OocBatch::default()
                });
            }
            sink.ckpt = Some((store, spec));
        }
        // The rows each computed batch loads: the differential rows after
        // a computed batch, the whole range first and after a resumed one
        // (the ring is stale then; back-projection reads only rows inside
        // `task.rows`, so the bits do not change).
        let mut prev_computed = false;
        let todo: Vec<_> = decomp
            .tasks()
            .iter()
            .filter_map(|t| {
                let computed = batches.iter().all(|b| b.index != t.index);
                let rows = if prev_computed { t.new_rows } else { t.rows };
                prev_computed = computed;
                computed.then_some((t, rows))
            })
            .collect();

        let mut trace = TraceCollector::new();
        batches.extend(serial(&stages, &todo, &mut sink, &mut trace)?);
        batches.sort_unstable_by_key(|b| b.index);
        let mut model_trace = match run.schedule {
            Schedule::Serial => serial_trace(&batches),
            Schedule::Overlapped => {
                let (model, makespan) = replay(&batches);
                let gauge = registry.rank_gauge("pipeline.model.makespan_secs", RANK);
                gauge.set(makespan);
                model
            }
        };
        let recovery = stages.log.events();
        trace.absorb_recovery_log(&recovery);
        model_trace.absorb_recovery_log(&recovery);
        let report = OutOfCoreReport {
            nb: self.nb,
            window_rows: self.window_rows,
            batches,
            device: stages.device.counters(),
            wall_secs: t0.elapsed().as_secs_f64(),
            trace,
            model_trace,
            recovery,
            metrics: registry.snapshot(),
        };
        Ok((sink.out, report))
    }
}

/// Algorithm 3: each batch's stages back to back on the caller's thread,
/// one wall-clock span per stage and batch recorded into `trace`. A batch
/// reads and filters block by block, so its load span is its reads'
/// seconds and its filter span the rest of the fill.
fn serial(
    stages: &Stages,
    todo: &[(&SubVolumeTask, RowRange)],
    sink: &mut Sink,
    trace: &mut TraceCollector,
) -> Result<Vec<OocBatch>, ReconstructionError> {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let (mut ring, _allocs) = stages.ring()?;
    let mut batches = Vec::with_capacity(todo.len());
    for &(task, rows) in todo {
        let start = now();
        let load_secs = stages.load(rows)?;
        let fill_start = now();
        let read_secs = stages.path.fill(&mut ring, rows)?;
        let filtered = now();
        let loaded = (fill_start + read_secs).min(filtered);
        let (slab, batch) = stages.backproject(task, rows, load_secs, &ring)?;
        let projected = now();
        batches.push(batch);
        stages.store(sink, slab)?;
        for (stage, from, to) in [
            ("load", start, loaded),
            ("filter", loaded, filtered),
            ("bp", filtered, projected),
            ("store", projected, now()),
        ] {
            trace.record(stage, task.index, from, to);
        }
    }
    Ok(batches)
}

/// Table 5's serial timeline: per batch, h2d → bp → d2h back to back in
/// model seconds.
fn serial_trace(batches: &[OocBatch]) -> TraceCollector {
    let mut trace = TraceCollector::new();
    let mut t = 0.0;
    for b in batches {
        for (stage, secs) in [("h2d", b.h2d_secs), ("bp", b.bp_secs), ("d2h", b.d2h_secs)] {
            trace.record(stage, b.index, t, t + secs);
            t += secs;
        }
    }
    trace
}

/// Where the store stage writes: the volume, and the checkpoint with the
/// z-ranges of the slabs waiting for their commit.
struct Sink<'a> {
    out: Volume,
    ckpt: Option<(CheckpointStore, &'a CheckpointSpec)>,
    pending: Vec<(usize, usize)>,
}

/// One run's stages: the shared [`DataPath`] with the device, its
/// retries and the run's counters around it. Per batch the slab loop
/// calls [`load`](Self::load), [`DataPath::fill`],
/// [`backproject`](Self::backproject) and [`store`](Self::store).
struct Stages<'a> {
    config: &'a FdkConfig,
    path: DataPath<'a>,
    decomp: &'a VolumeDecomposition,
    storage: Option<StorageEndpoint>,
    device: Device,
    window_rows: usize,
    log: Arc<RecoveryLog>,
    retries: Counter,
    retry_millis: Counter,
    batches: Counter,
    rows_loaded: Counter,
    kernel_updates: Counter,
}

impl<'a> Stages<'a> {
    fn new(
        rec: &'a OutOfCoreReconstructor,
        decomp: &'a VolumeDecomposition,
        source: &'a dyn RowSource,
        run: &StreamRun,
        registry: &MetricsRegistry,
    ) -> Self {
        let config = &rec.config;
        let injector: Arc<dyn FaultInject> = match run.faults {
            Some(plan) => FaultInjector::new(plan.clone()),
            None => Arc::new(NoFaults),
        };
        let counter = |name: &str| match run.schedule {
            Schedule::Serial => registry.counter(&format!("ooc.{name}")),
            Schedule::Overlapped => registry.rank_counter(&format!("pipeline.{name}"), RANK),
        };
        Stages {
            config,
            path: DataPath::new(config, source, rec.block_bytes),
            decomp,
            device: config.build_device(injector.clone(), RANK, registry.clone()),
            storage: run.storage.map(|s| s.with_fault_injector(injector, RANK)),
            window_rows: rec.window_rows,
            log: RecoveryLog::new(),
            retries: registry.counter("retry.backoff.attempts"),
            retry_millis: registry.counter("retry.backoff.delay_millis"),
            batches: counter("batches"),
            rows_loaded: counter("rows.loaded"),
            kernel_updates: counter("kernel.updates"),
        }
    }

    /// Runs `op` under the [`BackoffPolicy::transient`] budget, counting
    /// each retry in `retry.backoff.*` and logging it as `event(attempt)`.
    fn retry<T, E>(
        &self,
        event: impl Fn(u32) -> RecoveryEvent,
        op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        retry_with_backoff(BackoffPolicy::transient(), op, |attempt, delay, _| {
            self.retries.inc();
            self.retry_millis.add(delay);
            self.log.record(event(attempt));
        })
    }

    /// Device operation `op` (`alloc`, `h2d` or `d2h`) under retry.
    fn on_device<T>(
        &self,
        op: &str,
        f: impl Fn() -> Result<T, DeviceError>,
    ) -> Result<T, DeviceError> {
        let event = |attempt| RecoveryEvent::DeviceRetry {
            rank: RANK,
            op: op.to_string(),
            attempt,
        };
        self.retry(event, |_| f())
    }

    fn bytes(&self, rows: usize) -> u64 {
        let g = &self.config.geometry;
        (rows * g.np * g.nu * 4) as u64
    }

    /// An empty ring, and the run's working set on the device: the matrix
    /// table's and the ring's allocations, held for the run.
    fn ring(&self) -> Result<(Ring, [DeviceBuffer; 2]), ReconstructionError> {
        let g = &self.config.geometry;
        let mats = self.on_device("alloc", || self.device.alloc((g.np * 12 * 4) as u64))?;
        let ring = self.on_device("alloc", || self.device.alloc(self.bytes(self.window_rows)))?;
        Ok((self.path.ring(self.decomp, 0..g.np), [mats, ring]))
    }

    /// Load, once per batch: the modelled read of `rows` from the storage
    /// endpoint under retry, or at host bandwidth without one. Returns
    /// its seconds; the rows come block by block through [`DataPath::fill`].
    fn load(&self, rows: RowRange) -> Result<f64, ReconstructionError> {
        let bytes = self.bytes(rows.len());
        let secs = match &self.storage {
            None => bytes as f64 / MODEL_HOST_LOAD_BW,
            Some(storage) => {
                let event = |attempt| RecoveryEvent::IoRetry {
                    rank: RANK,
                    what: "projection batch".to_string(),
                    attempt,
                };
                self.retry(event, |_| storage.try_record_read(bytes))
                    .map_err(|e| {
                        ReconstructionError::Input(format!("projection batch read: {e}"))
                    })?
            }
        };
        self.rows_loaded.add(rows.len() as u64);
        Ok(secs)
    }

    /// Back-projection of `task`, whose `rows` are in `ring`: the slab's
    /// alloc, the rows' h2d, the kernel and its launch, the slab's d2h
    /// (alloc and transfers under retry), and the FDK normalisation.
    /// Returns the slab and the batch's record, with `load_secs`. A slab
    /// no voxel of which passes the depth guard is refused. Geometry
    /// validation refuses the distances known to reach that (ones too
    /// large for `f32` arithmetic), so the guard is a second line.
    fn backproject(
        &self,
        task: &SubVolumeTask,
        rows: RowRange,
        load_secs: f64,
        ring: &Ring,
    ) -> Result<(Volume, OocBatch), ReconstructionError> {
        let g = &self.config.geometry;
        let slab_bytes = (g.nx * g.ny * task.nz() * 4) as u64;
        let _slab_buf = self.on_device("alloc", || self.device.alloc(slab_bytes))?;
        let (bytes, mut h2d_secs) = (self.bytes(rows.len()), 0.0);
        if !rows.is_empty() {
            h2d_secs = self.on_device("h2d", || self.device.h2d(bytes))?;
        }
        let (mut slab, stats) = self.path.backproject(task, ring);
        if stats.updates == 0 {
            return Err(ReconstructionError::Input(format!(
                "slab [{}, {}): no voxel passed the depth guard",
                task.z_begin, task.z_end
            )));
        }
        self.kernel_updates.add(stats.updates);
        let bp_secs = self.device.launch_backprojection(stats.updates);
        let d2h_secs = self.on_device("d2h", || self.device.d2h(slab_bytes))?;
        scale_sum(slab.data_mut(), self.path.weight());
        let batch = OocBatch {
            index: task.index,
            rows_loaded: rows.len(),
            load_secs,
            filter_secs: bytes as f64 / MODEL_FILTER_BW,
            h2d_secs,
            bp_secs,
            d2h_secs,
            store_secs: slab_bytes as f64 / MODEL_STORE_BW,
        };
        Ok((slab, batch))
    }

    /// Store: pastes the slab into the volume and commits its checkpoint.
    fn store(&self, sink: &mut Sink, slab: Volume) -> Result<(), ReconstructionError> {
        sink.out.paste_slab(&slab);
        if let Some((store, spec)) = sink.ckpt.as_mut() {
            let z = (slab.z_offset(), slab.z_offset() + slab.nz());
            commit_slab(store, spec, &mut sink.pending, &sink.out, z)?;
        }
        self.batches.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdk_reconstruct;
    use scalefbp_geom::{CbctGeometry, ProjectionStack};
    use scalefbp_gpusim::DeviceSpec;
    use scalefbp_phantom::{forward_project, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(32, 48, 64, 56)
    }

    fn projections(g: &CbctGeometry) -> ProjectionStack {
        forward_project(g, &uniform_ball(g, 0.55, 1.0))
    }

    fn tiny_device_config(g: &CbctGeometry, budget: u64) -> FdkConfig {
        FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(budget))
    }

    /// Total simulated device seconds (`T_H2D + T_bp + T_D2H`).
    fn gpu_secs(report: &OutOfCoreReport) -> f64 {
        let batch = |b: &OocBatch| b.h2d_secs + b.bp_secs + b.d2h_secs;
        report.batches.iter().map(batch).sum()
    }

    #[test]
    fn matches_in_core_reconstruction_bitwise() {
        let g = geom();
        let p = projections(&g);
        let reference = fdk_reconstruct(&g, &p).unwrap();
        // A device that can hold only a fraction of the projections.
        let full_bytes = (g.projection_bytes() + g.volume_bytes()) as u64;
        let cfg = tiny_device_config(&g, full_bytes / 3);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        assert!(rec.nb() < g.nz, "expected an actual out-of-core plan");
        let (vol, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        assert_eq!(
            vol.data(),
            reference.data(),
            "out-of-core must be bit-identical"
        );
        assert!(report.wall_secs > 0.0);
    }

    #[test]
    fn each_detector_row_moves_to_device_once() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 2);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let (_, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        let rows_total: usize = report.batches.iter().map(|b| b.rows_loaded).sum();
        // Differential loading: bounded by the detector height plus the
        // per-slab guard rows.
        assert!(
            rows_total <= g.nv + 2 * report.batches.len(),
            "rows loaded {rows_total} vs nv {}",
            g.nv
        );
        // H2D bytes match rows exactly.
        assert_eq!(
            report.device.h2d_bytes,
            (rows_total * g.np * g.nu * 4) as u64
        );
    }

    #[test]
    fn report_accounting_is_consistent() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 2);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let (_, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        // Kernel updates = voxels × projections.
        assert_eq!(report.device.kernel_updates, g.voxel_updates() as u64);
        // D2H carried every slab once.
        assert_eq!(report.device.d2h_bytes, g.volume_bytes() as u64);
        assert!(report.wall_gups() > 0.0);
        assert!(gpu_secs(&report) > 0.0);
        assert_eq!(report.batches.len(), rec.plan().num_subvolumes());
    }

    #[test]
    fn reference_kernel_streams_bit_identically() {
        let g = geom();
        let p = projections(&g);
        let full_bytes = (g.projection_bytes() + g.volume_bytes()) as u64;
        let base_cfg = tiny_device_config(&g, full_bytes / 3);
        let (baseline, _) = OutOfCoreReconstructor::new(base_cfg.clone())
            .unwrap()
            .reconstruct(&p, Schedule::Serial)
            .unwrap();
        let oracle_cfg = base_cfg.with_kernel(crate::KernelChoice::Reference);
        let rec = OutOfCoreReconstructor::new(oracle_cfg).unwrap();
        assert!(rec.nb() < g.nz, "expected an actual out-of-core plan");
        let (vol, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        assert_eq!(vol.data(), baseline.data());
        // The deterministic slab-loop counter mirrors the merged stats.
        assert_eq!(
            report.metrics.counter("ooc.kernel.updates", None),
            Some(report.device.kernel_updates)
        );
        assert_eq!(report.device.kernel_updates, g.voxel_updates() as u64);
    }

    #[test]
    fn cpu_backend_streams_bit_identically_with_zero_model_time() {
        let g = geom();
        let p = projections(&g);
        let full_bytes = (g.projection_bytes() + g.volume_bytes()) as u64;
        let cfg = tiny_device_config(&g, full_bytes / 3);
        let sim = OutOfCoreReconstructor::new(cfg.clone()).unwrap();
        let cpu = OutOfCoreReconstructor::new(cfg.with_backend(crate::BackendChoice::Cpu)).unwrap();
        // The plan follows the configured device spec, not the backend.
        assert_eq!(sim.nb(), cpu.nb());
        assert_eq!(sim.window_rows(), cpu.window_rows());
        let (vol_sim, rep_sim) = sim.reconstruct(&p, Schedule::Serial).unwrap();
        let (vol_cpu, rep_cpu) = cpu.reconstruct(&p, Schedule::Serial).unwrap();
        assert_eq!(vol_sim.data(), vol_cpu.data());
        // Byte/call/update counters agree; only modelled time differs.
        assert_eq!(rep_sim.device.h2d_bytes, rep_cpu.device.h2d_bytes);
        assert_eq!(rep_sim.device.d2h_bytes, rep_cpu.device.d2h_bytes);
        assert_eq!(rep_sim.device.kernel_updates, rep_cpu.device.kernel_updates);
        assert_eq!(
            rep_sim.device.kernel_launches,
            rep_cpu.device.kernel_launches
        );
        assert!(gpu_secs(&rep_sim) > 0.0);
        assert_eq!(gpu_secs(&rep_cpu), 0.0);
    }

    #[test]
    fn device_too_small_is_reported() {
        let g = geom();
        // Too small for even one slice + one row window.
        let cfg = tiny_device_config(&g, 10_000);
        match OutOfCoreReconstructor::new(cfg) {
            Err(ReconstructionError::DeviceTooSmall { needed, capacity }) => {
                assert!(needed > capacity);
            }
            Ok(_) => panic!("expected DeviceTooSmall"),
            Err(e) => panic!("expected DeviceTooSmall, got {e}"),
        }
    }

    #[test]
    fn large_device_uses_paper_batch_count() {
        let g = geom();
        let cfg = FdkConfig::new(g.clone()).with_nc(8);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        assert_eq!(rec.nb(), g.nz.div_ceil(8));
        assert_eq!(rec.plan().num_subvolumes(), 8);
    }

    #[test]
    fn out_of_core_volume_bigger_than_device_memory() {
        // The headline capability: output volume > device capacity
        // (the paper's 256 GB volume on a 16 GB V100, scaled down).
        let g = CbctGeometry::ideal(64, 32, 48, 40);
        let p = projections(&g);
        let vol_bytes = g.volume_bytes() as u64;
        let budget = g.projection_bytes() as u64 + vol_bytes / 4;
        assert!(
            budget < vol_bytes,
            "test setup: device must be smaller than the output"
        );
        let rec = OutOfCoreReconstructor::new(tiny_device_config(&g, budget)).unwrap();
        let (vol, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        assert_eq!(vol.len() * 4, vol_bytes as usize);
        assert!(report.device.peak_allocated <= budget);
        assert!(report.device.peak_allocated < vol_bytes);
    }

    #[test]
    fn serial_trace_and_metrics_are_deterministic() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 2);
        let run = || {
            let rec = OutOfCoreReconstructor::new(cfg.clone()).unwrap();
            let (_, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
            (report.model_trace.to_chrome_trace(), report.metrics)
        };
        let (trace_a, metrics_a) = run();
        let (trace_b, metrics_b) = run();
        assert_eq!(trace_a, trace_b);
        assert_eq!(metrics_a.to_json(), metrics_b.to_json());
        scalefbp_obs::validate_chrome_trace(&trace_a).unwrap();
        let batches = metrics_a.counter("ooc.batches", None).unwrap();
        assert!(batches > 1, "expected an actual out-of-core plan");
        assert_eq!(
            metrics_a.counter("gpu.h2d.bytes", Some(0)),
            metrics_a
                .counter("ooc.rows.loaded", None)
                .map(|rows| rows * (g.np * g.nu * 4) as u64)
        );
    }

    fn ckpt_endpoint(tag: &str) -> StorageEndpoint {
        let d =
            std::env::temp_dir().join(format!("scalefbp-ooc-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        StorageEndpoint::local_nvme(Some(d))
    }

    #[test]
    fn checkpointed_run_without_kill_matches_plain_run() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 3);
        let rec = OutOfCoreReconstructor::new(cfg.clone()).unwrap();
        let (plain, _) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        let ep = ckpt_endpoint("clean");
        let spec = CheckpointSpec::new("ck", 1);
        let (vol, _) = rec
            .reconstruct(
                &p,
                StreamRun {
                    checkpoint: Some((&ep, &spec)),
                    ..Schedule::Serial.into()
                },
            )
            .unwrap();
        assert_eq!(vol.data(), plain.data());
        let snap = ep.metrics_registry().snapshot();
        assert!(
            snap.counter("ckpt.saves", None).unwrap() >= rec.plan().num_subvolumes() as u64 - 1
        );
    }

    #[test]
    fn killed_run_resumes_bitwise_identical() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 3);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let n_tasks = rec.plan().num_subvolumes();
        assert!(n_tasks >= 3, "need a few slabs to kill mid-run");
        let (golden, _) = rec.reconstruct(&p, Schedule::Serial).unwrap();

        for kill_after in [1, n_tasks / 2, n_tasks - 1] {
            let ep = ckpt_endpoint(&format!("kill{kill_after}"));
            let spec = CheckpointSpec::new("ck", 1).killing_after(kill_after);
            match rec.reconstruct(
                &p,
                StreamRun {
                    checkpoint: Some((&ep, &spec)),
                    ..Schedule::Serial.into()
                },
            ) {
                Err(ReconstructionError::Interrupted { completed_slabs }) => {
                    assert_eq!(completed_slabs, kill_after)
                }
                other => panic!("kill switch did not fire: {:?}", other.map(|_| ())),
            }
            let resume = CheckpointSpec::new("ck", 1).resuming();
            let (vol, report) = rec
                .reconstruct(
                    &p,
                    StreamRun {
                        checkpoint: Some((&ep, &resume)),
                        ..Schedule::Serial.into()
                    },
                )
                .unwrap();
            assert_eq!(
                vol.data(),
                golden.data(),
                "resume after kill@{kill_after} must be bitwise identical"
            );
            // The resumed run loaded (not recomputed) the committed slabs.
            let resumed: usize = report
                .batches
                .iter()
                .filter(|b| b.rows_loaded == 0 && b.bp_secs == 0.0)
                .count();
            assert_eq!(resumed, kill_after);
            let snap = ep.metrics_registry().snapshot();
            assert_eq!(
                snap.counter("ckpt.resumed.slabs", None),
                Some(kill_after as u64)
            );
        }
    }

    #[test]
    fn resume_with_mismatched_config_is_refused() {
        let g = geom();
        let p = projections(&g);
        let cfg = tiny_device_config(&g, (g.projection_bytes() + g.volume_bytes()) as u64 / 3);
        let ep = ckpt_endpoint("stale");
        let rec = OutOfCoreReconstructor::new(cfg.clone()).unwrap();
        let spec = CheckpointSpec::new("ck", 1).killing_after(1);
        let _ = rec.reconstruct(
            &p,
            StreamRun {
                checkpoint: Some((&ep, &spec)),
                ..Schedule::Serial.into()
            },
        );
        // Same directory, different filter window: must refuse.
        let other =
            OutOfCoreReconstructor::new(cfg.with_window(crate::FilterWindow::Hann)).unwrap();
        let resume = CheckpointSpec::new("ck", 1).resuming();
        match other.reconstruct(
            &p,
            StreamRun {
                checkpoint: Some((&ep, &resume)),
                ..Schedule::Serial.into()
            },
        ) {
            Err(ReconstructionError::Checkpoint(what)) => {
                assert!(what.contains("stale"), "{what}")
            }
            other => panic!("stale checkpoint accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = geom();
        let bad = ProjectionStack::zeros(g.nv - 1, g.np, g.nu);
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g)).unwrap();
        assert!(matches!(
            rec.reconstruct(&bad, Schedule::Serial),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }

    /// Matrices built from distances that overflow `f32` have infinite
    /// rows, so no voxel passes the depth guard: both schedules refuse
    /// the first slab instead of charging an empty launch and writing
    /// zeros. Validation refuses such a geometry, so the test swaps it
    /// in after planning a validated one.
    #[test]
    fn slab_without_updates_is_refused() {
        let g = CbctGeometry::ideal(8, 8, 8, 8);
        let p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut rec = OutOfCoreReconstructor::new(FdkConfig::new(g)).unwrap();
        (rec.config.geometry.dso, rec.config.geometry.dsd) = (1e39, 2e39);
        assert!(rec.config.geometry.validate().is_err());
        for schedule in [Schedule::Serial, Schedule::Overlapped] {
            match rec.reconstruct(&p, schedule) {
                Err(ReconstructionError::Input(what)) => {
                    assert!(what.contains("no voxel passed the depth guard"), "{what}")
                }
                other => panic!("{schedule:?}: {:?}", other.map(|_| ())),
            }
        }
    }
}
