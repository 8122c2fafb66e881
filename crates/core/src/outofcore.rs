//! Algorithm 3: out-of-core streaming reconstruction on one device.

use std::sync::Arc;

use scalefbp_backproject::{KernelStats, TextureWindow};
use scalefbp_ckpt::{resume_partition, CheckpointSpec};
use scalefbp_exec::{Executor, LaunchDescriptor};
use scalefbp_faults::NoFaults;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, RowSource, Volume, VolumeDecomposition};
use scalefbp_gpusim::DeviceCounters;
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{MetricsRegistry, MetricsSnapshot};
use scalefbp_pipeline::TraceCollector;

use crate::checkpoint::{commit_slab, config_fingerprint, open_store, slab_from_bytes};
use crate::stream::{read_block, RowBlocks, BLOCK_BYTES};
use crate::{FdkConfig, FilterChoice, ReconstructionError};

/// Per-batch record of one out-of-core run (a row of Table 5, per batch).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OocBatch {
    /// Batch (sub-volume) index.
    pub index: usize,
    /// Detector rows newly moved host→device for this batch
    /// (`a₀b₀` for batch 0, the differential `b_{i-1}b_i` afterwards).
    pub rows_loaded: usize,
    /// Simulated H2D seconds.
    pub h2d_secs: f64,
    /// Simulated kernel seconds.
    pub bp_secs: f64,
    /// Simulated D2H seconds.
    pub d2h_secs: f64,
    /// Wall-clock seconds actually spent computing the batch.
    pub wall_secs: f64,
}

/// Outcome statistics of an out-of-core run.
#[derive(Clone, Debug)]
pub struct OutOfCoreReport {
    /// Slab thickness `N_b` chosen for the device.
    pub nb: usize,
    /// Ring-buffer height `H` (detector rows resident).
    pub window_rows: usize,
    /// Per-batch records.
    pub batches: Vec<OocBatch>,
    /// Device traffic counters.
    pub device: DeviceCounters,
    /// Aggregated kernel work counters.
    pub kernel: KernelStats,
    /// Total wall-clock seconds of the reconstruction.
    pub wall_secs: f64,
    /// Snapshot of the run's metrics registry (`gpu.*` plus the
    /// `ooc.*` slab-loop counters) — deterministic, exportable.
    pub metrics: MetricsSnapshot,
}

impl OutOfCoreReport {
    /// Back-projection throughput in GUPS over wall time — the paper's
    /// kernel metric (Table 5's Perf. column).
    pub fn wall_gups(&self) -> f64 {
        self.kernel.updates as f64 / self.wall_secs.max(1e-12) / 1e9
    }

    /// Total simulated device seconds (`T_H2D + T_bp + T_D2H`).
    pub fn simulated_gpu_secs(&self) -> f64 {
        self.batches
            .iter()
            .map(|b| b.h2d_secs + b.bp_secs + b.d2h_secs)
            .sum()
    }

    /// Deterministic model-time timeline of the serial slab loop:
    /// per batch, h2d → bp → d2h back to back in simulated seconds.
    /// Unlike the per-batch `wall_secs`, this is a pure function of the
    /// inputs and exports byte-identically across runs.
    pub fn serial_trace(&self) -> TraceCollector {
        let trace = TraceCollector::new();
        let mut t = 0.0;
        for b in &self.batches {
            trace.record("h2d", b.index, t, t + b.h2d_secs);
            t += b.h2d_secs;
            trace.record("bp", b.index, t, t + b.bp_secs);
            t += b.bp_secs;
            trace.record("d2h", b.index, t, t + b.d2h_secs);
            t += b.d2h_secs;
        }
        trace
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
    exec: Arc<dyn Executor>,
    registry: MetricsRegistry,
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
                // The device's `gpu.*` metrics and the slab loop's `ooc.*`
                // counters land in one registry; its snapshot comes back
                // in the report.
                let registry = MetricsRegistry::new();
                let exec = config.build_executor(Arc::new(NoFaults), 0, registry.clone());
                return Ok(OutOfCoreReconstructor {
                    exec,
                    config,
                    registry,
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

    /// Runs the full reconstruction: read each batch's new detector rows
    /// from `projections` in blocks, filter each block on the "CPU" and
    /// stream it into the device ring, back-project each slab, normalise,
    /// assemble. The scan is never held whole: a block is dropped once it
    /// is in the ring. A failed read returns [`ReconstructionError::Input`].
    ///
    /// Bit-identical to [`crate::fdk_reconstruct_configured`] on the same
    /// inputs (asserted by the integration tests) — the paper's criterion
    /// for the streaming kernel.
    ///
    /// With `checkpoint = Some((endpoint, spec))`, crash-consistent slab
    /// checkpoints are committed into `spec.dir` on `endpoint` every
    /// `spec.every` slabs. With `spec.resume`, slabs already committed by
    /// an earlier (interrupted) run are loaded instead of recomputed; the
    /// resumed volume is bitwise identical to an uninterrupted run. The
    /// chaos harness arms `spec.kill_after_saves` to abort mid-run with
    /// [`ReconstructionError::Interrupted`].
    pub fn reconstruct(
        &self,
        projections: &dyn RowSource,
        checkpoint: Option<(&StorageEndpoint, &CheckpointSpec)>,
    ) -> Result<(Volume, OutOfCoreReport), ReconstructionError> {
        let g = &self.config.geometry;
        self.config.check_projections(projections)?;
        let run_start = std::time::Instant::now();

        // Filter stage (the paper's CPU-side thread), block by block.
        let pipeline = FilterPipeline::new(g, self.config.window);
        let scale = pipeline.backprojection_scale() as f32;

        let mats = ProjectionMatrix::full_scan(g);
        let decomp = self.plan();
        let blocks = RowBlocks::new(decomp.tasks(), g.np, g.nu, self.block_bytes);

        // Device-resident working set.
        let mat_buf = self.exec.alloc((g.np * 12 * 4) as u64)?;
        let window_bytes = (self.window_rows * g.np * g.nu * 4) as u64;
        let window_buf = self.exec.alloc(window_bytes)?;
        let mut window = TextureWindow::new(self.window_rows, g.np, g.nu, 0);

        // Checkpoint store (with its spec) + resume partition. `done` holds
        // indices of tasks whose slabs an earlier run already committed.
        let mut store = None;
        let mut done: Vec<usize> = Vec::new();
        if let Some((endpoint, spec)) = checkpoint {
            let s = open_store(
                endpoint,
                spec,
                config_fingerprint(&self.config, "outofcore"),
            )?;
            let ranges: Vec<(usize, usize)> = decomp
                .tasks()
                .iter()
                .map(|t| (t.z_begin, t.z_begin + t.nz()))
                .collect();
            done = resume_partition(&ranges, &s.manifest().committed_ranges()).0;
            store = Some((s, spec));
        }

        let mut out = Volume::zeros(g.nx, g.ny, g.nz);
        let mut batches = Vec::with_capacity(decomp.num_subvolumes());
        let mut kernel = KernelStats::default();
        let batches_done = self.registry.counter("ooc.batches");
        let rows_loaded = self.registry.counter("ooc.rows.loaded");
        let kernel_updates = self.registry.counter("ooc.kernel.updates");

        // Whether the previous task's rows went through the normal compute
        // path: only then does the differential `new_rows` load suffice.
        // After a resumed (skipped) task the ring buffer is stale, so the
        // next computed task reloads its full row range — back-projection
        // reads only rows inside `task.rows`, which keeps the output
        // bitwise identical to an uninterrupted run.
        let mut prev_computed = false;
        let mut pending: Vec<Volume> = Vec::new();

        for (i, task) in decomp.tasks().iter().enumerate() {
            let batch_start = std::time::Instant::now();

            if done.contains(&i) {
                let z = (task.z_begin, task.z_begin + task.nz());
                let payload = store.as_ref().unwrap().0.load_slab(z, None)?;
                out.paste_slab(&slab_from_bytes(g.nx, g.ny, z, &payload)?);
                prev_computed = false;
                batches_done.inc();
                batches.push(OocBatch {
                    index: task.index,
                    ..OocBatch::default()
                });
                continue;
            }

            let r = if prev_computed {
                task.new_rows
            } else {
                task.rows
            };
            let mut h2d_secs = 0.0;
            if !r.is_empty() {
                h2d_secs = self
                    .exec
                    .h2d(Some(window_buf.id()), (r.len() * g.np * g.nu * 4) as u64)?;
                for block in blocks.split(r) {
                    let mut rows = read_block(projections, block)?;
                    self.exec
                        .filter_stack(&pipeline, FilterChoice::default(), &mut rows)?;
                    window.write_rows(rows.data(), block.begin, block.end);
                }
            }

            let slab_bytes = (g.nx * g.ny * task.nz() * 4) as u64;
            let slab_buf = self.exec.alloc(slab_bytes)?;
            let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
            let stats =
                self.exec
                    .backproject_window(self.config.kernel, &window, &mats, &mut slab)?;
            kernel.merge(&stats);
            kernel_updates.add(stats.updates);
            let bp_secs = self.exec.launch(
                &LaunchDescriptor::backprojection(stats.updates)
                    .with_inputs(vec![mat_buf.id(), window_buf.id()])
                    .with_output(slab_buf.id()),
            )?;
            let d2h_secs = self.exec.d2h(Some(slab_buf.id()), slab_bytes)?;

            for v in slab.data_mut() {
                *v *= scale;
            }
            out.paste_slab(&slab);
            prev_computed = true;

            if let Some((store, spec)) = store.as_mut() {
                commit_slab(store, spec, &mut pending, slab)?;
            }

            batches_done.inc();
            rows_loaded.add(r.len() as u64);
            batches.push(OocBatch {
                index: task.index,
                rows_loaded: r.len(),
                h2d_secs,
                bp_secs,
                d2h_secs,
                wall_secs: batch_start.elapsed().as_secs_f64(),
            });
        }

        let report = OutOfCoreReport {
            nb: self.nb,
            window_rows: self.window_rows,
            batches,
            device: self.exec.counters(),
            kernel,
            wall_secs: run_start.elapsed().as_secs_f64(),
            metrics: self.registry.snapshot(),
        };
        Ok((out, report))
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
        let (vol, report) = rec.reconstruct(&p, None).unwrap();
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
        let (_, report) = rec.reconstruct(&p, None).unwrap();
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
        let (_, report) = rec.reconstruct(&p, None).unwrap();
        // Kernel updates = voxels × projections.
        assert_eq!(report.kernel.updates, g.voxel_updates() as u64);
        // D2H carried every slab once.
        assert_eq!(report.device.d2h_bytes, g.volume_bytes() as u64);
        assert!(report.wall_gups() > 0.0);
        assert!(report.simulated_gpu_secs() > 0.0);
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
            .reconstruct(&p, None)
            .unwrap();
        let oracle_cfg = base_cfg.with_kernel(crate::KernelChoice::Reference);
        let rec = OutOfCoreReconstructor::new(oracle_cfg).unwrap();
        assert!(rec.nb() < g.nz, "expected an actual out-of-core plan");
        let (vol, report) = rec.reconstruct(&p, None).unwrap();
        assert_eq!(vol.data(), baseline.data());
        // The deterministic slab-loop counter mirrors the merged stats.
        assert_eq!(
            report.metrics.counter("ooc.kernel.updates", None),
            Some(report.kernel.updates)
        );
        assert_eq!(report.kernel.updates, g.voxel_updates() as u64);
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
        let (vol_sim, rep_sim) = sim.reconstruct(&p, None).unwrap();
        let (vol_cpu, rep_cpu) = cpu.reconstruct(&p, None).unwrap();
        assert_eq!(vol_sim.data(), vol_cpu.data());
        // Byte/call/update counters agree; only modelled time differs.
        assert_eq!(rep_sim.device.h2d_bytes, rep_cpu.device.h2d_bytes);
        assert_eq!(rep_sim.device.d2h_bytes, rep_cpu.device.d2h_bytes);
        assert_eq!(rep_sim.device.kernel_updates, rep_cpu.device.kernel_updates);
        assert_eq!(
            rep_sim.device.kernel_launches,
            rep_cpu.device.kernel_launches
        );
        assert!(rep_sim.simulated_gpu_secs() > 0.0);
        assert_eq!(rep_cpu.simulated_gpu_secs(), 0.0);
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
        let (vol, report) = rec.reconstruct(&p, None).unwrap();
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
            let (_, report) = rec.reconstruct(&p, None).unwrap();
            (report.serial_trace().to_chrome_trace(), report.metrics)
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
        let (plain, _) = rec.reconstruct(&p, None).unwrap();
        let ep = ckpt_endpoint("clean");
        let spec = CheckpointSpec::new("ck", 1);
        let (vol, _) = rec.reconstruct(&p, Some((&ep, &spec))).unwrap();
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
        let (golden, _) = rec.reconstruct(&p, None).unwrap();

        for kill_after in [1, n_tasks / 2, n_tasks - 1] {
            let ep = ckpt_endpoint(&format!("kill{kill_after}"));
            let spec = CheckpointSpec::new("ck", 1).killing_after(kill_after);
            match rec.reconstruct(&p, Some((&ep, &spec))) {
                Err(ReconstructionError::Interrupted { completed_slabs }) => {
                    assert_eq!(completed_slabs, kill_after)
                }
                other => panic!("kill switch did not fire: {:?}", other.map(|_| ())),
            }
            let resume = CheckpointSpec::new("ck", 1).resuming();
            let (vol, report) = rec.reconstruct(&p, Some((&ep, &resume))).unwrap();
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
        let _ = rec.reconstruct(&p, Some((&ep, &spec)));
        // Same directory, different filter window: must refuse.
        let other =
            OutOfCoreReconstructor::new(cfg.with_window(crate::FilterWindow::Hann)).unwrap();
        match other.reconstruct(&p, Some((&ep, &CheckpointSpec::new("ck", 1).resuming()))) {
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
            rec.reconstruct(&bad, None),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }
}
