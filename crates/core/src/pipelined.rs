//! The five-stage threaded pipeline of Figure 9, single-rank version:
//! load → filter → back-project → store, with span tracing (Figure 10).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use scalefbp_backproject::TextureWindow;
use scalefbp_exec::LaunchDescriptor;
use scalefbp_faults::{
    retry_with_backoff, BackoffPolicy, FaultInject, FaultInjector, FaultPlan, RecoveryEvent,
    RecoveryLog,
};
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, RowSource, SubVolumeTask, Volume};
use scalefbp_gpusim::DeviceCounters;
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use scalefbp_pipeline::{BoundedQueue, PipelineModel, TraceCollector};

use crate::stream::{read_block, RowBlocks, BLOCK_BYTES};
use crate::{FdkConfig, FilterChoice, OutOfCoreReconstructor, ReconstructionError};

/// Modelled host bandwidths feeding the deterministic timing model
/// (bytes/second). The wall-clock trace depends on the scheduler; the
/// model trace replays the same batches through [`PipelineModel`] with
/// these calibration constants so two runs export identical timelines.
const MODEL_HOST_LOAD_BW: f64 = 8.0e9;
const MODEL_FILTER_BW: f64 = 2.0e9;
const MODEL_STORE_BW: f64 = 6.0e9;

/// The pipeline is the single-rank driver: its device, its storage view,
/// its recovery events and its `pipeline.*` / `gpu.*` metrics are all
/// labelled rank 0.
const RANK: usize = 0;

/// Outcome statistics of a pipelined run.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Recorded stage spans (wall-clock seconds from run start).
    pub trace: TraceCollector,
    /// Deterministic model-time timeline: the same batches replayed
    /// through the Figure 9 queue recurrence with modelled stage
    /// durations. This is what `--trace-out` exports — byte-identical
    /// across runs, unlike the wall-clock `trace`.
    pub model_trace: TraceCollector,
    /// Device traffic counters.
    pub device: DeviceCounters,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Bottleneck-stage busy time over makespan (1.0 = perfectly hidden).
    pub overlap_efficiency: f64,
    /// Recovery actions taken (device/IO retries), canonically ordered.
    /// Empty for a fault-free run. Also absorbed into `trace`.
    pub recovery: Vec<RecoveryEvent>,
    /// Snapshot of every metric the run recorded (device, storage and
    /// pipeline counters) — deterministic, exported by `--metrics-out`.
    pub metrics: MetricsSnapshot,
}

/// Cached `retry.backoff.*` counter handles shared by every transient
/// retry loop of a run: total retry attempts and the accumulated
/// deterministic model backoff delay (accounted, never slept).
struct RetryCounters {
    attempts: Counter,
    delay_millis: Counter,
}

impl RetryCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        RetryCounters {
            attempts: registry.counter("retry.backoff.attempts"),
            delay_millis: registry.counter("retry.backoff.delay_millis"),
        }
    }

    fn on_retry(&self, delay_millis: u64) {
        self.attempts.inc();
        self.delay_millis.add(delay_millis);
    }
}

/// Runs one modelled device transfer or storage read under the shared
/// [`BackoffPolicy::transient`] budget, recording each retry as
/// `event(attempt)`. Injected faults are one-shot per scheduled
/// operation, so a retry normally succeeds on the second attempt; a plan
/// that fails every attempt gets the last attempt's error back.
fn with_retry<E>(
    recovery: &RecoveryLog,
    retries: &RetryCounters,
    event: impl Fn(u32) -> RecoveryEvent,
    op: impl FnMut(u32) -> Result<f64, E>,
) -> Result<f64, E> {
    retry_with_backoff(BackoffPolicy::transient(), op, |attempt, delay, _e| {
        retries.on_retry(delay);
        recovery.record(event(attempt));
    })
}

/// The recovery event of a retried device transfer.
fn device_retry(op: &'static str) -> impl Fn(u32) -> RecoveryEvent {
    move |attempt| RecoveryEvent::DeviceRetry {
        rank: RANK,
        op: op.to_string(),
        attempt,
    }
}

/// The end-to-end threaded pipeline (Figure 9): one thread per stage,
/// bounded FIFO queues between stages, the same streaming plan as
/// [`OutOfCoreReconstructor`] — but with loading, filtering,
/// back-projection and storing overlapped, which is what turns the sum of
/// stage times into (roughly) their maximum (Figure 10).
pub struct PipelinedReconstructor {
    config: FdkConfig,
    nb: usize,
    window_rows: usize,
    /// Bytes per row block read from the source ([`BLOCK_BYTES`]; the
    /// stream tests shrink it to cut batches into several blocks).
    pub(crate) block_bytes: usize,
}

/// What the stage queues carry: a batch, one block of its new rows, and
/// whether that block is the batch's last.
type Block = (SubVolumeTask, ProjectionStack, bool);

impl PipelinedReconstructor {
    /// Plans the pipeline (same working-set planning as the out-of-core
    /// reconstructor).
    pub fn new(config: FdkConfig) -> Result<Self, ReconstructionError> {
        let planner = OutOfCoreReconstructor::new(config.clone())?;
        Ok(PipelinedReconstructor {
            nb: planner.nb(),
            window_rows: planner.window_rows(),
            config,
            block_bytes: BLOCK_BYTES,
        })
    }

    /// Slab thickness per batch.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Runs the pipelined reconstruction. Numerically identical to
    /// [`crate::fdk_reconstruct_configured`] (same kernels, same order),
    /// just overlapped across threads.
    ///
    /// The load stage reads each batch's new detector rows from
    /// `projections` in blocks; a block travels load → filter → ring and
    /// is dropped once it is in the ring, so the run holds the ring plus
    /// a few blocks, never the scan. A failed read returns
    /// [`ReconstructionError::Input`] after every stage thread has joined.
    ///
    /// The simulated device and the optional `storage` endpoint (the
    /// modelled source of the load stage) consult `plan`'s injector, and
    /// every injected transfer/OOM/read error is retried — each retry
    /// lands in the report's [`RecoveryLog`]-backed `recovery` list and in
    /// the trace. With `FaultPlan::none()` this is exactly the fault-free
    /// path, so recovered runs compare bit-for-bit against it. Storage
    /// reads and device transfers are modelled once per batch, whatever
    /// its number of blocks. A plan that outlasts the retry budget makes
    /// the run return [`ReconstructionError::Device`] (transfers) or
    /// [`ReconstructionError::Input`] (storage reads), like a failed read,
    /// after every stage thread has joined.
    ///
    /// The report's `metrics` snapshot carries the device's `gpu.*` and
    /// the pipeline's `pipeline.*` counters; with `storage` they are
    /// recorded into the endpoint's own registry, so its `io.*` traffic
    /// lands in the same snapshot.
    pub fn reconstruct(
        &self,
        projections: &dyn RowSource,
        plan: &FaultPlan,
        storage: Option<&StorageEndpoint>,
    ) -> Result<(Volume, PipelineReport), ReconstructionError> {
        let g = &self.config.geometry;
        self.config.check_projections(projections)?;
        let registry = storage.map_or_else(MetricsRegistry::new, |s| s.metrics_registry().clone());

        let injector = FaultInjector::new(plan.clone());
        let recovery = RecoveryLog::new();
        let exec = self.config.build_executor(
            injector.clone() as Arc<dyn FaultInject>,
            RANK,
            registry.clone(),
        );
        let storage =
            storage.map(|s| s.with_fault_injector(injector as Arc<dyn FaultInject>, RANK));
        let filter = FilterPipeline::new(g, self.config.window);
        let scale = filter.backprojection_scale() as f32;
        let mats = ProjectionMatrix::full_scan(g);
        let decomp = scalefbp_geom::VolumeDecomposition::full(g, self.nb);
        let tasks: Vec<SubVolumeTask> = decomp.tasks().to_vec();
        let blocks = RowBlocks::new(&tasks, g.np, g.nu, self.block_bytes);

        let trace = TraceCollector::new();
        let t0 = Instant::now();
        let now = move || t0.elapsed().as_secs_f64();

        let retry_counters = RetryCounters::new(&registry);
        let batches_done = registry.rank_counter("pipeline.batches", RANK);
        let rows_loaded = registry.rank_counter("pipeline.rows.loaded", RANK);
        let kernel_updates = registry.rank_counter("pipeline.kernel.updates", RANK);
        // Modelled per-batch stage durations (seconds), indexed by
        // `task.index`; replayed through the DES after the threads join.
        let model_secs = Mutex::new(vec![[0.0f64; 4]; tasks.len()]);

        // Queues of Figure 9 (load→filter, filter→bp, bp→store). Load
        // reads a block from the page cache several times faster than the
        // filter consumes it, so a second load→filter slot buys no
        // overlap, only one more block in memory.
        let (q1_tx, q1_rx) = BoundedQueue::<Block>::new(1).split();
        let (q2_tx, q2_rx) = BoundedQueue::<Block>::new(2).split();
        let (q3_tx, q3_rx) = BoundedQueue::<Volume>::new(2).split();

        let mut out = Volume::zeros(g.nx, g.ny, g.nz);
        // The filter and back-projection stages compute with the caller's
        // thread budget, as they would on the caller's own thread.
        let stage_budget = &rayon::ThreadPoolBuilder::new()
            .num_threads(rayon::current_num_threads())
            .build()
            .expect("a thread budget always builds");

        let stages = std::thread::scope(|scope| {
            // Load thread: reads each batch's *differential* rows, block
            // by block. On a failed read it stops; the closed queue then
            // drains every later stage.
            let load_trace = trace.clone();
            let load_storage = storage.clone();
            let load_recovery = &recovery;
            let load_retries = &retry_counters;
            let load_model = &model_secs;
            let load_tasks = &tasks;
            let load = scope.spawn(move || -> Result<(), ReconstructionError> {
                for task in load_tasks {
                    let start = now();
                    let r = task.new_rows;
                    let bytes = (r.len() * g.np * g.nu * 4) as u64;
                    let secs = if let Some(st) = &load_storage {
                        // Model (and fault-inject) the read from storage.
                        let retry = |attempt| RecoveryEvent::IoRetry {
                            rank: RANK,
                            what: "projection batch".to_string(),
                            attempt,
                        };
                        with_retry(load_recovery, load_retries, retry, |_| {
                            st.try_record_read(bytes)
                        })
                        .map_err(|e| {
                            ReconstructionError::Input(format!("projection batch read: {e}"))
                        })?
                    } else {
                        bytes as f64 / MODEL_HOST_LOAD_BW
                    };
                    rows_loaded.add(r.len() as u64);
                    load_model.lock().unwrap()[task.index][0] = secs;
                    let parts = blocks.split(r);
                    let n = parts.len();
                    for (i, part) in parts.into_iter().enumerate() {
                        let rows = read_block(projections, part)?;
                        let last = i + 1 == n;
                        if last {
                            load_trace.record("load", task.index, start, now());
                        }
                        if q1_tx.push((task.clone(), rows, last)).is_err() {
                            return Ok(());
                        }
                    }
                }
                Ok(())
            });

            // Filter thread (CPU, Equation 2).
            let filter_trace = trace.clone();
            let filter_ref = &filter;
            let filter_exec = Arc::clone(&exec);
            let filter_model = &model_secs;
            let filter_stage = scope.spawn(move || -> Result<(), ReconstructionError> {
                let mut batch_start = None;
                while let Ok((task, mut rows, last)) = q1_rx.pop() {
                    let start = *batch_start.get_or_insert_with(now);
                    stage_budget.install(|| {
                        filter_exec.filter_stack(filter_ref, FilterChoice::default(), &mut rows)
                    })?;
                    if last {
                        let bytes = (task.new_rows.len() * g.np * g.nu * 4) as f64;
                        filter_model.lock().unwrap()[task.index][1] = bytes / MODEL_FILTER_BW;
                        filter_trace.record("filter", task.index, start, now());
                        batch_start = None;
                    }
                    if q2_tx.push((task, rows, last)).is_err() {
                        return Ok(());
                    }
                }
                Ok(())
            });

            // Back-projection thread (the simulated GPU): every block goes
            // into the ring and is dropped; the batch's last block runs
            // the transfers and the kernel.
            let bp_trace = trace.clone();
            let bp_exec = Arc::clone(&exec);
            let bp_recovery = &recovery;
            let bp_retries = &retry_counters;
            let mats_ref = &mats;
            let window_rows = self.window_rows;
            let kernel_choice = self.config.kernel;
            let bp_model = &model_secs;
            let bp_stage = scope.spawn(move || -> Result<(), ReconstructionError> {
                let mut tex = TextureWindow::new(window_rows, g.np, g.nu, 0);
                let mut batch_start = None;
                while let Ok((task, rows, last)) = q2_rx.pop() {
                    let start = *batch_start.get_or_insert_with(now);
                    if rows.nv() > 0 {
                        let v = rows.v_offset();
                        tex.write_rows(rows.data(), v, v + rows.nv());
                    }
                    drop(rows);
                    if !last {
                        continue;
                    }
                    batch_start = None;
                    let r = task.new_rows;
                    let mut device_secs = 0.0;
                    if !r.is_empty() {
                        let bytes = (r.len() * g.np * g.nu * 4) as u64;
                        device_secs +=
                            with_retry(bp_recovery, bp_retries, device_retry("h2d"), |_| {
                                bp_exec.h2d(None, bytes)
                            })?;
                    }
                    let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
                    let stats = stage_budget.install(|| {
                        bp_exec.backproject_window(kernel_choice, &tex, mats_ref, &mut slab)
                    })?;
                    kernel_updates.add(stats.updates);
                    device_secs +=
                        bp_exec.launch(&LaunchDescriptor::backprojection(stats.updates))?;
                    let bytes = (slab.len() * 4) as u64;
                    device_secs +=
                        with_retry(bp_recovery, bp_retries, device_retry("d2h"), |_| {
                            bp_exec.d2h(None, bytes)
                        })?;
                    for v in slab.data_mut() {
                        *v *= scale;
                    }
                    bp_model.lock().unwrap()[task.index][2] = device_secs;
                    batches_done.inc();
                    bp_trace.record("bp", task.index, start, now());
                    if q3_tx.push(slab).is_err() {
                        return Ok(());
                    }
                }
                Ok(())
            });

            // Store thread: assembles the output volume.
            let store_trace = trace.clone();
            let out_ref = &mut out;
            let store_model = &model_secs;
            scope.spawn(move || {
                let mut item = 0usize;
                while let Ok(slab) = q3_rx.pop() {
                    let start = now();
                    store_model.lock().unwrap()[item][3] = (slab.len() * 4) as f64 / MODEL_STORE_BW;
                    out_ref.paste_slab(&slab);
                    store_trace.record("store", item, start, now());
                    item += 1;
                }
            });

            // A failed stage returns, and its closed queues stop the
            // others; the run fails after every stage has joined, with the
            // most upstream error.
            [load.join(), filter_stage.join(), bp_stage.join()]
        });
        for joined in stages {
            joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        }

        // Replay the batches through the deterministic queue recurrence:
        // the real threads' stage order on modelled durations, so the
        // exported timeline is reproducible. The replay queues whole
        // batches, two deep; the threads queue row blocks (one deep into
        // the filter, two deep after it).
        let durations = model_secs.into_inner().unwrap();
        let stage_rows: Vec<Vec<f64>> = (0..4)
            .map(|s| durations.iter().map(|d| d[s]).collect())
            .collect();
        let (model_trace, model_makespan) =
            PipelineModel::new(&["load", "filter", "bp", "store"], stage_rows)
                .with_queue_capacity(2)
                .simulate();
        model_trace.absorb_recovery_log(&recovery);
        registry
            .rank_gauge("pipeline.model.makespan_secs", RANK)
            .set(model_makespan);

        trace.absorb_recovery_log(&recovery);
        let report = PipelineReport {
            overlap_efficiency: trace.overlap_efficiency(),
            trace,
            model_trace,
            device: exec.counters(),
            wall_secs: t0.elapsed().as_secs_f64(),
            recovery: recovery.events(),
            metrics: registry.snapshot(),
        };
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdk_reconstruct;
    use scalefbp_geom::CbctGeometry;
    use scalefbp_gpusim::DeviceSpec;
    use scalefbp_phantom::{forward_project, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(32, 48, 64, 56)
    }

    #[test]
    fn pipelined_matches_in_core_bitwise() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let rec = PipelinedReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let (vol, report) = rec.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        assert_eq!(vol.data(), reference.data());
        assert!(report.wall_secs > 0.0);
        // All four stages ran for every batch.
        let spans = report.trace.spans();
        let batches = g.nz.div_ceil(rec.nb());
        for stage in ["load", "filter", "bp", "store"] {
            let count = spans.iter().filter(|s| s.stage == stage).count();
            assert_eq!(count, batches, "stage {stage}");
        }
    }

    #[test]
    fn stages_overlap_in_wall_time() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let rec = PipelinedReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let (_, report) = rec.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        let batches = g.nz.div_ceil(rec.nb());
        assert!(batches > 1, "test needs an actual multi-batch plan");

        // Overlap as a quantity is asserted on the deterministic model
        // timeline: the serialised sum of stage busy times exceeds the
        // makespan. Wall-clock durations depend on what else the machine
        // is running, so no margin is asserted on them.
        let model = &report.model_trace;
        let total_busy: f64 = model.stages().iter().map(|s| model.stage_busy(s)).sum();
        assert!(
            total_busy > model.makespan() * 1.05,
            "no modelled overlap: busy {total_busy} vs makespan {}",
            model.makespan()
        );
        assert!(report.overlap_efficiency <= 1.0 + 1e-9);

        // The wall-clock trace is checked for structure only: one span
        // per stage per batch, and the filter thread picked up some
        // batch k+1 before the bp thread finished batch k.
        let spans = report.trace.spans();
        for stage in ["load", "filter", "bp", "store"] {
            let mut items: Vec<usize> = spans
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| s.item)
                .collect();
            items.sort_unstable();
            assert_eq!(
                items,
                (0..batches).collect::<Vec<_>>(),
                "stage {stage}: want one span per batch"
            );
        }
        let span = |stage: &str, item: usize| {
            spans
                .iter()
                .find(|s| s.stage == stage && s.item == item)
                .expect("checked above")
        };
        assert!(
            (0..batches - 1).any(|k| span("filter", k + 1).start < span("bp", k).end),
            "filter never ran ahead of back-projection: {spans:?}"
        );
    }

    #[test]
    fn reference_kernel_pipeline_is_bit_identical() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let baseline = fdk_reconstruct(&g, &p).unwrap();
        let rec = PipelinedReconstructor::new(
            FdkConfig::new(g.clone()).with_kernel(crate::KernelChoice::Reference),
        )
        .unwrap();
        let (vol, report) = rec.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        assert_eq!(vol.data(), baseline.data());
        // The rank-0 kernel counter saw every update exactly once.
        assert_eq!(
            report.metrics.counter("pipeline.kernel.updates", Some(0)),
            Some(g.voxel_updates() as u64)
        );
    }

    #[test]
    fn device_counters_match_out_of_core_path() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let cfg = FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(
            (g.projection_bytes() + g.volume_bytes()) as u64 / 2,
        ));
        let ooc = crate::OutOfCoreReconstructor::new(cfg.clone()).unwrap();
        let (_, ooc_report) = ooc.reconstruct(&p, None).unwrap();
        let pipe = PipelinedReconstructor::new(cfg).unwrap();
        let (_, pipe_report) = pipe.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        assert_eq!(pipe_report.device.h2d_bytes, ooc_report.device.h2d_bytes);
        assert_eq!(pipe_report.device.d2h_bytes, ooc_report.device.d2h_bytes);
        assert_eq!(
            pipe_report.device.kernel_updates,
            ooc_report.device.kernel_updates
        );
    }

    #[test]
    fn cpu_backend_pipeline_is_bit_identical() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let rec =
            PipelinedReconstructor::new(FdkConfig::new(g).with_backend(crate::BackendChoice::Cpu))
                .unwrap();
        let (vol, report) = rec.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        assert_eq!(vol.data(), reference.data());
        assert!(report.device.h2d_bytes > 0);
        assert_eq!(report.device.transfer_secs, 0.0);
        assert_eq!(report.device.kernel_secs, 0.0);
    }

    #[test]
    fn ascii_timeline_renders() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let rec = PipelinedReconstructor::new(FdkConfig::new(g)).unwrap();
        let (_, report) = rec.reconstruct(&p, &FaultPlan::none(), None).unwrap();
        let art = report.trace.render_ascii(60);
        assert!(art.contains("load"));
        assert!(art.contains("store"));
    }

    #[test]
    fn observed_run_exports_deterministic_trace_and_metrics() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let rec = PipelinedReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let run = || {
            let storage = StorageEndpoint::new("pfs", 2.0e9, 1.5e9, None);
            let (_, report) = rec
                .reconstruct(&p, &FaultPlan::none(), Some(&storage))
                .unwrap();
            (report.model_trace.to_chrome_trace(), report.metrics)
        };
        let (trace_a, metrics_a) = run();
        let (trace_b, metrics_b) = run();
        // Byte-identical across runs: the model trace and the snapshot
        // depend only on the inputs, never on thread scheduling.
        assert_eq!(trace_a, trace_b);
        assert_eq!(metrics_a.to_json(), metrics_b.to_json());
        let summary = scalefbp_obs::validate_chrome_trace(&trace_a).unwrap();
        assert!(summary.spans > 0);
        scalefbp_obs::validate_metrics_json(&metrics_a.to_json()).unwrap();
        // One snapshot carries pipeline, device and storage traffic.
        let batches = g.nz.div_ceil(rec.nb()) as u64;
        assert_eq!(
            metrics_a.counter("pipeline.batches", Some(0)),
            Some(batches)
        );
        assert!(metrics_a.counter("gpu.d2h.bytes", Some(0)).unwrap() > 0);
        assert!(metrics_a.counter("io.pfs.read.bytes", None).unwrap() > 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = geom();
        let rec = PipelinedReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let bad = ProjectionStack::zeros(g.nv, g.np + 1, g.nu);
        assert!(matches!(
            rec.reconstruct(&bad, &FaultPlan::none(), None),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }
}
