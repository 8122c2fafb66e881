//! The overlapped schedule of the streaming driver: Figure 9's pipeline
//! on one rank. Load, filter, back-project and store each run on their
//! own thread, joined by bounded queues, with span tracing and the
//! deterministic replay behind the Figure 10 timelines.

use std::time::Instant;

use scalefbp_geom::{ProjectionStack, RowRange, SubVolumeTask, Volume};
use scalefbp_pipeline::{BoundedQueue, PipelineModel, TraceCollector};

use crate::outofcore::{OocBatch, Sink, Stages};
use crate::ReconstructionError;

/// What the first two queues carry: a batch, the rows it loads, one
/// block of them, and on the batch's last block its load seconds.
type Block<'t> = (&'t SubVolumeTask, RowRange, ProjectionStack, Option<f64>);

/// Runs the stages of `todo` overlapped, which turns the sum of the stage
/// times into (roughly) their maximum (Figure 10), recording one
/// wall-clock span per stage and batch into `trace`. A failed stage
/// returns, and its closed queues stop the others; the run fails after
/// every stage has joined, with the most upstream error.
pub(crate) fn overlapped(
    stages: &Stages,
    todo: &[(&SubVolumeTask, RowRange)],
    sink: &mut Sink,
    trace: &TraceCollector,
) -> Result<Vec<OocBatch>, ReconstructionError> {
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_secs_f64();
    // Queues of Figure 9 (load→filter, filter→bp, bp→store). Load reads a
    // block from the page cache several times faster than the filter
    // consumes it, so a second load→filter slot buys no overlap, only one
    // more block in memory.
    let (q1_tx, q1_rx) = BoundedQueue::<Block>::new(1).split();
    let (q2_tx, q2_rx) = BoundedQueue::<Block>::new(2).split();
    let (q3_tx, q3_rx) = BoundedQueue::<(usize, Volume)>::new(2).split();
    // The filter and back-projection stages compute with the caller's
    // thread budget, as they would on the caller's own thread.
    let budget = &rayon::ThreadPoolBuilder::new()
        .num_threads(rayon::current_num_threads())
        .build()
        .expect("a thread budget always builds");

    let (upstream, bp, store) = std::thread::scope(|scope| {
        let load = scope.spawn(move || -> Result<(), ReconstructionError> {
            for &(task, rows) in todo {
                let start = now();
                let secs = stages.load(rows)?;
                let blocks = stages.blocks.split(rows);
                let n = blocks.len();
                for (i, block) in blocks.into_iter().enumerate() {
                    let block = stages.read(block)?;
                    let last = (i + 1 == n).then_some(secs);
                    if last.is_some() {
                        trace.record("load", task.index, start, now());
                    }
                    if q1_tx.push((task, rows, block, last)).is_err() {
                        return Ok(());
                    }
                }
            }
            Ok(())
        });
        let filter = scope.spawn(move || -> Result<(), ReconstructionError> {
            let mut batch_start = None;
            while let Ok((task, rows, mut block, last)) = q1_rx.pop() {
                let start = *batch_start.get_or_insert_with(now);
                budget.install(|| stages.filter(&mut block));
                if last.is_some() {
                    trace.record("filter", task.index, start, now());
                    batch_start = None;
                }
                if q2_tx.push((task, rows, block, last)).is_err() {
                    return Ok(());
                }
            }
            Ok(())
        });
        // The simulated GPU: every block goes into the ring, and the
        // batch's last block runs the back-projection.
        let bp = scope.spawn(move || -> Result<_, ReconstructionError> {
            let mut ring = stages.ring()?;
            let mut batches = Vec::with_capacity(todo.len());
            let mut batch_start = None;
            while let Ok((task, rows, block, last)) = q2_rx.pop() {
                let start = *batch_start.get_or_insert_with(now);
                ring.write(block);
                let Some(load_secs) = last else { continue };
                batch_start = None;
                let (slab, batch) =
                    budget.install(|| stages.backproject(task, rows, load_secs, &ring))?;
                batches.push(batch);
                trace.record("bp", task.index, start, now());
                if q3_tx.push((task.index, slab)).is_err() {
                    break;
                }
            }
            Ok(batches)
        });
        let store = scope.spawn(move || -> Result<(), ReconstructionError> {
            while let Ok((index, slab)) = q3_rx.pop() {
                let start = now();
                stages.store(sink, slab)?;
                trace.record("store", index, start, now());
            }
            Ok(())
        });
        ([load.join(), filter.join()], bp.join(), store.join())
    });
    for stage in upstream {
        joined(stage)?;
    }
    let batches = joined(bp)?;
    joined(store)?;
    Ok(batches)
}

/// A joined stage's result; a stage that panicked panics here.
fn joined<T>(stage: std::thread::Result<T>) -> T {
    stage.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Replays `batches` through the deterministic Figure 9 queue recurrence:
/// the threads' stage order on modelled durations, so the exported
/// timeline is reproducible. The replay queues whole batches, two deep;
/// the threads queue row blocks (one deep into the filter, two deep
/// after it). Returns the timeline and its makespan.
pub(crate) fn replay(batches: &[OocBatch]) -> (TraceCollector, f64) {
    let stage = |secs: fn(&OocBatch) -> f64| batches.iter().map(secs).collect();
    let stages = vec![
        stage(|b| b.load_secs),
        stage(|b| b.filter_secs),
        stage(|b| b.h2d_secs + b.bp_secs + b.d2h_secs),
        stage(|b| b.store_secs),
    ];
    PipelineModel::new(&["load", "filter", "bp", "store"], stages)
        .with_queue_capacity(2)
        .simulate()
}

#[cfg(test)]
mod tests {
    use crate::{fdk_reconstruct, FdkConfig, OutOfCoreReconstructor, Schedule, StreamRun};
    use scalefbp_geom::{CbctGeometry, ProjectionStack};
    use scalefbp_gpusim::DeviceSpec;
    use scalefbp_iosim::StorageEndpoint;
    use scalefbp_phantom::{forward_project, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(32, 48, 64, 56)
    }

    #[test]
    fn pipelined_matches_in_core_bitwise() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let (vol, report) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
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
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let (_, report) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
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
        assert!(report.trace.overlap_efficiency() <= 1.0 + 1e-9);

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
        let rec = OutOfCoreReconstructor::new(
            FdkConfig::new(g.clone()).with_kernel(crate::KernelChoice::Reference),
        )
        .unwrap();
        let (vol, report) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
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
        let ooc = OutOfCoreReconstructor::new(cfg.clone()).unwrap();
        let (_, ooc_report) = ooc.reconstruct(&p, Schedule::Serial).unwrap();
        let pipe = OutOfCoreReconstructor::new(cfg).unwrap();
        let (_, pipe_report) = pipe.reconstruct(&p, Schedule::Overlapped).unwrap();
        assert_eq!(pipe_report.device.h2d_bytes, ooc_report.device.h2d_bytes);
        assert_eq!(pipe_report.device.d2h_bytes, ooc_report.device.d2h_bytes);
        assert_eq!(
            pipe_report.device.kernel_updates,
            ooc_report.device.kernel_updates
        );
        // Both schedules hold the same working set on the device.
        assert_eq!(
            pipe_report.device.peak_allocated,
            ooc_report.device.peak_allocated
        );
        assert!(pipe_report.device.peak_allocated > 0);
    }

    #[test]
    fn cpu_backend_pipeline_is_bit_identical() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let rec =
            OutOfCoreReconstructor::new(FdkConfig::new(g).with_backend(crate::BackendChoice::Cpu))
                .unwrap();
        let (vol, report) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
        assert_eq!(vol.data(), reference.data());
        assert!(report.device.h2d_bytes > 0);
        assert_eq!(report.device.transfer_secs, 0.0);
        assert_eq!(report.device.kernel_secs, 0.0);
    }

    #[test]
    fn ascii_timeline_renders() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g)).unwrap();
        let (_, report) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
        let art = report.trace.render_ascii(60);
        assert!(art.contains("load"));
        assert!(art.contains("store"));
    }

    #[test]
    fn observed_run_exports_deterministic_trace_and_metrics() {
        let g = geom();
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let run = || {
            let storage = StorageEndpoint::new("pfs", 2.0e9, 1.5e9, None);
            let (_, report) = rec
                .reconstruct(
                    &p,
                    StreamRun {
                        storage: Some(&storage),
                        ..Schedule::Overlapped.into()
                    },
                )
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
        let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
        let bad = ProjectionStack::zeros(g.nv, g.np + 1, g.nu);
        assert!(matches!(
            rec.reconstruct(&bad, Schedule::Overlapped),
            Err(crate::ReconstructionError::ShapeMismatch(_))
        ));
    }
}
