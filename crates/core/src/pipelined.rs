//! The overlapped schedule of the streaming driver: Figure 9's pipeline
//! on one rank, as the deterministic replay behind the Figure 10
//! timelines. The batches run the serial slab loop (`outofcore.rs`); the
//! replay lays their modelled stage times out as the four stages would
//! overlap, each batch's filter beside the previous batch's
//! back-projection.

use scalefbp_pipeline::{PipelineModel, TraceCollector};

use crate::outofcore::OocBatch;

/// Replays `batches` through the deterministic Figure 9 queue recurrence:
/// load, filter, back-project and store as four stages joined by queues
/// of whole batches, two deep, on modelled durations, so the exported
/// timeline is reproducible. Returns the timeline and its makespan.
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
        // per stage per batch.
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
