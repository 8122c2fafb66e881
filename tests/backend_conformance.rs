//! Cross-backend conformance suite for the device's two cost models
//! (`sim` modelled, `cpu` counted; see docs/backends.md).
//!
//! Two contracts, asserted over a differential grid of
//! backend × kernel × driver cells (including the out-of-core and
//! checkpoint/resume drivers):
//!
//! 1. **Numerics** — the `sim` and `cpu` backends produce bitwise
//!    identical volumes in every cell, and both match the direct call
//!    path (filter pipeline + the oracle kernel, no executor).
//! 2. **Accounting invariance** — the `sim` backend reproduces the
//!    pre-refactor `gpusim` charges exactly: golden `gpu.*` counter and
//!    modelled-seconds snapshots captured *before* the executor refactor
//!    are pinned bit for bit, as are the `PerfModel` charges.
//!
//! Cross-backend metric snapshots are compared with
//! [`TIME_DOMAIN_METRICS`] excluded — modelled time is the *only*
//! legitimate difference between the computing backends (see
//! docs/backends.md).

use proptest::prelude::*;

use scalefbp::substrates::phantom::{forward_project, uniform_ball};
use scalefbp::{
    fault_tolerant_reconstruct, fdk_reconstruct, fdk_reconstruct_configured, BackendChoice,
    CbctGeometry, CheckpointSpec, DeviceSpec, FdkConfig, KernelChoice, MetricsSnapshot,
    OutOfCoreReconstructor, RankLayout, ReconstructionError, ReduceMode, Schedule, StreamRun,
    Volume,
};
use scalefbp_backproject::backproject_reference;
use scalefbp_exec::TIME_DOMAIN_METRICS;
use scalefbp_faults::FaultPlan;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack};
use scalefbp_integration::testsupport::{
    assert_bitwise, assert_snapshots_match, resumed_slabs, scratch_endpoint, SimdEnvGuard,
};

/// Serialises the tests that spawn rank worlds: failure detection is
/// timeout-based, so a machine saturated by a sibling test could turn a
/// live rank into a spurious "dead" verdict.
static WORLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The canonical golden workload: the geometry/phantom pair whose
/// pre-refactor counters and volume fingerprints are pinned below.
fn golden_scan() -> (CbctGeometry, ProjectionStack) {
    let g = CbctGeometry::ideal(32, 48, 64, 56);
    let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
    (g, p)
}

/// The tiny device that forces the golden workload out of core
/// (multi-slab, windowed rows).
fn golden_device(g: &CbctGeometry) -> DeviceSpec {
    DeviceSpec::tiny((g.projection_bytes() + g.volume_bytes()) as u64 / 3)
}

/// FNV-1a over the volume's f32 little-endian bytes: the compact
/// fingerprint the pre-refactor golden volumes were captured with.
fn fnv(v: &Volume) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for x in v.data() {
        for b in x.to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// The direct call path: filter pipeline plus the oracle kernel, no
/// executor anywhere — the reference every (backend, kernel) cell must
/// reproduce.
fn direct_reconstruct(geom: &CbctGeometry, projections: &ProjectionStack) -> Volume {
    let pipeline = FilterPipeline::new(geom, scalefbp::FilterWindow::RamLak);
    let mut filtered = projections.clone();
    pipeline.filter_stack(&mut filtered);
    let mats = ProjectionMatrix::full_scan(geom);
    let mut vol = Volume::zeros(geom.nx, geom.ny, geom.nz);
    backproject_reference(&filtered, &mats, &mut vol);
    let scale = pipeline.backprojection_scale() as f32;
    for v in vol.data_mut() {
        *v *= scale;
    }
    vol
}

// ---------------------------------------------------------------------
// The differential grid: backend × kernel × driver.
// ---------------------------------------------------------------------

/// In-core cells: every kernel is bitwise identical across the
/// computing backends *and* to the direct path.
#[test]
fn incore_grid_is_bitwise_identical_across_backends() {
    // SIMD kernels read `SCALEFBP_SIMD` per call: pin the ambient state
    // so a concurrent override cannot flip a cell mid-grid.
    let _env = SimdEnvGuard::cleared();
    let g = CbctGeometry::ideal(16, 24, 24, 24);
    let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
    let direct = direct_reconstruct(&g, &p);
    for kernel in KernelChoice::ALL {
        for backend in BackendChoice::ALL {
            let cfg = FdkConfig::new(g.clone())
                .with_kernel(kernel)
                .with_backend(backend);
            let got = fdk_reconstruct_configured(&cfg, &p, None).unwrap();
            assert_bitwise(&direct, &got, &format!("incore {backend}/{kernel}"));
        }
    }
}

/// Out-of-core cells: same plan (`N_b`, window height), bitwise
/// volumes, equal byte/call/update counters, and metric snapshots equal
/// outside the time domain. The cpu backend must model zero time.
#[test]
fn outofcore_grid_matches_across_backends_and_kernels() {
    let _env = SimdEnvGuard::cleared();
    let (g, p) = golden_scan();
    for kernel in KernelChoice::ALL {
        let mut runs = Vec::new();
        for backend in BackendChoice::ALL {
            let cfg = FdkConfig::new(g.clone())
                .with_device(golden_device(&g))
                .with_kernel(kernel)
                .with_backend(backend);
            let rec = OutOfCoreReconstructor::new(cfg).unwrap();
            runs.push(rec.reconstruct(&p, Schedule::Serial).unwrap());
        }
        let (sim_vol, sim_rep) = &runs[0];
        let (cpu_vol, cpu_rep) = &runs[1];
        assert_bitwise(sim_vol, cpu_vol, &format!("outofcore {kernel}"));
        assert_eq!(
            (sim_rep.nb, sim_rep.window_rows),
            (cpu_rep.nb, cpu_rep.window_rows)
        );
        let (s, c) = (&sim_rep.device, &cpu_rep.device);
        assert_eq!(
            (s.h2d_bytes, s.d2h_bytes, s.h2d_calls, s.d2h_calls),
            (c.h2d_bytes, c.d2h_bytes, c.h2d_calls, c.d2h_calls)
        );
        assert_eq!(
            (s.kernel_updates, s.kernel_launches, s.peak_allocated),
            (c.kernel_updates, c.kernel_launches, c.peak_allocated)
        );
        assert!(
            s.transfer_secs > 0.0 && s.kernel_secs > 0.0,
            "sim models time"
        );
        assert_eq!(
            (c.transfer_secs, c.kernel_secs),
            (0.0, 0.0),
            "cpu models none"
        );
        assert_snapshots_match(
            &sim_rep.metrics,
            &cpu_rep.metrics,
            TIME_DOMAIN_METRICS,
            &format!("outofcore {kernel} snapshots"),
        );
    }
}

/// Pipelined-driver cells: the four-thread pipeline is bitwise
/// identical and snapshot-equal (modulo modelled time) across backends.
#[test]
fn pipelined_driver_matches_across_backends() {
    let (g, p) = golden_scan();
    let mut runs = Vec::new();
    for backend in BackendChoice::ALL {
        let cfg = FdkConfig::new(g.clone()).with_backend(backend);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        runs.push(rec.reconstruct(&p, Schedule::Overlapped).unwrap());
    }
    let (sim_vol, sim_rep) = &runs[0];
    let (cpu_vol, cpu_rep) = &runs[1];
    assert_bitwise(sim_vol, cpu_vol, "pipelined driver");
    assert_eq!(sim_rep.device.h2d_bytes, cpu_rep.device.h2d_bytes);
    assert_eq!(
        sim_rep.device.kernel_launches,
        cpu_rep.device.kernel_launches
    );
    assert_eq!(cpu_rep.device.transfer_secs, 0.0);
    assert_snapshots_match(
        &sim_rep.metrics,
        &cpu_rep.metrics,
        TIME_DOMAIN_METRICS,
        "pipelined snapshots",
    );
}

/// Distributed cells: rank worlds on both backends produce bitwise
/// identical volumes and identical snapshots in every reduce mode — the
/// protocol records no `gpu.*` metrics, so nothing is excluded here
/// beyond the time domain.
#[test]
fn distributed_driver_matches_across_backends() {
    let _serial = WORLD_LOCK.lock().unwrap();
    let g = CbctGeometry::ideal(16, 16, 24, 20);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    for mode in ReduceMode::ALL {
        let outs = BackendChoice::ALL.map(|backend| {
            let cfg = FdkConfig::new(g.clone())
                .with_nc(2)
                .with_reduce_mode(mode)
                .with_backend(backend);
            let layout = RankLayout::new(2, 2, 2);
            fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None).unwrap()
        });
        assert_bitwise(
            &outs[0].volume,
            &outs[1].volume,
            &format!("distributed {mode}"),
        );
        assert_snapshots_match(
            &outs[0].metrics,
            &outs[1].metrics,
            TIME_DOMAIN_METRICS,
            &format!("distributed {mode} snapshots"),
        );
    }
}

/// Checkpoint/resume cells: a run killed mid-stream on either backend
/// resumes to the uninterrupted `sim` volume bit for bit, actually
/// loading (not recomputing) the checkpointed slabs.
#[test]
fn checkpoint_resume_is_bitwise_identical_on_both_backends() {
    let (g, p) = golden_scan();
    let golden = {
        let cfg = FdkConfig::new(g.clone()).with_device(golden_device(&g));
        OutOfCoreReconstructor::new(cfg)
            .unwrap()
            .reconstruct(&p, Schedule::Serial)
            .unwrap()
    };
    let slabs = golden.1.batches.len();
    let k = (slabs / 2).max(1);
    for backend in BackendChoice::ALL {
        let cfg = FdkConfig::new(g.clone())
            .with_device(golden_device(&g))
            .with_backend(backend);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let ep = scratch_endpoint(&format!("backend-ckpt-{backend}"));
        let kill = CheckpointSpec::new("", 1).killing_after(k);
        match rec.reconstruct(
            &p,
            StreamRun {
                checkpoint: Some((&ep, &kill)),
                ..Schedule::Serial.into()
            },
        ) {
            Err(ReconstructionError::Interrupted { completed_slabs }) => {
                assert_eq!(completed_slabs, k)
            }
            other => panic!("expected Interrupted, got {:?}", other.map(|_| ())),
        }
        let resume = CheckpointSpec::new("", 1).resuming();
        let (resumed, _) = rec
            .reconstruct(
                &p,
                StreamRun {
                    checkpoint: Some((&ep, &resume)),
                    ..Schedule::Serial.into()
                },
            )
            .unwrap();
        assert_bitwise(&golden.0, &resumed, &format!("ckpt resume on {backend}"));
        assert_eq!(
            resumed_slabs(&ep),
            k as u64,
            "{backend} must load, not recompute"
        );
    }
}

/// Device-fault cells: one plan that fails an allocation, two transfers
/// and slows the kernel fires at the same operations on both cost models
/// and under both schedules. Every run logs the same recoveries, writes
/// the fault-free volume, and the backends' snapshots agree outside the
/// time domain.
#[test]
fn device_faults_recover_identically_on_both_backends() {
    let (g, p) = golden_scan();
    let plan = FaultPlan::parse(
        "rank 0 device-alloc op 0 device-oom\n\
         rank 0 device-transfer op 1 transfer-error\n\
         rank 0 device-transfer op 4 transfer-error\n\
         rank 0 compute op 0 slow:3:0",
    )
    .unwrap();
    let cfg = FdkConfig::new(g.clone()).with_device(golden_device(&g));
    let (clean, _) = OutOfCoreReconstructor::new(cfg.clone())
        .unwrap()
        .reconstruct(&p, Schedule::Serial)
        .unwrap();
    let mut logs = Vec::new();
    for schedule in [Schedule::Serial, Schedule::Overlapped] {
        let runs = BackendChoice::ALL.map(|backend| {
            let rec = OutOfCoreReconstructor::new(cfg.clone().with_backend(backend)).unwrap();
            let run = StreamRun {
                faults: Some(&plan),
                ..schedule.into()
            };
            let (vol, rep) = rec.reconstruct(&p, run).unwrap();
            assert_bitwise(
                &clean,
                &vol,
                &format!("{schedule:?} {backend} under faults"),
            );
            logs.push((schedule, backend, rep.recovery.clone()));
            rep.metrics
        });
        assert_snapshots_match(
            &runs[0],
            &runs[1],
            TIME_DOMAIN_METRICS,
            &format!("{schedule:?} snapshots under faults"),
        );
    }
    let (_, _, first) = &logs[0];
    assert_eq!(
        first.len(),
        3,
        "one alloc and two transfer retries: {first:?}"
    );
    for (schedule, backend, log) in &logs {
        assert_eq!(log, first, "{schedule:?} {backend} recovery log");
    }
}

// ---------------------------------------------------------------------
// Golden pins: sim accounting is invariant under the refactor. Every
// number below was captured from a pre-refactor run of the same
// workload (raw `gpusim::Device` calls inline in the drivers).
// ---------------------------------------------------------------------

/// Out-of-core golden: plan, traffic, modelled seconds (exact bits),
/// `gpu.*`/`ooc.*` metric values, and the volume fingerprint.
#[test]
fn ooc_sim_accounting_matches_pre_refactor_golden() {
    let (g, p) = golden_scan();
    let cfg = FdkConfig::new(g.clone()).with_device(golden_device(&g));
    let rec = OutOfCoreReconstructor::new(cfg).unwrap();
    let (vol, rep) = rec.reconstruct(&p, Schedule::Serial).unwrap();

    assert_eq!((rep.nb, rep.window_rows), (4, 13), "plan");
    let d = &rep.device;
    assert_eq!(d.h2d_bytes, 663_552);
    assert_eq!(d.d2h_bytes, 131_072);
    assert_eq!((d.h2d_calls, d.d2h_calls), (8, 8));
    assert_eq!(d.kernel_updates, 1_572_864);
    assert_eq!(d.kernel_launches, 8);
    assert_eq!(d.peak_allocated, 178_432);
    assert_eq!(
        d.transfer_secs.to_bits(),
        0x3f3a_09ca_0bda_dd3a,
        "transfer secs"
    );
    assert_eq!(
        d.kernel_secs.to_bits(),
        0x3f24_9da7_e361_ce4c,
        "kernel secs"
    );

    let m = &rep.metrics;
    assert_eq!(m.counter("ooc.batches", None), Some(8));
    assert_eq!(m.counter("ooc.rows.loaded", None), Some(54));
    assert_eq!(m.counter("gpu.h2d.bytes", Some(0)), Some(663_552));
    assert_eq!(m.counter("gpu.d2h.bytes", Some(0)), Some(131_072));
    assert_eq!(m.counter("gpu.kernel.updates", Some(0)), Some(1_572_864));
    assert_eq!(m.counter("gpu.kernel.flops", Some(0)), Some(66_060_288));
    assert_eq!(m.counter("gpu.transfer.nanos", Some(0)), Some(397_312));
    assert_eq!(m.counter("gpu.kernel.nanos", Some(0)), Some(157_288));

    assert_eq!(fnv(&vol), 0xdca9_a5ea, "volume fingerprint");
}

/// Pipelined golden: the four-thread driver's device charges and batch
/// count, plus the volume fingerprint (bitwise equal to out-of-core).
#[test]
fn pipeline_sim_accounting_matches_pre_refactor_golden() {
    let (g, p) = golden_scan();
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g)).unwrap();
    let (vol, rep) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();

    let d = &rep.device;
    assert_eq!(d.h2d_bytes, 663_552);
    assert_eq!(d.d2h_bytes, 131_072);
    assert_eq!((d.h2d_calls, d.d2h_calls), (8, 8));
    assert_eq!(d.kernel_updates, 1_572_864);
    assert_eq!(d.kernel_launches, 8);
    assert_eq!(
        d.transfer_secs.to_bits(),
        0x3f11_5bdc_07e7_3e25,
        "transfer secs"
    );
    assert_eq!(
        d.kernel_secs.to_bits(),
        0x3eec_aed3_529e_56ae,
        "kernel secs"
    );
    assert_eq!(rep.metrics.counter("pipeline.batches", Some(0)), Some(8));
    assert_eq!(fnv(&vol), 0xdca9_a5ea, "volume fingerprint");
}

/// In-core golden: the default configured path still produces the
/// pre-refactor bits.
#[test]
fn incore_default_volume_matches_pre_refactor_golden() {
    let (g, p) = golden_scan();
    let vol = fdk_reconstruct_configured(&FdkConfig::new(g), &p, None).unwrap();
    assert_eq!(fnv(&vol), 0xdca9_a5ea, "volume fingerprint");
}

/// The analytic performance model is untouched by the refactor: Eq 17's
/// projected runtime and GUPS for a paper-scale shape, exact bits.
#[test]
fn perfmodel_charges_are_unchanged() {
    use scalefbp_perfmodel::{MachineParams, PerfModel, RunShape};
    let model = PerfModel::new(MachineParams::abci_v100());
    let shape = RunShape {
        geom: CbctGeometry::ideal(256, 512, 512, 512),
        layout: RankLayout::new(4, 8, 8),
    };
    assert_eq!(
        model.runtime(&shape, ReduceMode::default()).to_bits(),
        0x3fc1_f271_43fd_1ab7,
        "runtime"
    );
    assert_eq!(
        model.gups(&shape, ReduceMode::default()).to_bits(),
        0x404e_a1d2_4675_635e,
        "gups"
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random (shape, kernel, backend) cells: the configured path agrees
    /// bitwise with the direct call path on both computing backends; with
    /// the default kernel it also matches the plain `fdk_reconstruct`
    /// quickstart path.
    #[test]
    fn random_cells_match_the_direct_path(
        n in 4usize..10,
        np_extra in 0usize..6,
        kernel_idx in 0usize..KernelChoice::ALL.len(),
    ) {
        let _env = SimdEnvGuard::cleared();
        let kernel = KernelChoice::ALL[kernel_idx];
        let g = CbctGeometry::ideal(2 * n, 2 * n + np_extra, 2 * n + 2, 2 * n + 2);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let direct = direct_reconstruct(&g, &p);
        for backend in BackendChoice::ALL {
            let cfg = FdkConfig::new(g.clone())
                .with_kernel(kernel)
                .with_backend(backend);
            let got = fdk_reconstruct_configured(&cfg, &p, None).unwrap();
            prop_assert!(
                direct.data().iter().zip(got.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} {} diverged from the direct path", backend, kernel
            );
        }
        if kernel == KernelChoice::default() {
            let plain = fdk_reconstruct(&g, &p).unwrap();
            prop_assert_eq!(plain.data(), direct.data());
        }
    }

    /// Sim accounting invariants over random out-of-core shapes: the
    /// counters follow the driver's arithmetic (updates = voxels ×
    /// projections, one launch and one row-window upload per batch,
    /// exactly the volume read back), and the `gpu.*` metric snapshot
    /// agrees with the `DeviceCounters` report entry for entry.
    #[test]
    fn sim_ooc_accounting_follows_the_plan(n in 8usize..14, denom in 2u64..5) {
        let g = CbctGeometry::ideal(n * 2, n * 3, n * 4, n * 3);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let spec = DeviceSpec::tiny(
            ((g.projection_bytes() + g.volume_bytes()) as u64 / denom).max(64 * 1024),
        );
        let cfg = FdkConfig::new(g.clone()).with_device(spec);
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let (_, rep) = rec.reconstruct(&p, Schedule::Serial).unwrap();

        let batches = rep.batches.len() as u64;
        let d = &rep.device;
        prop_assert_eq!(d.kernel_updates, (g.nx * g.ny * g.nz * g.np) as u64);
        prop_assert_eq!(d.kernel_launches, batches);
        // Differential row loading may skip the upload for a batch whose
        // window is already resident, so calls ≤ batches but the bytes
        // are exactly the loaded rows.
        prop_assert!(d.h2d_calls <= batches, "h2d {} > batches {}", d.h2d_calls, batches);
        let rows_loaded = rep.metrics.counter("ooc.rows.loaded", None).unwrap();
        prop_assert_eq!(d.h2d_bytes, rows_loaded * (g.np * g.nu * 4) as u64);
        prop_assert_eq!(d.d2h_bytes, g.volume_bytes() as u64);
        let m: &MetricsSnapshot = &rep.metrics;
        prop_assert_eq!(m.counter("gpu.h2d.bytes", Some(0)), Some(d.h2d_bytes));
        prop_assert_eq!(m.counter("gpu.d2h.bytes", Some(0)), Some(d.d2h_bytes));
        prop_assert_eq!(m.counter("gpu.kernel.updates", Some(0)), Some(d.kernel_updates));
        prop_assert_eq!(m.counter("ooc.batches", None), Some(batches));
    }
}
