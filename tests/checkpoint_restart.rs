//! Crash-consistent checkpoint/restart: chaos-replay integration tests.
//!
//! Each test kills a checkpointed reconstruction after a chosen number
//! of durable slab commits (the chaos kill switch fires *between* a
//! slab's manifest commit and the next — exactly the crash window the
//! resume protocol must cover), resumes it from the checkpoint
//! directory, and asserts the resumed volume is **bitwise** identical to
//! an uninterrupted golden run. Data integrity is exercised end to end:
//! a seeded [`Channel::Corrupt`] fault flips a byte inside a sealed
//! frame mid-flight and must be caught by the CRC seal, retried, and
//! surfaced in the [`RecoveryLog`] and the `integrity.*` metrics.

use scalefbp::{
    fault_tolerant_reconstruct, CheckpointSpec, DeviceSpec, FdkConfig, OutOfCoreReconstructor,
    ReconstructionError, ReduceMode, Schedule, StreamRun,
};
use scalefbp_faults::{
    open_frame, seal_frame, Channel, FaultEvent, FaultKind, FaultPlan, FaultScenario, RecoveryEvent,
};
use scalefbp_geom::{CbctGeometry, RankLayout};
use scalefbp_integration::testsupport::{
    assert_bitwise, kill_points, resumed_slabs, scratch_endpoint,
};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_phantom::{forward_project, uniform_ball};

/// Failure detection in the distributed driver is timeout-based; two
/// worlds racing on the same cores can push compute past a deadline and
/// flip a detector. Serialise, as `tests/fault_recovery.rs` does.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Out-of-core: kill mid-run at every interesting commit count, resume,
/// compare bitwise. The tiny devices force multi-slab decompositions.
#[test]
fn killed_outofcore_run_resumes_bitwise() {
    for (n, device_bytes) in [(16, 1_000_000), (16, 2_000_000), (24, 2_000_000)] {
        let g = CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2);
        let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
        let cfg = FdkConfig::new(g).with_device(DeviceSpec::tiny(device_bytes));
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let (golden, report) = rec.reconstruct(&p, Schedule::Serial).unwrap();
        let slabs = report.batches.len();

        for k in kill_points(slabs) {
            let what = format!("outofcore n={n} device={device_bytes} k={k}");
            let ep = scratch_endpoint(&format!("ckpt-ooc-{n}-{device_bytes}-{k}"));
            let kill = CheckpointSpec::new("", 1).killing_after(k);
            match rec.reconstruct(
                &p,
                StreamRun {
                    checkpoint: Some((&ep, &kill)),
                    ..Schedule::Serial.into()
                },
            ) {
                Err(ReconstructionError::Interrupted { completed_slabs }) => {
                    assert_eq!(completed_slabs, k, "{what}")
                }
                other => panic!("{what}: expected Interrupted, got {:?}", other.map(|_| ())),
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
            assert_bitwise(&golden, &resumed, &what);
            assert_eq!(resumed_slabs(&ep), k as u64, "{what}");
        }
    }
}

/// Segmented-mode fault-tolerant distributed run under seeded fault plans
/// (delays, drops, a rank failure, a corrupted frame): checkpointing alone
/// must not change the bits, and a run killed at every interesting commit
/// count then resumed is bitwise identical to the golden fault-free answer.
#[test]
fn killed_distributed_segmented_run_resumes_bitwise_under_faults() {
    let _serial = SERIAL.lock().unwrap();
    let g = CbctGeometry::ideal(16, 16, 24, 20);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let layout = RankLayout::new(2, 2, 2);
    let cfg = FdkConfig::new(g)
        .with_nc(2)
        .with_reduce_mode(ReduceMode::Segmented);
    let golden = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None)
        .unwrap()
        .volume;

    for seed in [7, 21] {
        let plan = FaultPlan::generate(seed, &FaultScenario::mixed(layout.num_ranks()));
        let run = |ep: &StorageEndpoint, spec: CheckpointSpec| {
            fault_tolerant_reconstruct(&cfg, layout, &p, &plan, Some((ep, &spec)))
        };

        let ep = scratch_endpoint(&format!("ckpt-ft-seg-{seed}-full"));
        let full = run(&ep, CheckpointSpec::new("", 1)).unwrap();
        assert_bitwise(
            &golden,
            &full.volume,
            &format!("distributed seed={seed} (checkpointed, no kill)"),
        );
        let slabs = ep
            .metrics_registry()
            .snapshot()
            .counter("ckpt.saves", None)
            .unwrap_or(0) as usize;

        for k in kill_points(slabs) {
            let what = format!("distributed seed={seed} k={k}");
            let ep = scratch_endpoint(&format!("ckpt-ft-seg-{seed}-{k}"));
            match run(&ep, CheckpointSpec::new("", 1).killing_after(k)) {
                Err(ReconstructionError::Interrupted { completed_slabs }) => {
                    assert_eq!(completed_slabs, k, "{what}")
                }
                other => panic!("{what}: expected Interrupted, got {:?}", other.map(|_| ())),
            }
            let out = run(&ep, CheckpointSpec::new("", 1).resuming()).unwrap();
            assert_bitwise(&golden, &out.volume, &what);
            // Resume is per group: only a group whose every slab committed
            // is loaded instead of recomputed.
            let per_group = slabs / layout.ng;
            assert_eq!(
                resumed_slabs(&ep),
                (k / per_group * per_group) as u64,
                "{what}"
            );
        }
    }
}

/// A seeded `Corrupt` fault flips a byte in a sealed chunk frame. The
/// receiver's CRC check must detect it, drive the retry/recovery path,
/// and record both a [`RecoveryEvent::CorruptionDetected`] and an
/// `integrity.mpi.failures` count — while the final volume stays
/// bitwise identical to the fault-free run.
#[test]
fn corrupted_frame_is_detected_retried_and_logged() {
    let _serial = SERIAL.lock().unwrap();
    let g = CbctGeometry::ideal(16, 16, 24, 20);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let layout = RankLayout::new(2, 2, 2);
    let cfg = FdkConfig::new(g)
        .with_nc(2)
        .with_reduce_mode(ReduceMode::Segmented);
    let golden = fault_tolerant_reconstruct(&cfg, layout, &p, &FaultPlan::none(), None).unwrap();

    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 1,
        channel: Channel::Corrupt,
        op_index: 0,
        kind: FaultKind::BitFlip { seed: 99 },
    }]);
    let out = fault_tolerant_reconstruct(&cfg, layout, &p, &plan, None).unwrap();

    assert_bitwise(&golden.volume, &out.volume, "corrupt-frame recovery");
    assert!(
        out.recovery
            .iter()
            .any(|e| matches!(e, RecoveryEvent::CorruptionDetected { .. })),
        "no CorruptionDetected event in {:?}",
        out.recovery
    );
    let failures: u64 = (0..layout.num_ranks())
        .filter_map(|r| out.metrics.counter("integrity.mpi.failures", Some(r)))
        .sum();
    assert!(failures >= 1, "integrity.mpi.failures not incremented");
}

/// A stale checkpoint (written under a different configuration) is
/// refused on resume — for both drivers — rather than silently mixing
/// incompatible volumes.
#[test]
fn stale_checkpoint_is_refused_by_both_drivers() {
    let _serial = SERIAL.lock().unwrap();
    let n = 16;
    let g = CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));

    // Write an out-of-core checkpoint, then resume with the distributed
    // driver against the same directory: the driver tag alone must
    // change the fingerprint and refuse the resume.
    let ep = scratch_endpoint("ckpt-stale-cross");
    let cfg = FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(1_000_000));
    let rec = OutOfCoreReconstructor::new(cfg).unwrap();
    rec.reconstruct(
        &p,
        StreamRun {
            checkpoint: Some((&ep, &CheckpointSpec::new("", 1))),
            ..Schedule::Serial.into()
        },
    )
    .unwrap();

    let layout = RankLayout::new(2, 2, 2);
    let dcfg = FdkConfig::new(g).with_nc(2);
    let err = fault_tolerant_reconstruct(
        &dcfg,
        layout,
        &p,
        &FaultPlan::none(),
        Some((&ep, &CheckpointSpec::new("", 1).resuming())),
    )
    .map(|out| out.volume.data().len())
    .expect_err("cross-driver resume must fail");
    assert!(err.to_string().contains("stale"), "unexpected error: {err}");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The CRC-32 seal detects any single corrupted byte of a frame
        /// — payload or checksum trailer alike.
        #[test]
        fn sealed_frame_detects_any_single_byte_flip(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            pos in any::<u64>(),
            xor in 1u8..=255,
        ) {
            let mut frame = seal_frame(&payload);
            let i = (pos % frame.len() as u64) as usize;
            frame[i] ^= xor;
            prop_assert!(
                open_frame(&frame).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }
}
