//! Seeded fault-schedule recovery tests.
//!
//! Every test runs the same reconstruction twice — once under an
//! injected [`FaultPlan`], once under `FaultPlan::none()` — and checks
//! that recovery reproduces the fault-free answer. Because recovered
//! chunks are recomputed by the identical kernel and summed in a fixed
//! rank order, the match is *bitwise* for every supported fault class
//! (and trivially within the 1e-5 acceptance tolerance). Determinism is
//! checked by running fault-injected reconstructions twice and comparing
//! their canonical [`RecoveryLog`]s.
//!
//! Distinct seeds exercised here: 101, 202, 303, 404 (message delays),
//! 11, 12 (mixed rank failures / drops / delays), 7, 8 (device + IO),
//! plus the first [`FaultPlan::stragglers`] seed that slows a worker
//! rank (slow-device stragglers with speculative re-execution).

use scalefbp::{
    fault_tolerant_reconstruct, FaultTolerantOutcome, FdkConfig, OutOfCoreReconstructor,
    ReconstructionError, ReduceMode, Schedule, StreamRun,
};
use scalefbp_faults::{Channel, FaultEvent, FaultKind, FaultPlan, FaultScenario, RecoveryEvent};
use scalefbp_geom::{CbctGeometry, ProjectionStack, RankLayout};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_phantom::{forward_project, uniform_ball};

/// Failure detection is timeout-based; running these worlds concurrently
/// could push compute past a deadline and flip a detector. Serialise.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn geom() -> CbctGeometry {
    CbctGeometry::ideal(16, 16, 24, 20)
}

fn projections(g: &CbctGeometry) -> ProjectionStack {
    forward_project(g, &uniform_ball(g, 0.5, 1.0))
}

fn run_ft(
    g: &CbctGeometry,
    p: &ProjectionStack,
    layout: RankLayout,
    plan: &FaultPlan,
) -> FaultTolerantOutcome {
    fault_tolerant_reconstruct(&FdkConfig::new(g.clone()).with_nc(2), layout, p, plan, None)
        .unwrap()
}

fn run_ft_mode(
    g: &CbctGeometry,
    p: &ProjectionStack,
    layout: RankLayout,
    plan: &FaultPlan,
    mode: ReduceMode,
) -> FaultTolerantOutcome {
    fault_tolerant_reconstruct(
        &FdkConfig::new(g.clone()).with_nc(2).with_reduce_mode(mode),
        layout,
        p,
        plan,
        None,
    )
    .unwrap()
}

fn assert_recovered_bitwise(faulted: &FaultTolerantOutcome, baseline: &FaultTolerantOutcome) {
    let err = baseline.volume.max_abs_diff(&faulted.volume);
    assert!(err < 1e-5, "recovered volume off by {err}");
    // Recomputation is exact, so the match is in fact bitwise.
    assert_eq!(faulted.volume.data(), baseline.volume.data());
}

#[test]
fn straggler_delays_are_bitwise_and_logless() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(3, 2, 2);
    let baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    assert!(baseline.recovery.is_empty());
    for seed in [101u64, 202, 303, 404] {
        let plan = FaultPlan::generate(seed, &FaultScenario::delays_only(layout.num_ranks(), 4));
        assert!(plan.delays_only());
        let out = run_ft(&g, &p, layout, &plan);
        assert_recovered_bitwise(&out, &baseline);
        // Delays are absorbed by the timeouts: nothing to recover.
        assert!(
            out.recovery.is_empty(),
            "seed {seed}: unexpected recoveries {:?}",
            out.recovery
        );
    }
}

#[test]
fn seeded_slow_device_stragglers_speculate_and_stay_bitwise() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    // nr = 3: a straggling worker always has a healthy worker peer, so
    // the leader's speculation runs remotely, not as a local fallback.
    let layout = RankLayout::new(3, 2, 2);
    // First seed whose plan slows a *worker* (rank % nr != 0): a slowed
    // leader stalls its whole group instead, which the root absorbs via
    // the slab deadline — no chunk-level speculation to observe there.
    let seed = (0u64..)
        .find(|&s| {
            let plan = FaultPlan::stragglers(s, layout.num_ranks(), 1, 4);
            !plan.events().is_empty() && plan.events().iter().all(|e| e.rank % layout.nr != 0)
        })
        .unwrap();
    let plan = FaultPlan::stragglers(seed, layout.num_ranks(), 1, 4);
    assert!(plan.stragglers_only());

    for mode in ReduceMode::ALL {
        let baseline = run_ft_mode(&g, &p, layout, &FaultPlan::none(), mode);
        assert!(baseline.recovery.is_empty());
        let out = run_ft_mode(&g, &p, layout, &plan, mode);
        // A straggler only slows model+wall time; recovery must land on
        // the unfaulted bits exactly (the speculative copy is a pure
        // recompute, and late originals are deduplicated).
        assert_recovered_bitwise(&out, &baseline);
        assert!(
            out.recovery
                .iter()
                .any(|e| matches!(e, RecoveryEvent::StragglerDetected { .. })),
            "{mode:?} seed {seed}: no straggler detected: {:?}",
            out.recovery
        );
        assert!(
            out.recovery
                .iter()
                .any(|e| matches!(e, RecoveryEvent::SpeculativeWin { .. })),
            "{mode:?} seed {seed}: speculation never won: {:?}",
            out.recovery
        );
        // Slow is not dead: the late original is discarded as a
        // duplicate, never escalated to a death declaration.
        assert!(
            !out.recovery
                .iter()
                .any(|e| matches!(e, RecoveryEvent::RankDeclaredDead { .. })),
            "{mode:?} seed {seed}: straggler declared dead: {:?}",
            out.recovery
        );
        // Same plan → same RecoveryLog and same bits.
        let again = run_ft_mode(&g, &p, layout, &plan, mode);
        assert_eq!(
            again.recovery, out.recovery,
            "{mode:?} seed {seed}: straggler recovery not deterministic"
        );
        assert_eq!(again.volume.data(), out.volume.data());
    }
}

#[test]
fn worker_rank_failure_requeues_onto_survivors() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(2, 2, 2);
    // Rank 3 (worker of group 1) dies on its second chunk send.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 3,
        channel: Channel::Send,
        op_index: 1,
        kind: FaultKind::RankFailure,
    }]);
    let baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    let out = run_ft(&g, &p, layout, &plan);
    assert_recovered_bitwise(&out, &baseline);
    assert!(out
        .recovery
        .iter()
        .any(|e| matches!(e, RecoveryEvent::RankDeclaredDead { rank: 3, .. })));
    assert!(out
        .recovery
        .iter()
        .any(|e| matches!(e, RecoveryEvent::WorkRequeued { from_rank: 3, .. })));
    // Same seed (here: same plan) → same RecoveryLog.
    let again = run_ft(&g, &p, layout, &plan);
    assert_eq!(again.recovery, out.recovery);
    assert_eq!(again.volume.data(), out.volume.data());
}

#[test]
fn leader_rank_failure_degrades_to_deputy() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(2, 2, 2);
    // Rank 2 (leader of group 1) dies on its first delivered receive.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 2,
        channel: Channel::Recv,
        op_index: 0,
        kind: FaultKind::RankFailure,
    }]);
    let baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    let out = run_ft(&g, &p, layout, &plan);
    assert_recovered_bitwise(&out, &baseline);
    assert!(out.recovery.iter().any(|e| matches!(
        e,
        RecoveryEvent::LeaderSetDegraded {
            group: 1,
            dead_leader: 2,
            new_leader: 3
        }
    )));
}

#[test]
fn message_drop_is_indistinguishable_from_death_and_recovered() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(2, 2, 2);
    // Rank 1's first chunk to the root-leader of group 0 vanishes.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 1,
        channel: Channel::Send,
        op_index: 0,
        kind: FaultKind::MessageDrop,
    }]);
    let baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    let out = run_ft(&g, &p, layout, &plan);
    assert_recovered_bitwise(&out, &baseline);
    // nr = 2 leaves no surviving worker: the leader recomputes locally.
    assert!(out.recovery.iter().any(|e| matches!(
        e,
        RecoveryEvent::WorkRequeued {
            from_rank: 1,
            to_rank: 0,
            ..
        }
    )));
    let again = run_ft(&g, &p, layout, &plan);
    assert_eq!(again.recovery, out.recovery);
}

#[test]
fn generated_mixed_plans_recover_deterministically() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(3, 2, 2);
    let baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    for seed in [11u64, 12] {
        let plan = FaultPlan::generate(seed, &FaultScenario::mixed(layout.num_ranks()));
        let first = run_ft(&g, &p, layout, &plan);
        assert_recovered_bitwise(&first, &baseline);
        let second = run_ft(&g, &p, layout, &plan);
        assert_eq!(
            first.recovery, second.recovery,
            "seed {seed}: RecoveryLog not deterministic"
        );
        assert_eq!(first.volume.data(), second.volume.data());
    }
}

#[test]
fn segmented_mode_worker_killed_mid_piece_sends_recovers_bitwise() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(2, 2, 2);
    // In segmented mode each chunk travels as N_r = 2 per-segment pieces,
    // so send op 1 is the *second piece of the first chunk*: rank 3 dies
    // with the leader holding a partial piece set. Recovery must discard
    // nothing it already has, requeue the chunk whole (RECHUNK resends
    // are mode-independent), and land on the fault-free bits.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 3,
        channel: Channel::Send,
        op_index: 1,
        kind: FaultKind::RankFailure,
    }]);
    let baseline = run_ft_mode(&g, &p, layout, &FaultPlan::none(), ReduceMode::Segmented);
    // The fixed-order leader fold makes every mode bitwise identical.
    let dense_baseline = run_ft(&g, &p, layout, &FaultPlan::none());
    assert_eq!(baseline.volume.data(), dense_baseline.volume.data());
    let out = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
    assert_recovered_bitwise(&out, &baseline);
    assert!(out
        .recovery
        .iter()
        .any(|e| matches!(e, RecoveryEvent::RankDeclaredDead { rank: 3, .. })));
    assert!(out
        .recovery
        .iter()
        .any(|e| matches!(e, RecoveryEvent::WorkRequeued { from_rank: 3, .. })));
    // Same plan → same RecoveryLog and same bits.
    let again = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
    assert_eq!(again.recovery, out.recovery);
    assert_eq!(again.volume.data(), out.volume.data());
}

#[test]
fn segmented_mode_leader_killed_during_piece_receive_degrades_to_deputy() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(2, 2, 2);
    // Rank 2 (leader of group 1) dies on its first delivered receive —
    // while collecting segment pieces. The deputy must take over and
    // reproduce the fault-free volume exactly.
    let plan = FaultPlan::from_events(vec![FaultEvent {
        rank: 2,
        channel: Channel::Recv,
        op_index: 0,
        kind: FaultKind::RankFailure,
    }]);
    let baseline = run_ft_mode(&g, &p, layout, &FaultPlan::none(), ReduceMode::Segmented);
    let out = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
    assert_recovered_bitwise(&out, &baseline);
    assert!(out.recovery.iter().any(|e| matches!(
        e,
        RecoveryEvent::LeaderSetDegraded {
            group: 1,
            dead_leader: 2,
            new_leader: 3
        }
    )));
}

#[test]
fn segmented_mode_seeded_delay_plans_are_bitwise_stable() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(3, 2, 2);
    let baseline = run_ft_mode(&g, &p, layout, &FaultPlan::none(), ReduceMode::Segmented);
    for seed in [505u64, 606] {
        let plan = FaultPlan::generate(seed, &FaultScenario::delays_only(layout.num_ranks(), 4));
        assert!(plan.delays_only());
        let out = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
        assert_recovered_bitwise(&out, &baseline);
        // Delayed pieces arrive within the chunk timeout: no recovery.
        assert!(
            out.recovery.is_empty(),
            "seed {seed}: unexpected recoveries {:?}",
            out.recovery
        );
    }
}

#[test]
fn segmented_mode_mixed_seeded_plans_recover_deterministically() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let layout = RankLayout::new(3, 2, 2);
    let baseline = run_ft_mode(&g, &p, layout, &FaultPlan::none(), ReduceMode::Segmented);
    for seed in [21u64, 22] {
        let plan = FaultPlan::generate(seed, &FaultScenario::mixed(layout.num_ranks()));
        let first = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
        assert_recovered_bitwise(&first, &baseline);
        let second = run_ft_mode(&g, &p, layout, &plan, ReduceMode::Segmented);
        assert_eq!(
            first.recovery, second.recovery,
            "seed {seed}: RecoveryLog not deterministic under segmented mode"
        );
        assert_eq!(first.volume.data(), second.volume.data());
    }
}

#[test]
fn device_transfer_errors_are_retried_in_pipeline() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let (reference, _) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
    // First h2d and first d2h both fail once.
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            rank: 0,
            channel: Channel::DeviceTransfer,
            op_index: 0,
            kind: FaultKind::TransferError,
        },
        FaultEvent {
            rank: 0,
            channel: Channel::DeviceTransfer,
            op_index: 1,
            kind: FaultKind::TransferError,
        },
    ]);
    let (vol, report) = rec
        .reconstruct(
            &p,
            StreamRun {
                faults: Some(&plan),
                ..Schedule::Overlapped.into()
            },
        )
        .unwrap();
    assert_eq!(vol.data(), reference.data());
    let retries: Vec<_> = report
        .recovery
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::DeviceRetry { .. }))
        .collect();
    assert_eq!(retries.len(), 2, "events: {:?}", report.recovery);
    // The trace consumed the recovery log too.
    assert_eq!(report.trace.recovery_events(), report.recovery);
}

#[test]
fn storage_read_errors_are_retried_in_pipeline() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let (reference, _) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            rank: 0,
            channel: Channel::StorageRead,
            op_index: 0,
            kind: FaultKind::ReadError,
        },
        FaultEvent {
            rank: 0,
            channel: Channel::StorageRead,
            op_index: 2,
            kind: FaultKind::ReadError,
        },
    ]);
    let nvme = StorageEndpoint::local_nvme(None);
    let (vol, report) = rec
        .reconstruct(
            &p,
            StreamRun {
                faults: Some(&plan),
                storage: Some(&nvme),
                ..Schedule::Overlapped.into()
            },
        )
        .unwrap();
    assert_eq!(vol.data(), reference.data());
    let retries = report
        .recovery
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::IoRetry { .. }))
        .count();
    assert_eq!(retries, 2, "events: {:?}", report.recovery);
    // Failed reads are never counted: one successful read per batch.
    let batches = g.nz.div_ceil(rec.nb()) as u64;
    assert_eq!(nvme.counters().reads, batches);
}

/// Both schedules take a fault plan and charge the device the same way:
/// the overlapped one allocates its working set too, so a `device-oom`
/// fires there, and the serial one retries a failed transfer. Each writes
/// the fault-free bits.
#[test]
fn device_faults_are_retried_under_both_schedules() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let (reference, _) = rec.reconstruct(&p, Schedule::Serial).unwrap();
    let first = |channel, kind| {
        FaultPlan::from_events(vec![FaultEvent {
            rank: 0,
            channel,
            op_index: 0,
            kind,
        }])
    };
    let cases = [
        (
            Schedule::Overlapped,
            first(Channel::DeviceAlloc, FaultKind::DeviceOom),
            "alloc",
        ),
        (
            Schedule::Serial,
            first(Channel::DeviceTransfer, FaultKind::TransferError),
            "h2d",
        ),
    ];
    for (schedule, plan, op) in cases {
        let run = StreamRun {
            faults: Some(&plan),
            ..schedule.into()
        };
        let (vol, report) = rec.reconstruct(&p, run).unwrap();
        assert_eq!(vol.data(), reference.data(), "{schedule:?}");
        let retry = RecoveryEvent::DeviceRetry {
            rank: 0,
            op: op.to_string(),
            attempt: 1,
        };
        assert_eq!(report.recovery, [retry], "{schedule:?}");
        assert_eq!(report.trace.recovery_events(), report.recovery);
    }
}

/// Runs `f` on its own thread and waits at most a minute for it: a
/// driver that hangs fails the test instead of the suite.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()));
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("driver did not return within a minute");
    worker
        .join()
        .expect("the driver thread returned")
        .expect("the receiver was alive");
    out
}

/// A plan that fails every attempt of an operation outlasts the retry
/// budget: the pipeline returns a typed error from its one slab loop,
/// never a panic.
#[test]
fn exhausted_pipeline_retries_are_errors_not_panics() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let failing = |channel, kind| {
        FaultPlan::from_events(
            (0..12)
                .map(|op_index| FaultEvent {
                    rank: 0,
                    channel,
                    op_index,
                    kind,
                })
                .collect(),
        )
    };
    let cases = [
        (
            failing(Channel::DeviceTransfer, FaultKind::TransferError),
            "device error",
        ),
        (
            failing(Channel::StorageRead, FaultKind::ReadError),
            "input error",
        ),
    ];
    for (plan, want) in cases {
        let (g, p) = (g.clone(), p.clone());
        let outcome = within_a_minute(move || {
            let rec = OutOfCoreReconstructor::new(FdkConfig::new(g)).unwrap();
            let nvme = StorageEndpoint::local_nvme(None);
            rec.reconstruct(
                &p,
                StreamRun {
                    faults: Some(&plan),
                    storage: Some(&nvme),
                    ..Schedule::Overlapped.into()
                },
            )
            .map(|_| ())
        });
        match outcome {
            Err(e) => assert!(e.to_string().starts_with(want), "{e}"),
            Ok(()) => panic!("a plan past the retry budget reconstructed"),
        }
    }
}

/// Rank 0 assembles the volume and coordinates recovery, so a plan that
/// fails it is refused before any rank starts, under every reduce mode.
#[test]
fn a_plan_that_fails_rank_0_is_refused_up_front() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    for channel in [Channel::Recv, Channel::Send] {
        for mode in ReduceMode::ALL {
            let plan = FaultPlan::from_events(vec![FaultEvent {
                rank: 0,
                channel,
                op_index: 0,
                kind: FaultKind::RankFailure,
            }]);
            let (g, p) = (g.clone(), p.clone());
            let outcome = within_a_minute(move || {
                let cfg = FdkConfig::new(g).with_nc(2).with_reduce_mode(mode);
                fault_tolerant_reconstruct(&cfg, RankLayout::new(2, 2, 2), &p, &plan, None)
                    .map(|_| ())
            });
            match outcome {
                Err(ReconstructionError::Input(what)) => {
                    assert!(what.contains("fails rank 0"), "{what}")
                }
                other => panic!("{channel:?} {mode}: {other:?}"),
            }
        }
    }
}

#[test]
fn generated_device_io_plans_are_deterministic_in_pipeline() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let (reference, _) = rec.reconstruct(&p, Schedule::Overlapped).unwrap();
    let scenario = FaultScenario {
        world_size: 1,
        max_rank_failures: 0,
        message_drops: 0,
        message_delays: 0,
        device_faults: 2,
        io_faults: 2,
        corrupt_faults: 0,
        op_horizon: 8,
    };
    for seed in [7u64, 8] {
        let plan = FaultPlan::generate(seed, &scenario);
        let nvme = StorageEndpoint::local_nvme(None);
        let (vol, report) = rec
            .reconstruct(
                &p,
                StreamRun {
                    faults: Some(&plan),
                    storage: Some(&nvme),
                    ..Schedule::Overlapped.into()
                },
            )
            .unwrap();
        assert_eq!(vol.data(), reference.data(), "seed {seed}");
        let nvme2 = StorageEndpoint::local_nvme(None);
        let (vol2, report2) = rec
            .reconstruct(
                &p,
                StreamRun {
                    faults: Some(&plan),
                    storage: Some(&nvme2),
                    ..Schedule::Overlapped.into()
                },
            )
            .unwrap();
        assert_eq!(vol.data(), vol2.data());
        assert_eq!(report.recovery, report2.recovery, "seed {seed}");
    }
}

#[test]
fn cli_reconstructs_under_fault_seed() {
    let _s = SERIAL.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("scalefbp-faultcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scan = dir.join("scan.sfbp");
    let vol = dir.join("vol.sfbp");
    let run = |tokens: &[&str]| {
        scalefbp_cli::run(tokens.iter().map(|s| s.to_string())).expect("cli run failed")
    };
    run(&["simulate", "--out", scan.to_str().unwrap(), "--ideal", "12"]);
    let out = run(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--mode",
        "distributed",
        "--nr",
        "2",
        "--ng",
        "2",
        "--fault-seed",
        "5",
    ]);
    assert!(out.contains("fault-tolerant distributed"), "{out}");
    assert!(vol.exists());
    let out = run(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--mode",
        "pipeline",
        "--fault-seed",
        "6",
    ]);
    assert!(out.contains("modelled overlap efficiency"), "{out}");
}

/// FNV-1a over bytes: the fingerprint the recovery pins are kept in.
fn fnv(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h: u32, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

/// One pinned distributed fault run: reduce mode, ranks per group
/// (`N_g = N_c = 2`), the plan, and the FNV-1a of its recovery log (one
/// event per line), metrics JSON and volume bytes.
type PinnedRun = (ReduceMode, usize, &'static str, [u32; 3]);

/// Every recovery path of the distributed driver, pinned byte for byte:
/// which events fire (the log is canonically sorted), with which `what`
/// labels and attempt numbers, and which `mpi.*`/`ft.*` counts result. Any refactor of the data plane
/// must reproduce all of them. Segmented chunks travel as `N_r` pieces,
/// so a plan that targets a later send op carries a per-mode op index.
const PINNED_RUNS: &[PinnedRun] = &[
    // Worker death: rank 4 dies on its first send; the leader speculates
    // onto rank 5, declares rank 4 dead, and phase 2 requeues batch 1.
    (D, 3, "rank 4 send op 0 rank-failure", [0x76c73717, 0x1abe359b, 0x660a59f4]),
    (S, 3, "rank 4 send op 0 rank-failure", [0x76c73717, 0xf586b26b, 0x660a59f4]),
    // Leader death: rank 2 dies on its first receive; the root's slab
    // ladder declares it dead and rank 3 takes over as deputy.
    (D, 2, "rank 2 recv op 0 rank-failure", [0xfd31fd6b, 0x3a4d3c9c, 0xb1b9cc80]),
    (S, 2, "rank 2 recv op 0 rank-failure", [0xfd31fd6b, 0x460ecc16, 0xb1b9cc80]),
    // Dropped message: rank 1's first send vanishes.
    (D, 2, "rank 1 send op 0 drop", [0xd2e2c160, 0xabe8e3d4, 0xb1b9cc80]),
    (S, 2, "rank 1 send op 0 drop", [0xd2e2c160, 0xa3768eba, 0xb1b9cc80]),
    // Corrupted chunk: rank 1's first sealed frame fails its CRC.
    (D, 2, "rank 1 corrupt op 0 bit-flip:7", [0xe2320743, 0x5ffafe86, 0xb1b9cc80]),
    (S, 2, "rank 1 corrupt op 0 bit-flip:7", [0x761e96a9, 0xb3c6bb28, 0xb1b9cc80]),
    // Corrupted recompute replies: rank 4 dies, rank 5's speculative
    // copy and then its phase-2 recompute both fail their CRC.
    (
        D,
        3,
        "rank 4 send op 0 rank-failure\nrank 5 corrupt op 2 bit-flip:7\nrank 5 corrupt op 3 bit-flip:9",
        [0x7b063122, 0x631e3aa3, 0x660a59f4],
    ),
    (
        S,
        3,
        "rank 4 send op 0 rank-failure\nrank 5 corrupt op 6 bit-flip:7\nrank 5 corrupt op 7 bit-flip:9",
        [0x7b063122, 0xb9e47b63, 0x660a59f4],
    ),
    // Corrupted slab: leader 2's first slab to the root fails its CRC.
    (D, 2, "rank 2 corrupt op 0 bit-flip:7", [0x094fee8a, 0x49bffbfd, 0xb1b9cc80]),
    (S, 2, "rank 2 corrupt op 0 bit-flip:7", [0x094fee8a, 0xff042bb5, 0xb1b9cc80]),
    // Straggler: rank 4's device slows; speculation wins, the late
    // original is deduplicated.
    (D, 3, "rank 4 compute op 0 slow:4:0", [0x803392b0, 0x3694a721, 0x660a59f4]),
    (S, 3, "rank 4 compute op 0 slow:4:0", [0x803392b0, 0xbb5660b7, 0x660a59f4]),
    // Mid-piece kill: rank 3 dies on send op 1 — in segmented mode the
    // second piece of its first chunk.
    (D, 2, "rank 3 send op 1 rank-failure", [0xcb3db33a, 0xe755d983, 0xb1b9cc80]),
    (S, 2, "rank 3 send op 1 rank-failure", [0x8cae90fb, 0x959b1d61, 0xb1b9cc80]),
];
const D: ReduceMode = ReduceMode::Dense;
const S: ReduceMode = ReduceMode::Segmented;

#[test]
fn distributed_recovery_logs_match_their_pins() {
    let _s = SERIAL.lock().unwrap();
    let g = geom();
    let p = projections(&g);
    let mut whats = Vec::new();
    let mut moved = Vec::new();
    for &(mode, nr, plan, want) in PINNED_RUNS {
        let out = run_ft_mode(
            &g,
            &p,
            RankLayout::new(nr, 2, 2),
            &FaultPlan::parse(plan).unwrap(),
            mode,
        );
        let log: String = out.recovery.iter().map(|e| format!("{e}\n")).collect();
        let volume: Vec<u8> = out
            .volume
            .data()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let pins = [
            fnv(log.as_bytes()),
            fnv(out.metrics.to_json().as_bytes()),
            fnv(&volume),
        ];
        whats.extend(out.recovery.into_iter().filter_map(|e| match e {
            RecoveryEvent::CorruptionDetected { what, .. } => Some(what),
            _ => None,
        }));
        if pins != want {
            moved.push(format!("{mode} nr={nr} {plan:?}: {pins:#010x?}\n{log}"));
        }
    }
    assert!(
        moved.is_empty(),
        "runs off their pins:\n{}",
        moved.join("\n")
    );
    for prefix in [
        "chunk ",
        "speculative chunk ",
        "recomputed chunk ",
        "slab z",
    ] {
        assert!(
            whats.iter().any(|w| w.starts_with(prefix)),
            "no pinned run detects corruption on `{prefix}`: {whats:?}"
        );
    }
}
