//! Seeded fleet-fault plans against a running scheduler: device kills
//! and checkpoint corruption must requeue/resume jobs with bitwise
//! outputs and a fully deterministic recovery log (double-run log
//! equality, the same contract `tests/checkpoint_restart.rs` enforces
//! for single-job restarts).

use std::sync::Arc;

use scalefbp::{fdk_reconstruct_configured, MetricsRegistry};
use scalefbp_gpusim::DeviceSpec;
use scalefbp_integration::testsupport::{assert_bitwise, scratch_dir};
use scalefbp_phantom::{forward_project, uniform_ball};
use scalefbp_serve::{
    generate, job_config, scan_geometry, FleetFaultPlan, JobClass, JobSpec, Scheduler, ServeConfig,
    WorkloadSpec,
};

fn fleet(tag: &str, devices: usize) -> ServeConfig {
    ServeConfig::new(devices, DeviceSpec::tiny(300_000), scratch_dir(tag))
}

fn long_job(nc: usize, slice_slabs: usize) -> JobSpec {
    let geom = scan_geometry(16);
    let projections = Arc::new(forward_project(&geom, &uniform_ball(&geom, 0.55, 1.0)));
    JobSpec {
        id: 0,
        tenant: 0,
        arrival_nanos: 0,
        class: JobClass::Long { nc, slice_slabs },
        geom,
        projections,
    }
}

#[test]
fn seeded_device_kills_recover_deterministically() {
    // Overload a four-device fleet, then kill two devices mid-run via a
    // seeded plan. Every job must still complete (requeued onto the
    // survivors), and the entire run — schedule, recovery log, metrics
    // — must replay byte-for-byte.
    let jobs = 16;
    let rate = 800.0;
    let horizon = (jobs as f64 / rate * 1e9) as u64;
    let spec = WorkloadSpec::new(21, 3, jobs, rate);
    let faults = FleetFaultPlan::generate(0xFA11, 4, horizon);
    assert!(!faults.kills.is_empty(), "seeded plan produced no kills");

    let runs: Vec<_> = ["serve-kill-a", "serve-kill-b"]
        .iter()
        .map(|tag| {
            let cfg = fleet(tag, 4).with_faults(faults.clone()).keeping_volumes();
            let report = Scheduler::new(cfg.clone(), MetricsRegistry::new())
                .run(generate(&spec))
                .expect("scheduler run");
            (cfg, report)
        })
        .collect();

    let (cfg, report) = &runs[0];
    assert_eq!(report.jobs.len(), jobs, "kills must not lose jobs");
    assert!(report.stranded.is_empty());
    assert_eq!(
        report.metrics.counter("serve.device.kills", None),
        Some(faults.kills.len() as u64)
    );
    assert!(
        report.metrics.counter("serve.requeues", None).unwrap_or(0) >= 1,
        "expected at least one fault-driven requeue"
    );
    assert!(
        report.log.iter().any(|l| l.contains("kill")),
        "recovery log records no kill events:\n{}",
        report.log.join("\n")
    );

    // Deterministic recovery: second run is byte-identical everywhere.
    let (_, replay) = &runs[1];
    assert_eq!(report.schedule_text(), replay.schedule_text());
    assert_eq!(report.log, replay.log);
    assert_eq!(report.metrics.to_json(), replay.metrics.to_json());

    // And still numerically exact.
    let inputs = generate(&spec);
    for (id, volume) in &report.volumes {
        let job = inputs.iter().find(|j| j.id == *id).unwrap();
        let golden =
            fdk_reconstruct_configured(&job_config(cfg, job), &job.projections, None).unwrap();
        assert_bitwise(&golden, volume, &format!("job {id} after device kills"));
    }
}

#[test]
fn seeded_stragglers_hedge_and_stay_bitwise() {
    // Slow two of four devices mid-run via a seeded plan. With hedging
    // on, the scheduler must detect the stragglers, duplicate at least
    // one stuck batch onto a healthy device, and dedup the late twin —
    // with every volume still bitwise identical to the direct
    // reconstruction. With hedging off (the wait-it-out baseline) the
    // same plan must finish every job with zero hedges and a makespan
    // no better than the hedged run. Both modes replay byte-for-byte.
    let jobs = 16;
    let rate = 800.0;
    let horizon = (jobs as f64 / rate * 1e9) as u64;
    let spec = WorkloadSpec::new(0x57A6, 3, jobs, rate);
    let faults = FleetFaultPlan::generate_stragglers(0x57A6, 4, 2, 4, horizon);
    assert!(
        !faults.slowdowns.is_empty(),
        "seeded plan produced no slowdowns"
    );

    let run_once = |tag: &str, hedging: bool| {
        // Batches here live 5–20 ms of model time; a 2 ms aging limit
        // makes a straggler's batch hedge-eligible once its overrun is
        // confirmed (the 50 ms default would outlast every job).
        let cfg = fleet(tag, 4)
            .with_aging_nanos(2_000_000)
            .with_faults(faults.clone())
            .with_hedging(hedging)
            .keeping_volumes();
        let report = Scheduler::new(cfg.clone(), MetricsRegistry::new())
            .run(generate(&spec))
            .expect("scheduler run");
        (cfg, report)
    };

    let (cfg, hedged) = run_once("serve-hedge-a", true);
    let (_, hedged_replay) = run_once("serve-hedge-b", true);
    let (_, waited) = run_once("serve-wait-a", false);
    let (_, waited_replay) = run_once("serve-wait-b", false);

    for (report, label) in [(&hedged, "hedged"), (&waited, "wait-it-out")] {
        assert_eq!(
            report.jobs.len(),
            jobs,
            "{label}: stragglers must not lose jobs"
        );
        assert!(report.stranded.is_empty(), "{label}: no job may strand");
        assert!(
            report
                .metrics
                .counter("serve.stragglers", None)
                .unwrap_or(0)
                >= 1,
            "{label}: slow devices were never detected"
        );
    }

    let hedges =
        |r: &scalefbp_serve::ServeReport, name: &str| r.metrics.counter(name, None).unwrap_or(0);
    assert!(
        hedges(&hedged, "serve.hedges.issued") >= 1,
        "hedging on but no hedges issued:\n{}",
        hedged.log.join("\n")
    );
    assert!(
        hedges(&hedged, "serve.hedges.won") >= 1,
        "no hedge ever beat its straggling original"
    );
    assert!(
        hedged.log.iter().any(|l| l.contains("hedge")),
        "recovery log records no hedge events"
    );
    assert_eq!(hedges(&waited, "serve.hedges.issued"), 0);
    assert!(
        waited.log.iter().all(|l| !l.contains("hedge")),
        "hedging off but the log mentions hedges"
    );
    assert!(
        hedged.makespan_nanos <= waited.makespan_nanos,
        "hedging worsened the makespan: {} vs {}",
        hedged.makespan_nanos,
        waited.makespan_nanos
    );

    // Deterministic: both modes replay byte-identically.
    for (a, b) in [(&hedged, &hedged_replay), (&waited, &waited_replay)] {
        assert_eq!(a.schedule_text(), b.schedule_text());
        assert_eq!(a.log, b.log);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }

    // Hedge dedup must never corrupt results: every volume of the
    // hedged run is bitwise identical to the direct reconstruction.
    let inputs = generate(&spec);
    assert_eq!(hedged.volumes.len(), jobs);
    for (id, volume) in &hedged.volumes {
        let job = inputs.iter().find(|j| j.id == *id).unwrap();
        let golden =
            fdk_reconstruct_configured(&job_config(&cfg, job), &job.projections, None).unwrap();
        assert_bitwise(&golden, volume, &format!("job {id} after hedged recovery"));
    }
}

#[test]
fn corrupt_checkpoint_slab_restarts_job_from_scratch() {
    // Corrupt the first checkpoint slab of job 0 after its first slice
    // commits. The CRC seal must catch it on resume; the scheduler
    // wipes the store and restarts the job, still bitwise-correct.
    let job = long_job(6, 2);
    let faults = FleetFaultPlan::none().with_corruption(0, 1);

    let run_once = |tag: &str| {
        let cfg = fleet(tag, 1).with_faults(faults.clone()).keeping_volumes();
        let report = Scheduler::new(cfg.clone(), MetricsRegistry::new())
            .run(vec![job.clone()])
            .expect("scheduler run");
        (cfg, report)
    };
    let (cfg, report) = run_once("serve-corrupt-a");

    assert_eq!(report.jobs.len(), 1);
    assert_eq!(
        report.metrics.counter("serve.checkpoint.corruptions", None),
        Some(1)
    );
    assert!(report.jobs[0].requeues >= 1);
    assert!(
        report.log.iter().any(|l| l.contains("corrupt")),
        "log never mentions the corruption:\n{}",
        report.log.join("\n")
    );

    let golden =
        fdk_reconstruct_configured(&job_config(&cfg, &job), &job.projections, None).unwrap();
    assert_bitwise(&golden, &report.volumes[0].1, "job after corrupt slab");

    let (_, replay) = run_once("serve-corrupt-b");
    assert_eq!(report.schedule_text(), replay.schedule_text());
    assert_eq!(report.log, replay.log);
}
