//! Reconstruction-as-a-service scheduler: determinism, numerics, and
//! admission-control integration tests.
//!
//! The contract under test (see `docs/serving.md`): a seeded workload
//! replays to **byte-identical** schedule and metrics exports; every
//! admitted job's volume is **bitwise** identical to a standalone
//! [`fdk_reconstruct_configured`] run of the same configuration (the
//! scheduler may batch, slice, preempt, and migrate, but never perturb
//! numerics); jobs that would push the fleet backlog past the global
//! memory budget are rejected at admission, not dropped later.

use std::sync::Arc;

use scalefbp::{fdk_reconstruct_configured, MetricsRegistry};
use scalefbp_gpusim::DeviceSpec;
use scalefbp_integration::testsupport::{assert_bitwise, assert_snapshots_match, scratch_dir};
use scalefbp_phantom::{forward_project, uniform_ball};
use scalefbp_serve::{
    generate, job_config, scan_geometry, DeviceKill, FleetFaultPlan, JobClass, JobSpec,
    RejectReason, Scheduler, ServeConfig, ServeReport, WorkloadSpec,
};

fn fleet(tag: &str, devices: usize) -> ServeConfig {
    ServeConfig::new(devices, DeviceSpec::tiny(300_000), scratch_dir(tag))
}

fn run(cfg: ServeConfig, spec: &WorkloadSpec) -> ServeReport {
    Scheduler::new(cfg, MetricsRegistry::new())
        .run(generate(spec))
        .expect("scheduler run")
}

/// The canonical export of one run: schedule text plus the metrics
/// snapshot JSON — everything the determinism contract covers.
fn export(report: &ServeReport) -> String {
    format!("{}{}", report.schedule_text(), report.metrics.to_json())
}

#[test]
fn same_seed_replays_to_byte_identical_exports() {
    let spec = WorkloadSpec::new(11, 3, 20, 400.0);
    let a = run(fleet("serve-det-a", 4), &spec);
    let b = run(fleet("serve-det-b", 4), &spec);
    assert_eq!(
        export(&a),
        export(&b),
        "same seed must replay byte-identically"
    );
    // The shared helper gives a metric-level diff on regression, where
    // the byte compare above only says "something differed".
    assert_snapshots_match(&a.metrics, &b.metrics, &[], "seeded replay");
    assert_eq!(a.jobs.len(), 20);
    assert!(a.rejections.is_empty() && a.stranded.is_empty());

    // And the export is actually seed-sensitive, not constant.
    let c = run(
        fleet("serve-det-c", 4),
        &WorkloadSpec::new(12, 3, 20, 400.0),
    );
    assert_ne!(export(&a), export(&c), "different seed, identical export");
}

#[test]
fn every_job_is_bitwise_identical_to_a_standalone_run() {
    // Mixed workload: ids 4 and 9 are long out-of-core jobs that get
    // sliced and preempted; the rest are batched small jobs.
    let spec = WorkloadSpec::new(5, 2, 10, 300.0);
    let cfg = fleet("serve-bitwise", 2).keeping_volumes();
    let jobs = generate(&spec);
    let report = Scheduler::new(cfg.clone(), MetricsRegistry::new())
        .run(jobs.clone())
        .expect("scheduler run");
    assert_eq!(report.jobs.len(), 10, "all jobs must complete");
    assert_eq!(report.volumes.len(), 10);
    assert!(
        report
            .jobs
            .iter()
            .any(|j| j.class == "long" && j.slices > 1),
        "expected at least one sliced long job"
    );

    for (id, volume) in &report.volumes {
        let job = jobs.iter().find(|j| j.id == *id).unwrap();
        let golden = fdk_reconstruct_configured(&job_config(&cfg, job), &job.projections, None)
            .expect("standalone reconstruction");
        assert_bitwise(&golden, volume, &format!("job {id} ({})", job.class.name()));
    }
}

#[test]
fn admission_rejects_past_the_memory_budget() {
    // All arrivals land near-simultaneously (huge rate) and the budget
    // holds roughly two small working sets, so the backlog must fill
    // and later arrivals must bounce with a memory-budget rejection.
    let spec = WorkloadSpec::new(3, 2, 12, 1e6).small_only();
    let ws = {
        let g = scan_geometry(spec.small_n);
        (g.projection_bytes() + g.volume_bytes()) as u64 + (g.np * 12 * 4) as u64
    };
    let cfg = fleet("serve-budget", 2).with_memory_budget(ws * 2 + ws / 2);
    let report = run(cfg, &spec);

    assert!(
        !report.rejections.is_empty(),
        "saturated budget produced no rejections"
    );
    assert_eq!(report.jobs.len() + report.rejections.len(), 12);
    for r in &report.rejections {
        match &r.reason {
            RejectReason::MemoryBudget {
                requested,
                available,
            } => assert!(requested > available),
            other => panic!("expected a memory-budget rejection, got {other}"),
        }
    }
    assert_eq!(
        report.metrics.counter("serve.jobs.rejected", None),
        Some(report.rejections.len() as u64)
    );
    let per_tenant: u64 = (0..2)
        .filter_map(|t| {
            report
                .metrics
                .counter("serve.tenant.jobs.rejected", Some(t))
        })
        .sum();
    assert_eq!(per_tenant, report.rejections.len() as u64);
    assert_eq!(
        report.metrics.counter("serve.jobs.completed", None),
        Some(report.jobs.len() as u64)
    );
}

#[test]
fn preempted_long_job_migrates_across_devices_bitwise() {
    // One long job, alone on a two-device fleet. Device 0 (always the
    // dispatch choice while alive) is killed right after the first
    // slice starts, so the job must be requeued and resume from its
    // checkpoint on device 1 — a cross-device migration.
    let geom = scan_geometry(16);
    let projections = Arc::new(forward_project(&geom, &uniform_ball(&geom, 0.55, 1.0)));
    let job = JobSpec {
        id: 0,
        tenant: 0,
        arrival_nanos: 0,
        class: JobClass::Long {
            nc: 6,
            slice_slabs: 1,
        },
        geom,
        projections: projections.clone(),
    };
    let faults = FleetFaultPlan {
        kills: vec![DeviceKill {
            device: 0,
            at_nanos: 1,
        }],
        ..Default::default()
    };
    let cfg = fleet("serve-migrate", 2)
        .with_faults(faults)
        .keeping_volumes();
    let report = Scheduler::new(cfg.clone(), MetricsRegistry::new())
        .run(vec![job.clone()])
        .expect("scheduler run");

    assert_eq!(report.jobs.len(), 1);
    let rec = &report.jobs[0];
    assert!(
        rec.migrated() && rec.devices.contains(&0) && rec.devices.contains(&1),
        "job never migrated: devices {:?}",
        rec.devices
    );
    assert!(rec.requeues >= 1, "kill must requeue the in-flight slice");
    assert!(
        report
            .metrics
            .counter("serve.migrations", None)
            .unwrap_or(0)
            >= 1,
        "serve.migrations not recorded"
    );
    assert_eq!(report.metrics.counter("serve.device.kills", None), Some(1));
    assert!(!report.device_alive[0] && report.device_alive[1]);

    let golden = fdk_reconstruct_configured(&job_config(&cfg, &job), &projections, None).unwrap();
    assert_bitwise(&golden, &report.volumes[0].1, "migrated long job");
}
