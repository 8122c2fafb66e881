//! `serve` — the reconstruction-as-a-service load generator: seeded
//! multi-tenant arrival rates from light load past fleet saturation,
//! written to `BENCH_serve.json` + `serve_metrics.json`. See
//! `docs/serving.md`.

use std::path::Path;

use scalefbp::{DeviceSpec, MetricsRegistry};
use scalefbp_bench::{json_record, write_json, JsonValue};
use scalefbp_integration::testsupport::fresh_dir;
use scalefbp_serve::{generate, job_service_secs, Scheduler, ServeConfig, WorkloadSpec};

json_record! {
    struct TenantRow {
        tenant: usize,
        completed: u64,
        p99_latency_nanos: u64,
    }

    /// One arrival-rate point of the serve sweep.
    struct ServePoint {
        load_factor: f64,
        rate_hz: f64,
        jobs: usize,
        completed: usize,
        rejected: usize,
        preemptions: u64,
        migrations: u64,
        p50_latency_nanos: u64,
        p99_latency_nanos: u64,
        mean_utilisation: f64,
        makespan_nanos: u64,
        queue_depth_peak: f64,
        tenants: Vec<TenantRow>,
    }
}

/// Sweeps seeded arrival rates from light load past saturation on a
/// fixed simulated fleet. Each rate is run **twice** and the canonical
/// schedule text plus the metrics export must be byte-identical across
/// the two runs — the determinism contract — before the point is
/// recorded. The saturation shape (p99 latency and utilisation both
/// rising with load, utilisation never above 1) is asserted in-process
/// before `BENCH_serve.json` is written; the full per-tenant metrics
/// snapshot of the heaviest point lands in `serve_metrics.json`.
pub fn run(opts: &crate::Options) {
    let (quick, out_dir) = (opts.quick, opts.out_dir.as_str());
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let seed: u64 = 0x5EED_5E12;
    let devices = 4;
    let tenants = 3;
    let device = DeviceSpec::tiny(300_000);
    let jobs = if quick { 24 } else { 72 };
    let load_factors: &[f64] = if quick {
        &[0.3, 1.2, 2.4]
    } else {
        &[0.3, 0.6, 1.2, 2.4]
    };

    // Capacity estimate: mean modelled service seconds over the
    // workload mix → the fleet saturates near `devices / mean_secs`.
    let probe_cfg = ServeConfig::new(
        devices,
        device.clone(),
        fresh_dir(Path::new(out_dir), "serve-ckpt-probe"),
    );
    let probe = generate(&WorkloadSpec::new(seed, tenants, 10, 1.0));
    let mean_secs = probe
        .iter()
        .map(|j| job_service_secs(&probe_cfg, j))
        .sum::<f64>()
        / probe.len() as f64;
    let capacity_hz = devices as f64 / mean_secs;
    eprintln!(
        "  fleet capacity ≈ {capacity_hz:.1} jobs/s (mean service {:.1} ms)",
        mean_secs * 1e3
    );

    let mut points = Vec::new();
    let mut heaviest_metrics_json = String::new();
    for (ri, &lf) in load_factors.iter().enumerate() {
        let rate = capacity_hz * lf;
        let spec = WorkloadSpec::new(seed, tenants, jobs, rate);
        let mut exports: Vec<String> = Vec::new();
        let mut report = None;
        for rep in 0..2 {
            let root = fresh_dir(Path::new(out_dir), &format!("serve-ckpt-{ri}-{rep}"));
            let cfg = ServeConfig::new(devices, device.clone(), root);
            let r = Scheduler::new(cfg, MetricsRegistry::new())
                .run(generate(&spec))
                .expect("serve sweep run");
            exports.push(format!("{}{}", r.schedule_text(), r.metrics.to_json()));
            report = Some(r);
        }
        assert_eq!(
            exports[0], exports[1],
            "serve sweep at load {lf}: replay is not byte-identical"
        );
        let r = report.unwrap();
        assert!(
            r.stranded.is_empty(),
            "serve sweep at load {lf}: stranded jobs"
        );
        let per_tenant = (0..tenants)
            .map(|t| TenantRow {
                tenant: t,
                completed: r
                    .metrics
                    .counter("serve.tenant.jobs.completed", Some(t))
                    .unwrap_or(0),
                p99_latency_nanos: r.latency_quantile_nanos(0.99, Some(t)).unwrap_or(0),
            })
            .collect();
        let point = ServePoint {
            load_factor: lf,
            rate_hz: rate,
            jobs,
            completed: r.jobs.len(),
            rejected: r.rejections.len(),
            preemptions: r.metrics.counter("serve.preemptions", None).unwrap_or(0),
            migrations: r.metrics.counter("serve.migrations", None).unwrap_or(0),
            p50_latency_nanos: r.latency_quantile_nanos(0.50, None).unwrap_or(0),
            p99_latency_nanos: r.latency_quantile_nanos(0.99, None).unwrap_or(0),
            mean_utilisation: r.mean_utilisation(),
            makespan_nanos: r.makespan_nanos,
            queue_depth_peak: r
                .metrics
                .gauge("serve.queue.depth.peak", None)
                .unwrap_or(0.0),
            tenants: per_tenant,
        };
        eprintln!(
            "  load {lf:.1}× ({rate:.1} jobs/s): {} done, {} rejected, p99 {:.1} ms, util {:.2}",
            point.completed,
            point.rejected,
            point.p99_latency_nanos as f64 / 1e6,
            point.mean_utilisation
        );
        heaviest_metrics_json = r.metrics.to_json();
        points.push(point);
    }

    // The saturation shape, asserted before anything is written.
    let (lo, hi) = (points.first().unwrap(), points.last().unwrap());
    assert!(
        hi.p99_latency_nanos > lo.p99_latency_nanos,
        "p99 did not rise with load ({} → {})",
        lo.p99_latency_nanos,
        hi.p99_latency_nanos
    );
    assert!(
        hi.mean_utilisation > lo.mean_utilisation,
        "utilisation did not rise with load ({} → {})",
        lo.mean_utilisation,
        hi.mean_utilisation
    );
    for p in &points {
        assert!(
            p.mean_utilisation <= 1.0 + 1e-9,
            "utilisation above 1 at load {}",
            p.load_factor
        );
        assert!(p.completed + p.rejected == p.jobs, "jobs lost in the run");
    }

    let doc = JsonValue::object([
        ("benchmark", "serve".into()),
        ("quick", quick.into()),
        ("seed", seed.into()),
        ("devices", devices.into()),
        ("tenants", tenants.into()),
        ("points", points.clone().into()),
    ]);
    write_json(out_dir, "BENCH_serve.json", &doc);
    // The registry's own byte-pinned `scalefbp-metrics-v1` export.
    let metrics_path = format!("{out_dir}/serve_metrics.json");
    std::fs::write(&metrics_path, &heaviest_metrics_json).expect("write serve_metrics.json");
    eprintln!("wrote {metrics_path}");
    println!(
        "serve: {} rate points, deterministic replay, p99 {:.1} ms → {:.1} ms across the sweep",
        points.len(),
        points.first().unwrap().p99_latency_nanos as f64 / 1e6,
        points.last().unwrap().p99_latency_nanos as f64 / 1e6
    );
}
