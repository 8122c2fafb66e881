//! `straggler` — the slow-device economics sweep (speculative
//! re-execution on the analytic distributed model, hedged dispatch in
//! the serve DES), written to `BENCH_straggler.json`. Model time only,
//! hence byte-reproducible. See `docs/fault-model.md`, `docs/serving.md`.

use std::path::Path;

use scalefbp::substrates::geom::{CbctGeometry, DatasetPreset, RankLayout};
use scalefbp::substrates::perfmodel::MachineParams;
use scalefbp::timing::{simulate_distributed, straggler_comparison};
use scalefbp::{DeviceSpec, FdkConfig, MetricsRegistry, ReduceMode};
use scalefbp_bench::{json_record, write_json, JsonValue};
use scalefbp_integration::testsupport::fresh_dir;
use scalefbp_serve::{generate, FleetFaultPlan, Scheduler, ServeConfig, WorkloadSpec};

json_record! {
    /// One slow-factor point of the distributed straggler-economics sweep.
    struct StragglerPoint {
        slow_factor: f64,
        wait_wall_secs: f64,
        speculative_wall_secs: f64,
        speedup: f64,
        wasted_gpu_secs_segmented: f64,
        wasted_gpu_secs_global: f64,
    }

    /// One serve DES cell (hedging on or off) under the same seeded plan.
    struct ServeHedgeCell {
        hedging: bool,
        completed: usize,
        makespan_nanos: u64,
        p99_latency_nanos: u64,
        stragglers: u64,
        hedges_issued: u64,
        hedges_won: u64,
        hedges_wasted: u64,
    }
}

/// **Distributed** — for each slow factor `f`, compares two recovery
/// policies on the paper's segmented decomposition: *wait-it-out* (the
/// straggling group runs at its slowest member's pace, `f×`) against
/// *speculative re-execution* (the leader re-queues the chunk onto a
/// healthy peer after one derived deadline of `timeout_scale ×` the
/// modelled batch, so the slow path is capped at
/// `min(f, timeout_scale + 1)` — detection plus one healthy recompute;
/// first result wins, so speculation can never lose). The win for
/// `f > timeout_scale + 1` is asserted in-process, as is the wasted-GPU
/// advantage of the segmented decomposition over a global collective.
///
/// **Serve** — replays one seeded slow-device fleet plan through the
/// scheduler DES with hedging on and off; the hedged makespan must not
/// exceed the unhedged one and every cell must replay byte-identically.
///
/// Everything is model time — no wall clocks — so
/// `BENCH_straggler.json` is byte-reproducible run to run.
pub fn run(opts: &crate::Options) {
    let (quick, out_dir) = (opts.quick, opts.out_dir.as_str());
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let machine = MachineParams::abci_v100();
    let timeout_scale = FdkConfig::new(CbctGeometry::ideal(8, 8, 8, 8)).timeout_scale;
    let preset = DatasetPreset::by_name("coffee_bean").expect("coffee_bean preset");
    let (geom, layout) = if quick {
        (preset.scaled(2).geometry, RankLayout::new(4, 4, 8))
    } else {
        (preset.geometry, RankLayout::new(16, 8, 8))
    };
    let factors: &[f64] = if quick {
        &[2.0, 4.0, 8.0]
    } else {
        &[2.0, 3.0, 4.0, 6.0, 8.0]
    };

    // The speculative path: the straggler's chunk is re-queued onto a
    // healthy peer after one derived deadline (timeout_scale × the
    // modelled batch); the peer's recompute adds one more healthy batch.
    // First result wins, so the effective per-batch slowdown is
    // min(f, timeout_scale + 1).
    let mut points = Vec::new();
    for &f in factors {
        let (wait_wall, wasted_seg, wasted_global) =
            straggler_comparison(&geom, layout, &machine, ReduceMode::default(), f);
        let spec_factor = f.min(timeout_scale + 1.0);
        let spec_wall = simulate_distributed(&geom, layout, &machine, ReduceMode::default(), spec_factor)
            .measured_secs
            .min(wait_wall);
        assert!(
            spec_wall <= wait_wall + 1e-12,
            "speculation must never lose (first result wins): f={f}"
        );
        if f > timeout_scale + 1.0 {
            assert!(
                spec_wall < wait_wall,
                "speculation must beat wait-it-out at f={f}: {spec_wall} vs {wait_wall}"
            );
        }
        assert!(
            wasted_seg < wasted_global,
            "segmented decomposition must waste less GPU time than a global collective"
        );
        let point = StragglerPoint {
            slow_factor: f,
            wait_wall_secs: wait_wall,
            speculative_wall_secs: spec_wall,
            speedup: wait_wall / spec_wall.max(1e-12),
            wasted_gpu_secs_segmented: wasted_seg,
            wasted_gpu_secs_global: wasted_global,
        };
        eprintln!(
            "  distributed f={f}: wait {:.2} s, speculative {:.2} s ({:.2}×), \
             wasted GPU·s {:.0} (segmented) vs {:.0} (global)",
            point.wait_wall_secs,
            point.speculative_wall_secs,
            point.speedup,
            point.wasted_gpu_secs_segmented,
            point.wasted_gpu_secs_global
        );
        points.push(point);
    }
    // Wait-it-out degrades with f; the speculative wall is capped.
    for w in points.windows(2) {
        assert!(w[1].wait_wall_secs >= w[0].wait_wall_secs - 1e-12);
        assert!(w[1].speculative_wall_secs <= points[0].wait_wall_secs * (timeout_scale + 1.0));
    }

    // Serve: one seeded slow-device plan, hedging on vs off. Model time
    // only, asserted deterministic by double-run byte comparison.
    let serve_seed: u64 = 0x57A6;
    // The full fleet is sized with headroom: hedging only duplicates
    // in-flight work onto devices the dispatcher would otherwise leave
    // idle, so a fleet saturated by its backlog (queue never empty)
    // never hedges by design.
    let devices = if quick { 4 } else { 8 };
    let tenants = 3;
    let jobs = if quick { 16 } else { 48 };
    let rate = 800.0;
    let horizon = (jobs as f64 / rate * 1e9) as u64;
    let plan = FleetFaultPlan::generate_stragglers(serve_seed, devices, 2, 4, horizon);
    assert!(
        !plan.slowdowns.is_empty(),
        "seeded plan produced no slowdowns"
    );
    let spec = WorkloadSpec::new(serve_seed, tenants, jobs, rate);
    // Batches in this workload live 5–20 ms of model time, so the
    // default 50 ms aging limit would outlast every job and no batch
    // would ever qualify for a hedge; 2 ms makes a detected straggler's
    // batch hedge-eligible as soon as its overrun is confirmed.
    let aging_nanos = 2_000_000;
    let mut cells = Vec::new();
    for hedging in [true, false] {
        let mut exports: Vec<String> = Vec::new();
        let mut report = None;
        for rep in 0..2 {
            let root = fresh_dir(
                Path::new(out_dir),
                &format!("straggler-serve-{hedging}-{rep}"),
            );
            let cfg = ServeConfig::new(devices, DeviceSpec::tiny(300_000), root)
                .with_aging_nanos(aging_nanos)
                .with_faults(plan.clone())
                .with_hedging(hedging);
            let r = Scheduler::new(cfg, MetricsRegistry::new())
                .run(generate(&spec))
                .expect("serve straggler run");
            exports.push(format!("{}{}", r.schedule_text(), r.metrics.to_json()));
            report = Some(r);
        }
        assert_eq!(
            exports[0], exports[1],
            "serve straggler replay (hedging={hedging}) is not byte-identical"
        );
        let r = report.unwrap();
        assert_eq!(r.jobs.len(), jobs, "stragglers must not lose jobs");
        assert!(r.stranded.is_empty());
        let counter = |name: &str| r.metrics.counter(name, None).unwrap_or(0);
        let cell = ServeHedgeCell {
            hedging,
            completed: r.jobs.len(),
            makespan_nanos: r.makespan_nanos,
            p99_latency_nanos: r.latency_quantile_nanos(0.99, None).unwrap_or(0),
            stragglers: counter("serve.stragglers"),
            hedges_issued: counter("serve.hedges.issued"),
            hedges_won: counter("serve.hedges.won"),
            hedges_wasted: counter("serve.hedges.wasted"),
        };
        assert!(cell.stragglers >= 1, "slow devices were never detected");
        if hedging {
            assert!(cell.hedges_issued >= 1, "hedging on but no hedges issued");
        } else {
            assert_eq!(cell.hedges_issued, 0, "hedging off but hedges issued");
        }
        eprintln!(
            "  serve hedging={hedging}: makespan {:.1} ms, p99 {:.1} ms, \
             stragglers {}, hedges {}/{} won/issued",
            cell.makespan_nanos as f64 / 1e6,
            cell.p99_latency_nanos as f64 / 1e6,
            cell.stragglers,
            cell.hedges_won,
            cell.hedges_issued
        );
        cells.push(cell);
    }
    let (hedged, unhedged) = (&cells[0], &cells[1]);
    assert!(
        hedged.makespan_nanos <= unhedged.makespan_nanos,
        "hedging worsened the makespan: {} vs {}",
        hedged.makespan_nanos,
        unhedged.makespan_nanos
    );

    let json = JsonValue::object([
        ("benchmark", "straggler".into()),
        ("quick", quick.into()),
        (
            "distributed",
            JsonValue::object([
                ("dataset", "coffee_bean".into()),
                ("machine", "abci_v100".into()),
                ("nr", layout.nr.into()),
                ("ng", layout.ng.into()),
                ("nc", layout.nc.into()),
                ("timeout_scale", timeout_scale.into()),
                ("points", points.clone().into()),
            ]),
        ),
        (
            "serve",
            JsonValue::object([
                ("seed", serve_seed.into()),
                ("devices", devices.into()),
                ("jobs", jobs.into()),
                ("aging_nanos", aging_nanos.into()),
                ("cells", cells.clone().into()),
            ]),
        ),
    ]);
    write_json(out_dir, "BENCH_straggler.json", &json);
    println!(
        "straggler: {} distributed points (speculation up to {:.2}× faster than \
         wait-it-out), serve hedging saves {:.1}% makespan",
        points.len(),
        points.iter().map(|p| p.speedup).fold(0.0_f64, f64::max),
        (1.0 - hedged.makespan_nanos as f64 / unhedged.makespan_nanos.max(1) as f64) * 100.0
    );
}
