//! `backproject` — wall-clock bench of every back-projection kernel on
//! fixed phantom workloads, written to `BENCH_backproject.json`. See
//! `docs/performance.md` for the schema and the contracts asserted here.

use std::time::Instant;

use scalefbp::substrates::backproject::{
    backproject_reference, backproject_simd, detected_cpu_features, simd_backend, KernelStats,
};
use scalefbp::substrates::exec::{CpuExecutor, Executor, KernelChoice, SimExecutor};
use scalefbp::substrates::filter::{FilterPipeline, FilterWindow};
use scalefbp::substrates::geom::{CbctGeometry, ProjectionMatrix, ProjectionStack, Volume};
use scalefbp::substrates::phantom::{forward_project, uniform_ball};
use scalefbp::substrates::rayon::current_num_threads;
use scalefbp::DeviceSpec;
use scalefbp_bench::{write_json, JsonValue};
use scalefbp_integration::testsupport::assert_bitwise;

/// Deterministic noise floor so the projections are not piecewise-smooth
/// (keeps the bilinear fetches honest). Plain 64-bit LCG, fixed seed.
fn add_noise(stack: &mut ProjectionStack, seed: u64) {
    let mut state = seed;
    for px in stack.data_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Top 24 bits → [0, 1): cheap, deterministic, platform-independent.
        let r = (state >> 40) as f32 / (1u64 << 24) as f32;
        *px += (r - 0.5) * 0.02;
    }
}

struct Workload {
    name: &'static str,
    geom: CbctGeometry,
    filtered: ProjectionStack,
    mats: Vec<ProjectionMatrix>,
}

impl Workload {
    fn new(name: &'static str, n: usize, np: usize, nu: usize, nv: usize) -> Self {
        let geom = CbctGeometry::ideal(n, np, nu, nv);
        let mut projections = forward_project(&geom, &uniform_ball(&geom, 0.5, 1.0));
        add_noise(&mut projections, 0x5EED_CBC7_2021);
        // Benchmark the kernels on filtered rows, as the drivers run them.
        let pipeline = FilterPipeline::new(&geom, FilterWindow::RamLak);
        pipeline.filter_stack(&mut projections);
        let mats = ProjectionMatrix::full_scan(&geom);
        Workload {
            name,
            geom,
            filtered: projections,
            mats,
        }
    }
}

struct KernelRun {
    kernel: &'static str,
    secs: f64,
    stats: KernelStats,
    /// `None` for the oracle itself.
    bit_identical_to_reference: Option<bool>,
}

impl KernelRun {
    fn gups(&self) -> f64 {
        self.stats.updates as f64 / self.secs.max(1e-12) / 1e9
    }
}

/// Best-of-`reps` timing of one kernel; returns the volume of the last
/// run for the bit-identity check (every rep produces the same bits).
fn time_kernel<F>(reps: usize, geom: &CbctGeometry, f: F) -> (f64, KernelStats, Volume)
where
    F: Fn(&mut Volume) -> KernelStats,
{
    let mut best = f64::INFINITY;
    let mut vol = Volume::zeros(geom.nx, geom.ny, geom.nz);
    let mut stats = KernelStats::default();
    for _ in 0..reps.max(1) {
        let mut v = Volume::zeros(geom.nx, geom.ny, geom.nz);
        let t = Instant::now();
        stats = f(&mut v);
        best = best.min(t.elapsed().as_secs_f64());
        vol = v;
    }
    (best, stats, vol)
}

/// Gate before any timing is reported: the `sim` and `cpu` executor
/// backends must agree bit for bit on this workload's back-projection.
/// The wall-clock numbers below are measured on the native host path
/// (the `cpu` backend's compute), so a sim/cpu divergence would make
/// the recorded `backend` field a lie — refuse to report instead.
fn assert_backend_agreement(w: &Workload) {
    let g = &w.geom;
    let sim = SimExecutor::new(DeviceSpec::v100_16gb());
    let cpu = CpuExecutor::new();
    let mut sim_vol = Volume::zeros(g.nx, g.ny, g.nz);
    let mut cpu_vol = Volume::zeros(g.nx, g.ny, g.nz);
    sim.backproject(KernelChoice::default(), &w.filtered, &w.mats, &mut sim_vol)
        .expect("sim backend back-projection");
    cpu.backproject(KernelChoice::default(), &w.filtered, &w.mats, &mut cpu_vol)
        .expect("cpu backend back-projection");
    assert_bitwise(
        &sim_vol,
        &cpu_vol,
        &format!("{}: sim vs cpu executor backends", w.name),
    );
}

fn bench_backproject(w: &Workload, reps: usize) -> Vec<KernelRun> {
    let g = &w.geom;
    let stack = &w.filtered;
    let mats = &w.mats;
    assert_backend_agreement(w);

    // The oracle is timed once: it is the same arithmetic, an order of
    // magnitude slower, and only its bits matter here.
    let (ref_secs, ref_stats, oracle) =
        time_kernel(1, g, |v| backproject_reference(stack, mats, v));
    let (simd_secs, simd_stats, simd_vol) =
        time_kernel(reps, g, |v| backproject_simd(stack, mats, v));
    assert_eq!(
        simd_vol.data(),
        oracle.data(),
        "{}: simd kernel ({} backend) diverged from reference — refusing to report its timing",
        w.name,
        simd_backend().name()
    );
    vec![
        KernelRun {
            kernel: "reference",
            secs: ref_secs,
            stats: ref_stats,
            bit_identical_to_reference: None,
        },
        KernelRun {
            kernel: "simd",
            secs: simd_secs,
            stats: simd_stats,
            bit_identical_to_reference: Some(true),
        },
    ]
}

fn kernel_json(r: &KernelRun) -> JsonValue {
    JsonValue::object([
        ("kernel", r.kernel.into()),
        ("secs", r.secs.into()),
        ("updates", r.stats.updates.into()),
        ("gups", r.gups().into()),
        (
            "bit_identical_to_reference",
            r.bit_identical_to_reference.into(),
        ),
    ])
}

fn backproject_json(results: &[(&Workload, Vec<KernelRun>)], quick: bool) -> JsonValue {
    let workloads = results.iter().map(|(w, runs)| {
        let g = &w.geom;
        JsonValue::object([
            ("name", w.name.into()),
            ("nx", g.nx.into()),
            ("ny", g.ny.into()),
            ("nz", g.nz.into()),
            ("np", g.np.into()),
            ("nu", g.nu.into()),
            ("nv", g.nv.into()),
            (
                "kernels",
                runs.iter().map(kernel_json).collect::<Vec<_>>().into(),
            ),
        ])
    });
    JsonValue::object([
        ("benchmark", "backproject".into()),
        ("quick", quick.into()),
        // The executor backend the wall-clock timings run on. Always `cpu`
        // (native host kernels); sim/cpu bitwise agreement is asserted
        // in-process before any timing is reported.
        ("backend", "cpu".into()),
        ("simd_backend", simd_backend().name().into()),
        // The parallel kernels' thread budget: `gups` is per process.
        ("threads", current_num_threads().into()),
        ("detected_features", detected_cpu_features().into()),
        ("workloads", workloads.collect::<Vec<_>>().into()),
    ])
}

pub fn run(opts: &crate::Options) {
    let reps = opts.reps.unwrap_or(if opts.quick { 1 } else { 2 });
    let workloads: Vec<Workload> = if opts.quick {
        vec![Workload::new("ball-quick-32", 32, 24, 64, 48)]
    } else {
        vec![
            Workload::new("ball-128", 128, 48, 192, 192),
            Workload::new("ball-256", 256, 48, 320, 320),
        ]
    };
    eprintln!("  {} workload(s), best of {reps} rep(s)", workloads.len());

    let mut results = Vec::new();
    for w in &workloads {
        eprintln!(
            "  {}: {}³ volume, {} projections of {}×{}",
            w.name, w.geom.nx, w.geom.np, w.geom.nu, w.geom.nv
        );
        let runs = bench_backproject(w, reps);
        for r in &runs {
            eprintln!(
                "    bp/{:<12} {:>9.4}s  ({:.3} GUPS)",
                r.kernel,
                r.secs,
                r.gups()
            );
        }
        results.push((w, runs));
    }

    write_json(
        &opts.out_dir,
        "BENCH_backproject.json",
        &backproject_json(&results, opts.quick),
    );

    for (w, runs) in &results {
        let secs_of = |name: &str| runs.iter().find(|r| r.kernel == name).map(|r| r.secs);
        if let (Some(r), Some(s)) = (secs_of("reference"), secs_of("simd")) {
            println!(
                "{}: simd {:.2}x vs reference ({} backend)",
                w.name,
                r / s.max(1e-12),
                simd_backend().name()
            );
        }
    }
}
