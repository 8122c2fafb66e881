//! `scalefbp-bench` — the reproducible kernel benchmark harness.
//!
//! Runs fixed phantom workloads through every back-projection kernel
//! (reference / simd / simd-batched), then emits machine-readable JSON:
//!
//! * `BENCH_backproject.json` — per-workload, per-kernel wall seconds,
//!   performed updates, GUPS, the bitwise verdict against the `reference`
//!   oracle, the SIMD backend and CPU features the run detected, and the
//!   drift-contract bounds `simd-batched` was asserted against
//!   in-process.
//!
//! (Filter throughput is measured by the root benchmark:
//! `filter.stack_s`, `filter.rows_per_s` and `fft.row_us` in
//! `BENCHMARK.json`.)
//!
//! ```text
//! cargo run --release -p scalefbp-bench --bin scalefbp-bench
//!     [-- --quick] [-- --out-dir DIR] [-- --reps N]
//! cargo run --release -p scalefbp-bench --bin scalefbp-bench
//!     -- scaling [--quick] [--out-dir DIR]
//! cargo run --release -p scalefbp-bench --bin scalefbp-bench
//!     -- chaos [--quick] [--out-dir DIR]
//! cargo run --release -p scalefbp-bench --bin scalefbp-bench
//!     -- serve [--quick] [--out-dir DIR]
//! cargo run --release -p scalefbp-bench --bin scalefbp-bench
//!     -- iterative [--quick] [--out-dir DIR]
//! ```
//!
//! The `straggler` subcommand is the slow-device economics sweep: it
//! compares wait-it-out against speculative re-execution on the
//! analytic distributed model across a grid of slow factors (asserting
//! in-process that speculation wins past `timeout_scale + 1` and that
//! the segmented decomposition wastes less GPU time than a global
//! collective), then replays a seeded slow-device fleet plan through
//! the serve scheduler DES with hedging on and off. `BENCH_straggler.json`
//! carries only model time, so it is byte-reproducible run to run. See
//! `docs/fault-model.md` and `docs/serving.md`.
//!
//! The `iterative` subcommand is the distributed SIRT/MLEM conformance
//! sweep: every (solver, ranks, reduce-mode) cell is asserted bitwise
//! identical to the serial solver (volume *and* residual history), the
//! segmented cells are asserted inside the chain-model traffic bound,
//! and `BENCH_iterative.json` (wall-clock-free, hence byte-reproducible)
//! records the grid. See `docs/iterative.md`.
//!
//! The `serve` subcommand is the reconstruction-as-a-service load
//! generator: it sweeps seeded multi-tenant arrival rates from light
//! load past fleet saturation through the `scalefbp-serve` scheduler,
//! replays every rate twice to assert byte-identical schedules and
//! metric exports, and emits `BENCH_serve.json` (latency/utilisation
//! curves per rate, per-tenant rollups) plus `serve_metrics.json`
//! (the full metrics snapshot of the heaviest point). See
//! `docs/serving.md`.
//!
//! The `chaos` subcommand is the checkpoint/restart replay harness: it
//! kills an out-of-core run and a segmented fault-tolerant distributed
//! run (under seeded fault plans) after a grid of durable-slab commit
//! counts, resumes each from its checkpoint directory, and asserts
//! in-process that every resumed volume is bitwise identical to the
//! uninterrupted golden run before writing `BENCH_chaos.json` and the
//! `chaos_recovery.log` artifact. `--quick` shrinks the grid to one kill
//! point per mode for CI smoke runs.
//!
//! The `scaling` subcommand sweeps strong and weak scaling to 1024
//! simulated GPUs across the three reduction algorithms
//! (dense / hierarchical / segmented), emitting `BENCH_scaling.json`
//! from the α–β cost model, the Eq-17 projection, and the DES pipeline —
//! entirely analytic, so the JSON is bit-reproducible run to run. The
//! headline acceptance inequalities (segmented per-rank traffic stays at
//! `Nz/p` of the volume while the dense root's ingress grows linearly)
//! are asserted in-process before the file is written.
//!
//! The workloads are deterministic (analytic ball phantom plus an LCG
//! noise floor with a fixed seed), so updates/bytes/bit-identity fields
//! are reproducible run to run; the timings of course are not. `--quick`
//! substitutes a tiny workload for CI smoke runs. Every kernel's volume
//! is compared against the reference oracle's and the bitwise verdict is
//! recorded in the JSON, so a speedup obtained by breaking numerics
//! would show up immediately.

use std::fmt::Write as _;
use std::time::Instant;

use scalefbp::substrates::backproject::contracts::{
    DriftStats, DRIFT_SIGNIFICANCE, SIMD_BATCHED_REL_ABS_BOUND, SIMD_BATCHED_ULP_BOUND,
};
use scalefbp::substrates::backproject::{
    backproject_reference, backproject_simd, backproject_simd_batched, detected_cpu_features,
    simd_backend, KernelStats,
};
use scalefbp::substrates::exec::{CpuExecutor, Executor, KernelChoice, SimExecutor};
use scalefbp::substrates::filter::{FilterPipeline, FilterWindow};
use scalefbp::substrates::geom::{
    CbctGeometry, DatasetPreset, ProjectionMatrix, ProjectionStack, RankLayout, Volume,
};
use scalefbp::substrates::iterative::{Mlem, RayMarchConfig, Sirt};
use scalefbp::substrates::mpisim::CommCostModel;
use scalefbp::substrates::perfmodel::{MachineParams, PerfModel, RunShape};
use scalefbp::substrates::phantom::{forward_project, uniform_ball};
use scalefbp::timing::{
    simulate_distributed_with_mode, simulate_with_stragglers, straggler_comparison,
};
use scalefbp::{
    fault_tolerant_reconstruct, iterative_reconstruct_distributed, CheckpointSpec, DeviceSpec,
    FdkConfig, IterativeConfig, IterativeSolver, MetricsRegistry, OutOfCoreReconstructor,
    ReconstructionError, ReduceMode,
};
use scalefbp_faults::{FaultPlan, FaultScenario};
use scalefbp_integration::testsupport::{assert_bitwise, fresh_dir, kill_points};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_serve::{
    generate, job_service_secs, FleetFaultPlan, Scheduler, ServeConfig, WorkloadSpec,
};
use std::path::Path;

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
    /// Drift vs the oracle for the non-bitwise kernel (`simd-batched`);
    /// `None` for the bitwise family.
    drift: Option<DriftStats>,
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
    let (sb_secs, sb_stats, sb_vol) =
        time_kernel(reps, g, |v| backproject_simd_batched(stack, mats, v));
    let sb_drift = DriftStats::measure(oracle.data(), sb_vol.data(), DRIFT_SIGNIFICANCE);
    assert!(
        sb_drift.within(SIMD_BATCHED_ULP_BOUND, SIMD_BATCHED_REL_ABS_BOUND),
        "{}: simd-batched drift ({} ULP, rel_abs {:.3e}) exceeds the contract \
         ({SIMD_BATCHED_ULP_BOUND} ULP, {SIMD_BATCHED_REL_ABS_BOUND:.0e}) — \
         refusing to report its timing",
        w.name,
        sb_drift.max_ulp_significant,
        sb_drift.rel_abs()
    );
    vec![
        KernelRun {
            kernel: "reference",
            secs: ref_secs,
            stats: ref_stats,
            bit_identical_to_reference: None,
            drift: None,
        },
        KernelRun {
            kernel: "simd",
            secs: simd_secs,
            stats: simd_stats,
            bit_identical_to_reference: Some(true),
            drift: None,
        },
        KernelRun {
            kernel: "simd-batched",
            secs: sb_secs,
            stats: sb_stats,
            bit_identical_to_reference: Some(sb_vol.data() == oracle.data()),
            drift: Some(sb_drift),
        },
    ]
}

fn emit_backproject_json(results: &[(&Workload, Vec<KernelRun>)], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"backproject\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    // The executor backend the wall-clock timings run on. Always `cpu`
    // (native host kernels); the harness asserts sim/cpu bitwise
    // agreement in-process before any timing is reported.
    let _ = writeln!(out, "  \"backend\": \"cpu\",");
    let _ = writeln!(out, "  \"simd_backend\": \"{}\",", simd_backend().name());
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    let _ = writeln!(out, "  \"detected_features\": [{}],", features.join(", "));
    // The drift contract the non-bitwise numbers below were asserted
    // against before being written (see the backproject contracts module).
    out.push_str("  \"contracts\": {\n");
    let _ = writeln!(out, "    \"drift_significance\": {DRIFT_SIGNIFICANCE},");
    let _ = writeln!(
        out,
        "    \"simd_batched_ulp_bound\": {SIMD_BATCHED_ULP_BOUND},"
    );
    let _ = writeln!(
        out,
        "    \"simd_batched_rel_abs_bound\": {SIMD_BATCHED_REL_ABS_BOUND:e}"
    );
    out.push_str("  },\n");
    out.push_str("  \"workloads\": [\n");
    for (wi, (w, runs)) in results.iter().enumerate() {
        out.push_str("    {\n");
        let g = &w.geom;
        let _ = writeln!(
            out,
            "      \"name\": \"{}\",\n      \"nx\": {}, \"ny\": {}, \"nz\": {},\n      \"np\": {}, \"nu\": {}, \"nv\": {},",
            w.name, g.nx, g.ny, g.nz, g.np, g.nu, g.nv
        );
        out.push_str("      \"kernels\": [\n");
        for (i, r) in runs.iter().enumerate() {
            let gups = r.stats.updates as f64 / r.secs.max(1e-12) / 1e9;
            let bit = match r.bit_identical_to_reference {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let drift = match &r.drift {
                Some(d) => format!(
                    ", \"drift_ulp_significant\": {}, \"drift_rel_abs\": {:.3e}, \"drift_rel_rmse\": {:.3e}",
                    d.max_ulp_significant,
                    d.rel_abs(),
                    d.rel_rmse()
                ),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "        {{\"kernel\": \"{}\", \"secs\": {:.6}, \"updates\": {}, \"gups\": {:.4}, \"bit_identical_to_reference\": {}{}}}{}",
                r.kernel,
                r.secs,
                r.stats.updates,
                gups,
                bit,
                drift,
                if i + 1 < runs.len() { "," } else { "" }
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(
            out,
            "    }}{}",
            if wi + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Seed recorded in `BENCH_scaling.json`. The sweep is fully analytic
/// (cost model + Eq 17 + DES, no sampling), so this seed identifies the
/// deterministic configuration rather than an RNG stream.
const SCALING_SEED: u64 = 0x5EED_CBC7_2021;

struct ScalingModePoint {
    mode: &'static str,
    collective_secs: f64,
    eq17_secs: f64,
    des_makespan_secs: f64,
    root_ingress_bytes: u64,
    per_rank_recv_bytes: u64,
}

struct ScalingPoint {
    gpus: usize,
    nr: usize,
    ng: usize,
    nz: usize,
    volume_bytes: u64,
    subvolume_bytes: u64,
    chunk_bytes: u64,
    recv_bound_bytes: u64,
    modes: Vec<ScalingModePoint>,
}

/// One sweep point: all three reduce modes on an `N_r × N_g` layout.
///
/// Communication quantities follow the driver exactly: each group reduces
/// its `⌈Nz/N_g⌉`-slice sub-volume over its `N_r` ranks, in
/// one-z-slice chunks (`chunk = nx·ny·4` bytes, the driver's stride).
fn scaling_point(
    geom: &CbctGeometry,
    nr: usize,
    ng: usize,
    machine: &MachineParams,
    cost: &CommCostModel,
) -> ScalingPoint {
    let gpus = nr * ng;
    let stride_bytes = (geom.nx * geom.ny * 4) as u64;
    let volume_bytes = stride_bytes * geom.nz as u64;
    let sub_z = geom.nz.div_ceil(ng);
    let subvolume_bytes = stride_bytes * sub_z as u64;
    let chunk_bytes = stride_bytes;
    // Largest owner segment a rank receives from the segmented
    // reduce-scatter (the `mpisim.segreduce.owner.bytes` quantity).
    let owner_bytes = stride_bytes * sub_z.div_ceil(nr) as u64;
    // Acceptance bound: ⌈Nz/p⌉/Nz of the volume plus one chunk of
    // rounding slack from the nested group/rank ceilings.
    let recv_bound_bytes = stride_bytes * geom.nz.div_ceil(gpus) as u64 + chunk_bytes;

    let layout = RankLayout::new(nr, ng, 8);
    let shape = RunShape {
        geom: geom.clone(),
        layout,
    };
    let model = PerfModel::new(*machine);
    // Inter-node rounds the hierarchical tree's root link carries
    // (4 ranks per node, as in CommCostModel::hierarchical_reduce_secs).
    let rounds = if nr > 1 {
        let leaders = nr.div_ceil(4).max(1);
        (leaders.next_power_of_two().trailing_zeros() as u64).max(1)
    } else {
        0
    };

    let modes = ReduceMode::ALL
        .iter()
        .map(|&mode| {
            let (collective_secs, ingress) = match mode {
                ReduceMode::Dense => (
                    cost.dense_reduce_secs(subvolume_bytes, nr),
                    CommCostModel::dense_root_ingress_bytes(subvolume_bytes, nr),
                ),
                ReduceMode::Hierarchical => (
                    cost.hierarchical_reduce_secs(subvolume_bytes, nr, 4, 8.0),
                    rounds * subvolume_bytes,
                ),
                ReduceMode::Segmented => (
                    cost.segmented_reduce_secs(subvolume_bytes, nr, chunk_bytes),
                    owner_bytes,
                ),
            };
            let sim = simulate_distributed_with_mode(geom, layout, machine, mode);
            ScalingModePoint {
                mode: mode.name(),
                collective_secs,
                eq17_secs: model.runtime_for_mode(&shape, mode),
                des_makespan_secs: sim.measured_secs,
                root_ingress_bytes: ingress,
                // The busiest rank IS the root/owner in every algorithm.
                per_rank_recv_bytes: ingress,
            }
        })
        .collect();

    ScalingPoint {
        gpus,
        nr,
        ng,
        nz: geom.nz,
        volume_bytes,
        subvolume_bytes,
        chunk_bytes,
        recv_bound_bytes,
        modes,
    }
}

/// The acceptance inequalities, checked before the JSON is written.
fn assert_scaling_invariants(sweep_name: &str, points: &[ScalingPoint]) {
    let mode_of = |p: &ScalingPoint, name: &str| -> (u64, f64) {
        let m = p
            .modes
            .iter()
            .find(|m| m.mode == name)
            .unwrap_or_else(|| panic!("mode {name} missing"));
        (m.root_ingress_bytes, m.collective_secs)
    };
    for p in points {
        let (seg_recv, seg_secs) = mode_of(p, "segmented");
        let (dense_ingress, dense_secs) = mode_of(p, "dense");
        // Segmented: per-rank received bytes stay at Nz/p of the volume
        // (plus chunk-rounding overhead).
        assert!(
            seg_recv <= p.recv_bound_bytes,
            "{sweep_name} p={}: segmented recv {seg_recv} exceeds bound {}",
            p.gpus,
            p.recv_bound_bytes
        );
        // Dense: the root ingests the other N_r − 1 sub-volumes whole.
        assert_eq!(
            dense_ingress,
            (p.nr as u64 - 1) * p.subvolume_bytes,
            "{sweep_name} p={}: dense ingress not (N_r-1)·subvolume",
            p.gpus
        );
        if p.nr >= 4 {
            assert!(
                seg_secs < dense_secs,
                "{sweep_name} p={}: segmented {seg_secs}s not under dense {dense_secs}s",
                p.gpus
            );
        }
    }
    // Dense root traffic grows (about linearly — exactly (N_r−1)·subvol)
    // along the sweep; segmented per-rank traffic must not.
    for w in points.windows(2) {
        let prev = mode_of(&w[0], "dense").0;
        let next = mode_of(&w[1], "dense").0;
        assert!(
            next > prev,
            "{sweep_name}: dense ingress not growing ({prev} → {next})"
        );
        let seg_prev = mode_of(&w[0], "segmented").0 as f64 / w[0].volume_bytes as f64;
        let seg_next = mode_of(&w[1], "segmented").0 as f64 / w[1].volume_bytes as f64;
        assert!(
            seg_next <= seg_prev * 1.0 + 1e-12,
            "{sweep_name}: segmented volume share grew ({seg_prev} → {seg_next})"
        );
    }
}

fn emit_scaling_json(sweeps: &[(&str, &CbctGeometry, Vec<ScalingPoint>)], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"scaling\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {SCALING_SEED},");
    out.push_str("  \"machine\": \"abci-v100\",\n");
    out.push_str("  \"modes\": [\"dense\", \"hierarchical\", \"segmented\"],\n");
    out.push_str("  \"sweeps\": [\n");
    for (si, (name, geom, points)) in sweeps.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{name}\",");
        let _ = writeln!(
            out,
            "      \"nx\": {}, \"ny\": {}, \"np\": {},",
            geom.nx, geom.ny, geom.np
        );
        out.push_str("      \"points\": [\n");
        for (pi, p) in points.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"gpus\": {}, \"nr\": {}, \"ng\": {}, \"nz\": {},",
                p.gpus, p.nr, p.ng, p.nz
            );
            let _ = writeln!(
                out,
                "         \"volume_bytes\": {}, \"subvolume_bytes\": {}, \"chunk_bytes\": {}, \"recv_bound_bytes\": {},",
                p.volume_bytes, p.subvolume_bytes, p.chunk_bytes, p.recv_bound_bytes
            );
            out.push_str("         \"modes\": [\n");
            for (mi, m) in p.modes.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "          {{\"mode\": \"{}\", \"collective_secs\": {:.9}, \"eq17_secs\": {:.6}, \"des_makespan_secs\": {:.6}, \"root_ingress_bytes\": {}, \"per_rank_recv_bytes\": {}}}{}",
                    m.mode,
                    m.collective_secs,
                    m.eq17_secs,
                    m.des_makespan_secs,
                    m.root_ingress_bytes,
                    m.per_rank_recv_bytes,
                    if mi + 1 < p.modes.len() { "," } else { "" }
                );
            }
            let _ = writeln!(
                out,
                "         ]}}{}",
                if pi + 1 < points.len() { "," } else { "" }
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(
            out,
            "    }}{}",
            if si + 1 < sweeps.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `scaling` subcommand: strong/weak sweeps across all reduce modes.
fn run_scaling(quick: bool, out_dir: &str) {
    let machine = MachineParams::abci_v100();
    let cost = CommCostModel::default();

    // Strong scaling: fixed problem, N_g fixed, N_r grows with the GPU
    // count — the axis along which the dense root's ingress diverges.
    let (strong_geom, strong_ng, strong_gpus): (CbctGeometry, usize, Vec<usize>) = if quick {
        (CbctGeometry::ideal(64, 32, 96, 96), 2, vec![4, 8, 16])
    } else {
        let coffee = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
        (coffee, 4, vec![16, 32, 64, 128, 256, 512, 1024])
    };
    let strong: Vec<ScalingPoint> = strong_gpus
        .iter()
        .map(|&gpus| {
            assert!(gpus % strong_ng == 0);
            scaling_point(&strong_geom, gpus / strong_ng, strong_ng, &machine, &cost)
        })
        .collect();
    assert_scaling_invariants("strong", &strong);

    // Weak scaling: the volume's Nz grows with the GPU count, so the
    // segmented per-rank share stays a constant number of slices while
    // the dense root's ingress grows with both N_r and the volume.
    let (weak_base, weak_ng, weak_gpus, slices_per_gpu): (CbctGeometry, usize, Vec<usize>, usize) =
        if quick {
            (CbctGeometry::ideal(64, 32, 96, 96), 2, vec![4, 8, 16], 4)
        } else {
            let coffee = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
            (
                coffee.with_volume(2048, 2048, 2048),
                4,
                vec![16, 64, 256, 1024],
                2,
            )
        };
    let weak: Vec<ScalingPoint> = weak_gpus
        .iter()
        .map(|&gpus| {
            assert!(gpus % weak_ng == 0);
            let g =
                weak_base
                    .clone()
                    .with_volume(weak_base.nx, weak_base.ny, gpus * slices_per_gpu);
            scaling_point(&g, gpus / weak_ng, weak_ng, &machine, &cost)
        })
        .collect();
    assert_scaling_invariants("weak", &weak);

    for (name, points) in [("strong", &strong), ("weak", &weak)] {
        for p in points {
            let line: Vec<String> = p
                .modes
                .iter()
                .map(|m| format!("{} {:.3}s", m.mode, m.des_makespan_secs))
                .collect();
            eprintln!(
                "  {name} p={:>4} (N_r={:>3} N_g={}): {}",
                p.gpus,
                p.nr,
                p.ng,
                line.join(", ")
            );
        }
    }

    let json = emit_scaling_json(
        &[("strong", &strong_geom, strong), ("weak", &weak_base, weak)],
        quick,
    );
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let path = format!("{out_dir}/BENCH_scaling.json");
    std::fs::write(&path, &json).expect("write BENCH_scaling.json");
    eprintln!("wrote {path}");
}

/// One cell of the chaos-replay grid: a checkpointed run killed after
/// `kill_after` durable slab commits, then resumed and compared bitwise
/// against the golden uninterrupted volume.
struct ChaosCell {
    mode: &'static str,
    seed: Option<u64>,
    kill_after: usize,
    slabs_total: usize,
    resumed_slabs: u64,
    recovery_events: usize,
}

fn emit_chaos_json(cells: &[ChaosCell], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"chaos\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let seed = match c.seed {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"seed\": {seed}, \"kill_after\": {}, \"slabs_total\": {}, \"resumed_slabs\": {}, \"recovery_events\": {}, \"bitwise_identical\": true}}{}",
            c.mode,
            c.kill_after,
            c.slabs_total,
            c.resumed_slabs,
            c.recovery_events,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `chaos` subcommand: the checkpoint/restart replay harness.
///
/// Every cell runs kill → resume against a fresh checkpoint directory
/// under `out_dir`; bitwise identity is asserted in-process, so a
/// non-crash-consistent commit protocol fails the harness rather than
/// producing a quietly different JSON.
fn run_chaos(quick: bool, out_dir: &str) {
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let mut cells: Vec<ChaosCell> = Vec::new();
    let mut log = String::new();

    // Out-of-core: a tiny device forces a multi-slab decomposition.
    let n = if quick { 16 } else { 24 };
    let g = CbctGeometry::ideal(n, n * 3 / 2, n * 3 / 2, n * 3 / 2);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let cfg = FdkConfig::new(g).with_device(DeviceSpec::tiny(2_000_000));
    let rec = OutOfCoreReconstructor::new(cfg).expect("out-of-core plan");
    let (golden, report) = rec.reconstruct(&p, None).expect("golden out-of-core run");
    let slabs = report.batches.len();
    eprintln!(
        "  outofcore: {slabs} slabs, kill grid {:?}",
        kill_points(slabs, quick)
    );
    for k in kill_points(slabs, quick) {
        let dir = fresh_dir(Path::new(out_dir), &format!("chaos-ooc-{k}"));
        let ep = StorageEndpoint::local_nvme(Some(dir));
        match rec.reconstruct(
            &p,
            Some((&ep, &CheckpointSpec::new("", 1).killing_after(k))),
        ) {
            Err(ReconstructionError::Interrupted { completed_slabs }) => {
                assert_eq!(completed_slabs, k, "kill switch fired at the wrong commit")
            }
            other => panic!(
                "outofcore k={k}: expected an interrupted run, got {:?}",
                other.map(|_| ())
            ),
        }
        let (resumed, _) = rec
            .reconstruct(&p, Some((&ep, &CheckpointSpec::new("", 1).resuming())))
            .expect("resume from checkpoint");
        assert_bitwise(&golden, &resumed, &format!("outofcore k={k}"));
        let resumed_slabs = ep
            .metrics_registry()
            .snapshot()
            .counter("ckpt.resumed.slabs", None)
            .unwrap_or(0);
        assert_eq!(
            resumed_slabs, k as u64,
            "resume did not skip the committed slabs"
        );
        let _ = writeln!(
            log,
            "outofcore kill_after={k}: resumed {resumed_slabs}/{slabs} slabs from checkpoint, bitwise identical"
        );
        cells.push(ChaosCell {
            mode: "outofcore",
            seed: None,
            kill_after: k,
            slabs_total: slabs,
            resumed_slabs,
            recovery_events: 0,
        });
    }

    // Segmented fault-tolerant distributed runs under seeded fault plans
    // (delays, drops, a rank failure, and a corrupted frame per seed).
    let g = CbctGeometry::ideal(16, 16, 24, 20);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let layout = RankLayout::new(2, 2, 2);
    let cfg = FdkConfig::new(g)
        .with_nc(2)
        .with_reduce_mode(ReduceMode::Segmented);
    let seeds: Vec<u64> = if quick { vec![7] } else { vec![7, 21] };
    for seed in seeds {
        let plan = FaultPlan::generate(seed, &FaultScenario::mixed(layout.num_ranks()));
        let golden = fault_tolerant_reconstruct(&cfg, layout, &p, &plan, None)
            .expect("golden distributed run");
        // One full checkpointed run counts the durable slabs and checks
        // that checkpointing alone does not perturb the bits.
        let dir = fresh_dir(Path::new(out_dir), &format!("chaos-ft-{seed}-full"));
        let ep = StorageEndpoint::local_nvme(Some(dir));
        let full = fault_tolerant_reconstruct(
            &cfg,
            layout,
            &p,
            &plan,
            Some((&ep, &CheckpointSpec::new("", 1))),
        )
        .expect("full checkpointed distributed run");
        assert_bitwise(
            &golden.volume,
            &full.volume,
            &format!("distributed seed={seed} (checkpointed, no kill)"),
        );
        let slabs = ep
            .metrics_registry()
            .snapshot()
            .counter("ckpt.saves", None)
            .unwrap_or(0) as usize;
        eprintln!(
            "  distributed seed={seed}: {slabs} slabs, kill grid {:?}",
            kill_points(slabs, quick)
        );
        for k in kill_points(slabs, quick) {
            let dir = fresh_dir(Path::new(out_dir), &format!("chaos-ft-{seed}-{k}"));
            let ep = StorageEndpoint::local_nvme(Some(dir));
            match fault_tolerant_reconstruct(
                &cfg,
                layout,
                &p,
                &plan,
                Some((&ep, &CheckpointSpec::new("", 1).killing_after(k))),
            ) {
                Err(ReconstructionError::Interrupted { completed_slabs }) => {
                    assert_eq!(completed_slabs, k, "kill switch fired at the wrong commit")
                }
                other => panic!(
                    "distributed seed={seed} k={k}: expected an interrupted run, got {:?}",
                    other.map(|_| ())
                ),
            }
            let out = fault_tolerant_reconstruct(
                &cfg,
                layout,
                &p,
                &plan,
                Some((&ep, &CheckpointSpec::new("", 1).resuming())),
            )
            .expect("resume from checkpoint");
            assert_bitwise(
                &golden.volume,
                &out.volume,
                &format!("distributed seed={seed} k={k}"),
            );
            let resumed_slabs = ep
                .metrics_registry()
                .snapshot()
                .counter("ckpt.resumed.slabs", None)
                .unwrap_or(0);
            let _ = writeln!(
                log,
                "distributed seed={seed} kill_after={k}: resumed {resumed_slabs}/{slabs} slabs, \
                 {} recovery events, bitwise identical",
                out.recovery.len()
            );
            for e in &out.recovery {
                let _ = writeln!(log, "    {e}");
            }
            cells.push(ChaosCell {
                mode: "distributed-segmented",
                seed: Some(seed),
                kill_after: k,
                slabs_total: slabs,
                resumed_slabs,
                recovery_events: out.recovery.len(),
            });
        }
    }

    let json = emit_chaos_json(&cells, quick);
    let json_path = format!("{out_dir}/BENCH_chaos.json");
    let log_path = format!("{out_dir}/chaos_recovery.log");
    std::fs::write(&json_path, &json).expect("write BENCH_chaos.json");
    std::fs::write(&log_path, &log).expect("write chaos_recovery.log");
    eprintln!("wrote {json_path} and {log_path}");
    println!(
        "chaos: {} kill/resume cells, all bitwise identical to golden",
        cells.len()
    );
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
    tenants: Vec<(usize, u64, u64)>, // (tenant, completed, p99 nanos)
}

fn emit_serve_json(
    points: &[ServePoint],
    seed: u64,
    devices: usize,
    tenants: usize,
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"serve\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"devices\": {devices},");
    let _ = writeln!(out, "  \"tenants\": {tenants},");
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"load_factor\": {:.2}, \"rate_hz\": {:.6}, \"jobs\": {}, \"completed\": {}, \"rejected\": {},",
            p.load_factor, p.rate_hz, p.jobs, p.completed, p.rejected
        );
        let _ = writeln!(
            out,
            "     \"preemptions\": {}, \"migrations\": {}, \"p50_latency_nanos\": {}, \"p99_latency_nanos\": {},",
            p.preemptions, p.migrations, p.p50_latency_nanos, p.p99_latency_nanos
        );
        let _ = writeln!(
            out,
            "     \"mean_utilisation\": {:.6}, \"makespan_nanos\": {}, \"queue_depth_peak\": {:.1},",
            p.mean_utilisation, p.makespan_nanos, p.queue_depth_peak
        );
        out.push_str("     \"tenants\": [\n");
        for (ti, (t, done, p99)) in p.tenants.iter().enumerate() {
            let _ = writeln!(
                out,
                "      {{\"tenant\": {t}, \"completed\": {done}, \"p99_latency_nanos\": {p99}}}{}",
                if ti + 1 < p.tenants.len() { "," } else { "" }
            );
        }
        out.push_str("     ]\n");
        let _ = writeln!(out, "    }}{}", if i + 1 < points.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `serve` subcommand: the multi-tenant scheduler load generator.
///
/// Sweeps seeded arrival rates from light load past saturation on a
/// fixed simulated fleet. Each rate is run **twice** and the canonical
/// schedule text plus the metrics export must be byte-identical across
/// the two runs — the determinism contract — before the point is
/// recorded. The saturation shape (p99 latency and utilisation both
/// rising with load, utilisation never above 1) is asserted in-process
/// before `BENCH_serve.json` is written; the full per-tenant metrics
/// snapshot of the heaviest point lands in `serve_metrics.json`.
fn run_serve(quick: bool, out_dir: &str) {
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
        let per_tenant: Vec<(usize, u64, u64)> = (0..tenants)
            .map(|t| {
                (
                    t,
                    r.metrics
                        .counter("serve.tenant.jobs.completed", Some(t))
                        .unwrap_or(0),
                    r.latency_quantile_nanos(0.99, Some(t)).unwrap_or(0),
                )
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

    let json = emit_serve_json(&points, seed, devices, tenants, quick);
    let json_path = format!("{out_dir}/BENCH_serve.json");
    let metrics_path = format!("{out_dir}/serve_metrics.json");
    std::fs::write(&json_path, &json).expect("write BENCH_serve.json");
    std::fs::write(&metrics_path, &heaviest_metrics_json).expect("write serve_metrics.json");
    eprintln!("wrote {json_path} and {metrics_path}");
    println!(
        "serve: {} rate points, deterministic replay, p99 {:.1} ms → {:.1} ms across the sweep",
        points.len(),
        points.first().unwrap().p99_latency_nanos as f64 / 1e6,
        points.last().unwrap().p99_latency_nanos as f64 / 1e6
    );
}

/// One cell of the iterative conformance sweep: a (solver, ranks,
/// reduce-mode) run compared bitwise against the serial solver.
struct IterativeCell {
    solver: &'static str,
    ranks: usize,
    mode: &'static str,
    network_bytes: u64,
    network_messages: u64,
    /// Worst per-rank segmented-merge traffic per iteration (chain
    /// through-traffic + finished owner segments, bytes); `None` for the
    /// dense/hierarchical cells.
    seg_recv_per_iter_max: Option<u64>,
    /// The model bound on that quantity: 4·(n + max segment) bytes.
    seg_recv_bound: Option<u64>,
}

fn emit_iterative_json(
    geom: &CbctGeometry,
    iters: usize,
    goldens: &[(&'static str, &[f64])],
    cells: &[IterativeCell],
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"iterative\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(
        out,
        "  \"nx\": {}, \"ny\": {}, \"nz\": {}, \"np\": {}, \"nu\": {}, \"nv\": {},",
        geom.nx, geom.ny, geom.nz, geom.np, geom.nu, geom.nv
    );
    let _ = writeln!(out, "  \"iterations\": {iters},");
    out.push_str("  \"solvers\": [\n");
    for (si, (name, residuals)) in goldens.iter().enumerate() {
        let hist: Vec<String> = residuals.iter().map(|r| format!("{r:.12e}")).collect();
        let _ = writeln!(
            out,
            "    {{\"solver\": \"{name}\", \"serial_residuals\": [{}]}}{}",
            hist.join(", "),
            if si + 1 < goldens.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        let _ = writeln!(
            out,
            "    {{\"solver\": \"{}\", \"ranks\": {}, \"mode\": \"{}\", \
             \"bitwise_identical\": true, \"residuals_match\": true, \
             \"network_bytes\": {}, \"network_messages\": {}, \
             \"seg_recv_per_iter_max_bytes\": {}, \"seg_recv_bound_bytes\": {}}}{}",
            c.solver,
            c.ranks,
            c.mode,
            c.network_bytes,
            c.network_messages,
            opt(c.seg_recv_per_iter_max),
            opt(c.seg_recv_bound),
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `iterative` subcommand: the distributed SIRT/MLEM conformance
/// sweep. Every (solver, ranks, reduce-mode) cell must reproduce the
/// serial solver's iterate and residual history bit-for-bit, and the
/// segmented cells must keep their worst per-rank merge traffic inside
/// the `4·(n + max segment)` chain model — all asserted in-process
/// before `BENCH_iterative.json` is written. The JSON carries no
/// wall-clock fields, so back-to-back runs are byte-identical.
fn run_iterative(quick: bool, out_dir: &str) {
    use scalefbp::substrates::mpisim::segment_partition;

    let (geom, iters) = if quick {
        (CbctGeometry::ideal(12, 8, 20, 18), 3)
    } else {
        (CbctGeometry::ideal(16, 12, 28, 24), 5)
    };
    let b = forward_project(&geom, &uniform_ball(&geom, 0.55, 1.0));
    let march = RayMarchConfig::default();
    let n_vox = geom.nx * geom.ny * geom.nz;
    let slice_len = geom.nx * geom.ny;

    // Golden serial runs, once per solver.
    let mut sirt = Sirt::new(&geom, march, 1.0);
    let sirt_hist = sirt.run(&b, iters);
    let mut mlem = Mlem::new(&geom, march);
    let mlem_hist = mlem.run(&b, iters);
    let goldens: Vec<(&'static str, IterativeSolver, &Volume, &[f64])> = vec![
        (
            "sirt",
            IterativeSolver::Sirt { relaxation: 1.0 },
            sirt.estimate(),
            &sirt_hist,
        ),
        ("mlem", IterativeSolver::Mlem, mlem.estimate(), &mlem_hist),
    ];

    let rank_counts: &[usize] = &[1, 2, 4];
    let modes = [
        ("dense", ReduceMode::Dense),
        ("hierarchical", ReduceMode::Hierarchical),
        ("segmented", ReduceMode::Segmented),
    ];
    let mut cells = Vec::new();
    for (name, kind, golden, hist) in &goldens {
        let mut prev_seg_max: Option<u64> = None;
        for &ranks in rank_counts {
            for (mode_name, mode) in modes {
                let mut cfg = IterativeConfig::new(*kind, iters);
                cfg.ranks = ranks;
                cfg.reduce_mode = mode;
                let out = iterative_reconstruct_distributed(&geom, &b, &cfg)
                    .expect("distributed iterative run");
                assert_bitwise(
                    golden,
                    &out.volume,
                    &format!("{name} p={ranks} {mode_name}"),
                );
                assert_eq!(
                    hist.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    out.residuals
                        .iter()
                        .map(|r| r.to_bits())
                        .collect::<Vec<_>>(),
                    "{name} p={ranks} {mode_name}: residual history diverged"
                );
                let (seg_max, seg_bound) = if mode == ReduceMode::Segmented {
                    let max_seg = segment_partition(geom.nz, ranks)
                        .iter()
                        .map(|r| r.len() * slice_len)
                        .max()
                        .unwrap_or(0);
                    let rank_bytes = |ctr: &str| {
                        (0..ranks)
                            .map(|r| out.metrics.counter(ctr, Some(r)).unwrap_or(0))
                            .max()
                            .unwrap_or(0)
                            / iters as u64
                    };
                    let chain_max = rank_bytes("mpisim.segreduce.chain.bytes");
                    let owner_max = rank_bytes("mpisim.segreduce.owner.bytes");
                    let per_iter_max = chain_max + owner_max;
                    let bound = 4 * (n_vox + max_seg) as u64;
                    assert!(
                        per_iter_max <= bound,
                        "{name} p={ranks}: segmented per-rank merge traffic \
                         {per_iter_max} B/iter exceeds the chain model bound {bound} B"
                    );
                    // The finished-segment traffic (the paper's Nz/p
                    // quantity) must not grow as ranks are added; the
                    // chain through-traffic stays O(n), constant in p —
                    // unlike the dense root's (p−1)·n ingress. (p=1
                    // merges locally and is no baseline: 0 bytes.)
                    if ranks > 1 {
                        if let Some(prev) = prev_seg_max {
                            assert!(
                                owner_max <= prev,
                                "{name}: segmented owner-segment traffic grew with \
                                 ranks ({prev} → {owner_max} B/iter at p={ranks})"
                            );
                        }
                        prev_seg_max = Some(owner_max);
                    }
                    (Some(per_iter_max), Some(bound))
                } else {
                    (None, None)
                };
                eprintln!(
                    "  {name} p={ranks} {mode_name}: bitwise OK, {:.2} MB network{}",
                    out.network.bytes as f64 / 1e6,
                    seg_max
                        .map(|m| format!(", seg merge ≤ {:.1} KB/rank/iter", m as f64 / 1e3))
                        .unwrap_or_default()
                );
                cells.push(IterativeCell {
                    solver: name,
                    ranks,
                    mode: mode_name,
                    network_bytes: out.network.bytes,
                    network_messages: out.network.messages,
                    seg_recv_per_iter_max: seg_max,
                    seg_recv_bound: seg_bound,
                });
            }
        }
    }

    // Convergence sanity on the goldens themselves.
    assert!(
        sirt_hist.windows(2).all(|w| w[1] <= w[0] * 1.001),
        "SIRT residual history not non-increasing: {sirt_hist:?}"
    );

    let golden_hists: Vec<(&'static str, &[f64])> = goldens
        .iter()
        .map(|(name, _, _, hist)| (*name, *hist))
        .collect();
    let json = emit_iterative_json(&geom, iters, &golden_hists, &cells, quick);
    std::fs::create_dir_all(out_dir).expect("create out-dir");
    let path = format!("{out_dir}/BENCH_iterative.json");
    std::fs::write(&path, &json).expect("write BENCH_iterative.json");
    eprintln!("wrote {path}");
    println!(
        "iterative: {} conformance cells ({} solvers × {:?} ranks × 3 modes), all bitwise identical",
        cells.len(),
        goldens.len(),
        rank_counts
    );
}

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

#[allow(clippy::too_many_arguments)]
fn emit_straggler_json(
    dist_layout: RankLayout,
    timeout_scale: f64,
    points: &[StragglerPoint],
    serve_seed: u64,
    serve_devices: usize,
    serve_jobs: usize,
    serve_aging_nanos: u64,
    cells: &[ServeHedgeCell],
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"straggler\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"distributed\": {\n");
    let _ = writeln!(
        out,
        "    \"dataset\": \"coffee_bean\", \"machine\": \"abci_v100\", \
         \"nr\": {}, \"ng\": {}, \"nc\": {}, \"timeout_scale\": {timeout_scale},",
        dist_layout.nr, dist_layout.ng, dist_layout.nc
    );
    out.push_str("    \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"slow_factor\": {}, \"wait_wall_secs\": {:.6}, \
             \"speculative_wall_secs\": {:.6}, \"speedup\": {:.4}, \
             \"wasted_gpu_secs_segmented\": {:.6}, \"wasted_gpu_secs_global\": {:.6}}}{}",
            p.slow_factor,
            p.wait_wall_secs,
            p.speculative_wall_secs,
            p.speedup,
            p.wasted_gpu_secs_segmented,
            p.wasted_gpu_secs_global,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"serve\": {\n");
    let _ = writeln!(
        out,
        "    \"seed\": {serve_seed}, \"devices\": {serve_devices}, \"jobs\": {serve_jobs}, \
         \"aging_nanos\": {serve_aging_nanos},"
    );
    out.push_str("    \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"hedging\": {}, \"completed\": {}, \"makespan_nanos\": {}, \
             \"p99_latency_nanos\": {}, \"stragglers\": {}, \"hedges_issued\": {}, \
             \"hedges_won\": {}, \"hedges_wasted\": {}}}{}",
            c.hedging,
            c.completed,
            c.makespan_nanos,
            c.p99_latency_nanos,
            c.stragglers,
            c.hedges_issued,
            c.hedges_won,
            c.hedges_wasted,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// The `straggler` subcommand: the slow-device economics sweep.
///
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
fn run_straggler(quick: bool, out_dir: &str) {
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
            straggler_comparison(&geom, layout, &machine, f);
        let spec_factor = f.min(timeout_scale + 1.0);
        let spec_wall = simulate_with_stragglers(&geom, layout, &machine, spec_factor, 1)
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
        if std::env::var("STRAGGLER_DEBUG").is_ok() {
            eprintln!(
                "==== schedule (hedging={hedging}) ====\n{}",
                r.schedule_text()
            );
        }
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

    let json = emit_straggler_json(
        layout,
        timeout_scale,
        &points,
        serve_seed,
        devices,
        jobs,
        aging_nanos,
        &cells,
        quick,
    );
    let path = format!("{out_dir}/BENCH_straggler.json");
    std::fs::write(&path, &json).expect("write BENCH_straggler.json");
    eprintln!("wrote {path}");
    println!(
        "straggler: {} distributed points (speculation up to {:.2}× faster than \
         wait-it-out), serve hedging saves {:.1}% makespan",
        points.len(),
        points.iter().map(|p| p.speedup).fold(0.0_f64, f64::max),
        (1.0 - hedged.makespan_nanos as f64 / unhedged.makespan_nanos.max(1) as f64) * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ".".to_string());
    if args.first().map(String::as_str) == Some("scaling") {
        eprintln!("scalefbp-bench scaling: quick={quick}, out-dir {out_dir}");
        run_scaling(quick, &out_dir);
        return;
    }
    if args.first().map(String::as_str) == Some("chaos") {
        eprintln!("scalefbp-bench chaos: quick={quick}, out-dir {out_dir}");
        run_chaos(quick, &out_dir);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        eprintln!("scalefbp-bench serve: quick={quick}, out-dir {out_dir}");
        run_serve(quick, &out_dir);
        return;
    }
    if args.first().map(String::as_str) == Some("iterative") {
        eprintln!("scalefbp-bench iterative: quick={quick}, out-dir {out_dir}");
        run_iterative(quick, &out_dir);
        return;
    }
    if args.first().map(String::as_str) == Some("straggler") {
        eprintln!("scalefbp-bench straggler: quick={quick}, out-dir {out_dir}");
        run_straggler(quick, &out_dir);
        return;
    }
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 1 } else { 2 });

    let workloads: Vec<Workload> = if quick {
        vec![Workload::new("ball-quick-32", 32, 24, 64, 48)]
    } else {
        vec![
            Workload::new("ball-128", 128, 48, 192, 192),
            Workload::new("ball-256", 256, 48, 320, 320),
        ]
    };

    eprintln!(
        "scalefbp-bench: {} workload(s), best of {reps} rep(s), out-dir {out_dir}",
        workloads.len()
    );

    let mut bp_results = Vec::new();
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
                r.stats.updates as f64 / r.secs.max(1e-12) / 1e9
            );
        }
        bp_results.push((w, runs));
    }

    let bp_json = emit_backproject_json(&bp_results, quick);
    std::fs::create_dir_all(&out_dir).expect("create out-dir");
    let bp_path = format!("{out_dir}/BENCH_backproject.json");
    std::fs::write(&bp_path, &bp_json).expect("write BENCH_backproject.json");
    eprintln!("wrote {bp_path}");

    for (w, runs) in &bp_results {
        let secs_of = |name: &str| runs.iter().find(|r| r.kernel == name).map(|r| r.secs);
        if let (Some(r), Some(s), Some(b)) = (
            secs_of("reference"),
            secs_of("simd"),
            secs_of("simd-batched"),
        ) {
            println!(
                "{}: simd {:.2}x, simd-batched {:.2}x vs reference ({} backend)",
                w.name,
                r / s.max(1e-12),
                r / b.max(1e-12),
                simd_backend().name()
            );
        }
    }
}
