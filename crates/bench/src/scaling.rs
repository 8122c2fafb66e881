//! `scaling` — strong and weak scaling to 1024 simulated GPUs across the
//! three reduction algorithms, written to `BENCH_scaling.json`. Entirely
//! analytic (α–β cost model, Eq 17, DES), so the file is byte-reproducible;
//! see `docs/communication.md` and `docs/performance.md`.

use scalefbp::substrates::geom::{CbctGeometry, DatasetPreset, RankLayout};
use scalefbp::substrates::mpisim::CommCostModel;
use scalefbp::substrates::perfmodel::{MachineParams, PerfModel, RunShape};
use scalefbp::timing::simulate_distributed;
use scalefbp::ReduceMode;
use scalefbp_bench::{json_record, write_json, JsonValue};

/// Seed recorded in `BENCH_scaling.json`. The sweep is fully analytic
/// (cost model + Eq 17 + DES, no sampling), so this seed identifies the
/// deterministic configuration rather than an RNG stream.
const SCALING_SEED: u64 = 0x5EED_CBC7_2021;

json_record! {
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

    struct ScalingSweep {
        name: &'static str,
        nx: usize,
        ny: usize,
        np: usize,
        points: Vec<ScalingPoint>,
    }
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
            let sim = simulate_distributed(geom, layout, machine, mode, 1.0);
            ScalingModePoint {
                mode: mode.name(),
                collective_secs,
                eq17_secs: model.runtime(&shape, mode),
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

/// Strong/weak sweeps across all reduce modes. The headline acceptance
/// inequalities (segmented per-rank traffic stays at `Nz/p` of the volume
/// while the dense root's ingress grows linearly) are asserted before the
/// file is written.
pub fn run(opts: &crate::Options) {
    let quick = opts.quick;
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

    let sweep = |name, geom: &CbctGeometry, points| ScalingSweep {
        name,
        nx: geom.nx,
        ny: geom.ny,
        np: geom.np,
        points,
    };
    let modes: Vec<_> = ReduceMode::ALL.iter().map(|m| m.name()).collect();
    let doc = JsonValue::object([
        ("benchmark", "scaling".into()),
        ("quick", quick.into()),
        ("seed", SCALING_SEED.into()),
        ("machine", "abci-v100".into()),
        ("modes", modes.into()),
        (
            "sweeps",
            vec![
                sweep("strong", &strong_geom, strong),
                sweep("weak", &weak_base, weak),
            ]
            .into(),
        ),
    ]);
    write_json(&opts.out_dir, "BENCH_scaling.json", &doc);
}
