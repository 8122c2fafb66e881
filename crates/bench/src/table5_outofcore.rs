//! Regenerates **Table 5**: out-of-core evaluation on a single GPU
//! (V100 / A100) — per-stage times and GUPS for tomo_00030 and tomo_00029
//! at output sizes 512³ … 4096³, plus the RTK feasibility column (✗ where
//! the full working set exceeds device memory).
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- table5_outofcore
//! ```
//!
//! The paper-scale rows come from the calibrated Section-5 model (a V100
//! does not exist here); a final section *measures* the same pipeline at
//! laptop scale with real computation to validate the shape.

use scalefbp::{DeviceSpec, FdkConfig, OutOfCoreReconstructor, ReduceMode, Schedule};
use scalefbp_bench::{fmt_secs, MeasuredWorkload};
use scalefbp_geom::{DatasetPreset, RankLayout};
use scalefbp_perfmodel::{MachineParams, PerfModel, RunShape};

fn rtk_feasible(geom: &scalefbp_geom::CbctGeometry, device: &DeviceSpec) -> bool {
    // RTK holds the projections and the full volume resident.
    (geom.projection_bytes() + geom.volume_bytes()) as u64 <= device.memory_bytes
}

fn paper_scale_section(device: &DeviceSpec, machine: &MachineParams) {
    println!("\n=== {} (modelled at paper scale) ===", device.name);
    println!(
        "{:>11} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>5}",
        "dataset",
        "output",
        "T_load",
        "T_flt",
        "T_H2D",
        "T_bp",
        "T_D2H",
        "T_store",
        "T_runtime",
        "GUPS",
        "RTK"
    );
    let model = PerfModel::new(*machine);
    for name in ["tomo_00030", "tomo_00029"] {
        let base = DatasetPreset::by_name(name).unwrap().geometry;
        for n in [512usize, 1024, 2048, 4096] {
            let geom = base.with_volume(n, n, n);
            let shape = RunShape {
                geom: geom.clone(),
                layout: RankLayout::new(1, 1, 8),
            };
            let b = model.batch_times(&shape, ReduceMode::default());
            let sum =
                |f: fn(&scalefbp_perfmodel::BatchTimes) -> f64| -> f64 { b.iter().map(f).sum() };
            let runtime = model.runtime(&shape, ReduceMode::default());
            let gups = geom.voxel_updates() as f64 / runtime / 1e9;
            println!(
                "{:>11} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9.1} {:>5}",
                name,
                format!("{n}³"),
                fmt_secs(sum(|x| x.load)),
                fmt_secs(sum(|x| x.filter)),
                fmt_secs(sum(|x| x.h2d)),
                fmt_secs(sum(|x| x.bp)),
                fmt_secs(sum(|x| x.d2h)),
                fmt_secs(sum(|x| x.store)),
                fmt_secs(runtime),
                gups,
                if rtk_feasible(&geom, device) {
                    "ok"
                } else {
                    "✗"
                },
            );
        }
    }
}

fn measured_section() {
    println!("\n=== measured (real compute, laptop scale) ===");
    println!("paper shape to validate: streaming (ours) matches the in-core kernel's");
    println!("throughput while running within a device budget the in-core path cannot.\n");
    println!(
        "{:>11} {:>7} {:>10} {:>12} {:>11} {:>10}",
        "dataset", "output", "batches", "rows-moved", "wall (s)", "GUPS"
    );
    for (name, log2) in [("tomo_00030", 2u32), ("tomo_00029", 4)] {
        let w = MeasuredWorkload::new(name, log2);
        let budget = ((w.geom.projection_bytes() + w.geom.volume_bytes()) / 3) as u64;
        let cfg = FdkConfig::new(w.geom.clone()).with_device(DeviceSpec::tiny(budget));
        let rec = OutOfCoreReconstructor::new(cfg).expect("plan");
        let (_, report) = rec
            .reconstruct(&w.projections, Schedule::Serial)
            .expect("run");
        let rows: usize = report.batches.iter().map(|b| b.rows_loaded).sum();
        println!(
            "{:>11} {:>7} {:>10} {:>12} {:>11.2} {:>10.4}",
            name,
            format!("{}³", w.geom.nx),
            report.batches.len(),
            format!("{rows}/{}", w.geom.nv),
            report.wall_secs,
            report.wall_gups()
        );
    }
}

pub fn run(_: &crate::Options) {
    println!("Table 5 — out-of-core single-GPU evaluation");
    println!(
        "(paper: V100 achieves 111.6–129.2 GUPS ours / 104.7–113.7 RTK; RTK ✗ beyond 8 GB volumes)"
    );
    paper_scale_section(&DeviceSpec::v100_16gb(), &MachineParams::abci_v100());
    paper_scale_section(&DeviceSpec::a100_40gb(), &MachineParams::abci_a100());
    measured_section();
}
