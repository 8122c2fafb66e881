//! Regenerates **Figure 10**: the end-to-end pipeline overlap timelines —
//! (a) a single GPU reconstructing tomo_00029 → 2048³, (b) 128 GPUs
//! reconstructing the bumblebee → 4096³ — plus a real-compute laptop-scale
//! trace: the streaming driver's stages on the wall clock.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig10_timeline
//! ```

use scalefbp::timing::simulate_distributed;
use scalefbp::{DeviceSpec, FdkConfig, OutOfCoreReconstructor, ReduceMode, Schedule};
use scalefbp_bench::MeasuredWorkload;
use scalefbp_geom::{DatasetPreset, RankLayout};
use scalefbp_perfmodel::MachineParams;

pub fn run(_: &crate::Options) {
    let machine = MachineParams::abci_v100();

    // (a) Single V100, tomo_00029 → 2048³ (paper: ~137.7 s, load 9.5 s,
    // filter 17 s, BP dominating).
    let g29 = DatasetPreset::by_name("tomo_00029")
        .unwrap()
        .geometry
        .with_volume(2048, 2048, 2048);
    let a = simulate_distributed(
        &g29,
        RankLayout::new(1, 1, 8),
        &machine,
        ReduceMode::default(),
        1.0,
    );
    println!("Figure 10a — tomo_00029 → 2048³ on one V100 (paper: 137.7 s end-to-end)");
    println!(
        "simulated end-to-end: {:.1} s (projected {:.1} s)\n",
        a.measured_secs, a.projected_secs
    );
    print!("{}", a.trace.render_ascii(76));
    for s in a.trace.stages() {
        println!("  {:>6}: busy {:>7.1} s", s, a.trace.stage_busy(&s));
    }

    // (b) 128 GPUs (N_g=64, N_r=8... paper uses N_g=64, N_r=8 but that is
    // 512; Figure 10b says N_gpus=128, N_g=64, N_r=8 with 2 ranks... we
    // follow the caption's N_r=8 ⇒ N_g=16).
    let bee = DatasetPreset::by_name("bumblebee").unwrap().geometry;
    let b = simulate_distributed(
        &bee,
        RankLayout::new(8, 16, 8),
        &machine,
        ReduceMode::default(),
        1.0,
    );
    println!("\nFigure 10b — bumblebee → 4096³ on 128 GPUs (paper: ~35.5 s end-to-end)");
    println!(
        "simulated end-to-end: {:.1} s (projected {:.1} s)\n",
        b.measured_secs, b.projected_secs
    );
    print!("{}", b.trace.render_ascii(76));
    for s in b.trace.stages() {
        println!("  {:>6}: busy {:>7.1} s", s, b.trace.stage_busy(&s));
    }
    println!(
        "overlap efficiency: (a) {:.0}%  (b) {:.0}%",
        a.trace.overlap_efficiency() * 100.0,
        b.trace.overlap_efficiency() * 100.0
    );

    // Real-compute trace at laptop scale: the slab loop runs its stages
    // back to back; Figure 9's replay of its batches models the overlap.
    println!("\nreal-compute trace (tomo_00030 scaled, the slab loop's stages):");
    let w = MeasuredWorkload::new("tomo_00030", 3);
    let budget = ((w.geom.projection_bytes() + w.geom.volume_bytes()) / 3) as u64;
    let rec = OutOfCoreReconstructor::new(
        FdkConfig::new(w.geom.clone()).with_device(DeviceSpec::tiny(budget)),
    )
    .expect("plan");
    let (_, report) = rec
        .reconstruct(&w.projections, Schedule::Overlapped)
        .expect("run");
    print!("{}", report.trace.render_ascii(76));
    println!(
        "{:.2} s wall; Figure 9's replay of these batches: overlap efficiency {:.0}%",
        report.wall_secs,
        report.model_trace.overlap_efficiency() * 100.0
    );
}
