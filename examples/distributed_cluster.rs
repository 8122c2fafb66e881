//! The distributed framework end to end: eight simulated ranks
//! reconstruct a bumblebee-style scan with one reduction per group, then
//! the timing mode projects the same pipeline to the paper's 1024-GPU
//! scale.
//!
//! ```text
//! cargo run --release -p scalefbp --example distributed_cluster
//! ```

use scalefbp::timing::{simulate_distributed, strong_scaling_sweep};
use scalefbp::{
    fault_tolerant_reconstruct, fdk_reconstruct, FaultPlan, FdkConfig, RankLayout, ReduceMode,
};
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::MachineParams;
use scalefbp_phantom::{bumblebee_like, forward_project};

fn main() {
    // ---- Part 1: real computation on 8 in-process ranks -----------------
    let preset = DatasetPreset::by_name("bumblebee").unwrap().scaled(6);
    let geom = preset.geometry.clone();
    println!(
        "real-compute run: {} scaled — {}×{}×{} projections → {}³",
        preset.name, geom.nu, geom.nv, geom.np, geom.nx
    );

    let bee = bumblebee_like(&geom);
    let projections = forward_project(&geom, &bee);

    // 8 ranks: N_r = 4 ranks/group splitting N_p, N_g = 2 groups
    // splitting Z — the full 2-D input / 1-D output decomposition.
    let layout = RankLayout::new(4, 2, 4);
    let cfg = FdkConfig::new(geom.clone()).with_nc(4);
    let t0 = std::time::Instant::now();
    // A reliable world: no injected faults, no checkpoints.
    let outcome = fault_tolerant_reconstruct(&cfg, layout, &projections, &FaultPlan::none(), None)
        .expect("distributed run failed");
    println!(
        "8 ranks (N_r=4, N_g=2) finished in {:.2} s wall; network moved {:.1} MB in {} messages",
        t0.elapsed().as_secs_f64(),
        outcome.network.bytes as f64 / 1e6,
        outcome.network.messages
    );

    let reference = fdk_reconstruct(&geom, &projections).expect("reference failed");
    println!(
        "max |distributed − single-node| = {:.2e} (f32 reduction-order tolerance)",
        reference.max_abs_diff(&outcome.volume)
    );

    // ---- Part 2: timing mode at paper scale ------------------------------
    let paper = DatasetPreset::by_name("bumblebee").unwrap().geometry;
    let machine = MachineParams::abci_v100();
    println!("\ntiming mode: bumblebee at paper scale (2000²×3142 → 4096³), ABCI V100 nodes");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "GPUs", "measured(s)", "projected(s)", "GUPS"
    );
    for out in strong_scaling_sweep(
        &paper,
        8,
        8,
        &[8, 16, 32, 64, 128, 256, 512, 1024],
        &machine,
        ReduceMode::default(),
    ) {
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>10.0}",
            out.gpus, out.measured_secs, out.projected_secs, out.gups
        );
    }

    let single = simulate_distributed(
        &paper,
        RankLayout::new(1, 1, 8),
        &machine,
        ReduceMode::default(),
        1.0,
    );
    println!(
        "\n(single V100, out-of-core: {:.0} s — the paper's 8–17 min regime for 4096³)",
        single.measured_secs
    );
}
