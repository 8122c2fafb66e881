//! Regenerates **Figure 14**: weak scaling — the projection count grows
//! with the GPU count while the 4096³ output is fixed, so the runtime
//! flattens onto the PFS store floor (~9 s in the paper).
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig14_weak_scaling
//! ```

use scalefbp::timing::weak_scaling_sweep;
use scalefbp::ReduceMode;
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::MachineParams;

pub fn run(_: &crate::Options) {
    let machine = MachineParams::abci_v100();
    println!("Figure 14 — weak scaling to 4096³ (store-bound floor; paper ≈ 9 s projected,");
    println!("12.9–15.3 s (a) and 9–12.7 s (b) measured)\n");

    // (a) coffee bean: (N_p, N_r) = (400,1), (800,2), …, (6401,16);
    // N_gpus = 64·N_r.
    let coffee = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
    let pairs_a = [(400, 1), (800, 2), (1600, 4), (3200, 8), (6401, 16)];
    let gpus_a = [64, 128, 256, 512, 1024];
    let paper_a = [12.9, 13.1, 13.9, 14.8, 15.3];
    println!("--- 14a coffee bean (N_p = 6401·N_gpus/1024) ---");
    println!(
        "{:>6} {:>7} {:>5} {:>12} {:>13} {:>9}",
        "GPUs", "N_p", "N_r", "measured(s)", "projected(s)", "paper(s)"
    );
    for (out, ((np, nr), paper)) in weak_scaling_sweep(&coffee, &pairs_a, &gpus_a, 8, &machine, ReduceMode::default())
        .iter()
        .zip(pairs_a.iter().zip(paper_a))
    {
        println!(
            "{:>6} {:>7} {:>5} {:>12.1} {:>13.1} {:>9.1}",
            out.gpus, np, nr, out.measured_secs, out.projected_secs, paper
        );
    }

    // (b) bumblebee: (392,1), (785,2), …, (3142,8); N_gpus = 128·N_r.
    let bee = DatasetPreset::by_name("bumblebee").unwrap().geometry;
    let pairs_b = [(392, 1), (785, 2), (1571, 4), (3142, 8)];
    let gpus_b = [128, 256, 512, 1024];
    let paper_b = [9.0, 9.0, 9.0, 11.7];
    println!("\n--- 14b bumblebee (N_p = 3142·N_gpus/1024) ---");
    println!(
        "{:>6} {:>7} {:>5} {:>12} {:>13} {:>9}",
        "GPUs", "N_p", "N_r", "measured(s)", "projected(s)", "paper(s)"
    );
    for (out, ((np, nr), paper)) in weak_scaling_sweep(&bee, &pairs_b, &gpus_b, 8, &machine, ReduceMode::default())
        .iter()
        .zip(pairs_b.iter().zip(paper_b))
    {
        println!(
            "{:>6} {:>7} {:>5} {:>12.1} {:>13.1} {:>9.1}",
            out.gpus, np, nr, out.measured_secs, out.projected_secs, paper
        );
    }

    let store_floor = coffee.volume_bytes() as f64 / machine.bw_store;
    println!(
        "\nPFS store floor for one 4096³ volume at {:.1} GB/s: {:.1} s — the flat line",
        machine.bw_store / 1e9,
        store_floor
    );
}
