//! Regenerates **Figure 12**: the roofline analysis of the back-projection
//! kernel on a V100 — arithmetic intensity and FLOP/s for volumes
//! 512³ … 2048³ of tomo_00030, ours vs the RTK-style kernel.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig12_roofline
//! ```
//!
//! The AI values come from the kernel's analytic FLOP/byte counters
//! (`scalefbp-backproject::KernelStats`), the achieved FLOP/s from the
//! calibrated sustained GUPS — reproducing how Nsight's counters feed the
//! paper's plot.

use scalefbp_backproject::{KernelStats, FLOPS_PER_UPDATE};
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::roofline::{Roofline, RooflinePoint};

pub fn run(_: &crate::Options) {
    let roof = Roofline::v100();
    println!(
        "Figure 12 — roofline on V100 (ceiling {:.1e} FLOP/s, ridge at {:.1} FLOP/byte)",
        roof.peak_flops,
        roof.ridge()
    );
    println!("paper: AI 40.9 → 2954.7, 4.0 → 4.5 TFLOP/s (≈32.8 % of peak), RTK ≈ same\n");

    // Sustained update rates (Table 5's GUPS band): ours vs RTK.
    let kernels = [("ours(streaming)", 115e9), ("rtk(batched)", 110e9)];
    let base = DatasetPreset::by_name("tomo_00030").unwrap().geometry;

    println!(
        "{:>6} {:>16} {:>12} {:>14} {:>12} {:>10}",
        "volume", "kernel", "AI (F/B)", "FLOP/s", "attainable", "of peak"
    );
    for n in [512usize, 1024, 2048, 4096] {
        let geom = base.with_volume(n, n, n);
        let stats = KernelStats::for_launch(
            geom.volume_voxels() as u64,
            geom.np as u64,
            geom.projection_elements() as u64,
        );
        for (name, updates_per_sec) in kernels {
            let point = RooflinePoint::from_kernel(
                updates_per_sec,
                FLOPS_PER_UPDATE,
                stats.updates,
                stats.proj_bytes + stats.vol_bytes,
            );
            // Achieved cannot exceed the roofline: clamp like real silicon.
            let achieved = point.flops.min(roof.attainable(point.ai));
            println!(
                "{:>6} {:>16} {:>12.1} {:>14.2e} {:>12.2e} {:>9.1}%",
                format!("{n}³"),
                name,
                point.ai,
                achieved,
                roof.attainable(point.ai),
                achieved / roof.peak_flops * 100.0
            );
        }
    }

    println!("\nNote on AI accounting: the paper's 40.9 → 2954.7 values use Nsight's");
    println!("*measured* DRAM traffic (texture-cache misses included); ours counts the");
    println!("compulsory traffic (projection footprint once + volume once), so the");
    println!("absolute AI is higher. Both progressions grow monotonically with the");
    println!("volume, and the qualitative conclusions are identical: every point sits");
    println!("right of the ridge (compute-bound), ours ≈ RTK at roughly a third of the");
    println!("peak, and the streaming kernel's extra offset arithmetic is free.");
}
