//! Regenerates the quantitative columns of **Table 2**: decomposition
//! scheme comparison — lower-bound device footprint, H2D traffic,
//! communication volume/rounds, out-of-core capability — for this paper's
//! 2-D scheme vs iFDK-style (`N_p`-only) vs RTK/Lu-style (no split).
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- table2_ablation
//! ```

use scalefbp::baselines::{scheme_costs, Scheme};
use scalefbp::{
    fault_tolerant_reconstruct, DeviceSpec, FdkConfig, OutOfCoreReconstructor, RankLayout, Schedule,
};
use scalefbp_bench::{fmt_bytes, MeasuredWorkload};
use scalefbp_faults::FaultPlan;
use scalefbp_geom::DatasetPreset;

fn analytic_section() {
    let g = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
    println!(
        "analytic, coffee bean at paper scale ({}×{}×{} → {}³, 1024 GPUs):\n",
        g.nu, g.nv, g.np, g.nx
    );
    println!(
        "{:>26} {:>14} {:>14} {:>14} {:>8} {:>12}",
        "scheme", "min device", "H2D/GPU", "comm total", "rounds", "out-of-core"
    );
    let rows = [
        (
            "ours (2D input, Nr=16)",
            scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8),
        ),
        (
            "iFDK-style (Np only)",
            scheme_costs(&g, Scheme::NpOnly { nranks: 1024 }, 8),
        ),
        (
            "RTK/Lu-style (no split)",
            scheme_costs(&g, Scheme::NoSplit, 8),
        ),
    ];
    let v100 = DeviceSpec::v100_16gb();
    for (name, c) in rows {
        println!(
            "{:>26} {:>14} {:>14} {:>14} {:>8} {:>12}",
            name,
            format!(
                "{}{}",
                fmt_bytes(c.min_device_bytes),
                if c.feasible_on(&v100) { "" } else { " ✗V100" }
            ),
            fmt_bytes(c.h2d_bytes_per_gpu),
            fmt_bytes(c.comm_bytes),
            c.collective_rounds,
            if c.out_of_core { "yes" } else { "no" },
        );
    }
}

fn measured_section() {
    println!("\nmeasured (real counters, laptop scale, tomo_00030 scaled):\n");
    let w = MeasuredWorkload::new("tomo_00030", 3);
    let g = &w.geom;

    // Ours: out-of-core streaming H2D.
    let budget = ((g.projection_bytes() + g.volume_bytes()) / 3) as u64;
    let rec = OutOfCoreReconstructor::new(
        FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(budget)),
    )
    .unwrap();
    let (_, report) = rec.reconstruct(&w.projections, Schedule::Serial).unwrap();
    let chunks = report.batches.len() as u64;
    let lu_h2d = g.projection_bytes() as u64 * chunks;
    println!(
        "H2D traffic:   ours {} (each row once) vs Lu-style re-streaming {} ({}×)",
        fmt_bytes(report.device.h2d_bytes),
        fmt_bytes(lu_h2d),
        chunks
    );

    // Communication: segmented (2×2) vs one wide group (4×1) at 4 ranks.
    let cfg = FdkConfig::new(g.clone()).with_nc(2);
    let network = |layout| {
        fault_tolerant_reconstruct(&cfg, layout, &w.projections, &FaultPlan::none(), None)
            .unwrap()
            .network
    };
    let global = network(RankLayout::new(4, 1, 2));
    let segmented = network(RankLayout::new(2, 2, 2));
    println!(
        "network bytes: segmented groups {} vs one wide group {} (both 4 ranks)",
        fmt_bytes(segmented.bytes),
        fmt_bytes(global.bytes)
    );
}

pub fn run(_: &crate::Options) {
    println!("Table 2 — decomposition scheme comparison (quantitative columns)\n");
    analytic_section();
    measured_section();
}
