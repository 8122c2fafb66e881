//! Regenerates **Figure 8**: a reconstructed 512×512-class slice of
//! tomo_00030 produced through the per-batch reduction of a 4-rank
//! group, written as a PGM image, with the numerical comparison against
//! the single-node reconstruction.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig8_reduce_slice
//! ```

use scalefbp::{fault_tolerant_reconstruct, fdk_reconstruct, FdkConfig, RankLayout};
use scalefbp_faults::FaultPlan;
use scalefbp_geom::DatasetPreset;
use scalefbp_iosim::format::slice_to_pgm;
use scalefbp_phantom::{forward_project, Phantom};

pub fn run(_: &crate::Options) {
    println!("Figure 8 — MPI_Reduce on a slice of tomo_00030\n");

    // tomo_00030's geometry scaled 4× (paper slice: 512²; ours: 128² at
    // laptop scale), Shepp-Logan standing in for the scanned sample.
    let preset = DatasetPreset::by_name("tomo_00030").unwrap().scaled(2);
    let geom = preset.geometry.clone();
    println!(
        "geometry: {}×{} detector, {} projections → {}³ (σ_u = {})",
        geom.nu, geom.nv, geom.np, geom.nx, geom.sigma_u
    );

    let phantom = Phantom::shepp_logan(geom.footprint_radius() * 0.9);
    let projections = forward_project(&geom, &phantom);

    // Figure 3's example layout: one group of N_r = 4 ranks splitting N_p,
    // merged by exactly one group reduction per batch.
    let cfg = FdkConfig::new(geom.clone()).with_nc(4);
    let t0 = std::time::Instant::now();
    let out = fault_tolerant_reconstruct(
        &cfg,
        RankLayout::new(4, 1, 4),
        &projections,
        &FaultPlan::none(),
        None,
    )
    .expect("distributed run failed");
    // Wall seconds go to stderr: stdout is model-deterministic and must
    // compare byte for byte across runs and builds.
    eprintln!(
        "4-rank group-reduce reconstruction: {:.2} s wall",
        t0.elapsed().as_secs_f64()
    );
    println!(
        "4-rank group-reduce reconstruction: {:.1} MB over the network",
        out.network.bytes as f64 / 1e6
    );

    let reference = fdk_reconstruct(&geom, &projections).expect("reference failed");
    println!(
        "RMSE vs single-node: {:.3e}; max abs diff: {:.3e} (paper threshold: 1e-5)",
        reference.rmse(&out.volume),
        reference.max_abs_diff(&out.volume)
    );

    let k = geom.nz / 2;
    std::fs::write("fig8_slice.pgm", slice_to_pgm(&out.volume, k)).expect("write PGM");
    println!("wrote fig8_slice.pgm (central slice, min-max windowed)");
}
