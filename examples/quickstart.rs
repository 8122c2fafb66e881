//! Quickstart: reconstruct a 3-D Shepp-Logan phantom with one call.
//!
//! ```text
//! cargo run --release -p scalefbp --example quickstart
//! ```
//!
//! Simulates a cone-beam scan of the classic head phantom, runs the
//! in-core FDK reconstruction (filter + back-project + normalise), checks
//! the numerics against the analytic ground truth, and writes the central
//! slice as `quickstart_slice.pgm` for visual inspection.

use scalefbp::{fdk_reconstruct, CbctGeometry};
use scalefbp_iosim::format::slice_to_pgm;
use scalefbp_phantom::{forward_project, rasterize, Phantom};

fn main() {
    // 1. Describe the scanner (Table 1 of the paper): a cubic 64³ volume
    //    observed by a 96×96 flat-panel detector over 120 projections.
    let geom = CbctGeometry::ideal(64, 120, 96, 96);
    println!(
        "geometry: {}³ volume, {}×{} detector, {} projections, magnification {:.2}×",
        geom.nx,
        geom.nu,
        geom.nv,
        geom.np,
        geom.magnification()
    );

    // 2. Simulate the scan: analytic line integrals of the head phantom.
    let phantom = Phantom::shepp_logan(geom.footprint_radius() * 0.95);
    let projections = forward_project(&geom, &phantom);
    println!(
        "simulated {} projection pixels ({:.1} MB)",
        projections.len(),
        projections.len() as f64 * 4.0 / 1e6
    );

    // 3. Reconstruct.
    let t0 = std::time::Instant::now();
    let volume = fdk_reconstruct(&geom, &projections).expect("reconstruction failed");
    let dt = t0.elapsed().as_secs_f64();
    let gups = geom.voxel_updates() as f64 / dt / 1e9;
    println!("reconstructed in {dt:.2} s ({gups:.3} GUPS on this CPU)");

    // 4. Validate against the analytic ground truth (central region).
    let truth = rasterize(&geom, &phantom);
    let rmse = volume.rmse(&truth);
    println!("whole-volume RMSE vs analytic phantom: {rmse:.4}");

    // 5. Export the central slice for eyeballing.
    let pgm = slice_to_pgm(&volume, geom.nz / 2);
    std::fs::write("quickstart_slice.pgm", pgm).expect("write PGM");
    println!("wrote quickstart_slice.pgm ({}×{})", geom.nx, geom.ny);
}
