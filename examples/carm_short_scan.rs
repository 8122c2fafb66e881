//! Interventional C-arm short scan: the minimal `π + 2Δ` arc with Parker
//! weighting — the acquisition mode of the C-arm CBCT systems the paper
//! cites as a motivating device class (Hatamikia et al., trajectory-
//! constrained C-arms).
//!
//! ```text
//! cargo run --release -p scalefbp --example carm_short_scan
//! ```

use scalefbp::shortscan::{fan_half_angle, short_scan_arc};
use scalefbp::{fdk_reconstruct, fdk_reconstruct_short_scan, CbctGeometry, FilterWindow};
use scalefbp_iosim::format::slice_to_pgm;
use scalefbp_phantom::{forward_project, forward_project_arc, rasterize, Phantom};

fn main() {
    // A C-arm-like geometry: modest magnification, 96³ output.
    let geom = CbctGeometry::ideal(96, 180, 128, 96);
    let delta = fan_half_angle(&geom);
    let arc = short_scan_arc(&geom);
    println!(
        "C-arm geometry: fan half-angle Δ = {:.1}°, short-scan arc = {:.1}° \
         (vs 360° full scan)",
        delta.to_degrees(),
        arc.to_degrees()
    );

    let head = Phantom::shepp_logan(geom.footprint_radius() * 0.9);

    // Full 360° scan as the reference.
    let t0 = std::time::Instant::now();
    let full = fdk_reconstruct(&geom, &forward_project(&geom, &head)).expect("full scan");
    let t_full = t0.elapsed().as_secs_f64();

    // Short scan: same angular density, ~58 % of the views.
    let np_short = ((arc / std::f64::consts::TAU) * geom.np as f64).ceil() as usize;
    let mut short_geom = geom.clone();
    short_geom.np = np_short;
    let t0 = std::time::Instant::now();
    let short = fdk_reconstruct_short_scan(
        &short_geom,
        &forward_project_arc(&short_geom, &head, arc),
        FilterWindow::Hann,
    )
    .expect("short scan");
    let t_short = t0.elapsed().as_secs_f64();

    println!(
        "full scan: {} views, reconstructed in {t_full:.2} s\n\
         short scan: {np_short} views ({:.0}% of the dose), reconstructed in {t_short:.2} s",
        geom.np,
        100.0 * np_short as f64 / geom.np as f64
    );

    let truth = rasterize(&geom, &head);
    println!(
        "mid-plane agreement — full vs truth RMSE: {:.4}; short vs truth RMSE: {:.4}",
        midplane_rmse(&full, &truth),
        midplane_rmse(&short, &truth)
    );

    std::fs::write("carm_full.pgm", slice_to_pgm(&full, geom.nz / 2)).unwrap();
    std::fs::write("carm_short.pgm", slice_to_pgm(&short, geom.nz / 2)).unwrap();
    println!("wrote carm_full.pgm / carm_short.pgm for side-by-side inspection");
}

fn midplane_rmse(a: &scalefbp::Volume, b: &scalefbp::Volume) -> f64 {
    let k = a.nz() / 2;
    let (nx, ny) = (a.nx(), a.ny());
    let mut sum = 0.0;
    let mut n = 0usize;
    for j in ny / 4..3 * ny / 4 {
        for i in nx / 4..3 * nx / 4 {
            let d = (a.get(i, j, k) - b.get(i, j, k)) as f64;
            sum += d * d;
            n += 1;
        }
    }
    (sum / n as f64).sqrt()
}
