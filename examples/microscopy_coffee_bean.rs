//! The microscope-CT workload: the coffee-bean dataset of Section 6.1,
//! scaled to laptop size, from raw photon counts to an out-of-core volume.
//!
//! ```text
//! cargo run --release -p scalefbp --example microscopy_coffee_bean
//! ```
//!
//! Exercises the full acquisition path the paper describes: the Zeiss
//! Versa geometry (magnification 9.48, rotation-centre offset
//! `σ_cor = −0.0021` mm of Table 4), Beer's-law photon counts with
//! dark/blank fields, the Equation 1 normalisation, and the streaming
//! out-of-core reconstruction on a deliberately undersized device.

use scalefbp::{DeviceSpec, FdkConfig, FilterWindow, OutOfCoreReconstructor, Schedule};
use scalefbp_geom::DatasetPreset;
use scalefbp_iosim::format::slice_to_pgm;
use scalefbp_phantom::{
    coffee_bean_like, forward_project, offset_scan_geometries, stitch_offset_scans, PhotonScan,
};

fn main() {
    // The paper-scale coffee bean is 3728×2000×6401 projections → 4096³.
    // Scale every axis down 2⁵ = 32× to run in seconds on a laptop while
    // keeping the exact geometry (magnification, offsets).
    let preset = DatasetPreset::by_name("coffee_bean").unwrap().scaled(5);
    let geom = preset.geometry.clone();
    println!("dataset: {} ({})", preset.name, preset.provenance);
    println!(
        "scaled geometry: detector {}×{}, {} projections, output {}³, magnification {:.2}×, σ_cor={}",
        geom.nu, geom.nv, geom.np, geom.nx, geom.magnification(), geom.sigma_cor
    );

    // Acquire exactly like the real dataset (Section 6.1): two full scans
    // with the panel offset left/right, stitched into wide projections,
    // then raw photon counts → Equation 1 normalisation.
    let bean = coffee_bean_like(&geom);
    let narrow_nu = geom.nu * 2000 / 3728 + 1; // the paper's 2000-px panel, scaled
    let (left_geom, right_geom) = offset_scan_geometries(&geom, narrow_nu);
    let left = forward_project(&left_geom, &bean);
    let right = forward_project(&right_geom, &bean);
    let ideal = stitch_offset_scans(&geom, &left, &right);
    println!(
        "stitched two {}-column offset scans into {}-column projections",
        narrow_nu, geom.nu
    );
    let scan = PhotonScan::from_projections(&ideal, 100.0, 60_000.0, None);
    let projections = scan.normalise();
    println!(
        "acquired {:.1} MB of photon counts (λ_dark=100, λ_blank=60000)",
        scan.counts.len() as f64 * 4.0 / 1e6
    );

    // Reconstruct out-of-core on a device that cannot hold the problem:
    // capacity = a third of (projections + volume).
    let budget = ((geom.projection_bytes() + geom.volume_bytes()) / 3) as u64;
    let config = FdkConfig::new(geom.clone())
        .with_window(FilterWindow::SheppLogan)
        .with_device(DeviceSpec::tiny(budget));
    let rec = OutOfCoreReconstructor::new(config).expect("planning failed");
    println!(
        "device budget {:.1} MB → N_b = {} slices/batch, ring window H = {} rows, {} batches",
        budget as f64 / 1e6,
        rec.nb(),
        rec.window_rows(),
        rec.plan().num_subvolumes()
    );

    let (volume, report) = rec
        .reconstruct(&projections, Schedule::Serial)
        .expect("reconstruction failed");

    println!("\nper-batch streaming (differential rows, Figure 4):");
    println!("  batch  rows_loaded  simulated H2D+BP+D2H (s)");
    for b in &report.batches {
        println!(
            "  {:>5}  {:>11}  {:.4}",
            b.index,
            b.rows_loaded,
            b.h2d_secs + b.bp_secs + b.d2h_secs
        );
    }
    let rows: usize = report.batches.iter().map(|b| b.rows_loaded).sum();
    println!(
        "\ntotal detector rows streamed: {rows} (detector height {}): every row moved once",
        geom.nv
    );
    println!(
        "wall time {:.2} s, kernel {:.3} GUPS, H2D {:.1} MB, D2H {:.1} MB",
        report.wall_secs,
        report.wall_gups(),
        report.device.h2d_bytes as f64 / 1e6,
        report.device.d2h_bytes as f64 / 1e6
    );

    let pgm = slice_to_pgm(&volume, geom.nz / 2);
    std::fs::write("coffee_bean_axial.pgm", pgm).expect("write PGM");
    println!("wrote coffee_bean_axial.pgm");
}
