//! The Discussion's production workflow: **Metal Artifact Reduction**,
//! the reason high-resolution CBCT reruns reconstruction tens of times
//! ("it is common to do 10s of repeated reconstructions after tuning the
//! reconstruction parameters … e.g. Metal Artifact Reduction (MAR)").
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- mar_workflow
//! ```
//!
//! Implements the classic sinogram-inpainting MAR loop from the public
//! APIs alone:
//!
//! 1. reconstruct → threshold the metal,
//! 2. forward-project the metal mask to find the corrupted sinogram bins,
//! 3. inpaint them by interpolation along detector rows,
//! 4. reconstruct again (and iterate).
//!
//! Each MAR pass costs one forward projection plus one full FBP — which is
//! why the aggregate time saving of a fast reconstruction "contributes
//! highly to productivity" (Section 6.3).

use std::time::Instant;

use scalefbp::{fdk_reconstruct_configured, CbctGeometry, FdkConfig, FilterWindow};
use scalefbp_geom::{ProjectionStack, Volume};
use scalefbp_iterative::{forward_project_volume, RayMarchConfig};
use scalefbp_phantom::{forward_project, rasterize, Ellipsoid, Phantom};

/// Inpaints sinogram bins flagged by `mask > threshold` with linear
/// interpolation along each detector row.
fn inpaint(sino: &mut ProjectionStack, mask: &ProjectionStack, threshold: f32) {
    for v in 0..sino.nv() {
        for s in 0..sino.np() {
            let flags: Vec<bool> = mask.row(v, s).iter().map(|&m| m > threshold).collect();
            let row = sino.row_mut(v, s);
            let nu = row.len();
            let mut u = 0;
            while u < nu {
                if !flags[u] {
                    u += 1;
                    continue;
                }
                let start = u;
                while u < nu && flags[u] {
                    u += 1;
                }
                let left = if start > 0 {
                    row[start - 1]
                } else {
                    row[u.min(nu - 1)]
                };
                let right = if u < nu { row[u] } else { left };
                let len = u - start;
                for (o, slot) in row[start..u].iter_mut().enumerate() {
                    let t = (o + 1) as f32 / (len + 1) as f32;
                    *slot = left * (1.0 - t) + right * t;
                }
            }
        }
    }
}

pub fn run(_: &crate::Options) {
    // A tissue ball with a dense metal implant.
    let geom = CbctGeometry::ideal(48, 96, 96, 80);
    let r = geom.footprint_radius();
    let tissue = Ellipsoid::sphere([0.0; 3], 0.6 * r, 1.0);
    let metal = Ellipsoid::sphere([0.25 * r, 0.0, 0.0], 0.06 * r, 40.0);
    let scene = Phantom::new(vec![tissue, metal]);
    let clean = Phantom::new(vec![tissue]); // artifact-free reference
    let truth = rasterize(&geom, &clean);

    let sino = forward_project(&geom, &scene);
    println!(
        "MAR workflow — {}³ volume, {} projections, metal at 40× tissue density\n",
        geom.nx, geom.np
    );

    let tissue_rmse = |vol: &Volume| -> f64 {
        // Error against the clean reference, outside the implant itself.
        let mut sum = 0.0;
        let mut n = 0usize;
        let k = geom.nz / 2;
        for j in 0..geom.ny {
            for i in 0..geom.nx {
                let x = geom.voxel_x(i) - 0.25 * r;
                let y = geom.voxel_y(j);
                if (x * x + y * y).sqrt() < 0.1 * r {
                    continue; // skip the implant neighbourhood
                }
                let d = (vol.get(i, j, k) - truth.get(i, j, k)) as f64;
                sum += d * d;
                n += 1;
            }
        }
        (sum / n as f64).sqrt()
    };

    let t0 = Instant::now();
    let mut recon = fdk_reconstruct_configured(
        &FdkConfig::new(geom.clone()).with_window(FilterWindow::Hann),
        &sino,
        None,
    )
    .expect("pass 0");
    println!(
        "pass 0 (naive FBP):      tissue RMSE {:.4}  [{:.2} s]",
        tissue_rmse(&recon),
        t0.elapsed().as_secs_f64()
    );

    // The metal mask accumulates across passes (a corrected reconstruction
    // no longer *shows* the metal — forgetting it would oscillate back to
    // the naive image).
    let mut mask_vol = Volume::zeros(geom.nx, geom.ny, geom.nz);
    for pass in 1..=3 {
        let t = Instant::now();
        // Segment metal in the current reconstruction; union into the mask.
        // Later passes lower the threshold to catch blooming the first
        // pass's streaks hid.
        let threshold = 5.0 / pass as f32;
        for (m, &v) in mask_vol.data_mut().iter_mut().zip(recon.data()) {
            if v > threshold {
                *m = 1.0;
            }
        }
        // Find the corrupted bins and inpaint them.
        let metal_trace = forward_project_volume(&geom, &mask_vol, RayMarchConfig::default());
        let mut working = sino.clone();
        inpaint(&mut working, &metal_trace, 0.01);
        recon = fdk_reconstruct_configured(
            &FdkConfig::new(geom.clone()).with_window(FilterWindow::Hann),
            &working,
            None,
        )
        .expect("MAR pass");
        println!(
            "pass {pass} (MAR inpainted): tissue RMSE {:.4}  [{:.2} s]",
            tissue_rmse(&recon),
            t.elapsed().as_secs_f64()
        );
    }

    println!(
        "\ntotal workflow: {:.1} s for 4 reconstructions + 3 forward projections —",
        t0.elapsed().as_secs_f64()
    );
    println!("at paper scale each pass is a full 4096³ job, which is why Section 6.3");
    println!("argues the aggregate saving of fast large-scale FBP 'contributes highly");
    println!("to productivity'.");
}
