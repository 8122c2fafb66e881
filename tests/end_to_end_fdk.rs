//! End-to-end numerical validation: phantom → simulated scan →
//! reconstruction → comparison against the analytic ground truth.
//!
//! This is the paper's Section 6.1 "numerical assessment" (Shepp-Logan
//! projections generated with the forward model, reconstructed, compared
//! against the standard volume).

use scalefbp::{
    fdk_reconstruct, fdk_reconstruct_configured, CbctGeometry, FdkConfig, FilterWindow,
};
use scalefbp_geom::DatasetPreset;
use scalefbp_phantom::{
    coffee_bean_like, forward_project, rasterize, uniform_ball, Phantom, PhotonScan,
};

fn central_rmse(
    vol: &scalefbp_geom::Volume,
    truth: &scalefbp_geom::Volume,
    margin_frac: f64,
) -> f64 {
    let (nx, ny, nz) = (vol.nx(), vol.ny(), vol.nz());
    let mi = (nx as f64 * margin_frac) as usize;
    let mj = (ny as f64 * margin_frac) as usize;
    let mk = (nz as f64 * margin_frac) as usize;
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for k in mk..nz - mk {
        for j in mj..ny - mj {
            for i in mi..nx - mi {
                let d = (vol.get(i, j, k) - truth.get(i, j, k)) as f64;
                sum += d * d;
                n += 1;
            }
        }
    }
    (sum / n as f64).sqrt()
}

#[test]
fn shepp_logan_reconstructs_against_ground_truth() {
    let geom = CbctGeometry::ideal(48, 96, 96, 80);
    let phantom = Phantom::shepp_logan(geom.footprint_radius() * 0.9);
    let projections = forward_project(&geom, &phantom);
    let vol = fdk_reconstruct(&geom, &projections).unwrap();
    let truth = rasterize(&geom, &phantom);
    let rmse = central_rmse(&vol, &truth, 0.25);
    // Band-limited FDK of a discontinuous phantom: a few percent RMS in
    // the central region (edges ring at the skull).
    assert!(rmse < 0.12, "central RMSE {rmse}");
}

#[test]
fn photon_count_pipeline_end_to_end() {
    // Raw counts → Equation 1 → FDK. The full acquisition chain.
    let geom = CbctGeometry::ideal(40, 80, 72, 64);
    let phantom = uniform_ball(&geom, 0.5, 1.0);
    let ideal = forward_project(&geom, &phantom);
    let scan = PhotonScan::from_projections(&ideal, 200.0, 50_000.0, None);
    let projections = scan.normalise();
    let vol = fdk_reconstruct(&geom, &projections).unwrap();
    let c = vol.get(geom.nx / 2, geom.ny / 2, geom.nz / 2);
    assert!((c - 1.0).abs() < 0.1, "centre density {c}");
}

#[test]
fn noisy_photon_counts_still_reconstruct() {
    use rand::SeedableRng;
    let geom = CbctGeometry::ideal(32, 64, 56, 48);
    // Keep the peak line integral near 3 so the photon counts stay well
    // above the dark level (a real scanner's exposure is tuned the same
    // way; a density of 1.0 over a ~13 mm chord would starve the detector).
    let radius = geom.footprint_radius() * 0.95 * 0.5;
    let density = (3.0 / (2.0 * radius)) as f32;
    let phantom = uniform_ball(&geom, 0.5, density);
    let ideal = forward_project(&geom, &phantom);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let scan = PhotonScan::from_projections(&ideal, 200.0, 50_000.0, Some(&mut rng));
    let vol = fdk_reconstruct_configured(
        &FdkConfig::new(geom.clone()).with_window(FilterWindow::Hann),
        &scan.normalise(),
        None,
    )
    .unwrap();
    let c = vol.get(geom.nx / 2, geom.ny / 2, geom.nz / 2);
    assert!(
        (c - density).abs() < 0.15 * density,
        "centre density under noise {c}, expected {density}"
    );
}

#[test]
fn scaled_dataset_presets_reconstruct() {
    // Every Table 4 geometry (offsets included) must run end to end.
    for preset in DatasetPreset::all() {
        let scaled = preset.scaled(6);
        let g = &scaled.geometry;
        let phantom = uniform_ball(g, 0.5, 1.0);
        let projections = forward_project(g, &phantom);
        let vol =
            fdk_reconstruct(g, &projections).unwrap_or_else(|e| panic!("{}: {e}", preset.name));
        let c = vol.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!(
            (c - 1.0).abs() < 0.35,
            "{}: centre density {c}",
            preset.name
        );
    }
}

#[test]
fn coffee_bean_scene_has_visible_structure() {
    let preset = DatasetPreset::by_name("coffee_bean").unwrap().scaled(6);
    let g = &preset.geometry;
    let bean = coffee_bean_like(g);
    let vol = fdk_reconstruct(g, &forward_project(g, &bean)).unwrap();
    let truth = rasterize(g, &bean);
    // Reconstruction correlates strongly with the ground truth.
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in vol.data().iter().zip(truth.data()) {
        dot += (*a as f64) * (*b as f64);
        na += (*a as f64).powi(2);
        nb += (*b as f64).powi(2);
    }
    let corr = dot / (na.sqrt() * nb.sqrt()).max(1e-12);
    assert!(corr > 0.8, "correlation {corr}");
}

#[test]
fn higher_angular_sampling_improves_accuracy() {
    // Quadrupling the projection count reduces the error on an
    // *asymmetric* object (a centred ball is rotation-invariant, so the
    // probe must be off-centre for view count to matter) — the regression
    // guard on the whole numerical chain.
    let coarse = CbctGeometry::ideal(32, 16, 64, 56);
    let fine = CbctGeometry::ideal(32, 64, 64, 56);
    let rmse_of = |g: &CbctGeometry| {
        let r = g.footprint_radius();
        let ph = Phantom::new(vec![scalefbp_phantom::Ellipsoid::sphere(
            [0.4 * r, 0.2 * r, 0.0],
            0.25 * r,
            1.0,
        )]);
        let vol = fdk_reconstruct(g, &forward_project(g, &ph)).unwrap();
        let truth = rasterize(g, &ph);
        central_rmse(&vol, &truth, 0.2)
    };
    let e_coarse = rmse_of(&coarse);
    let e_fine = rmse_of(&fine);
    assert!(
        e_fine < e_coarse * 0.9,
        "fine {e_fine} not clearly better than coarse {e_coarse}"
    );
}
