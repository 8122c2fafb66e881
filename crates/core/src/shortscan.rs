//! Short-scan (partial-arc) FDK with Parker weighting — an extension
//! beyond the paper's full-scan evaluation.
//!
//! Clinical C-arm CBCT systems (one of the paper's motivating device
//! classes) often cannot rotate a full 360°: they acquire the minimal
//! short-scan arc `π + 2Δ` (fan angle `2Δ`). Each object ray is then
//! measured once or twice depending on its fan position, and the classic
//! Parker weights smoothly apportion the redundant measurements so FDK
//! remains exact in the mid-plane.
//!
//! The module reuses every substrate unchanged: arbitrary-angle projection
//! matrices, the same filter pipeline, the same kernels. Only the angle
//! table, the per-pixel weighting and the normalisation differ.

use scalefbp_backproject::backproject_simd;
use scalefbp_filter::{FilterPipeline, FilterWindow};
use scalefbp_geom::{CbctGeometry, ProjectionMatrix, ProjectionStack, Volume};

use crate::ReconstructionError;

/// The fan half-angle `Δ` (radians) of the geometry: the angular reach of
/// the detector's widest column as seen from the source.
pub fn fan_half_angle(geom: &CbctGeometry) -> f64 {
    let cu = 0.5 * (geom.nu as f64 - 1.0) + geom.sigma_u;
    let reach = cu.abs().max((geom.nu as f64 - 1.0 - cu).abs()) * geom.du;
    (reach / geom.dsd).atan()
}

/// The minimal short-scan arc `π + 2Δ` (radians).
pub fn short_scan_arc(geom: &CbctGeometry) -> f64 {
    std::f64::consts::PI + 2.0 * fan_half_angle(geom)
}

/// Scan angle of projection `s` for an `arc`-radian scan of `np` views
/// (endpoint exclusive, like the full-scan convention).
#[inline]
pub fn arc_angle(s: usize, np: usize, arc: f64) -> f64 {
    arc * s as f64 / np as f64
}

/// The Parker weight for scan angle `beta` and ray fan angle `gamma`, for
/// a short scan of arc `π + 2Δ` (Parker, Med. Phys. 1982).
///
/// Weights are in `[0, 1]`; complementary rays (`β, γ` and
/// `β + π − 2γ, −γ`) always weigh to 1 combined, which is what keeps the
/// reconstruction unbiased.
pub fn parker_weight(beta: f64, gamma: f64, delta: f64) -> f64 {
    let q = std::f64::consts::FRAC_PI_4; // π/4
    let pi = std::f64::consts::PI;
    if beta < 0.0 || beta > pi + 2.0 * delta {
        return 0.0;
    }
    if beta <= 2.0 * (delta + gamma) {
        // Ramp-up region: this ray's complement lies near the arc's end.
        let denom = delta + gamma;
        if denom <= 1e-12 {
            return 0.0;
        }
        let s = (q * beta / denom).sin();
        s * s
    } else if beta <= pi + 2.0 * gamma {
        1.0
    } else {
        // Ramp-down region: complement near the arc's start.
        let denom = delta - gamma;
        if denom <= 1e-12 {
            return 0.0;
        }
        let s = (q * (pi + 2.0 * delta - beta) / denom).sin();
        s * s
    }
}

/// Builds the per-(projection, column) Parker weight table for `np` views
/// over the geometry's short-scan arc.
pub fn parker_weights(geom: &CbctGeometry) -> Vec<Vec<f32>> {
    let delta = fan_half_angle(geom);
    let arc = short_scan_arc(geom);
    let cu = 0.5 * (geom.nu as f64 - 1.0) + geom.sigma_u;
    (0..geom.np)
        .map(|s| {
            let beta = arc_angle(s, geom.np, arc);
            (0..geom.nu)
                .map(|u| {
                    let gamma = ((u as f64 - cu) * geom.du / geom.dsd).atan();
                    parker_weight(beta, gamma, delta) as f32
                })
                .collect()
        })
        .collect()
}

/// Short-scan FDK: reconstructs from `N_p` projections spanning the
/// minimal arc `π + 2Δ` instead of 360°.
///
/// `projections` uses the same detector-row-major layout; projection `s`
/// is assumed acquired at `β = arc·s/N_p`.
pub fn fdk_reconstruct_short_scan(
    geom: &CbctGeometry,
    projections: &ProjectionStack,
    window: FilterWindow,
) -> Result<Volume, ReconstructionError> {
    geom.validate()?;
    if projections.nv() != geom.nv || projections.np() != geom.np || projections.nu() != geom.nu {
        return Err(ReconstructionError::ShapeMismatch(format!(
            "projections {}×{}×{} vs geometry {}×{}×{}",
            projections.nv(),
            projections.np(),
            projections.nu(),
            geom.nv,
            geom.np,
            geom.nu
        )));
    }

    let arc = short_scan_arc(geom);
    let pipeline = FilterPipeline::new(geom, window);
    let weights = parker_weights(geom);

    // Parker-weight, then ramp-filter, every row.
    let mut filtered = projections.clone();
    for v in 0..geom.nv {
        for (s, w) in weights.iter().enumerate() {
            let row = filtered.row_mut(v, s);
            for (px, &wu) in row.iter_mut().zip(w) {
                *px *= wu;
            }
        }
    }
    pipeline.filter_stack(&mut filtered);

    let mats: Vec<ProjectionMatrix> = (0..geom.np)
        .map(|s| ProjectionMatrix::new(geom, arc_angle(s, geom.np, arc)))
        .collect();
    let mut vol = Volume::zeros(geom.nx, geom.ny, geom.nz);
    backproject_simd(&filtered, &mats, &mut vol);

    // Normalisation: Δβ·D_so², and ×2 to undo the full-scan redundancy ½
    // folded into the filter (Parker weighting already accounts for the
    // short scan's partial double coverage).
    let dbeta = arc / geom.np as f64;
    let scale = (2.0 * dbeta * geom.dso * geom.dso) as f32;
    for v in vol.data_mut() {
        *v *= scale;
    }
    Ok(vol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_phantom::{forward_project_arc, rasterize, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(40, 140, 80, 64)
    }

    #[test]
    fn fan_angle_and_arc_are_consistent() {
        let g = geom();
        let delta = fan_half_angle(&g);
        assert!(delta > 0.0 && delta < std::f64::consts::FRAC_PI_2);
        assert!((short_scan_arc(&g) - (std::f64::consts::PI + 2.0 * delta)).abs() < 1e-12);
        // ideal(…, 80 wide, Δu=1, Dsd=250): Δ = atan(39.5/250).
        assert!((delta - (39.5f64 / 250.0).atan()).abs() < 1e-12);
    }

    #[test]
    fn parker_weights_are_bounded_and_taper() {
        let g = geom();
        let w = parker_weights(&g);
        assert_eq!(w.len(), g.np);
        for row in &w {
            for &x in row {
                assert!((0.0..=1.0 + 1e-6).contains(&(x as f64)));
            }
        }
        // First and last views are strongly down-weighted at (at least one
        // side of) the fan; mid-scan views weigh 1.
        let mid = &w[g.np / 2];
        assert!(mid.iter().all(|&x| (x - 1.0).abs() < 1e-5));
        assert!(w[0].iter().any(|&x| x < 0.5));
        assert!(w[g.np - 1].iter().any(|&x| x < 0.5));
    }

    #[test]
    fn complementary_rays_weigh_to_one() {
        let delta = 0.2;
        for gamma in [-0.15, -0.05, 0.0, 0.1] {
            for beta in [0.05, 0.3, 1.0, 2.0] {
                let comp_beta = beta + std::f64::consts::PI - 2.0 * gamma;
                if comp_beta <= std::f64::consts::PI + 2.0 * delta {
                    let sum =
                        parker_weight(beta, gamma, delta) + parker_weight(comp_beta, -gamma, delta);
                    assert!((sum - 1.0).abs() < 1e-9, "β={beta} γ={gamma}: sum {sum}");
                }
            }
        }
    }

    #[test]
    fn short_scan_matches_full_scan_reconstruction() {
        let g = geom();
        let ball = uniform_ball(&g, 0.55, 1.0);
        let arc = short_scan_arc(&g);
        let short_projs = forward_project_arc(&g, &ball, arc);
        let short = fdk_reconstruct_short_scan(&g, &short_projs, FilterWindow::RamLak).unwrap();

        // Mid-plane centre matches the phantom density.
        let c = short.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!((c - 1.0).abs() < 0.1, "short-scan centre {c}");

        // And the whole mid-plane agrees with the rasterised truth to a
        // few percent RMS.
        let truth = rasterize(&g, &ball);
        let k = g.nz / 2;
        let mut sum = 0.0f64;
        let mut n = 0;
        for j in g.ny / 4..3 * g.ny / 4 {
            for i in g.nx / 4..3 * g.nx / 4 {
                let d = (short.get(i, j, k) - truth.get(i, j, k)) as f64;
                sum += d * d;
                n += 1;
            }
        }
        let rmse = (sum / n as f64).sqrt();
        assert!(rmse < 0.12, "mid-plane RMSE {rmse}");
    }

    #[test]
    fn unweighted_short_scan_is_biased() {
        // Dropping the Parker weights must visibly break the
        // reconstruction — guarding that the weights do real work.
        let g = geom();
        let ball = uniform_ball(&g, 0.55, 1.0);
        let arc = short_scan_arc(&g);
        let projs = forward_project_arc(&g, &ball, arc);

        let weighted = fdk_reconstruct_short_scan(&g, &projs, FilterWindow::RamLak).unwrap();

        // Naive: treat the arc like a (scaled) full scan without weights.
        let pipeline = FilterPipeline::new(&g, FilterWindow::RamLak);
        let mut filtered = projs.clone();
        pipeline.filter_stack(&mut filtered);
        let mats: Vec<ProjectionMatrix> = (0..g.np)
            .map(|s| ProjectionMatrix::new(&g, arc_angle(s, g.np, arc)))
            .collect();
        let mut naive = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_simd(&filtered, &mats, &mut naive);
        let scale = (2.0 * arc / g.np as f64 * g.dso * g.dso) as f32;
        for v in naive.data_mut() {
            *v *= scale;
        }

        let truth = rasterize(&g, &ball);
        let err_weighted = weighted.rmse(&truth);
        let err_naive = naive.rmse(&truth);
        assert!(
            err_weighted < err_naive * 0.8,
            "weighted {err_weighted} vs naive {err_naive}"
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = geom();
        let bad = ProjectionStack::zeros(g.nv, g.np - 1, g.nu);
        assert!(matches!(
            fdk_reconstruct_short_scan(&g, &bad, FilterWindow::RamLak),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }
}
