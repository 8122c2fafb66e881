//! In-core FDK reconstruction: the quickstart call and its configured form.

use scalefbp_geom::{CbctGeometry, ProjectionStack, RowSource, Volume, VolumeDecomposition};

use crate::stream::{scale_sum, DataPath, BLOCK_BYTES};
use crate::{FdkConfig, ReconstructionError};

/// Reconstructs the full volume in memory with the Ram-Lak window:
/// filtering (Eq 2) → back-projection (Algorithm 1) → FDK normalisation.
///
/// `projections` must be a full log-domain stack (`N_v × N_p × N_u`, the
/// output of Equation 1 pre-processing). This is the "simple path" against
/// which the out-of-core and distributed drivers are validated.
pub fn fdk_reconstruct(
    geom: &CbctGeometry,
    projections: &ProjectionStack,
) -> Result<Volume, ReconstructionError> {
    fdk_reconstruct_configured(&FdkConfig::new(geom.clone()), projections, None)
}

/// In-core reconstruction honouring the [`FdkConfig`]'s apodisation
/// window and back-projection [`KernelChoice`](crate::KernelChoice). It
/// charges no device, so its [`BackendChoice`](crate::BackendChoice)
/// changes nothing. The `Reference` oracle is validated bitwise against
/// the default in the workspace property tests.
///
/// It is every driver's data path over a one-slab plan: the slab's rows
/// (`ComputeAB`) are read from `source` block by block, filtered into a
/// ring that holds only them, and back-projected straight into the
/// output. A source that reads lazily (a `.sfbp` file) is never held
/// whole; a failed read is [`ReconstructionError::Input`].
///
/// `slices = Some((z_begin, z_end))` is the region-of-interest form: only
/// global slices `[z_begin, z_end)`, from only the detector rows those
/// slices need. The returned slab's `z_offset` is `z_begin` and its
/// voxels are bit-identical to the same slices of the full
/// reconstruction — a clinician re-reconstructing ten slices around a
/// feature pays for ten slices, not for the volume. `None` is the whole
/// volume.
pub fn fdk_reconstruct_configured(
    config: &FdkConfig,
    source: &dyn RowSource,
    slices: Option<(usize, usize)>,
) -> Result<Volume, ReconstructionError> {
    let geom = &config.geometry;
    config.validate()?;
    config.check_projections(source)?;
    let (z_begin, z_end) = slices.unwrap_or((0, geom.nz));
    if z_begin >= z_end || z_end > geom.nz {
        return Err(ReconstructionError::ShapeMismatch(format!(
            "slice range [{z_begin}, {z_end}) invalid for nz={}",
            geom.nz
        )));
    }
    let plan = VolumeDecomposition::new(geom, z_begin, z_end, z_end - z_begin);
    let task = &plan.tasks()[0];
    let path = DataPath::new(config, source, BLOCK_BYTES);
    let mut ring = path.ring(&plan, 0..geom.np);
    path.fill(&mut ring, task.rows)?;
    let (mut vol, _) = path.backproject(task, &ring);
    scale_sum(vol.data_mut(), path.weight());
    Ok(vol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_filter::FilterWindow;
    use scalefbp_phantom::{forward_project, rasterize, uniform_ball, Phantom};

    /// A geometry with a moderate cone angle and enough sampling for
    /// quantitative checks.
    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(48, 96, 96, 80)
    }

    #[test]
    fn uniform_ball_reconstructs_to_its_density() {
        let g = geom();
        let ball = uniform_ball(&g, 0.6, 1.0);
        let p = forward_project(&g, &ball);
        let vol = fdk_reconstruct(&g, &p).unwrap();
        // Mid-plane centre: FDK is exact there up to discretisation.
        let c = vol.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!(
            (c - 1.0).abs() < 0.08,
            "centre density {c}, expected 1.0 — FDK normalisation is off"
        );
        // Well outside the ball (mid-plane corner region): near zero.
        let o = vol.get(2, g.ny / 2, g.nz / 2);
        assert!(o.abs() < 0.12, "outside density {o}");
    }

    #[test]
    fn ball_edge_is_sharp_in_midplane() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 2.0);
        let r_vox = ball.ellipsoids()[0].semi_axes[0] / g.dx;
        let p = forward_project(&g, &ball);
        let vol = fdk_reconstruct(&g, &p).unwrap();
        let k = g.nz / 2;
        let j = g.ny / 2;
        let cx = (g.nx as f64 - 1.0) / 2.0;
        // Profile along +x: inside ≈ 2.0, outside ≈ 0.
        let inside = vol.get((cx + r_vox * 0.5) as usize, j, k);
        let outside = vol.get((cx + r_vox * 1.5).min(g.nx as f64 - 1.0) as usize, j, k);
        assert!((inside - 2.0).abs() < 0.25, "inside {inside}");
        assert!(outside.abs() < 0.25, "outside {outside}");
    }

    #[test]
    fn reconstruction_is_linear_in_the_object() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let mut p1 = forward_project(&g, &ball);
        let v1 = fdk_reconstruct(&g, &p1).unwrap();
        // Double the projections: reconstruction doubles.
        for px in p1.data_mut() {
            *px *= 2.0;
        }
        let v2 = fdk_reconstruct(&g, &p1).unwrap();
        let c1 = v1.get(g.nx / 2, g.ny / 2, g.nz / 2);
        let c2 = v2.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!((c2 - 2.0 * c1).abs() < 1e-3);
    }

    #[test]
    fn rmse_against_rasterised_phantom_is_small() {
        // The paper's numerical assessment: reconstruct a phantom and
        // compare to the ground truth. With a band-limited ramp the interior
        // matches to a few percent RMS (edges ring, cone artifacts at
        // extreme z — both excluded by comparing the central region).
        let g = geom();
        let ball = uniform_ball(&g, 0.55, 1.0);
        let p = forward_project(&g, &ball);
        let vol = fdk_reconstruct(&g, &p).unwrap();
        let truth = rasterize(&g, &ball);
        let mut sum = 0.0f64;
        let mut n = 0usize;
        let margin = g.nz / 4;
        for k in margin..(g.nz - margin) {
            for j in (g.ny / 4)..(3 * g.ny / 4) {
                for i in (g.nx / 4)..(3 * g.nx / 4) {
                    let d = (vol.get(i, j, k) - truth.get(i, j, k)) as f64;
                    sum += d * d;
                    n += 1;
                }
            }
        }
        let rmse = (sum / n as f64).sqrt();
        assert!(rmse < 0.1, "central-region RMSE {rmse}");
    }

    #[test]
    fn off_centre_ball_lands_at_the_right_place() {
        let g = geom();
        let r = g.footprint_radius();
        let ball = Phantom::new(vec![scalefbp_phantom::Ellipsoid::sphere(
            [0.3 * r, -0.2 * r, 0.1 * r],
            0.2 * r,
            1.5,
        )]);
        let p = forward_project(&g, &ball);
        let vol = fdk_reconstruct(&g, &p).unwrap();
        // Find the voxel indices of the ball centre.
        let ci = ((0.3 * r) / g.dx + (g.nx as f64 - 1.0) / 2.0).round() as usize;
        let cj = ((-0.2 * r) / g.dy + (g.ny as f64 - 1.0) / 2.0).round() as usize;
        let ck = ((0.1 * r) / g.dz + (g.nz as f64 - 1.0) / 2.0).round() as usize;
        let at_centre = vol.get(ci, cj, ck);
        assert!(
            (at_centre - 1.5).abs() < 0.25,
            "density at displaced centre {at_centre}"
        );
        // The volume centre (outside the ball) stays near zero.
        let at_origin = vol.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!(at_origin.abs() < 0.25, "origin density {at_origin}");
    }

    #[test]
    fn geometric_offsets_are_corrected() {
        // Same phantom scanned with detector offsets: the corrected
        // reconstruction must match the uncorrected-geometry one closely
        // (this is the Table 4 capability RTK lacks for these datasets).
        let g0 = geom();
        let ball = uniform_ball(&g0, 0.5, 1.0);
        let v0 = fdk_reconstruct(&g0, &forward_project(&g0, &ball)).unwrap();

        let mut g1 = g0.clone();
        g1.sigma_u = 3.0;
        g1.sigma_v = -2.0;
        g1.sigma_cor = 0.004 * g0.footprint_radius();
        let v1 = fdk_reconstruct(&g1, &forward_project(&g1, &ball)).unwrap();

        let c0 = v0.get(g0.nx / 2, g0.ny / 2, g0.nz / 2);
        let c1 = v1.get(g0.nx / 2, g0.ny / 2, g0.nz / 2);
        assert!((c0 - c1).abs() < 0.05, "corrected {c1} vs baseline {c0}");
    }

    #[test]
    fn slab_roi_is_bit_identical_to_full_reconstruction() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let p = forward_project(&g, &ball);
        let full = fdk_reconstruct(&g, &p).unwrap();
        for (z0, z1) in [(0, 6), (20, 28), (g.nz - 5, g.nz)] {
            let slab =
                fdk_reconstruct_configured(&FdkConfig::new(g.clone()), &p, Some((z0, z1))).unwrap();
            assert_eq!(slab.z_offset(), z0);
            for k in 0..(z1 - z0) {
                assert_eq!(slab.slice(k), full.slice(z0 + k), "slice {}", z0 + k);
            }
        }
    }

    #[test]
    fn slab_roi_rejects_bad_range() {
        let g = geom();
        let p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let cfg = FdkConfig::new(g.clone());
        for bad in [(5, 5), (0, g.nz + 1)] {
            assert!(matches!(
                fdk_reconstruct_configured(&cfg, &p, Some(bad)),
                Err(ReconstructionError::ShapeMismatch(_))
            ));
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let g = geom();
        let p = ProjectionStack::zeros(g.nv, g.np, g.nu - 1);
        assert!(matches!(
            fdk_reconstruct(&g, &p),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn configured_default_is_bit_identical_to_plain_path() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let p = forward_project(&g, &ball);
        let plain = fdk_reconstruct(&g, &p).unwrap();
        let configured = fdk_reconstruct_configured(&FdkConfig::new(g), &p, None).unwrap();
        assert_eq!(plain.data(), configured.data());
    }

    #[test]
    fn reference_kernel_reconstruction_is_bit_identical() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let p = forward_project(&g, &ball);
        let baseline = fdk_reconstruct(&g, &p).unwrap();
        let oracle = fdk_reconstruct_configured(
            &FdkConfig::new(g).with_kernel(crate::KernelChoice::Reference),
            &p,
            None,
        )
        .unwrap();
        assert_eq!(baseline.data(), oracle.data());
    }

    #[test]
    fn cpu_backend_is_bit_identical() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let p = forward_project(&g, &ball);
        let sim = fdk_reconstruct_configured(&FdkConfig::new(g.clone()), &p, None).unwrap();
        let cpu = fdk_reconstruct_configured(
            &FdkConfig::new(g).with_backend(crate::BackendChoice::Cpu),
            &p,
            None,
        )
        .unwrap();
        assert_eq!(sim.data(), cpu.data());
    }

    #[test]
    fn windows_reduce_noise_but_keep_means() {
        let g = geom();
        let ball = uniform_ball(&g, 0.5, 1.0);
        let p = forward_project(&g, &ball);
        let with = |w| {
            fdk_reconstruct_configured(&FdkConfig::new(g.clone()).with_window(w), &p, None).unwrap()
        };
        let ram = with(FilterWindow::RamLak);
        let hann = with(FilterWindow::Hann);
        let c_ram = ram.get(g.nx / 2, g.ny / 2, g.nz / 2);
        let c_hann = hann.get(g.nx / 2, g.ny / 2, g.nz / 2);
        // Hann smooths but preserves the interior level roughly.
        assert!((c_hann - c_ram).abs() < 0.15, "{c_hann} vs {c_ram}");
    }
}
