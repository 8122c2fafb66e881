//! The CBCT system parameters of Table 1, with validation.

use serde::{Deserialize, Serialize};

/// Errors produced when validating a [`CbctGeometry`].
#[derive(Clone, Debug, PartialEq)]
pub enum GeometryError {
    /// A dimension (detector or volume grid, projection count) is zero.
    ZeroDimension(&'static str),
    /// A length, pitch or correction offset is NaN or infinite.
    NonFinite(&'static str),
    /// A length, pitch or correction offset is finite in f64 but too
    /// large for the f32 arithmetic of the projection matrices and
    /// kernels, which square it: `|value| > √f32::MAX ≈ 1.8e19`.
    OverflowsF32 { name: &'static str, value: f64 },
    /// A physical length (distance or pitch) is not strictly positive.
    NonPositiveLength(&'static str),
    /// The detector must sit beyond the rotation axis: `Dsd > Dso`.
    DetectorBehindObject { dso: f64, dsd: f64 },
    /// The reconstructed cylinder must fit between source and rotation axis,
    /// otherwise rays pass through the source (depth `z ≤ 0`).
    ObjectReachesSource { dso: f64, radius: f64 },
    /// No slice needs a detector row (Algorithm 2): each projects past
    /// the detector's top or bottom edge, so nothing can be reconstructed.
    NoSliceOnDetector { magnification: f64 },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::ZeroDimension(name) => write!(f, "dimension `{name}` must be nonzero"),
            GeometryError::NonFinite(name) => write!(f, "`{name}` must be finite"),
            GeometryError::OverflowsF32 { name, value } => write!(
                f,
                "`{name}` = {value:e} overflows f32 arithmetic (|value| must be ≤ {:.3e}, \
                 so that its square stays finite in f32)",
                f32_square_limit()
            ),
            GeometryError::NonPositiveLength(name) => {
                write!(f, "length `{name}` must be strictly positive")
            }
            GeometryError::DetectorBehindObject { dso, dsd } => write!(
                f,
                "detector distance Dsd={dsd} must exceed source-object distance Dso={dso}"
            ),
            GeometryError::ObjectReachesSource { dso, radius } => write!(
                f,
                "volume footprint radius {radius} reaches the X-ray source (Dso={dso})"
            ),
            GeometryError::NoSliceOnDetector { magnification } => write!(
                f,
                "no slice projects onto the detector (magnification Dsd/Dso = {magnification:e})"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// The largest magnitude whose square is finite in f32: `√f32::MAX`.
/// Past it the kernels' squared distances turn into ∞ and the volume
/// into NaN (and past `f32::MAX` the values themselves do).
fn f32_square_limit() -> f64 {
    (f32::MAX as f64).sqrt()
}

/// The full parameter set of a cone-beam CT system (Table 1 of the paper).
///
/// Distances and pitches are in millimetres; detector sizes in pixels; volume
/// sizes in voxels. The offsets `sigma_u`/`sigma_v` (detector centre offset in
/// pixels, Figure 7a) and `sigma_cor` (rotation-centre offset in mm, Figure
/// 7b) implement the dynamic geometric correction of Section 4.1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CbctGeometry {
    /// Distance from source to rotation axis (`D_so`, mm).
    pub dso: f64,
    /// Distance from source to flat-panel detector (`D_sd`, mm).
    pub dsd: f64,
    /// Number of 2-D projections over the full 360° scan (`N_p`).
    pub np: usize,
    /// Detector width in pixels (`N_u`).
    pub nu: usize,
    /// Detector height in pixels (`N_v`).
    pub nv: usize,
    /// Detector pixel pitch along U (mm/pixel, `Δ_u`).
    pub du: f64,
    /// Detector pixel pitch along V (mm/pixel, `Δ_v`).
    pub dv: f64,
    /// Volume size in voxels along X (`N_x`).
    pub nx: usize,
    /// Volume size in voxels along Y (`N_y`).
    pub ny: usize,
    /// Volume size in voxels along Z (`N_z`).
    pub nz: usize,
    /// Voxel pitch along X (mm/voxel, `Δ_x`).
    pub dx: f64,
    /// Voxel pitch along Y (mm/voxel, `Δ_y`).
    pub dy: f64,
    /// Voxel pitch along Z (mm/voxel, `Δ_z`).
    pub dz: f64,
    /// Detector centre offset along U (pixels, `σ_u`).
    pub sigma_u: f64,
    /// Detector centre offset along V (pixels, `σ_v`).
    pub sigma_v: f64,
    /// Rotation centre offset (mm, `σ_cor`).
    pub sigma_cor: f64,
}

impl CbctGeometry {
    /// A convenient ideal geometry (no correction offsets) with a cubic
    /// `n³` volume whose footprint fills the detector fan.
    ///
    /// The voxel pitch is chosen so the volume's inscribed cylinder projects
    /// inside the detector at magnification `Dsd/Dso`.
    pub fn ideal(n: usize, np: usize, nu: usize, nv: usize) -> Self {
        let dso = 100.0;
        let dsd = 250.0;
        let du = 1.0;
        let dv = 1.0;
        // Detector half-width in mm, demagnified to the rotation axis, with a
        // √2 safety margin so the square footprint's corners stay in the fan.
        let half_fov = 0.5 * nu as f64 * du * dso / dsd;
        let dx = 2.0 * half_fov / (n as f64 * std::f64::consts::SQRT_2);
        CbctGeometry {
            dso,
            dsd,
            np,
            nu,
            nv,
            du,
            dv,
            nx: n,
            ny: n,
            nz: n,
            dx,
            dy: dx,
            dz: dx,
            sigma_u: 0.0,
            sigma_v: 0.0,
            sigma_cor: 0.0,
        }
    }

    /// Validates the parameter set. Some slice must need a detector row
    /// (Algorithm 2); at extreme magnification every slice projects past
    /// the detector's edges.
    pub fn validate(&self) -> Result<(), GeometryError> {
        for (v, name) in [
            (self.np, "np"),
            (self.nu, "nu"),
            (self.nv, "nv"),
            (self.nx, "nx"),
            (self.ny, "ny"),
            (self.nz, "nz"),
        ] {
            if v == 0 {
                return Err(GeometryError::ZeroDimension(name));
            }
        }
        let lengths = [
            (self.dso, "dso"),
            (self.dsd, "dsd"),
            (self.du, "du"),
            (self.dv, "dv"),
            (self.dx, "dx"),
            (self.dy, "dy"),
            (self.dz, "dz"),
        ];
        let offsets = [
            (self.sigma_u, "sigma_u"),
            (self.sigma_v, "sigma_v"),
            (self.sigma_cor, "sigma_cor"),
        ];
        for &(v, name) in lengths.iter().chain(&offsets) {
            if !v.is_finite() {
                return Err(GeometryError::NonFinite(name));
            }
            if v.abs() > f32_square_limit() {
                return Err(GeometryError::OverflowsF32 { name, value: v });
            }
        }
        for (v, name) in lengths {
            if v <= 0.0 {
                return Err(GeometryError::NonPositiveLength(name));
            }
        }
        if self.dsd <= self.dso {
            return Err(GeometryError::DetectorBehindObject {
                dso: self.dso,
                dsd: self.dsd,
            });
        }
        let radius = self.footprint_radius();
        if radius >= self.dso {
            return Err(GeometryError::ObjectReachesSource {
                dso: self.dso,
                radius,
            });
        }
        if (0..self.nz).all(|k| crate::compute_ab(self, k, k + 1).is_empty()) {
            let magnification = self.magnification();
            return Err(GeometryError::NoSliceOnDetector { magnification });
        }
        Ok(())
    }

    /// The X-ray magnification factor `D_sd / D_so` (Section 2.2.2). For the
    /// coffee-bean dataset this is 9.48.
    #[inline]
    pub fn magnification(&self) -> f64 {
        self.dsd / self.dso
    }

    /// Radius (mm) of the volume's horizontal footprint: the distance from
    /// the rotation axis to the corner voxel *centre* of a slice.
    pub fn footprint_radius(&self) -> f64 {
        let cx = 0.5 * (self.nx.saturating_sub(1)) as f64 * self.dx;
        let cy = 0.5 * (self.ny.saturating_sub(1)) as f64 * self.dy;
        (cx * cx + cy * cy).sqrt()
    }

    /// Number of elements (f32) in the full projection stack `N_v·N_p·N_u`.
    #[inline]
    pub fn projection_elements(&self) -> usize {
        self.nv * self.np * self.nu
    }

    /// Number of voxels in the output volume `N_x·N_y·N_z`.
    #[inline]
    pub fn volume_voxels(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Bytes of the f32 projection stack.
    #[inline]
    pub fn projection_bytes(&self) -> usize {
        self.projection_elements() * std::mem::size_of::<f32>()
    }

    /// Bytes of the f32 output volume.
    #[inline]
    pub fn volume_bytes(&self) -> usize {
        self.volume_voxels() * std::mem::size_of::<f32>()
    }

    /// Total voxel *updates* performed by a full back-projection:
    /// `N_x·N_y·N_z·N_p`. The paper's GUPS metric divides this by runtime.
    #[inline]
    pub fn voxel_updates(&self) -> u128 {
        self.volume_voxels() as u128 * self.np as u128
    }

    /// World-space x coordinate (mm) of voxel index `i`:
    /// `Δx·(i − (N_x−1)/2)`.
    #[inline]
    pub fn voxel_x(&self, i: usize) -> f64 {
        self.dx * (i as f64 - 0.5 * (self.nx as f64 - 1.0))
    }

    /// World-space y coordinate (mm) of voxel index `j`.
    #[inline]
    pub fn voxel_y(&self, j: usize) -> f64 {
        self.dy * (j as f64 - 0.5 * (self.ny as f64 - 1.0))
    }

    /// World-space z coordinate (mm) of voxel index `k`.
    #[inline]
    pub fn voxel_z(&self, k: usize) -> f64 {
        self.dz * (k as f64 - 0.5 * (self.nz as f64 - 1.0))
    }

    /// Returns a copy with a different output volume grid (common when the
    /// same scan is reconstructed at several resolutions, as in Table 5).
    pub fn with_volume(&self, nx: usize, ny: usize, nz: usize) -> Self {
        let mut g = self.clone();
        // Keep the physical field of view: rescale pitches by the grid ratio.
        g.dx = self.dx * self.nx as f64 / nx as f64;
        g.dy = self.dy * self.ny as f64 / ny as f64;
        g.dz = self.dz * self.nz as f64 / nz as f64;
        g.nx = nx;
        g.ny = ny;
        g.nz = nz;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_geometry_validates() {
        let g = CbctGeometry::ideal(64, 120, 96, 96);
        g.validate().unwrap();
        assert!(g.magnification() > 1.0);
    }

    #[test]
    fn magnification_matches_ratio() {
        let g = CbctGeometry::ideal(32, 60, 48, 48);
        assert!((g.magnification() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.np = 0;
        assert_eq!(g.validate(), Err(GeometryError::ZeroDimension("np")));
    }

    #[test]
    fn non_positive_pitch_rejected() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.du = 0.0;
        assert_eq!(g.validate(), Err(GeometryError::NonPositiveLength("du")));
        g.du = -1.0;
        assert_eq!(g.validate(), Err(GeometryError::NonPositiveLength("du")));
    }

    #[test]
    fn non_finite_values_rejected() {
        for (name, set) in [
            ("du", (|g, x| g.du = x) as fn(&mut CbctGeometry, f64)),
            ("dso", |g, x| g.dso = x),
            ("sigma_u", |g, x| g.sigma_u = x),
            ("sigma_v", |g, x| g.sigma_v = x),
            ("sigma_cor", |g, x| g.sigma_cor = x),
        ] {
            for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut g = CbctGeometry::ideal(16, 30, 24, 24);
                set(&mut g, x);
                assert_eq!(
                    g.validate(),
                    Err(GeometryError::NonFinite(name)),
                    "{name} = {x}"
                );
            }
        }
    }

    /// Distances finite in f64 but too large for the kernels' f32
    /// arithmetic are refused: past `f32::MAX` (1e39) and past the
    /// square root of it (1e20) every voxel came out NaN.
    #[test]
    fn values_overflowing_f32_rejected() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.dso = 1e39;
        g.dsd = 2e39;
        assert_eq!(
            g.validate(),
            Err(GeometryError::OverflowsF32 {
                name: "dso",
                value: 1e39
            })
        );
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.sigma_cor = -1e39;
        assert!(matches!(
            g.validate(),
            Err(GeometryError::OverflowsF32 {
                name: "sigma_cor",
                ..
            })
        ));
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        (g.dso, g.dsd) = (1e20, 2e20);
        assert!(matches!(
            g.validate(),
            Err(GeometryError::OverflowsF32 { name: "dso", .. })
        ));
        // At the limit the square is still finite, and the value passes.
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        (g.dso, g.dsd) = (1e19, 1.8e19);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn detector_behind_object_rejected() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.dsd = g.dso * 0.5;
        assert!(matches!(
            g.validate(),
            Err(GeometryError::DetectorBehindObject { .. })
        ));
    }

    #[test]
    fn object_reaching_source_rejected() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.dx = 1000.0;
        g.dy = 1000.0;
        assert!(matches!(
            g.validate(),
            Err(GeometryError::ObjectReachesSource { .. })
        ));
    }

    #[test]
    fn voxel_centres_are_symmetric() {
        let g = CbctGeometry::ideal(17, 30, 24, 24);
        // Odd grid: the central voxel sits exactly on the rotation axis.
        assert!(g.voxel_x(8).abs() < 1e-12);
        assert!((g.voxel_x(0) + g.voxel_x(16)).abs() < 1e-12);
        assert!((g.voxel_y(0) + g.voxel_y(16)).abs() < 1e-12);
        assert!((g.voxel_z(0) + g.voxel_z(16)).abs() < 1e-12);
    }

    #[test]
    fn sizes_and_updates() {
        let g = CbctGeometry::ideal(8, 10, 12, 14);
        assert_eq!(g.volume_voxels(), 512);
        assert_eq!(g.projection_elements(), 14 * 10 * 12);
        assert_eq!(g.volume_bytes(), 2048);
        assert_eq!(g.voxel_updates(), 5120);
    }

    /// At extreme magnification no slice projects onto the detector, so
    /// nothing can be reconstructed; a gap between adjacent slices' rows
    /// is only a coarse z grid and validates.
    #[test]
    fn a_geometry_with_no_slice_on_the_detector_is_refused() {
        let mut g = CbctGeometry::ideal(12, 18, 18, 18);
        g.validate().unwrap();
        (g.dso, g.dsd) = (100.0, 1.8e19);
        assert!(matches!(
            g.validate(),
            Err(GeometryError::NoSliceOnDetector { .. })
        ));
        // Adjacent slices whose rows leave a gap still reconstruct.
        (g.dso, g.dsd) = (1e18, 1.8e19);
        g.validate().unwrap();
    }

    #[test]
    fn with_volume_preserves_field_of_view() {
        let g = CbctGeometry::ideal(64, 100, 96, 96);
        let h = g.with_volume(128, 128, 128);
        assert!((g.nx as f64 * g.dx - h.nx as f64 * h.dx).abs() < 1e-9);
        assert!((g.nz as f64 * g.dz - h.nz as f64 * h.dz).abs() < 1e-9);
        h.validate().unwrap();
    }

    #[test]
    fn footprint_radius_of_single_voxel_is_zero() {
        let mut g = CbctGeometry::ideal(16, 30, 24, 24);
        g.nx = 1;
        g.ny = 1;
        assert_eq!(g.footprint_radius(), 0.0);
    }
}
