//! Correctness of a reconstructed volume file, judged from outside the
//! program: right shape, finite, resembles the phantom, and agrees with a
//! reference made by a different driver.

use scalefbp_geom::{CbctGeometry, Volume};
use scalefbp_iosim::format::decode_volume;

/// Largest accepted `max|v − ref| / max|ref|`. Drivers that fold partial
/// sums in another order differ by rounding only.
pub const REFERENCE_TOLERANCE: f64 = 1e-4;

/// What the checker measured on an accepted volume.
#[derive(Clone, Copy, Debug)]
pub struct VolumeCheck {
    pub pearson: f64,
    /// `max|v − ref| / max|ref|`, when a reference was given.
    pub reference_diff: Option<f64>,
}

/// Pearson correlation of two equally long sample sets; `None` when
/// either has no variance (a constant volume resembles nothing).
pub fn pearson(a: &[f32], b: &[f32]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "pearson over unequal lengths");
    let n = a.len() as f64;
    let (mut sa, mut sb) = (0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        sa += x as f64;
        sb += y as f64;
    }
    let (ma, mb) = (sa / n, sb / n);
    let (mut cov, mut va, mut vb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x as f64 - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    (va > 0.0 && vb > 0.0).then(|| cov / (va * vb).sqrt())
}

/// Decodes `bytes` as a volume of `geom` and checks it against the
/// rasterised phantom `truth` and, when given, the `reference` volume.
pub fn check_volume(
    bytes: &[u8],
    geom: &CbctGeometry,
    truth: &Volume,
    reference: Option<&Volume>,
    corr_floor: f64,
) -> Result<(Volume, VolumeCheck), String> {
    let vol = decode_volume(bytes).map_err(|e| format!("volume does not decode: {e}"))?;
    if (vol.nx(), vol.ny(), vol.nz(), vol.z_offset()) != (geom.nx, geom.ny, geom.nz, 0) {
        return Err(format!(
            "volume is {}x{}x{} at z={}, expected {}x{}x{} at z=0",
            vol.nx(),
            vol.ny(),
            vol.nz(),
            vol.z_offset(),
            geom.nx,
            geom.ny,
            geom.nz
        ));
    }
    if let Some(i) = vol.data().iter().position(|v| !v.is_finite()) {
        return Err(format!("voxel {i} is {}", vol.data()[i]));
    }
    let r = pearson(vol.data(), truth.data()).ok_or("volume is constant")?;
    if r.is_nan() || r < corr_floor {
        return Err(format!(
            "correlation with the phantom is {r:.4}, floor {corr_floor}"
        ));
    }
    let reference_diff = match reference {
        None => None,
        Some(reference) => {
            let scale = reference.data().iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
            let diff = vol.max_abs_diff(reference) as f64 / scale;
            if diff.is_nan() || diff > REFERENCE_TOLERANCE {
                return Err(format!(
                    "differs from the reference by {diff:.3e} of its maximum, tolerance {REFERENCE_TOLERANCE:e}"
                ));
            }
            Some(diff)
        }
    };
    Ok((
        vol,
        VolumeCheck {
            pearson: r,
            reference_diff,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_iosim::format::encode_volume;
    use scalefbp_phantom::{bead_pile, rasterize};

    /// A stand-in reconstruction: the phantom plus a deterministic ripple.
    fn fixture() -> (CbctGeometry, Volume, Volume) {
        let geom = CbctGeometry::ideal(24, 36, 36, 36);
        let truth = rasterize(&geom, &bead_pile(&geom, 6, 2021));
        let mut recon = truth.clone();
        for (i, v) in recon.data_mut().iter_mut().enumerate() {
            *v += 0.02 * ((i % 7) as f32 - 3.0);
        }
        (geom, truth, recon)
    }

    #[test]
    fn accepts_a_faithful_volume() {
        let (geom, truth, recon) = fixture();
        let (_, check) =
            check_volume(&encode_volume(&recon), &geom, &truth, Some(&recon), 0.9).unwrap();
        assert!(check.pearson > 0.9 && check.pearson < 1.0);
        assert_eq!(check.reference_diff, Some(0.0));
    }

    #[test]
    fn rejects_a_zeroed_volume() {
        let (geom, truth, recon) = fixture();
        let zero = Volume::zeros(geom.nx, geom.ny, geom.nz);
        let err = check_volume(&encode_volume(&zero), &geom, &truth, Some(&recon), 0.9);
        assert!(err.unwrap_err().contains("constant"));
    }

    #[test]
    fn rejects_a_z_shifted_volume() {
        let (geom, truth, recon) = fixture();
        // Every slice moved up by one, the bottom slice repeated.
        let mut shifted = recon.clone();
        for k in (1..geom.nz).rev() {
            let below = recon.slice(k - 1).to_vec();
            shifted.slice_mut(k).copy_from_slice(&below);
        }
        let bytes = encode_volume(&shifted);
        // Still resembles the phantom, so only the reference catches it…
        let err = check_volume(&bytes, &geom, &truth, Some(&recon), 0.5).unwrap_err();
        assert!(err.contains("differs from the reference"), "{err}");
        // …unless the floor is as tight as the workloads set it.
        let err = check_volume(&bytes, &geom, &truth, None, 0.95).unwrap_err();
        assert!(err.contains("correlation"), "{err}");
    }

    #[test]
    fn rejects_wrong_shape_non_finite_and_garbage() {
        let (geom, truth, recon) = fixture();
        let small = Volume::zeros(geom.nx, geom.ny, geom.nz - 1);
        assert!(
            check_volume(&encode_volume(&small), &geom, &truth, None, 0.9)
                .unwrap_err()
                .contains("expected")
        );
        let mut nan = recon.clone();
        nan.data_mut()[5] = f32::NAN;
        assert!(check_volume(&encode_volume(&nan), &geom, &truth, None, 0.9)
            .unwrap_err()
            .contains("voxel 5"));
        assert!(check_volume(b"not a container", &geom, &truth, None, 0.9).is_err());
    }
}
