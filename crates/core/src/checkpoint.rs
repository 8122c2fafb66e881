//! Glue between the reconstruction drivers and `scalefbp-ckpt`: config
//! fingerprinting, the slab byte encoding the drivers checkpoint with, and
//! the commit loop the out-of-core and distributed drivers share.

use scalefbp_ckpt::{fingerprint, CheckpointSpec, CheckpointStore};
use scalefbp_geom::Volume;
use scalefbp_iosim::StorageEndpoint;

use crate::{FdkConfig, ReconstructionError};

/// Canonical fingerprint of everything that determines a run's output
/// bits: the full geometry, filtering, batching, kernel and reduction
/// choices, plus a `driver` tag (e.g. `outofcore`, `distributed:4x2`) so
/// a checkpoint written by one driver shape is never resumed by another.
pub fn config_fingerprint(config: &FdkConfig, driver: &str) -> u64 {
    let g = &config.geometry;
    // `filter=two-pass` is a fixed segment: it keeps fingerprints equal to
    // those in checkpoints written when the filter mode was configurable.
    let canonical = format!(
        "driver={driver};dso={};dsd={};np={};nu={};nv={};du={};dv={};\
         nx={};ny={};nz={};dx={};dy={};dz={};su={};sv={};scor={};\
         window={:?};nc={};device={};kernel={};filter=two-pass;reduce={}",
        g.dso,
        g.dsd,
        g.np,
        g.nu,
        g.nv,
        g.du,
        g.dv,
        g.nx,
        g.ny,
        g.nz,
        g.dx,
        g.dy,
        g.dz,
        g.sigma_u,
        g.sigma_v,
        g.sigma_cor,
        config.window,
        config.nc,
        config.device.name,
        config.kernel.name(),
        config.reduce_mode.name(),
    );
    fingerprint(&canonical)
}

/// Encodes a slab's voxels as the little-endian f32 payload the
/// checkpoint store seals. The z-range is carried by the manifest key,
/// not the payload.
pub fn slab_to_bytes(voxels: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(voxels.len() * 4);
    for v in voxels {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Decodes a checkpointed payload back into a slab at `z = (z0, z1)` of
/// an `nx × ny` volume.
pub fn slab_from_bytes(
    nx: usize,
    ny: usize,
    z: (usize, usize),
    bytes: &[u8],
) -> Result<Volume, ReconstructionError> {
    let nz = z.1 - z.0;
    if bytes.len() != nx * ny * nz * 4 {
        return Err(ReconstructionError::Checkpoint(format!(
            "slab {}..{} payload is {} B, expected {}",
            z.0,
            z.1,
            bytes.len(),
            nx * ny * nz * 4
        )));
    }
    let mut slab = Volume::zeros_slab(nx, ny, nz, z.0);
    for (dst, src) in slab.data_mut().iter_mut().zip(bytes.chunks_exact(4)) {
        *dst = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
    Ok(slab)
}

/// Opens the run's store in `spec.dir` on `endpoint`: with `spec.resume`
/// an existing manifest is picked up (and refused if its fingerprint is
/// not `fp`), otherwise the run starts from an empty one.
pub(crate) fn open_store(
    endpoint: &StorageEndpoint,
    spec: &CheckpointSpec,
    fp: u64,
) -> Result<CheckpointStore, ReconstructionError> {
    Ok(if spec.resume {
        CheckpointStore::open_or_create(endpoint, &spec.dir, fp)?
    } else {
        CheckpointStore::create(endpoint, &spec.dir, fp)?
    })
}

/// Queues the finished slab `z = (z0, z1)` of the whole volume `out` in
/// `pending` and, once `spec.every` slabs wait there, durably commits
/// them one by one from `out`. The chaos kill switch
/// (`spec.kill_after_saves`) is checked after each commit — so a kill can
/// land between a slab's commit and the next, exactly the crash window
/// the resume path must cover.
pub(crate) fn commit_slab(
    store: &mut CheckpointStore,
    spec: &CheckpointSpec,
    pending: &mut Vec<(usize, usize)>,
    out: &Volume,
    z: (usize, usize),
) -> Result<(), ReconstructionError> {
    pending.push(z);
    if pending.len() < spec.every {
        return Ok(());
    }
    let plane = out.nx() * out.ny();
    for (z0, z1) in pending.drain(..) {
        let voxels = &out.data()[z0 * plane..z1 * plane];
        store.save_slab(z0, z1, &slab_to_bytes(voxels))?;
        if spec
            .kill_after_saves
            .is_some_and(|k| store.saves_this_run() >= k)
        {
            return Err(ReconstructionError::Interrupted {
                completed_slabs: store.saves_this_run(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::CbctGeometry;

    #[test]
    fn fingerprint_separates_configs_and_drivers() {
        let cfg = FdkConfig::new(CbctGeometry::ideal(16, 8, 24, 20));
        let base = config_fingerprint(&cfg, "outofcore");
        assert_eq!(base, config_fingerprint(&cfg, "outofcore"));
        assert_ne!(base, config_fingerprint(&cfg, "distributed:2x2"));
        let other = FdkConfig::new(CbctGeometry::ideal(16, 8, 24, 20)).with_nc(3);
        assert_ne!(base, config_fingerprint(&other, "outofcore"));
        // Pinned: what a build that still had a configurable filter mode
        // computes for this config with `--kernel simd`, so its
        // checkpoints resume.
        let simd = cfg.with_kernel(crate::KernelChoice::Simd);
        assert_eq!(
            config_fingerprint(&simd, "outofcore"),
            0xbae0_e498_f3cc_c007
        );
    }

    #[test]
    fn slab_bytes_round_trip() {
        let mut slab = Volume::zeros_slab(3, 4, 2, 7);
        for (i, v) in slab.data_mut().iter_mut().enumerate() {
            *v = i as f32 * 0.25 - 3.0;
        }
        let bytes = slab_to_bytes(slab.data());
        let back = slab_from_bytes(3, 4, (7, 9), &bytes).unwrap();
        assert_eq!(back.data(), slab.data());
        assert_eq!(back.z_offset(), 7);
        assert!(slab_from_bytes(3, 4, (7, 10), &bytes).is_err());
    }
}
