//! The threaded pipeline plus real storage: load from disk-backed
//! endpoints, reconstruct, store, read back — the full Figure 9 loop.

use std::path::{Path, PathBuf};

use scalefbp::{fdk_reconstruct, CbctGeometry, FdkConfig, OutOfCoreReconstructor, Schedule};
use scalefbp_iosim::format::{
    decode_projections, decode_volume, encode_projections, encode_volume, slice_to_pgm,
};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_phantom::{forward_project, forward_project_range, uniform_ball};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scalefbp-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn geom() -> CbctGeometry {
    CbctGeometry::ideal(24, 32, 48, 40)
}

#[test]
fn storage_roundtrip_through_the_pipeline() {
    let g = geom();
    let phantom = uniform_ball(&g, 0.5, 1.0);
    let projections = forward_project(&g, &phantom);

    // "Acquisition" writes the scan to local NVMe.
    let nvme = StorageEndpoint::local_nvme(Some(tmpdir("nvme")));
    nvme.write_file(Path::new("scan.sfbp"), &encode_projections(&projections))
        .unwrap();

    // Load thread's job: read the scan back.
    let loaded = decode_projections(&nvme.read_file(Path::new("scan.sfbp")).unwrap()).unwrap();
    assert_eq!(loaded, projections);

    // Reconstruct through the pipeline.
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let (vol, report) = rec.reconstruct(&loaded, Schedule::Overlapped).unwrap();
    assert!(report.wall_secs > 0.0);

    // Store thread's job: write the volume to the PFS and verify.
    let pfs = StorageEndpoint::lustre_pfs(Some(tmpdir("pfs")));
    pfs.write_file(Path::new("volume.sfbp"), &encode_volume(&vol))
        .unwrap();
    let back = decode_volume(&pfs.read_file(Path::new("volume.sfbp")).unwrap()).unwrap();
    assert_eq!(back, vol);

    // Counters saw the traffic.
    assert_eq!(pfs.counters().written_bytes, pfs.counters().read_bytes);
    assert!(nvme.counters().read_bytes as usize >= projections.len() * 4);
}

#[test]
fn sharded_acquisition_reassembles() {
    // Each storage shard holds a detector-row band (what the 2-D input
    // decomposition reads per rank); reassembling them must equal the
    // monolithic scan.
    let g = geom();
    let phantom = uniform_ball(&g, 0.5, 1.0);
    let full = forward_project(&g, &phantom);

    let store = StorageEndpoint::local_nvme(Some(tmpdir("shards")));
    let bands = [(0usize, 14usize), (14, 28), (28, 40)];
    for (i, &(a, b)) in bands.iter().enumerate() {
        let shard = forward_project_range(&g, &phantom, a, b);
        store
            .write_file(
                Path::new(&format!("shard{i}.sfbp")),
                &encode_projections(&shard),
            )
            .unwrap();
    }

    let mut reassembled = scalefbp_geom::ProjectionStack::zeros(g.nv, g.np, g.nu);
    for i in 0..bands.len() {
        let shard = decode_projections(
            &store
                .read_file(Path::new(&format!("shard{i}.sfbp")))
                .unwrap(),
        )
        .unwrap();
        for v in 0..shard.nv() {
            for s in 0..shard.np() {
                reassembled
                    .row_mut(v + shard.v_offset(), s)
                    .copy_from_slice(shard.row(v, s));
            }
        }
    }
    assert_eq!(reassembled, full);
}

#[test]
fn pgm_export_of_reconstruction_looks_like_a_disc() {
    let g = geom();
    let phantom = uniform_ball(&g, 0.5, 1.0);
    let vol = fdk_reconstruct(&g, &forward_project(&g, &phantom)).unwrap();
    let pgm = slice_to_pgm(&vol, g.nz / 2);
    // Header + payload shape.
    let header = format!("P5\n{} {}\n255\n", g.nx, g.ny);
    assert!(pgm.starts_with(header.as_bytes()));
    let body = &pgm[header.len()..];
    assert_eq!(body.len(), g.nx * g.ny);
    // Centre bright, corners dark (min-max windowed disc).
    let centre = body[(g.ny / 2) * g.nx + g.nx / 2];
    let corner = body[0];
    assert!(
        centre > corner.saturating_add(60),
        "centre {centre} corner {corner}"
    );
}

#[test]
fn pipeline_queue_statistics_reflect_batches() {
    let g = geom();
    let projections = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone()).with_nc(4)).unwrap();
    let (_, report) = rec.reconstruct(&projections, Schedule::Overlapped).unwrap();
    let batches = g.nz.div_ceil(rec.nb());
    // Every stage span count equals the batch count; spans nest within the
    // makespan.
    let spans = report.trace.spans();
    assert_eq!(spans.len(), 4 * batches);
    let t_min = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let t_max = t_min + report.trace.makespan();
    for s in &spans {
        assert!(s.end <= t_max + 1e-9 && s.start >= t_min - 1e-9);
    }
}
