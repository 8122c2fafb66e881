//! Distributed-style loading from the on-disk sharded dataset store: each
//! "rank" reads only its detector-row window and projection share from the
//! shards, reconstructs its slab, and the assembly matches the all-in-RAM
//! reconstruction exactly.

use std::path::PathBuf;

use scalefbp::{fdk_reconstruct, CbctGeometry};
use scalefbp_backproject::backproject_simd;
use scalefbp_filter::{FilterPipeline, FilterWindow};
use scalefbp_geom::{ProjectionMatrix, RankLayout, Volume, VolumeDecomposition};
use scalefbp_iosim::{DatasetStore, StorageEndpoint};
use scalefbp_phantom::{forward_project, uniform_ball};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scalefbp-dsload-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn sharded_store_drives_a_full_reconstruction() {
    let geom = CbctGeometry::ideal(24, 32, 48, 40);
    let projections = forward_project(&geom, &uniform_ball(&geom, 0.5, 1.0));
    let reference = fdk_reconstruct(&geom, &projections).unwrap();

    // Acquisition writes 5 row-band shards.
    let endpoint = StorageEndpoint::local_nvme(Some(tmpdir("full")));
    let dir = PathBuf::from("scan");
    DatasetStore::create(&endpoint, &dir, &geom, &projections, 5).unwrap();
    let store = DatasetStore::open(&endpoint, &dir).unwrap();

    // Simulate the per-rank loads of a (nr=2, ng=2) layout: every rank
    // reads exactly its windows from disk, filters, back-projects.
    let layout = RankLayout::new(2, 2, 2);
    let filter = FilterPipeline::new(&geom, FilterWindow::RamLak);
    let scale = filter.backprojection_scale() as f32;
    let mats = ProjectionMatrix::full_scan(&geom);

    let mut assembled = Volume::zeros(geom.nx, geom.ny, geom.nz);
    for group in 0..layout.ng {
        let (z0, z1) = layout.group_slices(&geom, group);
        let assign0 = layout.assignment(&geom, group * layout.nr);
        let decomp = VolumeDecomposition::new(&geom, z0, z1, assign0.nb);
        for task in decomp.tasks() {
            let mut slab = Volume::zeros_slab(geom.nx, geom.ny, task.nz(), task.z_begin);
            for r in 0..layout.nr {
                let assign = layout.assignment(&geom, group * layout.nr + r);
                let mut window = store
                    .read_window(task.rows.begin, task.rows.end, assign.s_begin, assign.s_end)
                    .unwrap();
                filter.filter_stack(&mut window);
                let mut partial = Volume::zeros_slab(geom.nx, geom.ny, task.nz(), task.z_begin);
                backproject_simd(&window, &mats[assign.s_begin..assign.s_end], &mut partial);
                slab.accumulate(&partial);
            }
            for v in slab.data_mut() {
                *v *= scale;
            }
            assembled.paste_slab(&slab);
        }
    }

    let err = reference.max_abs_diff(&assembled);
    assert!(err < 3e-4, "disk-driven reconstruction differs by {err}");

    // Traffic sanity: the reads covered each (row, rank) window once, so
    // total read bytes stay within a small multiple of one dataset pass
    // (overlapped slab windows re-read boundary shards).
    let one_pass = (projections.len() * 4) as u64;
    let read = endpoint.counters().read_bytes;
    assert!(
        read < 4 * one_pass,
        "read {read} bytes vs one pass {one_pass}"
    );
}

#[test]
fn store_windows_match_in_memory_extraction() {
    let geom = CbctGeometry::ideal(16, 12, 32, 28);
    let projections = forward_project(&geom, &uniform_ball(&geom, 0.5, 1.0));
    let endpoint = StorageEndpoint::local_nvme(Some(tmpdir("windows")));
    let dir = PathBuf::from("scan");
    DatasetStore::create(&endpoint, &dir, &geom, &projections, 3).unwrap();
    let store = DatasetStore::open(&endpoint, &dir).unwrap();

    for (v0, v1, s0, s1) in [(0, 28, 0, 12), (3, 17, 2, 9), (10, 11, 0, 1)] {
        let from_disk = store.read_window(v0, v1, s0, s1).unwrap();
        let from_ram = projections.extract_window(v0, v1, s0, s1);
        assert_eq!(from_disk, from_ram, "window ({v0},{v1},{s0},{s1})");
    }
}
