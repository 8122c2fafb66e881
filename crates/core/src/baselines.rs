//! The prior-art decomposition schemes of Table 2, for ablation.
//!
//! Three schemes sharing one geometry are compared on the axes Table 2
//! tabulates: minimum device working set (the "Lower-bound Input Size"
//! column), total host→device traffic, communication volume and collective
//! structure, and out-of-core capability:
//!
//! * [`Scheme::TwoD`] — this paper: input split on `N_v` × `N_p`, output
//!   split on Z, segmented `O(log N_r)` reduce, differential row loading.
//! * [`Scheme::NpOnly`] — iFDK-style: input split only on `N_p`; every GPU
//!   holds the **full** volume, merged by a world-wide collective; no
//!   out-of-core capability (the ✗ column of Table 5 for big volumes).
//! * [`Scheme::NoSplit`] — RTK/Lu-style single-GPU: no input split; Lu et
//!   al.'s out-of-core variant re-streams the *entire* projection set for
//!   every sub-volume chunk (the redundancy the paper eliminates).

use scalefbp_backproject::backproject_simd;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{CbctGeometry, ProjectionMatrix, ProjectionStack, Volume, VolumeDecomposition};
use scalefbp_gpusim::DeviceSpec;
use scalefbp_mpisim::{NetworkStats, World};

use crate::{with_rank_budget, FdkConfig, ReconstructionError};

/// A decomposition scheme under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// This paper's 2-D input / 1-D output decomposition.
    TwoD {
        /// Ranks per group (projection-axis split).
        nr: usize,
        /// Number of groups (volume-axis split).
        ng: usize,
    },
    /// iFDK-style `N_p`-only input decomposition.
    NpOnly {
        /// Total ranks splitting the projection axis.
        nranks: usize,
    },
    /// RTK/Lu-style single-GPU processing.
    NoSplit,
}

/// The Table 2 cost axes, in bytes/counts for one full reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeCosts {
    /// Minimum device working set (projection footprint + volume slab) —
    /// the feasibility bound of Table 5.
    pub min_device_bytes: u64,
    /// Total host→device projection traffic per GPU.
    pub h2d_bytes_per_gpu: u64,
    /// Total inter-rank communication volume (sum over all messages).
    pub comm_bytes: u64,
    /// Rounds of the (largest) collective on the critical path.
    pub collective_rounds: u32,
    /// Whether the scheme can emit volumes larger than device memory.
    pub out_of_core: bool,
}

impl SchemeCosts {
    /// Whether the scheme can run this reconstruction on `device`.
    pub fn feasible_on(&self, device: &DeviceSpec) -> bool {
        self.min_device_bytes <= device.memory_bytes
    }
}

fn log2_ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        n.next_power_of_two().trailing_zeros()
    }
}

/// Evaluates the cost axes of `scheme` for `geom`, processing the volume in
/// `nc` batches per group/GPU (the paper's `N_c`).
pub fn scheme_costs(geom: &CbctGeometry, scheme: Scheme, nc: usize) -> SchemeCosts {
    let f32b = 4u64;
    let proj_bytes = geom.projection_bytes() as u64;
    let vol_bytes = geom.volume_bytes() as u64;
    match scheme {
        Scheme::TwoD { nr, ng } => {
            let ns = geom.nz.div_ceil(ng);
            let nb = ns.div_ceil(nc).max(1);
            let decomp = VolumeDecomposition::new(geom, 0, ns.min(geom.nz), nb);
            // Device window: the widest slab's rows, this rank's N_p share.
            let window_rows = decomp.max_rows().min(geom.nv);
            let np_local = geom.np.div_ceil(nr) as u64;
            let window = window_rows as u64 * np_local * geom.nu as u64 * f32b;
            let slab = (geom.nx * geom.ny * nb) as u64 * f32b;
            // Differential loading: each needed row crosses PCIe once.
            let rows_streamed = decomp.total_rows_differential() as u64;
            let h2d = rows_streamed * np_local * geom.nu as u64 * f32b;
            // Segmented reduce: per batch, (nr−1) slab-sized messages over
            // the binomial tree, in every group.
            let comm =
                (nr.saturating_sub(1)) as u64 * slab * decomp.num_subvolumes() as u64 * ng as u64;
            SchemeCosts {
                min_device_bytes: window + slab,
                h2d_bytes_per_gpu: h2d,
                comm_bytes: comm,
                collective_rounds: log2_ceil(nr),
                out_of_core: true,
            }
        }
        Scheme::NpOnly { nranks } => {
            let np_local = geom.np.div_ceil(nranks) as u64;
            let proj_local = np_local * (geom.nv * geom.nu) as u64 * f32b;
            // Every rank needs the whole output volume resident plus its
            // projection share (streamed in nc projection batches).
            let proj_batch = proj_local.div_ceil(nc as u64);
            SchemeCosts {
                min_device_bytes: vol_bytes + proj_batch,
                h2d_bytes_per_gpu: proj_local,
                // World-wide reduction of the FULL volume.
                comm_bytes: (nranks.saturating_sub(1)) as u64 * vol_bytes,
                collective_rounds: log2_ceil(nranks),
                out_of_core: false,
            }
        }
        Scheme::NoSplit => {
            // Lu-style: sub-volume chunks, but every chunk re-streams the
            // entire projection set (no N_v split ⇒ no differential reuse
            // across chunks beyond device capacity).
            let slab = vol_bytes.div_ceil(nc as u64);
            let proj_batch = proj_bytes.div_ceil(nc as u64);
            SchemeCosts {
                min_device_bytes: slab + proj_batch,
                h2d_bytes_per_gpu: proj_bytes * nc as u64,
                comm_bytes: 0,
                collective_rounds: 0,
                out_of_core: true,
            }
        }
    }
}

/// A *runnable* iFDK-style baseline: `N_p`-only decomposition — every rank
/// holds the full volume, back-projects its projection share against all
/// detector rows, and a single **world-wide** reduction merges the copies
/// at rank 0.
///
/// Numerically equivalent to [`crate::fault_tolerant_reconstruct`] (it is
/// the same maths, decomposed worse); its communication and memory footprints
/// are what Table 2 charges it for. Used by the ablation benches.
pub fn distributed_np_only(
    config: &FdkConfig,
    nranks: usize,
    projections: &ProjectionStack,
) -> Result<(Volume, NetworkStats), ReconstructionError> {
    config.validate()?;
    let g = &config.geometry;
    config.check_projections(projections)?;
    assert!(nranks > 0, "need at least one rank");

    let window = config.window;
    let rank = with_rank_budget(nranks, |mut comm| {
        let r = comm.rank();
        let s0 = r * g.np / nranks;
        let s1 = (r + 1) * g.np / nranks;
        let filter = FilterPipeline::new(g, window);
        let mats = ProjectionMatrix::full_scan(g);

        let mut part = projections.extract_window(0, g.nv, s0, s1);
        filter.filter_stack(&mut part);

        // The full volume, resident on every rank — the scheme's defining
        // (and limiting) property.
        let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_simd(&part, &mats[s0..s1], &mut vol);

        // One world-wide collective.
        comm.reduce_sum_f32(0, vol.data_mut());
        if comm.rank() == 0 {
            let scale = filter.backprojection_scale() as f32;
            for v in vol.data_mut() {
                *v *= scale;
            }
            Some(vol)
        } else {
            None
        }
    });
    let (results, network) = World::run_with_stats(nranks, rank);

    let volume = results
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 must hold the reduced volume");
    Ok((volume, network))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::DatasetPreset;

    fn paper_scale() -> CbctGeometry {
        DatasetPreset::by_name("coffee_bean").unwrap().geometry
    }

    fn small() -> CbctGeometry {
        CbctGeometry::ideal(64, 96, 96, 96)
    }

    #[test]
    fn ours_needs_far_less_device_memory_than_np_only() {
        let g = paper_scale(); // 4096³ output = 256 GB
        let ours = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
        let ifdk = scheme_costs(&g, Scheme::NpOnly { nranks: 1024 }, 8);
        assert!(ours.min_device_bytes * 4 < ifdk.min_device_bytes);
        // Table 5's ✗: iFDK-style cannot fit a 4096³ volume on a V100.
        let v100 = DeviceSpec::v100_16gb();
        assert!(!ifdk.feasible_on(&v100));
        assert!(
            ours.feasible_on(&v100),
            "ours needs {} B",
            ours.min_device_bytes
        );
    }

    #[test]
    fn segmented_reduce_moves_less_than_global_reduce() {
        let g = paper_scale();
        let ours = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
        let ifdk = scheme_costs(&g, Scheme::NpOnly { nranks: 1024 }, 8);
        // Ours: each group reduces only its own slabs. Total ≈ (nr−1)·vol.
        // iFDK: (nranks−1)·vol.
        assert!(
            ours.comm_bytes * 10 < ifdk.comm_bytes,
            "ours {} vs iFDK {}",
            ours.comm_bytes,
            ifdk.comm_bytes
        );
        // Collective rounds: log2(16)=4 vs log2(1024)=10 — the O(log N)
        // vs O(N·log N)-ish column of Table 2.
        assert_eq!(ours.collective_rounds, 4);
        assert_eq!(ifdk.collective_rounds, 10);
    }

    #[test]
    fn differential_loading_beats_lu_style_restreaming() {
        let g = small();
        let ours = scheme_costs(&g, Scheme::TwoD { nr: 1, ng: 1 }, 8);
        let lu = scheme_costs(&g, Scheme::NoSplit, 8);
        // Lu re-streams the whole projection set nc times; ours streams
        // each row once.
        assert!(
            ours.h2d_bytes_per_gpu * 4 < lu.h2d_bytes_per_gpu,
            "ours {} vs Lu {}",
            ours.h2d_bytes_per_gpu,
            lu.h2d_bytes_per_gpu
        );
    }

    #[test]
    fn ours_h2d_is_about_one_projection_pass() {
        let g = small();
        let ours = scheme_costs(&g, Scheme::TwoD { nr: 1, ng: 1 }, 8);
        let one_pass = g.projection_bytes() as u64;
        assert!(ours.h2d_bytes_per_gpu <= one_pass + one_pass / 4);
        assert!(ours.h2d_bytes_per_gpu >= one_pass / 2);
    }

    #[test]
    fn no_split_has_no_communication() {
        let g = small();
        let lu = scheme_costs(&g, Scheme::NoSplit, 8);
        assert_eq!(lu.comm_bytes, 0);
        assert_eq!(lu.collective_rounds, 0);
        assert!(lu.out_of_core);
    }

    #[test]
    fn runnable_np_only_baseline_matches_fdk() {
        let g = CbctGeometry::ideal(20, 24, 40, 36);
        let projections =
            scalefbp_phantom::forward_project(&g, &scalefbp_phantom::uniform_ball(&g, 0.5, 1.0));
        let reference = crate::fdk_reconstruct(&g, &projections).unwrap();
        let cfg = FdkConfig::new(g.clone());
        let (vol, network) = distributed_np_only(&cfg, 4, &projections).unwrap();
        let err = reference.max_abs_diff(&vol);
        assert!(err < 3e-4, "max diff {err}");
        // Its defining waste: the world-wide reduce moves full volumes.
        assert!(network.bytes as usize >= g.volume_bytes());
    }

    #[test]
    fn np_only_moves_more_than_ours_at_equal_ranks() {
        let g = CbctGeometry::ideal(20, 24, 40, 36);
        let projections =
            scalefbp_phantom::forward_project(&g, &scalefbp_phantom::uniform_ball(&g, 0.5, 1.0));
        let cfg = FdkConfig::new(g.clone()).with_nc(2);
        let (_, ifdk_net) = distributed_np_only(&cfg, 4, &projections).unwrap();
        let ours = crate::fault_tolerant_reconstruct(
            &cfg,
            scalefbp_geom::RankLayout::new(2, 2, 2),
            &projections,
            &scalefbp_faults::FaultPlan::none(),
            None,
        )
        .unwrap();
        assert!(
            ours.network.bytes < ifdk_net.bytes,
            "ours {} vs iFDK {}",
            ours.network.bytes,
            ifdk_net.bytes
        );
    }

    #[test]
    fn np_only_is_not_out_of_core() {
        let g = small();
        assert!(!scheme_costs(&g, Scheme::NpOnly { nranks: 8 }, 8).out_of_core);
        assert!(scheme_costs(&g, Scheme::TwoD { nr: 2, ng: 4 }, 8).out_of_core);
    }

    #[test]
    fn more_groups_shrink_our_working_set() {
        let g = paper_scale();
        let few = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 4 }, 8);
        let many = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
        assert!(many.min_device_bytes < few.min_device_bytes);
    }
}
