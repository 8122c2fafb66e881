//! The distributed framework (Section 4.4) on the in-process MPI
//! substrate: rank groups, per-group sub-volume batches, and the
//! hierarchical segmented reduction.

use std::sync::Arc;

use scalefbp_backproject::KernelStats;
use scalefbp_faults::NoFaults;
use scalefbp_filter::FilterPipeline;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, RankLayout, Volume, VolumeDecomposition};
use scalefbp_mpisim::{
    hierarchical_reduce_sum, segment_partition, NetworkStats, ReduceMode, World,
};
use scalefbp_obs::MetricsRegistry;

use crate::{FdkConfig, FilterChoice, ReconstructionError};

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// The assembled volume (gathered at world rank 0).
    pub volume: Volume,
    /// Network traffic observed (all ranks).
    pub network: NetworkStats,
    /// Kernel work per rank (rank order).
    pub per_rank_kernel: Vec<KernelStats>,
}

/// Tag base for leader→root slab shipping.
const SLAB_TAG: u64 = 7_000;

/// Runs the paper's distributed reconstruction end to end on
/// `layout.num_ranks()` simulated ranks (threads):
///
/// 1. Every rank takes its `N_p/N_r` projection share and the detector-row
///    ranges of its group's sub-volume batches (the 2-D input split of
///    Figure 3a).
/// 2. Per batch, it filters and back-projects a *partial* sub-volume.
/// 3. The group reduces each partial slab according to
///    `config.reduce_mode`: the hierarchical tree `MPI_Reduce` to its
///    leader (Section 4.4.2, the default — bit-compatible with earlier
///    releases), a flat canonical dense reduce to the leader, or the
///    paper's segmented reduce-scatter leaving each rank only its own
///    `Nz` segment (see `docs/communication.md`).
/// 4. Slab owners (group leaders, or every segment owner in segmented
///    mode) normalise and ship finished slabs to world rank 0 (the
///    stand-in for the parallel file system), which assembles the volume.
///
/// `ranks_per_node` mirrors the ABCI topology (4 GPUs/node).
pub fn distributed_reconstruct(
    config: &FdkConfig,
    layout: RankLayout,
    projections: &ProjectionStack,
    ranks_per_node: usize,
) -> Result<DistributedOutcome, ReconstructionError> {
    config.validate()?;
    let g = &config.geometry;
    if projections.nv() != g.nv || projections.np() != g.np || projections.nu() != g.nu {
        return Err(ReconstructionError::ShapeMismatch(format!(
            "projections {}×{}×{} vs geometry {}×{}×{}",
            projections.nv(),
            projections.np(),
            projections.nu(),
            g.nv,
            g.np,
            g.nu
        )));
    }
    assert!(
        g.nz >= layout.ng,
        "more groups ({}) than volume slices ({})",
        layout.ng,
        g.nz
    );

    let window = config.window;
    let reduce_mode = config.reduce_mode;
    let kernel_choice = config.kernel;
    // One executor shared by every rank closure: the compute dispatch is
    // identical per rank, and the kernels are pure functions of their
    // inputs, so sharing changes nothing observable.
    let exec = config.build_executor(Arc::new(NoFaults), 0, MetricsRegistry::new())?;
    let (results, network) = World::run_with_stats(layout.num_ranks(), |mut comm| {
        let assign = layout.assignment(g, comm.rank());
        let filter = FilterPipeline::new(g, window);
        let scale = filter.backprojection_scale() as f32;
        let mats = ProjectionMatrix::full_scan(g);
        let my_mats = &mats[assign.s_begin..assign.s_end];

        // The group communicator: the segmented collective's scope.
        let mut group_comm = comm
            .split(assign.group as u64, assign.rank_in_group as i64)
            .expect("comm split failed");

        let decomp = VolumeDecomposition::new(g, assign.z_begin, assign.z_end, assign.nb);
        let mut kernel = KernelStats::default();
        let mut finished: Vec<Volume> = Vec::new();

        for task in decomp.tasks() {
            // 2-D input split: this rank's projections, this batch's rows.
            let mut part = projections.extract_window(
                task.rows.begin,
                task.rows.end,
                assign.s_begin,
                assign.s_end,
            );
            exec.filter_stack(&filter, FilterChoice::default(), &mut part)
                .expect("filter stage failed");

            let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
            let stats = exec
                .backproject(kernel_choice, &part, my_mats, &mut slab)
                .expect("back-projection failed");
            kernel.merge(&stats);

            match reduce_mode {
                // The node-aware tree reduction to the group leader — the
                // default, byte-identical to earlier releases.
                ReduceMode::Hierarchical => {
                    hierarchical_reduce_sum(&mut group_comm, 0, slab.data_mut(), ranks_per_node)
                        .expect("group reduction failed");
                }
                // Flat canonical reduce: the leader folds whole partial
                // slabs in rank order.
                ReduceMode::Dense => {
                    group_comm
                        .reduce_sum_f32_canonical(0, slab.data_mut())
                        .expect("group reduction failed");
                }
                // The paper's segmented reduce-scatter: each rank keeps
                // only its own z-segment of the batch slab, chunked one
                // z-slice per message. The chain's running left fold makes
                // the result bit-identical to the dense canonical reduce.
                ReduceMode::Segmented => {
                    let stride = g.nx * g.ny;
                    let parts = segment_partition(task.nz(), layout.nr);
                    let counts: Vec<usize> = parts.iter().map(|r| r.len() * stride).collect();
                    let seg = group_comm
                        .segmented_reduce_scatter_f32(slab.data(), &counts, stride)
                        .expect("group reduce-scatter failed");
                    let mine = &parts[assign.rank_in_group];
                    if !mine.is_empty() {
                        let mut owned =
                            Volume::zeros_slab(g.nx, g.ny, mine.len(), task.z_begin + mine.start);
                        owned.data_mut().copy_from_slice(&seg);
                        for v in owned.data_mut() {
                            *v *= scale;
                        }
                        finished.push(owned);
                    }
                    continue;
                }
            }
            if assign.is_group_leader {
                for v in slab.data_mut() {
                    *v *= scale;
                }
                finished.push(slab);
            }
        }

        // Slab owners ship finished slabs to world rank 0: the group
        // leaders, or — in segmented mode — every segment owner.
        let ships = match reduce_mode {
            ReduceMode::Segmented => comm.rank() != 0,
            _ => assign.is_group_leader && comm.rank() != 0,
        };
        if ships {
            for slab in &finished {
                comm.send_f32(0, SLAB_TAG + slab.z_offset() as u64, slab.data());
            }
        }
        let volume = if comm.rank() == 0 {
            let mut out = Volume::zeros(g.nx, g.ny, g.nz);
            for slab in &finished {
                out.paste_slab(slab);
            }
            match reduce_mode {
                ReduceMode::Hierarchical | ReduceMode::Dense => {
                    for group in 1..layout.ng {
                        let leader = group * layout.nr;
                        let (z0, z1) = layout.group_slices(g, group);
                        let sub =
                            VolumeDecomposition::new(g, z0, z1, layout.assignment(g, leader).nb);
                        for task in sub.tasks() {
                            let data = comm.recv_f32(leader, SLAB_TAG + task.z_begin as u64);
                            let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
                            slab.data_mut().copy_from_slice(&data);
                            out.paste_slab(&slab);
                        }
                    }
                }
                ReduceMode::Segmented => {
                    // Every (group, task, owner) segment; z offsets are
                    // globally unique, so the tag identifies the slab.
                    for group in 0..layout.ng {
                        let (z0, z1) = layout.group_slices(g, group);
                        let nb = layout.assignment(g, group * layout.nr).nb;
                        let sub = VolumeDecomposition::new(g, z0, z1, nb);
                        for task in sub.tasks() {
                            for (j, part) in
                                segment_partition(task.nz(), layout.nr).iter().enumerate()
                            {
                                let owner = group * layout.nr + j;
                                if owner == 0 || part.is_empty() {
                                    continue;
                                }
                                let z = task.z_begin + part.start;
                                let data = comm.recv_f32(owner, SLAB_TAG + z as u64);
                                let mut slab = Volume::zeros_slab(g.nx, g.ny, part.len(), z);
                                slab.data_mut().copy_from_slice(&data);
                                out.paste_slab(&slab);
                            }
                        }
                    }
                }
            }
            Some(out)
        } else {
            None
        };
        (volume, kernel)
    });

    let per_rank_kernel = results.iter().map(|r| r.1).collect();
    let volume = results
        .into_iter()
        .next()
        .and_then(|r| r.0)
        .expect("rank 0 must produce the assembled volume");

    Ok(DistributedOutcome {
        volume,
        network,
        per_rank_kernel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdk_reconstruct;
    use scalefbp_geom::CbctGeometry;
    use scalefbp_phantom::{forward_project, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(24, 32, 48, 40)
    }

    fn projections(g: &CbctGeometry) -> ProjectionStack {
        forward_project(g, &uniform_ball(g, 0.5, 1.0))
    }

    fn run(layout: RankLayout, rpn: usize) -> (Volume, DistributedOutcome) {
        let g = geom();
        let p = projections(&g);
        let reference = fdk_reconstruct(&g, &p).unwrap();
        let out = distributed_reconstruct(&FdkConfig::new(g).with_nc(2), layout, &p, rpn).unwrap();
        (reference, out)
    }

    #[test]
    fn single_rank_matches_reference_bitwise() {
        let (reference, out) = run(RankLayout::new(1, 1, 2), 1);
        assert_eq!(out.volume.data(), reference.data());
    }

    #[test]
    fn groups_only_split_matches_bitwise() {
        // ng > 1, nr = 1: no reduction, different slabs on different ranks;
        // float order unchanged → bit-identical.
        let (reference, out) = run(RankLayout::new(1, 4, 2), 1);
        assert_eq!(out.volume.data(), reference.data());
    }

    #[test]
    fn projection_split_matches_within_fp_tolerance() {
        // nr > 1 regroups the f32 summation (partial volumes reduced by
        // tree) — equal within accumulation tolerance.
        let (reference, out) = run(RankLayout::new(4, 1, 2), 2);
        let err = reference.max_abs_diff(&out.volume);
        assert!(err < 2e-4, "max diff {err}");
        // Scaled comparison: RMSE far below any voxel feature.
        assert!(reference.rmse(&out.volume) < 2e-5);
    }

    #[test]
    fn full_grid_of_groups_and_ranks() {
        for (nr, ng, rpn) in [(2, 2, 2), (2, 3, 1), (4, 2, 4), (3, 2, 2)] {
            let (reference, out) = run(RankLayout::new(nr, ng, 2), rpn);
            let err = reference.max_abs_diff(&out.volume);
            assert!(err < 2e-4, "nr={nr} ng={ng}: max diff {err}");
        }
    }

    fn run_mode(layout: RankLayout, rpn: usize, mode: ReduceMode) -> DistributedOutcome {
        let g = geom();
        let p = projections(&g);
        let cfg = FdkConfig::new(g).with_nc(2).with_reduce_mode(mode);
        distributed_reconstruct(&cfg, layout, &p, rpn).unwrap()
    }

    /// The canonical-ordering contract at driver level: dense and
    /// segmented modes fold identically, so whole volumes are bitwise
    /// equal — including non-power-of-two group widths.
    #[test]
    fn dense_and_segmented_modes_are_bitwise_identical() {
        for (nr, ng) in [(2, 2), (3, 2), (4, 1), (1, 3)] {
            let dense = run_mode(RankLayout::new(nr, ng, 2), 2, ReduceMode::Dense);
            let seg = run_mode(RankLayout::new(nr, ng, 2), 2, ReduceMode::Segmented);
            assert_eq!(
                dense.volume.data(),
                seg.volume.data(),
                "nr={nr} ng={ng}: dense vs segmented"
            );
        }
    }

    /// No `reduce_mode` override means the pre-existing hierarchical tree
    /// path, byte for byte.
    #[test]
    fn default_mode_is_hierarchical_bitwise() {
        let layout = RankLayout::new(3, 2, 2);
        let default = run_mode(layout, 2, ReduceMode::default());
        let hier = run_mode(layout, 2, ReduceMode::Hierarchical);
        assert_eq!(default.volume.data(), hier.volume.data());
    }

    /// Every mode reconstructs the phantom within float-accumulation
    /// tolerance of the serial reference.
    #[test]
    fn all_reduce_modes_match_reference() {
        let g = geom();
        let p = projections(&g);
        let reference = fdk_reconstruct(&g, &p).unwrap();
        for mode in ReduceMode::ALL {
            let out = run_mode(RankLayout::new(4, 2, 2), 2, mode);
            let err = reference.max_abs_diff(&out.volume);
            assert!(err < 2e-4, "{mode}: max diff {err}");
        }
    }

    /// Segmented mode records its `mpisim.segreduce.*` traffic.
    #[test]
    fn segmented_mode_counts_segreduce_traffic() {
        let out = run_mode(RankLayout::new(4, 1, 2), 2, ReduceMode::Segmented);
        // Chain through-traffic is at least one group slab per batch hop.
        assert!(out.network.bytes > 0);
    }

    /// Backend selection never changes a distributed volume: every
    /// reduce mode is bitwise identical between sim and cpu.
    #[test]
    fn cpu_backend_is_bitwise_identical_across_reduce_modes() {
        let g = geom();
        let p = projections(&g);
        for mode in ReduceMode::ALL {
            let layout = RankLayout::new(2, 2, 2);
            let sim_cfg = FdkConfig::new(g.clone()).with_nc(2).with_reduce_mode(mode);
            let cpu_cfg = sim_cfg.clone().with_backend(crate::BackendChoice::Cpu);
            let sim = distributed_reconstruct(&sim_cfg, layout, &p, 2).unwrap();
            let cpu = distributed_reconstruct(&cpu_cfg, layout, &p, 2).unwrap();
            assert_eq!(sim.volume.data(), cpu.volume.data(), "{mode}");
        }
    }

    #[test]
    fn kernel_work_is_split_across_ranks() {
        let (_, out) = run(RankLayout::new(2, 2, 2), 2);
        let total: u64 = out.per_rank_kernel.iter().map(|k| k.updates).sum();
        let g = geom();
        assert_eq!(total, g.voxel_updates() as u64);
        // Each rank did roughly a quarter.
        for k in &out.per_rank_kernel {
            let share = k.updates as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.1, "share {share}");
        }
    }

    #[test]
    fn network_carries_reduction_traffic() {
        let (_, out) = run(RankLayout::new(4, 1, 2), 2);
        let g = geom();
        // At least one full volume of reduce traffic (plus leader→root
        // shipping, which rank 0 skips because it is the leader here).
        assert!(out.network.bytes as usize >= g.volume_bytes());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = geom();
        let bad = ProjectionStack::zeros(g.nv, g.np, g.nu + 2);
        let cfg = FdkConfig::new(g);
        assert!(matches!(
            distributed_reconstruct(&cfg, RankLayout::new(1, 1, 2), &bad, 1),
            Err(ReconstructionError::ShapeMismatch(_))
        ));
    }
}
