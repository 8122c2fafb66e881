//! Distributed iterative reconstruction (SIRT / MLEM) on the segmented
//! collective — ROADMAP item 3.
//!
//! The serial solvers in `scalefbp-iterative` alternate a forward
//! projection `A·x`, an elementwise residual/ratio pass, a
//! back-projection `Aᵀ`, and an elementwise update. This driver shards
//! the two operators across simulated MPI ranks using the same
//! contiguous row-range partition as the FDK drivers
//! ([`segment_partition`]):
//!
//! * **Forward projection** is sharded by detector rows `v`: each pixel
//!   is independent, so rank `r` computes its row range with
//!   [`forward_project_rows`] and the full stack is reassembled by a
//!   rank-ordered allgather — pure concatenation, bitwise exact.
//! * **Back-projection** is sharded by volume z-slabs: each rank runs
//!   [`backproject_unfiltered_slabs`] over its slab into a zeroed
//!   full-size buffer, leaving every foreign voxel at `+0.0`. Because
//!   each voxel's serial sum over projections happens entirely on its
//!   owner, the per-rank buffers have *disjoint support*, and any
//!   canonical rank-ordered fold of them reproduces the serial
//!   back-projection bit-for-bit (`0.0 + v ≡ v`; accumulating into a
//!   zeroed volume means no `-0.0` survives to spoil the identity).
//! * The **per-iteration merge** of those correction buffers is the
//!   `--reduce-mode` choice: the paper's chain-pipelined
//!   [`Communicator::segmented_reduce_scatter_f32`] followed by a
//!   segment allgather, the flat canonical dense reduce, or the
//!   canonical hierarchical reduce. All three share the ascending-rank
//!   fold contract, so **every (ranks, reduce-mode) cell yields the
//!   bitwise-identical iterate** — including the residual history, which
//!   every rank recomputes redundantly over the allgathered stack with
//!   the serial f64 summation order.
//!
//! Long runs checkpoint the full iterate plus residual history through
//! `scalefbp-ckpt` once per `--checkpoint-every` iterations (manifest
//! slab key = iteration index). Because the iterate is rank-count- and
//! reduce-mode-invariant, a checkpoint written by a 4-rank segmented run
//! may be resumed by a 2-rank dense run and still finish bitwise
//! identical to an uninterrupted serial solve — the conformance grid in
//! `tests/iterative_distributed.rs` pins exactly that.

use std::sync::Arc;

use scalefbp_ckpt::{fingerprint, CheckpointSpec, CheckpointStore};
use scalefbp_faults::NoFaults;
use scalefbp_geom::{CbctGeometry, ProjectionStack, Volume};
use scalefbp_iosim::StorageEndpoint;
use scalefbp_iterative::{
    backproject_unfiltered_slabs, forward_project_rows, Mlem, RayMarchConfig, Sirt,
};
use scalefbp_mpisim::{hierarchical_reduce_sum_canonical, segment_partition, NetworkStats, World};
use scalefbp_obs::{MetricsRegistry, MetricsSnapshot};

use crate::{with_rank_budget, ReconstructionError, ReduceMode};

/// Which iterative solver to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IterativeSolver {
    /// SIRT with the given relaxation factor λ ∈ (0, 2].
    Sirt {
        /// Relaxation factor λ.
        relaxation: f32,
    },
    /// Multiplicative MLEM.
    Mlem,
}

impl IterativeSolver {
    /// Canonical name (CLI/bench/fingerprint spelling).
    pub fn name(self) -> &'static str {
        match self {
            IterativeSolver::Sirt { .. } => "sirt",
            IterativeSolver::Mlem => "mlem",
        }
    }
}

/// Configuration of a distributed iterative run.
#[derive(Clone, Debug)]
pub struct IterativeConfig {
    /// Solver choice.
    pub solver: IterativeSolver,
    /// Ray-marching discretisation of the forward projector.
    pub march: RayMarchConfig,
    /// Total iterations to perform (including any resumed ones).
    pub iterations: usize,
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Per-iteration correction-merge collective.
    pub reduce_mode: ReduceMode,
    /// Optional crash-consistent checkpointing.
    pub checkpoint: Option<(StorageEndpoint, CheckpointSpec)>,
}

impl IterativeConfig {
    /// A serial-equivalent single-rank run with `iterations` iterations.
    pub fn new(solver: IterativeSolver, iterations: usize) -> Self {
        IterativeConfig {
            solver,
            march: RayMarchConfig::default(),
            iterations,
            ranks: 1,
            reduce_mode: ReduceMode::Segmented,
            checkpoint: None,
        }
    }
}

/// Result of a distributed iterative run.
#[derive(Debug)]
pub struct IterativeOutcome {
    /// The final iterate (bitwise identical to the serial solver's).
    pub volume: Volume,
    /// Residual/deviation history, one entry per iteration performed —
    /// resumed entries included, bitwise the serial `run()` history.
    pub residuals: Vec<f64>,
    /// Iterations restored from a checkpoint rather than recomputed.
    pub resumed_iterations: usize,
    /// Aggregate simulated network traffic.
    pub network: NetworkStats,
    /// Merged metrics snapshot (`iter.*`, `mpisim.*`, `ckpt.*`).
    pub metrics: MetricsSnapshot,
}

/// Everything that determines the iterate's output bits: the full
/// geometry, the ray-march step, and the solver (with its relaxation).
/// Rank count and reduce mode are deliberately *excluded* — the driver
/// is bitwise invariant to both, so checkpoints are portable across
/// layouts (see the cross-layout resume test).
pub fn iterative_fingerprint(
    geom: &CbctGeometry,
    solver: IterativeSolver,
    march: RayMarchConfig,
) -> u64 {
    let relax_bits = match solver {
        IterativeSolver::Sirt { relaxation } => relaxation.to_bits(),
        IterativeSolver::Mlem => 0,
    };
    let canonical = format!(
        "driver=iterative;solver={};relax={relax_bits:08x};step={:016x};\
         dso={};dsd={};np={};nu={};nv={};du={};dv={};\
         nx={};ny={};nz={};dx={};dy={};dz={};su={};sv={};scor={}",
        solver.name(),
        march.step_frac.to_bits(),
        geom.dso,
        geom.dsd,
        geom.np,
        geom.nu,
        geom.nv,
        geom.du,
        geom.dv,
        geom.nx,
        geom.ny,
        geom.nz,
        geom.dx,
        geom.dy,
        geom.dz,
        geom.sigma_u,
        geom.sigma_v,
        geom.sigma_cor,
    );
    fingerprint(&canonical)
}

/// Either serial solver behind one face, so the rank loop is written once.
enum Solver {
    Sirt(Sirt),
    Mlem(Mlem),
}

impl Solver {
    fn build(geom: &CbctGeometry, kind: IterativeSolver, march: RayMarchConfig) -> Solver {
        match kind {
            IterativeSolver::Sirt { relaxation } => {
                Solver::Sirt(Sirt::new(geom, march, relaxation))
            }
            IterativeSolver::Mlem => Solver::Mlem(Mlem::new(geom, march)),
        }
    }

    fn estimate(&self) -> &Volume {
        match self {
            Solver::Sirt(s) => s.estimate(),
            Solver::Mlem(m) => m.estimate(),
        }
    }

    fn restore(&mut self, x: Volume, iterations: usize) {
        match self {
            Solver::Sirt(s) => s.restore(x, iterations),
            Solver::Mlem(m) => m.restore(x, iterations),
        }
    }

    /// The elementwise residual/ratio pass over a forward-projected
    /// stack — the serial solver's own code, run on the full stack.
    fn weigh(&self, fp: &mut ProjectionStack, b: &ProjectionStack) -> f64 {
        match self {
            Solver::Sirt(s) => s.weight_residual(fp, b),
            Solver::Mlem(m) => m.ratio(fp, b),
        }
    }

    /// The elementwise update pass — the serial solver's own code.
    fn apply(&mut self, correction: &Volume) {
        match self {
            Solver::Sirt(s) => s.apply_correction(correction),
            Solver::Mlem(m) => m.apply_correction(correction),
        }
    }
}

/// Iterate + residual history → checkpoint payload. Layout: `n·4` bytes
/// of little-endian f32 voxels, then one little-endian f64 per completed
/// iteration; the iteration count rides in the manifest slab key.
fn iterate_to_bytes(x: &Volume, residuals: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(x.len() * 4 + residuals.len() * 8);
    for v in x.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for r in residuals {
        bytes.extend_from_slice(&r.to_le_bytes());
    }
    bytes
}

fn iterate_from_bytes(
    geom: &CbctGeometry,
    iterations: usize,
    bytes: &[u8],
) -> Result<(Volume, Vec<f64>), ReconstructionError> {
    let n = geom.nx * geom.ny * geom.nz;
    if bytes.len() != n * 4 + iterations * 8 {
        return Err(ReconstructionError::Checkpoint(format!(
            "iterate payload for iteration {iterations} is {} B, expected {}",
            bytes.len(),
            n * 4 + iterations * 8
        )));
    }
    let mut x = Volume::zeros(geom.nx, geom.ny, geom.nz);
    for (dst, src) in x.data_mut().iter_mut().zip(bytes[..n * 4].chunks_exact(4)) {
        *dst = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
    let residuals = bytes[n * 4..]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    Ok((x, residuals))
}

/// Latest checkpointed iteration `≤ limit` in the manifest, if any.
fn latest_checkpointed_iteration(store: &CheckpointStore, limit: usize) -> Option<usize> {
    store
        .manifest()
        .committed_ranges()
        .into_iter()
        .filter(|&(i0, i1)| i1 == i0 + 1 && i1 <= limit)
        .map(|(_, i1)| i1)
        .max()
}

/// What rank 0 decided after the per-iteration checkpoint attempt,
/// broadcast to keep every rank in lockstep.
const FLAG_CONTINUE: u8 = 0;
const FLAG_KILLED: u8 = 1;
const FLAG_CKPT_ERROR: u8 = 2;

struct RankResult {
    /// Rank 0's final state; `None` on other ranks.
    output: Option<(Volume, Vec<f64>)>,
    killed: bool,
    saves: usize,
    ckpt_error: Option<String>,
}

/// Runs `config.iterations` of the chosen solver against sinogram `b`,
/// sharded over `config.ranks` simulated ranks, merging per-iteration
/// corrections with the chosen [`ReduceMode`] collective. The outcome is
/// bitwise identical to the serial [`Sirt`]/[`Mlem`] `run()` for every
/// rank count and every reduce mode.
pub fn iterative_reconstruct_distributed(
    geom: &CbctGeometry,
    b: &ProjectionStack,
    config: &IterativeConfig,
) -> Result<IterativeOutcome, ReconstructionError> {
    assert!(config.ranks >= 1, "need at least one rank");
    if (b.nv(), b.np(), b.nu()) != (geom.nv, geom.np, geom.nu) {
        return Err(ReconstructionError::ShapeMismatch(format!(
            "sinogram {}×{}×{} does not match geometry {}×{}×{}",
            b.nv(),
            b.np(),
            b.nu(),
            geom.nv,
            geom.np,
            geom.nu
        )));
    }
    let config_fp = iterative_fingerprint(geom, config.solver, config.march);
    let registry = MetricsRegistry::new();

    // Resume (serial, before the world): load the latest committed
    // iterate so rank-local solver state can start from it.
    let mut start_iter = 0usize;
    let mut start_state: Option<(Volume, Vec<f64>)> = None;
    if let Some((endpoint, spec)) = &config.checkpoint {
        if spec.resume {
            let store = CheckpointStore::open_or_create(endpoint, &spec.dir, config_fp)
                .map_err(|e| ReconstructionError::Checkpoint(e.to_string()))?;
            if let Some(done) = latest_checkpointed_iteration(&store, config.iterations) {
                let payload = store
                    .load_slab((done - 1, done), None)
                    .map_err(|e| ReconstructionError::Checkpoint(e.to_string()))?;
                let (x, residuals) = iterate_from_bytes(geom, done, &payload)?;
                registry.counter("iter.resumed.iterations").add(done as u64);
                start_iter = done;
                start_state = Some((x, residuals));
            }
        }
    }

    let p = config.ranks;
    let total = config.iterations;
    let v_parts = segment_partition(geom.nv, p);
    let z_parts = segment_partition(geom.nz, p);
    let row_stride = geom.np * geom.nu;
    let slice_len = geom.nx * geom.ny;
    let n_vox = slice_len * geom.nz;
    let counts: Vec<usize> = z_parts.iter().map(|r| r.len() * slice_len).collect();
    let start_state = &start_state;

    let (results, network) = World::run_with_observability(
        p,
        Arc::new(NoFaults),
        registry.clone(),
        with_rank_budget(p, |mut comm| -> RankResult {
            let rank = comm.rank();
            let metrics = comm.metrics().clone();
            let fproj_pixels = metrics.rank_counter("iter.fproj.pixels", rank);
            let bproj_voxels = metrics.rank_counter("iter.bproj.voxels", rank);
            let reduce_calls = metrics.rank_counter("iter.reduce.calls", rank);
            let reduce_elements = metrics.rank_counter("iter.reduce.elements", rank);
            let iterations_ctr = metrics.counter("iter.iterations");
            let ckpt_iters = metrics.counter("iter.ckpt.iterations");

            // Every rank builds the solver redundantly: the row/column
            // normalisations are deterministic functions of the geometry,
            // so all ranks start from the identical state.
            let mut solver = Solver::build(geom, config.solver, config.march);
            let mut residuals = Vec::new();
            if let Some((x, hist)) = start_state {
                solver.restore(x.clone(), start_iter);
                residuals = hist.clone();
            }
            // Only rank 0 touches the checkpoint store.
            let mut store: Option<(CheckpointStore, &CheckpointSpec)> = None;
            let mut ckpt_error = None;
            if rank == 0 {
                if let Some((endpoint, spec)) = &config.checkpoint {
                    match CheckpointStore::open_or_create(endpoint, &spec.dir, config_fp) {
                        Ok(s) => store = Some((s, spec)),
                        Err(e) => ckpt_error = Some(e.to_string()),
                    }
                }
            }

            let (v0, v1) = (v_parts[rank].start, v_parts[rank].end);
            let (z0, z1) = (z_parts[rank].start, z_parts[rank].end);
            let mut killed = false;

            for it in start_iter..total {
                if ckpt_error.is_some() {
                    break;
                }
                // 1. Forward-project this rank's detector rows.
                let my_rows = forward_project_rows(geom, solver.estimate(), config.march, v0, v1);
                fproj_pixels.add(my_rows.len() as u64);

                // 2. Allgather the rows: every rank assembles the full
                //    `A·x` stack by rank-ordered concatenation.
                let mut stack = ProjectionStack::zeros(geom.nv, geom.np, geom.nu);
                for (owner, seg) in v_parts.iter().enumerate() {
                    let dst = &mut stack.data_mut()[seg.start * row_stride..seg.end * row_stride];
                    if owner == rank {
                        dst.copy_from_slice(&my_rows);
                    }
                    comm.bcast_f32(owner, dst).expect("row allgather failed");
                }

                // 3. Elementwise residual/ratio over the full stack —
                //    redundant on every rank, bitwise the serial pass
                //    (including the f64 scalar's summation order).
                let scalar = solver.weigh(&mut stack, b);
                residuals.push(scalar);

                // 4. Back-project this rank's z-slab into a zeroed
                //    full-size correction buffer (disjoint support).
                let mut correction = Volume::zeros(geom.nx, geom.ny, geom.nz);
                backproject_unfiltered_slabs(geom, &stack, &mut correction, z0, z1);
                bproj_voxels.add(((z1 - z0) * slice_len) as u64);

                // 5. Merge the corrections with the chosen canonical
                //    collective; afterwards every rank holds the full,
                //    serially-identical correction volume.
                reduce_calls.inc();
                reduce_elements.add(n_vox as u64);
                match config.reduce_mode {
                    ReduceMode::Dense => {
                        comm.reduce_sum_f32_canonical(0, correction.data_mut())
                            .expect("dense canonical reduce failed");
                        comm.bcast_f32(0, correction.data_mut())
                            .expect("correction broadcast failed");
                    }
                    ReduceMode::Hierarchical => {
                        let rpn = if p > 1 { 2 } else { 1 };
                        hierarchical_reduce_sum_canonical(&mut comm, 0, correction.data_mut(), rpn)
                            .expect("hierarchical canonical reduce failed");
                        comm.bcast_f32(0, correction.data_mut())
                            .expect("correction broadcast failed");
                    }
                    ReduceMode::Segmented => {
                        let own = comm
                            .segmented_reduce_scatter_f32(correction.data(), &counts, slice_len)
                            .expect("segmented reduce-scatter failed");
                        let full = comm
                            .allgather_f32_segments(&own, &counts)
                            .expect("segment allgather failed");
                        correction.data_mut().copy_from_slice(&full);
                    }
                }

                // 6. Elementwise update — redundant on every rank, so all
                //    ranks hold the identical next iterate.
                solver.apply(&correction);
                if rank == 0 {
                    iterations_ctr.inc();
                }

                // 7. Rank 0 checkpoints at the cadence boundary and
                //    broadcasts the verdict so all ranks stay in lockstep
                //    (continue / chaos-kill / checkpoint failure).
                let mut flag = vec![FLAG_CONTINUE];
                if rank == 0 {
                    if let Some((store, spec)) = store.as_mut() {
                        let done = it + 1;
                        if done % spec.every == 0 || done == total {
                            let payload = iterate_to_bytes(solver.estimate(), &residuals);
                            match store.save_slab(done - 1, done, &payload) {
                                Ok(()) => {
                                    ckpt_iters.inc();
                                    if let Some(k) = spec.kill_after_saves {
                                        if store.saves_this_run() >= k {
                                            flag[0] = FLAG_KILLED;
                                        }
                                    }
                                }
                                Err(e) => {
                                    ckpt_error = Some(e.to_string());
                                    flag[0] = FLAG_CKPT_ERROR;
                                }
                            }
                        }
                    }
                }
                comm.bcast(0, &mut flag);
                match flag[0] {
                    FLAG_KILLED => {
                        killed = true;
                        break;
                    }
                    FLAG_CKPT_ERROR => break,
                    _ => {}
                }
            }

            let saves = store.as_ref().map_or(0, |(s, _)| s.saves_this_run());
            RankResult {
                output: (rank == 0).then(|| {
                    let x = solver.estimate().clone();
                    (x, residuals)
                }),
                killed,
                saves,
                ckpt_error,
            }
        }),
    );

    let mut root = results
        .into_iter()
        .next()
        .expect("world returns rank 0's result");
    if let Some(e) = root.ckpt_error.take() {
        return Err(ReconstructionError::Checkpoint(e));
    }
    if root.killed {
        return Err(ReconstructionError::Interrupted {
            completed_slabs: root.saves,
        });
    }
    let (volume, residuals) = root.output.expect("rank 0 carries the iterate");
    Ok(IterativeOutcome {
        volume,
        residuals,
        resumed_iterations: start_iter,
        network,
        metrics: registry.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_phantom::{forward_project, uniform_ball};

    fn fixture() -> (CbctGeometry, ProjectionStack) {
        let g = CbctGeometry::ideal(12, 8, 20, 18);
        let b = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
        (g, b)
    }

    fn assert_bits(a: &Volume, b: &Volume) {
        assert!(
            a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "volumes differ"
        );
    }

    #[test]
    fn single_rank_matches_serial_sirt_bitwise() {
        let (g, b) = fixture();
        let mut serial = Sirt::new(&g, RayMarchConfig::default(), 1.0);
        let hist = serial.run(&b, 3);
        let out = iterative_reconstruct_distributed(
            &g,
            &b,
            &IterativeConfig::new(IterativeSolver::Sirt { relaxation: 1.0 }, 3),
        )
        .unwrap();
        assert_bits(serial.estimate(), &out.volume);
        assert_eq!(
            hist.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            out.residuals
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn four_rank_segmented_matches_serial_mlem_bitwise() {
        let (g, b) = fixture();
        let mut serial = Mlem::new(&g, RayMarchConfig::default());
        let hist = serial.run(&b, 3);
        let mut cfg = IterativeConfig::new(IterativeSolver::Mlem, 3);
        cfg.ranks = 4;
        cfg.reduce_mode = ReduceMode::Segmented;
        let out = iterative_reconstruct_distributed(&g, &b, &cfg).unwrap();
        assert_bits(serial.estimate(), &out.volume);
        assert_eq!(
            hist.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            out.residuals
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
        let merges = out
            .metrics
            .counter("iter.reduce.calls", Some(0))
            .unwrap_or(0);
        assert_eq!(merges, 3);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (g, _) = fixture();
        let bad = ProjectionStack::zeros(g.nv + 1, g.np, g.nu);
        let err = iterative_reconstruct_distributed(
            &g,
            &bad,
            &IterativeConfig::new(IterativeSolver::Mlem, 1),
        )
        .unwrap_err();
        assert!(matches!(err, ReconstructionError::ShapeMismatch(_)));
    }

    #[test]
    fn fingerprint_separates_solvers_and_geometry() {
        let g = CbctGeometry::ideal(12, 8, 20, 18);
        let g2 = CbctGeometry::ideal(14, 8, 20, 18);
        let m = RayMarchConfig::default();
        let s1 = iterative_fingerprint(&g, IterativeSolver::Sirt { relaxation: 1.0 }, m);
        let s2 = iterative_fingerprint(&g, IterativeSolver::Sirt { relaxation: 0.5 }, m);
        let ml = iterative_fingerprint(&g, IterativeSolver::Mlem, m);
        assert_ne!(s1, s2);
        assert_ne!(s1, ml);
        assert_ne!(
            s1,
            iterative_fingerprint(&g2, IterativeSolver::Sirt { relaxation: 1.0 }, m)
        );
    }
}
