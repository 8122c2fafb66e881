//! # scalefbp — Scalable FBP Decomposition for Cone-Beam CT Reconstruction
//!
//! A from-scratch Rust reproduction of Chen et al., *"Scalable FBP
//! Decomposition for Cone-Beam CT Reconstruction"*, SC '21
//! (DOI 10.1145/3458817.3476139).
//!
//! The paper's contribution is a decomposition of the FDK
//! filtered-back-projection algorithm for cone-beam CT that splits the
//! **input projections in two dimensions** (detector rows `N_v` and
//! projection count `N_p`) and the **output volume along Z**, which
//!
//! 1. replaces the global collectives of prior distributed CBCT frameworks
//!    with one *segmented* `MPI_Reduce` per group of `N_r` ranks,
//! 2. removes the redundant host↔device traffic of batch-only schemes via
//!    differential row updates (Figure 4 / Eq 6–7), and
//! 3. enables **out-of-core** reconstruction of volumes far exceeding
//!    device memory through a modular detector-row ring buffer
//!    (Listing 1 / Algorithm 3).
//!
//! ## Entry points
//!
//! One way into each driver; what varies is an argument, not a function
//! name.
//!
//! * [`fdk_reconstruct`] — the one-call in-core FDK reconstruction
//!   (filter + back-project + normalise): the quickstart API.
//!   [`fdk_reconstruct_configured`] is the same run under an
//!   [`FdkConfig`] (window, kernel, backend), optionally restricted to a
//!   slice range.
//! * [`OutOfCoreReconstructor`] — the streaming driver on a simulated
//!   device with a hard memory capacity: reads detector-row blocks from a
//!   [`RowSource`] (a [`ProjectionStack`], or a `.sfbp` file read by rows),
//!   streams them through a [`scalefbp_backproject::TextureWindow`] and
//!   emits sub-volume slabs. `reconstruct(p, run)` takes a [`StreamRun`]:
//!   the [`Schedule`], which picks what the one slab loop exports
//!   (Algorithm 3's serial trace, or Figure 9's pipeline replayed for the
//!   Figure 10 timelines), a fault plan, a modelled storage endpoint and
//!   slab checkpoints.
//! * [`fault_tolerant_reconstruct`] — the distributed framework on the
//!   in-process MPI substrate: rank groups (Eq 9–12), per-group sub-volume
//!   batches, one rank-ordered reduction per group and batch
//!   (Section 4.4.2), under a fault plan (`FaultPlan::none()` for a
//!   reliable world) and with optional checkpoints.
//! * [`iterative_reconstruct_distributed`] and
//!   [`fdk_reconstruct_short_scan`] — SIRT/MLEM on the segmented
//!   collective, and Parker-weighted short scans.
//! * [`timing`] — the discrete-event **timing mode** that replays the same
//!   task graph at paper scale (1024 GPUs, 4096³ volumes) with calibrated
//!   stage durations; the source of the Figure 13–15 "measured
//!   (simulated)" curves.
//! * [`baselines`] — the prior-art decomposition schemes of Table 2
//!   (RTK/Lu-style no-split, iFDK-style `N_p`-only) for the ablation
//!   benches.
//!
//! Substrate crates (`scalefbp-fft`, `-geom`, `-phantom`, `-filter`,
//! `-backproject`, `-gpusim`, `-mpisim`, `-iosim`, `-pipeline`,
//! `-perfmodel`) are re-exported under [`substrates`] for convenience.
//!
//! ## Example
//!
//! Simulate a scan of a uniform ball and reconstruct it:
//!
//! ```
//! use scalefbp::{fdk_reconstruct, CbctGeometry};
//! use scalefbp::substrates::phantom::{forward_project, uniform_ball};
//!
//! // A small scanner: 16³ volume, 24×24 panel, 20 projections.
//! let geom = CbctGeometry::ideal(16, 20, 24, 24);
//! let ball = uniform_ball(&geom, 0.5, 1.0);
//! let projections = forward_project(&geom, &ball);
//! let volume = fdk_reconstruct(&geom, &projections).unwrap();
//!
//! // The ball's density is recovered at the centre.
//! let c = volume.get(8, 8, 8);
//! assert!((c - 1.0).abs() < 0.25, "centre {c}");
//! ```

/// Serialises tests whose assertions depend on wall-clock behaviour
/// (stage overlap, failure-detection timeouts) against each other, so
/// thread-pool contention from a concurrently running world cannot turn
/// a timing margin into a spurious failure.
#[cfg(test)]
pub(crate) static TIMING_TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

pub mod baselines;
pub mod checkpoint;
mod config;
mod fault_tolerant;
mod fdk;
mod iterative;
mod outofcore;
mod pipelined;
pub mod shortscan;
mod stream;
pub mod timing;

pub use checkpoint::config_fingerprint;
pub use config::{
    BackendChoice, FdkConfig, FilterChoice, KernelChoice, ReconstructionError, ReduceMode,
};
pub use fault_tolerant::{
    derive_deadlines, fault_tolerant_reconstruct, ChunkLedger, FaultTolerantOutcome, FtDeadlines,
};
pub use fdk::{fdk_reconstruct, fdk_reconstruct_configured};
pub use iterative::{
    iterative_fingerprint, iterative_reconstruct_distributed, IterativeConfig, IterativeOutcome,
    IterativeSolver,
};
pub use outofcore::{OutOfCoreReconstructor, OutOfCoreReport, Schedule, StreamRun};
pub use scalefbp_ckpt::{CheckpointSpec, CheckpointStore};
// The other argument types of the entry points above.
pub use scalefbp_faults::FaultPlan;
pub use scalefbp_iosim::StorageEndpoint;
pub use shortscan::fdk_reconstruct_short_scan;

/// Re-exports of every substrate crate.
pub mod substrates {
    /// The thread budget the parallel kernels split their work under.
    pub use rayon;
    pub use scalefbp_backproject as backproject;
    pub use scalefbp_exec as exec;
    pub use scalefbp_fft as fft;
    pub use scalefbp_filter as filter;
    pub use scalefbp_geom as geom;
    pub use scalefbp_gpusim as gpusim;
    pub use scalefbp_iosim as iosim;
    pub use scalefbp_iterative as iterative;
    pub use scalefbp_mpisim as mpisim;
    pub use scalefbp_obs as obs;
    pub use scalefbp_perfmodel as perfmodel;
    pub use scalefbp_phantom as phantom;
    pub use scalefbp_pipeline as pipeline;
}

// The observability layer's entry types, at the crate root: the
// snapshot every driver's report carries, and the registry behind it.
pub use scalefbp_obs::{MetricsRegistry, MetricsSnapshot};

// The most-used substrate types, at the crate root for ergonomics.
pub use scalefbp_filter::FilterWindow;
pub use scalefbp_geom::{
    CbctGeometry, DatasetPreset, ProjectionStack, RankLayout, RowSource, Volume,
};
pub use scalefbp_gpusim::DeviceSpec;

/// Wraps the body of an in-process rank so each of `ranks` ranks runs
/// with an even share of the caller's thread budget (at least 1): a world
/// of ranks never starts more kernel threads than its caller may use.
pub(crate) fn with_rank_budget<T, F>(
    ranks: usize,
    body: F,
) -> impl Fn(scalefbp_mpisim::Communicator) -> T + Send + Sync
where
    T: Send,
    F: Fn(scalefbp_mpisim::Communicator) -> T + Send + Sync,
{
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads((rayon::current_num_threads() / ranks.max(1)).max(1))
        .build()
        .expect("a thread budget always builds");
    move |rank| pool.install(|| body(rank))
}

#[cfg(test)]
mod tests {
    use scalefbp_mpisim::World;

    #[test]
    fn ranks_divide_the_thread_budget() {
        let budget = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let per_rank = |threads, ranks| {
            budget(threads).install(|| {
                World::run(
                    ranks,
                    crate::with_rank_budget(ranks, |_| rayon::current_num_threads()),
                )
            })
        };
        assert_eq!(per_rank(2, 2), [1, 1]);
        assert_eq!(per_rank(2, 4), [1, 1, 1, 1]);
        assert_eq!(per_rank(2, 1), [2]);
        assert_eq!(per_rank(4, 2), [2, 2]);
    }
}
