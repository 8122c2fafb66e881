//! The distributed framework must reproduce the single-node FDK result for
//! every rank layout — the correctness property behind the whole
//! decomposition.
//!
//! Volumes are compared exactly or within f32 reassociation tolerance;
//! traffic and work are asserted as lower bounds only. Under a loaded
//! `cargo test` a healthy rank can miss the 500 ms chunk deadline and be
//! speculated against: same bits, but extra recomputes and control
//! messages.

use scalefbp::{
    fault_tolerant_reconstruct, fdk_reconstruct, FaultPlan, FaultTolerantOutcome, FdkConfig,
    RankLayout, ReduceMode,
};
use scalefbp_geom::{CbctGeometry, ProjectionStack, Volume};
use scalefbp_phantom::{forward_project, uniform_ball, Phantom};

/// Serialises the rank worlds: failure detection is timeout-based, so
/// sibling worlds competing for two cores turn healthy ranks into
/// stragglers.
static WORLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn setup() -> (CbctGeometry, ProjectionStack, Volume) {
    let geom = CbctGeometry::ideal(24, 32, 48, 40);
    let phantom = uniform_ball(&geom, 0.55, 1.0);
    let projections = forward_project(&geom, &phantom);
    let reference = fdk_reconstruct(&geom, &projections).unwrap();
    (geom, projections, reference)
}

/// One fault-free run on an `nr × ng` layout with two batches per group.
fn run(
    cfg: &FdkConfig,
    nr: usize,
    ng: usize,
    projections: &ProjectionStack,
) -> FaultTolerantOutcome {
    let _serial = WORLD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault_tolerant_reconstruct(
        cfg,
        RankLayout::new(nr, ng, 2),
        projections,
        &FaultPlan::none(),
        None,
    )
    .unwrap_or_else(|e| panic!("nr={nr} ng={ng}: {e}"))
}

#[test]
fn every_layout_reproduces_the_reference() {
    let (geom, projections, reference) = setup();
    let cfg = FdkConfig::new(geom).with_nc(2);
    for (nr, ng) in [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (2, 4), (3, 3)] {
        let out = run(&cfg, nr, ng, &projections);
        let err = reference.max_abs_diff(&out.volume);
        assert!(err < 3e-4, "nr={nr} ng={ng}: max diff {err}");
    }
}

#[test]
fn volume_only_split_is_bit_identical() {
    // ng-way volume split with nr=1 never regroups any f32 sum; ng=1 is
    // the whole driver on a single rank.
    let (geom, projections, reference) = setup();
    let cfg = FdkConfig::new(geom).with_nc(2);
    for ng in [1, 2, 3, 4, 6] {
        let out = run(&cfg, 1, ng, &projections);
        assert_eq!(out.volume.data(), reference.data(), "ng={ng}");
    }
}

#[test]
fn network_traffic_scales_with_group_width_not_world_size() {
    // Widening groups (nr) adds reduce traffic: every worker ships its
    // partial of every batch to the leader. Adding groups (ng) at fixed
    // nr adds only slab shipping to the root.
    let (geom, projections, _) = setup();
    let cfg = FdkConfig::new(geom.clone()).with_nc(2);
    let narrow = run(&cfg, 1, 4, &projections).network.bytes; // no reduction at all
    let wide = run(&cfg, 4, 1, &projections).network.bytes; // 4-rank reduce of the full volume
    let vol = geom.volume_bytes() as u64;
    // nr=4,ng=1: three workers each ship one full volume of partials.
    assert!(wide >= 3 * vol, "wide {wide} vs 3 × volume {vol}");
    // nr=1,ng=4: three leaders ship their quarter to the root.
    assert!(narrow >= 3 * vol / 4, "narrow {narrow} vs ¾ volume {vol}");
    assert!(
        wide > narrow,
        "reduction traffic missing: wide {wide} vs narrow {narrow}"
    );
}

#[test]
fn every_reduce_mode_reproduces_the_reference() {
    // The mode only changes how group partials travel — all three must
    // land within f32 reassociation tolerance of single-node FDK on every
    // layout, including non-power-of-two group widths.
    let (geom, projections, reference) = setup();
    for (nr, ng) in [(2, 2), (3, 2), (4, 1)] {
        for mode in ReduceMode::ALL {
            let cfg = FdkConfig::new(geom.clone())
                .with_nc(2)
                .with_reduce_mode(mode);
            let out = run(&cfg, nr, ng, &projections);
            let err = reference.max_abs_diff(&out.volume);
            assert!(err < 3e-4, "nr={nr} ng={ng} mode={mode}: max diff {err}");
        }
    }
}

#[test]
fn dense_and_segmented_modes_are_bit_identical() {
    // The leader folds contributions in ascending rank order per element
    // — the canonical-ordering contract of docs/communication.md — so the
    // assembled volumes match bitwise whether chunks travel whole or as
    // per-segment pieces.
    let (geom, projections, _) = setup();
    for (nr, ng) in [(2, 2), (3, 2), (4, 1), (1, 3)] {
        let volume = |mode: ReduceMode| {
            let cfg = FdkConfig::new(geom.clone())
                .with_nc(2)
                .with_reduce_mode(mode);
            run(&cfg, nr, ng, &projections).volume
        };
        let dense = volume(ReduceMode::Dense);
        let segmented = volume(ReduceMode::Segmented);
        assert_eq!(dense.data(), segmented.data(), "nr={nr} ng={ng}");
    }
}

#[test]
fn default_config_matches_explicit_hierarchical_bitwise() {
    // No --reduce-mode flag ⇒ the hierarchical setting, bit for bit.
    let (geom, projections, _) = setup();
    let default_cfg = FdkConfig::new(geom.clone()).with_nc(2);
    assert_eq!(default_cfg.reduce_mode, ReduceMode::Hierarchical);
    let explicit_cfg = FdkConfig::new(geom)
        .with_nc(2)
        .with_reduce_mode(ReduceMode::Hierarchical);
    let default_out = run(&default_cfg, 3, 2, &projections);
    let explicit = run(&explicit_cfg, 3, 2, &projections);
    assert_eq!(default_out.volume.data(), explicit.volume.data());
}

#[test]
fn asymmetric_phantom_survives_distribution() {
    // A non-centred object: any indexing error between groups would shear
    // the assembled volume.
    let geom = CbctGeometry::ideal(24, 32, 48, 40);
    let r = geom.footprint_radius();
    let phantom = Phantom::new(vec![
        scalefbp_phantom::Ellipsoid::sphere([0.3 * r, 0.1 * r, 0.25 * r], 0.2 * r, 1.0),
        scalefbp_phantom::Ellipsoid::sphere([-0.2 * r, -0.3 * r, -0.3 * r], 0.15 * r, 2.0),
    ]);
    let projections = forward_project(&geom, &phantom);
    let reference = fdk_reconstruct(&geom, &projections).unwrap();
    let cfg = FdkConfig::new(geom).with_nc(2);
    let out = run(&cfg, 2, 3, &projections);
    let err = reference.max_abs_diff(&out.volume);
    assert!(err < 3e-4, "max diff {err}");
}

#[test]
fn work_conservation_across_layouts() {
    // Every rank computes one chunk per batch of its group (two batches
    // here), whatever the layout; speculation can only add recomputes.
    let (geom, projections, _) = setup();
    let cfg = FdkConfig::new(geom).with_nc(2);
    for (nr, ng) in [(1, 1), (2, 2), (4, 2)] {
        let out = run(&cfg, nr, ng, &projections);
        for rank in 0..nr * ng {
            let chunks = out.metrics.counter("ft.chunks.computed", Some(rank));
            assert!(chunks >= Some(2), "nr={nr} ng={ng} rank {rank}: {chunks:?}");
        }
    }
}
