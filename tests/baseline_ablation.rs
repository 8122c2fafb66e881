//! The Table 2 ablation as executable assertions: the paper's scheme vs
//! the prior-art decompositions on communication volume, device footprint
//! and redundant transfers — evaluated both analytically (paper scale) and
//! with counted traffic from real runs (test scale).

use scalefbp::baselines::{scheme_costs, Scheme};
use scalefbp::{
    fault_tolerant_reconstruct, DeviceSpec, FaultPlan, FdkConfig, OutOfCoreReconstructor,
    RankLayout, Schedule,
};
use scalefbp_geom::{CbctGeometry, DatasetPreset};
use scalefbp_phantom::{forward_project, uniform_ball};

#[test]
fn table2_lower_bound_input_sizes() {
    // Table 2's "Lower-bound Input Size" column: ours O(N_u) per row
    // window vs O(N_u × N_v) for the cone-beam baselines vs full volume
    // residency for iFDK-style.
    let g = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
    let ours = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
    let lu = scheme_costs(&g, Scheme::NoSplit, 8);
    let ifdk = scheme_costs(&g, Scheme::NpOnly { nranks: 1024 }, 8);
    assert!(ours.min_device_bytes < lu.min_device_bytes);
    assert!(lu.min_device_bytes < ifdk.min_device_bytes);
    // The decisive feasibility call of the paper: 4096³ on a 16 GB V100.
    let v100 = DeviceSpec::v100_16gb();
    assert!(ours.feasible_on(&v100));
    assert!(!ifdk.feasible_on(&v100));
}

#[test]
fn table2_communication_columns() {
    let g = DatasetPreset::by_name("coffee_bean").unwrap().geometry;
    let ours = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
    let ifdk = scheme_costs(&g, Scheme::NpOnly { nranks: 1024 }, 8);
    // O(log N_r) vs O(log N_world) rounds; an order of magnitude less data.
    assert!(ours.collective_rounds < ifdk.collective_rounds);
    assert!(ours.comm_bytes * 10 < ifdk.comm_bytes);
}

#[test]
fn measured_h2d_traffic_ours_vs_lu_restreaming() {
    // Real counters: our streaming moves each projection row once; a
    // Lu-style run re-streams the whole set once per volume chunk.
    let g = CbctGeometry::ideal(32, 48, 64, 56);
    let projections = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let budget = (g.projection_bytes() + g.volume_bytes()) as u64 / 3;
    let rec = OutOfCoreReconstructor::new(
        FdkConfig::new(g.clone()).with_device(DeviceSpec::tiny(budget)),
    )
    .unwrap();
    let (_, report) = rec.reconstruct(&projections, Schedule::Serial).unwrap();
    let chunks = report.batches.len() as u64;
    let lu_h2d = g.projection_bytes() as u64 * chunks;
    assert!(
        report.device.h2d_bytes * 2 < lu_h2d,
        "ours {} vs Lu-style {} over {chunks} chunks",
        report.device.h2d_bytes,
        lu_h2d
    );
    // And ours is within ~1 pass of the projection volume.
    assert!(report.device.h2d_bytes <= g.projection_bytes() as u64 * 5 / 4);
}

#[test]
fn measured_comm_segmented_vs_global() {
    // Real network counters: a 4-rank global-style run (one group spanning
    // everything) vs 2×2 segmented groups, at the same world size.
    let g = CbctGeometry::ideal(24, 32, 48, 40);
    let projections = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let cfg = FdkConfig::new(g.clone()).with_nc(2);
    let network = |layout| {
        fault_tolerant_reconstruct(&cfg, layout, &projections, &FaultPlan::none(), None)
            .unwrap()
            .network
    };
    let global = network(RankLayout::new(4, 1, 2));
    let segmented = network(RankLayout::new(2, 2, 2));
    assert!(
        segmented.bytes < global.bytes,
        "segmented {} vs global {}",
        segmented.bytes,
        global.bytes
    );
}

#[test]
fn scheme_costs_scale_as_documented() {
    // Sanity on the analytic model's scaling directions.
    let g = DatasetPreset::by_name("bumblebee").unwrap().geometry;
    // Wider groups: more reduce traffic, smaller projection share.
    let narrow = scheme_costs(&g, Scheme::TwoD { nr: 4, ng: 64 }, 8);
    let wide = scheme_costs(&g, Scheme::TwoD { nr: 16, ng: 64 }, 8);
    assert!(wide.comm_bytes > narrow.comm_bytes);
    assert!(wide.h2d_bytes_per_gpu < narrow.h2d_bytes_per_gpu);
    // More batches: Lu restreams more.
    let lu4 = scheme_costs(&g, Scheme::NoSplit, 4);
    let lu16 = scheme_costs(&g, Scheme::NoSplit, 16);
    assert!(lu16.h2d_bytes_per_gpu > lu4.h2d_bytes_per_gpu);
    assert!(lu16.min_device_bytes < lu4.min_device_bytes);
}
