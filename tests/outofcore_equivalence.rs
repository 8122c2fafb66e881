//! Out-of-core streaming must be bit-identical to in-core reconstruction
//! under every device budget — the paper's criterion for the Listing-1
//! kernel — and must succeed exactly where the non-streaming baseline
//! fails.

use scalefbp::{
    fdk_reconstruct_configured, DeviceSpec, FdkConfig, FilterWindow, OutOfCoreReconstructor,
    Schedule,
};
use scalefbp_geom::CbctGeometry;
use scalefbp_gpusim::Device;
use scalefbp_phantom::{bead_pile, forward_project};

fn setup() -> (CbctGeometry, scalefbp_geom::ProjectionStack) {
    let geom = CbctGeometry::ideal(32, 48, 64, 56);
    let projections = forward_project(&geom, &bead_pile(&geom, 12, 3));
    (geom, projections)
}

/// A volume-heavy geometry: the sub-volume slab dominates the device
/// working set, so shrinking the budget genuinely changes the `N_b` plan.
fn volume_heavy_setup() -> (CbctGeometry, scalefbp_geom::ProjectionStack) {
    let geom = CbctGeometry::ideal(48, 24, 40, 36);
    let projections = forward_project(&geom, &bead_pile(&geom, 8, 5));
    (geom, projections)
}

#[test]
fn bit_identical_across_device_budgets() {
    let (geom, projections) = volume_heavy_setup();
    let reference = fdk_reconstruct_configured(
        &FdkConfig::new(geom.clone()).with_window(FilterWindow::RamLak),
        &projections,
        None,
    )
    .unwrap();
    let full = (geom.projection_bytes() + geom.volume_bytes()) as u64;
    let mut plans = std::collections::HashSet::new();
    let mut budget = full;
    // Halve the device until planning fails, checking bit-equality at
    // every feasible budget.
    loop {
        let cfg = FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(budget));
        match OutOfCoreReconstructor::new(cfg) {
            Ok(rec) => {
                plans.insert(rec.nb());
                let (vol, _) = rec.reconstruct(&projections, Schedule::Serial).unwrap();
                assert_eq!(vol.data(), reference.data(), "budget {budget}");
            }
            Err(_) => break,
        }
        budget /= 2;
        if budget == 0 {
            break;
        }
    }
    assert!(
        plans.len() > 1,
        "expected different N_b plans across budgets: {plans:?}"
    );
}

#[test]
fn every_window_choice_is_equivalent() {
    let (geom, projections) = setup();
    for window in [
        FilterWindow::RamLak,
        FilterWindow::SheppLogan,
        FilterWindow::Cosine,
        FilterWindow::Hamming,
        FilterWindow::Hann,
    ] {
        let reference = fdk_reconstruct_configured(
            &FdkConfig::new(geom.clone()).with_window(window),
            &projections,
            None,
        )
        .unwrap();
        let cfg = FdkConfig::new(geom.clone())
            .with_window(window)
            .with_device(DeviceSpec::tiny(
                (geom.projection_bytes() + geom.volume_bytes()) as u64 / 3,
            ));
        let (vol, _) = OutOfCoreReconstructor::new(cfg)
            .unwrap()
            .reconstruct(&projections, Schedule::Serial)
            .unwrap();
        assert_eq!(vol.data(), reference.data(), "{window:?}");
    }
}

#[test]
fn pipelined_and_sequential_streaming_agree() {
    let (geom, projections) = setup();
    let cfg = FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(
        (geom.projection_bytes() + geom.volume_bytes()) as u64 / 2,
    ));
    let (seq, _) = OutOfCoreReconstructor::new(cfg.clone())
        .unwrap()
        .reconstruct(&projections, Schedule::Serial)
        .unwrap();
    let (pipe, _) = OutOfCoreReconstructor::new(cfg)
        .unwrap()
        .reconstruct(&projections, Schedule::Overlapped)
        .unwrap();
    assert_eq!(seq.data(), pipe.data());
}

#[test]
fn table5_feasibility_boundary() {
    // The Table 5 story at test scale: an RTK-style allocation of the full
    // working set fails on a small device; the streaming reconstructor
    // succeeds on the same device.
    let (geom, projections) = setup();
    let full_working_set = (geom.projection_bytes() + geom.volume_bytes()) as u64;
    let device_budget = full_working_set / 3;

    // RTK-style: everything resident at once.
    let device = Device::new(DeviceSpec::tiny(device_budget));
    let rtk_alloc = device
        .alloc(geom.projection_bytes() as u64)
        .and_then(|p| device.alloc(geom.volume_bytes() as u64).map(|v| (p, v)));
    assert!(
        rtk_alloc.is_err(),
        "RTK-style allocation should exceed the device"
    );

    // Ours: streams within the budget.
    let cfg = FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(device_budget));
    let rec = OutOfCoreReconstructor::new(cfg).unwrap();
    let (vol, report) = rec.reconstruct(&projections, Schedule::Serial).unwrap();
    assert_eq!(vol.len(), geom.volume_voxels());
    assert!(report.device.peak_allocated <= device_budget);
}

#[test]
fn streaming_never_reloads_rows() {
    let (geom, projections) = setup();
    for denom in [2u64, 4, 8] {
        let budget = (geom.projection_bytes() + geom.volume_bytes()) as u64 / denom + 65536;
        let cfg = FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(budget));
        let rec = OutOfCoreReconstructor::new(cfg).unwrap();
        let (_, report) = rec.reconstruct(&projections, Schedule::Serial).unwrap();
        let rows: usize = report.batches.iter().map(|b| b.rows_loaded).sum();
        assert!(
            rows <= geom.nv + 2 * report.batches.len(),
            "denom {denom}: {rows} rows streamed for nv={}",
            geom.nv
        );
    }
}

#[test]
fn smaller_devices_mean_more_smaller_batches() {
    let (geom, _) = volume_heavy_setup();
    let full = (geom.projection_bytes() + geom.volume_bytes()) as u64;
    let big = OutOfCoreReconstructor::new(
        FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(full)),
    )
    .unwrap();
    // Shrink the budget until the planner picks a thinner slab.
    let mut budget = full / 2;
    let small = loop {
        let cfg = FdkConfig::new(geom.clone()).with_device(DeviceSpec::tiny(budget));
        match OutOfCoreReconstructor::new(cfg) {
            Ok(rec) if rec.nb() < big.nb() => break rec,
            Ok(_) => budget /= 2,
            Err(e) => panic!("no feasible smaller plan before exhaustion: {e}"),
        }
    };
    assert!(small.nb() < big.nb());
    assert!(small.plan().num_subvolumes() > big.plan().num_subvolumes());
}
