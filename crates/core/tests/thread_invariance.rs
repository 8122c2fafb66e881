//! The thread budget never changes the bits. Every kernel that splits its
//! work over threads, and the drivers built on them, give bit-identical
//! output and equal update counts under budgets 1, 2 and 3.
//!
//! The scene is large enough that every split call is estimated above
//! the inline threshold, even in a release build, so budgets 2 and 3
//! really start helper threads.

use rayon::ThreadPoolBuilder;
use scalefbp::{fdk_reconstruct_configured, FdkConfig, OutOfCoreReconstructor, Schedule};
use scalefbp_backproject::{
    backproject_simd, backproject_window, backproject_window_simd, KernelStats, TextureWindow,
};
use scalefbp_filter::{FilterPipeline, FilterWindow};
use scalefbp_geom::{CbctGeometry, ProjectionMatrix, ProjectionStack, Volume};
use scalefbp_iterative::{backproject_unfiltered, forward_project_volume, RayMarchConfig};
use scalefbp_phantom::{bead_pile, forward_project, rasterize, Phantom};

const BUDGETS: [usize; 3] = [1, 2, 3];

struct Scene {
    geom: CbctGeometry,
    phantom: Phantom,
    projections: ProjectionStack,
}

fn scene() -> Scene {
    let geom = CbctGeometry::ideal(48, 48, 64, 64);
    let phantom = bead_pile(&geom, 40, 2021);
    let projections = forward_project(&geom, &phantom);
    Scene {
        geom,
        phantom,
        projections,
    }
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// Runs `run` under every budget and asserts each result equals the
/// single-thread one.
fn assert_invariant<T: PartialEq + Send>(what: &str, run: impl Fn() -> T + Sync) {
    let results: Vec<T> = BUDGETS
        .iter()
        .map(|&n| {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            pool.install(&run)
        })
        .collect();
    for (n, result) in BUDGETS.iter().zip(&results).skip(1) {
        assert!(
            *result == results[0],
            "{what}: budget {n} differs from budget 1"
        );
    }
}

fn filtered(s: &Scene) -> ProjectionStack {
    let mut stack = s.projections.clone();
    FilterPipeline::new(&s.geom, FilterWindow::RamLak).filter_stack(&mut stack);
    stack
}

fn full_window(s: &Scene, stack: &ProjectionStack) -> TextureWindow {
    let g = &s.geom;
    let mut window = TextureWindow::new(g.nv, g.np, g.nu, 0);
    window.write_rows(stack.rows_block(0, g.nv), 0, g.nv);
    window
}

fn volume_and_updates(
    g: &CbctGeometry,
    kernel: impl Fn(&mut Volume) -> KernelStats,
) -> (Vec<u32>, u64) {
    let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
    let updates = kernel(&mut vol).updates;
    (bits(vol.data()), updates)
}

#[test]
fn back_projection_kernels_ignore_the_thread_budget() {
    let s = scene();
    let g = &s.geom;
    let stack = filtered(&s);
    let mats = ProjectionMatrix::full_scan(g);
    let window = full_window(&s, &stack);
    assert_invariant("backproject_simd", || {
        volume_and_updates(g, |vol| backproject_simd(&stack, &mats, vol))
    });
    // A slab at a z offset, thinner than the volume is wide: its parallel
    // chunks are row bands over every slice, not z-blocks.
    assert_invariant("backproject_simd on a slab", || {
        let mut slab = Volume::zeros_slab(g.nx, g.ny, 16, 20);
        let updates = backproject_simd(&stack, &mats, &mut slab).updates;
        (bits(slab.data()), updates)
    });
    assert_invariant("backproject_window_simd", || {
        volume_and_updates(g, |vol| backproject_window_simd(&window, &mats, vol))
    });
    assert_invariant("backproject_window", || {
        volume_and_updates(g, |vol| backproject_window(&window, &mats, vol))
    });
}

#[test]
fn filter_and_phantom_ignore_the_thread_budget() {
    let s = scene();
    assert_invariant("FilterPipeline::filter_stack", || bits(filtered(&s).data()));
    assert_invariant("forward_project", || {
        bits(forward_project(&s.geom, &s.phantom).data())
    });
    assert_invariant("rasterize", || bits(rasterize(&s.geom, &s.phantom).data()));
}

#[test]
fn iterative_operators_ignore_the_thread_budget() {
    let s = scene();
    let g = &s.geom;
    let truth = rasterize(g, &s.phantom);
    assert_invariant("forward_project_volume", || {
        bits(forward_project_volume(g, &truth, RayMarchConfig::default()).data())
    });
    assert_invariant("backproject_unfiltered", || {
        let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_unfiltered(g, &s.projections, &mut vol);
        bits(vol.data())
    });
}

#[test]
fn drivers_ignore_the_thread_budget() {
    let s = scene();
    let config = FdkConfig::new(s.geom.clone());
    assert_invariant("fdk_reconstruct_configured", || {
        let vol = fdk_reconstruct_configured(&config, &s.projections, None).unwrap();
        bits(vol.data())
    });
    // Two batches: slabs thick enough that each stage's calls split too.
    let pipeline = OutOfCoreReconstructor::new(config.with_nc(2)).unwrap();
    assert_invariant("OutOfCoreReconstructor::reconstruct, overlapped", || {
        let (vol, report) = pipeline
            .reconstruct(&s.projections, Schedule::Overlapped)
            .unwrap();
        let updates = report.metrics.counter("pipeline.kernel.updates", Some(0));
        (bits(vol.data()), updates)
    });
}
