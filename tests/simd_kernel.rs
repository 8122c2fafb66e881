//! Cross-crate tests for the SIMD back-projection kernel and the
//! non-finite-coordinate regression.
//!
//! **Bitwise** is the one guarantee: `simd` (either backend, any
//! tile/zslab tuning) reproduces the `reference` oracle bit for bit, on
//! arbitrary volume shapes including non-multiple-of-8 widths, volume
//! slabs and partial detector windows, and whatever the matrices' `k`
//! column holds (the column-invariant hoist applies only where it is
//! `±0.0`); its streaming form reproduces `backproject_window`.
//!
//! Plus the regression that motivated the float-domain interior guards: a
//! projection matrix with a non-finite detector row (NaN `x`-row, ±∞
//! `y`-row) used to slip past an integer-domain bounds check — Rust's
//! saturating cast maps `NaN as isize` to 0, a valid index — and poison
//! tile accumulators with NaN. Every kernel, in-core and streaming, must
//! produce fully finite volumes from such matrices and still agree.

use proptest::prelude::*;
use scalefbp_backproject::{
    backproject_reference, backproject_simd, backproject_simd_with, backproject_simd_with_backend,
    backproject_window, backproject_window_simd, backproject_window_simd_with,
    backproject_window_simd_with_backend, simd_backend, SimdBackend, SimdTuning, TextureWindow,
    TileShape,
};
use scalefbp_exec::{host, KernelChoice};
use scalefbp_geom::{CbctGeometry, ProjectionMatrix, ProjectionStack, Volume, VolumeDecomposition};

/// Values a matrix's `k` column may hold besides the circular orbit's
/// `+0.0`: only `-0.0` keeps the column invariant; the rest (tiny,
/// subnormal, NaN, ±∞) must take the per-`k` route.
const K_COLUMN: [f32; 7] = [
    -0.0,
    1e-6,
    -3e-4,
    f32::from_bits(1),
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 23) as f32) - 0.5
}

fn noisy_stack(g: &CbctGeometry, seed: u64) -> ProjectionStack {
    let mut stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
    let mut state = seed | 1;
    for px in stack.data_mut() {
        *px = lcg(&mut state);
    }
    stack
}

/// Runs every selectable kernel, in-core and through a full-height
/// streaming window, on the given (possibly corrupted) matrices. The
/// oracle's in-core volume comes first.
fn all_kernels(
    g: &CbctGeometry,
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
) -> Vec<(String, Volume)> {
    let mut window = TextureWindow::new(g.nv, g.np, g.nu, 0);
    window.write_rows(stack.rows_block(0, g.nv), 0, g.nv);
    let mut out = Vec::new();
    for kernel in KernelChoice::ALL {
        let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
        host::run_backprojection(kernel, stack, mats, &mut vol);
        out.push((format!("{kernel}"), vol));
        let mut vol = Volume::zeros(g.nx, g.ny, g.nz);
        host::run_window_backprojection(kernel, &window, mats, &mut vol);
        out.push((format!("{kernel} (streaming)"), vol));
    }
    out
}

/// Every kernel stays finite on `mats` and agrees with the oracle.
fn assert_never_poisoned(
    g: &CbctGeometry,
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    what: &str,
) {
    let vols = all_kernels(g, stack, mats);
    let oracle = &vols[0].1;
    for (name, vol) in &vols {
        assert!(
            vol.data().iter().all(|v| v.is_finite()),
            "{name}: {what} leaked a non-finite voxel"
        );
        assert_eq!(
            oracle.data(),
            vol.data(),
            "{name} diverged from reference on the {what} scan"
        );
    }
}

/// The regression: a NaN detector `x`-row with a healthy depth row passes
/// the `z > 0` guard, so the sampling coordinate itself is NaN. An
/// integer-domain interior test floors it to index 0 and blends NaN into
/// the tile accumulator; every kernel must route it to the guarded slow
/// path and keep the volume finite — and still agree.
#[test]
fn nan_coordinate_row_never_poisons_any_kernel() {
    let g = CbctGeometry::ideal(18, 12, 28, 24);
    let stack = noisy_stack(&g, 0xBAD_C0FFEE);
    let mut mats = ProjectionMatrix::full_scan(&g);
    mats[3].rows_f32[0] = [f32::NAN; 4];
    assert_never_poisoned(&g, &stack, &mats, "NaN x-row");
}

/// Same regression with ±∞: an infinite `y`-row produces `y = ±∞`, which
/// an integer-domain guard saturates to a huge (rejected) or tiny
/// (accepted!) index depending on sign. All kernels must stay finite.
#[test]
fn infinite_coordinate_row_never_poisons_any_kernel() {
    let g = CbctGeometry::ideal(18, 12, 28, 24);
    let stack = noisy_stack(&g, 0xBAD_C0FFEE);
    for inf in [f32::INFINITY, f32::NEG_INFINITY] {
        let mut mats = ProjectionMatrix::full_scan(&g);
        mats[5].rows_f32[1] = [inf; 4];
        assert_never_poisoned(&g, &stack, &mats, &format!("{inf} y-row"));
    }
}

/// Only the `k` column of the `u` and depth rows corrupted, one value of
/// [`K_COLUMN`] per projection: `-0.0` keeps the column invariant, every
/// other value turns the hoist off for that projection, and the volume
/// must stay finite and equal to the oracle's either way.
#[test]
fn k_column_corruption_never_poisons_any_kernel() {
    let g = CbctGeometry::ideal(18, 12, 28, 24);
    let stack = noisy_stack(&g, 0xBAD_C0FFEE);
    for row in [0, 2] {
        let mut mats = ProjectionMatrix::full_scan(&g);
        for (m, &value) in mats.iter_mut().zip(&K_COLUMN) {
            m.rows_f32[row][2] = value;
        }
        assert_never_poisoned(&g, &stack, &mats, &format!("k column of row {row}"));
    }
}

/// Both SIMD backends must agree bitwise — the scalar twin executes the
/// identical operation sequence, so this holds on every machine where
/// AVX2 is detected (and is vacuously skipped elsewhere). Two cases: a
/// whole volume in-core, and a three-slice slab at a z offset streamed
/// from a partial ring whose valid rows wrap around its end.
#[test]
fn avx2_and_scalar_backends_are_bit_identical() {
    if simd_backend() != SimdBackend::Avx2 {
        eprintln!("skipping: AVX2 not detected (or disabled via SCALEFBP_SIMD)");
        return;
    }
    let g = CbctGeometry::ideal(21, 10, 30, 26);
    let stack = noisy_stack(&g, 0x51D_BEEF);
    let mats = ProjectionMatrix::full_scan(&g);
    let tuning = SimdTuning::default();
    let mut a = Volume::zeros(g.nx, g.ny, g.nz);
    let mut b = Volume::zeros(g.nx, g.ny, g.nz);
    let sa = backproject_simd_with_backend(&stack, &mats, &mut a, tuning, SimdBackend::Avx2);
    let sb = backproject_simd_with_backend(&stack, &mats, &mut b, tuning, SimdBackend::Scalar);
    assert_eq!(a.data(), b.data(), "in-core: backends diverged");
    assert_eq!(sa, sb, "in-core: kernel stats diverged");

    let h = 14;
    let mut window = TextureWindow::new(h, g.np, g.nu, 0);
    window.write_rows(stack.rows_block(0, h), 0, h);
    window.write_rows(stack.rows_block(h, h + 5), h, h + 5);
    let slab = || Volume::zeros_slab(g.nx, g.ny, 3, 9);
    let (mut oracle, mut a, mut b) = (slab(), slab(), slab());
    backproject_window(&window, &mats, &mut oracle);
    let sa =
        backproject_window_simd_with_backend(&window, &mats, &mut a, tuning, SimdBackend::Avx2);
    let sb =
        backproject_window_simd_with_backend(&window, &mats, &mut b, tuning, SimdBackend::Scalar);
    assert_eq!(a.data(), b.data(), "thin slab: backends diverged");
    assert_eq!(
        oracle.data(),
        b.data(),
        "thin slab: scalar vs the window oracle"
    );
    assert_eq!(sa.updates, sb.updates, "thin slab: updates diverged");
}

proptest! {
    // Each case runs two full (small) back-projections.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `simd` is bit-identical to `reference` for every volume
    /// width (including non-multiples of 8, which exercise the masked
    /// tail lanes), tile shape, z-slab depth, volume-slab offset and
    /// partial detector window — with matching update counts.
    #[test]
    fn simd_bit_identical_across_shapes_tiles_slabs_and_windows(
        nx in 1usize..22,
        ny in 1usize..18,
        bi in 1usize..40,
        bj in 1usize..24,
        zslab in 1usize..9,
        z_begin in 0usize..16,
        dz in 1usize..9,
        v_cut in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut g = CbctGeometry::ideal(20, 14, 32, 28);
        g.nx = nx;
        g.ny = ny;
        let stack = noisy_stack(&g, seed);
        let mats = ProjectionMatrix::full_scan(&g);

        let z0 = z_begin.min(g.nz - 1);
        let z1 = (z0 + dz).min(g.nz);
        let v0 = v_cut.min(g.nv / 4);
        let part = stack.extract_window(v0, g.nv - v0, 0, g.np);

        let tile = TileShape::new(bi, bj);
        let mut oracle = Volume::zeros_slab(g.nx, g.ny, z1 - z0, z0);
        let mut simd = oracle.clone();
        let so = backproject_reference(&part, &mats, &mut oracle);
        let ss = backproject_simd_with(
            &part,
            &mats,
            &mut simd,
            SimdTuning { tile, zslab },
        );
        prop_assert_eq!(
            oracle.data(),
            simd.data(),
            "{}×{} volume, tile {}×{}, zslab {}, slab [{}, {}), rows [{}, {})",
            nx, ny, bi, bj, zslab, z0, z1, v0, g.nv - v0
        );
        prop_assert_eq!(so, ss, "kernel stats diverged");
    }

    /// The column-invariant hoist applies only to projections whose `k`
    /// column is `±0.0` in the `u` and depth rows. Corrupting a few
    /// projections' entries with any value of [`K_COLUMN`] must leave
    /// `simd` bit-identical to the oracle, in-core on a slab at a random z
    /// offset and streaming through the ring.
    #[test]
    fn simd_bit_identical_whatever_the_k_column_holds(
        picks in proptest::collection::vec(0usize..16 * 2 * K_COLUMN.len(), 1..6),
        z_begin in 0usize..14,
        seed in any::<u64>(),
    ) {
        let g = CbctGeometry::ideal(14, 16, 24, 20);
        let stack = noisy_stack(&g, seed);
        let mut mats = ProjectionMatrix::full_scan(&g);
        for &p in &picks {
            let (s, row, value) = (p % g.np, 2 * (p / g.np % 2), K_COLUMN[p / (2 * g.np)]);
            mats[s].rows_f32[row][2] = value;
        }

        let mut oracle = Volume::zeros_slab(g.nx, g.ny, g.nz - z_begin, z_begin);
        let mut simd = oracle.clone();
        let so = backproject_reference(&stack, &mats, &mut oracle);
        let ss = backproject_simd(&stack, &mats, &mut simd);
        prop_assert_eq!(oracle.data(), simd.data(), "in-core, picks {:?}", picks);
        prop_assert_eq!(so, ss, "in-core kernel stats diverged");

        let decomp = VolumeDecomposition::full(&g, 3);
        let mut window = TextureWindow::new(decomp.max_rows(), g.np, g.nu, 0);
        for task in decomp.tasks() {
            let r = task.new_rows;
            if !r.is_empty() {
                window.write_rows(stack.rows_block(r.begin, r.end), r.begin, r.end);
            }
            let mut oracle = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
            let mut simd = oracle.clone();
            backproject_window(&window, &mats, &mut oracle);
            backproject_window_simd(&window, &mats, &mut simd);
            prop_assert_eq!(oracle.data(), simd.data(), "slab at {}, picks {:?}", task.z_begin, picks);
        }
    }

    /// The streaming (ring-buffer window) SIMD kernel reproduces
    /// `backproject_window` bit for bit across arbitrary slab batch
    /// sizes — the contract that lets the out-of-core and pipelined
    /// drivers dispatch it.
    #[test]
    fn window_simd_bit_identical_across_decompositions(
        nb in 1usize..8,
        bi in 1usize..24,
        zslab in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = CbctGeometry::ideal(15, 10, 26, 22);
        let stack = noisy_stack(&g, seed);
        let mats = ProjectionMatrix::full_scan(&g);
        let decomp = VolumeDecomposition::full(&g, nb);
        let h = decomp.max_rows();

        let run = |simd: bool| {
            let mut window = TextureWindow::new(h, g.np, g.nu, 0);
            let mut assembled = Volume::zeros(g.nx, g.ny, g.nz);
            for task in decomp.tasks() {
                let r = task.new_rows;
                if !r.is_empty() {
                    window.write_rows(stack.rows_block(r.begin, r.end), r.begin, r.end);
                }
                let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
                if simd {
                    backproject_window_simd_with(
                        &window,
                        &mats,
                        &mut slab,
                        SimdTuning { tile: TileShape::new(bi, 8), zslab },
                    );
                } else {
                    backproject_window(&window, &mats, &mut slab);
                }
                assembled.paste_slab(&slab);
            }
            assembled
        };
        let oracle = run(false);
        let simd = run(true);
        prop_assert_eq!(
            oracle.data(),
            simd.data(),
            "nb {}, tile bi {}, zslab {}",
            nb, bi, zslab
        );
    }
}
