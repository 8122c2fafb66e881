//! The oracle kernel and its streaming form.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};

use crate::{KernelStats, TextureWindow};

/// `[x, y] = Projection(M_φ, [i, j, K])` in single precision — exactly the
/// three `float4` dot products and two divides of Listing 1, lines 12–14.
#[inline(always)]
fn project_f32(rows: &[[f32; 4]; 3], i: f32, j: f32, k: f32) -> (f32, f32, f32) {
    let dot = |r: &[f32; 4]| r[0] * i + r[1] * j + r[2] * k + r[3];
    let z = dot(&rows[2]);
    let x = dot(&rows[0]) / z;
    let y = dot(&rows[1]) / z;
    (x, y, z)
}

/// The unified depth guard: a voxel contributes only when its homogeneous
/// depth is finite and strictly in front of the source. Every kernel uses
/// this predicate, so degenerate projection matrices (NaN/±inf rows) make
/// all of them skip identically instead of some sampling NaN.
#[inline(always)]
pub(crate) fn depth_ok(z: f32) -> bool {
    z.is_finite() && z > 0.0
}

pub(crate) fn check_args(stack_np: usize, mats: &[ProjectionMatrix]) {
    assert_eq!(
        stack_np,
        mats.len(),
        "one projection matrix per held projection is required"
    );
}

/// Algorithm 1 verbatim: serial voxel-driven back-projection.
///
/// `stack` may be a partial window (its `v_offset`/`s_offset` are honoured);
/// `mats[s]` must be the matrix of the stack's local projection `s`;
/// `vol` may be a slab (its `z_offset` is the `offset_volume_z` of
/// Listing 1). Accumulates `1/z² · SubPixel(P[s], x, y)` into every voxel —
/// the FDK `Δφ·D_so²` normalisation is the caller's responsibility, as in
/// the paper's kernel.
pub fn backproject_reference(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    check_args(stack.np(), mats);
    let (nx, ny, nz) = (vol.nx(), vol.ny(), vol.nz());
    let z_offset = vol.z_offset();
    let v_offset = stack.v_offset();
    let mut updates = 0u64;
    for (s, mat) in mats.iter().enumerate() {
        for k in 0..nz {
            let kk = (k + z_offset) as f32;
            for j in 0..ny {
                for i in 0..nx {
                    let (x, y, z) = project_f32(&mat.rows_f32, i as f32, j as f32, kk);
                    if !depth_ok(z) {
                        continue;
                    }
                    let sample = stack.sub_pixel(s, x, y - v_offset as f32);
                    *vol.get_mut(i, j, k) += 1.0 / (z * z) * sample;
                    updates += 1;
                }
            }
        }
    }
    KernelStats::for_updates(updates, (nx * ny * nz) as u64, stack.len() as u64)
}

/// Listing 1 proper: the streaming kernel sampling through the
/// [`TextureWindow`] ring buffer, enabling out-of-core reconstruction.
/// `vol.z_offset()` plays `offset_volume_z`; the window's modular row lookup
/// plays `offset_proj_y` + `Z % dimZ`. Bit-identical to the other kernels
/// whenever the window covers the rows the slab samples (guaranteed by
/// `compute_ab`).
pub fn backproject_window(
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    check_args(window.np(), mats);
    let (nx, ny, nz) = (vol.nx(), vol.ny(), vol.nz());
    let z_offset = vol.z_offset();
    let slice_len = nx * ny;
    let updates = AtomicU64::new(0);
    vol.data_mut()
        .par_chunks_mut(slice_len)
        .enumerate()
        .for_each(|(k, slice)| {
            let kk = (k + z_offset) as f32;
            let mut local = 0u64;
            for j in 0..ny {
                for i in 0..nx {
                    let mut sum = 0.0f32;
                    for (s, mat) in mats.iter().enumerate() {
                        let (x, y, z) = project_f32(&mat.rows_f32, i as f32, j as f32, kk);
                        if !depth_ok(z) {
                            continue;
                        }
                        sum += 1.0 / (z * z) * window.sub_pixel(s, x, y);
                        local += 1;
                    }
                    slice[j * nx + i] += sum;
                }
            }
            updates.fetch_add(local, Ordering::Relaxed);
        });
    // Charge only rows streamed in since the previous launch: the ring
    // buffer retains most of the window across slabs, and billing the full
    // `H·N_p·N_u` every launch would double-count those residents (the
    // per-slab sum then exceeds the rows actually moved to the device).
    KernelStats::for_updates(
        updates.into_inner(),
        (nx * ny * nz) as u64,
        (window.take_unaccounted_rows() * window.np() * window.nu()) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::{compute_ab, CbctGeometry, VolumeDecomposition};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(24, 16, 40, 36)
    }

    fn random_stack(g: &CbctGeometry) -> ProjectionStack {
        let mut p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut state = 0x2545F4914F6CDD1Du64;
        for px in p.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *px = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        p
    }

    #[test]
    fn window_kernel_matches_reference_bitwise_per_slab() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let decomp = VolumeDecomposition::full(&g, 6);
        let h = decomp.max_rows();

        let mut full = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut full);

        let mut window = TextureWindow::new(h, g.np, g.nu, 0);
        let mut assembled = Volume::zeros(g.nx, g.ny, g.nz);
        for task in decomp.tasks() {
            let r = task.new_rows;
            if !r.is_empty() {
                window.write_rows(stack.rows_block(r.begin, r.end), r.begin, r.end);
            }
            let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
            backproject_window(&window, &mats, &mut slab);
            assembled.paste_slab(&slab);
        }
        assert_eq!(
            full.data(),
            assembled.data(),
            "streaming out-of-core kernel must be bit-identical"
        );
    }

    #[test]
    fn partial_projection_stacks_sum_to_full() {
        // Splitting N_p across "ranks" and accumulating the partial volumes
        // must equal the full back-projection (float order: we compare with
        // a tolerance since addition is regrouped).
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut full = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut full);

        let mut sum = Volume::zeros(g.nx, g.ny, g.nz);
        let nr = 4;
        for r in 0..nr {
            let s0 = r * g.np / nr;
            let s1 = (r + 1) * g.np / nr;
            let part = stack.extract_window(0, g.nv, s0, s1);
            let mut partial = Volume::zeros(g.nx, g.ny, g.nz);
            backproject_reference(&part, &mats[s0..s1], &mut partial);
            sum.accumulate(&partial);
        }
        let err = full.max_abs_diff(&sum);
        assert!(err < 2e-4, "partial sums differ by {err}");
    }

    #[test]
    fn row_window_stack_matches_full_stack_for_a_slab() {
        // Restricting the stack to compute_ab's rows must not change the
        // slab (validates ComputeAB against the real kernel).
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let (z0, z1) = (8, 14);
        let rows = compute_ab(&g, z0, z1);

        let mut whole = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut whole);

        let part = stack.extract_window(rows.begin, rows.end, 0, g.np);
        let mut slab = Volume::zeros_slab(g.nx, g.ny, z1 - z0, z0);
        backproject_reference(&part, &mats, &mut slab);

        for k in 0..(z1 - z0) {
            assert_eq!(slab.slice(k), whole.slice(z0 + k), "slice {}", z0 + k);
        }
    }

    #[test]
    fn zero_projections_give_zero_volume() {
        let g = geom();
        let stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut v = Volume::zeros(g.nx, g.ny, g.nz);
        let stats = backproject_reference(&stack, &mats, &mut v);
        assert!(v.data().iter().all(|&x| x == 0.0));
        // `updates` counts accumulations actually performed. For a valid
        // scan geometry every voxel sits in front of the source, so the
        // count equals the launch shape — but it is the guard-passing
        // count, not `nx·ny·nz·np` by construction (see the degenerate
        // test below for the case where they differ).
        assert_eq!(stats.updates, (g.nx * g.ny * g.nz * g.np) as u64);
        assert_eq!(stats.flops, stats.updates * crate::FLOPS_PER_UPDATE);
    }

    #[test]
    fn window_stats_charge_each_streamed_row_once() {
        // The ring buffer retains most rows across slab launches; the
        // per-launch `proj_bytes` must bill only the newly-written rows so
        // the per-slab sum equals the total streaming traffic (what the
        // reference kernel charges for the same rows), not `batches ×
        // H·N_p·N_u`.
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let decomp = VolumeDecomposition::full(&g, 6);
        let h = decomp.max_rows();

        let mut window = TextureWindow::new(h, g.np, g.nu, 0);
        let mut summed = KernelStats::default();
        let mut launches = 0u64;
        for task in decomp.tasks() {
            let r = task.new_rows;
            if !r.is_empty() {
                window.write_rows(stack.rows_block(r.begin, r.end), r.begin, r.end);
            }
            let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
            summed.merge(&backproject_window(&window, &mats, &mut slab));
            launches += 1;
        }
        let row_bytes = (g.np * g.nu * 4) as u64;
        assert_eq!(
            summed.proj_bytes,
            window.rows_written() as u64 * row_bytes,
            "per-slab proj_bytes must sum to the rows actually streamed"
        );
        // Regression guard: the old accounting billed the full window
        // height every launch, double-counting ring-buffer residents.
        assert!(launches > 1, "test needs an actual multi-slab plan");
        assert!(summed.proj_bytes < launches * (h as u64) * row_bytes);
        // Work counters match the non-streaming kernel over the same scan.
        let mut full = Volume::zeros(g.nx, g.ny, g.nz);
        let reference = backproject_reference(&stack, &mats, &mut full);
        assert_eq!(summed.updates, reference.updates);
    }

    #[test]
    fn degenerate_matrices_are_skipped_by_all_kernels() {
        // A degenerate matrix (NaN depth row) must make every kernel skip
        // its contributions identically; before the unified
        // `z.is_finite() && z > 0.0` guard, `backproject_reference`'s
        // `z <= 0.0` let NaN depths through (NaN fails every comparison)
        // and poisoned the volume.
        let g = geom();
        let stack = random_stack(&g);
        let mut mats = ProjectionMatrix::full_scan(&g);
        mats[1].rows_f32[2] = [f32::NAN; 4];
        mats[3].rows_f32[2] = [f32::INFINITY; 4];

        let healthy: Vec<ProjectionMatrix> = mats
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != 1 && *s != 3)
            .map(|(_, m)| m.clone())
            .collect();
        let healthy_stack = {
            let mut sel = ProjectionStack::zeros(g.nv, g.np - 2, g.nu);
            for v in 0..g.nv {
                let mut dst = 0;
                for s in 0..g.np {
                    if s != 1 && s != 3 {
                        sel.row_mut(v, dst).copy_from_slice(stack.row(v, s));
                        dst += 1;
                    }
                }
            }
            sel
        };

        let mut with_bad = Volume::zeros(g.nx, g.ny, g.nz);
        let stats = backproject_reference(&stack, &mats, &mut with_bad);
        let mut without = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&healthy_stack, &healthy, &mut without);
        assert!(
            with_bad.data().iter().all(|x| x.is_finite()),
            "degenerate matrices must not poison the volume"
        );
        assert_eq!(
            with_bad.data(),
            without.data(),
            "degenerate projections must contribute nothing"
        );
        // The skipped projections are visible in the work accounting.
        assert_eq!(
            stats.updates,
            (g.nx * g.ny * g.nz * (g.np - 2)) as u64,
            "guard-skipped voxels must not be counted as updates"
        );

        // The fast kernel and both streaming forms agree on the
        // degenerate input.
        let mut simd = Volume::zeros(g.nx, g.ny, g.nz);
        crate::backproject_simd(&stack, &mats, &mut simd);
        assert_eq!(with_bad.data(), simd.data());

        let mut window = TextureWindow::new(g.nv, g.np, g.nu, 0);
        window.write_rows(stack.rows_block(0, g.nv), 0, g.nv);
        let mut win = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_window(&window, &mats, &mut win);
        assert_eq!(with_bad.data(), win.data());
        let mut win_simd = Volume::zeros(g.nx, g.ny, g.nz);
        crate::backproject_window_simd(&window, &mats, &mut win_simd);
        assert_eq!(with_bad.data(), win_simd.data());
    }

    #[test]
    fn uniform_projections_give_positive_centre() {
        let g = geom();
        let mut stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        stack.data_mut().fill(1.0);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut v = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut v);
        let c = v.get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!(c > 0.0);
        // Every in-footprint voxel accumulated N_p positive weights around
        // 1/Dso²·N_p.
        let expect = g.np as f32 / (g.dso * g.dso) as f32;
        assert!((c - expect).abs() / expect < 0.2, "centre {c} vs {expect}");
    }

    #[test]
    fn kernels_accumulate_into_existing_volume() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut once = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut once);
        let mut twice = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut twice);
        backproject_reference(&stack, &mats, &mut twice);
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() <= 2.0 * a.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one projection matrix per held projection")]
    fn mismatched_matrices_panic() {
        let g = geom();
        let stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut v = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats[..g.np - 1], &mut v);
    }
}
