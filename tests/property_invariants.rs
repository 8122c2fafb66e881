//! Property-based tests (proptest) on the core invariants of the
//! decomposition, the transforms and the kernels.

use proptest::prelude::*;
use scalefbp_backproject::{backproject_reference, backproject_simd, TextureWindow};
use scalefbp_fft::{Complex, FftPlan, RealFftPlan};
use scalefbp_geom::{
    compute_ab, projection_angle, CbctGeometry, ProjectionMatrix, ProjectionStack, RowRange,
    Volume, VolumeDecomposition,
};
use scalefbp_mpisim::World;

fn small_geometry(n: usize, np: usize, nv: usize) -> CbctGeometry {
    CbctGeometry::ideal(n, np, nv + 8, nv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fft_roundtrip_is_identity(
        bits in 1usize..10,
        seed in any::<u64>(),
    ) {
        let n = 1usize << bits;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let input: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let plan = FftPlan::new(n);
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        for (a, b) in input.iter().zip(&data) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn real_fft_parseval(bits in 2usize..12, seed in any::<u64>()) {
        let n = 1usize << bits;
        let mut state = seed | 1;
        let x: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        }).collect();
        let plan = RealFftPlan::new(n);
        let spec = plan.forward(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        // Half-spectrum Parseval: DC and Nyquist once, others twice.
        let mut freq_energy = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        for z in &spec[1..n / 2] {
            freq_energy += 2.0 * z.norm_sqr();
        }
        freq_energy /= n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn row_range_difference_partitions(
        a0 in 0usize..100, al in 0usize..50,
        b0 in 0usize..100, bl in 0usize..50,
    ) {
        let a = RowRange::new(a0, a0 + al);
        let b = RowRange::new(b0, b0 + bl);
        let inter = a.intersect(&b);
        let diff = a.difference(&b);
        // difference ∪ intersection == a, all disjoint.
        let total: usize = diff.iter().map(RowRange::len).sum::<usize>() + inter.len();
        prop_assert_eq!(total, a.len());
        for d in &diff {
            prop_assert!(d.intersect(&b).is_empty());
            prop_assert!(d.intersect(&a).len() == d.len());
        }
    }

    #[test]
    fn decomposition_partitions_slices_and_streams_contiguously(
        nz_sel in 1usize..5,
        nb in 1usize..20,
    ) {
        let nz = [16, 24, 32, 48, 64][nz_sel - 1];
        let mut g = small_geometry(16, 12, 24);
        g.nz = nz;
        let d = VolumeDecomposition::full(&g, nb.min(nz));
        // Slices covered exactly once.
        let mut covered = 0usize;
        for t in d.tasks() {
            prop_assert_eq!(t.z_begin, covered);
            covered = t.z_end;
        }
        prop_assert_eq!(covered, nz);
        // Differential ranges are disjoint and sum to ≤ nv + guard slack.
        let total: usize = d.tasks().iter().map(|t| t.new_rows.len()).sum();
        prop_assert!(total <= g.nv + 2 * d.num_subvolumes());
        // new_rows of consecutive tasks never overlap the previous range.
        for w in d.tasks().windows(2) {
            prop_assert!(w[1].new_rows.intersect(&w[0].rows).is_empty());
        }
    }

    #[test]
    fn compute_ab_bounds_every_projected_voxel(
        z0 in 0usize..56,
        len in 1usize..8,
        sigma_v in -3.0f64..3.0,
    ) {
        let mut g = small_geometry(24, 16, 48);
        g.nz = 64;
        g.sigma_v = sigma_v;
        let z1 = (z0 + len).min(g.nz);
        let rows = compute_ab(&g, z0, z1);
        // Sample angles and boundary voxels; every f64 projection must fall
        // inside [begin, end-1] (the kernel's bilinear reach).
        for s in 0..g.np {
            let m = ProjectionMatrix::new(&g, projection_angle(s, g.np));
            for &k in &[z0, z1 - 1] {
                for i in [0, g.nx - 1] {
                    for j in [0, g.ny - 1] {
                        let (_, y, _) = m.project(i as f64, j as f64, k as f64);
                        if y >= 0.0 && y < g.nv as f64 {
                            prop_assert!(
                                y >= rows.begin as f64 - 1e-9 && y <= rows.end as f64,
                                "slab [{}, {}): y={} outside rows [{}, {})",
                                z0, z1, y, rows.begin, rows.end
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn container_decoders_never_panic_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Corrupt/random input must produce Err, never a panic.
        use scalefbp_iosim::format::{decode_projections, decode_volume, geometry_from_text};
        let _ = decode_volume(&data);
        let _ = decode_projections(&data);
        let _ = geometry_from_text(&String::from_utf8_lossy(&data));
    }

    #[test]
    fn truncated_valid_containers_are_rejected_not_panicking(
        cut_frac in 0.0f64..1.0,
    ) {
        use scalefbp_iosim::format::{decode_volume, encode_volume};
        let mut v = Volume::zeros(4, 3, 2);
        for (i, x) in v.data_mut().iter_mut().enumerate() {
            *x = i as f32;
        }
        let full = encode_volume(&v);
        let cut = (full.len() as f64 * cut_frac) as usize;
        let truncated = &full[..cut];
        if cut == full.len() {
            prop_assert!(decode_volume(truncated).is_ok());
        } else {
            prop_assert!(decode_volume(truncated).is_err());
        }
    }

    #[test]
    fn all_to_all_exchange_delivers_every_payload(
        p in 2usize..7,
        seed in any::<u64>(),
    ) {
        // Every rank sends a distinct tagged payload to every other rank;
        // selective receive must deliver all of them regardless of
        // interleaving.
        let results = World::run(p, move |mut comm| {
            let me = comm.rank();
            for to in 0..p {
                if to != me {
                    let payload = vec![(seed as u8) ^ (me as u8), to as u8, me as u8];
                    comm.send(to, 100 + me as u64, payload);
                }
            }
            // Receive in *reverse* rank order to force reordering through
            // the pending buffer.
            let mut got = Vec::new();
            for from in (0..p).rev() {
                if from != me {
                    got.push((from, comm.recv(from, 100 + from as u64)));
                }
            }
            got
        });
        for (me, got) in results.iter().enumerate() {
            prop_assert_eq!(got.len(), p - 1);
            for (from, payload) in got {
                prop_assert_eq!(payload.len(), 3);
                prop_assert_eq!(payload[0], (seed as u8) ^ (*from as u8));
                prop_assert_eq!(payload[1], me as u8);
                prop_assert_eq!(payload[2], *from as u8);
            }
        }
    }

    #[test]
    fn reduce_equals_serial_sum(
        p in 1usize..9,
        len in 1usize..60,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let data: Vec<Vec<f32>> = (0..p)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(99991);
                        ((state >> 40) as f32 / (1u64 << 23) as f32) - 0.5
                    })
                    .collect()
            })
            .collect();
        let data_ref = &data;
        let results = World::run(p, move |mut comm| {
            let mut buf = data_ref[comm.rank()].clone();
            comm.reduce_sum_f32(0, &mut buf);
            buf
        });
        for i in 0..len {
            let serial: f32 = data.iter().map(|row| row[i]).sum();
            // Tree order may differ from serial order: small tolerance.
            prop_assert!((results[0][i] - serial).abs() < 1e-4);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parker_weights_partition_unity(
        beta_frac in 0.0f64..1.0,
        gamma_frac in -0.95f64..0.95,
        delta in 0.05f64..0.5,
    ) {
        use scalefbp::shortscan::parker_weight;
        let gamma = gamma_frac * delta;
        let beta = beta_frac * (std::f64::consts::PI + 2.0 * delta);
        let w = parker_weight(beta, gamma, delta);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&w), "w={w}");
        // Complementary ray: if it lies inside the arc, weights sum to 1.
        let comp = beta + std::f64::consts::PI - 2.0 * gamma;
        if comp <= std::f64::consts::PI + 2.0 * delta {
            let sum = w + parker_weight(comp, -gamma, delta);
            prop_assert!((sum - 1.0).abs() < 1e-9, "β={beta} γ={gamma} δ={delta}: {sum}");
        }
    }

    #[test]
    fn geometry_text_roundtrips(
        dso in 10.0f64..1000.0,
        mag in 1.1f64..20.0,
        np in 8usize..4096,
        nu in 8usize..4096,
        sigma_u in -50.0f64..50.0,
        sigma_cor in -2.0f64..2.0,
    ) {
        use scalefbp_iosim::format::{geometry_from_text, geometry_to_text};
        let g = CbctGeometry {
            dso,
            dsd: dso * mag,
            np,
            nu,
            nv: nu / 2 + 4,
            du: 0.127,
            dv: 0.127,
            nx: 64,
            ny: 64,
            nz: 64,
            dx: 0.05,
            dy: 0.05,
            dz: 0.05,
            sigma_u,
            sigma_v: -sigma_u / 3.0,
            sigma_cor,
        };
        let back = geometry_from_text(&geometry_to_text(&g)).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn stitching_reproduces_wide_rows(
        narrow_frac in 0.55f64..0.95,
        seed in any::<u64>(),
    ) {
        use scalefbp_phantom::stitch_offset_scans;
        // Identical half-scans reproduce the wide row exactly outside the
        // blend, and the blend stays between the two inputs.
        let wide = CbctGeometry::ideal(8, 4, 40, 12);
        let narrow = ((wide.nu as f64 * narrow_frac) as usize).max(wide.nu / 2 + 1).min(wide.nu - 1);
        let mut state = seed | 1;
        let mut left = ProjectionStack::zeros(wide.nv, wide.np, narrow);
        let mut right = ProjectionStack::zeros(wide.nv, wide.np, narrow);
        for (l, r) in left.data_mut().iter_mut().zip(right.data_mut()) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            *l = ((state >> 40) as f32 / (1u64 << 23) as f32) - 0.5;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            *r = ((state >> 40) as f32 / (1u64 << 23) as f32) - 0.5;
        }
        let stitched = stitch_offset_scans(&wide, &left, &right);
        let right_start = wide.nu - narrow;
        for v in 0..wide.nv {
            for s in 0..wide.np {
                let row = stitched.row(v, s);
                for (u, &px) in row.iter().enumerate() {
                    if u < right_start {
                        prop_assert_eq!(px, left.get(v, s, u));
                    } else if u >= narrow {
                        prop_assert_eq!(px, right.get(v, s, u - right_start));
                    } else {
                        let lo = left.get(v, s, u).min(right.get(v, s, u - right_start));
                        let hi = left.get(v, s, u).max(right.get(v, s, u - right_start));
                        prop_assert!(px >= lo - 1e-6 && px <= hi + 1e-6);
                    }
                }
            }
        }
    }
}

proptest! {
    // The kernel equivalence property is the expensive one: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kernels_agree_on_random_projections(seed in any::<u64>()) {
        let g = small_geometry(12, 8, 20);
        let mut stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut state = seed | 1;
        for px in stack.data_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(12345);
            *px = ((state >> 40) as f32 / (1u64 << 23) as f32) - 0.5;
        }
        let mats = ProjectionMatrix::full_scan(&g);
        let mut a = Volume::zeros(g.nx, g.ny, g.nz);
        let mut b = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut a);
        backproject_simd(&stack, &mats, &mut b);
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn window_streaming_is_lossless(seed in any::<u64>(), h in 4usize..12) {
        // Stream random rows through a ring of height h (ascending);
        // any row still in the valid window reads back exactly.
        let (nv, np, nu) = (24usize, 3usize, 5usize);
        let mut stack = ProjectionStack::zeros(nv, np, nu);
        let mut state = seed | 1;
        for px in stack.data_mut() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            *px = (state >> 35) as f32;
        }
        let mut w = TextureWindow::new(h, np, nu, 0);
        let mut v = 0usize;
        while v < nv {
            let step = 1 + (state as usize + v) % h.min(nv - v);
            w.write_rows(stack.rows_block(v, v + step), v, v + step);
            v += step;
            let (lo, hi) = w.valid_rows();
            prop_assert!(hi - lo <= h);
            prop_assert_eq!(hi, v);
            for row in lo..hi {
                for s in 0..np {
                    for u in 0..nu {
                        prop_assert_eq!(
                            w.pixel(s, u as isize, row as isize),
                            stack.get(row, s, u)
                        );
                    }
                }
            }
        }
    }
}
