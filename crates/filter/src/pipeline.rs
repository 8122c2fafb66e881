//! The reusable per-geometry filtering plan.

use rayon::prelude::*;
use scalefbp_fft::{LaneScratch, RealFftPlan, LANES};
use scalefbp_geom::{simd_backend, CbctGeometry, ProjectionStack, SimdBackend};

use crate::{FilterWindow, RampKernel};

/// Lane groups in one parallel chunk of [`FilterPipeline::filter_stack`]:
/// 32 projection rows, ≈ 0.2 ms at `N_u = 320`, so even a block of a few
/// detector rows splits over the threads.
const CHUNK_GROUPS: usize = 8;

/// One worker's buffers for [`FilterPipeline::filter_stack`].
struct GroupScratch {
    /// The detector row whose cosine weights `weights` holds.
    weights_v: Option<usize>,
    weights: Vec<f64>,
    /// A lane group's weighted samples: `rows[u][l]` is sample `u` of
    /// projection row `l`.
    rows: Vec<[f64; LANES]>,
    fft: LaneScratch,
}

/// A reusable filtering plan for one acquisition geometry.
///
/// Applies, to every detector row (Equation 2):
/// 1. the cosine pre-weight `D_sd/√(D(u,v)² + D_sd²)`,
/// 2. the windowed ramp convolution, carried out on the *virtual detector*
///    through the rotation axis (sample spacing `Δ_u·D_so/D_sd`), which is
///    the coordinate system in which the fan-beam inversion formula holds,
/// 3. the discretisation scale `Δa` (convolution step) and the full-scan
///    redundancy factor `1/2`.
///
/// The filtered rows are then ready for back-projection with the
/// `Δφ·D_so²/z²` weight.
#[derive(Clone, Debug)]
pub struct FilterPipeline {
    geom: CbctGeometry,
    kernel: RampKernel,
    rfft: RealFftPlan,
    /// Per-u lateral distances squared `(Δ_u(u − c_u))²`, shared by every
    /// row's weight evaluation.
    du2: Vec<f64>,
    /// Post-convolution scale: `Δa · 1/2`.
    scale: f64,
}

impl FilterPipeline {
    /// Builds the plan.
    pub fn new(geom: &CbctGeometry, window: FilterWindow) -> Self {
        // Virtual-detector sample spacing: the detector demagnified onto the
        // rotation axis.
        let tau = geom.du * geom.dso / geom.dsd;
        let kernel = RampKernel::new(geom.nu, tau, window);
        let rfft = RealFftPlan::new(kernel.padded_len());
        let cu = 0.5 * (geom.nu as f64 - 1.0) + geom.sigma_u;
        let du2 = (0..geom.nu)
            .map(|u| {
                let d = geom.du * (u as f64 - cu);
                d * d
            })
            .collect();
        let scale = tau * 0.5;
        FilterPipeline {
            geom: geom.clone(),
            kernel,
            rfft,
            du2,
            scale,
        }
    }

    /// The geometry the plan was built for.
    #[inline]
    pub fn geometry(&self) -> &CbctGeometry {
        &self.geom
    }

    /// The cosine pre-weights of detector row `v`, one per `u`.
    fn weights(&self, v: usize) -> impl Iterator<Item = f64> + '_ {
        let g = &self.geom;
        let cv = 0.5 * (g.nv as f64 - 1.0) + g.sigma_v;
        let dvv = g.dv * (v as f64 - cv);
        let dv2 = dvv * dvv;
        let dsd2 = g.dsd * g.dsd;
        self.du2
            .iter()
            .map(move |&du2| g.dsd / (du2 + dv2 + dsd2).sqrt())
    }

    /// Filters one detector row in place. `v` is the **global** detector row
    /// index (used for the cosine weight's vertical term).
    ///
    /// One row at a time through the scalar transforms: the oracle
    /// [`filter_stack`](Self::filter_stack) is tested against.
    pub fn filter_row(&self, row: &mut [f32], v: usize) {
        assert_eq!(row.len(), self.geom.nu, "row length mismatch");
        // Only the first `nu` samples are written; the zero padding
        // beyond them is never touched.
        let mut padded = vec![0.0; self.rfft.len()];
        for ((slot, &px), w) in padded.iter_mut().zip(row.iter()).zip(self.weights(v)) {
            *slot = px as f64 * w;
        }
        let mut spectrum = self.rfft.forward(&padded);
        for (z, &h) in spectrum.iter_mut().zip(self.kernel.response()) {
            *z = z.scale(h);
        }
        let filtered = self.rfft.inverse(&spectrum);
        for (px, &val) in row.iter_mut().zip(&filtered) {
            *px = (val * self.scale) as f32;
        }
    }

    /// Filters up to [`LANES`] projection rows of detector row `v`, stored
    /// back to back in `group`, in one lane transform; a short group's
    /// missing lanes are zero rows. Each row gets exactly
    /// [`filter_row`](Self::filter_row)'s operations, so its bits.
    ///
    /// The one body of both instantiations: inlined as is, it is the
    /// portable group step; inlined into
    /// [`filter_group_avx2`](Self::filter_group_avx2), together with the
    /// whole `#[inline(always)]` lane transform, it is the AVX2 one.
    #[inline(always)]
    fn filter_group(&self, group: &mut [f32], v: usize, s: &mut GroupScratch) {
        let nu = self.geom.nu;
        if s.weights_v != Some(v) {
            s.weights.clear();
            s.weights.extend(self.weights(v));
            s.weights_v = Some(v);
        }
        for (l, row) in group.chunks_exact(nu).enumerate() {
            for ((x, &px), &w) in s.rows.iter_mut().zip(row).zip(&s.weights) {
                x[l] = px as f64 * w;
            }
        }
        let filled = group.len() / nu;
        if filled < LANES {
            for x in &mut s.rows {
                x[filled..].fill(0.0);
            }
        }
        self.rfft
            .filter_lanes(&mut s.rows, self.kernel.response(), &mut s.fft);
        for (l, row) in group.chunks_exact_mut(nu).enumerate() {
            for (px, x) in row.iter_mut().zip(&s.rows) {
                *px = (x[l] * self.scale) as f32;
            }
        }
    }

    /// [`filter_group`](Self::filter_group) compiled for AVX2: every
    /// `[f64; 4]` lane op is one 256-bit instruction instead of two SSE2
    /// halves. Rust never contracts `a·b + c` into an FMA, so it runs the
    /// same IEEE operations in the same order and writes the same bits.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn filter_group_avx2(&self, group: &mut [f32], v: usize, s: &mut GroupScratch) {
        self.filter_group(group, v, s);
    }

    /// [`filter_rows`](Self::filter_rows) over a whole (possibly partial)
    /// projection stack, from its `v_offset`.
    pub fn filter_stack(&self, stack: &mut ProjectionStack) -> SimdBackend {
        assert_eq!(stack.nu(), self.geom.nu, "stack width mismatch");
        let (v_offset, np) = (stack.v_offset(), stack.np());
        self.filter_rows(stack.data_mut(), v_offset, np)
    }

    /// Filters `rows` (detector rows of `np` projections, `[v][s][u]`, from
    /// global row `v_offset`) in place, [`LANES`] projection rows of one
    /// detector row per lane transform, on the backend [`simd_backend`]
    /// picks, once per call. Returns the backend that ran. Parallel chunks
    /// are runs of a few lane groups inside one detector row, with one set
    /// of buffers (and one cached weight vector) per worker.
    pub fn filter_rows(&self, rows: &mut [f32], v_offset: usize, np: usize) -> SimdBackend {
        self.filter_rows_with_backend(rows, v_offset, np, simd_backend())
    }

    /// [`filter_rows`](Self::filter_rows) on a pinned backend; `Avx2` on
    /// a host without AVX2 runs the portable body. Both write the same
    /// bits. Returns the backend that ran.
    fn filter_rows_with_backend(
        &self,
        rows: &mut [f32],
        v_offset: usize,
        np: usize,
        backend: SimdBackend,
    ) -> SimdBackend {
        #[cfg(target_arch = "x86_64")]
        let backend = if backend == SimdBackend::Avx2 && is_x86_feature_detected!("avx2") {
            SimdBackend::Avx2
        } else {
            SimdBackend::Scalar
        };
        #[cfg(not(target_arch = "x86_64"))]
        let backend = SimdBackend::Scalar;
        let (nu, row_len) = (self.geom.nu, np * self.geom.nu);
        if rows.is_empty() {
            return backend;
        }
        assert!(row_len > 0 && rows.len() % row_len == 0, "partial rows");
        let group_len = LANES * nu;
        let chunk_len = CHUNK_GROUPS * group_len;
        let chunks_per_row = row_len.div_ceil(chunk_len);
        // `par_chunks_mut` cuts at one fixed stride; listing the chunks
        // lets each detector row end its last chunk early.
        let mut chunks: Vec<&mut [f32]> = rows
            .chunks_mut(row_len)
            .flat_map(|row| row.chunks_mut(chunk_len))
            .collect();
        chunks.par_chunks_mut(1).enumerate().for_each_init(
            || GroupScratch {
                weights_v: None,
                weights: Vec::with_capacity(nu),
                rows: vec![[0.0; LANES]; nu],
                fft: self.rfft.lane_scratch(),
            },
            |scratch, (i, chunk)| {
                let v = v_offset + i / chunks_per_row;
                for group in chunk[0].chunks_mut(group_len) {
                    match backend {
                        // SAFETY: `Avx2` survived the detection above.
                        #[cfg(target_arch = "x86_64")]
                        SimdBackend::Avx2 => unsafe { self.filter_group_avx2(group, v, scratch) },
                        _ => self.filter_group(group, v, scratch),
                    }
                }
            },
        );
        backend
    }

    /// The back-projection scale that completes the FDK normalisation when
    /// combined with the kernel's `1/z²` weight: `Δφ·D_so²`.
    pub fn backprojection_scale(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.geom.np as f64 * self.geom.dso * self.geom.dso
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(32, 16, 64, 48)
    }

    #[test]
    fn constant_rows_filter_to_near_zero() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        let mut row = vec![1.0f32; g.nu];
        f.filter_row(&mut row, g.nv / 2);
        let mid = row[g.nu / 2].abs();
        assert!(mid < 0.05, "mid residual {mid}");
    }

    #[test]
    fn filter_preserves_row_length_and_is_deterministic() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::Hann);
        let make = || -> Vec<f32> { (0..g.nu).map(|u| (u as f32 * 0.1).sin()).collect() };
        let mut a = make();
        let mut b = make();
        f.filter_row(&mut a, 3);
        f.filter_row(&mut b, 3);
        assert_eq!(a.len(), g.nu);
        assert_eq!(a, b);
    }

    #[test]
    fn filter_stack_matches_row_by_row() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::SheppLogan);
        let mut stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        for v in 0..g.nv {
            for s in 0..g.np {
                for u in 0..g.nu {
                    *stack.get_mut(v, s, u) = ((v + 2 * s + 3 * u) % 17) as f32 * 0.25;
                }
            }
        }
        let mut by_stack = stack.clone();
        f.filter_stack(&mut by_stack);
        for v in [0, g.nv / 2, g.nv - 1] {
            for s in [0, g.np - 1] {
                let mut row: Vec<f32> = stack.row(v, s).to_vec();
                f.filter_row(&mut row, v);
                assert_eq!(by_stack.row(v, s), &row[..], "v={v} s={s}");
            }
        }
    }

    /// Sample `u` of projection row `r`: plain values, with every fourth
    /// row also carrying signed zeros and subnormals, and every fifth a
    /// NaN or an infinity.
    fn hostile_sample(seed: u64, r: usize, u: usize) -> f32 {
        let h = (seed ^ ((r as u64) << 20) ^ u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        match (r % 4, r % 5, h % 8) {
            (_, 0, 0) => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(h / 8 % 3) as usize],
            (0, _, 1) => -0.0,
            (0, _, 2) => f32::from_bits(h as u32 & 0x7f_ffff) * if h & 1 == 0 { 1.0 } else { -1.0 },
            _ => (h % 4001) as f32 / 1000.0 - 2.0,
        }
    }

    /// Every instantiation of the group step this host runs, each pinned
    /// directly rather than through `SCALEFBP_SIMD` (`set_var` races the
    /// other test threads): the portable one and, with AVX2, the AVX2 one.
    fn backends() -> Vec<SimdBackend> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return vec![SimdBackend::Scalar, SimdBackend::Avx2];
        }
        eprintln!("skipping the AVX2 leg: AVX2 not detected");
        vec![SimdBackend::Scalar]
    }

    /// `filter_stack` runs, and reports, the backend `simd_backend` picks:
    /// on an AVX2 host that is the AVX2 group step.
    #[test]
    fn filter_stack_runs_the_backend_simd_backend_picks() {
        if simd_backend() != SimdBackend::Avx2 {
            eprintln!("skipping: AVX2 not detected (or disabled via SCALEFBP_SIMD)");
            return;
        }
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        let mut stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        assert_eq!(f.filter_stack(&mut stack), SimdBackend::Avx2);
        assert_eq!(
            f.filter_stack(&mut ProjectionStack::zeros(0, g.np, g.nu)),
            SimdBackend::Avx2,
            "an empty stack reports the backend too"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lane path writes `filter_row`'s bits into every row, for
        /// every remainder of `N_p` mod [`LANES`] (zero lanes pad the last
        /// group), odd and one-sample rows, a stack that starts below
        /// detector row 0, and every window, on every instantiation of the
        /// group step the host runs. NaNs compare as NaN: which NaN an
        /// operation on two NaNs returns is up to codegen.
        #[test]
        fn filter_stack_is_filter_row_bit_for_bit(
            nu in proptest::sample::select(&[1usize, 2, 3, 8, 13, 24, 31]),
            groups in 0usize..3,
            nv in 1usize..4,
            v_offset in 0usize..5,
            seed in any::<u64>(),
        ) {
            let windows = [
                FilterWindow::RamLak,
                FilterWindow::SheppLogan,
                FilterWindow::Cosine,
                FilterWindow::Hamming,
                FilterWindow::Hann,
            ];
            for (w, window) in windows.into_iter().enumerate() {
                for np in (groups * LANES..(groups + 1) * LANES).filter(|&np| np > 0) {
                    let g = CbctGeometry::ideal(8, np, nu, v_offset + nv + w);
                    let f = FilterPipeline::new(&g, window);
                    let mut stack = ProjectionStack::zeros_window(nv, np, nu, v_offset + w, 0);
                    for (i, px) in stack.data_mut().iter_mut().enumerate() {
                        *px = hostile_sample(seed, i / nu, i % nu);
                    }
                    for &backend in &backends() {
                        let mut by_stack = stack.clone();
                        let ran = f.filter_rows_with_backend(by_stack.data_mut(), v_offset + w, np, backend);
                        prop_assert_eq!(ran, backend);
                        for v in 0..nv {
                            for s in 0..np {
                                let mut row = stack.row(v, s).to_vec();
                                f.filter_row(&mut row, v + v_offset + w);
                                for (u, (a, b)) in by_stack.row(v, s).iter().zip(&row).enumerate() {
                                    prop_assert!(
                                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                                        "{backend:?} {window:?} np={np} v={v} s={s} u={u}: {a} vs {b}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The slice form on either backend writes `filter_stack`'s bits: the
    /// ring's slots are filtered exactly as a block of the stack was.
    #[test]
    fn filter_rows_is_filter_stack_bit_for_bit() {
        let g = CbctGeometry::ideal(8, 13, 24, 12);
        let f = FilterPipeline::new(&g, FilterWindow::Hamming);
        let mut stack = ProjectionStack::zeros_window(5, g.np, g.nu, 4, 0);
        for (i, px) in stack.data_mut().iter_mut().enumerate() {
            *px = hostile_sample(7, i / g.nu, i % g.nu);
        }
        let mut by_stack = stack.clone();
        f.filter_stack(&mut by_stack);
        for backend in backends() {
            let mut rows = stack.data().to_vec();
            assert_eq!(
                f.filter_rows_with_backend(&mut rows, 4, g.np, backend),
                backend
            );
            for (i, (a, b)) in rows.iter().zip(by_stack.data()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{backend:?} value {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn partial_stack_uses_global_row_for_weighting() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        let mut full = ProjectionStack::zeros(g.nv, g.np, g.nu);
        for px in full.data_mut().iter_mut().enumerate() {
            *px.1 = ((px.0 * 31 % 101) as f32) * 0.01;
        }
        let mut window = full.extract_window(10, 20, 0, g.np);
        let mut full_f = full.clone();
        f.filter_stack(&mut full_f);
        f.filter_stack(&mut window);
        for v in 0..10 {
            for s in [0, 7] {
                assert_eq!(window.row(v, s), full_f.row(v + 10, s), "v={v} s={s}");
            }
        }
    }

    /// A stack with `np == 0` has a zero row stride, which
    /// `par_chunks_mut` rejects with a panic — it must never get there.
    #[test]
    fn empty_stack_is_a_no_op() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        f.filter_stack(&mut ProjectionStack::zeros(g.nv, 0, g.nu));
        f.filter_stack(&mut ProjectionStack::zeros(0, g.np, g.nu));
    }

    #[test]
    fn hann_window_attenuates_more_than_ramlak() {
        let g = geom();
        let ram = FilterPipeline::new(&g, FilterWindow::RamLak);
        let hann = FilterPipeline::new(&g, FilterWindow::Hann);
        // An alternating (Nyquist) row: Hann must suppress it far more.
        let make = || -> Vec<f32> {
            (0..g.nu)
                .map(|u| if u % 2 == 0 { 1.0 } else { -1.0 })
                .collect()
        };
        let mut a = make();
        let mut b = make();
        ram.filter_row(&mut a, g.nv / 2);
        hann.filter_row(&mut b, g.nv / 2);
        let energy = |r: &[f32]| -> f32 { r.iter().map(|x| x * x).sum() };
        assert!(
            energy(&b) < energy(&a) * 0.05,
            "{} vs {}",
            energy(&b),
            energy(&a)
        );
    }

    #[test]
    fn backprojection_scale_formula() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        let expect = 2.0 * std::f64::consts::PI / g.np as f64 * g.dso * g.dso;
        assert!((f.backprojection_scale() - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn wrong_row_length_panics() {
        let g = geom();
        let f = FilterPipeline::new(&g, FilterWindow::RamLak);
        let mut row = vec![0.0f32; g.nu + 1];
        f.filter_row(&mut row, 0);
    }
}
