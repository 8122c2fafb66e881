//! The reusable per-geometry filtering plan.

use rayon::prelude::*;
use scalefbp_fft::{Complex, RealFftPlan};
use scalefbp_geom::{CbctGeometry, ProjectionStack};

use crate::{FilterWindow, RampKernel};

/// The buffers one row's filtering needs; one set per worker.
struct RowScratch {
    /// The weighted row, zero-padded to the transform length.
    padded: Vec<f64>,
    spectrum: Vec<Complex>,
    /// The half-length complex transform's work buffer.
    fft: Vec<Complex>,
    filtered: Vec<f64>,
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

    /// Filters one detector row in place. `v` is the **global** detector row
    /// index (used for the cosine weight's vertical term).
    pub fn filter_row(&self, row: &mut [f32], v: usize) {
        self.filter_row_into(row, v, &mut self.scratch());
    }

    /// Fresh buffers for [`filter_row_into`](Self::filter_row_into).
    fn scratch(&self) -> RowScratch {
        let n = self.rfft.len();
        RowScratch {
            padded: vec![0.0; n],
            spectrum: vec![Complex::ZERO; self.rfft.spectrum_len()],
            fft: vec![Complex::ZERO; self.rfft.scratch_len()],
            filtered: vec![0.0; n],
        }
    }

    /// [`filter_row`](Self::filter_row) through reusable buffers: the
    /// same operations in the same order, so the same bits.
    fn filter_row_into(&self, row: &mut [f32], v: usize, s: &mut RowScratch) {
        assert_eq!(row.len(), self.geom.nu, "row length mismatch");
        let g = &self.geom;
        let cv = 0.5 * (g.nv as f64 - 1.0) + g.sigma_v;
        let dvv = g.dv * (v as f64 - cv);
        let dv2 = dvv * dvv;
        let dsd2 = g.dsd * g.dsd;

        // Only the first `nu` samples are written; the zero padding
        // beyond them is never touched.
        for (u, (&px, slot)) in row.iter().zip(s.padded.iter_mut()).enumerate() {
            let w = g.dsd / (self.du2[u] + dv2 + dsd2).sqrt();
            *slot = px as f64 * w;
        }

        self.rfft
            .forward_into(&s.padded, &mut s.spectrum, &mut s.fft);
        for (z, &h) in s.spectrum.iter_mut().zip(self.kernel.response()) {
            *z = z.scale(h);
        }
        self.rfft
            .inverse_into(&s.spectrum, &mut s.filtered, &mut s.fft);
        for (px, &val) in row.iter_mut().zip(&s.filtered) {
            *px = (val * self.scale) as f32;
        }
    }

    /// Filters a whole (possibly partial) projection stack in place,
    /// parallelised over detector rows with one set of row buffers per
    /// worker. Respects the stack's `v_offset` so partial stacks weight
    /// with their global row index. A stack with no rows or no projections
    /// is left untouched.
    pub fn filter_stack(&self, stack: &mut ProjectionStack) {
        assert_eq!(stack.nu(), self.geom.nu, "stack width mismatch");
        let np = stack.np();
        let nu = stack.nu();
        if stack.data().is_empty() {
            return;
        }
        let v_offset = stack.v_offset();
        let row_stride = np * nu;
        stack
            .data_mut()
            .par_chunks_mut(row_stride)
            .enumerate()
            .for_each_init(
                || self.scratch(),
                |scratch, (v_local, block)| {
                    let v = v_offset + v_local;
                    for row in block.chunks_exact_mut(nu) {
                        self.filter_row_into(row, v, scratch);
                    }
                },
            );
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
