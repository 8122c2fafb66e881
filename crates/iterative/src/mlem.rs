//! MLEM — multiplicative Maximum-Likelihood Expectation-Maximisation.

use scalefbp_geom::{CbctGeometry, ProjectionStack, Volume};

use crate::{backproject_unfiltered, forward_project_volume, RayMarchConfig};

/// Forward projections at or below this floor carry no information for
/// the multiplicative update: the quotient `b/(A·x)` against a zero,
/// denormal, or borderline ray integral is numerically meaningless, so
/// such rays contribute the neutral ratio 1 instead.
pub const FP_FLOOR: f32 = 1e-6;

/// Cap on the update ratio: a measurement paired with a just-above-floor
/// forward projection may not multiply a voxel by more than this per
/// iteration, so a single corrupt ray cannot drive the iterate to Inf.
pub const RATIO_CAP: f32 = 1e6;

/// The guarded MLEM update ratio for one ray: `Some(b/fp)` when the ray
/// is informative, `None` (→ neutral ratio 1) when the forward
/// projection is zero/denormal/non-finite, the measurement is negative
/// or non-finite, or the quotient itself overflows. The `Some` value is
/// always finite, non-negative, and at most [`RATIO_CAP`].
fn guarded_ratio(b: f32, fp: f32) -> Option<f32> {
    // `fp.is_nan()` is spelled out (rather than `!(fp > FP_FLOOR)`) so a
    // NaN forward projection is still neutralised.
    if fp.is_nan() || fp <= FP_FLOOR || !fp.is_finite() || !b.is_finite() || b < 0.0 {
        return None;
    }
    let r = b / fp;
    if r.is_finite() {
        Some(r.min(RATIO_CAP))
    } else {
        None
    }
}

/// MLEM solver state:
///
/// ```text
/// x_{k+1} = x_k ⊙ Aᵀ( b ⊘ (A·x_k) ) ⊘ (Aᵀ·1)
/// ```
///
/// Starts from a uniform positive estimate; preserves non-negativity by
/// construction (the property DMLEM of Table 2 relies on).
pub struct Mlem {
    geom: CbctGeometry,
    cfg: RayMarchConfig,
    sens: Volume,
    x: Volume,
    iterations: usize,
}

impl Mlem {
    /// Prepares the solver (computes the sensitivity image `Aᵀ·1`).
    pub fn new(geom: &CbctGeometry, cfg: RayMarchConfig) -> Self {
        let mut ones_proj = ProjectionStack::zeros(geom.nv, geom.np, geom.nu);
        ones_proj.data_mut().fill(1.0);
        let mut sens = Volume::zeros(geom.nx, geom.ny, geom.nz);
        backproject_unfiltered(geom, &ones_proj, &mut sens);
        let mut x = Volume::zeros(geom.nx, geom.ny, geom.nz);
        x.data_mut().fill(1.0);
        Mlem {
            geom: geom.clone(),
            cfg,
            sens,
            x,
            iterations: 0,
        }
    }

    /// The current (non-negative) estimate.
    pub fn estimate(&self) -> &Volume {
        &self.x
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Restores solver state from a checkpointed iterate — the resume
    /// entry point of the distributed driver. The sensitivity image is a
    /// function of the geometry alone and is recomputed by [`Mlem::new`].
    pub fn restore(&mut self, x: Volume, iterations: usize) {
        assert_eq!(
            (x.nx(), x.ny(), x.nz()),
            (self.geom.nx, self.geom.ny, self.geom.nz),
            "restored volume shape mismatch"
        );
        self.x = x;
        self.iterations = iterations;
    }

    /// Turns a freshly forward-projected stack `fp = A·x` into the
    /// guarded update ratio `b ⊘ fp` in place (see `guarded_ratio` for
    /// the zero/denormal/non-finite policy) and returns the mean absolute
    /// ratio deviation over informative rays. Elementwise — the
    /// distributed driver runs it redundantly on every rank over the
    /// allgathered stack, bitwise identical to the serial path.
    pub fn ratio(&self, fp: &mut ProjectionStack, b: &ProjectionStack) -> f64 {
        assert_eq!(
            (b.nv(), b.np(), b.nu()),
            (self.geom.nv, self.geom.np, self.geom.nu),
            "sinogram shape mismatch"
        );
        let mut dev = 0.0f64;
        let mut counted = 0usize;
        for (rv, &bv) in fp.data_mut().iter_mut().zip(b.data()) {
            *rv = match guarded_ratio(bv, *rv) {
                Some(r) => {
                    dev += ((r - 1.0).abs()) as f64;
                    counted += 1;
                    r
                }
                None => 1.0, // no information on this ray
            };
        }
        if counted == 0 {
            0.0
        } else {
            dev / counted as f64
        }
    }

    /// Applies the multiplicative update `x ⊙= correction ⊘ sens` and
    /// counts the iteration. Elementwise, like [`Mlem::ratio`].
    pub fn apply_correction(&mut self, correction: &Volume) {
        assert_eq!(correction.len(), self.x.len(), "correction shape mismatch");
        for ((x, &c), &s) in self
            .x
            .data_mut()
            .iter_mut()
            .zip(correction.data())
            .zip(self.sens.data())
        {
            if s > 1e-6 {
                *x *= c / s;
            }
        }
        self.iterations += 1;
    }

    /// One MLEM iteration against the non-negative sinogram `b`; returns
    /// the mean absolute ratio deviation `|b/(Ax) − 1|` before the update.
    pub fn step(&mut self, b: &ProjectionStack) -> f64 {
        let mut ratio = forward_project_volume(&self.geom, &self.x, self.cfg);
        let dev = self.ratio(&mut ratio, b);
        let mut correction = Volume::zeros(self.geom.nx, self.geom.ny, self.geom.nz);
        backproject_unfiltered(&self.geom, &ratio, &mut correction);
        self.apply_correction(&correction);
        dev
    }

    /// Runs `n` iterations; returns the deviation history.
    pub fn run(&mut self, b: &ProjectionStack, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.step(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_phantom::{forward_project, rasterize, uniform_ball};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(20, 16, 36, 32)
    }

    #[test]
    fn estimate_stays_nonnegative_and_improves() {
        let g = geom();
        let ball = uniform_ball(&g, 0.55, 1.0);
        let b = forward_project(&g, &ball);
        let truth = rasterize(&g, &ball);
        let mut mlem = Mlem::new(&g, RayMarchConfig::default());
        let initial_err = mlem.estimate().rmse(&truth);
        let history = mlem.run(&b, 15);
        assert!(mlem.estimate().data().iter().all(|&x| x >= 0.0));
        let final_err = mlem.estimate().rmse(&truth);
        assert!(
            final_err < initial_err * 0.6,
            "rmse {initial_err} → {final_err}"
        );
        // Ratio deviation shrinks.
        assert!(history.last().unwrap() < &(history[0] * 0.7), "{history:?}");
    }

    #[test]
    fn centre_density_approaches_truth() {
        let g = geom();
        let ball = uniform_ball(&g, 0.55, 1.0);
        let b = forward_project(&g, &ball);
        let mut mlem = Mlem::new(&g, RayMarchConfig::default());
        mlem.run(&b, 20);
        let c = mlem.estimate().get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!((c - 1.0).abs() < 0.3, "centre {c}");
    }

    #[test]
    fn zero_sinogram_collapses_estimate() {
        let g = geom();
        let b = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut mlem = Mlem::new(&g, RayMarchConfig::default());
        mlem.run(&b, 2);
        // b = 0 drives every informative voxel towards zero.
        let max = mlem
            .estimate()
            .data()
            .iter()
            .cloned()
            .fold(0.0f32, f32::max);
        let centre = mlem.estimate().get(g.nx / 2, g.ny / 2, g.nz / 2);
        assert!(centre < 1e-3, "centre {centre} (max {max})");
    }
}
