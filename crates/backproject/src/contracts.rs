//! Numerical drift contract for the one kernel that is **not** bitwise.
//!
//! The bit-identical family (`reference` / `window` / `simd`) needs no
//! tolerance: equality is asserted on raw bytes. `simd-batched` folds
//! per-voxel partial sums over `P`-projection batches into the accumulator
//! once per batch, which reassociates f32 additions and therefore drifts.
//!
//! This module pins that drift: a measured bound with margin, asserted by
//! tests *and* by the bench harness before a non-bitwise number is
//! reported, and surfaced in `BENCH_backproject.json` so
//! `"bit_identical_to_reference": false` is a documented contract rather
//! than an unbounded shrug.
//!
//! Raw ULP distance explodes under cancellation (voxels whose accumulated
//! value lands near zero have tiny ULPs), so the contract is two-sided:
//! voxels whose reference magnitude is at least [`DRIFT_SIGNIFICANCE`] of
//! the volume's peak magnitude must sit within the ULP bound, and *every*
//! voxel must sit within the absolute bound (scaled by the peak).

/// Relative magnitude (vs the reference volume's peak `|v|`) above which a
/// voxel participates in the ULP comparison. Below it, cancellation makes
/// ULP distance meaningless and the absolute bound governs instead.
pub const DRIFT_SIGNIFICANCE: f32 = 0.1;

/// `simd-batched` vs the bitwise family: max f32 ULP distance over
/// significant voxels. Batching regroups the per-voxel sum into
/// `ceil(N_p/P)` register partials — a pure summation reassociation whose
/// error does **not** grow with volume size, only (slowly) with `N_p`.
/// Measured ≤ 11 across the test geometries and phantom types; pinned at
/// 128 for margin.
pub const SIMD_BATCHED_ULP_BOUND: u64 = 128;

/// `simd-batched` vs the bitwise family: max `|Δ| / peak|reference|` over
/// all voxels (governs the insignificant, cancellation-prone ones).
/// Measured ≤ 3e-7.
pub const SIMD_BATCHED_REL_ABS_BOUND: f32 = 1e-5;

/// f32 ULP distance via the ordered-integer mapping (monotone over the
/// reals, −0.0 and +0.0 identified). Non-finite inputs are `u64::MAX`
/// unless bitwise equal: drift contracts never excuse a NaN.
pub fn ulp_diff(a: f32, b: f32) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if !a.is_finite() || !b.is_finite() {
        return u64::MAX;
    }
    let key = |x: f32| -> i64 {
        let i = x.to_bits() as i32;
        if i < 0 {
            i32::MIN as i64 - i as i64
        } else {
            i as i64
        }
    };
    key(a).abs_diff(key(b))
}

/// Drift of a reassociated volume against a bitwise-family reference.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DriftStats {
    /// Max ULP distance over voxels with `|ref| >= significance · peak`.
    pub max_ulp_significant: u64,
    /// Max `|Δ|` over all voxels.
    pub max_abs: f32,
    /// Peak `|v|` of the reference volume (the scale `max_abs` is read
    /// against).
    pub peak: f32,
    /// Root-mean-square deviation over all voxels.
    pub rmse: f32,
    /// Voxels that entered the ULP comparison.
    pub significant: u64,
}

impl DriftStats {
    /// Measures `drifted` against `reference` (equal lengths required).
    pub fn measure(reference: &[f32], drifted: &[f32], significance: f32) -> Self {
        assert_eq!(reference.len(), drifted.len(), "volume shapes must match");
        let peak = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let floor = significance * peak;
        let mut out = DriftStats {
            peak,
            ..DriftStats::default()
        };
        let mut sq = 0.0f64;
        for (&r, &d) in reference.iter().zip(drifted) {
            let delta = (r - d).abs();
            out.max_abs = out.max_abs.max(delta);
            sq += (r as f64 - d as f64).powi(2);
            if r.abs() >= floor && peak > 0.0 {
                out.significant += 1;
                out.max_ulp_significant = out.max_ulp_significant.max(ulp_diff(r, d));
            }
        }
        if !reference.is_empty() {
            out.rmse = (sq / reference.len() as f64).sqrt() as f32;
        }
        out
    }

    /// `max_abs` relative to the reference peak (0 when the reference is
    /// identically zero and the drifted volume matched it).
    pub fn rel_abs(&self) -> f32 {
        if self.peak > 0.0 {
            self.max_abs / self.peak
        } else if self.max_abs > 0.0 {
            f32::INFINITY
        } else {
            0.0
        }
    }

    /// `rmse` relative to the reference peak (same zero-reference
    /// convention as [`rel_abs`](Self::rel_abs)).
    pub fn rel_rmse(&self) -> f32 {
        if self.peak > 0.0 {
            self.rmse / self.peak
        } else if self.rmse > 0.0 {
            f32::INFINITY
        } else {
            0.0
        }
    }

    /// True when the drift satisfies `(ulp_bound, rel_abs_bound)`.
    pub fn within(&self, ulp_bound: u64, rel_abs_bound: f32) -> bool {
        self.max_ulp_significant <= ulp_bound && self.rel_abs() <= rel_abs_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        // Distance is symmetric and monotone across zero.
        let a = f32::from_bits(3); // tiny positive subnormal
        let b = -f32::from_bits(2); // tiny negative subnormal
        assert_eq!(ulp_diff(a, b), ulp_diff(b, a));
        assert_eq!(ulp_diff(a, b), 5);
        assert_eq!(ulp_diff(f32::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_diff(f32::INFINITY, 1.0), u64::MAX);
        let nan = f32::NAN;
        assert_eq!(ulp_diff(nan, nan), 0, "bitwise-equal NaN is distance 0");
    }

    #[test]
    fn drift_stats_measures_peak_and_masks_insignificant() {
        let reference = [100.0f32, 1e-6, -50.0, 0.0];
        let one_ulp = f32::from_bits(100.0f32.to_bits() + 1);
        let drifted = [one_ulp, 2e-6, -50.0, 0.0];
        let d = DriftStats::measure(&reference, &drifted, 1e-3);
        assert_eq!(d.peak, 100.0);
        // 1e-6 is below the 0.1 significance floor: its huge ULP distance
        // must not enter the significant max.
        assert_eq!(d.significant, 2);
        assert_eq!(d.max_ulp_significant, 1);
        assert!(d.rel_abs() < 1e-7);
        assert!(d.within(4, 1e-6));
        assert!(!d.within(0, 1e-6));
    }

    #[test]
    fn drift_stats_zero_reference() {
        let d = DriftStats::measure(&[0.0; 4], &[0.0; 4], 1e-3);
        assert_eq!(d.rel_abs(), 0.0);
        assert!(d.within(0, 0.0));
        let d = DriftStats::measure(&[0.0; 4], &[0.0, 1.0, 0.0, 0.0], 1e-3);
        assert_eq!(d.rel_abs(), f32::INFINITY);
        assert!(!d.within(u64::MAX - 1, f32::MAX));
    }

    #[test]
    fn nan_in_drifted_volume_never_passes() {
        let d = DriftStats::measure(&[1.0, 2.0], &[1.0, f32::NAN], 1e-3);
        assert_eq!(d.max_ulp_significant, u64::MAX);
        assert!(!d.within(1 << 40, f32::MAX));
    }
}
