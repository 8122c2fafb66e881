//! Iterative radix-2 decimation-in-time FFT with a reusable plan.

use crate::Complex;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT: `X[k] = Σ x[n]·e^{-2πikn/N}`.
    Forward,
    /// Inverse DFT, normalised by `1/N`.
    Inverse,
}

/// A reusable radix-2 FFT plan for a fixed power-of-two length.
///
/// The plan precomputes the bit-reversal permutation and the twiddle factors
/// so that filtering thousands of equal-length detector rows amortises the
/// trigonometric setup, mirroring how IPP/MKL plans are reused in the paper's
/// filtering thread.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation indices (swap targets with `i < rev[i]`).
    rev: Vec<u32>,
    /// Forward twiddles, one table per butterfly stage, concatenated.
    /// Stage with half-size `m` occupies `m` entries starting at `m - 1`
    /// (sizes 1 + 2 + 4 + … = n/2 … but laid out stage-major below).
    twiddles: Vec<Complex>,
    /// Offsets of each stage's twiddle table inside `twiddles`.
    stage_offsets: Vec<usize>,
}

impl FftPlan {
    /// Builds a plan for transform length `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            rev[0] = 0;
        }

        let mut twiddles = Vec::new();
        let mut stage_offsets = Vec::new();
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            stage_offsets.push(twiddles.len());
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for j in 0..half {
                twiddles.push(Complex::cis(step * j as f64));
            }
            len *= 2;
        }

        FftPlan {
            n,
            rev,
            twiddles,
            stage_offsets,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 plan (never constructible);
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bit-reversal permutation [`process`](Self::process) applies.
    #[inline(always)]
    pub(crate) fn rev(&self) -> &[u32] {
        &self.rev
    }

    /// Each butterfly stage's forward twiddles, in the order
    /// [`process`](Self::process) runs the stages: stage `s` has half-size
    /// `2^s` and that many twiddles.
    #[inline(always)]
    pub(crate) fn stages(&self) -> impl Iterator<Item = &[Complex]> {
        self.stage_offsets
            .iter()
            .enumerate()
            .map(|(s, &off)| &self.twiddles[off..off + (1 << s)])
    }

    /// In-place transform of `data` in the given `direction`.
    ///
    /// The inverse transform includes the `1/N` normalisation, so
    /// `process(Forward)` followed by `process(Inverse)` is the identity (up
    /// to rounding).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn process(&self, data: &mut [Complex], direction: Direction) {
        assert_eq!(
            data.len(),
            self.n,
            "buffer length {} does not match plan length {}",
            data.len(),
            self.n
        );
        if self.n == 1 {
            return;
        }

        // Bit-reversal permutation.
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }

        // Butterfly stages.
        let mut stage = 0usize;
        let mut len = 2usize;
        while len <= self.n {
            let half = len / 2;
            let tw = &self.twiddles[self.stage_offsets[stage]..self.stage_offsets[stage] + half];
            for base in (0..self.n).step_by(len) {
                for j in 0..half {
                    let w = match direction {
                        Direction::Forward => tw[j],
                        Direction::Inverse => tw[j].conj(),
                    };
                    let a = data[base + j];
                    let b = data[base + j + half] * w;
                    data[base + j] = a + b;
                    data[base + j + half] = a - b;
                }
            }
            len *= 2;
            stage += 1;
        }

        if direction == Direction::Inverse {
            let scale = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(scale);
            }
        }
    }

    /// Convenience: forward transform.
    pub fn forward(&self, data: &mut [Complex]) {
        self.process(data, Direction::Forward);
    }

    /// Convenience: inverse transform (normalised).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.process(data, Direction::Inverse);
    }
}

/// Naive O(n²) DFT used as the testing reference.
#[cfg(test)]
pub(crate) fn dft_reference(input: &[Complex], direction: Direction) -> Vec<Complex> {
    let n = input.len();
    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += x * Complex::cis(theta);
        }
        *o = if direction == Direction::Inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn matches_reference_dft_for_all_small_sizes() {
        for bits in 0..=8 {
            let n = 1usize << bits;
            let plan = FftPlan::new(n);
            let input = ramp(n);
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft_reference(&input, Direction::Forward);
            assert!(
                max_err(&fast, &slow) < 1e-8 * n as f64,
                "n={n} err={}",
                max_err(&fast, &slow)
            );
        }
    }

    #[test]
    fn inverse_matches_reference() {
        let n = 64;
        let plan = FftPlan::new(n);
        let input = ramp(n);
        let mut fast = input.clone();
        plan.inverse(&mut fast);
        let slow = dft_reference(&input, Direction::Inverse);
        assert!(max_err(&fast, &slow) < 1e-10);
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 1024;
        let plan = FftPlan::new(n);
        let input = ramp(n);
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert!(max_err(&data, &input) < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let plan = FftPlan::new(n);
        let mut data = vec![Complex::ZERO; n];
        data[0] = Complex::ONE;
        plan.forward(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 32;
        let plan = FftPlan::new(n);
        let mut data = vec![Complex::ONE; n];
        plan.forward(&mut data);
        assert!((data[0].re - n as f64).abs() < 1e-10);
        for z in &data[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let plan = FftPlan::new(n);
        let input = ramp(n);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = input.clone();
        plan.forward(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-7 * time_energy.max(1.0));
    }

    #[test]
    fn linearity_holds() {
        let n = 128;
        let plan = FftPlan::new(n);
        let a = ramp(n);
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.5))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut sum);
        let recombined: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &recombined) < 1e-9);
    }

    #[test]
    fn length_one_plan_is_identity() {
        let plan = FftPlan::new(1);
        let mut data = vec![Complex::new(5.0, -2.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex::new(5.0, -2.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex::new(5.0, -2.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn rejects_mismatched_buffer() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn shift_theorem() {
        // x[n-1] (circular) has spectrum X[k]·e^{-2πik/N}.
        let n = 64;
        let plan = FftPlan::new(n);
        let input = ramp(n);
        let mut shifted = vec![Complex::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = input[i];
        }
        let mut fx = input.clone();
        let mut fs = shifted.clone();
        plan.forward(&mut fx);
        plan.forward(&mut fs);
        for k in 0..n {
            let phase = Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            let expected = fx[k] * phase;
            assert!((expected - fs[k]).abs() < 1e-9);
        }
    }
}
