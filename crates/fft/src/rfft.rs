//! Real-input FFT via the length-halving packing trick.

use crate::{Complex, Direction, FftPlan};

/// Real-to-complex FFT plan of even length `n`.
///
/// Packs the real signal into a complex signal of length `n/2`, runs the
/// half-length complex FFT, then untangles the even/odd spectra. Returns the
/// non-redundant half-spectrum `X[0..=n/2]` (length `n/2 + 1`); the remaining
/// bins are the conjugate mirror. This is the transform shape the filtering
/// stage uses for every detector row.
#[derive(Clone, Debug)]
pub struct RealFftPlan {
    n: usize,
    pub(crate) half_plan: FftPlan,
    /// `e^{-πik/ (n/2)}` untangling twiddles for k in 0..n/2.
    pub(crate) twiddles: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a plan for real transform length `n`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "real FFT length must be a power of two >= 2, got {n}"
        );
        let half = n / 2;
        let twiddles = (0..half)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / half as f64))
            .collect();
        RealFftPlan {
            n,
            half_plan: FftPlan::new(half),
            twiddles,
        }
    }

    /// The real transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of spectrum bins produced by [`forward`](Self::forward):
    /// `n/2 + 1`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Length of the scratch buffer the `*_into` variants require: `n/2`.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        self.n / 2
    }

    /// Forward real FFT. `input.len()` must equal `len()`; returns the
    /// half-spectrum of length `spectrum_len()`.
    pub fn forward(&self, input: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; self.scratch_len()];
        self.forward_into(input, &mut out, &mut scratch);
        out
    }

    /// Allocation-free [`forward`](Self::forward): writes the half-spectrum
    /// into `spectrum` (length `spectrum_len()`) using `scratch` (length
    /// `scratch_len()`) for the packed half-length transform. Bit-identical
    /// to `forward` — the filtering hot loop reuses the buffers across
    /// thousands of detector rows.
    pub fn forward_into(&self, input: &[f64], spectrum: &mut [Complex], scratch: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "input length mismatch");
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "spectrum length mismatch"
        );
        assert_eq!(scratch.len(), self.scratch_len(), "scratch length mismatch");
        let half = self.n / 2;

        // Pack: z[k] = x[2k] + i·x[2k+1].
        for (k, z) in scratch.iter_mut().enumerate() {
            *z = Complex::new(input[2 * k], input[2 * k + 1]);
        }
        self.half_plan.forward(scratch);

        // Untangle even/odd spectra:
        //   E[k] = (Z[k] + conj(Z[half-k]))/2
        //   O[k] = (Z[k] - conj(Z[half-k]))/(2i)
        //   X[k] = E[k] + e^{-2πik/n}·O[k]
        for k in 0..half {
            let zk = scratch[k];
            let zmk = scratch[(half - k) % half].conj();
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk) * Complex::new(0.0, -0.5);
            spectrum[k] = e + self.twiddles[k] * o;
        }
        // X[half] = E[0] - O[0]  (the Nyquist bin).
        let z0 = scratch[0];
        spectrum[half] = Complex::from_real(z0.re - z0.im);
    }

    /// Inverse real FFT from a half-spectrum of length `spectrum_len()` back
    /// to `len()` real samples. Includes the `1/n` normalisation, so
    /// `inverse(forward(x)) == x` up to rounding.
    pub fn inverse(&self, spectrum: &[Complex]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.n];
        let mut scratch = vec![Complex::ZERO; self.scratch_len()];
        self.inverse_into(spectrum, &mut out, &mut scratch);
        out
    }

    /// Allocation-free [`inverse`](Self::inverse): writes `len()` real
    /// samples into `output` using `scratch` (length `scratch_len()`).
    /// Bit-identical to `inverse`.
    pub fn inverse_into(&self, spectrum: &[Complex], output: &mut [f64], scratch: &mut [Complex]) {
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "spectrum length mismatch"
        );
        assert_eq!(output.len(), self.n, "output length mismatch");
        assert_eq!(scratch.len(), self.scratch_len(), "scratch length mismatch");
        let half = self.n / 2;

        // Re-tangle into the half-length complex spectrum:
        //   Z[k] = E[k] + i·O[k],
        //   E[k] = (X[k] + conj(X[half-k]))/2,
        //   O[k] = e^{+2πik/n}·(X[k] - conj(X[half-k]))/2.
        for (k, zk) in scratch.iter_mut().enumerate() {
            let xk = spectrum[k];
            let xmk = spectrum[half - k].conj();
            let e = (xk + xmk).scale(0.5);
            let o = self.twiddles[k].conj() * (xk - xmk).scale(0.5);
            *zk = e + Complex::I * o;
        }
        self.half_plan.process(scratch, Direction::Inverse);

        for k in 0..half {
            output[2 * k] = scratch[k].re;
            output[2 * k + 1] = scratch[k].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dft_reference;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.173).sin() + 0.3 * (i as f64 * 0.041).cos() - 0.1)
            .collect()
    }

    #[test]
    fn forward_matches_complex_dft() {
        for bits in 1..=9 {
            let n = 1usize << bits;
            let plan = RealFftPlan::new(n);
            let x = signal(n);
            let spec = plan.forward(&x);
            let as_complex: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
            let full = dft_reference(&as_complex, Direction::Forward);
            for k in 0..=n / 2 {
                assert!(
                    (spec[k] - full[k]).abs() < 1e-8 * n as f64,
                    "n={n} k={k} got {:?} want {:?}",
                    spec[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for bits in 1..=12 {
            let n = 1usize << bits;
            let plan = RealFftPlan::new(n);
            let x = signal(n);
            let back = plan.inverse(&plan.forward(&x));
            let err = x
                .iter()
                .zip(&back)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n} err={err}");
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let n = 128;
        let plan = RealFftPlan::new(n);
        let spec = plan.forward(&signal(n));
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[n / 2].im.abs() < 1e-10);
    }

    #[test]
    fn dc_bin_is_sum_of_samples() {
        let n = 64;
        let plan = RealFftPlan::new(n);
        let x = signal(n);
        let spec = plan.forward(&x);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
    }

    #[test]
    fn pure_cosine_concentrates_in_one_bin() {
        let n = 256;
        let bin = 17;
        let plan = RealFftPlan::new(n);
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = plan.forward(&x);
        for (k, z) in spec.iter().enumerate() {
            if k == bin {
                assert!((z.re - n as f64 / 2.0).abs() < 1e-8);
            } else {
                assert!(z.abs() < 1e-8, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_length() {
        let _ = RealFftPlan::new(6);
    }

    #[test]
    fn into_variants_are_bit_identical_and_reusable() {
        let n = 512;
        let plan = RealFftPlan::new(n);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        let mut time = vec![0.0f64; n];
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        // Reuse the same buffers across several rows: later rows must not
        // see residue from earlier ones.
        for seed in 0..4 {
            let x: Vec<f64> = signal(n).iter().map(|v| v * (seed + 1) as f64).collect();
            plan.forward_into(&x, &mut spec, &mut scratch);
            let fresh = plan.forward(&x);
            for (a, b) in spec.iter().zip(&fresh) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            plan.inverse_into(&spec, &mut time, &mut scratch);
            let fresh_t = plan.inverse(&fresh);
            for (a, b) in time.iter().zip(&fresh_t) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch length mismatch")]
    fn wrong_scratch_length_panics() {
        let plan = RealFftPlan::new(64);
        let x = signal(64);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; 16];
        plan.forward_into(&x, &mut spec, &mut scratch);
    }
}
