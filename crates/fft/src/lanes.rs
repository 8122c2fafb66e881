//! Lane-batched filtering: [`LANES`] real rows through one forward real
//! FFT, a real frequency-response multiply and the inverse.
//!
//! Each lane runs exactly the IEEE operations that
//! [`RealFftPlan::forward_into`], a per-bin `scale(response[k])` and
//! [`RealFftPlan::inverse_into`] run on one row: the same packing,
//! permutation, butterflies, twiddles, untangling and normalisation, every
//! `+`, `−` and `×` on the same operands in the same order. Rust never
//! contracts a multiply and an add into an FMA, so each lane's output is
//! bit-identical to the scalar path's, whatever vector instructions LLVM
//! picks for the `[f64; LANES]` arithmetic.
//!
//! Everything on the hot path — [`RealFftPlan::filter_lanes`], the
//! butterflies, the untangling and the lane operators — is
//! `#[inline(always)]`, so it compiles into its caller at the caller's
//! vector width. `scalefbp-filter` instantiates its group step twice, once
//! portable (a `[f64; 4]` lane op is two SSE2 halves on baseline x86-64)
//! and once under `#[target_feature(enable = "avx2")]` (one 256-bit op),
//! and picks one per call with `scalefbp_geom::simd_backend`. An
//! out-of-line call here would be compiled for the baseline and quietly
//! give the AVX2 instance back its SSE2 halves.

use std::ops::{Add, Mul, Sub};

use crate::{Complex, Direction, FftPlan, RealFftPlan};

/// Rows one [`RealFftPlan::filter_lanes`] call filters.
pub const LANES: usize = 4;

type Lane = [f64; LANES];

#[inline(always)]
fn lanes(f: impl FnMut(usize) -> f64) -> Lane {
    std::array::from_fn(f)
}

/// One complex number per lane; the operators mirror [`Complex`]'s.
#[derive(Clone, Copy, Debug, Default)]
struct LaneComplex {
    re: Lane,
    im: Lane,
}

impl LaneComplex {
    #[inline(always)]
    fn conj(self) -> Self {
        LaneComplex {
            re: self.re,
            im: lanes(|l| -self.im[l]),
        }
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        LaneComplex {
            re: lanes(|l| self.re[l] * s),
            im: lanes(|l| self.im[l] * s),
        }
    }
}

impl Add for LaneComplex {
    type Output = LaneComplex;
    #[inline(always)]
    fn add(self, rhs: LaneComplex) -> LaneComplex {
        LaneComplex {
            re: lanes(|l| self.re[l] + rhs.re[l]),
            im: lanes(|l| self.im[l] + rhs.im[l]),
        }
    }
}

impl Sub for LaneComplex {
    type Output = LaneComplex;
    #[inline(always)]
    fn sub(self, rhs: LaneComplex) -> LaneComplex {
        LaneComplex {
            re: lanes(|l| self.re[l] - rhs.re[l]),
            im: lanes(|l| self.im[l] - rhs.im[l]),
        }
    }
}

/// `lanes · w`: [`Complex`]'s product with the lanes as `self`.
impl Mul<Complex> for LaneComplex {
    type Output = LaneComplex;
    #[inline(always)]
    fn mul(self, w: Complex) -> LaneComplex {
        LaneComplex {
            re: lanes(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: lanes(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }
}

/// `w · lanes`: [`Complex`]'s product with the lanes as `rhs`.
impl Mul<LaneComplex> for Complex {
    type Output = LaneComplex;
    #[inline(always)]
    fn mul(self, z: LaneComplex) -> LaneComplex {
        LaneComplex {
            re: lanes(|l| self.re * z.re[l] - self.im * z.im[l]),
            im: lanes(|l| self.re * z.im[l] + self.im * z.re[l]),
        }
    }
}

/// One worker's buffer for [`RealFftPlan::filter_lanes`]: the `n/2`
/// packed complex samples of every lane.
#[derive(Clone, Debug)]
pub struct LaneScratch(Vec<LaneComplex>);

impl RealFftPlan {
    /// A work buffer for [`filter_lanes`](Self::filter_lanes).
    pub fn lane_scratch(&self) -> LaneScratch {
        LaneScratch(vec![LaneComplex::default(); self.scratch_len()])
    }

    /// Filters [`LANES`] real rows in place: forward transform, every bin
    /// `k` scaled by `response[k]`, inverse transform. `rows[t][l]` is
    /// sample `t` of row `l`; rows shorter than `len()` are zero-padded to
    /// it, and the first `rows.len()` filtered samples are written back.
    ///
    /// Lane `l` is bit-identical to [`forward_into`](Self::forward_into)
    /// of its zero-padded row, `spectrum[k].scale(response[k])`, then
    /// [`inverse_into`](Self::inverse_into).
    ///
    /// # Panics
    /// If `rows` is longer than `len()`, `response` is not
    /// `spectrum_len()` long, or `scratch` was made for another length.
    #[inline(always)]
    pub fn filter_lanes(&self, rows: &mut [Lane], response: &[f64], scratch: &mut LaneScratch) {
        assert!(
            rows.len() <= self.len(),
            "more samples than the transform length"
        );
        assert_eq!(
            response.len(),
            self.spectrum_len(),
            "response length mismatch"
        );
        let z = &mut scratch.0;
        assert_eq!(z.len(), self.scratch_len(), "scratch length mismatch");
        let half = self.len() / 2;

        // Pack: z[k] = x[2k] + i·x[2k+1].
        let x = |t: usize| rows.get(t).copied().unwrap_or([0.0; LANES]);
        for (k, zk) in z.iter_mut().enumerate() {
            *zk = LaneComplex {
                re: x(2 * k),
                im: x(2 * k + 1),
            };
        }
        process(&self.half_plan, z, Direction::Forward);

        // Untangle the spectrum, scale it and re-tangle it for the
        // inverse. Bins k and half−k read and write only each other, so
        // the three passes of the scalar path fuse pair by pair in place.
        let tw = &self.twiddles;
        let z0 = z[0];
        let x0 = untangle(z0, z0, tw[0]).scale(response[0]);
        let nyquist = LaneComplex {
            re: lanes(|l| z0.re[l] - z0.im[l]),
            im: [0.0; LANES],
        }
        .scale(response[half]);
        z[0] = retangle(x0, nyquist, tw[0]);
        for k in 1..=half / 2 {
            let m = half - k;
            let xk = untangle(z[k], z[m], tw[k]).scale(response[k]);
            let xm = untangle(z[m], z[k], tw[m]).scale(response[m]);
            z[k] = retangle(xk, xm, tw[k]);
            z[m] = retangle(xm, xk, tw[m]);
        }
        process(&self.half_plan, z, Direction::Inverse);

        for (pair, zk) in rows.chunks_mut(2).zip(z.iter()) {
            pair[0] = zk.re;
            if let Some(odd) = pair.get_mut(1) {
                *odd = zk.im;
            }
        }
    }
}

/// Bin `k` of the real spectrum from `Z[k]` and `Z[half−k]`, as
/// [`RealFftPlan::forward_into`] computes it.
#[inline(always)]
fn untangle(zk: LaneComplex, zm: LaneComplex, tw: Complex) -> LaneComplex {
    let zmk = zm.conj();
    let e = (zk + zmk).scale(0.5);
    let o = (zk - zmk) * Complex::new(0.0, -0.5);
    e + tw * o
}

/// `Z[k]` of the half-length spectrum from bins `k` and `half−k`, as
/// [`RealFftPlan::inverse_into`] computes it.
#[inline(always)]
fn retangle(xk: LaneComplex, xm: LaneComplex, tw: Complex) -> LaneComplex {
    let xmk = xm.conj();
    let e = (xk + xmk).scale(0.5);
    let o = tw.conj() * (xk - xmk).scale(0.5);
    e + Complex::I * o
}

/// Elements a butterfly stage sweeps at a time: 512 × 64 B = 32 KiB, so
/// the strided sweep below stays in L1.
const TILE: usize = 512;

/// [`FftPlan::process`] on every lane.
#[inline(always)]
fn process(plan: &FftPlan, data: &mut [LaneComplex], direction: Direction) {
    if plan.len() == 1 {
        return;
    }
    for (i, &j) in plan.rev().iter().enumerate() {
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // The butterflies of one stage touch disjoint pairs, so the order they
    // run in changes no bits. Twiddle-outer order keeps LLVM vectorising
    // across the lanes rather than across butterflies.
    for tw in plan.stages() {
        let half = tw.len();
        for tile in data.chunks_mut((2 * half).max(TILE)) {
            for (j, &t) in tw.iter().enumerate() {
                let w = match direction {
                    Direction::Forward => t,
                    Direction::Inverse => t.conj(),
                };
                for base in (j..tile.len()).step_by(2 * half) {
                    let a = tile[base];
                    let b = tile[base + half] * w;
                    tile[base] = a + b;
                    tile[base + half] = a - b;
                }
            }
        }
    }
    if direction == Direction::Inverse {
        let scale = 1.0 / plan.len() as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stream of samples of one kind.
    fn samples(kind: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..n)
            .map(|t| {
                let r = next();
                let unit = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match (kind, r % 16) {
                    // Plain finite samples.
                    (0, _) => unit * 3.0,
                    // Subnormals and signed zeros among ordinary values.
                    (1, 0..=3) => f64::from_bits(r >> 12) * unit.signum(),
                    (1, 4..=5) => -0.0,
                    (1, 6) => 0.0,
                    // One NaN and one infinity of each sign.
                    (2, _) if t == n / 3 => f64::NAN,
                    (2, _) if t == n / 2 => f64::INFINITY,
                    (2, _) if t == n - 1 => f64::NEG_INFINITY,
                    // Infinities only: the transform makes its own NaNs.
                    (3, _) if t % 5 == 1 => f64::INFINITY,
                    (3, _) if t % 7 == 2 => f64::NEG_INFINITY,
                    // Magnitudes that overflow inside the transform.
                    (4, 0) => 1e308 * unit.signum(),
                    // A NaN with a payload and sign of its own.
                    (4, 1) if t % 3 == 0 => f64::from_bits(0xFFF4_0000_0000_0ABC),
                    _ => unit,
                }
            })
            .collect()
    }

    /// Equal bits, or both NaN. Which NaN an operation on two NaNs
    /// returns (sign and payload) is left to codegen by Rust, so NaNs of
    /// two origins in one row — an input NaN and `∞ − ∞` — may meet in a
    /// different order in the scalar and the lane code.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The scalar path the lanes must match: forward, scale, inverse.
    fn scalar(plan: &RealFftPlan, row: &[f64], response: &[f64]) -> Vec<f64> {
        let mut padded = row.to_vec();
        padded.resize(plan.len(), 0.0);
        let mut spectrum = vec![Complex::ZERO; plan.spectrum_len()];
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        plan.forward_into(&padded, &mut spectrum, &mut scratch);
        for (z, &h) in spectrum.iter_mut().zip(response) {
            *z = z.scale(h);
        }
        let mut out = vec![0.0; plan.len()];
        plan.inverse_into(&spectrum, &mut out, &mut scratch);
        out.truncate(row.len());
        out
    }

    /// [`RealFftPlan::filter_lanes`] compiled for AVX2, as an AVX2 caller
    /// inlines it.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn filter_lanes_avx2(
        plan: &RealFftPlan,
        rows: &mut [Lane],
        response: &[f64],
        scratch: &mut LaneScratch,
    ) {
        plan.filter_lanes(rows, response, scratch);
    }

    type FilterLanes = fn(&RealFftPlan, &mut [Lane], &[f64], &mut LaneScratch);

    /// Every instantiation of `filter_lanes` this host runs, called
    /// directly: the portable one and, where the CPU has AVX2, the AVX2 one.
    fn instantiations() -> Vec<(&'static str, FilterLanes)> {
        let mut all: Vec<(&'static str, FilterLanes)> =
            vec![("portable", |p, rows, h, s| p.filter_lanes(rows, h, s))];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            all.push(("avx2", |p, rows, h, s| unsafe {
                filter_lanes_avx2(p, rows, h, s)
            }));
            return all;
        }
        eprintln!("skipping the AVX2 leg: AVX2 not detected");
        all
    }

    #[test]
    fn every_lane_is_bit_identical_to_the_scalar_path() {
        let instantiations = instantiations();
        for bits in 1..=12 {
            let n = 1usize << bits;
            let plan = RealFftPlan::new(n);
            let mut scratch = plan.lane_scratch();
            // A ramp-like response with a negative and a zero bin.
            let mut response: Vec<f64> = (0..plan.spectrum_len())
                .map(|k| (k as f64 + 0.25) / n as f64)
                .collect();
            response[plan.spectrum_len() / 2] = -1.5;
            *response.last_mut().unwrap() = 0.0;
            // Full rows, odd lengths, and rows half as long (zero-padded).
            for len in [n, n - 1, n / 2, 1] {
                for case in 0..5u64 {
                    let inputs: Vec<Vec<f64>> = (0..LANES)
                        .map(|l| samples((l + case as usize) % 5, len, case * 31 + l as u64))
                        .collect();
                    let wants: Vec<Vec<f64>> = inputs
                        .iter()
                        .map(|input| scalar(&plan, input, &response))
                        .collect();
                    for (name, filter) in &instantiations {
                        let mut rows: Vec<Lane> =
                            (0..len).map(|t| lanes(|l| inputs[l][t])).collect();
                        filter(&plan, &mut rows, &response, &mut scratch);
                        for (l, want) in wants.iter().enumerate() {
                            for (t, (row, w)) in rows.iter().zip(want).enumerate() {
                                assert!(
                                    same_bits(row[l], *w),
                                    "{name} n={n} len={len} case={case} lane={l} t={t}: \
                                     {:#x} vs {:#x}",
                                    row[l].to_bits(),
                                    w.to_bits()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more samples than the transform length")]
    fn rows_longer_than_the_plan_panic() {
        let plan = RealFftPlan::new(8);
        let response = vec![1.0; plan.spectrum_len()];
        plan.filter_lanes(&mut [[0.0; LANES]; 9], &response, &mut plan.lane_scratch());
    }
}
