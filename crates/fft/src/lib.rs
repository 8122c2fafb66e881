//! From-scratch FFT substrate for the scalefbp workspace.
//!
//! The SC'21 paper performs the FDK filtering step (a 1-D ramp-filter
//! convolution applied to every detector row) with Intel IPP on the CPU. That
//! library is not available here, so this crate provides the numerical
//! substrate it supplied:
//!
//! * [`Complex`] — minimal complex arithmetic used by the transforms.
//! * [`FftPlan`] — an iterative radix-2 decimation-in-time FFT with
//!   precomputed twiddle factors and bit-reversal permutation, reusable
//!   across rows of equal length (the usage pattern of projection filtering).
//! * [`RealFftPlan`] — a real-to-complex FFT of length `n` computed via a
//!   complex FFT of length `n/2` (the classic packing trick), which is what a
//!   production filtering pipeline uses because projection rows are real.
//! * [`RealFftPlan::filter_lanes`] — [`LANES`] real rows at once through
//!   forward transform, frequency-response multiply and inverse, one row
//!   per SIMD lane, bit-identical to running the scalar transforms per row
//!   (the batched-FFT filtering the paper gets from IPP/MKL).
//! * [`next_pow2`] — the padded transform length at which the ramp
//!   filter's circular convolution is the linear one.
//!
//! All transforms operate on `f64`; the filtering crate converts its `f32`
//! detector rows at the boundary. For the row lengths used in CT (≤ 2¹⁴) the
//! double-precision intermediate matches IPP's single-precision pipeline to
//! well below the 1e-5 acceptance threshold the paper uses.

mod complex;
mod conv;
mod lanes;
mod plan;
mod rfft;

pub use complex::Complex;
pub use conv::next_pow2;
pub use lanes::{LaneScratch, LANES};
pub use plan::{Direction, FftPlan};
pub use rfft::RealFftPlan;
