//! The FDK filtering stage (Equation 2 of the paper): cosine pre-weighting
//! followed by a windowed ramp-filter convolution along each detector row.
//!
//! The paper runs this stage on the CPU (Intel IPP) so it overlaps the GPU
//! back-projection in the end-to-end pipeline; this crate plays the same
//! role on top of the from-scratch `scalefbp-fft` substrate:
//!
//! * [`cosine_weight`] — the pre-weight `D_sd/√(D(u,v)² + D_sd²)`.
//! * [`RampKernel`] / [`FilterWindow`] — the discrete band-limited ramp of
//!   Kak & Slaney evaluated on the *virtual detector* through the rotation
//!   axis, with Ram-Lak, Shepp-Logan, cosine, Hamming and Hann windows.
//! * [`FilterPipeline`] — a reusable per-geometry plan that filters whole
//!   detector-row-major `ProjectionStack`s in place, parallelised with
//!   rayon and, where the CPU has AVX2, at its vector width (a
//!   runtime-dispatched instance with the same bits), producing rows
//!   ready for back-projection with the `Δφ·D_so²/z²` weighting.
//!
//! Normalisation convention: the pipeline folds the fan-beam/FDK `1/2`
//! full-scan redundancy factor and the `Δa` convolution step into the
//! filtered rows, so the back-projector only applies `Δφ·D_so²/z²` per
//! projection. A uniform-ball phantom then reconstructs to its true density
//! (validated in the integration tests).

mod pipeline;
mod ramp;
mod weights;

pub use pipeline::FilterPipeline;
pub use ramp::{FilterWindow, RampKernel};
pub use weights::cosine_weight;
