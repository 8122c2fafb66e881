//! Voxel-driven FDK back-projection kernels.
//!
//! One oracle and one fast kernel, mirroring the paper (which ships a
//! single kernel validated against RTK):
//!
//! * [`backproject_reference`] — Algorithm 1 verbatim: the RTK-style serial
//!   quadruple loop with the bilinear `SubPixel` fetch and the `1/z²`
//!   geometric weight, in single precision. The ground truth every other
//!   kernel is bit-compared against.
//! * [`backproject_window`] — the oracle's streaming form, Listing 1
//!   proper: per-voxel register accumulation over the batch's projections
//!   (one volume write per voxel, Section 4.3.1), sampling through a
//!   [`TextureWindow`], the modular ring buffer over detector rows
//!   (`Z = z % dimZ` in `devPixel`) that enables streaming/out-of-core
//!   reconstruction, with the `offset_volume_z` / `offset_proj_y` offsets.
//! * [`backproject_simd`] / [`backproject_window_simd`] — the hot path:
//!   the same arithmetic in the same rounding order over L1 tiles
//!   ([`TileShape`]), with each z-column's `u`, depth and weight computed
//!   once per projection and reused along `k`, in f32x8 AVX2 lanes with a
//!   portable scalar twin that is the only path on a host without AVX2
//!   (see `docs/performance.md` and the `scalefbp-bench` binary for
//!   measurements).
//!
//! Every kernel accumulates in `f32` in ascending projection order, so
//! they produce **bit-identical** volumes (asserted in tests) — the
//! property the paper relies on when validating the streaming kernel
//! against RTK.
//!
//! Every kernel returns [`KernelStats`] (guard-passing updates, FLOPs,
//! bytes staged) so the roofline analysis of Figure 12 can be regenerated
//! without hardware counters.

mod counters;
mod kernels;
mod simd;
mod texture;

pub use counters::{KernelStats, FLOPS_PER_UPDATE};
pub use kernels::{backproject_reference, backproject_window};
pub use scalefbp_geom::{detected_cpu_features, simd_backend, SimdBackend};
pub use simd::{
    backproject_simd, backproject_simd_with, backproject_simd_with_backend,
    backproject_window_simd, backproject_window_simd_with, backproject_window_simd_with_backend,
    SimdTuning, TileShape,
};
pub use texture::TextureWindow;
