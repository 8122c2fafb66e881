//! Cone-beam CT geometry and the SC'21 decomposition mathematics.
//!
//! This crate is the foundation of the scalefbp workspace. It provides:
//!
//! * [`CbctGeometry`] — every parameter of Table 1 of the paper (source and
//!   detector distances, detector/voxel grids and pitches, the geometric
//!   correction offsets `σu`, `σv`, `σcor` of Figure 7).
//! * [`ProjectionMatrix`] — the general 3×4 projection matrix of Section 4.1,
//!   `M_φ = K · E_φ · V`, mapping voxel indices to detector pixel coordinates
//!   at sub-pixel precision, together with the perspective depth `z` used as
//!   the `1/z²` back-projection weight.
//! * [`compute_ab`] — Algorithm 2: the maximum detector-row range `a_i b_i`
//!   required to reconstruct a slab of slices, evaluated from the projection
//!   of the corner voxel at 135° and 315° (Figure 5).
//! * [`VolumeDecomposition`] — the paper's core contribution in data form:
//!   the `N_n = N_z / N_b` sub-volume slabs (Eq 3), each slab's detector-row
//!   range (Eq 4), the overlapped regions (Figure 4) and the *differential*
//!   ranges `b_i b_{i+1}` that must be newly loaded when advancing to the
//!   next slab (Eq 6–7).
//! * [`RankLayout`] — the MPI rank grouping of Section 4.4.1 (Eq 9–12):
//!   `N_ranks = N_r · N_g` ranks, groups of `N_r` ranks that split the `N_p`
//!   projection dimension, each group producing `N_s = N_z / N_g` slices in
//!   `N_c` batches.
//! * [`Volume`] / [`ProjectionStack`] — the dense containers with the layouts
//!   the paper uses: volume `[z][y][x]`, projections `[v][s][u]` (detector-row
//!   major, so a row range is one contiguous block across all projections —
//!   the property that makes the 2-D input split cheap).
//! * [`SimdBackend`] / [`simd_backend`] — the one run-time choice between
//!   the AVX2 instantiations of the back-projection kernel and the lane
//!   filter and their portable twins.
//! * `datasets` — presets for the six real-world datasets of Section 6.1 /
//!   Table 4, plus scaled-down variants for laptop-sized runs.

mod datasets;
mod decomp;
mod frame;
mod grouping;
mod matrix;
mod params;
mod projection;
mod simd;
mod volume;

pub use datasets::{DatasetPreset, DATASET_PRESETS};
pub use decomp::{
    compute_ab, compute_ab_conservative, RowRange, SubVolumeTask, VolumeDecomposition,
};
pub use frame::SourceDetectorFrame;
pub use grouping::{RankAssignment, RankLayout};
pub use matrix::{Mat3x4, Mat4x4, ProjectionMatrix, Vec4};
pub use params::{CbctGeometry, GeometryError};
pub use projection::{check_rows_len, ProjectionStack, RowSource};
pub use simd::{detected_cpu_features, simd_backend, SimdBackend};
pub use volume::Volume;

/// Full-scan angle (radians) of projection `s` out of `np`: `φ = 2π·s/N_p`.
#[inline]
pub fn projection_angle(s: usize, np: usize) -> f64 {
    2.0 * std::f64::consts::PI * s as f64 / np as f64
}
