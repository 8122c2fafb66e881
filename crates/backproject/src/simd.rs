//! The fast kernel family: L1-tiled back-projection with f32x8 lanes across
//! the contiguous `i` axis.
//!
//! [`backproject_reference`](crate::backproject_reference) walks the whole
//! volume once per projection, so every voxel is re-read `N_p` times and
//! the resident detector working set is `N_p × rows × N_u`. This module
//! restructures the same arithmetic:
//!
//! * the `(i, j)` plane is tiled into L1-sized blocks ([`TileShape`]) and
//!   `zslab` z-slices are walked per tile pass (z-major slab tiling), so
//!   one projection's detector footprint — and, streaming, the
//!   [`TextureWindow`] ring rows — is reused across the slab while
//!   cache-hot;
//! * within a tile the **projection loop is outermost**: per-voxel
//!   contributions accumulate in a zero-initialised tile buffer in
//!   ascending projection order and are added to the volume once (the
//!   register accumulation of Section 4.3.1);
//! * the `r·[i, j, k, 1]` dot products hoist the `r[·][1]·j` and
//!   `r[·][2]·k` products out of the inner `i` loop. The products are
//!   hoisted, not turned into running sums, so every f32 rounding step
//!   matches the reference dot product bit for bit;
//! * the interior of the detector takes a branch-free bilinear blend with
//!   truncate-and-adjust floors ([`fast_floor`]); boundary and non-finite
//!   coordinates take the guarded `sub_pixel` slow path;
//! * the f32 projection-matrix rows are packed into a flat dense array
//!   ([`pack_rows`]) so the inner loops do not stride through 152-byte
//!   `ProjectionMatrix` records.
//!
//! That loop nest is lowered to `core::arch` x86-64 AVX2 intrinsics behind
//! runtime feature detection ([`simd_backend`]), with a portable scalar
//! twin that executes the *identical* per-voxel operation sequence (every
//! vector op here is lane-wise IEEE: no FMA, no reassociation), so the two
//! backends are **bitwise interchangeable** and only throughput differs.
//! The scalar twin is the only path on a host without AVX2.
//!
//! Two tunings are exposed as kernels:
//!
//! * [`backproject_simd`] ([`SimdTuning::EXACT`], batch = 1) — one
//!   projection folded into the tile accumulator at a time, in ascending
//!   projection order: the addition sequence of
//!   [`backproject_window`](crate::backproject_window)'s register
//!   accumulation, hence **bit-identical** to the oracle.
//! * [`backproject_simd_batched`] ([`SimdTuning::BATCHED`], batch = 8) —
//!   accumulates `P` projections into a register-resident partial before
//!   touching the accumulator, amortising volume write traffic the way
//!   iFDK fuses projections per voxel pass. This *regroups* the per-voxel
//!   f32 sum (`acc + (c₁ + c₂ + …)` instead of `((acc + c₁) + c₂) + …`),
//!   so it carries a drift contract instead of bitwise equality: see
//!   [`crate::contracts`] (`SIMD_BATCHED_*`).
//!
//! Lane layout and masking: lanes are 8 contiguous `i` voxels; tile rows
//! are padded to a lane multiple so accumulator loads/stores never need
//! masks, while tail lanes are masked out of the *depth* predicate — they
//! are never initialised, never gathered (masked-gather lanes touch no
//! memory), never counted in [`KernelStats::updates`], and never written
//! back. Non-finite detector coordinates fail the ordered interior
//! comparisons per lane and are routed to the guarded `sub_pixel` slow
//! path.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;
use scalefbp_geom::{ProjectionMatrix, ProjectionStack, Volume};

use crate::kernels::{check_args, depth_ok};
use crate::{KernelStats, TextureWindow};

/// Truncate-and-adjust floor: `f32::floor` lowers to a libm call on the
/// baseline x86-64 target (no SSE4.1 `roundss`), which dominates the
/// per-sample cost of the straight kernels. The cast trick is bit-exact
/// with `x.floor() as isize` for every finite input.
///
/// **Non-finite inputs are not handled here**: Rust's saturating cast maps
/// `NaN as isize` to **0** — a perfectly valid index — so callers must
/// reject non-finite coordinates *before* flooring. The interior guards in
/// this crate do that with float-domain comparisons (NaN and ±∞ fail
/// every ordered comparison), which routes non-finite coordinates to the
/// guarded `sub_pixel` slow path without adding a branch for finite ones.
#[inline(always)]
pub(crate) fn fast_floor(x: f32) -> isize {
    let t = x as isize;
    t.wrapping_sub((t as f32 > x) as isize)
}

/// The `(i, j)` tile of one inner loop nest.
///
/// The defaults keep the tile's accumulator (`bi·bj` f32) plus one
/// projection's detector footprint comfortably inside a 32 KiB L1 while
/// leaving the inner `i` loop long enough to amortise the per-row setup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileShape {
    /// Tile width along `i` (the unit-stride volume axis).
    pub bi: usize,
    /// Tile height along `j`.
    pub bj: usize,
}

impl TileShape {
    /// L1-sized default tile: 64 × 8 voxels (2 KiB accumulator).
    pub const L1: TileShape = TileShape { bi: 64, bj: 8 };

    /// A tile of `bi × bj` voxels.
    ///
    /// # Panics
    /// Panics if either extent is zero.
    pub fn new(bi: usize, bj: usize) -> Self {
        assert!(bi > 0 && bj > 0, "tile extents must be positive");
        TileShape { bi, bj }
    }
}

impl Default for TileShape {
    fn default() -> Self {
        TileShape::L1
    }
}

/// Packs the kernel-facing f32 rows densely (48 B apiece, contiguous) so
/// the inner loops never stride through the full matrix records.
fn pack_rows(mats: &[ProjectionMatrix]) -> Vec<[[f32; 4]; 3]> {
    mats.iter().map(|m| m.rows_f32).collect()
}

/// Largest supported projection batch (bounds the stack-resident hoisted
/// constant arrays).
pub const MAX_SIMD_BATCH: usize = 32;

/// Which implementation backs the SIMD kernels on this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// 8-lane `core::arch` AVX2 intrinsics.
    Avx2,
    /// The portable scalar twin (identical operation sequence → identical
    /// bits).
    Scalar,
}

impl SimdBackend {
    /// Stable lowercase name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

/// Selects the backend: AVX2 when the CPU reports it, unless
/// `SCALEFBP_SIMD=scalar` forces the portable path (read per call, so CI
/// can exercise both backends in one binary).
pub fn simd_backend() -> SimdBackend {
    if std::env::var_os("SCALEFBP_SIMD").is_some_and(|v| v == "scalar") {
        return SimdBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    SimdBackend::Scalar
}

/// Runtime-detected x86 vector features relevant to the kernels, for the
/// bench JSON's `detected_features` field (empty on non-x86 targets).
pub fn detected_cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                features.push(name);
            }
        }
    }
    features
}

/// Tuning knobs of the SIMD loop nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdTuning {
    /// L1 tile of the `(i, j)` plane (clamped to the volume at entry).
    pub tile: TileShape,
    /// Projections folded per accumulator touch. `1` preserves the oracle's
    /// addition sequence exactly; larger values regroup the
    /// per-voxel sum (drift-bounded, see [`crate::contracts`]). Clamped to
    /// `1..=`[`MAX_SIMD_BATCH`].
    pub batch: usize,
    /// Z-slices walked per tile pass (z-major slab tiling); per-voxel
    /// arithmetic and order are unaffected, only reuse distance changes.
    pub zslab: usize,
}

impl SimdTuning {
    /// Bit-identical tuning: one projection per accumulator fold.
    pub const EXACT: SimdTuning = SimdTuning {
        tile: TileShape::L1,
        batch: 1,
        zslab: 4,
    };
    /// Projection-batched tuning (8 projections per voxel pass).
    pub const BATCHED: SimdTuning = SimdTuning {
        tile: TileShape::L1,
        batch: 8,
        zslab: 4,
    };
}

impl Default for SimdTuning {
    fn default() -> Self {
        SimdTuning::EXACT
    }
}

/// Detector-sampling geometry shared by the in-core and streaming kernels:
/// the in-core stack is addressed as a degenerate ring (`base = 0`,
/// `h = usize::MAX`, so `slot(v) = v`), which lets one loop nest serve
/// both without duplicating the hot path.
#[derive(Clone, Copy)]
struct SampleGeom {
    /// Subtracted from `yh/zh` before sampling (`v_offset` in-core, `0.0`
    /// streaming — `y - 0.0 = y` bitwise in round-to-nearest).
    v_shift: f32,
    /// Interior iff `0 <= x < u_max` (`= nu - 1`, exact in f32).
    u_max: f32,
    /// Interior iff `lo_v <= y < hi_v` (in-core: `[0, nv-1)`; streaming:
    /// `[v_lo, v_hi - 1)`, computed in f32 so an empty window yields an
    /// empty interval instead of a usize underflow).
    lo_v: f32,
    hi_v: f32,
    /// Ring base: the largest multiple of `h` at or below `v_lo`. With
    /// `v_hi - v_lo <= h`, `t = v - base` lies in `[0, 2h)` and
    /// `slot(v) = t - h·[t >= h]` equals `v % h` without a division.
    base: usize,
    /// Ring height (`usize::MAX` in-core).
    h: usize,
    np: usize,
    nu: usize,
}

#[inline(always)]
fn ring_slot(v: usize, base: usize, h: usize) -> usize {
    let t = v - base;
    if t >= h {
        t - h
    } else {
        t
    }
}

#[derive(Clone, Copy)]
struct ChunkArgs {
    nx: usize,
    ny: usize,
    bi: usize,
    bj: usize,
    batch: usize,
    /// Global z index of the chunk's first slice.
    k0: usize,
}

type Fallback<'a> = &'a (dyn Fn(usize, f32, f32) -> f32 + Sync);

/// The shared driver: clamps the tile, distributes `zslab`-deep chunks of
/// slices over the rayon pool and runs the chosen backend on each. Returns
/// the guard-passing update count.
fn simd_core(
    rows: &[[[f32; 4]; 3]],
    vol: &mut Volume,
    tuning: SimdTuning,
    geom: &SampleGeom,
    data: &[f32],
    backend: SimdBackend,
    fallback: Fallback<'_>,
) -> u64 {
    let (nx, ny) = (vol.nx(), vol.ny());
    let z_offset = vol.z_offset();
    let slice_len = nx * ny;
    if slice_len == 0 || vol.nz() == 0 {
        return 0;
    }
    // Clamp the tile to the volume plane: an oversized tile would size its
    // accumulator from the caller's shape rather than the volume's. Any
    // positive tile produces the same bits, so clamping is free of numerics.
    let (bi, bj) = (tuning.tile.bi.min(nx), tuning.tile.bj.min(ny));
    debug_assert!(
        bi > 0 && bj > 0 && bi <= nx && bj <= ny,
        "clamped tile {bi}×{bj} must be positive and fit the {nx}×{ny} plane"
    );
    let batch = tuning.batch.clamp(1, MAX_SIMD_BATCH);
    let zslab = tuning.zslab.max(1);
    // AVX2 gathers index with i32 lanes; a stack that large takes the
    // scalar twin instead (same bits, no wraparound).
    let vector_ok = data.len() <= i32::MAX as usize;
    let use_avx2 = matches!(backend, SimdBackend::Avx2) && vector_ok;
    let updates = AtomicU64::new(0);
    vol.data_mut()
        .par_chunks_mut(slice_len * zslab)
        .enumerate()
        .for_each(|(c, chunk)| {
            let args = ChunkArgs {
                nx,
                ny,
                bi,
                bj,
                batch,
                k0: c * zslab + z_offset,
            };
            #[cfg(target_arch = "x86_64")]
            let local = if use_avx2 {
                // Safety: `use_avx2` implies the caller-verified AVX2
                // capability (via `simd_backend`'s runtime detection) and
                // gather indices that fit i32.
                unsafe { chunk_avx2(rows, chunk, args, geom, data, fallback) }
            } else {
                chunk_scalar(rows, chunk, args, geom, data, fallback)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let local = {
                let _ = use_avx2;
                chunk_scalar(rows, chunk, args, geom, data, fallback)
            };
            updates.fetch_add(local, Ordering::Relaxed);
        });
    updates.into_inner()
}

/// The portable twin of [`chunk_avx2`]: per voxel it performs the same
/// operations in the same order (hoisted constants, one guard, truncate
/// floor, four taps, the verbatim blend tree, batch partial initialised by
/// its first contribution), so scalar and vector runs are bit-identical.
fn chunk_scalar(
    rows: &[[[f32; 4]; 3]],
    chunk: &mut [f32],
    a: ChunkArgs,
    g: &SampleGeom,
    data: &[f32],
    fallback: Fallback<'_>,
) -> u64 {
    let ChunkArgs {
        nx,
        ny,
        bi,
        bj,
        batch,
        k0,
    } = a;
    let slice_len = nx * ny;
    let kz = chunk.len() / slice_len;
    let np = rows.len();
    let mut acc = vec![0.0f32; bi * bj * kz];
    let mut local = 0u64;
    let (mut cxs, mut cys, mut czs) = (
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
    );
    let (mut bxs, mut bys, mut bzs) = (
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
    );
    let mut j0 = 0;
    while j0 < ny {
        let j1 = (j0 + bj).min(ny);
        let blen = j1 - j0;
        let mut i0 = 0;
        while i0 < nx {
            let i1 = (i0 + bi).min(nx);
            let bw = i1 - i0;
            acc[..bw * blen * kz].fill(0.0);
            let mut sb = 0;
            while sb < np {
                let se = (sb + batch).min(np);
                for k in 0..kz {
                    let kk = (k0 + k) as f32;
                    for (t, r) in rows[sb..se].iter().enumerate() {
                        cxs[t] = r[0][2] * kk;
                        cys[t] = r[1][2] * kk;
                        czs[t] = r[2][2] * kk;
                    }
                    for (tj, j) in (j0..j1).enumerate() {
                        let jj = j as f32;
                        for (t, r) in rows[sb..se].iter().enumerate() {
                            bxs[t] = r[0][1] * jj;
                            bys[t] = r[1][1] * jj;
                            bzs[t] = r[2][1] * jj;
                        }
                        let arow = &mut acc[(k * blen + tj) * bw..][..bw];
                        for (ti, i) in (i0..i1).enumerate() {
                            let ii = i as f32;
                            let mut partial = 0.0f32;
                            let mut init = false;
                            for (t, r) in rows[sb..se].iter().enumerate() {
                                let s = sb + t;
                                // Same products, same left-to-right adds as
                                // `project_f32`'s `r0·i + r1·j + r2·k + r3`.
                                let zh = ((r[2][0] * ii + bzs[t]) + czs[t]) + r[2][3];
                                if !depth_ok(zh) {
                                    continue;
                                }
                                let xh = ((r[0][0] * ii + bxs[t]) + cxs[t]) + r[0][3];
                                let yh = ((r[1][0] * ii + bys[t]) + cys[t]) + r[1][3];
                                let x = xh / zh;
                                let y = yh / zh - g.v_shift;
                                let w = 1.0 / (zh * zh);
                                // Float-domain interior guard: NaN/±∞ fail
                                // the ordered comparisons and take the
                                // guarded slow path (the fast_floor NaN
                                // escape cannot recur here).
                                let samp = if x >= 0.0 && x < g.u_max && y >= g.lo_v && y < g.hi_v {
                                    let u0 = fast_floor(x) as usize;
                                    let v0 = fast_floor(y) as usize;
                                    let eu = x - u0 as f32;
                                    let ev = y - v0 as f32;
                                    let s0 = ring_slot(v0, g.base, g.h);
                                    let s1 = ring_slot(v0 + 1, g.base, g.h);
                                    let r0 = (s0 * g.np + s) * g.nu + u0;
                                    let r1 = (s1 * g.np + s) * g.nu + u0;
                                    let t1 = data[r0] * (1.0 - eu) + data[r0 + 1] * eu;
                                    let t2 = data[r1] * (1.0 - eu) + data[r1 + 1] * eu;
                                    t1 * (1.0 - ev) + t2 * ev
                                } else {
                                    fallback(s, x, y)
                                };
                                let contrib = w * samp;
                                // First contribution *initialises* the
                                // partial — `0.0 + contrib` would flip a
                                // -0.0 contribution to +0.0 and break the
                                // batch = 1 bitwise contract.
                                partial = if init { partial + contrib } else { contrib };
                                init = true;
                                local += 1;
                            }
                            if init {
                                arow[ti] += partial;
                            }
                        }
                    }
                }
                sb = se;
            }
            for k in 0..kz {
                let slice = &mut chunk[k * slice_len..(k + 1) * slice_len];
                for (tj, j) in (j0..j1).enumerate() {
                    let arow = &acc[(k * blen + tj) * bw..][..bw];
                    for (d, &v) in slice[j * nx + i0..j * nx + i1].iter_mut().zip(arow) {
                        *d += v;
                    }
                }
            }
            i0 = i1;
        }
        j0 = j1;
    }
    local
}

/// The AVX2 lowering: 8 contiguous `i` voxels per register. Every intrinsic
/// used is lane-wise IEEE round-to-nearest (`mul`/`add`/`sub`/`div`,
/// blends, masked gathers — **no FMA**, which would fuse a rounding step),
/// so each lane reproduces [`chunk_scalar`]'s scalar arithmetic bit for
/// bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_avx2(
    rows: &[[[f32; 4]; 3]],
    chunk: &mut [f32],
    a: ChunkArgs,
    g: &SampleGeom,
    data: &[f32],
    fallback: Fallback<'_>,
) -> u64 {
    use std::arch::x86_64::*;

    let ChunkArgs {
        nx,
        ny,
        bi,
        bj,
        batch,
        k0,
    } = a;
    let slice_len = nx * ny;
    let kz = chunk.len() / slice_len;
    let np = rows.len();
    // Tile rows padded to a lane multiple: accumulator loads/stores are
    // always full-width; pad lanes are masked out of the depth predicate,
    // never initialised, and never written back.
    let pad = (bi + 7) & !7;
    let mut acc = vec![0.0f32; pad * bj * kz];
    let mut local = 0u64;

    let zero = _mm256_setzero_ps();
    let onev = _mm256_set1_ps(1.0);
    let infv = _mm256_set1_ps(f32::INFINITY);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let one_i = _mm256_set1_epi32(1);
    let u_maxv = _mm256_set1_ps(g.u_max);
    let lo_vv = _mm256_set1_ps(g.lo_v);
    let hi_vv = _mm256_set1_ps(g.hi_v);
    let v_shiftv = _mm256_set1_ps(g.v_shift);
    // `h = usize::MAX` (in-core) clamps to i32::MAX: `t > h - 1` is then
    // never true, i.e. `slot(v) = v`, matching the scalar degenerate ring.
    let h_i32 = g.h.min(i32::MAX as usize) as i32;
    let h_vec = _mm256_set1_epi32(h_i32);
    let h_m1 = _mm256_set1_epi32(h_i32 - 1);
    let base_v = _mm256_set1_epi32(g.base as i32);
    let np_v = _mm256_set1_epi32(g.np as i32);
    let nu_v = _mm256_set1_epi32(g.nu as i32);
    let ptr = data.as_ptr();
    let (mut cxs, mut cys, mut czs) = (
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
    );
    let (mut bxs, mut bys, mut bzs) = (
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
        [0.0f32; MAX_SIMD_BATCH],
    );

    let mut j0 = 0;
    while j0 < ny {
        let j1 = (j0 + bj).min(ny);
        let blen = j1 - j0;
        let mut i0 = 0;
        while i0 < nx {
            let i1 = (i0 + bi).min(nx);
            let bw = i1 - i0;
            let groups = bw.div_ceil(8);
            acc[..pad * blen * kz].fill(0.0);
            let mut sb = 0;
            while sb < np {
                let se = (sb + batch).min(np);
                for k in 0..kz {
                    let kk = (k0 + k) as f32;
                    for (t, r) in rows[sb..se].iter().enumerate() {
                        cxs[t] = r[0][2] * kk;
                        cys[t] = r[1][2] * kk;
                        czs[t] = r[2][2] * kk;
                    }
                    for (tj, j) in (j0..j1).enumerate() {
                        let jj = j as f32;
                        for (t, r) in rows[sb..se].iter().enumerate() {
                            bxs[t] = r[0][1] * jj;
                            bys[t] = r[1][1] * jj;
                            bzs[t] = r[2][1] * jj;
                        }
                        let arow = &mut acc[(k * blen + tj) * pad..][..pad];
                        for gi in 0..groups {
                            let ibase = i0 + gi * 8;
                            let lanes = (bw - gi * 8).min(8) as i32;
                            let tail = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                                _mm256_set1_epi32(lanes),
                                lane,
                            ));
                            let vii = _mm256_cvtepi32_ps(_mm256_add_epi32(
                                _mm256_set1_epi32(ibase as i32),
                                lane,
                            ));
                            let mut partial = zero;
                            let mut init = zero;
                            for (t, r) in rows[sb..se].iter().enumerate() {
                                let s = sb + t;
                                // zh = ((r20·i + bz) + cz) + r23, the exact
                                // hoisted-dot-product order of the scalar
                                // twin, broadcast per projection.
                                let zh = _mm256_add_ps(
                                    _mm256_add_ps(
                                        _mm256_add_ps(
                                            _mm256_mul_ps(_mm256_set1_ps(r[2][0]), vii),
                                            _mm256_set1_ps(bzs[t]),
                                        ),
                                        _mm256_set1_ps(czs[t]),
                                    ),
                                    _mm256_set1_ps(r[2][3]),
                                );
                                // depth_ok: 0 < zh < ∞ (NaN fails both
                                // ordered compares); tail lanes excluded.
                                let m_d = _mm256_and_ps(
                                    _mm256_and_ps(
                                        _mm256_cmp_ps::<_CMP_GT_OQ>(zh, zero),
                                        _mm256_cmp_ps::<_CMP_LT_OQ>(zh, infv),
                                    ),
                                    tail,
                                );
                                let dbits = _mm256_movemask_ps(m_d);
                                if dbits == 0 {
                                    continue;
                                }
                                local += dbits.count_ones() as u64;
                                let xh = _mm256_add_ps(
                                    _mm256_add_ps(
                                        _mm256_add_ps(
                                            _mm256_mul_ps(_mm256_set1_ps(r[0][0]), vii),
                                            _mm256_set1_ps(bxs[t]),
                                        ),
                                        _mm256_set1_ps(cxs[t]),
                                    ),
                                    _mm256_set1_ps(r[0][3]),
                                );
                                let yh = _mm256_add_ps(
                                    _mm256_add_ps(
                                        _mm256_add_ps(
                                            _mm256_mul_ps(_mm256_set1_ps(r[1][0]), vii),
                                            _mm256_set1_ps(bys[t]),
                                        ),
                                        _mm256_set1_ps(cys[t]),
                                    ),
                                    _mm256_set1_ps(r[1][3]),
                                );
                                let x = _mm256_div_ps(xh, zh);
                                let y = _mm256_sub_ps(_mm256_div_ps(yh, zh), v_shiftv);
                                let w = _mm256_div_ps(onev, _mm256_mul_ps(zh, zh));
                                // Float-domain interior mask: non-finite
                                // coordinates fail OQ compares lane-wise
                                // and divert to the guarded slow path.
                                let mi = _mm256_and_ps(
                                    _mm256_and_ps(
                                        _mm256_and_ps(
                                            _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero),
                                            _mm256_cmp_ps::<_CMP_LT_OQ>(x, u_maxv),
                                        ),
                                        _mm256_and_ps(
                                            _mm256_cmp_ps::<_CMP_GE_OQ>(y, lo_vv),
                                            _mm256_cmp_ps::<_CMP_LT_OQ>(y, hi_vv),
                                        ),
                                    ),
                                    m_d,
                                );
                                // Truncate-and-adjust floor, vectorised.
                                // Interior coordinates are >= 0 so the
                                // adjust never fires for live lanes; junk
                                // in masked lanes is discarded below.
                                let tu = _mm256_cvttps_epi32(x);
                                let iu = _mm256_add_epi32(
                                    tu,
                                    _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(
                                        _mm256_cvtepi32_ps(tu),
                                        x,
                                    )),
                                );
                                let tv = _mm256_cvttps_epi32(y);
                                let iv = _mm256_add_epi32(
                                    tv,
                                    _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(
                                        _mm256_cvtepi32_ps(tv),
                                        y,
                                    )),
                                );
                                let eu = _mm256_sub_ps(x, _mm256_cvtepi32_ps(iu));
                                let ev = _mm256_sub_ps(y, _mm256_cvtepi32_ps(iv));
                                // Ring slots for v0 and v0+1 without a
                                // division: slot = t - h·[t > h-1].
                                let t0 = _mm256_sub_epi32(iv, base_v);
                                let s0 = _mm256_sub_epi32(
                                    t0,
                                    _mm256_and_si256(_mm256_cmpgt_epi32(t0, h_m1), h_vec),
                                );
                                let t1i = _mm256_add_epi32(t0, one_i);
                                let s1 = _mm256_sub_epi32(
                                    t1i,
                                    _mm256_and_si256(_mm256_cmpgt_epi32(t1i, h_m1), h_vec),
                                );
                                let sv = _mm256_set1_epi32(s as i32);
                                let r0 = _mm256_add_epi32(
                                    _mm256_mullo_epi32(
                                        _mm256_add_epi32(_mm256_mullo_epi32(s0, np_v), sv),
                                        nu_v,
                                    ),
                                    iu,
                                );
                                let r1 = _mm256_add_epi32(
                                    _mm256_mullo_epi32(
                                        _mm256_add_epi32(_mm256_mullo_epi32(s1, np_v), sv),
                                        nu_v,
                                    ),
                                    iu,
                                );
                                // Masked gathers: lanes with a zero mask
                                // never touch memory, so junk indices in
                                // boundary/tail lanes are harmless.
                                let g00 = _mm256_mask_i32gather_ps::<4>(zero, ptr, r0, mi);
                                let g01 = _mm256_mask_i32gather_ps::<4>(
                                    zero,
                                    ptr,
                                    _mm256_add_epi32(r0, one_i),
                                    mi,
                                );
                                let g10 = _mm256_mask_i32gather_ps::<4>(zero, ptr, r1, mi);
                                let g11 = _mm256_mask_i32gather_ps::<4>(
                                    zero,
                                    ptr,
                                    _mm256_add_epi32(r1, one_i),
                                    mi,
                                );
                                // The verbatim `sub_pixel` blend tree.
                                let omeu = _mm256_sub_ps(onev, eu);
                                let t1v =
                                    _mm256_add_ps(_mm256_mul_ps(g00, omeu), _mm256_mul_ps(g01, eu));
                                let t2v =
                                    _mm256_add_ps(_mm256_mul_ps(g10, omeu), _mm256_mul_ps(g11, eu));
                                let samp = _mm256_add_ps(
                                    _mm256_mul_ps(t1v, _mm256_sub_ps(onev, ev)),
                                    _mm256_mul_ps(t2v, ev),
                                );
                                let mut contrib = _mm256_mul_ps(w, samp);
                                // Depth-passing lanes outside the interior
                                // take the guarded slow path, one lane at a
                                // time (boundary voxels only).
                                let fb = _mm256_andnot_ps(mi, m_d);
                                let fbits = _mm256_movemask_ps(fb);
                                if fbits != 0 {
                                    let mut xs = [0.0f32; 8];
                                    let mut ys = [0.0f32; 8];
                                    let mut ws = [0.0f32; 8];
                                    let mut cs = [0.0f32; 8];
                                    _mm256_storeu_ps(xs.as_mut_ptr(), x);
                                    _mm256_storeu_ps(ys.as_mut_ptr(), y);
                                    _mm256_storeu_ps(ws.as_mut_ptr(), w);
                                    _mm256_storeu_ps(cs.as_mut_ptr(), contrib);
                                    for (l, c) in cs.iter_mut().enumerate() {
                                        if fbits & (1 << l) != 0 {
                                            *c = ws[l] * fallback(s, xs[l], ys[l]);
                                        }
                                    }
                                    contrib = _mm256_loadu_ps(cs.as_ptr());
                                }
                                // Batch partial: the first contribution
                                // initialises the lane (select, not
                                // `0.0 + contrib` — that would flip -0.0
                                // and break the batch = 1 bitwise
                                // contract); dead lanes keep their state.
                                let sum = _mm256_add_ps(partial, contrib);
                                let upd = _mm256_blendv_ps(contrib, sum, init);
                                partial = _mm256_blendv_ps(partial, upd, m_d);
                                init = _mm256_or_ps(init, m_d);
                            }
                            // One accumulator touch per batch, only for
                            // initialised lanes (pad/tail lanes stay 0).
                            let av = _mm256_loadu_ps(arow.as_ptr().add(gi * 8));
                            let anew = _mm256_blendv_ps(av, _mm256_add_ps(av, partial), init);
                            _mm256_storeu_ps(arow.as_mut_ptr().add(gi * 8), anew);
                        }
                    }
                }
                sb = se;
            }
            for k in 0..kz {
                let slice = &mut chunk[k * slice_len..(k + 1) * slice_len];
                for (tj, j) in (j0..j1).enumerate() {
                    let arow = &acc[(k * blen + tj) * pad..][..bw];
                    for (d, &v) in slice[j * nx + i0..j * nx + i1].iter_mut().zip(arow) {
                        *d += v;
                    }
                }
            }
            i0 = i1;
        }
        j0 = j1;
    }
    local
}

fn incore_geom(stack: &ProjectionStack) -> SampleGeom {
    SampleGeom {
        v_shift: stack.v_offset() as f32,
        u_max: stack.nu().saturating_sub(1) as f32,
        lo_v: 0.0,
        hi_v: stack.nv().saturating_sub(1) as f32,
        base: 0,
        h: usize::MAX,
        np: stack.np(),
        nu: stack.nu(),
    }
}

fn window_geom(window: &TextureWindow) -> SampleGeom {
    let h = window.height();
    let (v_lo, v_hi) = window.valid_rows();
    SampleGeom {
        v_shift: 0.0,
        u_max: window.nu().saturating_sub(1) as f32,
        lo_v: v_lo as f32,
        hi_v: v_hi as f32 - 1.0,
        base: (v_lo / h) * h,
        h,
        np: window.np(),
        nu: window.nu(),
    }
}

/// SIMD in-core kernel, bit-identical to
/// [`backproject_reference`](crate::backproject_reference) on a zeroed
/// volume (batch = 1 keeps the exact addition sequence). Backend from
/// [`simd_backend`].
pub fn backproject_simd(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    backproject_simd_with_backend(stack, mats, vol, SimdTuning::EXACT, simd_backend())
}

/// Projection-batched SIMD in-core kernel ([`SimdTuning::BATCHED`]): drift
/// vs the oracle bounded by the `SIMD_BATCHED_*` contract in
/// [`crate::contracts`].
pub fn backproject_simd_batched(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    backproject_simd_with_backend(stack, mats, vol, SimdTuning::BATCHED, simd_backend())
}

/// [`backproject_simd`] with explicit tuning (backend still auto-detected).
pub fn backproject_simd_with(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
    tuning: SimdTuning,
) -> KernelStats {
    backproject_simd_with_backend(stack, mats, vol, tuning, simd_backend())
}

/// Fully explicit variant, used by tests and the bench harness to pin the
/// AVX2 and scalar backends against each other without racing on
/// environment variables.
pub fn backproject_simd_with_backend(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
    tuning: SimdTuning,
    backend: SimdBackend,
) -> KernelStats {
    check_args(stack.np(), mats);
    let rows = pack_rows(mats);
    let geom = incore_geom(stack);
    let voxels = (vol.nx() * vol.ny() * vol.nz()) as u64;
    let updates = simd_core(
        &rows,
        vol,
        tuning,
        &geom,
        stack.data(),
        backend,
        &|s, x, y| stack.sub_pixel(s, x, y),
    );
    KernelStats::for_updates(updates, voxels, stack.len() as u64)
}

/// SIMD streaming kernel over the [`TextureWindow`] ring, bit-identical to
/// [`backproject_window`](crate::backproject_window); same
/// newly-written-rows `proj_bytes` accounting.
pub fn backproject_window_simd(
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    backproject_window_simd_with_backend(window, mats, vol, SimdTuning::EXACT, simd_backend())
}

/// Projection-batched streaming kernel (drift-bounded like
/// [`backproject_simd_batched`]).
pub fn backproject_window_simd_batched(
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    backproject_window_simd_with_backend(window, mats, vol, SimdTuning::BATCHED, simd_backend())
}

/// [`backproject_window_simd`] with explicit tuning.
pub fn backproject_window_simd_with(
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
    tuning: SimdTuning,
) -> KernelStats {
    backproject_window_simd_with_backend(window, mats, vol, tuning, simd_backend())
}

/// Fully explicit streaming variant (see
/// [`backproject_simd_with_backend`]).
pub fn backproject_window_simd_with_backend(
    window: &TextureWindow,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
    tuning: SimdTuning,
    backend: SimdBackend,
) -> KernelStats {
    check_args(window.np(), mats);
    let rows = pack_rows(mats);
    let geom = window_geom(window);
    let voxels = (vol.nx() * vol.ny() * vol.nz()) as u64;
    let updates = simd_core(
        &rows,
        vol,
        tuning,
        &geom,
        window.data(),
        backend,
        &|s, x, y| window.sub_pixel(s, x, y),
    );
    KernelStats::for_updates(
        updates,
        voxels,
        (window.take_unaccounted_rows() * window.np() * window.nu()) as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::{
        DriftStats, DRIFT_SIGNIFICANCE, SIMD_BATCHED_REL_ABS_BOUND, SIMD_BATCHED_ULP_BOUND,
    };
    use crate::{backproject_reference, backproject_window};
    use scalefbp_geom::{CbctGeometry, VolumeDecomposition};

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(24, 16, 40, 36)
    }

    fn random_stack(g: &CbctGeometry) -> ProjectionStack {
        let mut p = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mut state = 0x2545F4914F6CDD1Du64;
        for px in p.data_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *px = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        p
    }

    #[test]
    fn simd_matches_reference_bitwise() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut a = Volume::zeros(g.nx, g.ny, g.nz);
        let mut b = Volume::zeros(g.nx, g.ny, g.nz);
        let sa = backproject_reference(&stack, &mats, &mut a);
        let sb = backproject_simd(&stack, &mats, &mut b);
        assert_eq!(a.data(), b.data(), "simd kernel must be bit-identical");
        assert_eq!(sa, sb, "stats must agree too");
    }

    #[test]
    fn scalar_backend_matches_avx2_backend_bitwise() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut sc = Volume::zeros(g.nx, g.ny, g.nz);
        let s_sc = backproject_simd_with_backend(
            &stack,
            &mats,
            &mut sc,
            SimdTuning::EXACT,
            SimdBackend::Scalar,
        );
        // Scalar twin must equal the oracle on its own…
        let mut oracle = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut oracle);
        assert_eq!(oracle.data(), sc.data(), "scalar backend vs reference");
        // …and the vector backend must equal the scalar twin when the CPU
        // has it.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut vx = Volume::zeros(g.nx, g.ny, g.nz);
            let s_vx = backproject_simd_with_backend(
                &stack,
                &mats,
                &mut vx,
                SimdTuning::EXACT,
                SimdBackend::Avx2,
            );
            assert_eq!(sc.data(), vx.data(), "avx2 vs scalar backend");
            assert_eq!(s_sc, s_vx);
        }
        let _ = s_sc;
    }

    #[test]
    fn every_tuning_shape_is_bit_identical() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut reference = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_reference(&stack, &mats, &mut reference);
        // batch = 1 must stay bitwise under any tile/zslab (including an
        // oversized tile, which entry-clamps).
        for (bi, bj, zslab) in [
            (1, 1, 1),
            (3, 5, 2),
            (24, 16, 7),
            (13, 2, 4),
            (100, 100, 99),
        ] {
            let mut b = Volume::zeros(g.nx, g.ny, g.nz);
            let tuning = SimdTuning {
                tile: TileShape::new(bi, bj),
                batch: 1,
                zslab,
            };
            backproject_simd_with(&stack, &mats, &mut b, tuning);
            assert_eq!(reference.data(), b.data(), "tile {bi}×{bj} zslab {zslab}");
        }
    }

    #[test]
    fn batched_kernel_honours_drift_contract() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut exact = Volume::zeros(g.nx, g.ny, g.nz);
        let mut batched = Volume::zeros(g.nx, g.ny, g.nz);
        let se = backproject_reference(&stack, &mats, &mut exact);
        let sb = backproject_simd_batched(&stack, &mats, &mut batched);
        assert_eq!(se.updates, sb.updates, "batching must not change coverage");
        let drift = DriftStats::measure(exact.data(), batched.data(), DRIFT_SIGNIFICANCE);
        assert!(
            drift.within(SIMD_BATCHED_ULP_BOUND, SIMD_BATCHED_REL_ABS_BOUND),
            "batched drift out of contract: {drift:?}"
        );
    }

    #[test]
    fn batch_of_one_equals_batch_of_np() {
        // A batch covering every projection still visits them in ascending
        // order; only the accumulator grouping changes.
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut one = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_simd(&stack, &mats, &mut one);
        let mut all = Volume::zeros(g.nx, g.ny, g.nz);
        let tuning = SimdTuning {
            tile: TileShape::L1,
            batch: MAX_SIMD_BATCH,
            zslab: 4,
        };
        backproject_simd_with(&stack, &mats, &mut all, tuning);
        let drift = DriftStats::measure(one.data(), all.data(), DRIFT_SIGNIFICANCE);
        assert!(
            drift.within(SIMD_BATCHED_ULP_BOUND, SIMD_BATCHED_REL_ABS_BOUND),
            "full-batch drift out of contract: {drift:?}"
        );
    }

    #[test]
    fn window_simd_matches_window_kernel_per_slab() {
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let decomp = VolumeDecomposition::full(&g, 6);
        let h = decomp.max_rows();

        let run = |simd: bool| {
            let mut window = TextureWindow::new(h, g.np, g.nu, 0);
            let mut assembled = Volume::zeros(g.nx, g.ny, g.nz);
            let mut stats = KernelStats::default();
            for task in decomp.tasks() {
                let r = task.new_rows;
                if !r.is_empty() {
                    window.write_rows(stack.rows_block(r.begin, r.end), r.begin, r.end);
                }
                let mut slab = Volume::zeros_slab(g.nx, g.ny, task.nz(), task.z_begin);
                stats.merge(&if simd {
                    backproject_window_simd(&window, &mats, &mut slab)
                } else {
                    backproject_window(&window, &mats, &mut slab)
                });
                assembled.paste_slab(&slab);
            }
            (assembled, stats)
        };
        let (oracle, oracle_stats) = run(false);
        let (simd, simd_stats) = run(true);
        assert_eq!(oracle.data(), simd.data());
        assert_eq!(oracle_stats, simd_stats);
    }

    #[test]
    fn masked_tail_lanes_count_updates_exactly() {
        // nx = 13: one full lane group + a 5-lane tail per tile row. The
        // masked tail must neither accumulate nor count.
        let g = CbctGeometry::ideal(13, 9, 20, 24);
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut oracle = Volume::zeros(g.nx, g.ny, g.nz);
        let so = backproject_reference(&stack, &mats, &mut oracle);
        let mut simd = Volume::zeros(g.nx, g.ny, g.nz);
        let ss = backproject_simd(&stack, &mats, &mut simd);
        assert_eq!(oracle.data(), simd.data());
        assert_eq!(
            so.updates, ss.updates,
            "tail lanes must not inflate updates"
        );
    }

    #[test]
    fn simd_accumulates_into_existing_volume() {
        // Each voxel's contributions are summed from zero and added to the
        // volume once, so a second launch adds exactly the first one's
        // result.
        let g = geom();
        let stack = random_stack(&g);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut once = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_simd(&stack, &mats, &mut once);
        let mut twice = once.clone();
        backproject_simd(&stack, &mats, &mut twice);
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert_eq!((a + a).to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "tile extents must be positive")]
    fn zero_tile_rejected() {
        let _ = TileShape::new(0, 4);
    }

    #[test]
    fn backend_name_and_detection_are_consistent() {
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        let features = detected_cpu_features();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert!(features.contains(&"avx2"));
        }
        // Whatever the platform, detection must agree with the backend.
        match simd_backend() {
            SimdBackend::Avx2 => assert!(features.contains(&"avx2")),
            SimdBackend::Scalar => {}
        }
    }

    #[test]
    #[should_panic(expected = "one projection matrix per held projection")]
    fn mismatched_matrices_panic() {
        let g = geom();
        let stack = ProjectionStack::zeros(g.nv, g.np, g.nu);
        let mats = ProjectionMatrix::full_scan(&g);
        let mut v = Volume::zeros(g.nx, g.ny, g.nz);
        backproject_simd(&stack, &mats[..g.np - 1], &mut v);
    }
}
