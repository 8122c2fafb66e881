//! The fast kernel: L1-tiled back-projection with f32x8 lanes across the
//! contiguous `i` axis, reusing each z-column's invariants along `k`.
//!
//! [`backproject_reference`](crate::backproject_reference) walks the whole
//! volume once per projection, so every voxel is re-read `N_p` times and
//! every projection is re-done from scratch per voxel. This module
//! restructures the same arithmetic:
//!
//! * the volume is cut into **bands** of `bj` rows over the call's whole
//!   `k` range — the parallel chunks, disjoint, so the bits never depend on
//!   the thread count — and each band is walked in `bi`-wide [`TileShape`]
//!   tiles and `zslab`-deep `k` blocks, so one projection's detector
//!   footprint (and, streaming, the [`TextureWindow`] ring rows) is reused
//!   across the block while cache-hot;
//! * within a tile the **projection loop is outermost**: per-voxel
//!   contributions accumulate in a zero-initialised tile buffer in
//!   ascending projection order and are added to the volume once (the
//!   register accumulation of Section 4.3.1);
//! * **column invariants.** On a circular orbit the `k` column of the
//!   matrix rows for `u` (row 0) and depth (row 2) is exactly `±0.0`, so
//!   `r[0][2]·k` and `r[2][2]·k` have the same bits for every `k ≥ 0`.
//!   The depth `zh`, `x = xh/zh`, the weight `1/zh²`, the depth and
//!   u-interior masks and the u-taps (`u0`, `eu`, `1 − eu`) are then
//!   constant along a z-column: they are computed once per (projection,
//!   `j`, 8-lane `i` group) and reused for every `k` of the block. Per
//!   voxel only `yh = (r10·i + r11·j + r12·k) + r13`, `y = yh/zh`, the `v`
//!   floor, the ring slot, the four taps and the blend remain. A
//!   projection whose `k` column is not zero in both rows (a tilted, NaN
//!   or ±∞ matrix) takes the same nest with the invariants recomputed for
//!   every `k` (a run of length 1);
//! * every sum is evaluated in `project_f32`'s order and every division
//!   stays a division, so each f32 rounding step matches the reference
//!   bit for bit;
//! * the interior of the detector takes a branch-free bilinear blend with
//!   truncate-and-adjust floors ([`fast_floor`]); boundary and non-finite
//!   coordinates take the guarded `sub_pixel` slow path.
//!
//! That loop nest is lowered to `core::arch` x86-64 AVX2 intrinsics behind
//! runtime feature detection ([`simd_backend`]), with a portable scalar
//! twin that executes the *identical* per-voxel operation sequence (every
//! vector op here is lane-wise IEEE: no FMA, no reassociation), so the two
//! backends are **bitwise interchangeable** and only throughput differs.
//! The scalar twin is the only path on a host without AVX2.
//!
//! Lane layout and masking: lanes are 8 contiguous `i` voxels; the tile
//! accumulator holds whole lane groups so its loads/stores never need
//! masks, while tail lanes are masked out of the *depth* predicate — they
//! are never gathered (masked-gather lanes touch no memory), never counted
//! in [`KernelStats::updates`], and never written back. Non-finite
//! detector coordinates fail the ordered interior comparisons per lane and
//! are routed to the guarded `sub_pixel` slow path.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;
use scalefbp_geom::{simd_backend, ProjectionMatrix, ProjectionStack, SimdBackend, Volume};

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

/// The `(i, j)` tile of one inner loop nest; `bj` is also the height of a
/// parallel band.
///
/// The defaults keep the tile's accumulator (`bi·bj·zslab` f32) plus one
/// projection's detector footprint comfortably inside a 32 KiB L1 while
/// leaving the inner loops long enough to amortise the per-column setup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileShape {
    /// Tile width along `i` (the unit-stride volume axis).
    pub bi: usize,
    /// Tile height along `j`.
    pub bj: usize,
}

impl TileShape {
    /// L1-sized default tile: 64 × 4 voxels (a 16 KiB accumulator at the
    /// default `zslab`).
    pub const L1: TileShape = TileShape { bi: 64, bj: 4 };

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

/// Tuning knobs of the SIMD loop nest. Any positive values give the same
/// bits; only reuse distance and parallel grain change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdTuning {
    /// L1 tile of the `(i, j)` plane; `bj` rows are one parallel band.
    /// Each extent is clamped to `1..=` the volume's at entry.
    pub tile: TileShape,
    /// `k` slices per accumulator block: the run a column's invariants are
    /// reused over. Clamped to `1..=nz`.
    pub zslab: usize,
}

impl Default for SimdTuning {
    fn default() -> Self {
        SimdTuning {
            tile: TileShape::L1,
            zslab: 16,
        }
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

/// True when the projection's `u` and depth rows ignore `k` (their `k`
/// entries are `±0.0`), so `r·k` has the same bits for every `k ≥ 0` and a
/// z-column's invariants can be computed once. `NaN` compares unequal.
#[inline(always)]
fn column_invariant(r: &[[f32; 4]; 3]) -> bool {
    r[0][2] == 0.0 && r[2][2] == 0.0
}

/// One accumulator block: `bw × blen` voxels at `(i0, j0)`, `kz` slices
/// from global z index `k0`. The accumulator holds `groups = ⌈bw/8⌉` lane
/// groups per row, `k`-innermost: voxel `(i0 + 8g + l, j0 + tj, k0 + k)`
/// is `acc[((tj·groups + g)·kz + k)·8 + l]`.
#[derive(Clone, Copy)]
struct Tile {
    i0: usize,
    bw: usize,
    j0: usize,
    blen: usize,
    k0: usize,
    kz: usize,
}

impl Tile {
    fn groups(&self) -> usize {
        self.bw.div_ceil(8)
    }
}

type Fallback<'a> = &'a (dyn Fn(usize, f32, f32) -> f32 + Sync);

/// The shared driver: clamps the tuning, cuts the volume into `bj`-row
/// bands over every slice and runs the chosen backend on each band's
/// tiles, distributing bands over the rayon pool. Returns the
/// guard-passing update count.
fn simd_core(
    rows: &[[[f32; 4]; 3]],
    vol: &mut Volume,
    tuning: SimdTuning,
    geom: &SampleGeom,
    data: &[f32],
    backend: SimdBackend,
    fallback: Fallback<'_>,
) -> u64 {
    let (nx, ny, nz) = (vol.nx(), vol.ny(), vol.nz());
    let z_offset = vol.z_offset();
    if nx == 0 || ny == 0 || nz == 0 {
        return 0;
    }
    // Clamp every extent to 1..=the volume's: the fields are `pub`, so a
    // zero extent can skip `TileShape::new`'s assert, and an oversized one
    // would size the accumulator from the caller's shape. Any positive
    // tuning produces the same bits.
    let bi = tuning.tile.bi.clamp(1, nx);
    let bj = tuning.tile.bj.clamp(1, ny);
    let zslab = tuning.zslab.clamp(1, nz);
    // AVX2 gathers index with i32 lanes; a stack that large takes the
    // scalar twin instead (same bits, no wraparound). So does a caller
    // that pins `SimdBackend::Avx2` on a host without it.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = backend == SimdBackend::Avx2
        && is_x86_feature_detected!("avx2")
        && data.len() <= i32::MAX as usize;
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;

    // Band `b` owns rows `[b·bj, (b+1)·bj)` of every slice: one `&mut`
    // row block per slice, so bands are disjoint and the parallel split
    // cannot change a bit.
    let mut bands: Vec<Vec<&mut [f32]>> = (0..ny.div_ceil(bj))
        .map(|_| Vec::with_capacity(nz))
        .collect();
    for slice in vol.data_mut().chunks_mut(nx * ny) {
        for (band, block) in bands.iter_mut().zip(slice.chunks_mut(nx * bj)) {
            band.push(block);
        }
    }
    let acc_len = bj * bi.div_ceil(8) * 8 * zslab;
    let updates = AtomicU64::new(0);
    bands.par_chunks_mut(1).enumerate().for_each_init(
        || vec![0.0f32; acc_len],
        |acc, (b, band)| {
            let band = &mut band[0];
            let blen = band[0].len() / nx;
            let mut local = 0u64;
            for (kb, block) in band.chunks_mut(zslab).enumerate() {
                for i0 in (0..nx).step_by(bi) {
                    let t = Tile {
                        i0,
                        bw: bi.min(nx - i0),
                        j0: b * bj,
                        blen,
                        k0: z_offset + kb * zslab,
                        kz: block.len(),
                    };
                    let acc = &mut acc[..t.blen * t.groups() * t.kz * 8];
                    acc.fill(0.0);
                    #[cfg(target_arch = "x86_64")]
                    let n = if use_avx2 {
                        // SAFETY: `use_avx2` checked the AVX2 capability
                        // and that every index into `data` fits i32; `acc`
                        // holds the tile's whole lane groups.
                        unsafe { tile_avx2(rows, acc, t, geom, data, fallback) }
                    } else {
                        tile_scalar(rows, acc, t, geom, data, fallback)
                    };
                    #[cfg(not(target_arch = "x86_64"))]
                    let n = tile_scalar(rows, acc, t, geom, data, fallback);
                    local += n;
                    flush(block, acc, t, nx);
                }
            }
            updates.fetch_add(local, Ordering::Relaxed);
        },
    );
    updates.into_inner()
}

/// Adds a finished tile accumulator to the volume rows it covers: one add
/// per voxel, so the order between voxels is free.
fn flush(block: &mut [&mut [f32]], acc: &[f32], t: Tile, nx: usize) {
    let groups = t.groups();
    for (k, slice_rows) in block.iter_mut().enumerate() {
        for tj in 0..t.blen {
            let row = &mut slice_rows[tj * nx + t.i0..][..t.bw];
            for (g, dst) in row.chunks_mut(8).enumerate() {
                let src = &acc[((tj * groups + g) * t.kz + k) * 8..][..dst.len()];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
    }
}

/// The portable twin of [`tile_avx2`]: per voxel it performs the same
/// operations in the same order (the same column invariants, one guard,
/// truncate floor, four taps, the verbatim blend tree, the accumulator
/// add), so scalar and vector runs are bit-identical.
fn tile_scalar(
    rows: &[[[f32; 4]; 3]],
    acc: &mut [f32],
    t: Tile,
    g: &SampleGeom,
    data: &[f32],
    fallback: Fallback<'_>,
) -> u64 {
    let groups = t.groups();
    let row_len = g.np * g.nu;
    let mut local = 0u64;
    for (s, r) in rows.iter().enumerate() {
        let run = if column_invariant(r) { t.kz } else { 1 };
        for tj in 0..t.blen {
            let jj = (t.j0 + tj) as f32;
            let (bx, by, bz) = (r[0][1] * jj, r[1][1] * jj, r[2][1] * jj);
            for ti in 0..t.bw {
                let ii = (t.i0 + ti) as f32;
                // `project_f32`'s `((r0·i + r1·j) + r2·k) + r3`, with the
                // `i`/`j` partial sums hoisted out of the `k` loop.
                let (px, py, pz) = (r[0][0] * ii + bx, r[1][0] * ii + by, r[2][0] * ii + bz);
                let cell = &mut acc[((tj * groups + ti / 8) * t.kz) * 8 + ti % 8..];
                for kr in (0..t.kz).step_by(run) {
                    let kk = (t.k0 + kr) as f32;
                    let zh = (pz + r[2][2] * kk) + r[2][3];
                    if !depth_ok(zh) {
                        continue;
                    }
                    local += run as u64;
                    let x = ((px + r[0][2] * kk) + r[0][3]) / zh;
                    let w = 1.0 / (zh * zh);
                    // Float-domain interior guards: NaN/±∞ fail the ordered
                    // comparisons and take the guarded slow path (the
                    // fast_floor NaN escape cannot recur here).
                    let u_in = x >= 0.0 && x < g.u_max;
                    let u0 = if u_in { fast_floor(x) as usize } else { 0 };
                    let eu = x - u0 as f32;
                    let omeu = 1.0 - eu;
                    let col = s * g.nu + u0;
                    for k in kr..kr + run {
                        let kk = (t.k0 + k) as f32;
                        let y = ((py + r[1][2] * kk) + r[1][3]) / zh - g.v_shift;
                        let samp = if u_in && y >= g.lo_v && y < g.hi_v {
                            let v0 = fast_floor(y) as usize;
                            let ev = y - v0 as f32;
                            let r0 = ring_slot(v0, g.base, g.h) * row_len + col;
                            let r1 = ring_slot(v0 + 1, g.base, g.h) * row_len + col;
                            let t1 = data[r0] * omeu + data[r0 + 1] * eu;
                            let t2 = data[r1] * omeu + data[r1 + 1] * eu;
                            t1 * (1.0 - ev) + t2 * ev
                        } else {
                            fallback(s, x, y)
                        };
                        cell[k * 8] += w * samp;
                    }
                }
            }
        }
    }
    local
}

/// The AVX2 lowering: 8 contiguous `i` voxels per register. Every intrinsic
/// used is lane-wise IEEE round-to-nearest (`mul`/`add`/`sub`/`div`,
/// blends, masked gathers — **no FMA**, which would fuse a rounding step),
/// so each lane reproduces [`tile_scalar`]'s arithmetic bit for bit.
///
/// # Safety
/// The CPU must support AVX2, every in-bounds index into `data` must fit
/// an `i32`, and `acc` must hold `t.blen · t.groups() · t.kz · 8` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    rows: &[[[f32; 4]; 3]],
    acc: &mut [f32],
    t: Tile,
    g: &SampleGeom,
    data: &[f32],
    fallback: Fallback<'_>,
) -> u64 {
    use std::arch::x86_64::*;

    let groups = t.groups();
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
    // Elements per ring slot; `(s0·np + s)·nu + u0 = s0·row + (s·nu + u0)`
    // in wrapping i32 arithmetic, exact for every in-bounds index.
    let row_v = _mm256_set1_epi32((g.np * g.nu) as i32);
    let ptr = data.as_ptr();

    // Truncate-and-adjust floor, vectorised. Interior coordinates are
    // >= 0 so the adjust never fires for live lanes; junk in masked lanes
    // is discarded.
    let floor = |v: __m256| {
        let tr = _mm256_cvttps_epi32(v);
        _mm256_add_epi32(
            tr,
            _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_cvtepi32_ps(tr), v)),
        )
    };

    for (s, r) in rows.iter().enumerate() {
        let run = if column_invariant(r) { t.kz } else { 1 };
        let (r00, r10, r20) = (
            _mm256_set1_ps(r[0][0]),
            _mm256_set1_ps(r[1][0]),
            _mm256_set1_ps(r[2][0]),
        );
        let (r03, r13, r23) = (
            _mm256_set1_ps(r[0][3]),
            _mm256_set1_ps(r[1][3]),
            _mm256_set1_ps(r[2][3]),
        );
        let s_nu = _mm256_set1_epi32((s * g.nu) as i32);
        for tj in 0..t.blen {
            let jj = (t.j0 + tj) as f32;
            let bx = _mm256_set1_ps(r[0][1] * jj);
            let by = _mm256_set1_ps(r[1][1] * jj);
            let bz = _mm256_set1_ps(r[2][1] * jj);
            for gi in 0..groups {
                let ibase = t.i0 + gi * 8;
                let lanes = (t.bw - gi * 8).min(8) as i32;
                let tail = _mm256_castsi256_ps(_mm256_cmpgt_epi32(_mm256_set1_epi32(lanes), lane));
                let vii =
                    _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(ibase as i32), lane));
                // The hoisted `r0·i + r1·j` partial sums of the three rows.
                let px = _mm256_add_ps(_mm256_mul_ps(r00, vii), bx);
                let py = _mm256_add_ps(_mm256_mul_ps(r10, vii), by);
                let pz = _mm256_add_ps(_mm256_mul_ps(r20, vii), bz);
                let cell = &mut acc[(tj * groups + gi) * t.kz * 8..][..t.kz * 8];
                let mut kr = 0;
                while kr < t.kz {
                    let kk = (t.k0 + kr) as f32;
                    // The column invariants: zh = (pz + r22·k) + r23, x, w.
                    let zh = _mm256_add_ps(_mm256_add_ps(pz, _mm256_set1_ps(r[2][2] * kk)), r23);
                    // depth_ok: 0 < zh < ∞ (NaN fails both ordered
                    // compares); tail lanes excluded.
                    let m_d = _mm256_and_ps(
                        _mm256_and_ps(
                            _mm256_cmp_ps::<_CMP_GT_OQ>(zh, zero),
                            _mm256_cmp_ps::<_CMP_LT_OQ>(zh, infv),
                        ),
                        tail,
                    );
                    let dbits = _mm256_movemask_ps(m_d);
                    if dbits == 0 {
                        kr += run;
                        continue;
                    }
                    local += (dbits.count_ones() as usize * run) as u64;
                    let xh = _mm256_add_ps(_mm256_add_ps(px, _mm256_set1_ps(r[0][2] * kk)), r03);
                    let x = _mm256_div_ps(xh, zh);
                    let w = _mm256_div_ps(onev, _mm256_mul_ps(zh, zh));
                    // Float-domain u-interior mask: non-finite coordinates
                    // fail OQ compares lane-wise and divert to the guarded
                    // slow path.
                    let m_u = _mm256_and_ps(
                        _mm256_and_ps(
                            _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero),
                            _mm256_cmp_ps::<_CMP_LT_OQ>(x, u_maxv),
                        ),
                        m_d,
                    );
                    let iu = floor(x);
                    let eu = _mm256_sub_ps(x, _mm256_cvtepi32_ps(iu));
                    let omeu = _mm256_sub_ps(onev, eu);
                    let col = _mm256_add_epi32(s_nu, iu);
                    for k in kr..kr + run {
                        let kk = (t.k0 + k) as f32;
                        let yh =
                            _mm256_add_ps(_mm256_add_ps(py, _mm256_set1_ps(r[1][2] * kk)), r13);
                        let y = _mm256_sub_ps(_mm256_div_ps(yh, zh), v_shiftv);
                        let mi = _mm256_and_ps(
                            _mm256_and_ps(
                                _mm256_cmp_ps::<_CMP_GE_OQ>(y, lo_vv),
                                _mm256_cmp_ps::<_CMP_LT_OQ>(y, hi_vv),
                            ),
                            m_u,
                        );
                        let iv = floor(y);
                        let ev = _mm256_sub_ps(y, _mm256_cvtepi32_ps(iv));
                        // Ring slots for v0 and v0+1 without a division:
                        // slot = t - h·[t > h-1].
                        let t0 = _mm256_sub_epi32(iv, base_v);
                        let s0 = _mm256_sub_epi32(
                            t0,
                            _mm256_and_si256(_mm256_cmpgt_epi32(t0, h_m1), h_vec),
                        );
                        let t1 = _mm256_add_epi32(t0, one_i);
                        let s1 = _mm256_sub_epi32(
                            t1,
                            _mm256_and_si256(_mm256_cmpgt_epi32(t1, h_m1), h_vec),
                        );
                        let i0 = _mm256_add_epi32(_mm256_mullo_epi32(s0, row_v), col);
                        let i1 = _mm256_add_epi32(_mm256_mullo_epi32(s1, row_v), col);
                        // Masked gathers: lanes with a zero mask never touch
                        // memory, so junk indices in boundary/tail lanes are
                        // harmless.
                        let g00 = _mm256_mask_i32gather_ps::<4>(zero, ptr, i0, mi);
                        let g01 = _mm256_mask_i32gather_ps::<4>(
                            zero,
                            ptr,
                            _mm256_add_epi32(i0, one_i),
                            mi,
                        );
                        let g10 = _mm256_mask_i32gather_ps::<4>(zero, ptr, i1, mi);
                        let g11 = _mm256_mask_i32gather_ps::<4>(
                            zero,
                            ptr,
                            _mm256_add_epi32(i1, one_i),
                            mi,
                        );
                        // The verbatim `sub_pixel` blend tree.
                        let t1v = _mm256_add_ps(_mm256_mul_ps(g00, omeu), _mm256_mul_ps(g01, eu));
                        let t2v = _mm256_add_ps(_mm256_mul_ps(g10, omeu), _mm256_mul_ps(g11, eu));
                        let samp = _mm256_add_ps(
                            _mm256_mul_ps(t1v, _mm256_sub_ps(onev, ev)),
                            _mm256_mul_ps(t2v, ev),
                        );
                        let mut contrib = _mm256_mul_ps(w, samp);
                        // Depth-passing lanes outside the interior take the
                        // guarded slow path, one lane at a time (boundary
                        // voxels only).
                        let fbits = _mm256_movemask_ps(_mm256_andnot_ps(mi, m_d));
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
                        // Only depth-passing lanes touch the accumulator.
                        let p = cell[k * 8..][..8].as_mut_ptr();
                        let av = _mm256_loadu_ps(p);
                        _mm256_storeu_ps(p, _mm256_blendv_ps(av, _mm256_add_ps(av, contrib), m_d));
                    }
                    kr += run;
                }
            }
        }
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
/// volume. Backend from [`simd_backend`].
pub fn backproject_simd(
    stack: &ProjectionStack,
    mats: &[ProjectionMatrix],
    vol: &mut Volume,
) -> KernelStats {
    backproject_simd_with_backend(stack, mats, vol, SimdTuning::default(), simd_backend())
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
    let rows: Vec<_> = mats.iter().map(|m| m.rows_f32).collect();
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
    backproject_window_simd_with_backend(window, mats, vol, SimdTuning::default(), simd_backend())
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
    let rows: Vec<_> = mats.iter().map(|m| m.rows_f32).collect();
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
    use crate::{backproject_reference, backproject_window, detected_cpu_features};
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
            SimdTuning::default(),
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
                SimdTuning::default(),
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
        // Bitwise under any tile/zslab (including an oversized tile and
        // zero extents, which entry-clamp).
        for (bi, bj, zslab) in [
            (1, 1, 1),
            (3, 5, 2),
            (24, 16, 7),
            (13, 2, 4),
            (100, 100, 99),
            (8, 0, 4),
            (0, 3, 0),
        ] {
            let mut b = Volume::zeros(g.nx, g.ny, g.nz);
            let tuning = SimdTuning {
                tile: TileShape { bi, bj },
                zslab,
            };
            backproject_simd_with(&stack, &mats, &mut b, tuning);
            assert_eq!(reference.data(), b.data(), "tile {bi}×{bj} zslab {zslab}");
        }
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
