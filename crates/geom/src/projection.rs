//! Detector-row-major projection stack: the input container of Figure 3a.

use std::io;
use std::ops::Range;

use crate::RowRange;

/// Where a driver reads detector rows from: a scan held in memory or a
/// `.sfbp` file read by rows.
///
/// A driver asks only for the row bands it needs (Eq 6–7), over only its
/// own projection share (Eq 5), so a source that reads lazily bounds host
/// memory by the ring of rows, not by the scan: the drivers read straight
/// into the ring's slots ([`read_rows_into`](Self::read_rows_into)).
pub trait RowSource: Sync {
    /// `(N_v, N_p, N_u)` of the whole scan.
    fn shape(&self) -> (usize, usize, usize);

    /// Global detector `rows` of global `projections`, as a partial stack
    /// with `v_offset = rows.begin` and `s_offset = projections.start`. A
    /// range outside the scan is an error, never a panic.
    fn read_rows(&self, rows: RowRange, projections: Range<usize>) -> io::Result<ProjectionStack>;

    /// [`read_rows`](Self::read_rows) into `dst`, which takes the
    /// `rows.len() × s.len() × N_u` values of `rows` of projections `s` in
    /// `[v][s][u]` order. A `dst` of another length, or a stack of another
    /// shape from `read_rows`, is an error, never a panic. The default
    /// copies what `read_rows` returns; a source that can decode in place
    /// overrides it.
    fn read_rows_into(&self, rows: RowRange, s: Range<usize>, dst: &mut [f32]) -> io::Result<()> {
        let got = self.read_rows(rows, s.clone())?;
        let want = (rows.len(), s.len(), self.shape().2);
        if (got.shape(), got.v_offset, got.s_offset) != (want, rows.begin, s.start) {
            let ((nv, np, nu), v, s) = (got.shape(), got.v_offset, got.s_offset);
            let what = format!("source returned {nv}×{np}×{nu} from row {v}, projection {s}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        got.read_rows_into(rows, s, dst)
    }
}

/// Checks that `dst` takes the `nv × np × nu` values a
/// [`RowSource::read_rows_into`] writes.
pub fn check_rows_len(dst: &[f32], nv: usize, np: usize, nu: usize) -> io::Result<()> {
    if dst.len() == nv * np * nu {
        return Ok(());
    }
    let what = format!("{} values cannot take {nv}×{np}×{nu} rows", dst.len());
    Err(io::Error::new(io::ErrorKind::InvalidInput, what))
}

impl RowSource for ProjectionStack {
    fn shape(&self) -> (usize, usize, usize) {
        (self.nv, self.np, self.nu)
    }

    fn read_rows(&self, rows: RowRange, s: Range<usize>) -> io::Result<ProjectionStack> {
        ProjectionStack::read_from(self, rows, s)
    }

    fn read_rows_into(&self, rows: RowRange, s: Range<usize>, dst: &mut [f32]) -> io::Result<()> {
        let (v0, s0) = (self.v_offset, self.s_offset);
        let held = |lo: usize, n: usize, b: usize, e: usize| lo <= b && b <= e && e <= lo + n;
        if !held(v0, self.nv, rows.begin, rows.end) || !held(s0, self.np, s.start, s.end) {
            let what = format!("rows {rows:?} of projections {s:?} outside held stack");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        }
        let width = s.len() * self.nu;
        check_rows_len(dst, rows.len(), s.len(), self.nu)?;
        for (v, out) in (rows.begin..rows.end).zip(dst.chunks_exact_mut(width.max(1))) {
            let start = ((v - v0) * self.np + s.start - s0) * self.nu;
            out.copy_from_slice(&self.data[start..start + width]);
        }
        Ok(())
    }
}

/// A shared scan reads like the scan it shares.
impl<T: RowSource + Send> RowSource for std::sync::Arc<T> {
    fn shape(&self) -> (usize, usize, usize) {
        T::shape(self)
    }

    fn read_rows(&self, rows: RowRange, s: Range<usize>) -> io::Result<ProjectionStack> {
        T::read_rows(self, rows, s)
    }

    fn read_rows_into(&self, rows: RowRange, s: Range<usize>, dst: &mut [f32]) -> io::Result<()> {
        T::read_rows_into(self, rows, s, dst)
    }
}

/// A stack of `N_p` projections stored detector-row major: `[v][s][u]`.
///
/// This is the input layout of Figure 3a (`N_v × N_p × N_u`). Storing the
/// detector row `v` as the outermost dimension means the row range
/// `[a_i, b_i)` needed by sub-volume `V_i` is **one contiguous block across
/// all projections**, which is what makes the paper's 2-D input
/// decomposition (split along `N_v` *and* `N_p`) a pair of cheap slicing
/// operations instead of a gather.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectionStack {
    nv: usize,
    np: usize,
    nu: usize,
    /// First global detector row held by this (possibly partial) stack.
    v_offset: usize,
    /// First global projection index held by this (possibly partial) stack.
    s_offset: usize,
    data: Vec<f32>,
}

impl ProjectionStack {
    /// Allocates a zero-filled full stack.
    pub fn zeros(nv: usize, np: usize, nu: usize) -> Self {
        ProjectionStack {
            nv,
            np,
            nu,
            v_offset: 0,
            s_offset: 0,
            data: vec![0.0; nv * np * nu],
        }
    }

    /// Allocates a zero-filled partial stack covering global detector rows
    /// `[v_offset, v_offset+nv)` and projections `[s_offset, s_offset+np)`.
    pub fn zeros_window(nv: usize, np: usize, nu: usize, v_offset: usize, s_offset: usize) -> Self {
        ProjectionStack {
            v_offset,
            s_offset,
            ..ProjectionStack::zeros(nv, np, nu)
        }
    }

    /// Wraps existing data (length must be `nv·np·nu`).
    pub fn from_data(nv: usize, np: usize, nu: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), nv * np * nu, "projection data length mismatch");
        ProjectionStack {
            nv,
            np,
            nu,
            v_offset: 0,
            s_offset: 0,
            data,
        }
    }

    /// Number of detector rows held.
    #[inline]
    pub fn nv(&self) -> usize {
        self.nv
    }
    /// Number of projections held.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }
    /// Detector row width in pixels.
    #[inline]
    pub fn nu(&self) -> usize {
        self.nu
    }
    /// Global detector row of local row 0.
    #[inline]
    pub fn v_offset(&self) -> usize {
        self.v_offset
    }
    /// Global projection index of local projection 0.
    #[inline]
    pub fn s_offset(&self) -> usize {
        self.s_offset
    }
    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }
    /// True if no pixels are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of local `(v, s, u)`.
    #[inline]
    pub fn index(&self, v: usize, s: usize, u: usize) -> usize {
        debug_assert!(v < self.nv && s < self.np && u < self.nu);
        (v * self.np + s) * self.nu + u
    }

    /// Pixel value at local `(v, s, u)`.
    #[inline]
    pub fn get(&self, v: usize, s: usize, u: usize) -> f32 {
        self.data[self.index(v, s, u)]
    }

    /// Mutable pixel reference at local `(v, s, u)`.
    #[inline]
    pub fn get_mut(&mut self, v: usize, s: usize, u: usize) -> &mut f32 {
        let idx = self.index(v, s, u);
        &mut self.data[idx]
    }

    /// The whole pixel buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The whole pixel buffer, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One detector row of one projection, contiguous: local `(v, s)`.
    pub fn row(&self, v: usize, s: usize) -> &[f32] {
        let start = self.index(v, s, 0);
        &self.data[start..start + self.nu]
    }

    /// One detector row of one projection, contiguous and mutable.
    pub fn row_mut(&mut self, v: usize, s: usize) -> &mut [f32] {
        let start = self.index(v, s, 0);
        &mut self.data[start..start + self.nu]
    }

    /// The contiguous block of local detector rows `[v_begin, v_end)` across
    /// all held projections — the unit of the H2D copies in Algorithm 3.
    pub fn rows_block(&self, v_begin: usize, v_end: usize) -> &[f32] {
        assert!(
            v_begin <= v_end && v_end <= self.nv,
            "row block out of range"
        );
        let stride = self.np * self.nu;
        &self.data[v_begin * stride..v_end * stride]
    }

    /// Extracts a copy of **global** detector rows `[v_begin, v_end)` and
    /// **global** projections `[s_begin, s_end)` as a new partial stack.
    ///
    /// The requested window must be contained in this stack, else this
    /// panics. This models one rank's load of its partial projections (Eq 5
    /// / Eq 7: `N_p` split into `N_r` parts, rows restricted to `a_i b_i` or
    /// `b_i b_{i+1}`).
    pub fn extract_window(&self, v_begin: usize, v_end: usize, s0: usize, s1: usize) -> Self {
        let rows = RowRange {
            begin: v_begin,
            end: v_end,
        };
        ProjectionStack::read_from(self, rows, s0..s1).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `src`'s [`RowSource::read_rows`] through its `read_rows_into`, for a
    /// source that reads in place.
    pub fn read_from(src: &impl RowSource, rows: RowRange, s: Range<usize>) -> io::Result<Self> {
        let (nv, np, nu) = src.shape();
        let nv = rows.end.saturating_sub(rows.begin).min(nv);
        let mut p = ProjectionStack::zeros_window(nv, s.len().min(np), nu, rows.begin, s.start);
        src.read_rows_into(rows, s, &mut p.data).map(|()| p)
    }

    /// Bilinear interpolation at sub-pixel **local** coordinates `(x, y)`
    /// within projection `s` — the `SubPixel` function of Algorithm 1.
    ///
    /// `x` indexes the U axis, `y` the (local) V axis. Samples outside the
    /// held window contribute zero, the standard zero-padded detector
    /// boundary condition. Non-finite coordinates also return zero: a NaN
    /// coordinate would otherwise poison the blend (`0 · NaN = NaN`) even
    /// though every tap individually lands out of bounds, because
    /// `NaN as isize` saturates to 0 — a valid index.
    pub fn sub_pixel(&self, s: usize, x: f32, y: f32) -> f32 {
        if !(x.is_finite() && y.is_finite()) {
            return 0.0;
        }
        let iu = x.floor() as isize;
        let iv = y.floor() as isize;
        let eu = x - iu as f32;
        let ev = y - iv as f32;
        let sample = |v: isize, u: isize| -> f32 {
            if v < 0 || u < 0 || v as usize >= self.nv || u as usize >= self.nu {
                0.0
            } else {
                self.get(v as usize, s, u as usize)
            }
        };
        let t1 = sample(iv, iu) * (1.0 - eu) + sample(iv, iu + 1) * eu;
        let t2 = sample(iv + 1, iu) * (1.0 - eu) + sample(iv + 1, iu + 1) * eu;
        t1 * (1.0 - ev) + t2 * ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_stack(nv: usize, np: usize, nu: usize) -> ProjectionStack {
        let mut p = ProjectionStack::zeros(nv, np, nu);
        for v in 0..nv {
            for s in 0..np {
                for u in 0..nu {
                    *p.get_mut(v, s, u) = (v * 100 + s * 10 + u) as f32;
                }
            }
        }
        p
    }

    #[test]
    fn layout_is_v_major() {
        let p = counting_stack(2, 3, 4);
        assert_eq!(p.index(0, 0, 0), 0);
        assert_eq!(p.index(0, 0, 3), 3);
        assert_eq!(p.index(0, 1, 0), 4);
        assert_eq!(p.index(1, 0, 0), 12);
    }

    #[test]
    fn rows_block_is_contiguous_v_range() {
        let p = counting_stack(4, 2, 3);
        let block = p.rows_block(1, 3);
        assert_eq!(block.len(), 2 * 2 * 3);
        assert_eq!(block[0], p.get(1, 0, 0));
        assert_eq!(block[block.len() - 1], p.get(2, 1, 2));
    }

    #[test]
    fn extract_window_preserves_values_and_offsets() {
        let p = counting_stack(6, 4, 3);
        let w = p.extract_window(2, 5, 1, 3);
        assert_eq!(w.nv(), 3);
        assert_eq!(w.np(), 2);
        assert_eq!(w.v_offset(), 2);
        assert_eq!(w.s_offset(), 1);
        for v in 0..3 {
            for s in 0..2 {
                for u in 0..3 {
                    assert_eq!(w.get(v, s, u), p.get(v + 2, s + 1, u));
                }
            }
        }
    }

    #[test]
    fn extract_window_of_window() {
        let p = counting_stack(8, 4, 2);
        let w = p.extract_window(2, 7, 0, 4);
        let inner = w.extract_window(3, 5, 1, 2);
        assert_eq!(inner.v_offset(), 3);
        assert_eq!(inner.get(0, 0, 1), p.get(3, 1, 1));
    }

    #[test]
    fn read_rows_is_extract_window_and_refuses_out_of_range() {
        let p = counting_stack(6, 4, 3);
        let rows = |b, e| RowRange { begin: b, end: e };
        assert_eq!(p.shape(), (6, 4, 3));
        assert_eq!(
            p.read_rows(rows(2, 5), 0..4).unwrap(),
            p.extract_window(2, 5, 0, 4)
        );
        assert_eq!(
            p.read_rows(rows(2, 5), 1..3).unwrap(),
            p.extract_window(2, 5, 1, 3)
        );
        assert_eq!(p.read_rows(rows(3, 3), 0..4).unwrap().nv(), 0);
        let w = p.extract_window(2, 5, 1, 4);
        assert_eq!(
            w.read_rows(rows(3, 5), 2..4).unwrap(),
            p.extract_window(3, 5, 2, 4)
        );
        for (b, e, s) in [
            (0, 7, 1..4),
            (4, 3, 1..4),
            (1, 3, 1..4),
            (2, 5, 0..4),
            (2, 5, 3..5),
        ] {
            let err = w.read_rows(rows(b, e), s.clone()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "[{b}, {e}) {s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside held")]
    fn extract_window_out_of_range_panics() {
        let p = counting_stack(4, 2, 2);
        let _ = p.extract_window(2, 6, 0, 2);
    }

    #[test]
    fn sub_pixel_interpolates_bilinearly() {
        let mut p = ProjectionStack::zeros(2, 1, 2);
        *p.get_mut(0, 0, 0) = 1.0;
        *p.get_mut(0, 0, 1) = 2.0;
        *p.get_mut(1, 0, 0) = 3.0;
        *p.get_mut(1, 0, 1) = 4.0;
        assert!((p.sub_pixel(0, 0.0, 0.0) - 1.0).abs() < 1e-6);
        assert!((p.sub_pixel(0, 1.0, 1.0) - 4.0).abs() < 1e-6);
        assert!((p.sub_pixel(0, 0.5, 0.0) - 1.5).abs() < 1e-6);
        assert!((p.sub_pixel(0, 0.0, 0.5) - 2.0).abs() < 1e-6);
        assert!((p.sub_pixel(0, 0.5, 0.5) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn sub_pixel_outside_is_zero_padded() {
        let mut p = ProjectionStack::zeros(2, 1, 2);
        p.data_mut().fill(8.0);
        assert_eq!(p.sub_pixel(0, -5.0, 0.0), 0.0);
        assert_eq!(p.sub_pixel(0, 0.0, 10.0), 0.0);
        // Half-in, half-out: edge sample interpolates toward zero.
        assert!((p.sub_pixel(0, -0.5, 0.0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn row_accessors_match_get() {
        let p = counting_stack(3, 2, 5);
        let r = p.row(2, 1);
        for (u, &val) in r.iter().enumerate() {
            assert_eq!(val, p.get(2, 1, u));
        }
    }
}
