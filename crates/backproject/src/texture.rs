//! The modular ring buffer over detector rows — the CPU analogue of the
//! 3-D texture of Listing 1 (`devPixel`'s `Z = z % dimZ`).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A device-resident window of `h` detector rows across `np` projections,
/// addressed by **global** detector row modulo `h`.
///
/// Rows stream in monotonically (Algorithm 3): the first write establishes
/// `[v_begin, v_end)`; each later write must start where the previous ended
/// and overwrites the oldest rows in place (`cudaMemcpy3D` into
/// `devMem(s % H …)` in the paper). Samples outside the currently valid
/// window return zero.
#[derive(Debug)]
pub struct TextureWindow {
    h: usize,
    np: usize,
    nu: usize,
    s_offset: usize,
    /// `[h][np][nu]`, global row `v` lives at `v % h`.
    data: Vec<f32>,
    /// Valid global row range (rows below `v_lo` have been overwritten).
    v_lo: usize,
    v_hi: usize,
    /// Total rows ever written (for transfer accounting).
    rows_written: usize,
    /// Rows written since the last launch drained them
    /// ([`take_unaccounted_rows`](Self::take_unaccounted_rows)) — atomic
    /// because kernels only hold a shared reference. This is what lets
    /// per-slab `KernelStats` charge each streamed row exactly once
    /// instead of re-billing the whole resident window every launch.
    unaccounted_rows: AtomicUsize,
}

impl Clone for TextureWindow {
    fn clone(&self) -> Self {
        TextureWindow {
            h: self.h,
            np: self.np,
            nu: self.nu,
            s_offset: self.s_offset,
            data: self.data.clone(),
            v_lo: self.v_lo,
            v_hi: self.v_hi,
            rows_written: self.rows_written,
            unaccounted_rows: AtomicUsize::new(self.unaccounted_rows.load(Ordering::Relaxed)),
        }
    }
}

impl TextureWindow {
    /// Allocates an empty window of height `h` for `np` projections of width
    /// `nu`; `s_offset` records which global projection local index 0 is.
    pub fn new(h: usize, np: usize, nu: usize, s_offset: usize) -> Self {
        assert!(
            h > 0 && np > 0 && nu > 0,
            "window dimensions must be positive"
        );
        TextureWindow {
            h,
            np,
            nu,
            s_offset,
            data: vec![0.0; h * np * nu],
            v_lo: 0,
            v_hi: 0,
            rows_written: 0,
            unaccounted_rows: AtomicUsize::new(0),
        }
    }

    /// Ring height `H`.
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }
    /// Projections held.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }
    /// Row width.
    #[inline]
    pub fn nu(&self) -> usize {
        self.nu
    }
    /// Global projection index of local projection 0.
    #[inline]
    pub fn s_offset(&self) -> usize {
        self.s_offset
    }
    /// Currently valid global row range `[lo, hi)`.
    #[inline]
    pub fn valid_rows(&self) -> (usize, usize) {
        (self.v_lo, self.v_hi)
    }
    /// Total rows streamed through the window so far.
    #[inline]
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }
    /// Rows written since the last call to this method, and resets the
    /// count. Launch accounting drains this so each streamed row is
    /// charged to exactly one launch's `proj_bytes`.
    #[inline]
    pub fn take_unaccounted_rows(&self) -> usize {
        self.unaccounted_rows.swap(0, Ordering::Relaxed)
    }
    /// Device bytes held by the window.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// The raw ring buffer, `[slot][s][u]`-ordered, for the SIMD
    /// kernel's guard-free interior sampling path.
    #[inline]
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Streams the row block `rows` of global rows `[v_begin, v_end)`,
    /// `[v][s][u]` like `ProjectionStack::rows_block`, into the ring by
    /// [`fill_rows`](Self::fill_rows); also panics if its length mismatches.
    pub fn write_rows(&mut self, rows: &[f32], v_begin: usize, v_end: usize) {
        let stride = self.np * self.nu;
        let want = v_end.saturating_sub(v_begin) * stride;
        assert_eq!(rows.len(), want, "row block length mismatch");
        let Ok(()) = self.fill_rows(v_begin, v_end, |b, e, dst| {
            dst.copy_from_slice(&rows[(b - v_begin) * stride..(e - v_begin) * stride]);
            Ok::<_, Infallible>(())
        });
    }

    /// Hands `fill` the ring slots of global rows `[v_begin, v_end)` as
    /// runs `(b, e, slots)` of contiguous slots to write `[v][s][u]`: two,
    /// upper first, where the rows cross a multiple of the ring height
    /// (Algorithm 3's two `cudaMemcpy3D`s into `devMem(s % H …)`), else
    /// one. Once every run is filled the rows are the window's newest; a
    /// failed run leaves the window as it was.
    ///
    /// The stream may advance **upward** (`v_begin == v_hi`) or **downward**
    /// (`v_end == v_lo`) in detector rows — the paper's decomposition walks
    /// downward because increasing world Z maps to decreasing detector `v`
    /// — and each write evicts the oldest rows at the far end of the window.
    ///
    /// # Panics
    /// If the rows are more than the ring holds, or not contiguous with
    /// the window on either side (after the first write).
    pub fn fill_rows<E>(
        &mut self,
        v_begin: usize,
        v_end: usize,
        mut fill: impl FnMut(usize, usize, &mut [f32]) -> Result<(), E>,
    ) -> Result<(), E> {
        assert!(v_begin <= v_end, "bad row range");
        let (n, h, stride) = (v_end - v_begin, self.h, self.np * self.nu);
        assert!(n <= h, "block of {n} rows exceeds ring height {h}");
        let (lo, hi) = if n == 0 || self.v_lo == self.v_hi {
            (v_begin, v_end)
        } else if v_begin == self.v_hi {
            // Upward: evict from the bottom once the ring is full.
            (self.v_lo.max(v_end.saturating_sub(h)), v_end)
        } else if v_end == self.v_lo {
            // Downward: evict from the top.
            (v_begin, self.v_hi.min(v_begin + h))
        } else {
            panic!(
                "streaming writes must be contiguous with the window [{}, {}); got [{v_begin}, {v_end})",
                self.v_lo, self.v_hi
            );
        };
        let cut = (v_end.saturating_sub(1) / h * h).max(v_begin);
        let runs = [(cut, v_end), (v_begin, cut)];
        for (b, e) in runs.into_iter().take(1 + usize::from(cut > v_begin)) {
            let slots = b % h * stride..(b % h + e - b) * stride;
            fill(b, e, &mut self.data[slots])?;
        }
        if n > 0 {
            (self.v_lo, self.v_hi) = (lo, hi);
            self.rows_written += n;
            self.unaccounted_rows.fetch_add(n, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Single-pixel fetch at **global** detector row `v` (the `devPixel` of
    /// Listing 1, with the modular `Z` lookup). Out-of-window rows and
    /// out-of-range columns return zero.
    #[inline]
    pub fn pixel(&self, s_local: usize, u: isize, v: isize) -> f32 {
        if u < 0 || u as usize >= self.nu {
            return 0.0;
        }
        if v < self.v_lo as isize || v >= self.v_hi as isize {
            return 0.0;
        }
        let slot = (v as usize) % self.h;
        self.data[(slot * self.np + s_local) * self.nu + u as usize]
    }

    /// Bilinear fetch at sub-pixel `(x, y)` with `y` a **global** detector
    /// row coordinate — the `devSubPixel` of Listing 1 (which subtracts
    /// `offset_proj_y` before the modular lookup; here the modular lookup
    /// absorbs the offset directly). Non-finite coordinates return zero:
    /// `NaN as isize` saturates to 0, a valid index, so without the guard a
    /// NaN coordinate would poison the blend (`0 · NaN = NaN`) through the
    /// weights even when every tap reads in bounds.
    #[inline]
    pub fn sub_pixel(&self, s_local: usize, x: f32, y: f32) -> f32 {
        if !(x.is_finite() && y.is_finite()) {
            return 0.0;
        }
        let iu = x.floor() as isize;
        let iv = y.floor() as isize;
        let eu = x - iu as f32;
        let ev = y - iv as f32;
        let v0 = self.pixel(s_local, iu, iv);
        let v1 = self.pixel(s_local, iu + 1, iv);
        let v2 = self.pixel(s_local, iu, iv + 1);
        let v3 = self.pixel(s_local, iu + 1, iv + 1);
        let t1 = v0 * (1.0 - eu) + v1 * eu;
        let t2 = v2 * (1.0 - eu) + v3 * eu;
        t1 * (1.0 - ev) + t2 * ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalefbp_geom::ProjectionStack;

    fn stack(nv: usize, np: usize, nu: usize) -> ProjectionStack {
        let mut p = ProjectionStack::zeros(nv, np, nu);
        for v in 0..nv {
            for s in 0..np {
                for u in 0..nu {
                    *p.get_mut(v, s, u) = (v * 1000 + s * 10 + u) as f32;
                }
            }
        }
        p
    }

    #[test]
    fn first_write_establishes_window() {
        let p = stack(8, 2, 3);
        let mut w = TextureWindow::new(4, 2, 3, 0);
        w.write_rows(p.rows_block(2, 5), 2, 5);
        assert_eq!(w.valid_rows(), (2, 5));
        assert_eq!(w.pixel(1, 0, 3), p.get(3, 1, 0));
        assert_eq!(w.pixel(0, 2, 4), p.get(4, 0, 2));
        // Outside window: zero.
        assert_eq!(w.pixel(0, 0, 1), 0.0);
        assert_eq!(w.pixel(0, 0, 5), 0.0);
    }

    #[test]
    fn streaming_overwrites_oldest_rows() {
        let p = stack(10, 2, 3);
        let mut w = TextureWindow::new(4, 2, 3, 0);
        w.write_rows(p.rows_block(0, 4), 0, 4);
        assert_eq!(w.valid_rows(), (0, 4));
        w.write_rows(p.rows_block(4, 6), 4, 6);
        // Rows 0..2 were overwritten by 4..6 (same slots mod 4).
        assert_eq!(w.valid_rows(), (2, 6));
        assert_eq!(w.pixel(0, 0, 4), p.get(4, 0, 0));
        assert_eq!(w.pixel(0, 0, 2), p.get(2, 0, 0));
        assert_eq!(w.pixel(0, 0, 0), 0.0);
        assert_eq!(w.rows_written(), 6);
    }

    #[test]
    fn wrapping_write_larger_than_remaining_slots() {
        // A write that wraps the ring end (the two-Memcpy3D case of
        // Algorithm 3, lines 13-15).
        let p = stack(12, 1, 2);
        let mut w = TextureWindow::new(5, 1, 2, 0);
        w.write_rows(p.rows_block(0, 5), 0, 5);
        w.write_rows(p.rows_block(5, 9), 5, 9); // wraps slots 0..4
        assert_eq!(w.valid_rows(), (4, 9));
        for v in 4..9 {
            assert_eq!(w.pixel(0, 0, v as isize), p.get(v, 0, 0), "v={v}");
        }
    }

    #[test]
    fn descending_stream_evicts_from_the_top() {
        // The paper's decomposition walks downward in v (increasing world Z
        // maps to decreasing detector row).
        let p = stack(12, 2, 3);
        let mut w = TextureWindow::new(4, 2, 3, 0);
        w.write_rows(p.rows_block(8, 12), 8, 12);
        assert_eq!(w.valid_rows(), (8, 12));
        w.write_rows(p.rows_block(6, 8), 6, 8);
        assert_eq!(w.valid_rows(), (6, 10));
        assert_eq!(w.pixel(1, 2, 6), p.get(6, 1, 2));
        assert_eq!(w.pixel(1, 2, 9), p.get(9, 1, 2));
        assert_eq!(w.pixel(1, 2, 10), 0.0);
        assert_eq!(w.pixel(1, 2, 5), 0.0);
    }

    /// A wrapped block comes as its two runs of slots, upper first, and a
    /// fill that fails leaves the window as it was.
    #[test]
    fn fill_rows_hands_out_runs_of_slots_and_a_failed_fill_changes_nothing() {
        let p = stack(12, 2, 3);
        let mut w = TextureWindow::new(4, 2, 3, 0);
        w.write_rows(p.rows_block(9, 12), 9, 12);
        let mut runs = Vec::new();
        let failed = w.fill_rows(6, 9, |b, e, dst| {
            runs.push((b, e, dst.len()));
            dst.fill(f32::NAN);
            Err("read failed")
        });
        assert_eq!((failed, runs), (Err("read failed"), vec![(8, 9, 6)]));
        assert_eq!((w.valid_rows(), w.rows_written()), ((9, 12), 3));
        assert_eq!(w.take_unaccounted_rows(), 3);
        let mut runs = Vec::new();
        w.fill_rows(6, 9, |b, e, dst| {
            runs.push((b, e));
            dst.copy_from_slice(p.rows_block(b, e));
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(runs, [(8, 9), (6, 8)]);
        assert_eq!(w.valid_rows(), (6, 10));
        for v in 6..10 {
            assert_eq!(w.pixel(1, 2, v as isize), p.get(v, 1, 2), "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn non_contiguous_write_panics() {
        let p = stack(10, 1, 2);
        let mut w = TextureWindow::new(4, 1, 2, 0);
        w.write_rows(p.rows_block(0, 2), 0, 2);
        w.write_rows(p.rows_block(3, 4), 3, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds ring height")]
    fn oversized_block_panics() {
        let p = stack(10, 1, 2);
        let mut w = TextureWindow::new(4, 1, 2, 0);
        w.write_rows(p.rows_block(0, 5), 0, 5);
    }

    #[test]
    fn sub_pixel_matches_stack_inside_window() {
        let p = stack(8, 2, 5);
        let mut w = TextureWindow::new(8, 2, 5, 0);
        w.write_rows(p.rows_block(0, 8), 0, 8);
        for (x, y) in [(1.5f32, 2.5f32), (0.0, 0.0), (3.25, 6.75), (4.0, 7.0)] {
            for s in 0..2 {
                assert!(
                    (w.sub_pixel(s, x, y) - p.sub_pixel(s, x, y)).abs() < 1e-6,
                    "s={s} x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn sub_pixel_zero_pads_window_edges() {
        let p = stack(8, 1, 4);
        let mut w = TextureWindow::new(3, 1, 4, 0);
        w.write_rows(p.rows_block(2, 5), 2, 5);
        // Sampling at y=1.5 interpolates row 1 (invalid → 0) and row 2.
        let got = w.sub_pixel(0, 1.0, 1.5);
        let expect = 0.5 * p.get(2, 0, 1);
        assert!((got - expect).abs() < 1e-6);
    }

    #[test]
    fn unaccounted_rows_drain_once() {
        let p = stack(10, 2, 3);
        let mut w = TextureWindow::new(4, 2, 3, 0);
        w.write_rows(p.rows_block(0, 4), 0, 4);
        w.write_rows(p.rows_block(4, 6), 4, 6);
        assert_eq!(w.take_unaccounted_rows(), 6);
        // Drained: a second take without writes charges nothing.
        assert_eq!(w.take_unaccounted_rows(), 0);
        w.write_rows(p.rows_block(6, 7), 6, 7);
        assert_eq!(w.take_unaccounted_rows(), 1);
        // Cumulative accounting is unaffected by draining.
        assert_eq!(w.rows_written(), 7);
    }

    #[test]
    fn clone_carries_unaccounted_rows() {
        let p = stack(6, 1, 2);
        let mut w = TextureWindow::new(4, 1, 2, 0);
        w.write_rows(p.rows_block(0, 3), 0, 3);
        let c = w.clone();
        assert_eq!(c.take_unaccounted_rows(), 3);
        // Independent counters: draining the clone leaves the original.
        assert_eq!(w.take_unaccounted_rows(), 3);
    }

    #[test]
    fn bytes_and_offsets() {
        let w = TextureWindow::new(4, 3, 5, 7);
        assert_eq!(w.bytes(), 4 * 3 * 5 * 4);
        assert_eq!(w.s_offset(), 7);
        assert_eq!(w.height(), 4);
    }
}
