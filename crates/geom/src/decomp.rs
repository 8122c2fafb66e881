//! The paper's decomposition maths: Algorithm 2 (`ComputeAB`), the
//! sub-volume slabs of Eq 3–4, the overlap of Figure 4, and the differential
//! update ranges of Eq 6–7.

use crate::{CbctGeometry, ProjectionMatrix};

/// A half-open range `[begin, end)` of global detector rows (the `a_i b_i`
/// intervals of the paper, stated there in inclusive notation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowRange {
    /// First row required.
    pub begin: usize,
    /// One past the last row required.
    pub end: usize,
}

impl RowRange {
    /// Creates a range; `begin` may equal `end` (empty).
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end, "RowRange begin {begin} > end {end}");
        RowRange { begin, end }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True if no rows are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// True if `row` lies inside the range.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        (self.begin..self.end).contains(&row)
    }

    /// Intersection (empty ranges normalise to `[0,0)`).
    pub fn intersect(&self, other: &RowRange) -> RowRange {
        let begin = self.begin.max(other.begin);
        let end = self.end.min(other.end);
        if begin >= end {
            RowRange::new(0, 0)
        } else {
            RowRange::new(begin, end)
        }
    }

    /// Smallest range containing both.
    pub fn hull(&self, other: &RowRange) -> RowRange {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        RowRange::new(self.begin.min(other.begin), self.end.max(other.end))
    }

    /// Set difference `self \ other` — up to two disjoint ranges.
    pub fn difference(&self, other: &RowRange) -> Vec<RowRange> {
        let inter = self.intersect(other);
        if inter.is_empty() {
            if self.is_empty() {
                return Vec::new();
            }
            return vec![*self];
        }
        let mut parts = Vec::new();
        if self.begin < inter.begin {
            parts.push(RowRange::new(self.begin, inter.begin));
        }
        if inter.end < self.end {
            parts.push(RowRange::new(inter.end, self.end));
        }
        parts
    }
}

/// Extra detector rows added on each side of the analytically computed range
/// to absorb the f32 rounding of the kernel's projection arithmetic.
const ROW_GUARD: usize = 1;

fn ab_from_extrema(geom: &CbctGeometry, y_min: f64, y_max: f64) -> RowRange {
    // floor(min) .. floor(max)+1 are the rows touched by bilinear
    // interpolation; +1 guard row on each side for f32 rounding.
    let a = (y_min.floor() as i64 - ROW_GUARD as i64).clamp(0, geom.nv as i64) as usize;
    let b = (y_max.floor() as i64 + 2 + ROW_GUARD as i64).clamp(0, geom.nv as i64) as usize;
    RowRange::new(a.min(b), b)
}

/// Algorithm 2: the maximum detector-row range needed to reconstruct slices
/// `[begin_idx, end_idx)` of the volume.
///
/// Projects the corner voxel `(0, 0, ·)` of the first and last slice with
/// the matrices at 135° and 315° — the angles at which that voxel makes its
/// farthest and nearest approach to the source (Figure 5) — and takes
/// floor/ceil of the four detector `v` coordinates. Exact for square
/// footprints, whose corner voxel lies on the diagonal (`(N_x−1)·Δx =
/// (N_y−1)·Δy`, the paper's setting); any other footprint gets
/// [`compute_ab_conservative`]'s bound, so every row a slab samples is in
/// its range.
pub fn compute_ab(geom: &CbctGeometry, begin_idx: usize, end_idx: usize) -> RowRange {
    assert!(begin_idx < end_idx, "empty slab [{begin_idx}, {end_idx})");
    let half = |n: usize, d: f64| n.saturating_sub(1) as f64 * d;
    if half(geom.nx, geom.dx) != half(geom.ny, geom.dy) {
        return compute_ab_conservative(geom, begin_idx, end_idx);
    }
    let m135 = ProjectionMatrix::new(geom, 135f64.to_radians());
    let m315 = ProjectionMatrix::new(geom, 315f64.to_radians());
    let k0 = begin_idx as f64;
    let k1 = (end_idx - 1) as f64;
    let ys = [
        m135.project(0.0, 0.0, k0).1,
        m315.project(0.0, 0.0, k0).1,
        m135.project(0.0, 0.0, k1).1,
        m315.project(0.0, 0.0, k1).1,
    ];
    let y_min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let y_max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    ab_from_extrema(geom, y_min, y_max)
}

/// Conservative variant of [`compute_ab`] that is exact for *any* rectangular
/// footprint: instead of sampling two fixed angles it bounds the depth by
/// `D_so ∓ r` with `r` the footprint radius, which is where the detector `v`
/// magnification is extremal.
pub fn compute_ab_conservative(geom: &CbctGeometry, begin_idx: usize, end_idx: usize) -> RowRange {
    assert!(begin_idx < end_idx, "empty slab [{begin_idx}, {end_idx})");
    let r = geom.footprint_radius();
    let cv = 0.5 * (geom.nv as f64 - 1.0) + geom.sigma_v;
    // |σ_cor| adds to the worst-case lateral reach but not to depth; depth
    // extremes are Dso ± r.
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for k in [begin_idx as f64, (end_idx - 1) as f64] {
        let zw = geom.dz * (k - 0.5 * (geom.nz as f64 - 1.0));
        for depth in [geom.dso - r, geom.dso + r] {
            let v = geom.dsd / geom.dv * (-zw) / depth + cv;
            y_min = y_min.min(v);
            y_max = y_max.max(v);
        }
    }
    ab_from_extrema(geom, y_min, y_max)
}

/// One sub-volume reconstruction task of the decomposition (Figure 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubVolumeTask {
    /// Slab index `i` in `[0, N_n)`.
    pub index: usize,
    /// First global slice of the slab (`i·N_b`).
    pub z_begin: usize,
    /// One past the last global slice (`min((i+1)·N_b, N_z)`).
    pub z_end: usize,
    /// Detector rows required: `a_i b_i` (Eq 4).
    pub rows: RowRange,
    /// Rows *newly* required relative to the previous slab — the
    /// differential update `b_i b_{i+1}` of Eq 6. For slab 0 this equals
    /// `rows`.
    pub new_rows: RowRange,
}

impl SubVolumeTask {
    /// Number of slices in the slab.
    #[inline]
    pub fn nz(&self) -> usize {
        self.z_end - self.z_begin
    }

    /// Eq 5: elements of the partial projections a single rank (out of `nr`
    /// splitting `N_p`) loads for this slab from scratch.
    pub fn size_ab(&self, geom: &CbctGeometry, nr: usize) -> usize {
        geom.nu * (geom.np / nr) * self.rows.len()
    }

    /// Eq 7: elements a single rank loads for the *differential* update.
    pub fn size_bb(&self, geom: &CbctGeometry, nr: usize) -> usize {
        geom.nu * (geom.np / nr) * self.new_rows.len()
    }
}

/// The complete sub-volume decomposition of one volume (or one group's slab
/// of a distributed run): `N_n = ⌈N_z / N_b⌉` tasks with overlap-aware
/// differential row ranges.
#[derive(Clone, Debug)]
pub struct VolumeDecomposition {
    /// Slab thickness `N_b` (slices per sub-volume).
    pub nb: usize,
    /// First global slice covered (0 for a single-node run).
    pub z_begin: usize,
    /// One past the last global slice covered.
    pub z_end: usize,
    tasks: Vec<SubVolumeTask>,
}

impl VolumeDecomposition {
    /// Decomposes global slices `[z_begin, z_end)` into slabs of `nb` slices
    /// (the last slab may be thinner if `nb` does not divide the slice
    /// count).
    ///
    /// # Panics
    /// Panics if `nb == 0` or the slice range is empty/out of bounds.
    pub fn new(geom: &CbctGeometry, z_begin: usize, z_end: usize, nb: usize) -> Self {
        assert!(nb > 0, "slab thickness nb must be positive");
        assert!(
            z_begin < z_end && z_end <= geom.nz,
            "slice range [{z_begin}, {z_end}) invalid for nz={}",
            geom.nz
        );
        let mut tasks = Vec::new();
        let mut prev: Option<RowRange> = None;
        let mut z = z_begin;
        let mut index = 0;
        while z < z_end {
            let zt = (z + nb).min(z_end);
            let rows = compute_ab(geom, z, zt);
            let new_rows = match prev {
                None => rows,
                Some(p) => {
                    let parts = rows.difference(&p);
                    match parts.len() {
                        0 => RowRange::new(rows.begin, rows.begin),
                        1 => parts[0],
                        _ => unreachable!(
                            "row ranges of consecutive slabs move monotonically; \
                             got a two-sided difference"
                        ),
                    }
                }
            };
            tasks.push(SubVolumeTask {
                index,
                z_begin: z,
                z_end: zt,
                rows,
                new_rows,
            });
            prev = Some(rows);
            z = zt;
            index += 1;
        }
        VolumeDecomposition {
            nb,
            z_begin,
            z_end,
            tasks,
        }
    }

    /// Decomposes the full volume (Eq 3: `N_n = N_z / N_b`).
    pub fn full(geom: &CbctGeometry, nb: usize) -> Self {
        Self::new(geom, 0, geom.nz, nb)
    }

    /// Number of sub-volumes `N_n`.
    #[inline]
    pub fn num_subvolumes(&self) -> usize {
        self.tasks.len()
    }

    /// The ordered tasks.
    #[inline]
    pub fn tasks(&self) -> &[SubVolumeTask] {
        &self.tasks
    }

    /// Largest per-slab row-range length — the minimum device window height
    /// `H` that lets Algorithm 3 stream the whole reconstruction.
    pub fn max_rows(&self) -> usize {
        self.tasks.iter().map(|t| t.rows.len()).max().unwrap_or(0)
    }

    /// Total rows loaded with differential updates (Eq 6–7): slab 0's full
    /// range plus each subsequent slab's new rows. Without the overlap reuse
    /// the total would be the sum of all `rows.len()`.
    pub fn total_rows_differential(&self) -> usize {
        self.tasks.iter().map(|t| t.new_rows.len()).sum()
    }

    /// Total rows loaded if every slab reloaded its full range (the Lu et
    /// al. / iFDK baseline behaviour the paper calls redundant).
    pub fn total_rows_full_reload(&self) -> usize {
        self.tasks.iter().map(|t| t.rows.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection_angle;

    fn geom() -> CbctGeometry {
        CbctGeometry::ideal(64, 97, 128, 128)
    }

    /// Brute-force the true row extrema over all scan angles and all voxels
    /// of the slab boundary slices.
    fn brute_force_rows(g: &CbctGeometry, z0: usize, z1: usize) -> (f64, f64) {
        let mut y_min = f64::INFINITY;
        let mut y_max = f64::NEG_INFINITY;
        for s in 0..g.np {
            let m = ProjectionMatrix::new(g, projection_angle(s, g.np));
            for &k in &[z0, z1 - 1] {
                for i in [0, g.nx - 1] {
                    for j in [0, g.ny - 1] {
                        let (_, y, _) = m.project(i as f64, j as f64, k as f64);
                        y_min = y_min.min(y);
                        y_max = y_max.max(y);
                    }
                }
            }
        }
        (y_min, y_max)
    }

    #[test]
    fn compute_ab_covers_brute_force_extrema() {
        let g = geom();
        for (z0, z1) in [(0, 8), (24, 40), (56, 64), (0, 64)] {
            let r = compute_ab(&g, z0, z1);
            let (y_min, y_max) = brute_force_rows(&g, z0, z1);
            assert!(
                (r.begin as f64) <= y_min.max(0.0),
                "slab [{z0},{z1}): begin {} > min {y_min}",
                r.begin
            );
            assert!(
                (r.end as f64) >= (y_max + 1.0).min(g.nv as f64),
                "slab [{z0},{z1}): end {} < max {y_max}",
                r.end
            );
        }
    }

    #[test]
    fn compute_ab_is_tight_within_guard() {
        // The bound should not be grossly larger than the brute-force need.
        let g = geom();
        let r = compute_ab(&g, 28, 36);
        let (y_min, y_max) = brute_force_rows(&g, 28, 36);
        let need = y_max.ceil() - y_min.floor() + 2.0;
        assert!(
            (r.len() as f64) <= need + 2.0 * (ROW_GUARD as f64 + 1.0),
            "range {} vs need {need}",
            r.len()
        );
    }

    #[test]
    fn conservative_contains_literal() {
        let g = geom();
        for (z0, z1) in [(0, 16), (16, 32), (48, 64)] {
            let lit = compute_ab(&g, z0, z1);
            let cons = compute_ab_conservative(&g, z0, z1);
            assert!(cons.begin <= lit.begin && cons.end >= lit.end);
        }
    }

    #[test]
    fn conservative_equals_literal_for_square_footprint() {
        let g = geom();
        for (z0, z1) in [(0, 16), (32, 48)] {
            let lit = compute_ab(&g, z0, z1);
            let cons = compute_ab_conservative(&g, z0, z1);
            // Same analytic extrema; allow ±1 row from floor/ceil edges.
            assert!((lit.begin as i64 - cons.begin as i64).abs() <= 1);
            assert!((lit.end as i64 - cons.end as i64).abs() <= 1);
        }
    }

    #[test]
    fn middle_slab_needs_fewer_rows_than_whole_volume() {
        let g = geom();
        let mid = compute_ab(&g, 28, 36);
        let all = compute_ab(&g, 0, 64);
        assert!(mid.len() < all.len());
        assert!(all.begin <= mid.begin && all.end >= mid.end);
    }

    #[test]
    fn decomposition_covers_all_slices_without_gaps() {
        let g = geom();
        for nb in [4, 8, 16, 64] {
            let d = VolumeDecomposition::full(&g, nb);
            assert_eq!(d.num_subvolumes(), g.nz.div_ceil(nb));
            let mut expect = 0;
            for t in d.tasks() {
                assert_eq!(t.z_begin, expect);
                expect = t.z_end;
                assert!(t.nz() <= nb);
            }
            assert_eq!(expect, g.nz);
        }
    }

    #[test]
    fn ragged_last_slab() {
        let g = geom();
        let d = VolumeDecomposition::full(&g, 24);
        let last = d.tasks().last().unwrap();
        assert_eq!(last.nz(), 64 - 2 * 24);
    }

    #[test]
    fn consecutive_slabs_overlap_and_differential_is_consistent() {
        let g = geom();
        let d = VolumeDecomposition::full(&g, 8);
        for w in d.tasks().windows(2) {
            let (prev, cur) = (&w[0], &w[1]);
            // Overlap exists (Figure 4): the shared area a_{i+1} b_i.
            assert!(!prev.rows.intersect(&cur.rows).is_empty());
            // new_rows ∪ (cur ∩ prev) == cur.rows.
            let inter = cur.rows.intersect(&prev.rows);
            assert_eq!(cur.new_rows.len() + inter.len(), cur.rows.len());
            // new_rows is disjoint from the previous range.
            assert!(cur.new_rows.intersect(&prev.rows).is_empty());
        }
    }

    #[test]
    fn differential_total_is_much_smaller_than_full_reload() {
        let g = geom();
        let d = VolumeDecomposition::full(&g, 4);
        let diff = d.total_rows_differential();
        let full = d.total_rows_full_reload();
        assert!(diff < full, "diff={diff} full={full}");
        // Differential loading never exceeds the detector height by much —
        // each row is loaded at most once (plus guard effects).
        assert!(diff <= g.nv + 4 * d.num_subvolumes());
    }

    #[test]
    fn eq5_eq7_sizes() {
        let g = geom();
        let d = VolumeDecomposition::full(&g, 16);
        let t = &d.tasks()[1];
        let nr = 4;
        assert_eq!(t.size_ab(&g, nr), g.nu * (g.np / nr) * t.rows.len());
        assert_eq!(t.size_bb(&g, nr), g.nu * (g.np / nr) * t.new_rows.len());
        assert!(t.size_bb(&g, nr) < t.size_ab(&g, nr));
    }

    #[test]
    fn max_rows_bounds_every_slab() {
        let g = geom();
        let d = VolumeDecomposition::full(&g, 8);
        let h = d.max_rows();
        assert!(d.tasks().iter().all(|t| t.rows.len() <= h));
        assert!(h <= g.nv);
    }

    #[test]
    fn partial_volume_decomposition_respects_range() {
        let g = geom();
        let d = VolumeDecomposition::new(&g, 16, 48, 8);
        assert_eq!(d.num_subvolumes(), 4);
        assert_eq!(d.tasks()[0].z_begin, 16);
        assert_eq!(d.tasks().last().unwrap().z_end, 48);
    }

    #[test]
    fn row_range_set_operations() {
        let a = RowRange::new(10, 20);
        let b = RowRange::new(15, 30);
        assert_eq!(a.intersect(&b), RowRange::new(15, 20));
        assert_eq!(a.hull(&b), RowRange::new(10, 30));
        assert_eq!(a.difference(&b), vec![RowRange::new(10, 15)]);
        assert_eq!(b.difference(&a), vec![RowRange::new(20, 30)]);
        let c = RowRange::new(0, 5);
        assert_eq!(a.difference(&c), vec![a]);
        assert_eq!(a.difference(&RowRange::new(0, 40)), vec![]);
        let split = RowRange::new(0, 40).difference(&a);
        assert_eq!(split, vec![RowRange::new(0, 10), RowRange::new(20, 40)]);
        assert!(RowRange::new(3, 3).is_empty());
        assert!(a.contains(10) && !a.contains(20));
    }

    #[test]
    #[should_panic(expected = "invalid for nz")]
    fn decomposition_rejects_bad_range() {
        let g = geom();
        let _ = VolumeDecomposition::new(&g, 0, g.nz + 1, 8);
    }
}
