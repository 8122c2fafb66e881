//! Dense `[z][y][x]` volume container, including Z-offset sub-volumes.

/// A dense f32 volume (or sub-volume slab) with `[z][y][x]` layout.
///
/// A *sub-volume* in the paper's sense is simply a `Volume` whose `z_offset`
/// is nonzero: slab `V_i` of the decomposition covers global slices
/// `[z_offset, z_offset + nz)`. The layout means one Z slice is contiguous,
/// which is what the store thread writes and what `MPI_Reduce` segments.
#[derive(Clone, Debug, PartialEq)]
pub struct Volume {
    nx: usize,
    ny: usize,
    nz: usize,
    z_offset: usize,
    data: Vec<f32>,
}

impl Volume {
    /// Allocates a zero-filled volume of `nx × ny × nz` voxels.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Volume {
            nx,
            ny,
            nz,
            z_offset: 0,
            data: vec![0.0; nx * ny * nz],
        }
    }

    /// Allocates a zero-filled sub-volume slab starting at global slice
    /// `z_offset`.
    pub fn zeros_slab(nx: usize, ny: usize, nz: usize, z_offset: usize) -> Self {
        Volume {
            z_offset,
            ..Volume::zeros(nx, ny, nz)
        }
    }

    /// Wraps existing data (length must be `nx·ny·nz`).
    pub fn from_data(nx: usize, ny: usize, nz: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), nx * ny * nz, "volume data length mismatch");
        Volume {
            nx,
            ny,
            nz,
            z_offset: 0,
            data,
        }
    }

    /// Grid extent along X.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }
    /// Grid extent along Y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }
    /// Grid extent along Z (number of local slices).
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }
    /// Global index of the first local slice.
    #[inline]
    pub fn z_offset(&self) -> usize {
        self.z_offset
    }
    /// Total voxel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }
    /// True if the volume holds no voxels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of local voxel `(i, j, k_local)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        (k * self.ny + j) * self.nx + i
    }

    /// Voxel value at local `(i, j, k_local)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        self.data[self.index(i, j, k)]
    }

    /// Mutable voxel reference at local `(i, j, k_local)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize, k: usize) -> &mut f32 {
        let idx = self.index(i, j, k);
        &mut self.data[idx]
    }

    /// The whole voxel buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The whole voxel buffer, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Unwraps the voxel buffer, dropping the shape.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// One contiguous local Z slice.
    pub fn slice(&self, k: usize) -> &[f32] {
        assert!(k < self.nz, "slice {k} out of {}", self.nz);
        let stride = self.nx * self.ny;
        &self.data[k * stride..(k + 1) * stride]
    }

    /// One contiguous local Z slice, mutably.
    pub fn slice_mut(&mut self, k: usize) -> &mut [f32] {
        assert!(k < self.nz, "slice {k} out of {}", self.nz);
        let stride = self.nx * self.ny;
        &mut self.data[k * stride..(k + 1) * stride]
    }

    /// Copies a slab `src` (with its own `z_offset`) into the matching global
    /// slices of `self` (which must contain them).
    pub fn paste_slab(&mut self, src: &Volume) {
        assert_eq!(self.nx, src.nx);
        assert_eq!(self.ny, src.ny);
        let begin = src
            .z_offset
            .checked_sub(self.z_offset)
            .expect("slab starts before destination volume");
        assert!(
            begin + src.nz <= self.nz,
            "slab [{}, {}) exceeds destination [{}, {})",
            src.z_offset,
            src.z_offset + src.nz,
            self.z_offset,
            self.z_offset + self.nz
        );
        let stride = self.nx * self.ny;
        self.data[begin * stride..(begin + src.nz) * stride].copy_from_slice(&src.data);
    }

    /// Element-wise accumulation of another volume of identical shape
    /// (the reduction operator of the segmented `MPI_Reduce`).
    pub fn accumulate(&mut self, other: &Volume) {
        assert_eq!(
            self.data.len(),
            other.data.len(),
            "shape mismatch in accumulate"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Root-mean-square difference between two volumes of identical shape,
    /// computed in f64 (the paper's numerical assessment uses RMSE with a
    /// 1e-5 acceptance threshold).
    pub fn rmse(&self, other: &Volume) -> f64 {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch in rmse");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum();
        (sum / self.data.len() as f64).sqrt()
    }

    /// Maximum-intensity projection along an axis (0 = X, 1 = Y, 2 = Z):
    /// the standard volume-inspection rendering (the paper's Figure 11
    /// visualisations are the 3D-Slicer equivalent). Returns the image as
    /// `(width, height, pixels)` in row-major order.
    pub fn max_intensity_projection(&self, axis: usize) -> (usize, usize, Vec<f32>) {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        let (w, h): (usize, usize) = match axis {
            0 => (self.ny, self.nz),
            1 => (self.nx, self.nz),
            _ => (self.nx, self.ny),
        };
        let mut img = vec![f32::NEG_INFINITY; w * h];
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let v = self.get(i, j, k);
                    let idx = match axis {
                        0 => k * w + j,
                        1 => k * w + i,
                        _ => j * w + i,
                    };
                    if v > img[idx] {
                        img[idx] = v;
                    }
                }
            }
        }
        if self.is_empty() {
            img.fill(0.0);
        }
        (w, h, img)
    }

    /// Maximum absolute voxel difference.
    pub fn max_abs_diff(&self, other: &Volume) -> f32 {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_z_major() {
        let mut v = Volume::zeros(3, 4, 5);
        *v.get_mut(2, 3, 4) = 7.0;
        assert_eq!(v.data()[4 * 12 + 3 * 3 + 2], 7.0);
        assert_eq!(v.get(2, 3, 4), 7.0);
    }

    #[test]
    fn slices_are_contiguous_and_disjoint() {
        let mut v = Volume::zeros(2, 2, 3);
        v.slice_mut(1).fill(5.0);
        assert!(v.slice(0).iter().all(|&x| x == 0.0));
        assert!(v.slice(1).iter().all(|&x| x == 5.0));
        assert!(v.slice(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn paste_slab_places_at_global_offset() {
        let mut dst = Volume::zeros(2, 2, 8);
        let mut slab = Volume::zeros_slab(2, 2, 2, 4);
        slab.data_mut().fill(3.0);
        dst.paste_slab(&slab);
        for k in 0..8 {
            let expect = if (4..6).contains(&k) { 3.0 } else { 0.0 };
            assert!(dst.slice(k).iter().all(|&x| x == expect), "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds destination")]
    fn paste_slab_rejects_overflow() {
        let mut dst = Volume::zeros(2, 2, 4);
        let slab = Volume::zeros_slab(2, 2, 3, 2);
        dst.paste_slab(&slab);
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let mut a = Volume::from_data(2, 1, 1, vec![1.0, 2.0]);
        let b = Volume::from_data(2, 1, 1, vec![10.0, 20.0]);
        a.accumulate(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
    }

    #[test]
    fn rmse_and_max_diff() {
        let a = Volume::from_data(2, 2, 1, vec![0.0, 0.0, 0.0, 0.0]);
        let b = Volume::from_data(2, 2, 1, vec![1.0, -1.0, 1.0, -1.0]);
        assert!((a.rmse(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.rmse(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_data_rejects_bad_length() {
        let _ = Volume::from_data(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn mip_projects_the_brightest_voxel() {
        let mut v = Volume::zeros(3, 4, 5);
        *v.get_mut(1, 2, 3) = 9.0;
        *v.get_mut(1, 2, 0) = 4.0;
        let (w, h, z_img) = v.max_intensity_projection(2);
        assert_eq!((w, h), (3, 4));
        assert_eq!(z_img[2 * 3 + 1], 9.0); // (i=1, j=2)
        assert_eq!(z_img[0], 0.0);
        let (w, h, x_img) = v.max_intensity_projection(0);
        assert_eq!((w, h), (4, 5));
        assert_eq!(x_img[3 * 4 + 2], 9.0); // (j=2, k=3)
        let (w, h, y_img) = v.max_intensity_projection(1);
        assert_eq!((w, h), (3, 5));
        assert_eq!(y_img[3 * 3 + 1], 9.0); // (i=1, k=3)
        assert_eq!(y_img[1], 4.0); // (i=1, k=0)
    }

    #[test]
    #[should_panic(expected = "axis must be")]
    fn mip_rejects_bad_axis() {
        let _ = Volume::zeros(2, 2, 2).max_intensity_projection(3);
    }

    #[test]
    fn empty_volume() {
        let v = Volume::zeros(0, 4, 4);
        assert!(v.is_empty());
        assert_eq!(v.rmse(&v), 0.0);
    }
}
