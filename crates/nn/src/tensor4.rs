//! A minimal 4-D tensor in `(N, C, H, W)` layout.

use spdkfac_tensor::Matrix;

/// A dense `f64` tensor with batch/channel/height/width axes, row-major in
/// that order — the activation format flowing between layers.
///
/// # Example
///
/// ```
/// use spdkfac_nn::Tensor4;
///
/// let mut t = Tensor4::zeros(2, 3, 4, 4);
/// *t.at_mut(1, 2, 3, 0) = 5.0;
/// assert_eq!(t.at(1, 2, 3, 0), 5.0);
/// assert_eq!(t.numel(), 96);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f64>,
}

impl Tensor4 {
    /// Creates a zero-filled tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n*c*h*w`.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            n * c * h * w,
            "Tensor4::from_vec: length mismatch"
        );
        Tensor4 { n, c, h, w, data }
    }

    /// Overwrites this tensor with the concatenated `samples` as shape
    /// `(n, c, h, w)`, reusing its storage.
    ///
    /// # Panics
    ///
    /// Panics unless the samples hold `n * c * h * w` values.
    pub fn assign<'a>(
        &mut self,
        (n, c, h, w): (usize, usize, usize, usize),
        samples: impl IntoIterator<Item = &'a [f64]>,
    ) {
        (self.n, self.c, self.h, self.w) = (n, c, h, w);
        self.data.clear();
        self.data.extend(samples.into_iter().flatten());
        assert_eq!(
            self.data.len(),
            n * c * h * w,
            "Tensor4::assign: length mismatch"
        );
    }

    /// Builds a flat `(N, D, 1, 1)` tensor from a row-major `N × D` matrix.
    pub fn from_matrix(m: &Matrix) -> Self {
        Tensor4::from_vec(m.rows(), m.cols(), 1, 1, m.as_slice().to_vec())
    }

    /// Batch size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channels `C`.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height `H`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width `W`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(N, C, H, W)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Number of features per sample, `C·H·W`.
    pub fn features(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "Tensor4 index out of bounds"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Element accessor.
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f64 {
        self.data[self.idx(n, c, h, w)]
    }

    /// Mutable element accessor.
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f64 {
        let i = self.idx(n, c, h, w);
        &mut self.data[i]
    }

    /// Borrow the flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow sample `n`'s features as a contiguous slice of length
    /// [`Tensor4::features`].
    pub fn sample(&self, n: usize) -> &[f64] {
        let f = self.features();
        &self.data[n * f..(n + 1) * f]
    }

    /// View as an `N × (C·H·W)` matrix (copies).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.n, self.features(), self.data.clone())
    }

    /// Reinterprets the same buffer with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(self, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        assert_eq!(self.numel(), n * c * h * w, "reshape: volume mismatch");
        Tensor4 {
            n,
            c,
            h,
            w,
            data: self.data,
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor4 {
        Tensor4 {
            n: self.n,
            c: self.c,
            h: self.h,
            w: self.w,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Largest absolute element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor4) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_nchw() {
        let mut t = Tensor4::zeros(2, 2, 2, 2);
        *t.at_mut(0, 0, 0, 1) = 1.0;
        *t.at_mut(1, 1, 1, 1) = 2.0;
        assert_eq!(t.as_slice()[1], 1.0);
        assert_eq!(t.as_slice()[15], 2.0);
    }

    #[test]
    fn sample_slices_are_disjoint_and_ordered() {
        let t = Tensor4::from_vec(2, 1, 2, 1, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sample(0), &[1.0, 2.0]);
        assert_eq!(t.sample(1), &[3.0, 4.0]);
    }

    #[test]
    fn matrix_roundtrip() {
        let t = Tensor4::from_vec(2, 3, 1, 1, vec![1., 2., 3., 4., 5., 6.]);
        let m = t.to_matrix();
        assert_eq!(m.shape(), (2, 3));
        let back = Tensor4::from_matrix(&m);
        assert_eq!(back, t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor4::from_vec(1, 4, 1, 1, vec![1., 2., 3., 4.]);
        let r = t.clone().reshape(1, 1, 2, 2);
        assert_eq!(r.at(0, 0, 1, 0), 3.0);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "volume mismatch")]
    fn reshape_rejects_bad_volume() {
        let _ = Tensor4::zeros(1, 2, 2, 2).reshape(1, 3, 1, 1);
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor4::from_vec(1, 1, 1, 3, vec![-1.0, 0.0, 2.0]);
        let r = t.map(|v| v.max(0.0));
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
