//! Packed upper-triangle storage for symmetric matrices.
//!
//! The Kronecker factors `A` and `G` (and their inverses) are symmetric, so
//! the paper only ever communicates the `d(d+1)/2` upper-triangle elements
//! (§III-A counts factor traffic this way; §V-B broadcasts inverses this
//! way). [`SymPacked`] is that wire format: a flat buffer that all-reduce and
//! broadcast operate on directly, and the form in which a checkpoint
//! carries a running factor. The trainers keep a running factor in the
//! upper triangle of the square its Cholesky factor lives in
//! (`spdkfac_core::factors`), folding a landing message's rows straight
//! into it.

use crate::gemm::mirror_upper;
use crate::matrix::Matrix;

/// A symmetric `d × d` matrix stored as its packed upper triangle
/// (row-major: `(0,0), (0,1), …, (0,d-1), (1,1), …`).
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, SymPacked};
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]);
/// let p = SymPacked::from_matrix(&m);
/// assert_eq!(p.len(), 3); // d(d+1)/2
/// assert_eq!(p.to_matrix(), m);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymPacked {
    dim: usize,
    data: Vec<f64>,
}

/// Number of packed elements for a symmetric `d × d` matrix: `d(d+1)/2`.
///
/// This is the element count the paper uses for every communication-volume
/// estimate (Eq. 15 context, Eq. 27, Table II).
pub const fn packed_len(d: usize) -> usize {
    d * (d + 1) / 2
}

impl SymPacked {
    /// Creates a zero-filled packed matrix of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SymPacked {
            dim,
            data: vec![0.0; packed_len(dim)],
        }
    }

    /// Packs the upper triangle of a square matrix.
    ///
    /// Only the upper triangle (including the diagonal) of `m` is read; any
    /// asymmetry in the lower triangle is discarded.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn from_matrix(m: &Matrix) -> Self {
        assert!(m.is_square(), "SymPacked::from_matrix requires square");
        let d = m.rows();
        let mut data = Vec::with_capacity(packed_len(d));
        for i in 0..d {
            data.extend_from_slice(&m.row(i)[i..]);
        }
        SymPacked { dim: d, data }
    }

    /// Wraps an existing packed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != dim*(dim+1)/2`.
    pub fn from_vec(dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            packed_len(dim),
            "SymPacked::from_vec: buffer length mismatch for dim {dim}"
        );
        SymPacked { dim, data }
    }

    /// Matrix dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of packed elements, `d(d+1)/2`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when `dim == 0`.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the packed buffer (the bytes that go on the wire).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the packed buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes self and returns the packed buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Flat index of element `(i, j)` with `i ≤ j`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if indices are out of range. Callers may pass `(j, i)`
    /// with `j > i`; the symmetric element is resolved automatically.
    #[inline]
    fn flat(&self, i: usize, j: usize) -> usize {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        debug_assert!(j < self.dim, "SymPacked index out of bounds");
        // Row i starts after rows 0..i, which hold (d) + (d-1) + … + (d-i+1)
        // elements = i*d - i(i-1)/2.
        i * self.dim - i * (i.saturating_sub(1)) / 2 + (j - i)
    }

    /// Element accessor honouring symmetry.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[self.flat(i, j)]
    }

    /// Element setter honouring symmetry.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = self.flat(i, j);
        self.data[idx] = v;
    }

    /// Expands back to a full dense symmetric matrix.
    pub fn to_matrix(&self) -> Matrix {
        SymPacked::unpack(self.dim, &self.data)
    }

    /// Expands a borrowed packed upper triangle — e.g. one tensor's slice of
    /// a fused all-reduce payload — straight into a dense symmetric matrix,
    /// without first copying it into an owned [`SymPacked`].
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != dim*(dim+1)/2`.
    pub fn unpack(dim: usize, packed: &[f64]) -> Matrix {
        assert_eq!(
            packed.len(),
            packed_len(dim),
            "SymPacked::unpack: buffer length mismatch for dim {dim}"
        );
        // The packed rows into the upper triangle in order, then mirrored
        // onto the lower one in tile pairs: both walked contiguously.
        let mut m = Matrix::zeros(dim, dim);
        let out = m.as_mut_slice();
        let mut rest = packed;
        for i in 0..dim {
            let (row, tail) = rest.split_at(dim - i);
            out[i * dim + i..(i + 1) * dim].copy_from_slice(row);
            rest = tail;
        }
        mirror_upper(out, dim);
        m
    }

    /// `self += alpha * other`, element-wise on the packed buffers (what a
    /// reduce does on the wire).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &SymPacked) {
        assert_eq!(self.dim, other.dim, "SymPacked::axpy: dim mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales all packed elements.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Averages a non-empty set of packed matrices — the semantics of the
    /// factor all-reduce in Eq. 13 (`(1/P) Σ_p A^p`).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or dimensions disagree.
    pub fn average(parts: &[SymPacked]) -> SymPacked {
        assert!(!parts.is_empty(), "SymPacked::average: empty input");
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc.axpy(1.0, p);
        }
        acc.scale(1.0 / parts.len() as f64);
        acc
    }
}

impl From<&Matrix> for SymPacked {
    fn from(m: &Matrix) -> Self {
        SymPacked::from_matrix(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;

    fn random_sym(d: usize, seed: u64) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(d + 2, d);
        x.gramian()
    }

    #[test]
    fn packed_len_formula() {
        assert_eq!(packed_len(0), 0);
        assert_eq!(packed_len(1), 1);
        assert_eq!(packed_len(64), 2080); // Fig. 3 smallest ResNet-50 factor
        assert_eq!(packed_len(4608), 10_619_136); // Fig. 3 largest
    }

    #[test]
    fn roundtrip_matrix() {
        for d in [1, 2, 3, 9, 24] {
            let m = random_sym(d, d as u64);
            let p = SymPacked::from_matrix(&m);
            assert_eq!(p.len(), packed_len(d));
            assert!(p.to_matrix().max_abs_diff(&m) < 1e-15);
        }
    }

    #[test]
    fn unpack_from_slice_matches_to_matrix() {
        // Two tensors back to back, as in a fused factor bucket; the
        // first spans three tile rows of the mirror.
        let a = SymPacked::from_matrix(&random_sym(70, 3));
        let b = SymPacked::from_matrix(&random_sym(4, 5));
        let fused = [a.as_slice(), b.as_slice()].concat();
        let (head, tail) = fused.split_at(a.len());
        // Element-wise oracle, independent of `unpack`.
        let dense = |p: &SymPacked| Matrix::from_fn(p.dim(), p.dim(), |i, j| p.get(i, j));
        assert_eq!(SymPacked::unpack(70, head), dense(&a));
        assert_eq!(SymPacked::unpack(4, tail), dense(&b));
        assert_eq!(SymPacked::unpack(0, &[]).shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn unpack_validates_length() {
        let _ = SymPacked::unpack(3, &[0.0; 5]);
    }

    #[test]
    fn get_honours_symmetry() {
        let m = random_sym(5, 77);
        let p = SymPacked::from_matrix(&m);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(p.get(i, j), p.get(j, i));
                assert_eq!(p.get(i, j), m[(i, j)]);
            }
        }
    }

    #[test]
    fn set_updates_both_orientations() {
        let mut p = SymPacked::zeros(4);
        p.set(3, 1, 2.5);
        assert_eq!(p.get(1, 3), 2.5);
        assert_eq!(p.get(3, 1), 2.5);
    }

    #[test]
    fn average_matches_dense_average() {
        let parts: Vec<SymPacked> = (0..4)
            .map(|s| SymPacked::from_matrix(&random_sym(6, 200 + s)))
            .collect();
        let avg = SymPacked::average(&parts);
        let mut dense = Matrix::zeros(6, 6);
        for p in &parts {
            dense.axpy(0.25, &p.to_matrix());
        }
        assert!(avg.to_matrix().max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn axpy_and_scale() {
        let a = SymPacked::from_matrix(&Matrix::identity(3));
        let mut b = SymPacked::zeros(3);
        b.axpy(2.0, &a);
        b.scale(0.5);
        assert!(b.to_matrix().max_abs_diff(&Matrix::identity(3)) < 1e-15);
    }

    #[test]
    fn zero_dim_is_empty() {
        let p = SymPacked::zeros(0);
        assert!(p.is_empty());
        assert_eq!(p.to_matrix().shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_validates_length() {
        let _ = SymPacked::from_vec(3, vec![0.0; 5]);
    }
}
