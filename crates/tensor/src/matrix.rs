//! A row-major dense `f64` matrix and the handful of BLAS-like kernels the
//! K-FAC reproduction needs.
//!
//! Products ([`Matrix::matmul`], the transpose-free [`Matrix::matmul_nt`] /
//! [`Matrix::matmul_tn`] variants) and symmetric rank-k accumulations
//! ([`Matrix::gramian`], [`Matrix::syrk_nt`]) are calls into the level-3
//! core in [`crate::gemm`]; results are bit-identical for any
//! `SPDKFAC_THREADS` setting (see [`crate::pool`] for the determinism
//! contract).
//!
//! A kernel the trainer runs every iteration has an `_into` form that
//! writes into a caller-kept matrix, reshaping it and reusing its storage
//! (no allocation once the storage is large enough); the allocating form
//! is that call on an empty matrix, so the two give the same bits.

use crate::error::TensorError;
use crate::gemm::{self, Mask, Operand};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense, row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this matrix's storage (no allocation when it
    /// is large enough).
    fn clone_from(&mut self, source: &Self) {
        (self.rows, self.cols) = source.shape();
        self.data.clone_from(&source.data);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            if self.cols > max_show {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes to `rows × cols` of zeros, reusing the storage when it is
    /// large enough (a fresh zeroed allocation otherwise).
    fn reset_zeros(&mut self, rows: usize, cols: usize) {
        if self.data.capacity() < rows * cols {
            *self = Matrix::zeros(rows, cols);
        } else {
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
            (self.rows, self.cols) = (rows, cols);
        }
    }

    /// Reshapes to `rows × cols`, reusing the storage when it is large
    /// enough; the contents are unspecified, for a caller that overwrites
    /// every element.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that owns `data`, interpreted row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a square diagonal matrix from its diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole matrix as an operand of the level-3 core.
    fn operand(&self) -> Operand<'_> {
        Operand::new(&self.data, self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Dense matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`; use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul: shape mismatch")
    }

    /// Fallible matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        Ok(out)
    }

    /// [`Matrix::matmul`] into `out`, reshaped to the product's shape.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: shape mismatch {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (a, b) = (self.operand(), rhs.operand());
        product_into(self.rows, self.cols, rhs.cols, a, b, Mask::Full, out);
    }

    /// Transpose-free product `self · rhsᵀ`.
    ///
    /// Equivalent to `self.matmul(&rhs.transpose())` without materialising
    /// the transpose: the GEMM packing routine reads `rhs` column-wise.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: shape mismatch {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (a, b) = (self.operand(), rhs.operand().t());
        let mut out = Matrix::zeros(0, 0);
        product_into(self.rows, self.cols, rhs.rows, a, b, Mask::Full, &mut out);
        out
    }

    /// Transpose-free product `selfᵀ · rhs`.
    ///
    /// Equivalent to `self.transpose().matmul(rhs)` without materialising
    /// the transpose: the GEMM packing routine reads `self` column-wise.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into `out`, reshaped to the product's shape.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: shape mismatch ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (a, b) = (self.operand().t(), rhs.operand());
        product_into(self.cols, self.rows, rhs.cols, a, b, Mask::Full, out);
    }

    /// Gramian `selfᵀ · self` exploiting symmetry (computes the lower triangle
    /// at half the FLOPs of the equivalent GEMM and mirrors it).
    ///
    /// This is the kernel behind the Kronecker-factor computations
    /// `A = E[a aᵀ]` and `G = E[g gᵀ]` (Eq. 7/8), where the rows of `self`
    /// are per-sample activation / gradient vectors.
    pub fn gramian(&self) -> Matrix {
        self.gramian_scaled(1.0)
    }

    /// Symmetric rank-k product `self · selfᵀ` (the `AAᵀ` companion of
    /// [`Matrix::gramian`]) at half the FLOPs of the equivalent GEMM.
    pub fn syrk_nt(&self) -> Matrix {
        let x = self.operand();
        let mut g = Matrix::zeros(0, 0);
        product_into(
            self.rows,
            self.cols,
            self.rows,
            x,
            x.t(),
            Mask::Lower,
            &mut g,
        );
        gemm::mirror_lower(&mut g.data, self.rows);
        g
    }

    /// Gramian scaled by `1/scale`: `selfᵀ·self / scale`.
    ///
    /// K-FAC averages the factor statistics over the mini-batch (and over the
    /// spatial positions for convolutions), so this saves a second pass.
    pub fn gramian_scaled(&self, scale: f64) -> Matrix {
        let x = self.operand();
        let mut g = Matrix::zeros(0, 0);
        product_into(
            self.cols,
            self.rows,
            self.cols,
            x.t(),
            x,
            Mask::Lower,
            &mut g,
        );
        gemm::mirror_lower(&mut g.data, self.cols);
        if scale != 1.0 {
            g.scale(1.0 / scale);
        }
        g
    }

    /// [`Matrix::gramian_scaled`]'s upper triangle, bit for bit, packed
    /// ([`crate::SymPacked`] layout) into `dst` — e.g. a statistic's slice
    /// of its factor message. Only the tiles on or above the diagonal are
    /// computed ([`Mask::Upper`]), in `scratch` (reshaped to
    /// `cols × cols`; its lower triangle is left unspecified), and the
    /// scale is applied while packing: no mirror pass, no full-matrix
    /// scale pass, and no allocation once `scratch` is large enough.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `cols(cols+1)/2` long.
    pub fn gramian_packed_into(&self, scale: f64, scratch: &mut Matrix, dst: &mut [f64]) {
        let d = self.cols;
        assert_eq!(
            dst.len(),
            crate::sym::packed_len(d),
            "gramian_packed_into: {} elements for the triangle of dim {d}",
            dst.len()
        );
        scratch.reshape_for_overwrite(d, d);
        // Every tile holding an element of the upper triangle is written.
        let x = self.operand();
        gemm::gemm_overwrite(
            1.0,
            d,
            self.rows,
            d,
            x.t(),
            x,
            &mut scratch.data,
            d,
            Mask::Upper,
        );
        let inv = 1.0 / scale;
        let mut rest = dst;
        for (i, row) in scratch.data.chunks_exact(d.max(1)).enumerate() {
            let (packed, tail) = rest.split_at_mut(d - i);
            for (p, &v) in packed.iter_mut().zip(&row[i..]) {
                *p = v * inv;
            }
            rest = tail;
        }
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: length mismatch");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Adds `gamma · I` in place (Tikhonov damping, Eq. 12).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_scaled_identity(&mut self, gamma: f64) {
        assert!(self.is_square(), "add_scaled_identity requires square");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += gamma;
        }
    }

    /// Returns a damped copy `self + gamma · I`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn damped(&self, gamma: f64) -> Matrix {
        let mut m = Matrix::zeros(0, 0);
        self.damped_into(gamma, &mut m);
        m
    }

    /// [`Matrix::damped`] into `out` (its storage reused).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn damped_into(&self, gamma: f64, out: &mut Matrix) {
        out.clone_from(self);
        out.add_scaled_identity(gamma);
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self += alpha * other`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Exponential moving average update used for running factor statistics:
    /// `self = decay * self + (1 - decay) * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn ema_update(&mut self, decay: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "ema_update: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = ema(decay, *a, b);
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires square");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Largest absolute element-wise difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute asymmetry `|a_ij - a_ji|`.
    ///
    /// Returns `0.0` for perfectly symmetric matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires square");
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Forces exact symmetry by averaging with the transpose, in place.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                let (n, c) = (self.rows, self.cols);
                let _ = n;
                self.data[i * c + j] = avg;
                self.data[j * c + i] = avg;
            }
        }
    }
}

/// The tiles `mask` keeps of `op(a) · op(b)` (`m × k` times `k × n`), into
/// `out` reshaped to `m × n` (zero elsewhere).
fn product_into(
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
    mask: Mask,
    out: &mut Matrix,
) {
    if mask == Mask::Full {
        out.reshape_for_overwrite(m, n);
        gemm::gemm_overwrite(1.0, m, k, n, a, b, &mut out.data, n, mask);
    } else {
        out.reset_zeros(m, n);
        gemm::gemm(1.0, m, k, n, a, b, &mut out.data, n, mask);
    }
}

/// One exponential-moving-average step: `decay · a + (1 − decay) · b`.
pub fn ema(decay: f64, a: f64, b: f64) -> f64 {
    decay * a + (1.0 - decay) * b
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = MatrixRng::new(7);
        let a = rng.uniform_matrix(5, 9, -1.0, 1.0);
        assert_eq!(a.matmul(&Matrix::identity(9)), a);
        assert_eq!(Matrix::identity(5).matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular_matches_naive() {
        let mut rng = MatrixRng::new(11);
        let a = rng.uniform_matrix(13, 70, -2.0, 2.0);
        let b = rng.uniform_matrix(70, 29, -2.0, 2.0);
        let c = a.matmul(&b);
        // Naive reference.
        let mut naive = Matrix::zeros(13, 29);
        for i in 0..13 {
            for j in 0..29 {
                let mut s = 0.0;
                for k in 0..70 {
                    s += a[(i, k)] * b[(k, j)];
                }
                naive[(i, j)] = s;
            }
        }
        assert!(c.max_abs_diff(&naive) < 1e-12);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = MatrixRng::new(21);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (64, 32, 48),
            (130, 70, 90),
        ] {
            let a = rng.uniform_matrix(m, k, -2.0, 2.0);
            let b = rng.uniform_matrix(n, k, -2.0, 2.0);
            let explicit = a.matmul(&b.transpose());
            let fused = a.matmul_nt(&b);
            assert!(
                fused.max_abs_diff(&explicit) < 1e-12,
                "matmul_nt mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = MatrixRng::new(22);
        for (m, k, n) in [(1usize, 1usize, 1usize), (5, 7, 3), (70, 33, 65)] {
            let a = rng.uniform_matrix(k, m, -2.0, 2.0);
            let b = rng.uniform_matrix(k, n, -2.0, 2.0);
            let explicit = a.transpose().matmul(&b);
            let fused = a.matmul_tn(&b);
            assert!(
                fused.max_abs_diff(&explicit) < 1e-12,
                "matmul_tn mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn syrk_nt_matches_explicit_transpose() {
        let mut rng = MatrixRng::new(23);
        for (n, d) in [(1usize, 1usize), (6, 9), (65, 40)] {
            let x = rng.uniform_matrix(n, d, -2.0, 2.0);
            let explicit = x.matmul(&x.transpose());
            let fused = x.syrk_nt();
            assert!(
                fused.max_abs_diff(&explicit) < 1e-12,
                "syrk_nt mismatch at {n}x{d}"
            );
            assert_eq!(fused.max_asymmetry(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "matmul_nt: shape mismatch")]
    fn matmul_nt_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn: shape mismatch")]
    fn matmul_tn_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            a.try_matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn gramian_matches_explicit_transpose_product() {
        let mut rng = MatrixRng::new(3);
        let x = rng.uniform_matrix(17, 6, -1.0, 1.0);
        let g = x.gramian();
        let explicit = x.transpose().matmul(&x);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
        assert_eq!(g.max_asymmetry(), 0.0);
    }

    #[test]
    fn gramian_scaled_divides() {
        let x = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let g = x.gramian_scaled(4.0);
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(1, 1)], 1.0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = MatrixRng::new(5);
        let a = rng.uniform_matrix(4, 7, -1.0, 1.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = MatrixRng::new(9);
        let a = rng.uniform_matrix(6, 4, -1.0, 1.0);
        let v: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let mv = a.matvec(&v);
        let col = Matrix::from_vec(4, 1, v);
        let ref_col = a.matmul(&col);
        for (i, &x) in mv.iter().enumerate() {
            assert!((x - ref_col[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn damping_adds_identity() {
        let a = Matrix::zeros(3, 3);
        let d = a.damped(0.5);
        assert_eq!(d.trace(), 1.5);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn ema_update_converges_to_target() {
        let target = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut running = Matrix::zeros(2, 2);
        for _ in 0..2000 {
            running.ema_update(0.95, &target);
        }
        assert!(running.max_abs_diff(&target) < 1e-10);
    }

    #[test]
    fn symmetrize_fixes_asymmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert!(a.max_asymmetry() > 0.0);
        a.symmetrize();
        assert_eq!(a.max_asymmetry(), 0.0);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn operator_overloads() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }
}
