//! Cholesky factorization and SPD inversion.
//!
//! The paper inverts every damped Kronecker factor `(A + γI)` and `(G + γI)`
//! with cuSolver's Cholesky path (§V-B). This module is the CPU analogue:
//! `LLᵀ` factorization ([`cholesky`]), triangular solves, and a full SPD
//! inverse ([`spd_inverse`]) via inversion of the triangular factor — the
//! POTRF + POTRI (= TRTRI + LAUUM) sequence. It is blocked so that all but
//! `O(n · nb²)` of the FLOPs are calls into the level-3 core
//! ([`crate::gemm::gemm`]), and runs in place: one `n × n` buffer holds
//! `A`'s lower triangle, then `L`, then `M = L⁻¹`, then `A⁻¹`.
//!
//! | step | per block `I = [i0, i1)`, top to bottom | core calls |
//! |---|---|---|
//! | POTRF | factor `L[I,I]` unblocked, invert it | — |
//! | | panel `L[i1:,I] = A[i1:,I] · L[I,I]⁻ᵀ` | 1 |
//! | | trailing `A[i1:,i1:] −= L[i1:,I] · L[i1:,I]ᵀ` | 1, [`Mask::Lower`] |
//! | TRTRI | `M[I,I] = L[I,I]⁻¹` unblocked; `P = −M[I,I] · L[I,0:i0]` | 1 |
//! | | `M[I,J] = P[:,j0:i0] · M[j0:i0,J]` for each block `J` left of `I` | `i0 / nb` |
//! | LAUUM | `A⁻¹[I,0:i1] = M[I,I]ᵀ · M[I,0:i1] + M[i1:,I]ᵀ · M[i1:,0:i1]`, then mirror | 2 |
//!
//! Depth ranges are clipped to the triangles (`M[p,J] = 0` for `p < j0`,
//! `M[p,I] = 0` for `p < i0`). An operand that shares rows with the block
//! being written (the solved panel, `P`, `M[I,0:i1]`) goes through a
//! per-thread scratch of `nb × nb + n × nb` elements, kept across calls
//! (it only ever grows); everything else is read where it lies, so a warm
//! [`spd_inverse_in_place`] allocates nothing. The core keeps results
//! bit-identical for any `SPDKFAC_THREADS` and across AVX2 / AVX-512 hosts.
//! [`cholesky_unblocked`] and [`Cholesky::inverse_unblocked`] are the
//! leaf kernels (diagonal blocks, matrices of at most one block) run on
//! the whole matrix: the oracles of the parity tests.

use crate::error::TensorError;
use crate::gemm::{gemm, mirror_lower, Mask, Operand};
use crate::matrix::Matrix;
use std::cell::RefCell;

/// Block edge of the factorization and the inverse; matrices up to this
/// size use the unblocked kernels.
pub const CHOL_NB: usize = 24;

thread_local! {
    /// This thread's working storage of the blocked kernels (see the
    /// module docs): grown to the largest matrix seen, never freed.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's scratch, grown to what an `n × n` matrix at
/// block edge `nb` needs.
fn with_scratch<R>(n: usize, nb: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let len = nb.min(n) * (nb.min(n) + n);
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch[..len])
    })
}

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Produced by [`cholesky`]; provides solves and the SPD inverse.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

/// Computes the Cholesky factorization `A = L Lᵀ` of a symmetric positive
/// definite matrix.
///
/// Only the lower triangle of `a` is read, so numerically-slightly-asymmetric
/// inputs are accepted (the upper triangle is ignored).
///
/// # Errors
///
/// - [`TensorError::NotSquare`] if `a` is rectangular.
/// - [`TensorError::NotPositiveDefinite`] if a non-positive pivot appears.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, chol::cholesky};
///
/// # fn main() -> Result<(), spdkfac_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = cholesky(&a)?;
/// let rebuilt = ch.factor().matmul(&ch.factor().transpose());
/// assert!(rebuilt.max_abs_diff(&a) < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn cholesky(a: &Matrix) -> Result<Cholesky, TensorError> {
    cholesky_with_block(a, CHOL_NB)
}

/// The seed factorization: serial unblocked column-by-column `LLᵀ`.
///
/// The leaf of [`cholesky`] for diagonal blocks and matrices of at most one
/// block, and the oracle of the parity tests.
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn cholesky_unblocked(a: &Matrix) -> Result<Cholesky, TensorError> {
    cholesky_with_block(a, a.rows().max(1))
}

/// Blocked right-looking Cholesky with an explicit block edge `nb`.
///
/// Exposed (rather than hard-wiring [`cholesky`]'s default) so tests can
/// force the blocked code path on small matrices. Matrices with
/// `n <= nb` are one unblocked block.
///
/// # Errors
///
/// Same contract as [`cholesky`].
///
/// # Panics
///
/// Panics if `nb == 0`.
pub fn cholesky_with_block(a: &Matrix, nb: usize) -> Result<Cholesky, TensorError> {
    assert!(nb >= 1, "cholesky_with_block: block edge must be positive");
    let mut l = a.clone();
    potrf(&mut l, nb)?;
    Ok(Cholesky { l })
}

/// Factors the SPD matrix in `w` in place: on success `w` holds `L` with a
/// zero upper triangle (only the lower triangle of `A` is read).
fn potrf(w: &mut Matrix, nb: usize) -> Result<(), TensorError> {
    if !w.is_square() {
        return Err(TensorError::NotSquare {
            op: "cholesky",
            shape: w.shape(),
        });
    }
    let n = w.rows();
    let w = w.as_mut_slice();
    with_scratch(n, nb, |scratch| {
        let (dinv, panel) = scratch.split_at_mut(nb.min(n) * nb.min(n));
        for j0 in (0..n).step_by(nb) {
            let j1 = (j0 + nb).min(n);
            let (bw, below) = (j1 - j0, n - j1);
            potf2(&mut w[j0 * n + j0..], n, bw)
                .map_err(|pivot| TensorError::NotPositiveDefinite { pivot: j0 + pivot })?;
            if below == 0 {
                break;
            }
            let dinv = &mut dinv[..bw * bw];
            dinv.fill(0.0);
            trti2(&w[j0 * n + j0..], n, dinv, bw, bw);
            // Panel solve L21 · L11ᵀ = A21 as a product with L11⁻ᵀ.
            let panel = &mut panel[..below * bw];
            panel.fill(0.0);
            let (a21, l11_inv) = (Operand::new(&w[j1 * n + j0..], n), Operand::new(dinv, bw));
            gemm(1.0, below, bw, bw, a21, l11_inv.t(), panel, bw, Mask::Full);
            for (wrow, prow) in w[j1 * n + j0..].chunks_mut(n).zip(panel.chunks(bw)) {
                wrow[..bw].copy_from_slice(prow);
            }
            // Trailing update A22 −= L21 · L21ᵀ, lower-triangle tiles only.
            let l21 = Operand::new(panel, bw);
            let a22 = &mut w[j1 * n + j1..];
            gemm(-1.0, below, bw, below, l21, l21.t(), a22, n, Mask::Lower);
        }
        Ok(())
    })?;
    // The upper triangle still holds `A`, and trailing-update tiles that
    // straddle the diagonal spilled above it.
    for i in 0..n {
        w[i * n + i + 1..(i + 1) * n].fill(0.0);
    }
    Ok(())
}

/// Unblocked in-place `LLᵀ` of the `n × n` block at the start of `w` (rows
/// `ld` apart; only the lower triangle is read or written). `Err` carries
/// the block-local index of the first non-positive or non-finite pivot.
fn potf2(w: &mut [f64], ld: usize, n: usize) -> Result<(), usize> {
    for j in 0..n {
        // (The slice may end with the block's last row, short of `ld`.)
        let (above, below) = w.split_at_mut(((j + 1) * ld).min(w.len()));
        let rowj = &mut above[j * ld..=j * ld + j];
        let d = rowj[..j].iter().fold(rowj[j], |d, &v| d - v * v);
        if d <= 0.0 || !d.is_finite() {
            return Err(j);
        }
        let dj = d.sqrt();
        rowj[j] = dj;
        for rowi in below.chunks_mut(ld).take(n - j - 1) {
            let s = rowi[..j]
                .iter()
                .zip(&rowj[..j])
                .fold(rowi[j], |s, (&x, &y)| s - x * y);
            rowi[j] = s / dj;
        }
    }
    Ok(())
}

/// Unblocked inverse of the lower-triangular `n × n` block at the start of
/// `l` into the block at the start of `m` (which must be zero on entry;
/// only its lower triangle is written).
fn trti2(l: &[f64], ldl: usize, m: &mut [f64], ldm: usize, n: usize) {
    for i in 0..n {
        let (done, rest) = m.split_at_mut(i * ldm);
        let (li, mi) = (&l[i * ldl..=i * ldl + i], &mut rest[..=i]);
        // Row i of −L[i,i]·M is Σ_k L[i,k]·(row k of M), k < i.
        for (k, &lik) in li[..i].iter().enumerate() {
            for (s, &mkj) in mi.iter_mut().zip(&done[k * ldm..=k * ldm + k]) {
                *s += lik * mkj;
            }
        }
        for s in &mut mi[..i] {
            *s = -*s / li[i];
        }
        mi[i] = 1.0 / li[i];
    }
}

/// Turns the square `L` in `w` (zero upper triangle) into `A⁻¹ = L⁻ᵀL⁻¹`
/// in place: blocked TRTRI + LAUUM when `n > nb`, the unblocked seed
/// kernels otherwise.
fn potri(w: &mut Matrix, nb: usize) {
    let n = w.rows();
    let w = w.as_mut_slice();
    with_scratch(n, nb, |scratch| {
        if n <= nb {
            // M = L⁻¹ (lower triangular), then A⁻¹ = MᵀM computed on the
            // upper triangle and mirrored.
            let m = &mut scratch[..n * n];
            m.fill(0.0);
            trti2(w, n, m, n, n);
            for i in 0..n {
                for j in i..n {
                    // Column i of M dotted with column j, rows ≥ max(i, j) = j.
                    let mut s = 0.0;
                    for k in j..n {
                        s += m[k * n + i] * m[k * n + j];
                    }
                    w[i * n + j] = s;
                    w[j * n + i] = s;
                }
            }
            return;
        }
        let (dinv, scratch) = scratch.split_at_mut(nb * nb);
        // TRTRI: rows above i0 already hold M, rows from i0 on still L.
        for i0 in (0..n).step_by(nb) {
            let bh = nb.min(n - i0);
            let (done, rows) = w.split_at_mut(i0 * n);
            dinv.fill(0.0);
            trti2(&rows[i0..], n, dinv, bh, bh);
            // P = −M[I,I] · L[I,0:i0], then M[I,J] = P[:,j0:i0] · M[j0:i0,J].
            let p = &mut scratch[..bh * i0];
            p.fill(0.0);
            gemm(
                -1.0,
                bh,
                bh,
                i0,
                Operand::new(dinv, bh),
                Operand::new(rows, n),
                p,
                i0,
                Mask::Full,
            );
            for (row, drow) in rows.chunks_mut(n).zip(dinv.chunks(bh)).take(bh) {
                row[..i0].fill(0.0);
                row[i0..i0 + bh].copy_from_slice(drow);
            }
            for j0 in (0..i0).step_by(nb) {
                let (pj, mj) = (
                    Operand::new(&p[j0..], i0),
                    Operand::new(&done[j0 * n + j0..], n),
                );
                gemm(1.0, bh, i0 - j0, nb, pj, mj, &mut rows[j0..], n, Mask::Full);
            }
        }
        // LAUUM: rows above i0 already hold A⁻¹, rows from i0 on still M.
        for i0 in (0..n).step_by(nb) {
            let i1 = (i0 + nb).min(n);
            let (rows, below) = w[i0 * n..].split_at_mut((i1 - i0) * n);
            let mi = &mut scratch[..(i1 - i0) * i1];
            for (row, srow) in rows.chunks_mut(n).zip(mi.chunks_mut(i1)) {
                srow.copy_from_slice(&row[..i1]);
                row[..i1].fill(0.0);
            }
            let (mii, mi) = (Operand::new(&mi[i0..], i1), Operand::new(mi, i1));
            gemm(1.0, i1 - i0, i1 - i0, i1, mii.t(), mi, rows, n, Mask::Full);
            if i1 < n {
                let (mki, mk) = (Operand::new(&below[i0..], n), Operand::new(below, n));
                gemm(1.0, i1 - i0, n - i1, i1, mki.t(), mk, rows, n, Mask::Full);
            }
        }
        mirror_lower(w, n);
    });
}

impl Cholesky {
    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` using the factorization (forward then backward
    /// substitution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve: rhs length mismatch");
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solves `A X = B` column-by-column.
    ///
    /// # Panics
    ///
    /// Panics if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_matrix: shape mismatch");
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for c in 0..b.cols() {
            for r in 0..n {
                col[r] = b[(r, c)];
            }
            let x = self.solve(&col);
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        out
    }

    /// Computes the full inverse `A⁻¹ = L⁻ᵀ L⁻¹` (POTRI-style).
    ///
    /// The result is exactly symmetric by construction.
    pub fn inverse(&self) -> Matrix {
        self.inverse_with_block(CHOL_NB)
    }

    /// The seed inverse: serial triangular inversion followed by the scalar
    /// `MᵀM` product. The leaf of [`Cholesky::inverse`] for matrices of at
    /// most one block, and the oracle of the parity tests.
    pub fn inverse_unblocked(&self) -> Matrix {
        self.inverse_with_block(self.dim().max(1))
    }

    /// Blocked inverse (TRTRI + LAUUM on the level-3 core, see the module
    /// docs) with an explicit block edge `nb`.
    ///
    /// Exposed so tests can force the blocked code path on small matrices.
    /// Matrices with `n <= nb` fall back to
    /// [`Cholesky::inverse_unblocked`].
    ///
    /// # Panics
    ///
    /// Panics if `nb == 0`.
    pub fn inverse_with_block(&self, nb: usize) -> Matrix {
        assert!(nb >= 1, "inverse_with_block: block edge must be positive");
        let mut w = self.l.clone();
        potri(&mut w, nb);
        w
    }

    /// Log-determinant of `A`: `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Convenience wrapper: factorizes and inverts an SPD matrix in one call.
///
/// This is the operation the paper's load-balancing placement distributes
/// across GPUs (`f(T_i)` in §IV-B).
///
/// # Errors
///
/// Propagates [`cholesky`] errors.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, chol::spd_inverse};
///
/// # fn main() -> Result<(), spdkfac_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
/// let inv = spd_inverse(&a)?;
/// assert!(a.matmul(&inv).max_abs_diff(&Matrix::identity(2)) < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn spd_inverse(a: &Matrix) -> Result<Matrix, TensorError> {
    let mut inv = a.clone();
    spd_inverse_in_place(&mut inv)?;
    Ok(inv)
}

/// [`spd_inverse`] in the matrix's own storage: `a` holds the SPD matrix
/// on entry (only its lower triangle is read) and its inverse on success.
/// With this thread's scratch warm (one earlier call at this size) it
/// allocates nothing. On error `a` holds a partial factorization.
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn spd_inverse_in_place(a: &mut Matrix) -> Result<(), TensorError> {
    potrf(a, CHOL_NB)?;
    potri(a, CHOL_NB);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(n + 4, n);
        let mut a = x.gramian_scaled(n as f64);
        a.add_scaled_identity(0.5);
        a
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1, 2, 3, 8, 17, 40] {
            let a = random_spd(n, n as u64);
            let ch = cholesky(&a).unwrap();
            let rebuilt = ch.factor().matmul(&ch.factor().transpose());
            assert!(
                rebuilt.max_abs_diff(&a) < 1e-10,
                "reconstruction failed at n={n}"
            );
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        let a = random_spd(6, 42);
        let ch = cholesky(&a).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(ch.factor()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotSquare { op: "cholesky", .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_negative_diagonal_immediately() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        assert!(matches!(
            cholesky(&a),
            Err(TensorError::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn solve_matches_direct() {
        let a = random_spd(12, 3);
        let ch = cholesky(&a).unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = random_spd(7, 8);
        let ch = cholesky(&a).unwrap();
        let mut rng = MatrixRng::new(9);
        let b = rng.uniform_matrix(7, 3, -1.0, 1.0);
        let x = ch.solve_matrix(&b);
        let ax = a.matmul(&x);
        assert!(ax.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn inverse_is_symmetric_and_correct() {
        for n in [1, 2, 5, 16, 33] {
            let a = random_spd(n, 100 + n as u64);
            let inv = spd_inverse(&a).unwrap();
            assert_eq!(inv.max_asymmetry(), 0.0, "asymmetric inverse at n={n}");
            let prod = a.matmul(&inv);
            assert!(
                prod.max_abs_diff(&Matrix::identity(n)) < 1e-8,
                "A·A⁻¹ ≠ I at n={n}"
            );
        }
    }

    #[test]
    fn inverse_of_identity_is_identity() {
        let i = Matrix::identity(5);
        let inv = spd_inverse(&i).unwrap();
        assert!(inv.max_abs_diff(&i) < 1e-14);
    }

    #[test]
    fn inverse_of_diagonal() {
        let a = Matrix::from_diag(&[2.0, 4.0, 8.0]);
        let inv = spd_inverse(&a).unwrap();
        let expect = Matrix::from_diag(&[0.5, 0.25, 0.125]);
        assert!(inv.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn log_det_matches_diagonal_case() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = cholesky(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn blocked_factorization_matches_unblocked() {
        for n in [5usize, 16, 33, 65, 130] {
            let a = random_spd(n, 500 + n as u64);
            let unblocked = cholesky_unblocked(&a).unwrap();
            // Small nb forces the blocked path even on tiny matrices.
            for nb in [2usize, 7, 16] {
                let blocked = cholesky_with_block(&a, nb).unwrap();
                assert!(
                    blocked.factor().max_abs_diff(unblocked.factor()) < 1e-10,
                    "blocked nb={nb} diverges at n={n}"
                );
            }
        }
    }

    #[test]
    fn blocked_inverse_matches_unblocked() {
        for n in [5usize, 16, 33, 65] {
            let a = random_spd(n, 900 + n as u64);
            let ch = cholesky(&a).unwrap();
            let reference = ch.inverse_unblocked();
            for nb in [2usize, 7, 16] {
                let blocked = ch.inverse_with_block(nb);
                assert!(
                    blocked.max_abs_diff(&reference) < 1e-10,
                    "blocked inverse nb={nb} diverges at n={n}"
                );
                assert_eq!(blocked.max_asymmetry(), 0.0);
            }
        }
    }

    #[test]
    fn blocked_factorization_reports_global_pivot() {
        // Indefinite beyond the first block: pivot index must be global.
        let mut a = random_spd(9, 77);
        a[(7, 7)] = -100.0;
        match cholesky_with_block(&a, 4) {
            Err(TensorError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 7),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn damping_rescues_singular_matrix() {
        // Rank-1 Gramian is singular; damping per Eq. 12 makes it invertible.
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let a = x.gramian();
        assert!(cholesky(&a).is_err());
        let damped = a.damped(1e-3);
        assert!(spd_inverse(&damped).is_ok());
    }
}
