//! Cholesky factorization, triangular solves and SPD inversion.
//!
//! The paper inverts every damped Kronecker factor `(A + γI)` and `(G + γI)`
//! with cuSolver's Cholesky path (§V-B). This module is the CPU analogue:
//! `LLᵀ` factorization ([`cholesky`], [`cholesky_in_place`]), blocked
//! triangular solves with `L` ([`solve_into`]), and a full SPD inverse
//! ([`spd_inverse`]) via inversion of the triangular factor — the POTRF +
//! POTRI (= TRTRI + LAUUM) sequence. All are blocked so that all but
//! `O(n · nb²)` of the FLOPs are calls into the level-3 core
//! ([`crate::gemm::gemm`]), and run in caller storage: one `n × n` buffer
//! holds `A`'s lower triangle, then `L`, then `M = L⁻¹`, then `A⁻¹`.
//!
//! | step | per block `I = [i0, i1)`, top to bottom | core calls |
//! |---|---|---|
//! | POTRF | factor `L[I,I]` unblocked, invert it | — |
//! | | panel `L[i1:,I] = A[i1:,I] · L[I,I]⁻ᵀ` | 1 |
//! | | trailing `A[i1:,i1:] −= L[i1:,I] · L[i1:,I]ᵀ` | 1, [`Mask::Lower`] |
//! | TRTRI | `M[I,I] = L[I,I]⁻¹` unblocked; `P = −M[I,I] · L[I,0:i0]` | 1 |
//! | | `M[I,J] = P[:,j0:i0] · M[j0:i0,J]` for each block `J` left of `I` | `i0 / nb` |
//! | LAUUM | `A⁻¹[I,0:i1] = M[I,I]ᵀ · M[I,0:i1] + M[i1:,I]ᵀ · M[i1:,0:i1]`, then mirror | 2 |
//! | solve | halve `[lo, hi)` at a block edge `mid`; solve one half, subtract its product with `L[mid:hi,lo:mid]` from the other, solve that; a one-block half multiplies by `L[I,I]⁻¹` | 2 per level |
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
//!
//! ## Solving with `L` instead of forming `A⁻¹`
//!
//! K-FAC uses each inverse once, in `A⁻¹ · X` or `X · A⁻¹`; with
//! `A = LLᵀ` that is `L⁻ᵀ(L⁻¹X)` or `(XL⁻ᵀ)L⁻¹`, two triangular solves,
//! the same FLOPs as the product with `A⁻¹`, and POTRI (two thirds of the
//! inversion) is never run. The solves read `L` in *solve form*: `L` with
//! each of its `nb × nb` diagonal blocks replaced by its inverse, which
//! POTRF computes for the panel anyway ([`cholesky_in_place`] keeps them).
//! The form is fixed by the block edge (`CHOL_NB` for every caller but the
//! parity tests) and has `L`'s zero upper triangle, so its packed lower
//! triangle ([`pack_factor_into`]) is `n(n+1)/2` elements like a packed
//! inverse. A solve writes `X` into a second buffer and uses `B` as its
//! workspace ([`solve_into`]): the halves it subtracts from and the halves
//! it reads are then never the same storage, in either side's split.

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

/// Which side of the unknown `op(L)` stands on in a triangular solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `op(L) · X = B`: `B` has `n` rows.
    Left,
    /// `X · op(L) = B`: `B` has `n` columns.
    Right,
}

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Produced by [`cholesky`]; provides solves and the SPD inverse.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
    /// `L` in solve form at block edge `nb` (see the module docs).
    solver: Matrix,
    nb: usize,
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
    potrf(&mut l, nb, false)?;
    // The blocks POTRF inverted for its panels, from the same `L[I,I]`.
    let mut solver = l.clone();
    let n = solver.rows();
    with_scratch(n, nb, |scratch| {
        for j0 in (0..n).step_by(nb) {
            invert_diagonal_block(solver.as_mut_slice(), n, j0, nb.min(n - j0), scratch, true);
        }
    });
    Ok(Cholesky { l, solver, nb })
}

/// POTRF in the matrix's own storage, for the solves: `a` holds the SPD
/// matrix on entry (only its lower triangle is read) and on success `L` in
/// solve form at block edge [`CHOL_NB`] — the form [`solve_into`] reads
/// (module docs). With this thread's scratch warm it allocates nothing.
/// On error `a` holds a partial factorization.
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn cholesky_in_place(a: &mut Matrix) -> Result<(), TensorError> {
    potrf(a, CHOL_NB, true)
}

/// Inverts the `bw × bw` diagonal block of `w` (rows `n` apart) at `j0`
/// into the start of `scratch`, and with `store` writes it over the block.
fn invert_diagonal_block(
    w: &mut [f64],
    n: usize,
    j0: usize,
    bw: usize,
    scratch: &mut [f64],
    store: bool,
) {
    let dinv = &mut scratch[..bw * bw];
    dinv.fill(0.0);
    trti2(&w[j0 * n + j0..], n, dinv, bw, bw);
    if store {
        for (row, drow) in w[j0 * n + j0..].chunks_mut(n).zip(dinv.chunks(bw)) {
            row[..bw].copy_from_slice(drow);
        }
    }
}

/// Factors the SPD matrix in `w` in place: on success `w` holds `L` with a
/// zero upper triangle (only the lower triangle of `A` is read), its
/// diagonal blocks inverted when `solve_form`.
fn potrf(w: &mut Matrix, nb: usize, solve_form: bool) -> Result<(), TensorError> {
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
            if below == 0 && !solve_form {
                break;
            }
            // The panel below reads L11⁻¹; L11 itself is not read again.
            invert_diagonal_block(w, n, j0, bw, dinv, solve_form);
            if below == 0 {
                break;
            }
            let dinv = &dinv[..bw * bw];
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

    /// Solves `A x = b`: [`Cholesky::solve_matrix`] on one column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "solve: rhs length mismatch");
        self.solve_matrix(&Matrix::from_vec(b.len(), 1, b.to_vec()))
            .into_vec()
    }

    /// Solves `A X = B` as `X = L⁻ᵀ(L⁻¹B)`: two blocked solves.
    ///
    /// # Panics
    ///
    /// Panics if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "solve_matrix: shape mismatch");
        let (mut y, mut x) = (b.clone(), Matrix::zeros(0, 0));
        solve_with_block(&self.solver, self.nb, Side::Left, false, &mut y, &mut x);
        solve_with_block(&self.solver, self.nb, Side::Left, true, &mut x, &mut y);
        y
    }

    /// One triangular solve at this factorization's block edge:
    /// `op(L)⁻¹ · B` on the [`Side::Left`], `B · op(L)⁻¹` on the
    /// [`Side::Right`], `op(L) = Lᵀ` when `trans`. From
    /// [`cholesky_unblocked`] it is one product with `op(L⁻¹)`: the oracle
    /// of the parity tests.
    ///
    /// # Panics
    ///
    /// Panics if `b`'s solved dimension is not `self.dim()`.
    pub fn solve_triangular(&self, side: Side, trans: bool, b: &Matrix) -> Matrix {
        let (mut work, mut x) = (b.clone(), Matrix::zeros(0, 0));
        solve_with_block(&self.solver, self.nb, side, trans, &mut work, &mut x);
        x
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

/// The blocked triangular solve (module docs) with `l` in solve form at
/// block edge [`CHOL_NB`], as [`cholesky_in_place`] leaves it: `x` becomes
/// `op(L)⁻¹ · b` on the [`Side::Left`], `b · op(L)⁻¹` on the
/// [`Side::Right`] (`op(L) = Lᵀ` when `trans`), reshaped to `b`'s shape
/// with its storage reused. `b` is the solve's workspace and is left
/// holding partial sums. With `x` large enough it allocates nothing; the
/// result is bit-identical for any `SPDKFAC_THREADS` and across AVX2 /
/// AVX-512 hosts.
///
/// # Panics
///
/// Panics if `l` is not square or `b`'s solved dimension is not its size.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::chol::{cholesky_in_place, solve_into, Side};
/// use spdkfac_tensor::Matrix;
///
/// # fn main() -> Result<(), spdkfac_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let mut l = a.clone();
/// cholesky_in_place(&mut l)?;
/// // A⁻¹b = L⁻ᵀ(L⁻¹b), ping-ponging between two buffers.
/// let (mut b, mut y) = (Matrix::from_vec(2, 1, vec![1.0, 2.0]), Matrix::zeros(0, 0));
/// solve_into(&l, Side::Left, false, &mut b, &mut y);
/// solve_into(&l, Side::Left, true, &mut y, &mut b);
/// assert!(a.matmul(&b).max_abs_diff(&Matrix::from_vec(2, 1, vec![1.0, 2.0])) < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_into(l: &Matrix, side: Side, trans: bool, b: &mut Matrix, x: &mut Matrix) {
    solve_with_block(l, CHOL_NB, side, trans, b, x);
}

/// [`solve_into`] with `l` in solve form at block edge `nb`.
fn solve_with_block(
    l: &Matrix,
    nb: usize,
    side: Side,
    trans: bool,
    b: &mut Matrix,
    x: &mut Matrix,
) {
    let n = l.rows();
    assert!(l.is_square(), "solve: factor is {:?}", l.shape());
    let (solved, width) = match side {
        Side::Left => b.shape(),
        Side::Right => (b.cols(), b.rows()),
    };
    assert_eq!(
        solved,
        n,
        "solve: {side:?} operand {:?} vs factor dim {n}",
        b.shape()
    );
    x.reshape_for_overwrite(b.rows(), b.cols());
    if n == 0 {
        return;
    }
    // One column is stored as one row is: `op(L)⁻¹ b` is `bᵀ op(L)⁻ᵀ`, the
    // same products in the same order, on 1-row instead of 1-column tiles
    // (a tile is 8 rows of 24 columns with AVX-512).
    let (side, trans) = match (side, width) {
        (Side::Left, 1) => (Side::Right, !trans),
        _ => (side, trans),
    };
    let trsm = Trsm {
        l: l.as_slice(),
        n,
        nb,
        side,
        trans,
        width,
    };
    trsm.run(0, n, b.as_mut_slice(), x.as_mut_slice());
}

/// One blocked triangular solve: `L` in solve form (`n × n`, block edge
/// `nb`), the side and transpose, and the right-hand side's other
/// dimension `width`. `b` and `x` are row-major, `n × width` on the left,
/// `width × n` on the right.
struct Trsm<'a> {
    l: &'a [f64],
    n: usize,
    nb: usize,
    side: Side,
    trans: bool,
    width: usize,
}

impl Trsm<'_> {
    /// Solves for the unknowns `[lo, hi)` of the solved dimension (`lo` on
    /// a block edge), all of whose dependencies outside the range are
    /// already subtracted from `b`.
    fn run(&self, lo: usize, hi: usize, b: &mut [f64], x: &mut [f64]) {
        let blocks = (hi - lo).div_ceil(self.nb);
        if blocks <= 1 {
            return self.leaf(lo, hi, b, x);
        }
        let mid = lo + blocks / 2 * self.nb;
        // `L[mid:hi, lo:mid]` couples the halves. Forward (`L` on the left,
        // `Lᵀ` on the right) solves the top half first, backward the bottom.
        let coupling = Operand::new(&self.l[mid * self.n + lo..], self.n);
        let (n, w) = (self.n, self.width);
        match (self.side, self.trans) {
            (Side::Left, false) => {
                self.run(lo, mid, b, x);
                let xs = Operand::new(&x[lo * w..], w);
                gemm(
                    -1.0,
                    hi - mid,
                    mid - lo,
                    w,
                    coupling,
                    xs,
                    &mut b[mid * w..],
                    w,
                    Mask::Full,
                );
                self.run(mid, hi, b, x);
            }
            (Side::Left, true) => {
                self.run(mid, hi, b, x);
                let xs = Operand::new(&x[mid * w..], w);
                gemm(
                    -1.0,
                    mid - lo,
                    hi - mid,
                    w,
                    coupling.t(),
                    xs,
                    &mut b[lo * w..],
                    w,
                    Mask::Full,
                );
                self.run(lo, mid, b, x);
            }
            (Side::Right, false) => {
                self.run(mid, hi, b, x);
                let xs = Operand::new(&x[mid..], n);
                gemm(
                    -1.0,
                    w,
                    hi - mid,
                    mid - lo,
                    xs,
                    coupling,
                    &mut b[lo..],
                    n,
                    Mask::Full,
                );
                self.run(lo, mid, b, x);
            }
            (Side::Right, true) => {
                self.run(lo, mid, b, x);
                let xs = Operand::new(&x[lo..], n);
                gemm(
                    -1.0,
                    w,
                    mid - lo,
                    hi - mid,
                    xs,
                    coupling.t(),
                    &mut b[mid..],
                    n,
                    Mask::Full,
                );
                self.run(mid, hi, b, x);
            }
        }
    }

    /// One diagonal block `I = [lo, hi)`: `x[I] = op(L[I,I])⁻¹ · b[I]` (or
    /// `b[:,I] · op(L[I,I])⁻¹`), a product with the stored inverse.
    fn leaf(&self, lo: usize, hi: usize, b: &[f64], x: &mut [f64]) {
        let (n, w, bw) = (self.n, self.width, hi - lo);
        let dinv = Operand::new(&self.l[lo * n + lo..], n);
        let dinv = if self.trans { dinv.t() } else { dinv };
        match self.side {
            Side::Left => {
                let xs = &mut x[lo * w..hi * w];
                xs.fill(0.0);
                gemm(
                    1.0,
                    bw,
                    bw,
                    w,
                    dinv,
                    Operand::new(&b[lo * w..], w),
                    xs,
                    w,
                    Mask::Full,
                );
            }
            Side::Right => {
                for row in x.chunks_mut(n) {
                    row[lo..hi].fill(0.0);
                }
                let bs = Operand::new(&b[lo..], n);
                gemm(1.0, w, bw, bw, bs, dinv, &mut x[lo..], n, Mask::Full);
            }
        }
    }
}

/// Packs the lower triangle of the square `l` — row by row, `(0,0)`,
/// `(1,0)`, `(1,1)`, … — into `dst`: the wire form of a factor in solve
/// form, `n(n+1)/2` elements like a packed symmetric matrix.
///
/// # Panics
///
/// Panics if `l` is not square or `dst` is not `n(n+1)/2` long.
pub fn pack_factor_into(l: &Matrix, dst: &mut [f64]) {
    let n = l.rows();
    assert!(
        l.is_square() && dst.len() == n * (n + 1) / 2,
        "pack_factor_into: {:?} factor into {} elements",
        l.shape(),
        dst.len()
    );
    let mut rest = dst;
    for (i, row) in l.as_slice().chunks(n.max(1)).enumerate() {
        let (head, tail) = rest.split_at_mut(i + 1);
        head.copy_from_slice(&row[..=i]);
        rest = tail;
    }
}

/// The inverse of [`pack_factor_into`]: `out` (its storage reused)
/// becomes the `dim × dim` lower-triangular matrix `packed` holds, with a
/// zero upper triangle.
///
/// # Panics
///
/// Panics if `packed` is not `dim(dim+1)/2` long.
pub fn unpack_factor_into(dim: usize, packed: &[f64], out: &mut Matrix) {
    assert_eq!(
        packed.len(),
        dim * (dim + 1) / 2,
        "unpack_factor_into: {} elements for dim {dim}",
        packed.len()
    );
    out.reshape_for_overwrite(dim, dim);
    let mut rest = packed;
    for (i, row) in out.as_mut_slice().chunks_mut(dim.max(1)).enumerate() {
        let (head, tail) = rest.split_at(i + 1);
        row[..=i].copy_from_slice(head);
        row[i + 1..].fill(0.0);
        rest = tail;
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
    potrf(a, CHOL_NB, false)?;
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
    fn in_place_factor_is_the_solve_form_of_the_factorization() {
        for n in [1usize, 5, 24, 25, 70] {
            let a = random_spd(n, 300 + n as u64);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let ch = cholesky(&a).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&l), bits(&ch.solver), "n={n}");
            // Off the diagonal blocks it is `L` itself.
            for i in 0..n {
                for j in 0..i - i % CHOL_NB {
                    assert_eq!(l[(i, j)].to_bits(), ch.factor()[(i, j)].to_bits());
                }
            }
        }
    }

    #[test]
    fn every_solve_inverts_its_product() {
        let a = random_spd(53, 11);
        let ch = cholesky_with_block(&a, 8).unwrap();
        let l = ch.factor();
        let mut rng = MatrixRng::new(12);
        for side in [Side::Left, Side::Right] {
            for trans in [false, true] {
                let op = if trans { l.transpose() } else { l.clone() };
                let b = match side {
                    Side::Left => rng.uniform_matrix(53, 7, -1.0, 1.0),
                    Side::Right => rng.uniform_matrix(7, 53, -1.0, 1.0),
                };
                let x = ch.solve_triangular(side, trans, &b);
                let back = match side {
                    Side::Left => op.matmul(&x),
                    Side::Right => x.matmul(&op),
                };
                assert!(back.max_abs_diff(&b) < 1e-12, "{side:?} trans={trans}");
            }
        }
    }

    /// The ISA invariant of the solves: they are core calls and copies, so
    /// every vector microkernel the host supports gives the same bits.
    #[test]
    fn solves_agree_bit_for_bit_across_vector_kernels() {
        use crate::gemm::{with_kernel, Kernel};
        let kernels: Vec<Kernel> = Kernel::ALL
            .iter()
            .copied()
            .filter(|&k| k != Kernel::Portable && k.supported())
            .collect();
        if kernels.len() < 2 {
            eprintln!("skipped: host supports {kernels:?} only");
            return;
        }
        let mut rng = MatrixRng::new(13);
        for (n, width) in [(23usize, 5usize), (49, 33), (130, 70)] {
            let a = random_spd(n, 400 + n as u64);
            for side in [Side::Left, Side::Right] {
                for trans in [false, true] {
                    let b = match side {
                        Side::Left => rng.uniform_matrix(n, width, -1.0, 1.0),
                        Side::Right => rng.uniform_matrix(width, n, -1.0, 1.0),
                    };
                    let run = |kernel| {
                        with_kernel(kernel, || {
                            let mut f = a.clone();
                            cholesky_in_place(&mut f).unwrap();
                            let (mut work, mut x) = (b.clone(), Matrix::zeros(0, 0));
                            solve_into(&f, side, trans, &mut work, &mut x);
                            x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        })
                    };
                    let first = run(kernels[0]);
                    for &other in &kernels[1..] {
                        assert!(
                            first == run(other),
                            "n={n} {side:?} trans={trans} {other:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_factor_round_trips() {
        for n in [0usize, 1, 4, 30] {
            let mut l = random_spd(n, 500 + n as u64);
            cholesky_in_place(&mut l).unwrap();
            let mut packed = vec![f64::NAN; n * (n + 1) / 2];
            pack_factor_into(&l, &mut packed);
            let mut back = Matrix::from_vec(1, 3, vec![7.0; 3]);
            unpack_factor_into(n, &packed, &mut back);
            assert_eq!(back, l, "n={n}");
        }
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
