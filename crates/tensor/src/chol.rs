//! Cholesky factorization, triangular solves and SPD inversion.
//!
//! The paper inverts every damped Kronecker factor `(A + γI)` and `(G + γI)`
//! with cuSolver's Cholesky path (§V-B). This module is the CPU analogue:
//! `LLᵀ` factorization ([`cholesky`], [`cholesky_in_place`]), triangular
//! solves with `L` ([`solve_into`]), and a full SPD inverse
//! ([`spd_inverse`]) via inversion of the triangular factor — the POTRF +
//! POTRI (= TRTRI + LAUUM) sequence. All but `O(n · nb²)` of the FLOPs
//! are a few large calls into the level-3 core ([`crate::gemm::gemm`]); a
//! product with a triangle is one call with a triangular operand
//! ([`Operand::triangle`]), which skips the zero half micro-panel by
//! micro-panel and costs half a square. Everything runs in caller
//! storage: one `n × n` buffer holds `A`'s lower triangle, then `L` in
//! solve form, then `M = L⁻¹`, then `A⁻¹`.
//!
//! | step | on a range `[lo, hi)` of `L` | core calls |
//! |---|---|---|
//! | POTRF | right-looking over [`SOLVE_NB`] blocks: factor and invert a block, then a panel below it (next row) | — |
//! | | factor and invert a block: halve at a [`CHOL_NB`] edge; each half comes back inverted, so the panel between them is one product, and TRTRI's step joins them; a leaf is `potf2`, then `trti2` over it | + 2, triangular |
//! | | panel: `L21 = A21 · M11ᵀ`, `A22 −= L21 · L21ᵀ`, in row chunks the scratch holds | 3 per chunk, [`Mask::Lower`] |
//! | TRTRI | halve at a block edge; invert both halves; `M21 = −(M22 · L21) · M11` | 2, triangular |
//! | LAUUM | halve at a leaf edge: the top half's `MᵀM`, `+= M21ᵀM21`, then `M21ᵀM22` above the diagonal, then the bottom half's; mirror the upper triangle | 2, one triangular |
//! | solve | block by block in dependency order, not halved: subtract what the solved blocks contribute to block `I`, then apply its stored `L[I,I]⁻¹` | 2 per block, the second triangular |
//!
//! A product never writes the rows it reads (Rust slices are whole rows,
//! so a block and the block beside it cannot be borrowed apart). Where it
//! would, one operand goes through the free block above the diagonal —
//! rows `[lo, mid)`, columns `[mid, hi)`, which holds nothing in any of
//! these forms (TRTRI's `(M22 · L21)ᵀ`, LAUUM's `M21ᵀM22`) — or, for the
//! panel, whose inputs share rows with that block, a per-thread scratch
//! of `CHOL_NB · (CHOL_NB + n)` elements that only ever grows: `L21` a
//! chunk of rows at a time. A warm [`cholesky_in_place`] / [`solve_into`]
//! / [`spd_inverse_in_place`] allocates nothing. The core keeps results
//! bit-identical for any `SPDKFAC_THREADS` and across AVX2 / AVX-512
//! hosts. [`cholesky_unblocked`] and [`Cholesky::inverse_unblocked`] are
//! the leaf kernels run on the whole matrix: the oracles of the parity
//! tests.
//!
//! ## Solving with `L` instead of forming `A⁻¹`
//!
//! K-FAC uses each inverse once, in `A⁻¹ · X` or `X · A⁻¹`; with
//! `A = LLᵀ` that is `L⁻ᵀ(L⁻¹X)` or `(XL⁻ᵀ)L⁻¹`, two triangular solves,
//! the same FLOPs as the product with `A⁻¹`, and POTRI (two thirds of the
//! inversion) is never run. The solves read `L` in *solve form*: `L` with
//! each of its [`SOLVE_NB`]-wide diagonal blocks replaced by its inverse,
//! which POTRF builds from the [`CHOL_NB`] leaves it inverts for its own
//! panels ([`cholesky_in_place`] keeps them). A leaf of the solve is then
//! one triangular product `SOLVE_NB` deep instead of a chain of 24-wide
//! slivers. The form has `L`'s zero upper triangle, so its packed lower
//! triangle ([`pack_factor_into`]) is `n(n+1)/2` elements like a packed
//! inverse. A solve writes `X` into a second buffer and uses `B` as its
//! workspace ([`solve_into`]): the blocks it subtracts from and the blocks
//! it reads are then never the same storage, on either side.

use crate::error::TensorError;
use crate::gemm::{gemm, gemm_overwrite, mirror_upper, Mask, Operand};
use crate::matrix::Matrix;
use std::cell::RefCell;

/// Edge of POTRF's unblocked leaves (`potf2`, then `trti2`); matrices up
/// to this size are one leaf.
pub const CHOL_NB: usize = 24;

/// Edge of the solve form's inverted diagonal blocks, and so of the
/// solves' leaves: a multiple of [`CHOL_NB`], chosen on the trainer's
/// 256-wide layer (EXPERIMENTS "GEMM-grade factorization and solves").
pub const SOLVE_NB: usize = 96;

thread_local! {
    /// This thread's working storage for POTRF's panel chunks and leaf
    /// inverses (see the module docs): `leaf · (leaf + n)` for the largest
    /// matrix seen, never freed.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on `len` elements of this thread's scratch.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
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
    /// `L`: the solve form with its diagonal blocks inverted back.
    l: Matrix,
    /// `L` in solve form at `edge` (see the module docs).
    solver: Matrix,
    edge: usize,
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
    factorize(a, CHOL_NB, SOLVE_NB)
}

/// The seed factorization: serial unblocked column-by-column `LLᵀ`.
///
/// The leaf of [`cholesky`], and the oracle of the parity tests: its solve
/// form is the whole `L⁻¹`, so each of its solves is one product.
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn cholesky_unblocked(a: &Matrix) -> Result<Cholesky, TensorError> {
    let n = a.rows().max(1);
    factorize(a, n, n)
}

/// Recursive Cholesky with an explicit leaf edge `nb` (and solve-form
/// blocks of `nb · SOLVE_NB / CHOL_NB`).
///
/// Exposed (rather than hard-wiring [`cholesky`]'s default) so tests can
/// force the blocked code path on small matrices. Matrices with
/// `n <= nb` are one unblocked leaf.
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
    factorize(a, nb, nb * (SOLVE_NB / CHOL_NB))
}

/// POTRF at leaves of `leaf` into solve form at `edge`, plus `L` itself.
fn factorize(a: &Matrix, leaf: usize, edge: usize) -> Result<Cholesky, TensorError> {
    let mut solver = a.clone();
    potrf(&mut solver, leaf, edge)?;
    let (n, mut l) = (solver.rows(), solver.clone());
    let mut dinv = vec![0.0; edge.min(n).pow(2)];
    for j0 in (0..n).step_by(edge) {
        invert_diagonal_block(l.as_mut_slice(), n, j0, edge.min(n - j0), &mut dinv);
    }
    Ok(Cholesky { l, solver, edge })
}

/// POTRF in the matrix's own storage, for the solves: `a` holds the SPD
/// matrix on entry (only its lower triangle is read) and on success `L` in
/// solve form at [`SOLVE_NB`] — the form [`solve_into`] reads (module
/// docs). With this thread's scratch warm it allocates nothing. On error
/// `a` holds a partial factorization.
///
/// # Errors
///
/// Same contract as [`cholesky`].
pub fn cholesky_in_place(a: &mut Matrix) -> Result<(), TensorError> {
    potrf(a, CHOL_NB, SOLVE_NB)
}

/// Inverts the `bw × bw` lower-triangular diagonal block of `w` (rows `n`
/// apart) at `j0` in place, through the start of `scratch`; the block's
/// upper triangle becomes zero.
fn invert_diagonal_block(w: &mut [f64], n: usize, j0: usize, bw: usize, scratch: &mut [f64]) {
    let dinv = &mut scratch[..bw * bw];
    dinv.fill(0.0);
    trti2(&w[j0 * n + j0..], n, dinv, bw, bw);
    for (row, drow) in w[j0 * n + j0..].chunks_mut(n).zip(dinv.chunks(bw)) {
        row[..bw].copy_from_slice(drow);
    }
}

/// Factors the SPD matrix in `w` in place into `L` in solve form at `edge`
/// (zero upper triangle; only the lower triangle of `A` is read):
/// right-looking over `edge`-wide blocks, each factored and inverted by
/// [`factor_inverted`] and followed by a [`panel`].
fn potrf(w: &mut Matrix, leaf: usize, edge: usize) -> Result<(), TensorError> {
    if !w.is_square() {
        return Err(TensorError::NotSquare {
            op: "cholesky",
            shape: w.shape(),
        });
    }
    let n = w.rows();
    let w = w.as_mut_slice();
    let leaf_n = leaf.min(n);
    with_scratch(leaf_n * (leaf_n + n), |scratch| {
        for lo in (0..n).step_by(edge) {
            let hi = n.min(lo + edge);
            factor_inverted(w, n, lo, hi, leaf, scratch)?;
            if hi < n {
                panel(w, n, lo, hi, n, scratch);
            }
        }
        Ok(())
    })
    .map_err(|pivot| TensorError::NotPositiveDefinite { pivot })?;
    // Above the diagonal: `A`, the panels' operands, and trailing-update
    // tiles that straddle the diagonal.
    for i in 0..n {
        w[i * n + i + 1..(i + 1) * n].fill(0.0);
    }
    Ok(())
}

/// Factors `[lo, hi)` of `w` (rows `n` apart), whose updates from the
/// columns left of `lo` are already subtracted, and leaves it inverted:
/// `L[lo:hi, lo:hi]⁻¹`. Halves at a `leaf` edge down to `potf2` + `trti2`
/// leaves; each half comes back inverted, so the [`panel`] between them
/// is one product, and TRTRI's step ([`trtri_join`]) joins them. `Err`
/// carries the global index of the first non-positive or non-finite pivot.
fn factor_inverted(
    w: &mut [f64],
    n: usize,
    lo: usize,
    hi: usize,
    leaf: usize,
    scratch: &mut [f64],
) -> Result<(), usize> {
    let len = hi - lo;
    if len <= leaf {
        potf2(&mut w[lo * n + lo..], n, len).map_err(|pivot| lo + pivot)?;
        invert_diagonal_block(w, n, lo, len, scratch);
        return Ok(());
    }
    let mid = lo + len.div_ceil(leaf) / 2 * leaf;
    factor_inverted(w, n, lo, mid, leaf, scratch)?;
    panel(w, n, lo, mid, hi, scratch);
    factor_inverted(w, n, mid, hi, leaf, scratch)?;
    trtri_join(w, n, lo, mid, hi);
    Ok(())
}

/// With `[lo, mid)` of `w` factored and inverted (`M11`), the rows
/// `[mid, hi)` below it get `L21 = A21 · M11ᵀ` over `A21` and
/// `A22 −= L21 · L21ᵀ` on their lower-triangle tiles, in as few equal
/// chunks of rows as `scratch` holds: a chunk's `L21` rows land in the
/// scratch and are copied over its `A21` rows; then its rows of `A22`
/// take the update from the `L21` rows above it and from its own. Every
/// element of `L21` and of `A22` is one product over the whole depth, as
/// in a single call.
fn panel(w: &mut [f64], n: usize, lo: usize, mid: usize, hi: usize, scratch: &mut [f64]) {
    let (w1, most) = (mid - lo, scratch.len() / (mid - lo));
    // Whole register tiles where the scratch allows.
    let step = (hi - mid).div_ceil((hi - mid).div_ceil(most));
    let step = step.next_multiple_of(8).min(most);
    for r0 in (mid..hi).step_by(step) {
        let r1 = hi.min(r0 + step);
        let (rows, chunk) = (r1 - r0, &mut scratch[..(r1 - r0) * w1]);
        let (done, rest) = w.split_at_mut(r0 * n);
        let m11 = Operand::new(&done[lo * n + lo..], n).triangle(Mask::Lower);
        let a21 = Operand::new(&rest[lo..], n);
        gemm_overwrite(1.0, rows, w1, w1, a21, m11.t(), chunk, w1, Mask::Full);
        for (dst, src) in rest[lo..].chunks_mut(n).zip(chunk.chunks(w1)) {
            dst[..w1].copy_from_slice(src);
        }
        let l21 = Operand::new(chunk, w1);
        if r0 > mid {
            let above = Operand::new(&done[mid * n + lo..], n);
            gemm(
                -1.0,
                rows,
                w1,
                r0 - mid,
                l21,
                above.t(),
                &mut rest[mid..],
                n,
                Mask::Full,
            );
        }
        gemm(
            -1.0,
            rows,
            w1,
            rows,
            l21,
            l21.t(),
            &mut rest[r0..],
            n,
            Mask::Lower,
        );
    }
}

/// Unblocked in-place `LLᵀ` of the `n × n` block at the start of `w` (rows
/// `ld` apart; only the lower triangle is read or written). `Err` carries
/// the block-local index of the first non-positive or non-finite pivot.
/// Four rows' dot products run side by side, each in its own order.
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
        let (rowj, rows) = (&rowj[..j], n - j - 1);
        let end = (rows * ld).min(below.len());
        let below = &mut below[..end];
        let mut quads = below.chunks_exact_mut(4 * ld);
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(ld);
            let (r1, rest) = rest.split_at_mut(ld);
            let (r2, r3) = rest.split_at_mut(ld);
            let mut s = [r0[j], r1[j], r2[j], r3[j]];
            for (k, &y) in rowj.iter().enumerate() {
                s[0] -= r0[k] * y;
                s[1] -= r1[k] * y;
                s[2] -= r2[k] * y;
                s[3] -= r3[k] * y;
            }
            for (row, s) in [r0, r1, r2, r3].into_iter().zip(s) {
                row[j] = s / dj;
            }
        }
        for rowi in quads.into_remainder().chunks_mut(ld) {
            let s = rowi[..j]
                .iter()
                .zip(rowj)
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

/// TRTRI in place: the block `[lo, hi)` of `w` (rows `n` apart), `L` in
/// solve form at `edge` (`lo` on an edge), becomes `L[lo:hi, lo:hi]⁻¹`:
/// halves at an edge, inverts both halves, then [`trtri_join`].
fn trtri(w: &mut [f64], n: usize, lo: usize, hi: usize, edge: usize) {
    let len = hi - lo;
    if len <= edge {
        return;
    }
    let mid = lo + len.div_ceil(edge) / 2 * edge;
    trtri(w, n, lo, mid, edge);
    trtri(w, n, mid, hi, edge);
    trtri_join(w, n, lo, mid, hi);
}

/// TRTRI's step: with `[lo, mid)` and `[mid, hi)` of `w` inverted and
/// `L21` between them, `[lo, hi)` becomes inverted:
/// `M21 = −(M22 · L21) · M11`, two products with a triangular operand.
/// `(M22 · L21)ᵀ` lands in the free block above the diagonal, as in
/// [`panel`].
fn trtri_join(w: &mut [f64], n: usize, lo: usize, mid: usize, hi: usize) {
    let (w1, w2, up) = (mid - lo, hi - mid, lo * n + mid);
    let (top, bottom) = w.split_at_mut(mid * n);
    let l21 = Operand::new(&bottom[lo..], n);
    let m22 = Operand::new(&bottom[mid..], n).triangle(Mask::Lower);
    gemm_overwrite(
        1.0,
        w1,
        w2,
        w2,
        l21.t(),
        m22.t(),
        &mut top[up..],
        n,
        Mask::Full,
    );
    let m11 = Operand::new(&top[lo * n + lo..], n).triangle(Mask::Lower);
    let u = Operand::new(&top[up..], n);
    gemm_overwrite(
        -1.0,
        w2,
        w1,
        w1,
        u.t(),
        m11,
        &mut bottom[lo..],
        n,
        Mask::Full,
    );
}

/// LAUUM in place: `[lo, hi)` of `w` holds `M = L⁻¹` (lower) and its
/// upper triangle, diagonal included, becomes that of `MᵀM` over the
/// range's own rows. Halves at a `leaf` edge: the top half's own `MᵀM`,
/// plus `M21ᵀM21` on its upper tiles, then `M21ᵀM22` into the free block
/// above the diagonal, then the bottom half's; a leaf is the scalar seed
/// `MᵀM` on a copy of its block. Nothing below the diagonal is read after
/// the range it lies in is done.
fn lauum(w: &mut [f64], n: usize, lo: usize, hi: usize, leaf: usize, scratch: &mut [f64]) {
    let len = hi - lo;
    if len <= leaf {
        let m = &mut scratch[..len * len];
        for (row, src) in m.chunks_mut(len).zip(w[lo * n + lo..].chunks(n)) {
            row.copy_from_slice(&src[..len]);
        }
        for i in 0..len {
            for j in i..len {
                // Column i of M dotted with column j, rows ≥ max(i, j) = j.
                let mut s = 0.0;
                for k in j..len {
                    s += m[k * len + i] * m[k * len + j];
                }
                w[(lo + i) * n + lo + j] = s;
            }
        }
        return;
    }
    let mid = lo + len.div_ceil(leaf) / 2 * leaf;
    let (w1, w2) = (mid - lo, hi - mid);
    lauum(w, n, lo, mid, leaf, scratch);
    let (top, bottom) = w.split_at_mut(mid * n);
    let m21 = Operand::new(&bottom[lo..], n);
    gemm(
        1.0,
        w1,
        w2,
        w1,
        m21.t(),
        m21,
        &mut top[lo * n + lo..],
        n,
        Mask::Upper,
    );
    let m22 = Operand::new(&bottom[mid..], n).triangle(Mask::Lower);
    gemm_overwrite(
        1.0,
        w1,
        w2,
        w2,
        m21.t(),
        m22,
        &mut top[lo * n + mid..],
        n,
        Mask::Full,
    );
    lauum(w, n, mid, hi, leaf, scratch);
}

/// Turns `L` in solve form at `edge` (zero upper triangle) in `w` into
/// `A⁻¹ = L⁻ᵀL⁻¹` in place: TRTRI, then LAUUM at leaves of `leaf`, then
/// the upper triangle mirrored over the lower.
fn potri(w: &mut Matrix, leaf: usize, edge: usize) {
    let n = w.rows();
    let w = w.as_mut_slice();
    trtri(w, n, 0, n, edge);
    with_scratch(leaf.min(n).pow(2), |scratch| {
        lauum(w, n, 0, n, leaf, scratch)
    });
    mirror_upper(w, n);
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

    /// Solves `A X = B` as `X = L⁻ᵀ(L⁻¹B)`: two block-by-block solves.
    ///
    /// # Panics
    ///
    /// Panics if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "solve_matrix: shape mismatch");
        let (mut y, mut x) = (b.clone(), Matrix::zeros(0, 0));
        solve_with_block(&self.solver, self.edge, Side::Left, false, &mut y, &mut x);
        solve_with_block(&self.solver, self.edge, Side::Left, true, &mut x, &mut y);
        y
    }

    /// One triangular solve on this factorization's solve form:
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
        solve_with_block(&self.solver, self.edge, side, trans, &mut work, &mut x);
        x
    }

    /// Computes the full inverse `A⁻¹ = L⁻ᵀ L⁻¹` (POTRI-style) from this
    /// factorization's solve form: the same bits as [`spd_inverse`] for a
    /// [`cholesky`] factorization.
    ///
    /// The result is exactly symmetric by construction.
    pub fn inverse(&self) -> Matrix {
        let mut w = self.solver.clone();
        potri(&mut w, CHOL_NB, self.edge);
        w
    }

    /// The seed inverse: serial triangular inversion followed by the scalar
    /// `MᵀM` product. The oracle of the parity tests.
    pub fn inverse_unblocked(&self) -> Matrix {
        self.inverse_with_block(self.dim().max(1))
    }

    /// Recursive inverse (TRTRI + LAUUM on the level-3 core, see the module
    /// docs) of `L` with an explicit block edge `nb`.
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
        let n = w.rows();
        let mut dinv = vec![0.0; nb.min(n).pow(2)];
        for j0 in (0..n).step_by(nb) {
            invert_diagonal_block(w.as_mut_slice(), n, j0, nb.min(n - j0), &mut dinv);
        }
        potri(&mut w, nb, nb);
        w
    }

    /// Log-determinant of `A`: `2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// The block-by-block triangular solve (module docs) with `l` in solve form at
/// [`SOLVE_NB`], as [`cholesky_in_place`] leaves it: `x` becomes
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
    solve_with_block(l, SOLVE_NB, side, trans, b, x);
}

/// [`solve_into`] with `l` in solve form at block edge `edge`.
fn solve_with_block(
    l: &Matrix,
    edge: usize,
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
    let ld = match side {
        Side::Left => width,
        Side::Right => n,
    };
    let trsm = Trsm {
        l: l.as_slice(),
        edge,
        side,
        trans,
        width,
        ld,
    };
    trsm.run(n, b.as_mut_slice(), x.as_mut_slice());
}

/// One triangular solve: the `n × n` `L` in solve form at `edge` (rows `n`
/// apart), the side and transpose, and the right-hand side's other
/// dimension `width`. `b` and `x` are row-major with rows `ld` apart,
/// `n × width` on the left, `width × n` on the right.
struct Trsm<'a> {
    l: &'a [f64],
    edge: usize,
    side: Side,
    trans: bool,
    width: usize,
    ld: usize,
}

impl Trsm<'_> {
    /// Solves for all `n` unknowns of the solved dimension, block by block
    /// in dependency order (forward for `L` on the left and `Lᵀ` on the
    /// right, backward otherwise): one product subtracts what every solved
    /// block contributes to block `I`, then a [`Trsm::leaf`] applies
    /// `op(L[I,I])⁻¹`.
    fn run(&self, n: usize, b: &mut [f64], x: &mut [f64]) {
        let blocks = n.div_ceil(self.edge);
        let forward = matches!(
            (self.side, self.trans),
            (Side::Left, false) | (Side::Right, true)
        );
        let (w, ldl, ld) = (self.width, n, self.ld);
        for i in 0..blocks {
            let lo = self.edge * if forward { i } else { blocks - 1 - i };
            let hi = n.min(lo + self.edge);
            let bw = hi - lo;
            match (self.side, self.trans) {
                // b[I] −= L[I, 0:lo] · x[0:lo]
                (Side::Left, false) if lo > 0 => {
                    let (l, xs) = (Operand::new(&self.l[lo * ldl..], ldl), Operand::new(x, ld));
                    gemm(-1.0, bw, lo, w, l, xs, &mut b[lo * ld..], ld, Mask::Full);
                }
                // b[I] −= L[hi:n, I]ᵀ · x[hi:n]
                (Side::Left, true) if hi < n => {
                    let l = Operand::new(&self.l[hi * ldl + lo..], ldl).t();
                    let xs = Operand::new(&x[hi * ld..], ld);
                    gemm(
                        -1.0,
                        bw,
                        n - hi,
                        w,
                        l,
                        xs,
                        &mut b[lo * ld..],
                        ld,
                        Mask::Full,
                    );
                }
                // b[:, I] −= x[:, hi:n] · L[hi:n, I]
                (Side::Right, false) if hi < n => {
                    let xs = Operand::new(&x[hi..], ld);
                    let l = Operand::new(&self.l[hi * ldl + lo..], ldl);
                    gemm(-1.0, w, n - hi, bw, xs, l, &mut b[lo..], ld, Mask::Full);
                }
                // b[:, I] −= x[:, 0:lo] · L[I, 0:lo]ᵀ
                (Side::Right, true) if lo > 0 => {
                    let (xs, l) = (
                        Operand::new(x, ld),
                        Operand::new(&self.l[lo * ldl..], ldl).t(),
                    );
                    gemm(-1.0, w, lo, bw, xs, l, &mut b[lo..], ld, Mask::Full);
                }
                _ => {}
            }
            self.leaf(n, lo, hi, b, x);
        }
    }

    /// One diagonal block `I = [lo, hi)`: `x[I] = op(L[I,I])⁻¹ · b[I]` (or
    /// `b[:,I] · op(L[I,I])⁻¹`), one product with the stored inverse as a
    /// triangular operand.
    fn leaf(&self, n: usize, lo: usize, hi: usize, b: &[f64], x: &mut [f64]) {
        let (w, bw, ld) = (self.width, hi - lo, self.ld);
        let dinv = Operand::new(&self.l[lo * n + lo..], n).triangle(Mask::Lower);
        let dinv = if self.trans { dinv.t() } else { dinv };
        match self.side {
            Side::Left => {
                let bs = Operand::new(&b[lo * ld..], ld);
                gemm_overwrite(1.0, bw, bw, w, dinv, bs, &mut x[lo * ld..], ld, Mask::Full);
            }
            Side::Right => {
                let bs = Operand::new(&b[lo..], ld);
                gemm_overwrite(1.0, w, bw, bw, bs, dinv, &mut x[lo..], ld, Mask::Full);
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
    potrf(a, CHOL_NB, SOLVE_NB)?;
    potri(a, CHOL_NB, SOLVE_NB);
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
        for n in [1usize, 5, 24, 25, 70, SOLVE_NB + 1, 257] {
            let a = random_spd(n, 300 + n as u64);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let ch = cholesky(&a).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&l), bits(&ch.solver), "n={n}");
            // Off the inverted diagonal blocks it is `L` itself.
            for i in 0..n {
                for j in 0..i - i % SOLVE_NB {
                    assert_eq!(l[(i, j)].to_bits(), ch.factor()[(i, j)].to_bits());
                }
            }
        }
    }

    /// The kernels' only working storage is one leaf-edge panel per
    /// thread: the trainer's factorization, solves and inverse at d = 257
    /// leave it at `CHOL_NB · (CHOL_NB + n)` elements.
    #[test]
    fn scratch_stays_one_leaf_panel() {
        std::thread::spawn(|| {
            let n = 257;
            let a = random_spd(n, 31);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let (mut b, mut x) = (
                Matrix::from_fn(n, n, |i, j| (i + j) as f64),
                Matrix::zeros(0, 0),
            );
            for side in [Side::Left, Side::Right] {
                solve_into(&l, side, true, &mut b, &mut x);
            }
            let mut inv = a;
            spd_inverse_in_place(&mut inv).unwrap();
            let len = SCRATCH.with(|cell| cell.borrow().len());
            assert_eq!(len, CHOL_NB * (CHOL_NB + n));
        })
        .join()
        .unwrap();
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
