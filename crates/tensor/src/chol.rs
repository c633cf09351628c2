//! Cholesky factorization, triangular solves and SPD inversion.
//!
//! The paper inverts every damped Kronecker factor `(A + γI)` and `(G + γI)`
//! with cuSolver's Cholesky path (§V-B). This module is the CPU analogue:
//! `LLᵀ` factorization ([`cholesky_in_place`]), triangular
//! solves with `L` ([`solve_into`]), and a full SPD inverse
//! ([`spd_inverse`]) via inversion of the triangular factor — the POTRF +
//! POTRI (= TRTRI + LAUUM) sequence. All but `O(n · nb²)` of the FLOPs
//! are a few large calls into the level-3 core ([`crate::gemm::gemm`]); a
//! product with a triangle is one call with a triangular operand
//! ([`Operand::triangle`]), which skips the zero half micro-panel by
//! micro-panel and costs half a square.
//!
//! **Storage.** Everything runs in caller storage, one `n × n` square.
//! [`cholesky_in_place`] and [`solve_into`] reference its lower triangle
//! only, as LAPACK's POTRF and TRSM with `UPLO = 'L'` do: POTRF turns
//! `A`'s lower triangle into `L` in solve form and never reads or writes
//! the strict upper triangle, which stays the caller's (the trainer keeps
//! the running average of the factor there, `spdkfac_core::factors`).
//! [`spd_inverse`] then uses the upper triangle as POTRI's workspace and
//! leaves `A⁻¹` in the whole square.
//!
//! | step | on a range `[lo, hi)` of `L` | core calls |
//! |---|---|---|
//! | POTRF | right-looking over [`SOLVE_NB`] blocks: factor and invert a block, then a panel below it (next row) | — |
//! | | factor and invert a block: halve at a [`CHOL_NB`] edge; each half comes back inverted, so the panel between them is one product, and TRTRI's step joins them; a leaf is `potf2`, then `trti2` over it | + 2, triangular |
//! | | panel: `L21 = A21 · M11ᵀ`, `A22 −= L21 · L21ᵀ`, in row chunks the scratch holds | 3 per chunk, [`Mask::Lower`] |
//! | TRTRI | halve at a block edge; invert both halves; `M21 = −(M22 · L21) · M11` (POTRF's joins too) | 2, triangular |
//! | LAUUM | halve at a leaf edge: the top half's `MᵀM`, `+= M21ᵀM21`, then `M21ᵀM22` above the diagonal, then the bottom half's; mirror the upper triangle | 2, one triangular |
//! | solve | block by block in dependency order, not halved: subtract what the solved blocks contribute to block `I`, then apply its stored `L[I,I]⁻¹` | 2 per block, the second triangular |
//!
//! A product never writes the rows it reads (Rust slices are whole rows,
//! so a block and the block beside it cannot be borrowed apart). Where it
//! would, one operand goes through a per-thread scratch of
//! `CHOL_NB · (CHOL_NB + n)` elements that only ever grows — POTRF's
//! panel `L21` a chunk of rows at a time, and its TRTRI steps'
//! `(M22 · L21)ᵀ` — or, in POTRI, through the free block above the
//! diagonal, rows `[lo, mid)`, columns `[mid, hi)` (TRTRI's
//! `(M22 · L21)ᵀ`, LAUUM's `M21ᵀM22`). A warm [`cholesky_in_place`] /
//! [`solve_into`] / [`spd_inverse_in_place`] allocates nothing. The core
//! keeps results bit-identical for any `SPDKFAC_THREADS` and across AVX2 /
//! AVX-512 hosts. The parity tests (`chol::tests`) force small edges through
//! the same `potrf` / `solve_with_block` / `potri`; their oracle is the
//! unblocked leaf run on the whole matrix (`potrf(w, n, n)`,
//! `potri(w, n, n)`).
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
//! slivers. The form is lower-triangular, so its packed lower triangle
//! ([`pack_factor_into`]) is `n(n+1)/2` elements like a packed inverse.
//! A solve writes `X` into a second buffer and uses `B` as its workspace
//! ([`solve_into`]): the blocks it subtracts from and the blocks it reads
//! are then never the same storage, on either side.

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

/// POTRF in the matrix's own storage, for the solves: `a`'s lower
/// triangle holds the SPD matrix on entry and, on success, `L` in solve
/// form at [`SOLVE_NB`] — the form [`solve_into`] reads (module docs).
/// The strict upper triangle is neither read nor written. With this
/// thread's scratch warm it allocates nothing. On error the lower triangle
/// holds a partial factorization.
///
/// # Errors
///
/// - [`TensorError::NotSquare`] if `a` is rectangular.
/// - [`TensorError::NotPositiveDefinite`] if a non-positive or non-finite
///   pivot appears.
pub fn cholesky_in_place(a: &mut Matrix) -> Result<(), TensorError> {
    potrf(a, CHOL_NB, SOLVE_NB)
}

/// Inverts the `bw × bw` lower-triangular diagonal block of `w` (rows `n`
/// apart) at `j0` in place, through the start of `scratch`; the block's
/// strict upper triangle is not touched.
fn invert_diagonal_block(w: &mut [f64], n: usize, j0: usize, bw: usize, scratch: &mut [f64]) {
    let dinv = &mut scratch[..bw * bw];
    dinv.fill(0.0);
    trti2(&w[j0 * n + j0..], n, dinv, bw, bw);
    for (r, (row, drow)) in w[j0 * n + j0..]
        .chunks_mut(n)
        .zip(dinv.chunks(bw))
        .enumerate()
    {
        row[..=r].copy_from_slice(&drow[..=r]);
    }
}

/// Factors the SPD matrix in `w` in place into `L` in solve form at `edge`:
/// right-looking over `edge`-wide blocks, each factored and inverted by
/// [`factor_inverted`] and followed by a [`panel`]. Only the lower
/// triangle is read or written; the strict upper one is left as it is.
fn potrf(w: &mut Matrix, leaf: usize, edge: usize) -> Result<(), TensorError> {
    if !w.is_square() {
        return Err(TensorError::NotSquare {
            op: "cholesky",
            shape: w.shape(),
        });
    }
    let n = w.rows();
    let w = w.as_mut_slice();
    // A panel's chunks and a leaf's inverse; a join's `w1 × w2` product
    // (`w1 + w2 <= edge`) fits too at the default edges.
    let (leaf_n, edge_n) = (leaf.min(n), edge.min(n));
    with_scratch(
        (leaf_n * (leaf_n + n)).max(edge_n * edge_n / 4),
        |scratch| {
            for lo in (0..n).step_by(edge) {
                let hi = n.min(lo + edge);
                factor_inverted(w, n, lo, hi, leaf, scratch)?;
                if hi < n {
                    panel(w, n, lo, hi, n, scratch);
                }
            }
            Ok(())
        },
    )
    .map_err(|pivot| TensorError::NotPositiveDefinite { pivot })
}

/// Factors `[lo, hi)` of `w` (rows `n` apart), whose updates from the
/// columns left of `lo` are already subtracted, and leaves it inverted:
/// `L[lo:hi, lo:hi]⁻¹`. Halves at a `leaf` edge down to `potf2` + `trti2`
/// leaves; each half comes back inverted, so the [`panel`] between them
/// is one product, and TRTRI's step ([`trtri_join`]) joins them through
/// `scratch`. `Err` carries the global index of the first non-positive or
/// non-finite pivot.
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
    trtri_join(w, n, lo, mid, hi, Some(scratch));
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
    trtri_join(w, n, lo, mid, hi, None);
}

/// TRTRI's step: with `[lo, mid)` and `[mid, hi)` of `w` inverted and
/// `L21` between them, `[lo, hi)` becomes inverted:
/// `M21 = −(M22 · L21) · M11`, two products with a triangular operand.
/// `(M22 · L21)ᵀ` lands at the start of `scratch` (POTRF, which leaves the
/// upper triangle alone) or, without one, in the free block above the
/// diagonal (POTRI).
fn trtri_join(
    w: &mut [f64],
    n: usize,
    lo: usize,
    mid: usize,
    hi: usize,
    mut scratch: Option<&mut [f64]>,
) {
    let (w1, w2, up) = (mid - lo, hi - mid, lo * n + mid);
    let (top, bottom) = w.split_at_mut(mid * n);
    let l21 = Operand::new(&bottom[lo..], n);
    let m22 = Operand::new(&bottom[mid..], n).triangle(Mask::Lower);
    let (dst, ldu) = match scratch.as_deref_mut() {
        Some(s) => (s, w2),
        None => (&mut top[up..], n),
    };
    gemm_overwrite(1.0, w1, w2, w2, l21.t(), m22.t(), dst, ldu, Mask::Full);
    let u = match scratch.as_deref() {
        Some(s) => Operand::new(s, ldu),
        None => Operand::new(&top[up..], n),
    };
    let m11 = Operand::new(&top[lo * n + lo..], n).triangle(Mask::Lower);
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

/// Turns `L` in solve form at `edge` in `w` into `A⁻¹ = L⁻ᵀL⁻¹` in
/// place: TRTRI, then LAUUM at leaves of `leaf`, then the upper triangle
/// mirrored over the lower. The strict upper triangle is its workspace:
/// every element of it is written before it is read.
fn potri(w: &mut Matrix, leaf: usize, edge: usize) {
    let n = w.rows();
    let w = w.as_mut_slice();
    trtri(w, n, 0, n, edge);
    with_scratch(leaf.min(n).pow(2), |scratch| {
        lauum(w, n, 0, n, leaf, scratch)
    });
    mirror_upper(w, n);
}

/// The block-by-block triangular solve (module docs) with `l` in solve form at
/// [`SOLVE_NB`], as [`cholesky_in_place`] leaves it: `x` becomes
/// `op(L)⁻¹ · b` on the [`Side::Left`], `b · op(L)⁻¹` on the
/// [`Side::Right`] (`op(L) = Lᵀ` when `trans`), reshaped to `b`'s shape
/// with its storage reused. Only `l`'s lower triangle is read. `b` is the solve's workspace and is left
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

/// The inverse of [`pack_factor_into`]: the lower triangle of `out`
/// (reshaped to `dim × dim`, its storage reused) becomes the one `packed`
/// holds. The strict upper triangle is not written: a square `out` of
/// that size keeps what it held there.
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
/// Propagates [`cholesky_in_place`] errors.
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
/// on entry (only its lower triangle is read) and its inverse on success;
/// POTRI writes every element above the diagonal before it reads it.
/// With this thread's scratch warm (one earlier call at this size) it
/// allocates nothing. On error `a` holds a partial factorization.
///
/// # Errors
///
/// Same contract as [`cholesky_in_place`].
pub fn spd_inverse_in_place(a: &mut Matrix) -> Result<(), TensorError> {
    potrf(a, CHOL_NB, SOLVE_NB)?;
    potri(a, CHOL_NB, SOLVE_NB);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;
    use proptest::prelude::*;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(n + 4, n);
        let mut a = x.gramian_scaled(n as f64);
        a.add_scaled_identity(0.5);
        a
    }

    /// POTRF of `a` at leaves of `leaf` into solve form at `edge`.
    fn factor(a: &Matrix, leaf: usize, edge: usize) -> Result<Matrix, TensorError> {
        let mut w = a.clone();
        potrf(&mut w, leaf, edge)?;
        Ok(w)
    }

    /// `m`'s lower triangle with its `edge`-wide diagonal blocks inverted,
    /// zero above the diagonal: plain `L` from the solve form at `edge`,
    /// and the solve form from plain `L`.
    fn invert_blocks(m: &Matrix, edge: usize) -> Matrix {
        let (n, mut w) = (m.rows(), m.clone());
        let mut dinv = vec![0.0; edge.min(n).pow(2)];
        for j0 in (0..n).step_by(edge) {
            invert_diagonal_block(w.as_mut_slice(), n, j0, edge.min(n - j0), &mut dinv);
        }
        with_upper(&w, 0.0)
    }

    /// The square `a` with every element above the diagonal set to `v`.
    fn with_upper(a: &Matrix, v: f64) -> Matrix {
        Matrix::from_fn(a.rows(), a.cols(), |i, j| if j > i { v } else { a[(i, j)] })
    }

    /// Plain `L` at leaves of `leaf` and solve blocks of `4 · leaf`: the
    /// edges a forced leaf moves together, as [`CHOL_NB`] and [`SOLVE_NB`].
    fn factor_with_block(a: &Matrix, leaf: usize) -> Result<Matrix, TensorError> {
        let edge = leaf * (SOLVE_NB / CHOL_NB);
        Ok(invert_blocks(&factor(a, leaf, edge)?, edge))
    }

    /// Plain `L` at the default edges.
    fn plain_factor(a: &Matrix) -> Result<Matrix, TensorError> {
        Ok(invert_blocks(&factor(a, CHOL_NB, SOLVE_NB)?, SOLVE_NB))
    }

    /// The oracle: one unblocked leaf over the whole matrix, in solve form
    /// (all of it `L⁻¹`, so each solve is one product).
    fn unblocked(a: &Matrix) -> Result<Matrix, TensorError> {
        let n = a.rows().max(1);
        factor(a, n, n)
    }

    /// The oracle's plain `L`.
    fn unblocked_factor(a: &Matrix) -> Result<Matrix, TensorError> {
        Ok(invert_blocks(&unblocked(a)?, a.rows().max(1)))
    }

    /// POTRI of a solve form at `edge`, LAUUM at leaves of `leaf`.
    fn inverse(solver: &Matrix, leaf: usize, edge: usize) -> Matrix {
        let mut w = solver.clone();
        potri(&mut w, leaf, edge);
        w
    }

    /// The oracle's inverse: the unblocked leaf's TRTRI and scalar `MᵀM`.
    fn unblocked_inverse(a: &Matrix) -> Result<Matrix, TensorError> {
        let n = a.rows().max(1);
        Ok(inverse(&unblocked(a)?, n, n))
    }

    /// POTRI from plain `l` at block edge `nb` (leaves and TRTRI blocks).
    fn blocked_inverse(l: &Matrix, nb: usize) -> Matrix {
        inverse(&invert_blocks(l, nb), nb, nb)
    }

    /// One triangular solve on a solve form at `edge`: `op(L)⁻¹ · b` on the
    /// left, `b · op(L)⁻¹` on the right.
    fn solve(solver: &Matrix, edge: usize, side: Side, trans: bool, b: &Matrix) -> Matrix {
        let (mut work, mut x) = (b.clone(), Matrix::zeros(0, 0));
        solve_with_block(solver, edge, side, trans, &mut work, &mut x);
        x
    }

    /// `A⁻¹ · b` through the trainer's path: POTRF, then `L⁻ᵀ(L⁻¹b)`.
    fn solve_spd(a: &Matrix, b: &Matrix) -> Matrix {
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        let (mut y, mut x) = (b.clone(), Matrix::zeros(0, 0));
        solve_into(&l, Side::Left, false, &mut y, &mut x);
        solve_into(&l, Side::Left, true, &mut x, &mut y);
        y
    }

    /// Bit patterns, for `to_bits` equality.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Largest element-wise difference, relative to the oracle's largest
    /// element.
    fn rel_diff(got: &Matrix, oracle: &Matrix) -> f64 {
        let scale = oracle.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        got.max_abs_diff(oracle) / scale
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1, 2, 3, 8, 17, 40] {
            let a = random_spd(n, n as u64);
            let l = plain_factor(&a).unwrap();
            let rebuilt = l.matmul(&l.transpose());
            assert!(
                rebuilt.max_abs_diff(&a) < 1e-10,
                "reconstruction failed at n={n}"
            );
        }
    }

    /// Given only `A`'s lower triangle, POTRF leaves a lower-triangular
    /// `L`: nothing lands above the diagonal.
    #[test]
    fn factor_is_lower_triangular() {
        for n in [6usize, 97] {
            let mut l = with_upper(&random_spd(n, 42), 0.0);
            cholesky_in_place(&mut l).unwrap();
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)].to_bits(), 0, "n={n} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn rejects_rectangular() {
        let mut a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky_in_place(&mut a),
            Err(TensorError::NotSquare { op: "cholesky", .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky_in_place(&mut a),
            Err(TensorError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_negative_diagonal_immediately() {
        let mut a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, 1.0]]);
        assert!(matches!(
            cholesky_in_place(&mut a),
            Err(TensorError::NotPositiveDefinite { pivot: 0 })
        ));
    }

    #[test]
    fn solve_matches_direct() {
        let a = random_spd(12, 3);
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let x = solve_spd(&a, &Matrix::from_vec(12, 1, b.clone()));
        let ax = a.matvec(x.as_slice());
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solve() {
        let a = random_spd(7, 8);
        let mut rng = MatrixRng::new(9);
        let b = rng.uniform_matrix(7, 3, -1.0, 1.0);
        let x = solve_spd(&a, &b);
        let ax = a.matmul(&x);
        assert!(ax.max_abs_diff(&b) < 1e-9);
    }

    /// What [`cholesky_in_place`] leaves is `L` in solve form: the upper
    /// triangle untouched, `L` itself off the [`SOLVE_NB`] diagonal blocks
    /// and their inverses on them — against the oracle's `L`.
    #[test]
    fn in_place_factor_is_the_solve_form_of_the_factorization() {
        for n in [1usize, 5, 24, 25, 70, SOLVE_NB + 1, 257] {
            let a = random_spd(n, 300 + n as u64);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let oracle = unblocked_factor(&a).unwrap();
            let scale = oracle.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                let block = i - i % SOLVE_NB;
                for j in 0..n {
                    if j > i {
                        assert_eq!(l[(i, j)].to_bits(), a[(i, j)].to_bits(), "n={n} ({i}, {j})");
                    } else if j < block {
                        let off = (l[(i, j)] - oracle[(i, j)]).abs() / scale;
                        assert!(off < 1e-12, "n={n} ({i}, {j}) off by {off:e}");
                    } else {
                        // Row i of the inverted block times column j of L.
                        let id: f64 = (j..=i).map(|k| l[(i, k)] * oracle[(k, j)]).sum();
                        let want = if i == j { 1.0 } else { 0.0 };
                        assert!((id - want).abs() < 1e-10, "n={n} ({i}, {j}): {id}");
                    }
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
        let solver = factor(&a, 8, 32).unwrap();
        let l = invert_blocks(&solver, 32);
        let mut rng = MatrixRng::new(12);
        for side in [Side::Left, Side::Right] {
            for trans in [false, true] {
                let op = if trans { l.transpose() } else { l.clone() };
                let b = match side {
                    Side::Left => rng.uniform_matrix(53, 7, -1.0, 1.0),
                    Side::Right => rng.uniform_matrix(7, 53, -1.0, 1.0),
                };
                let x = solve(&solver, 32, side, trans, &b);
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
                            bits(&x)
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

    /// The packed lower triangle unpacks to the same lower triangle, into
    /// storage of any shape; a square of the size keeps its upper one.
    #[test]
    fn packed_factor_round_trips() {
        for n in [0usize, 1, 4, 30] {
            let mut l = random_spd(n, 500 + n as u64);
            cholesky_in_place(&mut l).unwrap();
            let mut packed = vec![f64::NAN; n * (n + 1) / 2];
            pack_factor_into(&l, &mut packed);
            let (mut back, mut square) = (
                Matrix::from_vec(1, 3, vec![7.0; 3]),
                Matrix::from_vec(n, n, vec![f64::NAN; n * n]),
            );
            unpack_factor_into(n, &packed, &mut back);
            unpack_factor_into(n, &packed, &mut square);
            assert_eq!(back.shape(), (n, n));
            for i in 0..n {
                for j in 0..n {
                    if j <= i {
                        assert_eq!(back[(i, j)], l[(i, j)], "n={n} ({i}, {j})");
                        assert_eq!(square[(i, j)], l[(i, j)], "n={n} ({i}, {j})");
                    } else {
                        assert!(square[(i, j)].is_nan(), "n={n} ({i}, {j})");
                    }
                }
            }
        }
    }

    /// POTRF references only the lower triangle, as with `UPLO = 'L'`: a
    /// NaN sentinel in every element above the diagonal comes out
    /// bit-untouched, `L` and every solve with it are bit-equal to a
    /// zero-upper run's, and [`spd_inverse`] (whose POTRI uses the upper
    /// triangle as workspace) gives the bits of a POTRI on a zeroed one.
    #[test]
    fn potrf_leaves_the_upper_triangle_untouched() {
        let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
        for (s, d) in [24usize, 95, 97, 193, 256, 257].into_iter().enumerate() {
            let mut rng = MatrixRng::new(600 + s as u64);
            let a = rng.spd_matrix(d, 0.5);
            let (mut zero, mut marked) = (with_upper(&a, 0.0), with_upper(&a, sentinel));
            cholesky_in_place(&mut zero).unwrap();
            cholesky_in_place(&mut marked).unwrap();
            for i in 0..d {
                for j in 0..d {
                    let want = if j > i { sentinel } else { zero[(i, j)] };
                    assert_eq!(marked[(i, j)].to_bits(), want.to_bits(), "d={d} ({i}, {j})");
                }
            }
            for side in [Side::Left, Side::Right] {
                let b = match side {
                    Side::Left => rng.uniform_matrix(d, 33, -1.0, 1.0),
                    Side::Right => rng.uniform_matrix(33, d, -1.0, 1.0),
                };
                for trans in [false, true] {
                    let [x, y] = [&zero, &marked].map(|l| {
                        let (mut work, mut x) = (b.clone(), Matrix::zeros(0, 0));
                        solve_into(l, side, trans, &mut work, &mut x);
                        bits(&x)
                    });
                    assert!(x == y, "d={d} {side:?} trans={trans}");
                }
            }
            // The oracle: POTRI on a zeroed upper triangle.
            let mut zeroed = zero.clone();
            potri(&mut zeroed, CHOL_NB, SOLVE_NB);
            let mut poisoned = marked;
            potri(&mut poisoned, CHOL_NB, SOLVE_NB);
            let inv = spd_inverse(&a).unwrap();
            assert!(bits(&inv) == bits(&zeroed), "d={d}: spd_inverse");
            assert!(
                bits(&poisoned) == bits(&zeroed),
                "d={d}: POTRI read its workspace"
            );
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
    fn blocked_factorization_matches_unblocked() {
        for n in [5usize, 16, 33, 65, 130] {
            let a = random_spd(n, 500 + n as u64);
            let unblocked = unblocked_factor(&a).unwrap();
            // Small nb forces the blocked path even on tiny matrices.
            for nb in [2usize, 7, 16] {
                let blocked = factor_with_block(&a, nb).unwrap();
                assert!(
                    blocked.max_abs_diff(&unblocked) < 1e-10,
                    "blocked nb={nb} diverges at n={n}"
                );
            }
        }
    }

    #[test]
    fn blocked_inverse_matches_unblocked() {
        for n in [5usize, 16, 33, 65] {
            let a = random_spd(n, 900 + n as u64);
            let l = plain_factor(&a).unwrap();
            let reference = unblocked_inverse(&a).unwrap();
            for nb in [2usize, 7, 16] {
                let blocked = blocked_inverse(&l, nb);
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
        match factor_with_block(&a, 4) {
            Err(TensorError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 7),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn damping_rescues_singular_matrix() {
        // Rank-1 Gramian is singular; damping per Eq. 12 makes it invertible.
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let a = x.gramian();
        assert!(cholesky_in_place(&mut a.clone()).is_err());
        let damped = a.damped(1e-3);
        assert!(spd_inverse(&damped).is_ok());
    }

    /// Block edges the level-3 Cholesky / inverse are forced through: below,
    /// at and above the default, and not a multiple of any register tile.
    const BLOCK_EDGES: [usize; 4] = [8, 24, 32, 64];

    /// Factor dimensions straddling the block edges and the trainer's real
    /// sizes (256 for the workload MLP, 257 with a bias column).
    const EDGE_DIMS: [usize; 9] = [31, 32, 33, 63, 64, 65, 255, 256, 257];

    /// Level-3 POTRF / POTRI of one SPD matrix, at the default block edge
    /// and every forced one, against the unblocked oracles.
    fn level3_matches_oracles(d: usize, seed: u64) -> Result<(), String> {
        let a = MatrixRng::new(seed).spd_matrix(d, 0.5);
        let oracle = unblocked_factor(&a).map_err(|e| e.to_string())?;
        let oracle_inv = unblocked_inverse(&a).map_err(|e| e.to_string())?;
        let check = |what: String, l: &Matrix, inv: &Matrix| {
            let (dl, di) = (rel_diff(l, &oracle), rel_diff(inv, &oracle_inv));
            if dl > 1e-12 || di > 1e-12 {
                return Err(format!(
                    "d={d} {what}: factor off by {dl:e}, inverse by {di:e}"
                ));
            }
            if inv.max_asymmetry() != 0.0 {
                return Err(format!("d={d} {what}: asymmetric inverse"));
            }
            Ok(())
        };
        let l = plain_factor(&a).map_err(|e| e.to_string())?;
        let inv = spd_inverse(&a).map_err(|e| e.to_string())?;
        check("default".into(), &l, &inv)?;
        for nb in BLOCK_EDGES {
            let l = factor_with_block(&a, nb).map_err(|e| e.to_string())?;
            check(format!("nb={nb}"), &l, &blocked_inverse(&l, nb))?;
        }
        Ok(())
    }

    #[test]
    fn level3_inverse_matches_oracles_at_block_and_factor_edges() {
        for (i, d) in EDGE_DIMS.into_iter().enumerate() {
            level3_matches_oracles(d, 40 + i as u64).unwrap();
        }
    }

    /// Solve dimensions: one block, either side of one and two block edges,
    /// and the trainer's factor sizes.
    const SOLVE_DIMS: [usize; 10] = [1, 23, 24, 25, 47, 48, 49, 255, 256, 257];

    /// Right-hand-side widths: a vector, a ragged tile count, and the
    /// trainer's widest gradients.
    const SOLVE_WIDTHS: [usize; 4] = [1, 33, 256, 257];

    /// Every blocked triangular solve of one SPD matrix's factor — both
    /// sides, both transposes — through the trainer's path
    /// ([`cholesky_in_place`] + [`solve_into`]) against the unblocked leaf
    /// (one product with `op(L⁻¹)`).
    fn solves_match_oracle(d: usize, width: usize, seed: u64) -> Result<(), String> {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.5);
        let oracle = unblocked(&a).map_err(|e| e.to_string())?;
        let mut l = a.clone();
        cholesky_in_place(&mut l).map_err(|e| e.to_string())?;
        for side in [Side::Left, Side::Right] {
            let b = match side {
                Side::Left => rng.uniform_matrix(d, width, -1.0, 1.0),
                Side::Right => rng.uniform_matrix(width, d, -1.0, 1.0),
            };
            for trans in [false, true] {
                let (mut work, mut got) = (b.clone(), Matrix::zeros(0, 0));
                solve_into(&l, side, trans, &mut work, &mut got);
                let off = rel_diff(&got, &solve(&oracle, d.max(1), side, trans, &b));
                if off > 1e-12 {
                    return Err(format!(
                        "d={d} width={width} {side:?} trans={trans}: off by {off:e}"
                    ));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn blocked_solves_match_the_unblocked_oracle_at_block_and_factor_edges() {
        for (i, d) in SOLVE_DIMS.into_iter().enumerate() {
            for (j, width) in SOLVE_WIDTHS.into_iter().enumerate() {
                solves_match_oracle(d, width, (10 * i + j) as u64).unwrap();
            }
        }
    }

    /// Dimensions around the POTRF leaf ([`CHOL_NB`]) and the solve form's
    /// inverted blocks ([`SOLVE_NB`]), and the trainer's 257.
    fn solve_edge_dims() -> [usize; 8] {
        let sb = SOLVE_NB;
        [1, 23, 24, 25, sb - 1, sb + 1, 2 * sb + 1, 257]
    }

    #[test]
    fn potrf_and_solves_match_the_oracles_around_the_solve_blocks() {
        for (i, d) in solve_edge_dims().into_iter().enumerate() {
            level3_matches_oracles(d, 70 + i as u64).unwrap();
            for (j, width) in [1usize, 33, 257].into_iter().enumerate() {
                solves_match_oracle(d, width, (90 + 10 * i + j) as u64).unwrap();
            }
        }
    }

    #[test]
    fn blocked_cholesky_rejects_indefinite_and_nan_input() {
        let spd = MatrixRng::new(9).spd_matrix(100, 0.5);
        let all_paths = |a: &Matrix| {
            let mut out = vec![plain_factor(a), unblocked_factor(a)];
            out.extend(BLOCK_EDGES.map(|nb| factor_with_block(a, nb)));
            out
        };
        // Indefinite beyond the first block of every edge: the pivot is global.
        let mut indefinite = spd.clone();
        indefinite[(70, 70)] = -100.0;
        for got in all_paths(&indefinite) {
            assert_eq!(got, Err(TensorError::NotPositiveDefinite { pivot: 70 }));
        }
        let mut poisoned = spd;
        poisoned[(50, 20)] = f64::NAN;
        for got in all_paths(&poisoned) {
            assert!(matches!(got, Err(TensorError::NotPositiveDefinite { .. })));
            assert!(spd_inverse(&poisoned).is_err());
        }
    }

    proptest! {
        #[test]
        fn cholesky_reconstructs(d in 1usize..20, seed in 0u64..1_000_000) {
            let mut rng = MatrixRng::new(seed);
            let a = rng.spd_matrix(d, 0.1);
            let l = plain_factor(&a).unwrap();
            let rebuilt = l.matmul(&l.transpose());
            prop_assert!(rebuilt.max_abs_diff(&a) < 1e-9);
        }

        #[test]
        fn blocked_cholesky_matches_serial_reference(d in 2usize..40, nb in 1usize..17, seed in 0u64..1_000_000) {
            let mut rng = MatrixRng::new(seed);
            let a = rng.spd_matrix(d, 0.5);
            let reference = unblocked_factor(&a).unwrap();
            let blocked = factor_with_block(&a, nb).unwrap();
            prop_assert!(blocked.max_abs_diff(&reference) < 1e-12);
        }

        #[test]
        fn blocked_inverse_matches_serial_reference(d in 2usize..40, nb in 1usize..17, seed in 0u64..1_000_000) {
            let mut rng = MatrixRng::new(seed);
            let a = rng.spd_matrix(d, 0.5);
            let blocked = blocked_inverse(&plain_factor(&a).unwrap(), nb);
            prop_assert!(blocked.max_abs_diff(&unblocked_inverse(&a).unwrap()) < 1e-12);
            prop_assert_eq!(blocked.max_asymmetry(), 0.0);
        }
    }

    proptest! {
        // The oracles are scalar O(d³): fewer, larger cases.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn level3_inverse_matches_oracles(d in 1usize..301, seed in 0u64..1_000_000) {
            let outcome = level3_matches_oracles(d, seed);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }

        #[test]
        fn blocked_solves_match_the_unblocked_oracle(
            d in 1usize..301, pick in 0usize..8, small in 1usize..40, seed in 0u64..1_000_000,
        ) {
            let width = *SOLVE_WIDTHS.get(pick).unwrap_or(&small);
            let outcome = solves_match_oracle(d, width, seed);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }
}
