//! The level-3 core: one packed, cache-blocked, register-tiled
//! `C += α·op(A)·op(B)` over strided row-major operands ([`gemm`]), or
//! `C = α·op(A)·op(B)` without reading `C` ([`gemm_overwrite`]).
//!
//! Everything dense in this crate is a call into it:
//!
//! - `Matrix::{matmul, matmul_nt, matmul_tn}`: one unmasked overwrite.
//! - `Matrix::{gramian, syrk_nt}` (`XᵀX` / `XXᵀ`, the Kronecker-factor
//!   statistics `E[aaᵀ]` / `E[ggᵀ]`): one [`Mask::Lower`] call — tiles
//!   wholly above the diagonal are skipped, half the FLOPs — then
//!   `mirror_lower`.
//! - `Matrix::gramian_packed_into` (the statistic the trainers put on the
//!   wire as its packed upper triangle): one [`Mask::Upper`] overwrite, no
//!   mirror. Its element `(i, j)` is the `Lower` call's `(j, i)` to the
//!   bit: the same products (multiplication commutes) in the same order.
//! - The recursive Cholesky factorization, solves and SPD inverse in
//!   [`crate::chol`]: panel solve, trailing update, triangular inversion
//!   and `MᵀM` are core calls on sub-blocks (an operand is a slice that
//!   starts at the block's first element plus a leading dimension, so no
//!   block is ever copied out to be multiplied), every product with a
//!   triangle one call with a triangular operand.
//!
//! **Triangular operands.** [`Operand::triangle`] marks the stored
//! matrix's live triangle (`.t()` then reads the other one of `op(X)`).
//! Each `MR` row panel of `op(A)` and `NR` column panel of `op(B)` can
//! hold a live element only at some depths (`live_depths`): a lower
//! `op(A)` panel `[i, i + MR)` at `[0, i + MR)`, an upper one at
//! `[i, k)`, and the transposed cases for `op(B)`. A tile multiplies over
//! the intersection of its two panels' ranges only, so a triangle costs
//! half a square; each panel is packed over its own range, with the dead
//! elements inside the panel's diagonal square packed as zeros, and
//! nothing else of the dead triangle is read: it may hold anything.
//!
//! Structure (BLIS/GotoBLAS): `op(B)` is packed once per `KC × NC` cache
//! block into `NR`-wide panels, each `MC`-row block of `op(A)` into
//! `MR`-tall panels, and an `MR × NR` microkernel runs over panel pairs,
//! adding its register tile straight into `C` (writing it, for the first
//! depth block of an overwrite). The vector kernels prefetch their `C`
//! tile before the depth loop and load all of it before storing any of
//! it: rows of a tile 4 KiB apart (a leading dimension of 256) would
//! otherwise stall each load behind the previous row's store. Packing absorbs
//! transposition, `α` and the zero padding of ragged panels; the pack
//! buffers are per-thread, grow to the largest block seen and are never
//! cleared. The microkernel is chosen once per process from CPUID:
//! AVX-512F 8×24, AVX2+FMA 4×8, or a portable 4×8 (the crate itself stays
//! compiled for baseline x86-64).
//!
//! Two invariants every caller relies on:
//!
//! - **Thread count.** Row blocks of `C` are pool tasks
//!   ([`crate::pool`]); each element of `C` is produced by exactly one
//!   task, its depth blocks in order, so results are bit-identical for any
//!   `SPDKFAC_THREADS`.
//! - **ISA.** Both vector microkernels compute each element as one FMA
//!   chain over `p` from zero, in order, over the same depth split, and add
//!   it to `C` once per depth block — AVX2 and AVX-512 hosts produce
//!   identical bits. (The portable kernel multiplies and adds separately
//!   and rounds differently.) A triangular clip drops only products with
//!   a packed zero, which leave a finite chain unchanged, so where a tile
//!   shape puts the clip does not move a bit; an overwrite's `C = acc` is
//!   `0 + acc`.
//!
//! [`matmul_reference`] and [`gramian_reference`] are the serial seed
//! kernels, kept as oracles for the parity tests.

use crate::pool::{self, SharedSlice};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Rows of `op(A)` per pool task; a multiple of every kernel's `MR`.
const MC: usize = 64;
/// Largest depth of one packed block. `k` is split into `⌈k / KC⌉` equal
/// blocks, so `k = 257` is one pass and no block is ever a thin leftover.
pub const KC: usize = 384;
/// Columns of `op(B)` per packed block (bounds the pack buffer at
/// `KC · NC` doubles); a multiple of every kernel's `NR`.
const NC: usize = 2040;
/// Minimum multiply-adds before a parallel dispatch is worth it (a
/// dispatch costs about what 2M of them do).
const PAR_FLOPS: usize = 4 << 20;
/// Edge of the square tiles [`mirror_lower`] walks (both tiles of a pair
/// stay in L1).
const MIRROR_TILE: usize = 32;
/// Largest `MR · NR` of any microkernel: scratch for ragged edge tiles
/// and tiles a mask cuts.
const MAX_TILE: usize = 8 * 24;

/// A strided row-major operand: element `(i, j)` of the stored matrix is
/// `data[i * ld + j]`, and `trans` makes the core read its transpose. A
/// sub-block of a larger matrix is the slice from its first element on,
/// with the parent's leading dimension.
#[derive(Debug, Clone, Copy)]
pub struct Operand<'a> {
    pub data: &'a [f64],
    pub ld: usize,
    pub trans: bool,
    /// The stored matrix's live triangle. With [`Mask::Lower`] the elements
    /// right of its diagonal (`j > i`) are structural zeros, with
    /// [`Mask::Upper`] those left of it: the core never multiplies them,
    /// whatever the storage holds there. [`Mask::Full`] is a dense operand.
    pub tri: Mask,
}

impl<'a> Operand<'a> {
    /// `data` read as stored, rows `ld` apart.
    pub fn new(data: &'a [f64], ld: usize) -> Self {
        Operand {
            data,
            ld,
            trans: false,
            tri: Mask::Full,
        }
    }

    /// The same storage read transposed.
    pub fn t(self) -> Self {
        Operand {
            trans: !self.trans,
            ..self
        }
    }

    /// The same storage with only its `tri` triangle live (a transposed
    /// view then has the other triangle of `op(self)` live).
    pub fn triangle(self, tri: Mask) -> Self {
        Operand { tri, ..self }
    }

    /// The live triangle of `op(self)`.
    fn op_tri(&self) -> Mask {
        if self.trans {
            self.tri.flip()
        } else {
            self.tri
        }
    }

    /// Panics unless `op(self)` holds `rows × cols` elements.
    fn check(&self, name: &str, rows: usize, cols: usize) {
        let (r, c) = if self.trans {
            (cols, rows)
        } else {
            (rows, cols)
        };
        assert!(
            self.ld >= c && (r == 0 || (r - 1) * self.ld + c <= self.data.len()),
            "gemm: operand {name} ({r}x{c} stored, ld {}) overruns its {} elements",
            self.ld,
            self.data.len()
        );
    }
}

/// A triangle of a matrix indexed from its top-left corner: which
/// elements of `C` the core writes, or which elements of an operand are
/// live ([`Operand::triangle`]). Tiles wholly outside the triangle are
/// skipped; a tile that straddles the diagonal is computed in full in a
/// scratch tile and only its elements inside the triangle land in `C`, so
/// the other triangle of `C` is never touched (a Cholesky factor keeps
/// its running average there, [`crate::chol`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    /// Every tile / element.
    Full,
    /// Skip tiles wholly above the diagonal (`j > i` for all elements); of
    /// an operand, only `j <= i` is live.
    Lower,
    /// Skip tiles wholly below the diagonal; of an operand, only `j >= i`
    /// is live.
    Upper,
}

impl Mask {
    /// The same triangle of the transposed matrix.
    fn flip(self) -> Mask {
        match self {
            Mask::Lower => Mask::Upper,
            Mask::Upper => Mask::Lower,
            Mask::Full => Mask::Full,
        }
    }
}

/// The depths `[lo, hi)` at which the vectors `[o, o + w)` of a packed
/// operand (rows of `op(A)`, columns of `op(B)`) can hold a live element,
/// for the live triangle `tri` of the `(vector, depth)` matrix (`Lower`:
/// depth `<= vector`). The clip of every micro-panel.
fn live_depths(tri: Mask, o: usize, w: usize) -> (usize, usize) {
    match tri {
        Mask::Full => (0, usize::MAX),
        Mask::Lower => (0, o + w),
        Mask::Upper => (o, usize::MAX),
    }
}

/// A register-tile microkernel over packed panels.
trait Micro {
    const MR: usize;
    const NR: usize;

    /// `c[r * ldc + j] += Σ_p a[p * MR + r] · b[p * NR + j]` for the whole
    /// `MR × NR` tile: the sum runs over `p` in order from zero and is
    /// added to `c` once — or, with `set`, written over `c` unread.
    ///
    /// # Safety
    /// The CPU supports the kernel's ISA; `a` and `b` are readable for
    /// `kc * MR` / `kc * NR` elements and `c` is writable for
    /// `(MR - 1) * ldc + NR`.
    unsafe fn tile(kc: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize, set: bool);

    /// Transposing pack of four equally long source rows:
    /// `dst[p * w + r] = alpha · rows[r][p]` for `r < 4`.
    ///
    /// # Safety
    /// The CPU supports the kernel's ISA.
    unsafe fn gather4(dst: &mut [f64], w: usize, rows: [&[f64]; 4], alpha: f64) {
        for (r, row) in rows.iter().enumerate() {
            for (d, &v) in dst[r..].iter_mut().step_by(w).zip(*row) {
                *d = alpha * v;
            }
        }
    }

    /// [`copy_rows`], compiled for the kernel's ISA.
    ///
    /// # Safety
    /// The CPU supports the kernel's ISA.
    unsafe fn copy_rows(
        dst: &mut [f64],
        w: usize,
        src: &[f64],
        ld: usize,
        valid: usize,
        alpha: f64,
    ) {
        copy_rows(dst, w, src, ld, valid, alpha);
    }
}

/// Non-transposing pack of `dst.len() / w` source rows `ld` apart:
/// `dst[p * w + r] = alpha · src[p * ld + r]` for `r < valid`, zero for
/// `valid <= r < w`. Inlined into each kernel's [`Micro::copy_rows`], so
/// it vectorizes at that kernel's width.
#[inline(always)]
fn copy_rows(dst: &mut [f64], w: usize, src: &[f64], ld: usize, valid: usize, alpha: f64) {
    for (p, d) in dst.chunks_exact_mut(w).enumerate() {
        let (d, pad) = d.split_at_mut(valid);
        for (dv, &v) in d.iter_mut().zip(&src[p * ld..][..valid]) {
            *dv = alpha * v;
        }
        pad.fill(0.0);
    }
}

/// AVX-512F and AVX2+FMA microkernels. The crate is compiled for baseline
/// x86-64 (SSE2), so they sit behind `#[target_feature]` and [`Kernel`]
/// picks one at runtime.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::Micro;
    use std::arch::x86_64::*;

    /// [`Micro::gather4`] as 4×4 in-register transposes. Safe to declare:
    /// only code compiled with AVX2 enabled can call it without `unsafe`.
    #[target_feature(enable = "avx2")]
    fn gather4(dst: &mut [f64], w: usize, rows: [&[f64]; 4], alpha: f64) {
        let kc = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == kc) && (kc == 0 || dst.len() >= (kc - 1) * w + 4));
        let av = _mm256_set1_pd(alpha);
        for p in (0..kc - kc % 4).step_by(4) {
            // SAFETY: `p + 4 <= kc`, the length of every row, and (asserted)
            // `dst` holds four elements from `(kc - 1) * w` on.
            unsafe {
                let [r0, r1, r2, r3] = rows.map(|r| _mm256_loadu_pd(r.as_ptr().add(p)));
                let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
                let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
                let cols = [
                    _mm256_permute2f128_pd::<0x20>(t0, t2),
                    _mm256_permute2f128_pd::<0x20>(t1, t3),
                    _mm256_permute2f128_pd::<0x31>(t0, t2),
                    _mm256_permute2f128_pd::<0x31>(t1, t3),
                ];
                for (q, &col) in cols.iter().enumerate() {
                    _mm256_storeu_pd(dst.as_mut_ptr().add((p + q) * w), _mm256_mul_pd(av, col));
                }
            }
        }
        for p in kc - kc % 4..kc {
            for (r, row) in rows.iter().enumerate() {
                dst[p * w + r] = alpha * row[p];
            }
        }
    }

    /// 8×24: 24 zmm accumulators (8 rows × 3 vectors of 8 doubles), 3 for
    /// the B row and one broadcast of A.
    pub struct Avx512;

    impl Micro for Avx512 {
        const MR: usize = 8;
        const NR: usize = 24;

        #[target_feature(enable = "avx512f")]
        unsafe fn tile(
            kc: usize,
            a: *const f64,
            b: *const f64,
            c: *mut f64,
            ldc: usize,
            set: bool,
        ) {
            // SAFETY: the caller guarantees AVX-512F and the extents every
            // offset below stays within (`p < kc`, `r < 8`, three 8-wide
            // vectors per 24-wide row).
            unsafe {
                // C's tile is touched once, after the loop: start pulling
                // its 8 rows (three or four lines each) in now.
                for r in 0..8 {
                    let cp = c.add(r * ldc) as *const i8;
                    _mm_prefetch::<_MM_HINT_T0>(cp);
                    _mm_prefetch::<_MM_HINT_T0>(cp.add(64));
                    _mm_prefetch::<_MM_HINT_T0>(cp.add(128));
                    _mm_prefetch::<_MM_HINT_T0>(cp.add(184));
                }
                let mut acc = [[_mm512_setzero_pd(); 3]; 8];
                for p in 0..kc {
                    let bp = b.add(p * 24);
                    let bv = [
                        _mm512_loadu_pd(bp),
                        _mm512_loadu_pd(bp.add(8)),
                        _mm512_loadu_pd(bp.add(16)),
                    ];
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_pd(*a.add(p * 8 + r));
                        for (x, &bx) in row.iter_mut().zip(&bv) {
                            *x = _mm512_fmadd_pd(av, bx, *x);
                        }
                    }
                }
                // Every load of C before any store: rows two apart are
                // 4 KiB apart at a leading dimension of 256, and a load
                // behind a store to such an address stalls.
                for (r, row) in acc.iter_mut().enumerate().filter(|_| !set) {
                    for (v, x) in row.iter_mut().enumerate() {
                        *x = _mm512_add_pd(_mm512_loadu_pd(c.add(r * ldc + v * 8)), *x);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &x) in row.iter().enumerate() {
                        _mm512_storeu_pd(c.add(r * ldc + v * 8), x);
                    }
                }
            }
        }

        // SAFETY (of the call below): AVX-512F, which the caller
        // guarantees, implies the AVX2 the shared transposer needs.
        #[target_feature(enable = "avx512f")]
        unsafe fn gather4(dst: &mut [f64], w: usize, rows: [&[f64]; 4], alpha: f64) {
            gather4(dst, w, rows, alpha);
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn copy_rows(
            dst: &mut [f64],
            w: usize,
            src: &[f64],
            ld: usize,
            valid: usize,
            alpha: f64,
        ) {
            super::copy_rows(dst, w, src, ld, valid, alpha);
        }
    }

    /// 4×8: 8 ymm accumulators (4 rows × 2 vectors of 4 doubles).
    pub struct Avx2;

    impl Micro for Avx2 {
        const MR: usize = 4;
        const NR: usize = 8;

        #[target_feature(enable = "avx2,fma")]
        unsafe fn tile(
            kc: usize,
            a: *const f64,
            b: *const f64,
            c: *mut f64,
            ldc: usize,
            set: bool,
        ) {
            // SAFETY: the caller guarantees AVX2+FMA and the extents every
            // offset below stays within (`p < kc`, `r < 4`, two 4-wide
            // vectors per 8-wide row).
            unsafe {
                let mut acc = [[_mm256_setzero_pd(); 2]; 4];
                for p in 0..kc {
                    let bp = b.add(p * 8);
                    let bv = [_mm256_loadu_pd(bp), _mm256_loadu_pd(bp.add(4))];
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_pd(*a.add(p * 4 + r));
                        for (x, &bx) in row.iter_mut().zip(&bv) {
                            *x = _mm256_fmadd_pd(av, bx, *x);
                        }
                    }
                }
                // Loads before stores, as in the AVX-512 kernel.
                for (r, row) in acc.iter_mut().enumerate().filter(|_| !set) {
                    for (v, x) in row.iter_mut().enumerate() {
                        *x = _mm256_add_pd(_mm256_loadu_pd(c.add(r * ldc + v * 4)), *x);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &x) in row.iter().enumerate() {
                        _mm256_storeu_pd(c.add(r * ldc + v * 4), x);
                    }
                }
            }
        }

        // SAFETY (of the call below): the caller guarantees AVX2.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn gather4(dst: &mut [f64], w: usize, rows: [&[f64]; 4], alpha: f64) {
            gather4(dst, w, rows, alpha);
        }

        #[target_feature(enable = "avx2,fma")]
        unsafe fn copy_rows(
            dst: &mut [f64],
            w: usize,
            src: &[f64],
            ld: usize,
            valid: usize,
            alpha: f64,
        ) {
            super::copy_rows(dst, w, src, ld, valid, alpha);
        }
    }
}

/// Portable 4×8 microkernel; the fixed-size accumulator array keeps the
/// inner loop fully unrolled and autovectorized.
struct Portable;

impl Micro for Portable {
    const MR: usize = 4;
    const NR: usize = 8;

    unsafe fn tile(kc: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize, set: bool) {
        let mut acc = [[0.0f64; 8]; 4];
        // SAFETY: the caller guarantees `kc * 4`, `kc * 8` and
        // `3 * ldc + 8` elements behind `a`, `b` and `c`.
        let (a, b) = unsafe {
            (
                std::slice::from_raw_parts(a, kc * 4),
                std::slice::from_raw_parts(b, kc * 8),
            )
        };
        for (av, bv) in a.chunks_exact(4).zip(b.chunks_exact(8)) {
            for (row, &ar) in acc.iter_mut().zip(av) {
                for (x, &bx) in row.iter_mut().zip(bv) {
                    *x += ar * bx;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            // SAFETY: as above, row `r < 4` of the tile.
            let crow = unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), 8) };
            for (cv, &x) in crow.iter_mut().zip(row) {
                *cv = if set { x } else { *cv + x };
            }
        }
    }
}

/// The microkernels, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

impl Kernel {
    pub(crate) const ALL: &'static [Kernel] = &[
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2,
        Kernel::Portable,
    ];

    /// Whether this CPU can run the kernel.
    pub(crate) fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Kernel::Portable => true,
        }
    }

    /// One-time CPUID probe: the best kernel this CPU supports.
    fn detect() -> Kernel {
        static BEST: OnceLock<Kernel> = OnceLock::new();
        *BEST.get_or_init(|| {
            *Kernel::ALL
                .iter()
                .find(|k| k.supported())
                .expect("the portable kernel is always supported")
        })
    }
}

thread_local! {
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// The microkernel [`gemm`] calls made from this thread run on.
    static FORCED: std::cell::Cell<Option<Kernel>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every [`gemm`] call it makes from this thread on
/// `kernel`: the cross-ISA tests of the kernels built on the core. (A
/// pool task runs the microkernel its caller picked.)
#[cfg(test)]
pub(crate) fn with_kernel<R>(kernel: Kernel, f: impl FnOnce() -> R) -> R {
    let before = FORCED.with(|k| k.replace(Some(kernel)));
    let out = f();
    FORCED.with(|k| k.set(before));
    out
}

/// Runs `f` on `len` elements of this thread's pack buffer, cache-line
/// aligned. The buffer only ever grows (zero-filled then, never per call:
/// packing writes every element the microkernel reads).
fn with_pack(key: &'static LocalKey<RefCell<Vec<f64>>>, len: usize, f: impl FnOnce(&mut [f64])) {
    key.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len + 8 {
            buf.resize(len + 8, 0.0);
        }
        // A `Vec<f64>` is 8-byte aligned, so at most 7 elements are skipped.
        let off = buf.as_ptr().align_offset(64).min(8);
        f(&mut buf[off..off + len])
    })
}

/// `c[i * ldc + j] += α · Σ_p op(A)(i, p) · op(B)(p, j)` for `i < m`,
/// `j < n`, `p < k`, restricted to the tiles `mask` keeps (see the module
/// docs for the structure and the bit-identity invariants).
///
/// # Panics
///
/// Panics if an operand or `c` is too short for its shape and leading
/// dimension.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    alpha: f64,
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
    c: &mut [f64],
    ldc: usize,
    mask: Mask,
) {
    gemm_with(kernel(), Land::Add, alpha, m, k, n, a, b, c, ldc, mask);
}

/// [`gemm`] that writes `C` instead of adding to it: `c[i * ldc + j] =
/// α · Σ_p …` on the tiles `mask` keeps, whose old contents are never
/// read. The same bits as zeroing those tiles and calling [`gemm`].
///
/// # Panics
///
/// As [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_overwrite(
    alpha: f64,
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
    c: &mut [f64],
    ldc: usize,
    mask: Mask,
) {
    gemm_with(kernel(), Land::Set, alpha, m, k, n, a, b, c, ldc, mask);
}

/// The microkernel this thread's core calls run on.
fn kernel() -> Kernel {
    #[cfg(test)]
    let kernel = FORCED.with(|k| k.get()).unwrap_or_else(Kernel::detect);
    #[cfg(not(test))]
    let kernel = Kernel::detect();
    kernel
}

/// How a product lands in `C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Land {
    /// Added to what `C` holds ([`gemm`]).
    Add,
    /// Written over it ([`gemm_overwrite`]).
    Set,
}

/// [`gemm`] / [`gemm_overwrite`] on an explicit microkernel (the cross-ISA
/// bit-identity test runs every supported one).
#[allow(clippy::too_many_arguments)]
fn gemm_with(
    kernel: Kernel,
    land: Land,
    alpha: f64,
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
    c: &mut [f64],
    ldc: usize,
    mask: Mask,
) {
    assert!(
        kernel.supported(),
        "gemm: {kernel:?} needs an ISA this CPU lacks"
    );
    a.check("A", m, k);
    b.check("B", k, n);
    assert!(
        ldc >= n && (m == 0 || (m - 1) * ldc + n <= c.len()),
        "gemm: C ({m}x{n}, ld {ldc}) overruns its {} elements",
        c.len()
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if land == Land::Set {
            for row in c.chunks_mut(ldc).take(m) {
                row[..n].fill(0.0);
            }
        }
        return;
    }
    let set = land == Land::Set;
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => run::<simd::Avx512>(set, alpha, m, k, n, a, b, c, ldc, mask),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => run::<simd::Avx2>(set, alpha, m, k, n, a, b, c, ldc, mask),
        Kernel::Portable => run::<Portable>(set, alpha, m, k, n, a, b, c, ldc, mask),
    }
}

/// The blocked loop nest around microkernel `K`; shapes already checked.
/// With `set` the first depth block writes `C` instead of adding to it.
#[allow(clippy::too_many_arguments)]
fn run<K: Micro>(
    set: bool,
    alpha: f64,
    m: usize,
    k: usize,
    n: usize,
    a: Operand,
    b: Operand,
    c: &mut [f64],
    ldc: usize,
    mask: Mask,
) {
    let c_len = c.len();
    let shared = SharedSlice::new(c);
    let kc_max = k.div_ceil(k.div_ceil(KC));
    let row_blocks = m.div_ceil(MC);
    let parallel = pool::is_parallel() && row_blocks > 1 && m * n * k >= PAR_FLOPS;
    // Live triangles of the (vector, depth) matrices the packs hold: the
    // rows of op(A) as they are, the columns of op(B) transposed.
    let tris = (a.op_tri(), b.op_tri().flip());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for kb in (0..k).step_by(kc_max) {
            let kc = kc_max.min(k - kb);
            let depth = kb..kb + kc;
            with_pack(&PACK_B, nc.div_ceil(K::NR) * K::NR * kc, |bpack| {
                let src = (b.data, b.ld, b.trans);
                pack::<K>(K::NR, bpack, src, tris.1, jc, nc, depth.clone(), 1.0);
                let bpack = &*bpack;
                let body = |blk: usize| {
                    let i0 = blk * MC;
                    let mc = MC.min(m - i0);
                    // SAFETY: each task owns rows [i0, i0 + mc) of C.
                    let rows = unsafe { shared.slice_mut(i0 * ldc..c_len.min((i0 + mc) * ldc)) };
                    with_pack(&PACK_A, mc.div_ceil(K::MR) * K::MR * kc, |apack| {
                        let src = (a.data, a.ld, !a.trans);
                        pack::<K>(K::MR, apack, src, tris.0, i0, mc, depth.clone(), alpha);
                        let place = Placement {
                            i0,
                            jc,
                            depth: depth.clone(),
                            mask,
                            tris,
                            set: set && kb == 0,
                        };
                        block::<K>(apack, bpack, mc, nc, rows, ldc, &place);
                    });
                };
                if parallel {
                    pool::parallel_for(row_blocks, body);
                } else {
                    (0..row_blocks).for_each(body);
                }
            });
        }
    }
}

/// Packs `len` vectors × the `depth` range of an operand into `w`-wide
/// panels: `dst[(q * kc + p) * w + r] = alpha · x(o0 + q * w + r, p0 + p)`
/// (`p0..p0 + kc` = `depth`), zero where the last panel runs past `len`.
/// `src` is `(data, ld, outer_major)`: `x(o, p)` is `data[o * ld + p]`
/// when `outer_major`, else `data[p * ld + o]`. With a triangular `tri`,
/// each panel is packed over its own clip ([`live_depths`]) only, and the
/// dead elements the clip admits — those inside the panel's own diagonal
/// square — are packed as zeros: the microkernel reads nothing else, so it
/// never multiplies what the storage holds in the dead triangle.
#[allow(clippy::too_many_arguments)]
fn pack<K: Micro>(
    w: usize,
    dst: &mut [f64],
    (src, ld, outer_major): (&[f64], usize, bool),
    tri: Mask,
    o0: usize,
    len: usize,
    depth: Range<usize>,
    alpha: f64,
) {
    let (p0, kc) = (depth.start, depth.len());
    for (q, panel) in dst.chunks_exact_mut(kc * w).enumerate() {
        let o = o0 + q * w;
        let valid = w.min(o0 + len - o);
        let (lo, hi) = live_depths(tri, o, valid);
        // The panel's live depths, local to the block.
        let (d0, d1) = (lo.clamp(p0, p0 + kc) - p0, hi.clamp(p0, p0 + kc) - p0);
        if d0 >= d1 {
            continue;
        }
        let live = &mut panel[d0 * w..d1 * w];
        if outer_major {
            let row = |r: usize| &src[(o + r) * ld + p0 + d0..][..d1 - d0];
            for r in (0..valid - valid % 4).step_by(4) {
                let rows = [row(r), row(r + 1), row(r + 2), row(r + 3)];
                // SAFETY: `run` dispatched on a supported kernel.
                unsafe { K::gather4(&mut live[r..], w, rows, alpha) };
            }
            for r in valid - valid % 4..w {
                for (p, d) in live[r..].iter_mut().step_by(w).enumerate() {
                    *d = if r < valid { alpha * row(r)[p] } else { 0.0 };
                }
            }
        } else {
            // SAFETY: `run` dispatched on a supported kernel.
            unsafe { K::copy_rows(live, w, &src[(p0 + d0) * ld + o..], ld, valid, alpha) };
        }
        if tri == Mask::Full {
            continue;
        }
        for r in 0..valid {
            // Vector `o + r` is live at depths <= (Lower) / >= (Upper) its
            // own; its dead depths inside the panel's own square.
            let dead = match tri {
                Mask::Lower => o + r + 1..o + valid,
                _ => o..o + r,
            };
            for p in dead.start.max(p0)..dead.end.min(p0 + kc) {
                panel[(p - p0) * w + r] = 0.0;
            }
        }
    }
}

/// Where a packed block lands and what it may skip: its first row of `C`
/// (`i0`) and column (`jc`), its depth range, `C`'s tile mask, the live
/// triangles of the packed `(vector, depth)` matrices of `op(A)` and
/// `op(B)`, and whether it writes `C` instead of adding to it.
struct Placement {
    i0: usize,
    jc: usize,
    depth: Range<usize>,
    mask: Mask,
    tris: (Mask, Mask),
    set: bool,
}

/// One packed `mc × kc` A block times the packed `kc × nc` B block into
/// the task's rows of C (`c` starts at row `place.i0`, column 0). Each
/// tile skips what `place.mask` excludes, runs the microkernel over only
/// the depths both of its panels can be live at, and lands through the
/// scratch tile, element by element, when it is ragged or the mask cuts
/// it.
fn block<K: Micro>(
    apack: &[f64],
    bpack: &[f64],
    mc: usize,
    nc: usize,
    c: &mut [f64],
    ldc: usize,
    place: &Placement,
) {
    const { assert!(K::MR * K::NR <= MAX_TILE) };
    let kc = place.depth.len();
    for (bpanel, jr) in bpack.chunks_exact(kc * K::NR).zip((0..nc).step_by(K::NR)) {
        let cols = K::NR.min(nc - jr);
        for (apanel, ir) in apack.chunks_exact(kc * K::MR).zip((0..mc).step_by(K::MR)) {
            let rows = K::MR.min(mc - ir);
            let (i, j) = (place.i0 + ir, place.jc + jr);
            match place.mask {
                Mask::Lower if j >= i + rows => continue,
                Mask::Upper if i >= j + cols => continue,
                _ => {}
            }
            let (alo, ahi) = live_depths(place.tris.0, i, rows);
            let (blo, bhi) = live_depths(place.tris.1, j, cols);
            let lo = alo.max(blo).max(place.depth.start);
            let hi = ahi.min(bhi).min(place.depth.end);
            let at = ir * ldc + j;
            // The columns of the tile's row `r` that the mask keeps.
            let kept = |r: usize| match place.mask {
                Mask::Full => 0..cols,
                Mask::Lower => 0..cols.min((i + r + 1).saturating_sub(j)),
                Mask::Upper => (i + r).saturating_sub(j).min(cols)..cols,
            };
            if lo >= hi {
                // Nothing live: the product is zero here.
                if place.set {
                    for (r, crow) in c[at..].chunks_mut(ldc).take(rows).enumerate() {
                        crow[kept(r)].fill(0.0);
                    }
                }
                continue;
            }
            let (off, depth) = (lo - place.depth.start, hi - lo);
            let (ap, bp) = (&apanel[off * K::MR..], &bpanel[off * K::NR..]);
            let straddles = match place.mask {
                Mask::Full => false,
                Mask::Lower => j + cols > i + 1,
                Mask::Upper => i + rows > j + 1,
            };
            if rows == K::MR && cols == K::NR && !straddles {
                let tile = &mut c[at..at + (K::MR - 1) * ldc + K::NR];
                // SAFETY: `run` dispatched on a supported kernel; the
                // panels hold `depth * MR` / `depth * NR` elements from
                // `ap` / `bp` on and `tile` spans the full register tile.
                unsafe {
                    K::tile(
                        depth,
                        ap.as_ptr(),
                        bp.as_ptr(),
                        tile.as_mut_ptr(),
                        ldc,
                        place.set,
                    )
                };
            } else {
                let mut edge = [0.0f64; MAX_TILE];
                // SAFETY: as above, with the tile landing in `edge`
                // (`MR * NR <= MAX_TILE`, rows `NR` apart).
                unsafe {
                    K::tile(
                        depth,
                        ap.as_ptr(),
                        bp.as_ptr(),
                        edge.as_mut_ptr(),
                        K::NR,
                        true,
                    )
                };
                for (r, erow) in edge.chunks_exact(K::NR).take(rows).enumerate() {
                    let (crow, keep) = (&mut c[at + r * ldc..][..cols], kept(r));
                    for (cv, &e) in crow[keep.clone()].iter_mut().zip(&erow[keep]) {
                        *cv = if place.set { e } else { *cv + e };
                    }
                }
            }
        }
    }
}

/// Copies the strict lower triangle of a square row-major `n × n` buffer
/// over the upper one, tile by tile.
pub(crate) fn mirror_lower(c: &mut [f64], n: usize) {
    for i0 in (0..n).step_by(MIRROR_TILE) {
        let i1 = (i0 + MIRROR_TILE).min(n);
        for j0 in (i0..n).step_by(MIRROR_TILE) {
            let j1 = (j0 + MIRROR_TILE).min(n);
            for i in i0..i1 {
                for j in j0.max(i + 1)..j1 {
                    c[i * n + j] = c[j * n + i];
                }
            }
        }
    }
}

/// Copies the strict upper triangle of a square row-major `n × n` buffer
/// over the lower one, tile by tile: the transpose of `mirror_lower`,
/// writing each lower row segment contiguously (the expansion of a
/// running factor kept in the upper triangle, `spdkfac_core::factors`).
pub fn mirror_upper(c: &mut [f64], n: usize) {
    for i0 in (0..n).step_by(MIRROR_TILE) {
        let i1 = (i0 + MIRROR_TILE).min(n);
        for j0 in (0..i1).step_by(MIRROR_TILE) {
            let j1 = (j0 + MIRROR_TILE).min(n);
            for i in i0..i1 {
                for j in j0..j1.min(i) {
                    c[i * n + j] = c[j * n + i];
                }
            }
        }
    }
}

/// The seed GEMM: serial cache-blocked i-k-j loop over row-major storage.
/// The oracle of the parity tests.
pub fn matmul_reference(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    const BLOCK: usize = 64;
    let mut out = vec![0.0; m * n];
    for ib in (0..m).step_by(BLOCK) {
        let ie = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let ke = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let je = (jb + BLOCK).min(n);
                for i in ib..ie {
                    for kk in kb..ke {
                        let av = a[i * k + kk];
                        if av == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n + jb..kk * n + je];
                        let orow = &mut out[i * n + jb..i * n + je];
                        for (o, &r) in orow.iter_mut().zip(brow.iter()) {
                            *o += av * r;
                        }
                    }
                }
            }
        }
    }
    out
}

/// The seed Gramian: serial upper-triangle `XᵀX` accumulation. The oracle
/// of the parity tests.
pub fn gramian_reference(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; d * d];
    for s in 0..rows {
        let row = &x[s * d..(s + 1) * d];
        for i in 0..d {
            let v = row[i];
            if v == 0.0 {
                continue;
            }
            let orow = &mut out[i * d + i..(i + 1) * d];
            for (o, &r) in orow.iter_mut().zip(row[i..].iter()) {
                *o += v * r;
            }
        }
    }
    for i in 0..d {
        for j in (i + 1)..d {
            out[j * d + i] = out[i * d + j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn product(m: usize, k: usize, n: usize, a: Operand, b: Operand) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        gemm(1.0, m, k, n, a, b, &mut out, n, Mask::Full);
        out
    }

    fn syrk_tn(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
        Matrix::from_vec(rows, d, x.to_vec()).gramian().into_vec()
    }

    fn syrk_nt(rows: usize, d: usize, x: &[f64]) -> Vec<f64> {
        Matrix::from_vec(rows, d, x.to_vec()).syrk_nt().into_vec()
    }

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * scale)
            .collect()
    }

    fn naive(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
    ) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    s += av * bv;
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    /// Dense operand of `op(X)` shape `rows × cols`.
    fn dense(data: &[f64], rows: usize, cols: usize, trans: bool) -> Operand<'_> {
        Operand {
            data,
            ld: if trans { rows } else { cols },
            trans,
            tri: Mask::Full,
        }
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn gemm_matches_naive_all_transposes_and_edges() {
        // Shapes straddling MR/NR/MC/KC boundaries, including remainders.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 11),
            (63, 65, 66),
            (64, 256, 64),
            (65, 257, 67),
            (130, 40, 90),
            (9, KC + 1, 25),
        ] {
            let a = seq(m * k, 0.01);
            let b = seq(k * n, 0.02);
            for &(ta, tb) in &[(false, false), (false, true), (true, false), (true, true)] {
                let got = product(m, k, n, dense(&a, m, k, ta), dense(&b, k, n, tb));
                let want = naive(ta, tb, m, k, n, &a, &b);
                assert!(
                    max_diff(&got, &want) < 1e-10,
                    "mismatch at {m}x{k}x{n} ta={ta} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn syrk_tn_matches_gemm() {
        for &(rows, d) in &[
            (1usize, 1usize),
            (7, 5),
            (33, 64),
            (50, 65),
            (129, 100),
            (40, 200),
            (300, 130),
        ] {
            let x = seq(rows * d, 0.01);
            let got = syrk_tn(rows, d, &x);
            let want = naive(true, false, d, rows, d, &x, &x);
            assert!(max_diff(&got, &want) < 1e-10, "syrk_tn {rows}x{d}");
            for i in 0..d {
                for j in 0..d {
                    assert_eq!(got[i * d + j], got[j * d + i]);
                }
            }
        }
    }

    #[test]
    fn syrk_nt_matches_gemm() {
        for &(rows, d) in &[
            (1usize, 1usize),
            (5, 7),
            (65, 33),
            (100, 129),
            (200, 40),
            (130, 300),
        ] {
            let x = seq(rows * d, 0.01);
            let got = syrk_nt(rows, d, &x);
            let want = naive(false, true, rows, d, rows, &x, &x);
            assert!(max_diff(&got, &want) < 1e-10, "syrk_nt {rows}x{d}");
        }
    }

    #[test]
    fn oracles_match_the_core() {
        let (m, k, n) = (37, 53, 29);
        let a = seq(m * k, 0.01);
        let b = seq(k * n, 0.02);
        let core = product(m, k, n, Operand::new(&a, k), Operand::new(&b, n));
        assert!(max_diff(&core, &matmul_reference(m, k, n, &a, &b)) < 1e-11);

        let x = seq(41 * 23, 0.01);
        assert!(max_diff(&syrk_tn(41, 23, &x), &gramian_reference(41, 23, &x)) < 1e-11);
    }

    /// The ISA invariant: every vector microkernel the host supports gives
    /// the same bits on ragged, strided, masked, multi-depth-block shapes.
    #[test]
    fn vector_kernels_agree_bit_for_bit() {
        let kernels: Vec<Kernel> = Kernel::ALL
            .iter()
            .copied()
            .filter(|&k| k != Kernel::Portable && k.supported())
            .collect();
        if kernels.len() < 2 {
            eprintln!("skipped: host supports {kernels:?} only");
            return;
        }
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 33, 23),
            (9, 257, 25),
            (65, KC + 1, 49),
            (130, 2 * KC + 3, 71),
        ] {
            // Leading dimensions wider than the rows they hold.
            let (lda, ldb, ldc) = (m.max(k) + 3, k.max(n) + 5, n + 2);
            let a = seq(lda * lda, 0.013);
            let b = seq(ldb * ldb, 0.007);
            for &(ta, tb) in &[(false, false), (false, true), (true, false), (true, true)] {
                for (mask, alpha) in [(Mask::Full, 1.0), (Mask::Lower, -1.0), (Mask::Upper, 1.0)] {
                    let run = |kernel| {
                        let mut c = seq(m * ldc, 0.5);
                        let (oa, ob) = (Operand::new(&a, lda), Operand::new(&b, ldb));
                        let (oa, ob) = (if ta { oa.t() } else { oa }, if tb { ob.t() } else { ob });
                        gemm_with(kernel, Land::Add, alpha, m, k, n, oa, ob, &mut c, ldc, mask);
                        c.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
                    };
                    let first = run(kernels[0]);
                    for &other in &kernels[1..] {
                        assert!(
                            first == run(other),
                            "{:?} vs {other:?} differ at {m}x{k}x{n} ta={ta} tb={tb} {mask:?}",
                            kernels[0]
                        );
                    }
                }
            }
        }
    }

    /// The same invariants with a triangular operand, on either side, read
    /// as stored or transposed, landing by `+=` or by overwrite: every
    /// vector microkernel gives the same bits, and so does a call nested in
    /// a pool task (serial) against one issued at top level (pooled).
    #[test]
    fn triangular_operands_agree_bit_for_bit_across_kernels_and_the_pool() {
        let kernels: Vec<Kernel> = Kernel::ALL
            .iter()
            .copied()
            .filter(|&k| k != Kernel::Portable && k.supported())
            .collect();
        let run = |kernel: Kernel, land: Land, (m, k, n): (usize, usize, usize), case: usize| {
            let (on_b, tri, trans) = (
                case & 1 == 1,
                [Mask::Lower, Mask::Upper][case >> 1 & 1],
                case & 4 == 4,
            );
            let ld = m.max(k).max(n) + 3;
            let (a, b) = (seq(ld * ld, 0.013), seq(ld * ld, 0.007));
            let (mut oa, mut ob) = (Operand::new(&a, ld), Operand::new(&b, ld));
            if on_b {
                ob = ob.triangle(tri);
            } else {
                oa = oa.triangle(tri);
            }
            if trans {
                (oa, ob) = (oa.t(), ob.t());
            }
            let mut c = seq(m * n, 0.5);
            gemm_with(kernel, land, -1.0, m, k, n, oa, ob, &mut c, n, Mask::Full);
            c.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        };
        let shapes = [(7, 33, 23), (65, KC + 1, 49), (257, 257, 257)];
        for shape in shapes {
            for case in 0..8 {
                for land in [Land::Add, Land::Set] {
                    if let [first, rest @ ..] = kernels.as_slice() {
                        let want = run(*first, land, shape, case);
                        for &other in rest {
                            assert!(
                                want == run(other, land, shape, case),
                                "{other:?} {shape:?} case {case}"
                            );
                        }
                    }
                    let best = Kernel::detect();
                    let pooled = run(best, land, shape, case);
                    let nested = std::sync::Mutex::new(Vec::new());
                    crate::pool::parallel_for(2, |_| {
                        nested
                            .lock()
                            .expect("no panics")
                            .push(run(best, land, shape, case));
                    });
                    for serial in nested.into_inner().expect("no panics") {
                        assert!(pooled == serial, "pooled vs serial {shape:?} case {case}");
                    }
                }
            }
        }
    }
}
