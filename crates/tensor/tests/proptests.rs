//! Property-based tests for the linear-algebra substrate, and the
//! determinism oracle of the level-3 core at real factor sizes. The
//! Cholesky parity oracles force private block edges, so they live in
//! `chol::tests`.

use proptest::prelude::*;
use spdkfac_tensor::gemm::{gemm, gemm_overwrite, matmul_reference, Mask, Operand, KC};
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::{chol, kron, pool, Matrix, SymPacked, TensorError};
use std::sync::Mutex;

/// Strategy: a dimension in a range small enough for exhaustive checks.
fn dim() -> impl Strategy<Value = usize> {
    1usize..20
}

/// Strategy: a GEMM edge length straddling the microkernel (4×8) and cache
/// block (64) boundaries, including non-multiples of every block size and
/// sizes large enough to cross into the packed SYRK path.
fn gemm_dim() -> impl Strategy<Value = usize> {
    1usize..140
}

/// Naive triple-loop product — the ground truth the packed kernels are
/// checked against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a[(i, p)] * b[(p, j)]).sum())
}

/// The thread-count invariant: a product issued at top level (row blocks
/// fan out over the pool) and the same product issued from inside a pool
/// task (serial, by the nesting rule) give the same bits.
#[test]
fn pooled_and_serial_kernels_agree_bit_for_bit() {
    let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    for d in [257usize, 600] {
        let mut rng = MatrixRng::new(d as u64);
        let (a, b) = (
            rng.uniform_matrix(d, d, -1.0, 1.0),
            rng.uniform_matrix(d, d, -1.0, 1.0),
        );
        let spd = rng.spd_matrix(d, 0.5);
        let kernels = || {
            let mut l = spd.clone();
            chol::cholesky_in_place(&mut l).expect("SPD");
            let (mut work, mut solved) = (b.clone(), Matrix::zeros(0, 0));
            chol::solve_into(&l, chol::Side::Right, true, &mut work, &mut solved);
            [
                a.matmul(&b),
                a.gramian(),
                chol::spd_inverse(&spd).expect("SPD"),
                l,
                solved,
            ]
        };
        let pooled = kernels();
        // Two tasks, so the pool really dispatches (one task runs inline).
        let serial = Mutex::new(Vec::new());
        pool::parallel_for(2, |_| {
            let out = kernels();
            serial.lock().expect("no panics").push(out);
        });
        for nested in serial.into_inner().expect("no panics") {
            for (p, s) in pooled.iter().zip(&nested) {
                assert!(bits(p) == bits(s), "pooled and serial bits differ at d={d}");
            }
        }
    }
}

/// A GEMM depth: a third of the time one that straddles the packed depth
/// block (or the bias-augmented factor size), otherwise small.
fn gemm_depth() -> impl Strategy<Value = usize> {
    (0usize..12, 1usize..80)
        .prop_map(|(pick, small)| *[KC - 1, KC, KC + 1, 257].get(pick).unwrap_or(&small))
}

/// A GEMM edge: half of the time one off a register tile (4, 8, 24) or the
/// row block (64), otherwise anything small.
fn gemm_edge() -> impl Strategy<Value = usize> {
    (0usize..16, 1usize..70)
        .prop_map(|(pick, small)| *[3, 5, 7, 9, 23, 25, 63, 65].get(pick).unwrap_or(&small))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spd_inverse_roundtrips(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.1);
        let inv = chol::spd_inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(d)) < 1e-7);
    }

    #[test]
    fn solve_consistent_with_inverse(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.2);
        let b = rng.uniform_vec(d, -1.0, 1.0);
        // A⁻¹b = L⁻ᵀ(L⁻¹b), ping-ponging between two buffers.
        let mut l = a.clone();
        chol::cholesky_in_place(&mut l).unwrap();
        let (mut x_solve, mut y) = (Matrix::from_vec(d, 1, b.clone()), Matrix::zeros(0, 0));
        chol::solve_into(&l, chol::Side::Left, false, &mut x_solve, &mut y);
        chol::solve_into(&l, chol::Side::Left, true, &mut y, &mut x_solve);
        let x_inv = chol::spd_inverse(&a).unwrap().matvec(&b);
        for (l, r) in x_solve.as_slice().iter().zip(x_inv.iter()) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn sympacked_roundtrip(d in dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(d + 1, d);
        let sym = x.gramian();
        let packed = SymPacked::from_matrix(&sym);
        prop_assert_eq!(packed.len(), d * (d + 1) / 2);
        prop_assert!(packed.to_matrix().max_abs_diff(&sym) < 1e-15);
    }

    #[test]
    fn gramian_is_psd_diagonal_nonnegative(rows in 1usize..12, cols in 1usize..12, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.gaussian_matrix(rows, cols);
        let g = x.gramian();
        for i in 0..cols {
            prop_assert!(g[(i, i)] >= 0.0);
        }
        prop_assert_eq!(g.max_asymmetry(), 0.0);
    }

    #[test]
    fn kron_vec_identity(din in 1usize..6, dout in 1usize..6, seed in 0u64..1_000_000) {
        // (A ⊗ G) vec(X) == vec(G X A) for symmetric A (col-major vec).
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(din, 0.1);
        let g = rng.spd_matrix(dout, 0.1);
        let x = rng.uniform_matrix(dout, din, -1.0, 1.0);

        let fast = kron::precondition_gradient(&x, &a, &g);
        let big = kron::kron(&a, &g);
        let v = kron::vec_col_major(&x);
        let explicit = kron::unvec_col_major(&big.matvec(&v), dout, din);
        prop_assert!(fast.max_abs_diff(&explicit) < 1e-9);
    }

    #[test]
    fn matmul_associative(seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.uniform_matrix(4, 6, -1.0, 1.0);
        let b = rng.uniform_matrix(6, 3, -1.0, 1.0);
        let c = rng.uniform_matrix(3, 5, -1.0, 1.0);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn damping_shifts_trace(d in dim(), gamma in 0.0f64..10.0, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.0);
        let damped = a.damped(gamma);
        prop_assert!((damped.trace() - a.trace() - gamma * d as f64).abs() < 1e-9);
    }

    #[test]
    fn packed_gemm_matches_naive(m in gemm_dim(), k in gemm_dim(), n in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        prop_assert!(a.matmul(&b).max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn transpose_free_gemm_matches_naive(m in gemm_dim(), k in gemm_dim(), n in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        // A · Bᵀ without materialising Bᵀ.
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let bt = rng.uniform_matrix(n, k, -1.0, 1.0);
        prop_assert!(a.matmul_nt(&bt).max_abs_diff(&naive_matmul(&a, &bt.transpose())) < 1e-12);
        // Aᵀ · B without materialising Aᵀ.
        let at = rng.uniform_matrix(k, m, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        prop_assert!(at.matmul_tn(&b).max_abs_diff(&naive_matmul(&at.transpose(), &b)) < 1e-12);
    }

    #[test]
    fn syrk_matches_naive(rows in gemm_dim(), d in gemm_dim(), seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let x = rng.uniform_matrix(rows, d, -1.0, 1.0);
        let gram = x.gramian();
        prop_assert!(gram.max_abs_diff(&naive_matmul(&x.transpose(), &x)) < 1e-12);
        prop_assert_eq!(gram.max_asymmetry(), 0.0);
        let outer = x.syrk_nt();
        prop_assert!(outer.max_abs_diff(&naive_matmul(&x, &x.transpose())) < 1e-12);
        prop_assert_eq!(outer.max_asymmetry(), 0.0);
    }

    #[test]
    fn strided_core_matches_naive(
        m in gemm_edge(), k in gemm_depth(), n in gemm_edge(),
        ta in 0usize..2, tb in 0usize..2, pad in (1usize..6, 0usize..6, 0usize..6),
        negate in 0usize..2, mask in 0usize..3, seed in 0u64..1_000_000,
    ) {
        let (ta, tb) = (ta == 1, tb == 1);
        let alpha = if negate == 1 { -1.0 } else { 1.0 };
        let mask = [Mask::Full, Mask::Lower, Mask::Upper][mask];
        // Stored shapes of A and B, each row `pad` elements longer.
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (ac + pad.0, bc + pad.1, n + pad.2);
        let mut rng = MatrixRng::new(seed);
        let a = rng.uniform_matrix(ar, lda, -1.0, 1.0);
        let b = rng.uniform_matrix(br, ldb, -1.0, 1.0);
        let c0 = rng.uniform_matrix(m, ldc, -1.0, 1.0);
        let mut c = c0.clone();
        let (oa, ob) = (Operand::new(a.as_slice(), lda), Operand::new(b.as_slice(), ldb));
        let (oa, ob) = (if ta { oa.t() } else { oa }, if tb { ob.t() } else { ob });
        gemm(alpha, m, k, n, oa, ob, c.as_mut_slice(), ldc, mask);
        for i in 0..m {
            for j in 0..ldc {
                let kept = match mask { Mask::Full => true, Mask::Lower => j <= i, Mask::Upper => j >= i };
                // Outside the mask, as past the last column, C is untouched.
                if j >= n || !kept {
                    prop_assert_eq!(c[(i, j)].to_bits(), c0[(i, j)].to_bits());
                } else {
                    let dot: f64 = (0..k)
                        .map(|p| (if ta { a[(p, i)] } else { a[(i, p)] }) * (if tb { b[(j, p)] } else { b[(p, j)] }))
                        .sum();
                    prop_assert!((c[(i, j)] - (c0[(i, j)] + alpha * dot)).abs() < 1e-11);
                }
            }
        }
    }

    #[test]
    fn triangular_operand_core_matches_reference(
        m in gemm_edge(), k in gemm_depth(), n in gemm_edge(), square in 0usize..3,
        on_b in 0usize..2, upper in 0usize..2, ta in 0usize..2, tb in 0usize..2,
        pad in (0usize..4, 0usize..4), negate in 0usize..2, seed in 0u64..1_000_000,
    ) {
        let (on_b, ta, tb) = (on_b == 1, ta == 1, tb == 1);
        // A third of the cases square the triangular operand, so its
        // diagonal runs corner to corner across panels.
        let k = if square == 0 { if on_b { n } else { m } } else { k };
        let tri = if upper == 1 { Mask::Upper } else { Mask::Lower };
        let alpha = if negate == 1 { -1.0 } else { 1.0 };
        let (ar, ac) = if ta { (k, m) } else { (m, k) };
        let (br, bc) = if tb { (n, k) } else { (k, n) };
        let (lda, ldb) = (ac + pad.0, bc + pad.1);
        let mut rng = MatrixRng::new(seed);
        let mut a = rng.uniform_matrix(ar, lda, -1.0, 1.0);
        let mut b = rng.uniform_matrix(br, ldb, -1.0, 1.0);
        // The dead triangle of the stored operand holds NaN: one multiply
        // of it poisons the product.
        let dead = |i: usize, j: usize| match tri {
            Mask::Lower => j > i,
            _ => j < i,
        };
        let stored = if on_b { &mut b } else { &mut a };
        let (rows, cols) = stored.shape();
        for i in 0..rows {
            for j in 0..cols {
                if dead(i, j) {
                    stored[(i, j)] = f64::NAN;
                }
            }
        }
        // The oracle's operands: op(A) and op(B), dense, the dead triangle zero.
        let live = |x: &Matrix, i: usize, j: usize, is_tri: bool| {
            if is_tri && dead(i, j) { 0.0 } else { x[(i, j)] }
        };
        let op_a: Vec<f64> = (0..m * k)
            .map(|e| { let (i, p) = (e / k, e % k); if ta { live(&a, p, i, !on_b) } else { live(&a, i, p, !on_b) } })
            .collect();
        let op_b: Vec<f64> = (0..k * n)
            .map(|e| { let (p, j) = (e / n, e % n); if tb { live(&b, j, p, on_b) } else { live(&b, p, j, on_b) } })
            .collect();
        let want = matmul_reference(m, k, n, &op_a, &op_b);
        let (oa, ob) = (Operand::new(a.as_slice(), lda), Operand::new(b.as_slice(), ldb));
        let (oa, ob) = if on_b { (oa, ob.triangle(tri)) } else { (oa.triangle(tri), ob) };
        let (oa, ob) = (if ta { oa.t() } else { oa }, if tb { ob.t() } else { ob });
        let c0 = rng.uniform_matrix(m, n, -1.0, 1.0);
        let mut c = c0.clone();
        gemm(alpha, m, k, n, oa, ob, c.as_mut_slice(), n, Mask::Full);
        // What C held is never read by the overwriting form.
        let mut set = Matrix::from_vec(m, n, vec![f64::NAN; m * n]);
        gemm_overwrite(alpha, m, k, n, oa, ob, set.as_mut_slice(), n, Mask::Full);
        for (e, &want) in want.iter().enumerate() {
            let (i, j) = (e / n, e % n);
            prop_assert!((c[(i, j)] - (c0[(i, j)] + alpha * want)).abs() < 1e-11, "C += at ({i}, {j})");
            prop_assert!((set[(i, j)] - alpha * want).abs() < 1e-11, "C = at ({i}, {j})");
        }
    }
}

/// Bit patterns, for `to_bits` equality.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A dirty output of an unrelated shape: an `_into` kernel must reshape and
/// overwrite it, not accumulate into it.
fn dirty(rng: &mut MatrixRng, rows: usize, cols: usize) -> Matrix {
    rng.uniform_matrix(rows, cols, -1.0, 1.0)
}

/// A factor dimension: a third of the time one at or around the block edge
/// (one block, exactly one, a partial second) or a partial fourth block,
/// otherwise anything up to three blocks.
fn factor_dim() -> impl Strategy<Value = usize> {
    let nb = chol::CHOL_NB;
    (0usize..12, 1usize..3 * nb)
        .prop_map(move |(pick, any)| *[nb - 1, nb, nb + 1, 3 * nb + 5].get(pick).unwrap_or(&any))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn into_products_are_bit_identical_to_allocating_ones(
        m in gemm_dim(), k in gemm_dim(), n in gemm_dim(), seed in 0u64..1_000_000,
    ) {
        let mut rng = MatrixRng::new(seed);
        let (a, b, at) = (
            rng.uniform_matrix(m, k, -1.0, 1.0),
            rng.uniform_matrix(k, n, -1.0, 1.0),
            rng.uniform_matrix(k, m, -1.0, 1.0),
        );
        let mut out = dirty(&mut rng, n + 1, m + 2);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(out.as_slice()), bits(a.matmul(&b).as_slice()));
        prop_assert_eq!(out.shape(), (m, n));
        at.matmul_tn_into(&b, &mut out);
        prop_assert_eq!(bits(out.as_slice()), bits(at.matmul_tn(&b).as_slice()));
        prop_assert_eq!(out.shape(), (m, n));
    }

    #[test]
    fn in_place_inverse_is_bit_identical(d in factor_dim(), gamma in 0.0f64..1.0, seed in 0u64..1_000_000) {
        let mut rng = MatrixRng::new(seed);
        let a = rng.spd_matrix(d, 0.1);
        // What the trainer runs: the damped factor written into the
        // inverse's (dirty) storage, then inverted there.
        let mut inv = dirty(&mut rng, d + 1, d);
        a.damped_into(gamma, &mut inv);
        chol::spd_inverse_in_place(&mut inv).unwrap();
        let damped = a.damped(gamma);
        prop_assert_eq!(bits(inv.as_slice()), bits(chol::spd_inverse(&damped).unwrap().as_slice()));
    }

    #[test]
    fn in_place_inverse_reports_the_same_pivot(d in factor_dim(), at in 0usize..1000, seed in 0u64..1_000_000) {
        let mut a = MatrixRng::new(seed).spd_matrix(d, 0.5);
        let p = at % d;
        a[(p, p)] = -100.0;
        let expect = chol::cholesky_in_place(&mut a.clone());
        prop_assert_eq!(&expect, &Err(TensorError::NotPositiveDefinite { pivot: p }));
        let mut in_place = a.clone();
        prop_assert_eq!(chol::spd_inverse_in_place(&mut in_place), expect);
    }
}
