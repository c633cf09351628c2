//! Kronecker-product identities used by K-FAC preconditioning.
//!
//! K-FAC never materialises `F̂_l = A_{l-1} ⊗ G_l` (Eq. 9): the preconditioned
//! gradient of Eq. 11 is computed with the identity
//! `(A⁻¹ ⊗ G⁻¹) vec(∇W) = G⁻¹ · ∇W · A⁻¹` where `∇W` is the `d_out × d_in`
//! gradient matrix. The trainer never forms the inverses either: from the
//! Cholesky factors `A = L_A L_Aᵀ`, `G = L_G L_Gᵀ` the same product is four
//! triangular solves ([`precondition_gradient_chol_in_place`]). The
//! explicit [`kron`] is provided for testing the identity on small
//! matrices.

use crate::chol::{solve_into, Side};
use crate::matrix::Matrix;

/// Explicit Kronecker product `a ⊗ b`.
///
/// Intended for tests and tiny matrices — the output has
/// `a.rows()·b.rows() × a.cols()·b.cols()` elements.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, kron::kron};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
/// let b = Matrix::identity(2);
/// let k = kron(&a, &b);
/// assert_eq!(k.shape(), (2, 4));
/// assert_eq!(k[(0, 0)], 1.0);
/// assert_eq!(k[(0, 2)], 2.0);
/// ```
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    Matrix::from_fn(ar * br, ac * bc, |i, j| {
        a[(i / br, j / bc)] * b[(i % br, j % bc)]
    })
}

/// Column-major vectorisation `vec(M)` (stacks columns), matching the
/// convention under which `(A ⊗ B) vec(X) = vec(B X Aᵀ)`.
pub fn vec_col_major(m: &Matrix) -> Vec<f64> {
    let (r, c) = m.shape();
    let mut v = Vec::with_capacity(r * c);
    for j in 0..c {
        for i in 0..r {
            v.push(m[(i, j)]);
        }
    }
    v
}

/// Inverse of [`vec_col_major`]: reshapes a column-stacked vector into an
/// `rows × cols` matrix.
///
/// # Panics
///
/// Panics if `v.len() != rows * cols`.
pub fn unvec_col_major(v: &[f64], rows: usize, cols: usize) -> Matrix {
    assert_eq!(v.len(), rows * cols, "unvec: length mismatch");
    Matrix::from_fn(rows, cols, |i, j| v[j * rows + i])
}

/// Preconditions a layer gradient with the inverse Kronecker factors
/// (Eq. 11): returns `G⁻¹ · ∇W · A⁻¹`.
///
/// `grad` has shape `d_out × d_in`; `a_inv` is `d_in × d_in` (symmetric);
/// `g_inv` is `d_out × d_out` (symmetric). Because both inverses are
/// symmetric, `∇W · A⁻¹ = ∇W · A⁻ᵀ`, so no transpose is needed.
///
/// # Panics
///
/// Panics on shape mismatch.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::{Matrix, kron::precondition_gradient};
///
/// let grad = Matrix::from_rows(&[&[2.0, 4.0]]);
/// let a_inv = Matrix::from_diag(&[0.5, 0.25]);
/// let g_inv = Matrix::from_diag(&[0.5]);
/// let p = precondition_gradient(&grad, &a_inv, &g_inv);
/// assert_eq!(p[(0, 0)], 0.5);
/// assert_eq!(p[(0, 1)], 0.5);
/// ```
pub fn precondition_gradient(grad: &Matrix, a_inv: &Matrix, g_inv: &Matrix) -> Matrix {
    assert_eq!(
        grad.cols(),
        a_inv.rows(),
        "precondition: grad cols {} vs A⁻¹ dim {}",
        grad.cols(),
        a_inv.rows()
    );
    assert_eq!(
        grad.rows(),
        g_inv.rows(),
        "precondition: grad rows {} vs G⁻¹ dim {}",
        grad.rows(),
        g_inv.rows()
    );
    g_inv.matmul(grad).matmul(a_inv)
}

/// [`precondition_gradient`] from the factors' Cholesky factors in solve
/// form ([`crate::chol::cholesky_in_place`]), in the gradient's own
/// storage: `∇W ← L_G⁻ᵀ L_G⁻¹ · ∇W · L_A⁻ᵀ L_A⁻¹`, four blocked solves
/// ([`solve_into`]) alternating between `grad` and `scratch` (reshaped,
/// its storage reused).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn precondition_gradient_chol_in_place(
    grad: &mut Matrix,
    l_a: &Matrix,
    l_g: &Matrix,
    scratch: &mut Matrix,
) {
    solve_into(l_g, Side::Left, false, grad, scratch);
    solve_into(l_g, Side::Left, true, scratch, grad);
    solve_into(l_a, Side::Right, true, grad, scratch);
    solve_into(l_a, Side::Right, false, scratch, grad);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MatrixRng;

    #[test]
    fn kron_identity_dims() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        let k = kron(&a, &b);
        assert!(k.max_abs_diff(&Matrix::identity(6)) < 1e-15);
    }

    #[test]
    fn kron_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 5.0], &[6.0, 7.0]]);
        let k = kron(&a, &b);
        // Top-left block = 1 * b.
        assert_eq!(k[(0, 1)], 5.0);
        assert_eq!(k[(1, 0)], 6.0);
        // Top-right block = 2 * b.
        assert_eq!(k[(0, 3)], 10.0);
        assert_eq!(k[(1, 2)], 12.0);
        // Bottom-right block = 4 * b.
        assert_eq!(k[(3, 3)], 28.0);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD).
        let mut rng = MatrixRng::new(4);
        let a = rng.uniform_matrix(2, 3, -1.0, 1.0);
        let b = rng.uniform_matrix(3, 2, -1.0, 1.0);
        let c = rng.uniform_matrix(3, 2, -1.0, 1.0);
        let d = rng.uniform_matrix(2, 4, -1.0, 1.0);
        let lhs = kron(&a, &b).matmul(&kron(&c, &d));
        let rhs = kron(&a.matmul(&c), &b.matmul(&d));
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn vec_unvec_roundtrip() {
        let mut rng = MatrixRng::new(5);
        let m = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let v = vec_col_major(&m);
        assert_eq!(v.len(), 12);
        let back = unvec_col_major(&v, 3, 4);
        assert_eq!(back, m);
    }

    #[test]
    fn precondition_matches_explicit_kron() {
        // Verify (A⁻¹ ⊗ G⁻¹) vec(∇) == vec(G⁻¹ ∇ A⁻¹) for symmetric inverses.
        // Under column-major vec of the d_out×d_in grad matrix X:
        // vec(G X A) = (Aᵀ ⊗ G) vec(X) = (A ⊗ G) vec(X) for symmetric A.
        let mut rng = MatrixRng::new(6);
        let sa = rng.gaussian_matrix(5, 3).gramian().damped(0.3);
        let sg = rng.gaussian_matrix(6, 4).gramian().damped(0.3);
        let a_inv = crate::chol::spd_inverse(&sa).unwrap();
        let g_inv = crate::chol::spd_inverse(&sg).unwrap();
        let grad = rng.uniform_matrix(4, 3, -1.0, 1.0); // d_out=4, d_in=3

        let fast = precondition_gradient(&grad, &a_inv, &g_inv);

        let big = kron(&a_inv, &g_inv); // (A⁻¹ ⊗ G⁻¹), 12x12
        let v = vec_col_major(&grad);
        let pre = big.matvec(&v);
        let explicit = unvec_col_major(&pre, 4, 3);
        assert!(fast.max_abs_diff(&explicit) < 1e-10);
    }

    #[test]
    fn solves_with_the_factors_match_the_inverses() {
        let mut rng = MatrixRng::new(8);
        for (dout, din) in [(4usize, 3usize), (30, 50), (10, 61)] {
            let sa = rng.gaussian_matrix(din + 3, din).gramian().damped(0.3);
            let sg = rng.gaussian_matrix(dout + 3, dout).gramian().damped(0.3);
            let grad = rng.uniform_matrix(dout, din, -1.0, 1.0);
            let want = precondition_gradient(
                &grad,
                &crate::chol::spd_inverse(&sa).unwrap(),
                &crate::chol::spd_inverse(&sg).unwrap(),
            );
            let (mut l_a, mut l_g) = (sa, sg);
            crate::chol::cholesky_in_place(&mut l_a).unwrap();
            crate::chol::cholesky_in_place(&mut l_g).unwrap();
            let (mut got, mut scratch) = (grad, Matrix::zeros(0, 0));
            precondition_gradient_chol_in_place(&mut got, &l_a, &l_g, &mut scratch);
            assert!(got.max_abs_diff(&want) < 1e-10, "{dout}x{din}");
        }
    }

    #[test]
    fn precondition_with_identity_is_noop() {
        let mut rng = MatrixRng::new(7);
        let grad = rng.uniform_matrix(3, 5, -1.0, 1.0);
        let p = precondition_gradient(&grad, &Matrix::identity(5), &Matrix::identity(3));
        assert!(p.max_abs_diff(&grad) < 1e-15);
    }
}
