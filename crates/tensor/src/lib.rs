//! # spdkfac-tensor
//!
//! Dense and packed-symmetric linear algebra for the SPD-KFAC reproduction.
//!
//! The crate provides exactly the numerical kernels that K-FAC needs:
//!
//! - [`Matrix`]: a row-major dense `f64` matrix with GEMM, transpose-free
//!   `AᵀB`/`ABᵀ` products, Gramian/SYRK accumulation (`XᵀX`, `XXᵀ`),
//!   transpose and element-wise arithmetic.
//! - [`gemm`](mod@gemm): the level-3 core behind everything dense — one
//!   packed, cache-blocked, register-tiled `C += α·op(A)·op(B)` over strided
//!   operands (AVX-512 / AVX2 / portable microkernels, bit-identical
//!   across the two vector ISAs) — and the serial seed kernels kept as test
//!   oracles.
//! - [`pool`]: the shared persistent worker pool (sized by `SPDKFAC_THREADS`)
//!   that every parallel kernel dispatches through; results are bit-identical
//!   for any thread count.
//! - [`chol`]: blocked Cholesky factorization and SPD inversion
//!   (POTRF / TRTRI / LAUUM on the core) — the CPU analogue of the cuSolver
//!   path the paper uses to invert damped Kronecker factors `(A + γI)⁻¹` and
//!   `(G + γI)⁻¹`.
//! - [`SymPacked`]: upper-triangle packed storage with `d(d+1)/2` elements —
//!   the wire format of §V-B ("we only need to send their upper triangle
//!   elements").
//! - [`kron`](mod@kron): the Kronecker identity `(A ⊗ G) vec(X) = G X Aᵀ` used to
//!   precondition gradients without materialising `A ⊗ G` (Eq. 11).
//! - [`rng`]: deterministic random matrix/vector generators used throughout
//!   the test suites and synthetic workloads.
//!
//! # Example
//!
//! ```
//! use spdkfac_tensor::{Matrix, chol::spd_inverse};
//!
//! # fn main() -> Result<(), spdkfac_tensor::TensorError> {
//! // Build an SPD matrix A = XᵀX + I and invert it.
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
//! let mut a = x.gramian();
//! a.add_scaled_identity(1.0);
//! let a_inv = spd_inverse(&a)?;
//! let prod = a.matmul(&a_inv);
//! assert!(prod.max_abs_diff(&Matrix::identity(2)) < 1e-10);
//! # Ok(())
//! # }
//! ```

pub mod chol;
pub mod error;
pub mod gemm;
pub mod kron;
pub mod matrix;
pub mod pool;
pub mod rng;
pub mod sym;

pub use chol::{cholesky, spd_inverse, Cholesky};
pub use error::TensorError;
pub use kron::{kron, precondition_gradient};
pub use matrix::Matrix;
pub use sym::SymPacked;
