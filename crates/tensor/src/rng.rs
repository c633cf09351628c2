//! Deterministic random generators for matrices and vectors.
//!
//! Every stochastic component of the reproduction (synthetic datasets, random
//! SPD test matrices, benchmark inputs) draws from [`MatrixRng`], a thin
//! seeded wrapper so that tests and experiments are reproducible run-to-run.

use crate::matrix::Matrix;

/// The raw generator behind [`MatrixRng`]: xoshiro256++ seeded through
/// splitmix64, dependency-free and identical on every platform.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A seeded random generator producing matrices and vectors.
///
/// # Example
///
/// ```
/// use spdkfac_tensor::rng::MatrixRng;
///
/// let mut a = MatrixRng::new(42);
/// let mut b = MatrixRng::new(42);
/// assert_eq!(a.uniform_matrix(2, 2, 0.0, 1.0), b.uniform_matrix(2, 2, 0.0, 1.0));
/// ```
#[derive(Debug)]
pub struct MatrixRng {
    rng: Xoshiro256,
    /// Cached second Box–Muller deviate.
    spare_gaussian: Option<f64>,
}

impl MatrixRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        MatrixRng {
            rng: Xoshiro256::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.next_f64()
    }

    /// Standard-normal sample via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        // Avoid log(0).
        let u1: f64 = loop {
            let u = self.rng.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2: f64 = self.rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_gaussian = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        ((self.rng.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Vector of uniform samples.
    pub fn uniform_vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }

    /// Vector of `N(0, sigma²)` samples.
    pub fn gaussian_vec(&mut self, len: usize, sigma: f64) -> Vec<f64> {
        (0..len).map(|_| self.gaussian() * sigma).collect()
    }

    /// Matrix of uniform samples.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f64, hi: f64) -> Matrix {
        Matrix::from_vec(rows, cols, self.uniform_vec(rows * cols, lo, hi))
    }

    /// Matrix of standard-normal samples.
    pub fn gaussian_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.gaussian_vec(rows * cols, 1.0))
    }

    /// Random symmetric positive definite matrix `XᵀX/n + ridge·I`.
    pub fn spd_matrix(&mut self, dim: usize, ridge: f64) -> Matrix {
        let x = self.gaussian_matrix(dim + 4, dim);
        let mut a = x.gramian_scaled((dim + 4) as f64);
        a.add_scaled_identity(ridge);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::cholesky_in_place;

    #[test]
    fn deterministic_given_seed() {
        let mut a = MatrixRng::new(1);
        let mut b = MatrixRng::new(1);
        assert_eq!(a.gaussian_vec(10, 1.0), b.gaussian_vec(10, 1.0));
        assert_eq!(a.index(100), b.index(100));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MatrixRng::new(1);
        let mut b = MatrixRng::new(2);
        assert_ne!(a.uniform_vec(8, 0.0, 1.0), b.uniform_vec(8, 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = MatrixRng::new(3);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = MatrixRng::new(4);
        let xs = rng.gaussian_vec(20_000, 1.0);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn spd_matrix_is_choleskyable() {
        let mut rng = MatrixRng::new(5);
        for d in [1, 4, 16] {
            let a = rng.spd_matrix(d, 1e-2);
            assert!(
                cholesky_in_place(&mut a.clone()).is_ok(),
                "spd_matrix not SPD at d={d}"
            );
        }
    }

    #[test]
    fn index_stays_in_range() {
        let mut rng = MatrixRng::new(6);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }
}
