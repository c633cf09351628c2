//! Self-contained synthetic datasets.
//!
//! The paper trains on ImageNet, which is a data gate we substitute
//! (DESIGN.md §1): these generators produce deterministic, learnable
//! classification/regression problems that exercise the same training loop.
//! `ill_conditioned_blobs` in particular builds a badly-scaled input
//! covariance, the regime where second-order preconditioning visibly beats
//! SGD in iterations-to-target — used by the convergence integration tests.

use crate::tensor4::Tensor4;
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::Matrix;

/// An in-memory labelled dataset of `(N, C, H, W)` inputs.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Tensor4,
    y: Vec<usize>,
}

impl Dataset {
    /// Wraps pre-built inputs and labels.
    ///
    /// # Panics
    ///
    /// Panics if `x.n() != y.len()`.
    pub fn new(x: Tensor4, y: Vec<usize>) -> Self {
        assert_eq!(x.n(), y.len(), "Dataset: sample/label count mismatch");
        Dataset { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// All inputs.
    pub fn inputs(&self) -> &Tensor4 {
        &self.x
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Extracts the contiguous batch `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dataset.
    pub fn batch(&self, start: usize, len: usize) -> (Tensor4, Vec<usize>) {
        let (mut x, mut y) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        self.shard_batch_into(1, 0, start, len, &mut x, &mut y);
        (x, y)
    }

    /// Samples in round-robin shard `part` of `parts` (`part, part+parts,
    /// …`): the data-parallel partitioning of the distributed trainers.
    pub fn shard_len(&self, parts: usize, part: usize) -> usize {
        assert!(part < parts, "shard index out of range");
        self.len().saturating_sub(part).div_ceil(parts)
    }

    /// Batch `[start, start+len)` of round-robin shard `part` of `parts` —
    /// samples `part + (start + j)·parts` — gathered from this dataset into
    /// caller-kept buffers, their storage reused; no copy of the shard is
    /// made.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the shard.
    pub fn shard_batch_into(
        &self,
        parts: usize,
        part: usize,
        start: usize,
        len: usize,
        x: &mut Tensor4,
        y: &mut Vec<usize>,
    ) {
        let (end, (_, c, h, w)) = (start + len, self.x.shape());
        assert!(end <= self.shard_len(parts, part), "batch out of range");
        let samples = (start..end).map(|j| part + j * parts);
        x.assign((len, c, h, w), samples.clone().map(|i| self.x.sample(i)));
        y.clear();
        y.extend(samples.map(|i| self.y[i]));
    }

    /// Returns a copy with samples permuted by a seeded Fisher–Yates
    /// shuffle (deterministic: all data-parallel replicas shuffling with the
    /// same seed see the same order).
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let mut rng = MatrixRng::new(seed);
        let mut order: Vec<usize> = (0..self.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.index(i + 1);
            order.swap(i, j);
        }
        let f = self.x.features();
        let (_, c, h, w) = self.x.shape();
        let mut data = Vec::with_capacity(self.len() * f);
        let mut labels = Vec::with_capacity(self.len());
        for &i in &order {
            data.extend_from_slice(&self.x.as_slice()[i * f..(i + 1) * f]);
            labels.push(self.y[i]);
        }
        Dataset::new(Tensor4::from_vec(self.len(), c, h, w, data), labels)
    }

    /// Deterministic cycling mini-batch iterator: batch `k` starts at
    /// `(k·batch) mod (len − batch + 1)`, the indexing used by the trainers.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds the dataset.
    pub fn batches(&self, batch: usize) -> Batches<'_> {
        assert!(
            batch > 0 && batch <= self.len(),
            "invalid batch size {batch}"
        );
        Batches {
            data: self,
            batch,
            next: 0,
        }
    }
}

/// Infinite cycling mini-batch iterator over a [`Dataset`]; see
/// [`Dataset::batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    data: &'a Dataset,
    batch: usize,
    next: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor4, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let span = self.data.len() - self.batch + 1;
        let start = (self.next * self.batch) % span;
        self.next += 1;
        Some(self.data.batch(start, self.batch))
    }
}

/// Gaussian blob classification: `classes` clusters in `dim` dimensions with
/// per-cluster spread `noise`.
pub fn gaussian_blobs(
    classes: usize,
    dim: usize,
    per_class: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    let mut rng = MatrixRng::new(seed);
    let centers: Vec<Vec<f64>> = (0..classes)
        .map(|_| rng.uniform_vec(dim, -2.0, 2.0))
        .collect();
    let n = classes * per_class;
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % classes;
        for &cd in centers[k].iter().take(dim) {
            data.push(cd + rng.gaussian() * noise);
        }
        labels.push(k);
    }
    Dataset::new(Tensor4::from_vec(n, dim, 1, 1, data), labels)
}

/// Gaussian blobs pushed through a badly-conditioned linear map: feature `d`
/// is scaled by `cond^(d/(dim-1))`, giving an input covariance with condition
/// number ≈ `cond²` — the regime where K-FAC preconditioning shines.
pub fn ill_conditioned_blobs(
    classes: usize,
    dim: usize,
    per_class: usize,
    noise: f64,
    cond: f64,
    seed: u64,
) -> Dataset {
    let base = gaussian_blobs(classes, dim, per_class, noise, seed);
    let (n, c, h, w) = base.inputs().shape();
    let mut data = base.inputs().as_slice().to_vec();
    for i in 0..n {
        for d in 0..dim {
            let expo = if dim > 1 {
                d as f64 / (dim - 1) as f64
            } else {
                0.0
            };
            data[i * dim + d] *= cond.powf(expo);
        }
    }
    Dataset::new(Tensor4::from_vec(n, c, h, w, data), base.labels().to_vec())
}

/// Synthetic image classification: each class has a random template image;
/// samples are `template + noise`. Learnable by a small CNN.
pub fn synthetic_images(
    classes: usize,
    c: usize,
    hw: usize,
    per_class: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    let mut rng = MatrixRng::new(seed);
    let feat = c * hw * hw;
    let templates: Vec<Vec<f64>> = (0..classes)
        .map(|_| rng.uniform_vec(feat, -1.0, 1.0))
        .collect();
    let n = classes * per_class;
    let mut data = Vec::with_capacity(n * feat);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % classes;
        for &t in &templates[k] {
            data.push(t + rng.gaussian() * noise);
        }
        labels.push(k);
    }
    Dataset::new(Tensor4::from_vec(n, c, hw, hw, data), labels)
}

/// Teacher–student regression targets: `y = W_teacher · x` for a fixed random
/// teacher. Returns inputs and target tensors for use with
/// [`crate::loss::mse_loss`].
pub fn teacher_student(dim_in: usize, dim_out: usize, n: usize, seed: u64) -> (Tensor4, Tensor4) {
    let mut rng = MatrixRng::new(seed);
    let teacher = rng.gaussian_matrix(dim_out, dim_in);
    let x = rng.gaussian_matrix(n, dim_in);
    let y = x.matmul_nt(&teacher);
    (Tensor4::from_matrix(&x), Tensor4::from_matrix(&y))
}

/// Empirical feature covariance condition proxy: ratio of max/min feature
/// variances (cheap stand-in for the true condition number in tests).
pub fn feature_variance_ratio(x: &Tensor4) -> f64 {
    let m: Matrix = x.to_matrix();
    let (n, d) = m.shape();
    let mut ratio_src = Vec::with_capacity(d);
    for j in 0..d {
        let mean: f64 = (0..n).map(|i| m[(i, j)]).sum::<f64>() / n as f64;
        let var: f64 = (0..n).map(|i| (m[(i, j)] - mean).powi(2)).sum::<f64>() / n as f64;
        ratio_src.push(var);
    }
    let max = ratio_src.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratio_src.iter().cloned().fold(f64::MAX, f64::min);
    max / min.max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_have_expected_counts() {
        let d = gaussian_blobs(3, 5, 10, 0.1, 1);
        assert_eq!(d.len(), 30);
        assert_eq!(d.inputs().shape(), (30, 5, 1, 1));
        for k in 0..3 {
            assert_eq!(d.labels().iter().filter(|&&l| l == k).count(), 10);
        }
    }

    #[test]
    fn blobs_are_deterministic() {
        let a = gaussian_blobs(2, 3, 5, 0.1, 9);
        let b = gaussian_blobs(2, 3, 5, 0.1, 9);
        assert_eq!(a.inputs().as_slice(), b.inputs().as_slice());
    }

    #[test]
    fn batch_extracts_contiguous_range() {
        let d = gaussian_blobs(2, 3, 4, 0.1, 2);
        let (x, y) = d.batch(2, 3);
        assert_eq!(x.shape(), (3, 3, 1, 1));
        assert_eq!(y.len(), 3);
        assert_eq!(x.sample(0), d.inputs().sample(2));
    }

    #[test]
    fn shards_partition_all_samples() {
        let d = gaussian_blobs(2, 3, 10, 0.1, 3);
        let parts = 3;
        let (mut x, mut y) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        let mut seen = 0;
        for p in 0..parts {
            // Shard `p` holds samples p, p+parts, …: 7, 7 and 6 of 20.
            let len = d.shard_len(parts, p);
            assert_eq!(len, (p..d.len()).step_by(parts).count());
            seen += len;
            for (start, n) in [(0, len), (1, len - 2), (len - 1, 1)] {
                d.shard_batch_into(parts, p, start, n, &mut x, &mut y);
                assert_eq!((x.shape(), y.len()), ((n, 3, 1, 1), n));
                for (j, &label) in y.iter().enumerate() {
                    let i = p + (start + j) * parts;
                    assert_eq!(x.sample(j), d.inputs().sample(i));
                    assert_eq!(label, d.labels()[i]);
                }
            }
        }
        assert_eq!(seen, d.len());
        assert_eq!(d.shard_len(25, 21), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let d = gaussian_blobs(3, 4, 10, 0.1, 7);
        let s = d.shuffled(42);
        assert_eq!(s.len(), d.len());
        // Same multiset of labels.
        let mut a = d.labels().to_vec();
        let mut b = s.labels().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Same multiset of first features.
        let mut fa: Vec<f64> = (0..d.len()).map(|i| d.inputs().sample(i)[0]).collect();
        let mut fb: Vec<f64> = (0..s.len()).map(|i| s.inputs().sample(i)[0]).collect();
        fa.sort_by(|x, y| x.partial_cmp(y).unwrap());
        fb.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(fa, fb);
        // Deterministic and actually shuffled.
        assert_eq!(s.inputs().as_slice(), d.shuffled(42).inputs().as_slice());
        assert_ne!(s.inputs().as_slice(), d.inputs().as_slice());
    }

    #[test]
    fn batches_iterator_cycles_deterministically() {
        let d = gaussian_blobs(2, 3, 5, 0.1, 8); // 10 samples
        let batches: Vec<_> = d.batches(4).take(4).collect();
        // span = 7: starts are 0, 4, 1, 5.
        assert_eq!(batches[0].0.sample(0), d.inputs().sample(0));
        assert_eq!(batches[1].0.sample(0), d.inputs().sample(4));
        assert_eq!(batches[2].0.sample(0), d.inputs().sample(1));
        for (x, y) in &batches {
            assert_eq!(x.n(), 4);
            assert_eq!(y.len(), 4);
        }
    }

    #[test]
    fn ill_conditioning_raises_variance_ratio() {
        let base = gaussian_blobs(2, 6, 50, 0.5, 4);
        let ill = ill_conditioned_blobs(2, 6, 50, 0.5, 100.0, 4);
        assert!(
            feature_variance_ratio(ill.inputs()) > 100.0 * feature_variance_ratio(base.inputs())
        );
    }

    #[test]
    fn synthetic_images_shapes() {
        let d = synthetic_images(2, 3, 8, 5, 0.2, 5);
        assert_eq!(d.inputs().shape(), (10, 3, 8, 8));
    }

    #[test]
    fn teacher_student_targets_are_linear() {
        let (x, y) = teacher_student(4, 2, 10, 6);
        assert_eq!(x.shape(), (10, 4, 1, 1));
        assert_eq!(y.shape(), (10, 2, 1, 1));
    }
}
