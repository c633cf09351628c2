//! Loss functions with analytic gradients (mean-reduced over the batch).

use crate::tensor4::Tensor4;

/// Softmax + cross-entropy over class logits.
///
/// `logits` must be `(N, K, 1, 1)`; `labels[n] ∈ 0..K`. Returns the scalar
/// mean loss and its gradient w.r.t. the logits (`(softmax - onehot)/N`).
///
/// # Panics
///
/// Panics if shapes disagree or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor4, labels: &[usize]) -> (f64, Tensor4) {
    let (n, k, h, w) = logits.shape();
    assert_eq!(
        (h, w),
        (1, 1),
        "softmax_cross_entropy expects (N, K, 1, 1) logits"
    );
    assert_eq!(labels.len(), n, "label count must match batch size");
    let mut grad = Tensor4::zeros(n, k, 1, 1);
    let mut loss = 0.0;
    for s in 0..n {
        let row = logits.sample(s);
        assert!(labels[s] < k, "label {} out of range {k}", labels[s]);
        // Stable log-softmax.
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum_exp: f64 = row.iter().map(|&v| (v - max).exp()).sum();
        let log_z = max + sum_exp.ln();
        loss += log_z - row[labels[s]];
        for (c, &logit) in row.iter().enumerate() {
            let p = (logit - log_z).exp();
            let y = if c == labels[s] { 1.0 } else { 0.0 };
            *grad.at_mut(s, c, 0, 0) = (p - y) / n as f64;
        }
    }
    (loss / n as f64, grad)
}

/// Mean squared error `1/(2N) Σ_n ‖pred_n − target_n‖²`.
///
/// Returns the scalar loss and its gradient `(pred − target)/N`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn mse_loss(pred: &Tensor4, target: &Tensor4) -> (f64, Tensor4) {
    assert_eq!(pred.shape(), target.shape(), "mse_loss: shape mismatch");
    let n = pred.n() as f64;
    let mut loss = 0.0;
    let data: Vec<f64> = pred
        .as_slice()
        .iter()
        .zip(target.as_slice().iter())
        .map(|(&p, &t)| {
            let d = p - t;
            loss += 0.5 * d * d;
            d / n
        })
        .collect();
    let (bn, c, h, w) = pred.shape();
    (loss / n, Tensor4::from_vec(bn, c, h, w, data))
}

/// Classification accuracy of argmax predictions.
///
/// # Panics
///
/// Panics if `labels.len() != logits.n()`.
pub fn accuracy(logits: &Tensor4, labels: &[usize]) -> f64 {
    let (n, k, _, _) = logits.shape();
    assert_eq!(labels.len(), n, "label count must match batch size");
    let mut correct = 0usize;
    for (s, &label) in labels.iter().enumerate() {
        let row = logits.sample(s);
        let pred = (0..k)
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap())
            .unwrap();
        if pred == label {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Tensor4::zeros(2, 4, 1, 1);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f64).ln()).abs() < 1e-12);
        // Gradient: (0.25 - onehot)/2.
        assert!((grad.at(0, 0, 0, 0) - (0.25 - 1.0) / 2.0).abs() < 1e-12);
        assert!((grad.at(0, 1, 0, 0) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let mut logits = Tensor4::zeros(1, 3, 1, 1);
        *logits.at_mut(0, 2, 0, 0) = 20.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_sample() {
        let mut logits = Tensor4::zeros(3, 5, 1, 1);
        for s in 0..3 {
            for c in 0..5 {
                *logits.at_mut(s, c, 0, 0) = (s * 5 + c) as f64 * 0.3 - 2.0;
            }
        }
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 2, 4]);
        for s in 0..3 {
            let sum: f64 = grad.sample(s).iter().sum();
            assert!(sum.abs() < 1e-12);
        }
    }

    #[test]
    fn cross_entropy_gradient_finite_difference() {
        let mut logits = Tensor4::from_vec(2, 3, 1, 1, vec![0.5, -1.0, 2.0, 0.1, 0.2, -0.3]);
        let labels = [2usize, 0usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for i in 0..logits.numel() {
            let orig = logits.as_slice()[i];
            logits.as_mut_slice()[i] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&logits, &labels);
            logits.as_mut_slice()[i] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&logits, &labels);
            logits.as_mut_slice()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < 1e-6,
                "grad mismatch at {i}: fd={fd}, analytic={}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn mse_known_values() {
        let pred = Tensor4::from_vec(2, 1, 1, 1, vec![1.0, 3.0]);
        let target = Tensor4::from_vec(2, 1, 1, 1, vec![0.0, 1.0]);
        let (loss, grad) = mse_loss(&pred, &target);
        // (0.5·1 + 0.5·4)/2 = 1.25.
        assert!((loss - 1.25).abs() < 1e-12);
        assert_eq!(grad.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Tensor4::from_vec(2, 2, 1, 1, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
    }
}
