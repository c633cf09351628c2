//! Plain SGD with momentum and weight decay — the first-order baseline
//! (Eq. 1 of the paper).

use crate::layer::Param;
use spdkfac_tensor::Matrix;

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + (g + λ·w)`, `w ← w − α·v`.
///
/// # Example
///
/// ```
/// use spdkfac_nn::optim::Sgd;
/// use spdkfac_nn::Param;
/// use spdkfac_tensor::Matrix;
///
/// let mut p = Param::new(Matrix::from_rows(&[&[1.0]]));
/// p.grad = Matrix::from_rows(&[&[0.5]]);
/// let mut sgd = Sgd::new(0.1, 0.0, 0.0);
/// sgd.step(&mut [&mut p]);
/// assert!((p.value[(0, 0)] - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an optimizer with learning rate `lr`, momentum `momentum`
    /// and L2 weight decay `weight_decay`.
    pub fn new(lr: f64, momentum: f64, weight_decay: f64) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// The momentum buffers, positionally matching the parameter list of
    /// the last [`Sgd::step`] call; empty before the first step. Exposed
    /// for checkpointing (elastic state handoff).
    pub fn velocity(&self) -> &[Matrix] {
        &self.velocity
    }

    /// Restores momentum buffers from a checkpoint. An empty `velocity`
    /// resets to the pre-first-step state (buffers re-zero lazily);
    /// otherwise shapes must match the parameters of the next `step`, which
    /// the step's own assertions enforce positionally.
    pub fn set_velocity(&mut self, velocity: Vec<Matrix>) {
        self.velocity = velocity;
    }

    /// Applies one update to `params` using their `grad` fields.
    ///
    /// The parameter list must be identical (same order and shapes) on every
    /// call, since momentum state is positional.
    ///
    /// # Panics
    ///
    /// Panics if the parameter count or shapes change between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "Sgd::step: parameter count changed"
        );
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            assert_eq!(
                p.value.shape(),
                v.shape(),
                "Sgd::step: parameter shape changed"
            );
            // v = μ v + (g + λ w)
            v.scale(self.momentum);
            v.axpy(1.0, &p.grad);
            if self.weight_decay != 0.0 {
                v.axpy(self.weight_decay, &p.value);
            }
            // w -= α v
            p.value.axpy(-self.lr, v);
        }
    }

    /// Applies an update with externally-supplied update directions (used by
    /// the K-FAC optimizers, which precondition gradients before momentum).
    ///
    /// # Panics
    ///
    /// Panics if counts or shapes mismatch.
    pub fn step_with_directions(&mut self, params: &mut [&mut Param], directions: &[Matrix]) {
        assert_eq!(params.len(), directions.len(), "direction count mismatch");
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        for ((p, v), d) in params
            .iter_mut()
            .zip(self.velocity.iter_mut())
            .zip(directions.iter())
        {
            v.scale(self.momentum);
            v.axpy(1.0, d);
            if self.weight_decay != 0.0 {
                v.axpy(self.weight_decay, &p.value);
            }
            p.value.axpy(-self.lr, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: f64) -> Param {
        let mut p = Param::new(Matrix::from_rows(&[&[v]]));
        p.grad = Matrix::from_rows(&[&[1.0]]);
        p
    }

    #[test]
    fn vanilla_sgd_step() {
        let mut p = param(1.0);
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        opt.step(&mut [&mut p]);
        assert!((p.value[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(0.0);
        let mut opt = Sgd::new(1.0, 0.5, 0.0);
        opt.step(&mut [&mut p]); // v=1, w=-1
        p.grad = Matrix::from_rows(&[&[1.0]]);
        opt.step(&mut [&mut p]); // v=1.5, w=-2.5
        assert!((p.value[(0, 0)] + 2.5).abs() < 1e-12);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut p = param(10.0);
        p.grad = Matrix::from_rows(&[&[0.0]]);
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value[(0, 0)] - (10.0 - 0.1 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn directions_bypass_grad() {
        let mut p = param(0.0);
        p.grad = Matrix::from_rows(&[&[100.0]]); // ignored
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        opt.step_with_directions(&mut [&mut p], &[Matrix::from_rows(&[&[2.0]])]);
        assert!((p.value[(0, 0)] + 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut p1 = param(0.0);
        let mut p2 = param(0.0);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(&mut [&mut p1, &mut p2]);
        opt.step(&mut [&mut p1]);
    }
}
