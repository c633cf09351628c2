//! Plain SGD with momentum and weight decay — the first-order baseline
//! (Eq. 1 of the paper).

use crate::layer::Param;
use spdkfac_tensor::Matrix;

/// Stochastic gradient descent with classical momentum.
///
/// `v ← μ·v + (g + λ·w)`, `w ← w − α·v`; at `μ = 0` no `v` is kept, and
/// `w ← w − α·(g + λ·w)` rounds as that form does.
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
/// assert!((p.value[(0, 0)] - 0.95).abs() < 1e-12 && sgd.velocity().is_empty());
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
    /// the last [`Sgd::step`] call; empty before the first step and at zero
    /// momentum. Exposed for checkpointing (elastic state handoff).
    pub fn velocity(&self) -> &[Matrix] {
        &self.velocity
    }

    /// Restores momentum buffers from a checkpoint. An empty `velocity`
    /// resets to the pre-first-step state (buffers re-zero lazily);
    /// otherwise shapes must match the parameters of the next `step`, which
    /// the step's own assertions enforce positionally. Nothing is kept at
    /// zero momentum.
    pub fn set_velocity(&mut self, velocity: Vec<Matrix>) {
        if self.momentum != 0.0 {
            self.velocity = velocity;
        }
    }

    /// Applies one update to `params` using their `grad` fields.
    ///
    /// With momentum, the parameter list must be identical (same order and
    /// shapes) on every call, since momentum state is positional.
    ///
    /// # Panics
    ///
    /// Panics if the parameter count or shapes change under momentum.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.update(params, None);
    }

    /// Applies an update with externally-supplied update directions (used by
    /// the K-FAC optimizers, which precondition gradients before momentum).
    ///
    /// # Panics
    ///
    /// Panics if counts or shapes mismatch.
    pub fn step_with_directions(&mut self, params: &mut [&mut Param], directions: &[Matrix]) {
        assert_eq!(params.len(), directions.len(), "direction count mismatch");
        self.update(params, Some(directions));
    }

    /// The step of both entry points: each parameter moves along its
    /// `directions` entry, or its own gradient without one.
    fn update(&mut self, params: &mut [&mut Param], directions: Option<&[Matrix]>) {
        let (lr, wd) = (self.lr, self.weight_decay);
        if self.momentum != 0.0 && self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        let count = self.velocity.len();
        assert!(
            count == 0 || count == params.len(),
            "Sgd::step: parameter count changed"
        );
        for (i, p) in params.iter_mut().enumerate() {
            let Param { value, grad } = &mut **p;
            let d = directions.map_or(&*grad, |ds| &ds[i]);
            let v = self.velocity.get_mut(i);
            let shape = v.as_ref().map_or(d.shape(), |v| v.shape());
            assert_eq!(value.shape(), shape, "Sgd::step: parameter shape changed");
            if let Some(v) = v {
                // v = μ v + (d + λ w), w -= α v
                v.scale(self.momentum);
                v.axpy(1.0, d);
                if wd != 0.0 {
                    v.axpy(wd, value);
                }
                value.axpy(-lr, v);
            } else {
                // The same without v, each element rounded as above.
                for (w, &g) in value.as_mut_slice().iter_mut().zip(d.as_slice()) {
                    *w += -lr * if wd != 0.0 { g + wd * *w } else { g };
                }
            }
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
    fn without_momentum_the_step_matches_the_buffered_form_to_the_bit() {
        use spdkfac_tensor::rng::MatrixRng;
        for weight_decay in [0.0, 1e-2] {
            let mut rng = MatrixRng::new(5);
            let shapes = [(7, 5), (1, 5), (3, 7)];
            let mut direct: Vec<Param> = shapes
                .iter()
                .map(|&(r, c)| Param::new(rng.gaussian_matrix(r, c)))
                .collect();
            let mut buffered: Vec<Param> =
                direct.iter().map(|p| Param::new(p.value.clone())).collect();
            let mut opt = Sgd::new(0.3, 0.0, weight_decay);
            // The form every μ = 0 step took before: a zero-momentum
            // velocity, scaled by 0 and refilled each step.
            let mut reference = Sgd::new(0.3, 0.0, weight_decay);
            reference.velocity = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
            for step in 0..6 {
                let dirs: Vec<Matrix> = shapes
                    .iter()
                    .map(|&(r, c)| rng.gaussian_matrix(r, c))
                    .collect();
                if step % 2 == 0 {
                    opt.step_with_directions(&mut direct.iter_mut().collect::<Vec<_>>(), &dirs);
                    reference
                        .step_with_directions(&mut buffered.iter_mut().collect::<Vec<_>>(), &dirs);
                } else {
                    for (p, (q, d)) in direct.iter_mut().zip(buffered.iter_mut().zip(&dirs)) {
                        p.grad = d.clone();
                        q.grad = d.clone();
                    }
                    opt.step(&mut direct.iter_mut().collect::<Vec<_>>());
                    reference.step(&mut buffered.iter_mut().collect::<Vec<_>>());
                }
                for (p, q) in direct.iter().zip(&buffered) {
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&p.value),
                        bits(&q.value),
                        "λ {weight_decay}, step {step}"
                    );
                }
            }
            assert!(opt.velocity().is_empty(), "μ = 0 keeps no velocity");
            opt.set_velocity(reference.velocity.clone());
            assert!(opt.velocity().is_empty(), "μ = 0 restores no velocity");
        }
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
