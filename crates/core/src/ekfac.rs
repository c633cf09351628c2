//! EKFAC — the eigenvalue-corrected K-FAC variant (George et al., NeurIPS
//! 2018; reference \[12\] of the paper's related work).
//!
//! Where K-FAC preconditions with `(A+γI)⁻¹ ⊗ (G+γI)⁻¹`, EKFAC keeps the
//! Kronecker *eigenbasis* `Q_A ⊗ Q_G` but replaces the eigenvalue products
//! with directly-estimated second moments of the gradient in that basis:
//!
//! 1. eigendecompose `A = Q_A Λ_A Q_Aᵀ`, `G = Q_G Λ_G Q_Gᵀ` (amortised);
//! 2. track `S ← ρ·S + (1−ρ)·(Q_Gᵀ ∇W Q_A)²` element-wise every step;
//! 3. precondition `∇̃W = Q_G [ (Q_Gᵀ ∇W Q_A) ⊘ (S + γ) ] Q_Aᵀ`.
//!
//! Systems-wise, EKFAC swaps the 2L inversions for 2L eigendecompositions
//! (same distribution/broadcast structure — LBP applies unchanged) plus a
//! cheap per-step rescale, which is why it slots into this reproduction as a
//! natural extension.

use crate::error::{FactorSide, KfacError};
use spdkfac_nn::optim::Sgd;
use spdkfac_nn::{Param, Sequential};
use spdkfac_tensor::eig::sym_eig;
use spdkfac_tensor::Matrix;

/// Hyper-parameters of the EKFAC update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EkfacConfig {
    /// Learning rate.
    pub lr: f64,
    /// Momentum.
    pub momentum: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Damping added to the scaling denominators.
    pub damping: f64,
    /// EMA decay of factor statistics and of the eigenbasis second moments.
    pub stat_decay: f64,
    /// Recompute the eigenbases every this many steps.
    pub basis_update_freq: usize,
}

impl Default for EkfacConfig {
    fn default() -> Self {
        EkfacConfig {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
            damping: 0.03,
            stat_decay: 0.95,
            basis_update_freq: 1,
        }
    }
}

#[derive(Debug)]
struct EkfacLayerState {
    layer: usize,
    a: Option<Matrix>,
    g: Option<Matrix>,
    q_a: Option<Matrix>,
    q_g: Option<Matrix>,
    /// Second moments of the gradient in the eigenbasis, `d_g × d_a`.
    scale: Option<Matrix>,
}

/// Preconditions a gradient in a fixed Kronecker eigenbasis:
/// `Q_G [ (Q_Gᵀ ∇W Q_A) ⊘ (S + γ) ] Q_Aᵀ`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn precondition_ekfac(
    grad: &Matrix,
    q_a: &Matrix,
    q_g: &Matrix,
    scale: &Matrix,
    damping: f64,
) -> Matrix {
    let projected = q_g.matmul_tn(grad).matmul(q_a);
    assert_eq!(
        projected.shape(),
        scale.shape(),
        "ekfac: scale shape mismatch"
    );
    let rescaled = Matrix::from_fn(projected.rows(), projected.cols(), |i, j| {
        projected[(i, j)] / (scale[(i, j)] + damping)
    });
    q_g.matmul(&rescaled).matmul_nt(q_a)
}

/// Update directions of one EKFAC-preconditioned layer's parameters (weight
/// first, then bias): moment-corrects `scale` with this step's weight
/// gradient (step 2 of the module docs), then rescales both gradients in the
/// eigenbasis — the bias on the `G` side only, with row-mean denominators.
pub(crate) fn layer_directions(
    params: &[&Param],
    q_a: &Matrix,
    q_g: &Matrix,
    scale: &mut Matrix,
    stat_decay: f64,
    damping: f64,
) -> Vec<Matrix> {
    let projected = q_g.matmul_tn(&params[0].grad).matmul(q_a);
    let sq = Matrix::from_fn(projected.rows(), projected.cols(), |i, j| {
        projected[(i, j)] * projected[(i, j)]
    });
    scale.ema_update(stat_decay, &sq);
    let scale = &*scale;
    params
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            if pi == 0 {
                return precondition_ekfac(&p.grad, q_a, q_g, scale, damping);
            }
            let proj = q_g.matmul_tn(&p.grad);
            let cols = scale.cols() as f64;
            let rescaled = Matrix::from_fn(proj.rows(), 1, |i, _| {
                let row_mean: f64 = scale.row(i).iter().sum::<f64>() / cols;
                proj[(i, 0)] / (row_mean + damping)
            });
            q_g.matmul(&rescaled)
        })
        .collect()
}

/// Single-process EKFAC optimizer (extension; mirrors
/// [`crate::optimizer::KfacOptimizer`]).
#[derive(Debug)]
pub struct EkfacOptimizer {
    cfg: EkfacConfig,
    states: Vec<EkfacLayerState>,
    state_of_layer: Vec<Option<usize>>,
    sgd: Sgd,
    steps: usize,
}

impl EkfacOptimizer {
    /// Creates an optimizer for `net`.
    pub fn new(net: &Sequential, cfg: EkfacConfig) -> Self {
        let pre = net.preconditionable();
        let mut state_of_layer = vec![None; net.len()];
        let mut states = Vec::with_capacity(pre.len());
        for (si, &li) in pre.iter().enumerate() {
            state_of_layer[li] = Some(si);
            states.push(EkfacLayerState {
                layer: li,
                a: None,
                g: None,
                q_a: None,
                q_g: None,
                scale: None,
            });
        }
        EkfacOptimizer {
            sgd: Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay),
            cfg,
            states,
            state_of_layer,
            steps: 0,
        }
    }

    /// Number of preconditioned layers.
    pub fn num_preconditioned_layers(&self) -> usize {
        self.states.len()
    }

    /// Consumes captures, refreshes eigenbases on schedule, updates the
    /// eigenbasis second moments, and applies the preconditioned update.
    ///
    /// # Errors
    ///
    /// Returns [`KfacError::FactorInversion`] when an eigendecomposition
    /// fails (rectangular input cannot occur here; the error is kept for
    /// interface symmetry with K-FAC).
    pub fn step(&mut self, net: &mut Sequential) -> Result<(), KfacError> {
        // 1. Update running factors from captures.
        for (layer, cap) in net.take_captures() {
            let si = self.state_of_layer[layer].expect("capture from unknown layer");
            let st = &mut self.states[si];
            let a_new = cap.factor_a();
            let g_new = cap.factor_g();
            match &mut st.a {
                Some(a) => a.ema_update(self.cfg.stat_decay, &a_new),
                None => st.a = Some(a_new),
            }
            match &mut st.g {
                Some(g) => g.ema_update(self.cfg.stat_decay, &g_new),
                None => st.g = Some(g_new),
            }
        }
        // 2. Refresh eigenbases on schedule.
        if self.steps.is_multiple_of(self.cfg.basis_update_freq.max(1)) {
            for st in &mut self.states {
                let a = st.a.as_ref().expect("no A statistics yet");
                let g = st.g.as_ref().expect("no G statistics yet");
                let ea = sym_eig(a).map_err(|source| KfacError::FactorInversion {
                    layer: st.layer,
                    factor: FactorSide::A,
                    source,
                })?;
                let eg = sym_eig(g).map_err(|source| KfacError::FactorInversion {
                    layer: st.layer,
                    factor: FactorSide::G,
                    source,
                })?;
                st.q_a = Some(ea.vectors);
                st.q_g = Some(eg.vectors);
                // (Re)seed the scales with the Kronecker eigenvalue products
                // (exactly K-FAC's spectrum) — the per-step moment tracking
                // below corrects them, which is EKFAC's whole point.
                let seed = Matrix::from_fn(eg.values.len(), ea.values.len(), |i, j| {
                    (eg.values[i] * ea.values[j]).max(0.0)
                });
                if st.scale.is_none() {
                    st.scale = Some(seed);
                } else {
                    st.scale = Some(seed); // refreshed basis invalidates old moments
                }
            }
        }
        // 3. Per-step eigenbasis second-moment update from the current
        //    gradients, then build directions.
        let mut directions: Vec<Matrix> = Vec::new();
        for (li, layer) in net.layers().iter().enumerate() {
            let params = layer.params();
            match self.state_of_layer[li] {
                Some(si) if self.states[si].q_a.is_some() => {
                    let st = &mut self.states[si];
                    directions.extend(layer_directions(
                        &params,
                        st.q_a.as_ref().expect("basis"),
                        st.q_g.as_ref().expect("basis"),
                        st.scale.as_mut().expect("scale is seeded with the basis"),
                        self.cfg.stat_decay,
                        self.cfg.damping,
                    ));
                }
                _ => {
                    for p in params {
                        directions.push(p.grad.clone());
                    }
                }
            }
        }
        self.sgd
            .step_with_directions(&mut net.parameters_mut(), &directions);
        self.steps += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::FactorState;
    use spdkfac_nn::data::{gaussian_blobs, ill_conditioned_blobs};
    use spdkfac_nn::loss::softmax_cross_entropy;
    use spdkfac_nn::models::mlp;
    use spdkfac_tensor::rng::MatrixRng;
    use spdkfac_tensor::SymPacked;

    #[test]
    fn ekfac_equals_kfac_when_scales_are_eigenvalue_products() {
        // With S_ij = λ_G,i · λ_A,j and zero damping, the EKFAC rescale is
        // exactly the K-FAC inverse: Q (Λ_A ⊗ Λ_G)⁻¹ Qᵀ = A⁻¹ ⊗ G⁻¹.
        let mut rng = MatrixRng::new(3);
        let a = rng.spd_matrix(4, 0.5);
        let g = rng.spd_matrix(3, 0.5);
        let grad = rng.gaussian_matrix(3, 4);

        let ea = sym_eig(&a).unwrap();
        let eg = sym_eig(&g).unwrap();
        let scale = Matrix::from_fn(3, 4, |i, j| eg.values[i] * ea.values[j]);
        let ek = precondition_ekfac(&grad, &ea.vectors, &eg.vectors, &scale, 0.0);

        let mut st = FactorState::new(0);
        for (side, f) in [(FactorSide::A, &a), (FactorSide::G, &g)] {
            let f = SymPacked::from_matrix(f);
            st.update_packed(side, f.dim(), f.as_slice(), 0.95);
        }
        st.refresh_inverses(0.0).unwrap();
        let kf = crate::precond::precondition_weight(&st, &grad);
        assert!(
            ek.max_abs_diff(&kf) < 1e-8,
            "EKFAC with spectral scales must equal K-FAC"
        );
    }

    #[test]
    fn identity_basis_and_unit_scale_is_identity() {
        let grad = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let q = Matrix::identity(2);
        let s = Matrix::from_fn(2, 2, |_, _| 1.0);
        let out = precondition_ekfac(&grad, &q, &q, &s, 0.0);
        assert!(out.max_abs_diff(&grad) < 1e-14);
    }

    #[test]
    fn ekfac_trains() {
        let data = gaussian_blobs(3, 6, 20, 0.3, 61);
        let (x, y) = data.batch(0, data.len());
        let mut net = mlp(&[6, 16, 3], 5);
        let mut opt = EkfacOptimizer::new(
            &net,
            EkfacConfig {
                lr: 0.05,
                momentum: 0.0,
                damping: 0.1,
                ..EkfacConfig::default()
            },
        );
        assert_eq!(opt.num_preconditioned_layers(), 2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let out = net.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&out, &y);
            net.backward(&grad);
            opt.step(&mut net).unwrap();
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < 0.3 * first.unwrap(), "{first:?} -> {last}");
    }

    #[test]
    fn ekfac_beats_sgd_on_ill_conditioned_problem() {
        let data = ill_conditioned_blobs(3, 8, 30, 0.3, 100.0, 11);
        let (x, y) = data.batch(0, data.len());
        let iters = 60;
        let mut net = mlp(&[8, 32, 3], 5);
        let mut opt = EkfacOptimizer::new(
            &net,
            EkfacConfig {
                lr: 0.1,
                momentum: 0.0,
                damping: 0.03,
                ..EkfacConfig::default()
            },
        );
        let mut last = f64::INFINITY;
        for _ in 0..iters {
            let out = net.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&out, &y);
            net.backward(&grad);
            opt.step(&mut net).unwrap();
            last = loss;
        }
        // Best SGD on this problem/budget reaches ≈3e-3 (see optimizer.rs);
        // EKFAC should be comfortably below.
        assert!(last < 2e-3, "ekfac loss {last} not competitive");
    }

    #[test]
    fn basis_update_freq_amortises() {
        let data = gaussian_blobs(2, 4, 10, 0.3, 63);
        let (x, y) = data.batch(0, 20);
        let mut net = mlp(&[4, 8, 2], 2);
        let mut opt = EkfacOptimizer::new(
            &net,
            EkfacConfig {
                basis_update_freq: 5,
                damping: 0.1,
                momentum: 0.0,
                ..EkfacConfig::default()
            },
        );
        for _ in 0..7 {
            let out = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&out, &y);
            net.backward(&grad);
            opt.step(&mut net).unwrap();
        }
        assert_eq!(opt.steps, 7);
    }
}
