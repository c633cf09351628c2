//! Gradient preconditioning with the damped Kronecker factors (Eq. 11),
//! through their Cholesky factors: `G⁻¹ · ∇W · A⁻¹` is formed by
//! triangular solves with `L_G` and `L_A`, never by a product with an
//! inverse.

use crate::error::FactorSide;
use crate::factors::FactorState;
use spdkfac_nn::layer::Param;
use spdkfac_tensor::chol::{self, Side};
use spdkfac_tensor::{kron, Matrix};

/// Preconditions a weight gradient: `∇̃W = G⁻¹ · ∇W · A⁻¹`.
///
/// # Panics
///
/// Panics if the factors have not been "inverted" yet or shapes mismatch.
pub fn precondition_weight(state: &FactorState, grad: &Matrix) -> Matrix {
    let mut out = grad.clone();
    to_direction(0, &mut out, factors(state), &mut Matrix::zeros(0, 0));
    out
}

/// Preconditions a bias gradient with the output-side factor only:
/// `∇̃b = G⁻¹ · ∇b`.
///
/// The factor dimensions here carry no bias augmentation (DESIGN.md §4), so
/// the input-side factor for the bias is the scalar `E[1·1ᵀ] = 1` and only
/// `G⁻¹` applies.
///
/// # Panics
///
/// Panics if `G` has not been "inverted" yet or shapes mismatch.
pub fn precondition_bias(state: &FactorState, grad: &Matrix) -> Matrix {
    let mut out = grad.clone();
    to_direction(1, &mut out, factors(state), &mut Matrix::zeros(0, 0));
    out
}

/// Update directions of one layer's parameters (weight first, then bias):
/// through the factors' `L` when `state` has them, the raw gradients
/// otherwise. Layers are independent, so a caller may build them in any
/// order — e.g. as each layer's averaged gradient arrives.
pub fn layer_directions(params: &[&Param], state: Option<&FactorState>) -> Vec<Matrix> {
    let factors = state.and_then(factors);
    let mut scratch = Matrix::zeros(0, 0);
    let mut direction = |(pi, p): (usize, &&Param)| {
        let mut d = p.grad.clone();
        to_direction(pi, &mut d, factors, &mut scratch);
        d
    };
    params.iter().enumerate().map(&mut direction).collect()
}

/// [`layer_directions`] in place: each parameter's gradient becomes its
/// update direction, the solves alternating between it and `scratch[0]`.
/// With `kl_terms`, parameter `i`'s KL clip term ([`kl_term`] of its
/// direction and raw gradient, which `scratch[1]` keeps meanwhile) goes to
/// `kl_terms[i]`.
///
/// # Panics
///
/// Panics if `kl_terms` is shorter than `params`.
pub fn precondition_in_place(
    params: &mut [&mut Param],
    state: Option<&FactorState>,
    scratch: &mut [Matrix; 2],
    mut kl_terms: Option<&mut [f64]>,
) {
    let factors = state.and_then(factors);
    let [solved, raw] = scratch;
    for (pi, p) in params.iter_mut().enumerate() {
        if kl_terms.is_some() {
            raw.clone_from(&p.grad);
        }
        to_direction(pi, &mut p.grad, factors, solved);
        if let Some(kl) = kl_terms.as_deref_mut() {
            kl[pi] = kl_term(&p.grad, raw);
        }
    }
}

/// `state`'s `(L_A, L_G)`, once computed (each the lower triangle of its
/// factor's square, which is all the solves read).
fn factors(state: &FactorState) -> Option<(&Matrix, &Matrix)> {
    let l_a = state.chol(FactorSide::A)?;
    Some((l_a, state.chol(FactorSide::G).expect("G not factored")))
}

/// Turns parameter `pi`'s gradient into its update direction in place:
/// `L_G⁻ᵀ L_G⁻¹ · ∇W · L_A⁻ᵀ L_A⁻¹ = G⁻¹ · ∇W · A⁻¹` for the weight,
/// `L_G⁻ᵀ L_G⁻¹ · ∇b = G⁻¹ · ∇b` for the bias (the solves alternating
/// with `scratch`), the gradient itself without factors.
fn to_direction(
    pi: usize,
    grad: &mut Matrix,
    factors: Option<(&Matrix, &Matrix)>,
    scratch: &mut Matrix,
) {
    match factors {
        Some((l_a, l_g)) if pi == 0 => {
            kron::precondition_gradient_chol_in_place(grad, l_a, l_g, scratch);
        }
        Some((_, l_g)) => {
            chol::solve_into(l_g, Side::Left, false, grad, scratch);
            chol::solve_into(l_g, Side::Left, true, scratch, grad);
        }
        None => {}
    }
}

/// Builds per-parameter update directions for a whole model, layer by layer
/// with [`layer_directions`]. Returns `(directions, raw)` in the model's
/// flat parameter order (`raw` feeds the KL clip).
///
/// `state_of_layer[l]` maps layer index to an index into `states` (or `None`
/// for non-preconditioned layers).
pub fn build_directions(
    net: &spdkfac_nn::Sequential,
    state_of_layer: &[Option<usize>],
    states: &[FactorState],
) -> (Vec<Matrix>, Vec<Matrix>) {
    let mut directions = Vec::new();
    let mut raw = Vec::new();
    for (li, layer) in net.layers().iter().enumerate() {
        let params = layer.params();
        let state = state_of_layer.get(li).copied().flatten();
        directions.extend(layer_directions(&params, state.map(|si| &states[si])));
        raw.extend(params.iter().map(|p| p.grad.clone()));
    }
    (directions, raw)
}

/// Scales update directions so the predicted KL step stays below
/// `kl_clip` — the standard K-FAC trust-region heuristic:
/// `ν = min(1, sqrt(kl_clip / Σ_l ⟨∇̃, ∇⟩ · lr²))`.
///
/// Returns the scale factor ν applied in place to `directions`.
pub fn apply_kl_clip(
    directions: &mut [Matrix],
    raw_grads: &[Matrix],
    lr: f64,
    kl_clip: f64,
) -> f64 {
    assert_eq!(
        directions.len(),
        raw_grads.len(),
        "kl_clip: length mismatch"
    );
    let terms = directions.iter().zip(raw_grads).map(|(d, g)| kl_term(d, g));
    let nu = kl_clip_scale(terms, lr, kl_clip);
    if nu < 1.0 {
        for d in directions.iter_mut() {
            d.scale(nu);
        }
    }
    nu
}

/// One parameter's term `⟨∇̃, ∇⟩` of the KL clip.
pub fn kl_term(direction: &Matrix, grad: &Matrix) -> f64 {
    direction
        .as_slice()
        .iter()
        .zip(grad.as_slice().iter())
        .map(|(a, b)| a * b)
        .sum()
}

/// The KL clip's ν from its per-parameter terms ([`kl_term`]) in the
/// model's flat parameter order; [`apply_kl_clip`] scales by it.
pub fn kl_clip_scale(terms: impl IntoIterator<Item = f64>, lr: f64, kl_clip: f64) -> f64 {
    let mut vg_sum = 0.0;
    for dot in terms {
        vg_sum += dot * lr * lr;
    }
    if vg_sum > 0.0 {
        (kl_clip / vg_sum).sqrt().min(1.0)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdkfac_nn::KfacCapture;
    use spdkfac_tensor::rng::MatrixRng;

    fn ready_state(seed: u64, da: usize, dg: usize) -> FactorState {
        let mut rng = MatrixRng::new(seed);
        let cap = KfacCapture {
            a_rows: rng.gaussian_matrix(da + 8, da),
            g_rows: rng.gaussian_matrix(da + 8, dg),
            batch: da + 8,
        };
        let mut st = FactorState::new(0);
        st.update_from_capture(&cap, 0.95);
        st.refresh_inverses(0.3).unwrap();
        st
    }

    /// `(A + γI)⁻¹` and `(G + γI)⁻¹` of a ready state, formed outright.
    fn inverses(st: &FactorState, gamma: f64) -> (Matrix, Matrix) {
        (
            chol::spd_inverse(&st.damped(FactorSide::A, gamma)).unwrap(),
            chol::spd_inverse(&st.damped(FactorSide::G, gamma)).unwrap(),
        )
    }

    /// Largest element-wise difference relative to `want`'s largest element.
    fn rel_diff(got: &Matrix, want: &Matrix) -> f64 {
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        got.max_abs_diff(want) / scale
    }

    #[test]
    fn identity_factors_leave_grad_unchanged() {
        let mut st = FactorState::new(0);
        st.set_chol(FactorSide::A, &Matrix::identity(3));
        st.set_chol(FactorSide::G, &Matrix::identity(2));
        let mut rng = MatrixRng::new(1);
        let grad = rng.uniform_matrix(2, 3, -1.0, 1.0);
        let out = precondition_weight(&st, &grad);
        assert!(out.max_abs_diff(&grad) < 1e-15);
    }

    #[test]
    fn preconditioning_matches_manual_product() {
        let st = ready_state(2, 4, 3);
        let mut rng = MatrixRng::new(3);
        let grad = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let out = precondition_weight(&st, &grad);
        let (a_inv, g_inv) = inverses(&st, 0.3);
        let manual = g_inv.matmul(&grad).matmul(&a_inv);
        assert!(out.max_abs_diff(&manual) < 1e-12);
    }

    #[test]
    fn bias_uses_g_only() {
        let st = ready_state(4, 4, 3);
        let grad = Matrix::from_vec(3, 1, vec![1.0, -1.0, 0.5]);
        let out = precondition_bias(&st, &grad);
        let manual = inverses(&st, 0.3).1.matmul(&grad);
        assert!(out.max_abs_diff(&manual) < 1e-12);
    }

    /// The directions the solves give against `spd_inverse` + two products,
    /// at the benchmark model's gradient shapes (`d_out × d_in`).
    #[test]
    fn solve_directions_match_inverse_products_at_trainer_shapes() {
        for (seed, (dout, din)) in [(256usize, 256usize), (256, 32), (10, 256)]
            .into_iter()
            .enumerate()
        {
            let mut rng = MatrixRng::new(40 + seed as u64);
            let cap = KfacCapture {
                a_rows: rng.gaussian_matrix(64, din),
                g_rows: rng.gaussian_matrix(64, dout),
                batch: 64,
            };
            let mut st = FactorState::new(0);
            st.update_from_capture(&cap, 0.95);
            st.refresh_inverses(0.1).unwrap();
            let (a_inv, g_inv) = inverses(&st, 0.1);
            let grad = rng.uniform_matrix(dout, din, -1.0, 1.0);
            let want = g_inv.matmul(&grad).matmul(&a_inv);
            let off = rel_diff(&precondition_weight(&st, &grad), &want);
            assert!(off <= 1e-10, "weight {dout}x{din}: off by {off:e}");
            let bias = rng.uniform_matrix(dout, 1, -1.0, 1.0);
            let off = rel_diff(&precondition_bias(&st, &bias), &g_inv.matmul(&bias));
            assert!(off <= 1e-10, "bias {dout}: off by {off:e}");
        }
    }

    #[test]
    fn layer_by_layer_assembly_in_any_order_is_bitwise_build_directions() {
        use spdkfac_nn::data::gaussian_blobs;
        use spdkfac_nn::loss::softmax_cross_entropy;
        use spdkfac_nn::models::deep_mlp;

        let mut net = deep_mlp(6, 9, 3, 4, 11);
        let (x, y) = gaussian_blobs(4, 6, 8, 0.3, 5).batch(0, 16);
        let out = net.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&out, &y);
        net.backward(&grad);
        let mut state_of_layer = vec![None; net.len()];
        let mut states = Vec::new();
        for (li, cap) in net.take_captures() {
            state_of_layer[li] = Some(states.len());
            let mut st = FactorState::new(li);
            st.update_from_capture(&cap, 0.95);
            // The last preconditionable layer keeps no inverses: it must
            // fall back to its raw gradient in both paths.
            if states.len() < 3 {
                st.refresh_inverses(0.2).unwrap();
            }
            states.push(st);
        }
        assert_eq!(states.len(), 4);
        let (whole, raw) = build_directions(&net, &state_of_layer, &states);
        assert_eq!(whole.len(), net.parameters().len());

        // Arrival order of a backward pass with out-of-order stragglers.
        let mut order: Vec<usize> = (0..net.len()).rev().collect();
        order.swap(0, 3);
        let mut base = vec![0usize; net.len() + 1];
        for (li, layer) in net.layers().iter().enumerate() {
            base[li + 1] = base[li] + layer.params().len();
        }
        let mut slots: Vec<Option<Matrix>> = vec![None; whole.len()];
        for li in order {
            let params = net.layers()[li].params();
            let state = state_of_layer[li].map(|si| &states[si]);
            for (slot, d) in slots[base[li]..]
                .iter_mut()
                .zip(layer_directions(&params, state))
            {
                *slot = Some(d);
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (slot, want)) in slots.iter().zip(&whole).enumerate() {
            let got = slot.as_ref().expect("every parameter got a direction");
            assert_eq!(got.shape(), want.shape(), "param {i}");
            assert_eq!(bits(got), bits(want), "param {i}");
        }
        // The uninverted layer passed its gradient through.
        assert_eq!(bits(whole.last().unwrap()), bits(raw.last().unwrap()));
    }

    #[test]
    fn kl_clip_noop_when_step_is_small() {
        let mut dirs = vec![Matrix::from_rows(&[&[1e-6]])];
        let grads = vec![Matrix::from_rows(&[&[1e-6]])];
        let nu = apply_kl_clip(&mut dirs, &grads, 0.01, 1e-3);
        assert_eq!(nu, 1.0);
        assert_eq!(dirs[0][(0, 0)], 1e-6);
    }

    #[test]
    fn kl_clip_scales_large_steps() {
        let mut dirs = vec![Matrix::from_rows(&[&[100.0]])];
        let grads = vec![Matrix::from_rows(&[&[100.0]])];
        let nu = apply_kl_clip(&mut dirs, &grads, 1.0, 1e-3);
        assert!(nu < 1.0);
        assert!((dirs[0][(0, 0)] - 100.0 * nu).abs() < 1e-12);
    }
}
