//! Property tests for the NN substrate: gradients of randomly-configured
//! layers agree with central finite differences, and structural invariants
//! hold for arbitrary shapes.

use proptest::prelude::*;
use spdkfac_nn::layers::{Conv2d, Linear, ReLU};
use spdkfac_nn::loss::softmax_cross_entropy;
use spdkfac_nn::{Layer, Sequential, Tensor4};
use spdkfac_tensor::rng::MatrixRng;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-5;

fn check_grads(net: &mut Sequential, x: &Tensor4, labels: &[usize]) -> Result<(), TestCaseError> {
    let out = net.forward(x, false);
    let (_, grad) = softmax_cross_entropy(&out, labels);
    let dx = net.backward(&grad);
    let analytic: Vec<Vec<f64>> = net
        .parameters()
        .iter()
        .map(|p| p.grad.as_slice().to_vec())
        .collect();

    // Parameter gradients (sampled to keep property cases fast).
    for (pi, param_grads) in analytic.iter().enumerate() {
        let numel = param_grads.len();
        for ei in (0..numel).step_by(numel.div_ceil(5).max(1)) {
            let orig = net.parameters()[pi].value.as_slice()[ei];
            net.parameters_mut()[pi].value.as_mut_slice()[ei] = orig + EPS;
            let (lp, _) = softmax_cross_entropy(&net.forward(x, false), labels);
            net.parameters_mut()[pi].value.as_mut_slice()[ei] = orig - EPS;
            let (lm, _) = softmax_cross_entropy(&net.forward(x, false), labels);
            net.parameters_mut()[pi].value.as_mut_slice()[ei] = orig;
            let fd = (lp - lm) / (2.0 * EPS);
            prop_assert!(
                (fd - param_grads[ei]).abs() < TOL,
                "param {pi} elem {ei}: fd {fd} vs analytic {}",
                param_grads[ei]
            );
        }
    }
    // Input gradients (sampled).
    let mut xp = x.clone();
    for i in (0..x.numel()).step_by(x.numel().div_ceil(6).max(1)) {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + EPS;
        let (lp, _) = softmax_cross_entropy(&net.forward(&xp, false), labels);
        xp.as_mut_slice()[i] = orig - EPS;
        let (lm, _) = softmax_cross_entropy(&net.forward(&xp, false), labels);
        xp.as_mut_slice()[i] = orig;
        let fd = (lp - lm) / (2.0 * EPS);
        prop_assert!(
            (fd - dx.as_slice()[i]).abs() < TOL,
            "input {i}: fd {fd} vs analytic {}",
            dx.as_slice()[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_linear_stacks_have_correct_gradients(
        d_in in 2usize..6,
        hidden in 2usize..6,
        classes in 2usize..4,
        batch in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(d_in, hidden, true, seed)) as Box<dyn Layer>,
            Box::new(ReLU::new()),
            Box::new(Linear::new(hidden, classes, true, seed + 1)),
        ]);
        let mut rng = MatrixRng::new(seed);
        let x = Tensor4::from_vec(batch, d_in, 1, 1, rng.uniform_vec(batch * d_in, -1.0, 1.0));
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        check_grads(&mut net, &x, &labels)?;
    }

    #[test]
    fn random_conv_configs_have_correct_gradients(
        c_in in 1usize..3,
        c_out in 1usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
        hw in 3usize..6,
        seed in 0u64..10_000,
    ) {
        // Keep the geometry valid: pad so the window fits.
        let pad = kernel / 2;
        let out_hw = (hw + 2 * pad - kernel) / stride + 1;
        prop_assume!(out_hw >= 1);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(c_in, c_out, kernel, stride, pad, true, seed)) as Box<dyn Layer>,
            Box::new(spdkfac_nn::layers::Flatten::new()),
            Box::new(Linear::new(c_out * out_hw * out_hw, 2, true, seed + 1)),
        ]);
        let mut rng = MatrixRng::new(seed);
        let x = Tensor4::from_vec(2, c_in, hw, hw, rng.uniform_vec(2 * c_in * hw * hw, -1.0, 1.0));
        check_grads(&mut net, &x, &[0, 1])?;
    }

    #[test]
    fn forward_shapes_are_consistent(
        c_in in 1usize..4,
        c_out in 1usize..5,
        kernel in 1usize..4,
        hw in 4usize..9,
        batch in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let pad = kernel / 2;
        let mut conv = Conv2d::new(c_in, c_out, kernel, 1, pad, false, seed);
        let x = Tensor4::zeros(batch, c_in, hw, hw);
        let y = conv.forward(&x, false);
        let expect_hw = hw + 2 * pad - kernel + 1;
        prop_assert_eq!(y.shape(), (batch, c_out, expect_hw, expect_hw));
        let dx = conv.backward(&y);
        prop_assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn kfac_capture_dims_match_layer_dims(
        d_in in 1usize..8,
        d_out in 1usize..8,
        batch in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut l = Linear::new(d_in, d_out, true, seed);
        let x = Tensor4::zeros(batch, d_in, 1, 1);
        let y = l.forward(&x, true);
        let _ = l.backward(&y);
        let cap = l.take_capture().expect("capture");
        prop_assert_eq!(cap.dims(), (d_in, d_out));
        prop_assert_eq!(cap.factor_a().shape(), (d_in, d_in));
        prop_assert_eq!(cap.factor_g().shape(), (d_out, d_out));
        prop_assert_eq!(cap.factor_a().max_asymmetry(), 0.0);
    }
}
