//! Fully-connected layer with K-FAC capture.

use crate::layer::{KfacCapture, Layer, Param};
use crate::tensor4::Tensor4;
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::Matrix;

/// A fully-connected layer `y = W x (+ b)`.
///
/// Inputs of any `(N, C, H, W)` shape are treated as `N × (C·H·W)`; the
/// output is `(N, d_out, 1, 1)`.
///
/// # Example
///
/// ```
/// use spdkfac_nn::layers::Linear;
/// use spdkfac_nn::{Layer, Tensor4};
///
/// let mut l = Linear::new(4, 2, true, 1);
/// let x = Tensor4::zeros(3, 4, 1, 1);
/// let y = l.forward(&x, false);
/// assert_eq!(y.shape(), (3, 2, 1, 1));
/// ```
#[derive(Debug)]
pub struct Linear {
    name: String,
    d_in: usize,
    d_out: usize,
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Matrix>,
    cached_shape: Option<(usize, usize, usize, usize)>,
    capture_armed: bool,
    pending_a: Option<Matrix>,
    pending_g: Option<(Matrix, usize)>,
}

impl Linear {
    /// Creates a layer with Kaiming-style initialisation (`N(0, 2/d_in)`).
    pub fn new(d_in: usize, d_out: usize, bias: bool, seed: u64) -> Self {
        let mut rng = MatrixRng::new(seed);
        let std = (2.0 / d_in as f64).sqrt();
        let w = Matrix::from_vec(d_out, d_in, rng.gaussian_vec(d_out * d_in, std));
        Linear {
            name: format!("linear_{d_in}x{d_out}"),
            d_in,
            d_out,
            weight: Param::new(w),
            bias: bias.then(|| Param::new(Matrix::zeros(d_out, 1))),
            cached_input: None,
            cached_shape: None,
            capture_armed: false,
            pending_a: None,
            pending_g: None,
        }
    }

    /// Input feature count.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output feature count.
    pub fn d_out(&self) -> usize {
        self.d_out
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor4, capture: bool) -> Tensor4 {
        assert_eq!(
            x.features(),
            self.d_in,
            "{}: expected {} input features, got {}",
            self.name,
            self.d_in,
            x.features()
        );
        let x_mat = x.to_matrix(); // N × d_in
        let mut out = x_mat.matmul_nt(&self.weight.value); // N × d_out
        if let Some(b) = &self.bias {
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                for (c, v) in row.iter_mut().enumerate() {
                    *v += b.value[(c, 0)];
                }
            }
        }
        if capture {
            self.capture_armed = true;
            self.pending_a = Some(x_mat.clone());
        } else {
            self.capture_armed = false;
            self.pending_a = None;
        }
        self.cached_shape = Some(x.shape());
        self.cached_input = Some(x_mat);
        Tensor4::from_matrix(&out)
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let x_mat = self
            .cached_input
            .take()
            .expect("Linear::backward called before forward");
        let (n, c, h, w) = self.cached_shape.take().expect("missing cached shape");
        let g = grad_out.to_matrix(); // N × d_out (mean-reduced)
        assert_eq!(g.cols(), self.d_out, "{}: bad grad width", self.name);

        // dW = gᵀ · x (d_out × d_in).
        g.matmul_tn_into(&x_mat, &mut self.weight.grad);
        if let Some(b) = &mut self.bias {
            let db = &mut b.grad;
            db.as_mut_slice().fill(0.0);
            for r in 0..g.rows() {
                for cc in 0..self.d_out {
                    db[(cc, 0)] += g[(r, cc)];
                }
            }
        }
        if self.capture_armed {
            self.pending_g = Some((g.clone(), g.rows()));
            self.capture_armed = false;
        }
        // dx = g · W, reshaped to the original input shape.
        let dx = g.matmul(&self.weight.value);
        Tensor4::from_vec(n, c, h, w, dx.into_vec())
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.weight];
        if let Some(b) = &self.bias {
            p.push(b);
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            p.push(b);
        }
        p
    }

    fn take_capture(&mut self) -> Option<KfacCapture> {
        let (g_rows, batch) = self.pending_g.take()?;
        let a_rows = self.pending_a.take()?;
        Some(KfacCapture {
            a_rows,
            g_rows,
            batch,
        })
    }

    fn take_a_stat(&mut self) -> Option<Matrix> {
        self.pending_a.take()
    }

    fn take_g_stat(&mut self) -> Option<(Matrix, usize)> {
        self.pending_g.take()
    }

    fn kfac_dims(&self) -> Option<(usize, usize)> {
        Some((self.d_in, self.d_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, true, 1);
        l.weight.value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        l.bias.as_mut().unwrap().value = Matrix::from_vec(2, 1, vec![0.5, -0.5]);
        let x = Tensor4::from_vec(1, 2, 1, 1, vec![3.0, 4.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn backward_gradients_match_known() {
        let mut l = Linear::new(2, 1, true, 1);
        l.weight.value = Matrix::from_rows(&[&[1.0, 2.0]]);
        let x = Tensor4::from_vec(2, 2, 1, 1, vec![1.0, 0.0, 0.0, 1.0]);
        let _ = l.forward(&x, false);
        let g = Tensor4::from_vec(2, 1, 1, 1, vec![1.0, 2.0]);
        let dx = l.backward(&g);
        // dW = gᵀ x = [1*[1,0] + 2*[0,1]] = [1, 2].
        assert_eq!(l.weight.grad, Matrix::from_rows(&[&[1.0, 2.0]]));
        // db = 3.
        assert_eq!(l.bias.as_ref().unwrap().grad[(0, 0)], 3.0);
        // dx rows = g_n * W.
        assert_eq!(dx.as_slice(), &[1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn capture_roundtrip() {
        let mut l = Linear::new(3, 2, false, 2);
        let x = Tensor4::zeros(4, 3, 1, 1);
        let _ = l.forward(&x, true);
        let g = Tensor4::zeros(4, 2, 1, 1);
        let _ = l.backward(&g);
        let cap = l.take_capture().expect("capture missing");
        assert_eq!(cap.a_rows.shape(), (4, 3));
        assert_eq!(cap.g_rows.shape(), (4, 2));
        assert_eq!(cap.batch, 4);
        assert!(l.take_capture().is_none(), "capture should be consumed");
    }

    #[test]
    fn no_capture_when_disabled() {
        let mut l = Linear::new(2, 2, false, 3);
        let x = Tensor4::zeros(1, 2, 1, 1);
        let _ = l.forward(&x, false);
        let _ = l.backward(&Tensor4::zeros(1, 2, 1, 1));
        assert!(l.take_capture().is_none());
    }

    #[test]
    fn preserves_input_shape_in_grad() {
        let mut l = Linear::new(8, 2, false, 4);
        let x = Tensor4::zeros(2, 2, 2, 2);
        let _ = l.forward(&x, false);
        let dx = l.backward(&Tensor4::zeros(2, 2, 1, 1));
        assert_eq!(dx.shape(), (2, 2, 2, 2));
    }

    #[test]
    fn kfac_dims_reported() {
        let l = Linear::new(5, 7, true, 5);
        assert_eq!(l.kfac_dims(), Some((5, 7)));
    }
}
