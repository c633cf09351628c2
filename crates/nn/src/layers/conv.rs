//! 2-D convolution via im2col with K-FAC capture.

use crate::im2col::{col2im, im2col, ConvGeom};
use crate::layer::{KfacCapture, Layer, Param};
use crate::tensor4::Tensor4;
use spdkfac_tensor::rng::MatrixRng;
use spdkfac_tensor::Matrix;

/// A square-kernel 2-D convolution.
///
/// The weight is stored as a `C_out × (C_in·k²)` matrix (the im2col lowering
/// of the kernel), which makes the Kronecker-factor dimensions explicit:
/// `d_A = C_in·k²`, `d_G = C_out` — the exact dims `spdkfac-models` uses for
/// the four paper CNNs.
///
/// # Example
///
/// ```
/// use spdkfac_nn::layers::Conv2d;
/// use spdkfac_nn::{Layer, Tensor4};
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, true, 42);
/// let x = Tensor4::zeros(2, 3, 8, 8);
/// let y = conv.forward(&x, false);
/// assert_eq!(y.shape(), (2, 8, 8, 8));
/// ```
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    c_in: usize,
    c_out: usize,
    geom: ConvGeom,
    weight: Param,
    bias: Option<Param>,
    cached_patches: Option<Matrix>,
    cached_in_shape: Option<(usize, usize, usize, usize)>,
    cached_out_hw: Option<(usize, usize)>,
    capture_armed: bool,
    pending_a: Option<Matrix>,
    pending_g: Option<(Matrix, usize)>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-style initialisation.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        seed: u64,
    ) -> Self {
        let mut rng = MatrixRng::new(seed);
        let fan_in = c_in * kernel * kernel;
        let std = (2.0 / fan_in as f64).sqrt();
        let w = Matrix::from_vec(c_out, fan_in, rng.gaussian_vec(c_out * fan_in, std));
        Conv2d {
            name: format!("conv_{c_in}x{c_out}k{kernel}s{stride}"),
            c_in,
            c_out,
            geom: ConvGeom {
                kernel,
                stride,
                pad,
            },
            weight: Param::new(w),
            bias: bias.then(|| Param::new(Matrix::zeros(c_out, 1))),
            cached_patches: None,
            cached_in_shape: None,
            cached_out_hw: None,
            capture_armed: false,
            pending_a: None,
            pending_g: None,
        }
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor4, capture: bool) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        assert_eq!(
            c, self.c_in,
            "{}: expected {} channels, got {c}",
            self.name, self.c_in
        );
        let oh = self.geom.out_size(h);
        let ow = self.geom.out_size(w);
        let patches = im2col(x, self.geom); // (N·T) × (C_in·k²)
        let out_mat = patches.matmul_nt(&self.weight.value); // (N·T) × C_out
        let mut out = Tensor4::zeros(n, self.c_out, oh, ow);
        for s in 0..n {
            for yo in 0..oh {
                for xo in 0..ow {
                    let row = out_mat.row((s * oh + yo) * ow + xo);
                    for (co, &rv) in row.iter().enumerate() {
                        let mut v = rv;
                        if let Some(b) = &self.bias {
                            v += b.value[(co, 0)];
                        }
                        *out.at_mut(s, co, yo, xo) = v;
                    }
                }
            }
        }
        self.capture_armed = capture;
        if capture {
            self.pending_a = Some(patches.clone());
        } else {
            self.pending_a = None;
        }
        self.cached_in_shape = Some((n, c, h, w));
        self.cached_out_hw = Some((oh, ow));
        self.cached_patches = Some(patches);
        out
    }

    fn backward(&mut self, grad_out: &Tensor4) -> Tensor4 {
        let patches = self
            .cached_patches
            .take()
            .expect("Conv2d::backward called before forward");
        let (n, c, h, w) = self.cached_in_shape.take().expect("missing input shape");
        let (oh, ow) = self.cached_out_hw.take().expect("missing output size");
        assert_eq!(
            grad_out.shape(),
            (n, self.c_out, oh, ow),
            "{}: bad grad_out shape",
            self.name
        );
        // Rearrange grad_out to (N·T) × C_out rows matching patch rows.
        let mut g = Matrix::zeros(n * oh * ow, self.c_out);
        for s in 0..n {
            for yo in 0..oh {
                for xo in 0..ow {
                    let r = (s * oh + yo) * ow + xo;
                    let row = g.row_mut(r);
                    for (co, v) in row.iter_mut().enumerate() {
                        *v = grad_out.at(s, co, yo, xo);
                    }
                }
            }
        }
        // dW = gᵀ · patches.
        g.matmul_tn_into(&patches, &mut self.weight.grad);
        if let Some(b) = &mut self.bias {
            let db = &mut b.grad;
            db.as_mut_slice().fill(0.0);
            for r in 0..g.rows() {
                for co in 0..self.c_out {
                    db[(co, 0)] += g[(r, co)];
                }
            }
        }
        if self.capture_armed {
            self.pending_g = Some((g.clone(), n));
            self.capture_armed = false;
        }
        // dx = col2im(g · W).
        let dpatches = g.matmul(&self.weight.value);
        col2im(&dpatches, n, c, h, w, self.geom)
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
        Some((self.c_in * self.geom.kernel * self.geom.kernel, self.c_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1×1 convolution is a per-pixel linear map — easy to verify by hand.
    #[test]
    fn one_by_one_conv_is_pixelwise_linear() {
        let mut conv = Conv2d::new(2, 1, 1, 1, 0, false, 1);
        conv.weight.value = Matrix::from_rows(&[&[2.0, 3.0]]);
        let x = Tensor4::from_vec(1, 2, 1, 2, vec![1.0, 2.0, 10.0, 20.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), (1, 1, 1, 2));
        assert_eq!(y.as_slice(), &[32.0, 64.0]); // 2*1+3*10, 2*2+3*20
    }

    #[test]
    fn identity_3x3_kernel_reproduces_input() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, 1);
        let mut w = Matrix::zeros(1, 9);
        w[(0, 4)] = 1.0; // centre tap
        conv.weight.value = w;
        let x = Tensor4::from_vec(1, 1, 3, 3, (1..=9).map(f64::from).collect());
        let y = conv.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn stride_reduces_spatial_size() {
        let mut conv = Conv2d::new(1, 4, 3, 2, 1, true, 2);
        let x = Tensor4::zeros(2, 1, 8, 8);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), (2, 4, 4, 4));
    }

    #[test]
    fn backward_shapes_and_capture() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, 3);
        let x = Tensor4::zeros(2, 2, 4, 4);
        let y = conv.forward(&x, true);
        let dx = conv.backward(&Tensor4::zeros(y.n(), y.c(), y.h(), y.w()));
        assert_eq!(dx.shape(), (2, 2, 4, 4));
        let cap = conv.take_capture().unwrap();
        assert_eq!(cap.a_rows.shape(), (2 * 16, 18)); // N·T × C_in·k²
        assert_eq!(cap.g_rows.shape(), (2 * 16, 3));
        assert_eq!(cap.batch, 2);
    }

    #[test]
    fn bias_gradient_sums_over_positions() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, true, 4);
        let x = Tensor4::zeros(1, 1, 2, 2);
        let _ = conv.forward(&x, false);
        let g = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let _ = conv.backward(&g);
        assert_eq!(conv.bias.as_ref().unwrap().grad[(0, 0)], 10.0);
    }

    #[test]
    fn kfac_dims_match_grosse_martens() {
        let conv = Conv2d::new(64, 128, 3, 1, 1, false, 5);
        assert_eq!(conv.kfac_dims(), Some((64 * 9, 128)));
    }
}
