//! Layer container driving forward/backward passes and K-FAC capture.

use crate::layer::{KfacCapture, Layer, Param};
use crate::tensor4::Tensor4;

/// A feed-forward stack of layers.
///
/// The container also surfaces everything the K-FAC optimizers need:
/// which layers are preconditionable, their factor dimensions, and the
/// captured statistics of the current step (in layer order).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "]")
    }
}

impl Sequential {
    /// Builds a model from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers (of all kinds).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through all layers.
    ///
    /// With `capture` set, preconditionable layers record K-FAC statistics
    /// for the matching [`Sequential::backward`] call.
    pub fn forward(&mut self, x: &Tensor4, capture: bool) -> Tensor4 {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, capture);
        }
        cur
    }

    /// Backward pass; returns the gradient w.r.t. the model input.
    pub fn backward(&mut self, grad: &Tensor4) -> Tensor4 {
        let mut cur = grad.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        cur
    }

    /// Immutable parameter views in layer order.
    pub fn parameters(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable parameter views in layer order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }

    /// Indices of preconditionable layers (those with Kronecker factors),
    /// front to back.
    pub fn preconditionable(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kfac_dims().is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// `(a_dim, g_dim)` for every preconditionable layer, front to back.
    pub fn kfac_dims(&self) -> Vec<(usize, usize)> {
        self.layers.iter().filter_map(|l| l.kfac_dims()).collect()
    }

    /// Takes the K-FAC captures of the current step, as
    /// `(layer_index, capture)` pairs in layer order.
    pub fn take_captures(&mut self) -> Vec<(usize, KfacCapture)> {
        self.layers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.take_capture().map(|c| (i, c)))
            .collect()
    }

    /// Borrow the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutably borrow the layer stack.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Copies all parameter values from `other` (shapes must match).
    ///
    /// # Panics
    ///
    /// Panics on layer/parameter shape mismatch.
    pub fn copy_params_from(&mut self, other: &Sequential) {
        let src = other.parameters();
        let mut dst = self.parameters_mut();
        assert_eq!(
            src.len(),
            dst.len(),
            "copy_params_from: param count mismatch"
        );
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            assert_eq!(d.value.shape(), s.value.shape(), "param shape mismatch");
            d.value = s.value.clone();
        }
    }

    /// Flattens all parameter values into one vector (layer order).
    pub fn flat_params(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.num_params());
        (self.parameters().iter()).for_each(|p| flat.extend_from_slice(p.value.as_slice()));
        flat
    }

    /// Overwrites all parameter values from a [`Sequential::flat_params`]
    /// vector (layer order) — the restore half of a checkpoint round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Sequential::num_params`].
    pub fn set_flat_params(&mut self, flat: &[f64]) {
        let mut off = 0;
        for p in self.parameters_mut() {
            let n = p.numel();
            assert!(
                off + n <= flat.len(),
                "set_flat_params: vector too short ({} < {})",
                flat.len(),
                off + n
            );
            p.value.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        assert_eq!(off, flat.len(), "set_flat_params: vector too long");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, ReLU};

    fn tiny_net() -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(4, 8, true, 1)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(8, 3, true, 2)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net();
        let x = Tensor4::zeros(5, 4, 1, 1);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (5, 3, 1, 1));
        let dx = net.backward(&Tensor4::zeros(5, 3, 1, 1));
        assert_eq!(dx.shape(), (5, 4, 1, 1));
    }

    #[test]
    fn parameter_accounting() {
        let net = tiny_net();
        // (4·8 + 8) + (8·3 + 3) = 40 + 27.
        assert_eq!(net.num_params(), 67);
        assert_eq!(net.parameters().len(), 4);
    }

    #[test]
    fn preconditionable_skips_activations() {
        let net = tiny_net();
        assert_eq!(net.preconditionable(), vec![0, 2]);
        assert_eq!(net.kfac_dims(), vec![(4, 8), (8, 3)]);
    }

    #[test]
    fn captures_appear_in_layer_order() {
        let mut net = tiny_net();
        let x = Tensor4::zeros(2, 4, 1, 1);
        let y = net.forward(&x, true);
        let _ = net.backward(&Tensor4::zeros(2, y.c(), 1, 1));
        let caps = net.take_captures();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].0, 0);
        assert_eq!(caps[1].0, 2);
        assert_eq!(caps[0].1.dims(), (4, 8));
        // Second take yields nothing.
        assert!(net.take_captures().is_empty());
    }

    #[test]
    fn copy_params_from_clones_values() {
        let mut a = tiny_net();
        let b = Sequential::new(vec![
            Box::new(Linear::new(4, 8, true, 9)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(8, 3, true, 10)),
        ]);
        assert_ne!(a.flat_params(), b.flat_params());
        a.copy_params_from(&b);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn debug_lists_layers() {
        let net = Sequential::new(vec![Box::new(Flatten::new())]);
        assert!(format!("{net:?}").contains("flatten"));
    }
}
