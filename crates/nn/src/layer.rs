//! The [`Layer`] trait, the [`Param`] carrier, and stateless layers.

use goldfish_tensor::Tensor;

/// A trainable (or tracked) parameter: its value and the gradient
/// accumulated by the latest backward pass.
///
/// `trainable == false` marks state that follows the model around but is not
/// updated by gradient descent — BatchNorm running statistics. Such state
/// *is* part of the flattened state vector (it must travel with the model in
/// federated aggregation and shard arithmetic) but the optimizer skips it.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. `value`, accumulated by `backward`.
    pub grad: Tensor,
    /// Whether the optimizer should update this parameter.
    pub trainable: bool,
}

impl Param {
    /// Creates a trainable parameter with a zeroed gradient buffer.
    pub(crate) fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Param {
            value,
            grad,
            trainable: true,
        }
    }

    /// Creates a non-trainable (tracked-state) parameter.
    pub(crate) fn frozen(value: Tensor) -> Self {
        let mut p = Param::new(value);
        p.trainable = false;
        p
    }

    /// Resets the gradient to zero.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.zero_mut();
    }
}

/// A neural-network layer with explicit forward and backward passes.
///
/// Layers cache whatever the backward pass needs during a training-mode
/// forward; an eval-mode (`train == false`) forward caches nothing and
/// leaves the layer as if it had never run forward. Calling
/// [`Layer::backward_into`] without a preceding training forward is a
/// programmer error and panics.
/// The trait is dyn-compatible so models are plain `Vec<Box<dyn Layer>>`.
///
/// # The allocation-free runtime
///
/// Every pass has one form, writing into a caller-owned buffer that is
/// [`Tensor::resize`]d in place, and parameters are reached through
/// visitors rather than materialised `Vec`s of references. Training
/// loops drive these passes through per-layer arenas (see
/// [`crate::Sequential`]) and perform zero per-step heap allocations
/// after warm-up on the dense path (DESIGN.md §8).
pub trait Layer: Send {
    /// Computes the layer output into `out` (resized in place, previous
    /// contents discarded). `train` selects training behaviour (e.g.
    /// batch statistics in [`crate::BatchNorm2d`]).
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor);

    /// Backpropagates `grad_out` (∂L/∂output), accumulating parameter
    /// gradients and writing ∂L/∂input into `grad_in` (resized in place,
    /// previous contents discarded).
    ///
    /// # Panics
    ///
    /// Panics if called before a training forward cached the needed state.
    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor);

    /// Accumulates parameter gradients **without producing ∂L/∂input**.
    ///
    /// A network's first layer receives the data batch as input; its
    /// input gradient is computed by a full backward pass and then thrown
    /// away. Training loops call this instead, which for `Dense`/`Conv2d`
    /// skips an entire GEMM (and the conv `col2im` scatter) with bitwise
    /// identical parameter gradients. The default computes the input
    /// gradient into a scratch tensor and discards it.
    ///
    /// # Panics
    ///
    /// Panics if called before a training forward cached the needed state.
    fn backward_params_only(&mut self, grad_out: &Tensor) {
        self.backward_into(grad_out, &mut Tensor::zeros(vec![0]));
    }

    /// Visits every parameter mutably, in state-vector order — the
    /// per-step form used by gradient zeroing and the fused optimizer.
    /// The default visits nothing (a parameter-free layer).
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every parameter immutably, in the order of
    /// [`Layer::visit_params_mut`] — the form state snapshots use every
    /// round. The default visits nothing (a parameter-free layer).
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    /// Activation mask of the latest forward pass (persistent buffer;
    /// empty-and-unready until the first forward).
    mask: Vec<bool>,
    ready: bool,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let xv = x.as_slice();
        // Only a training pass records the mask its backward needs.
        self.mask.clear();
        if train {
            self.mask.extend(xv.iter().map(|&v| v > 0.0));
        }
        self.ready = train;
        out.resize(x.shape());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(xv) {
            *o = goldfish_tensor::ops::relu(v);
        }
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(self.ready, "Relu::backward before forward");
        assert_eq!(self.mask.len(), grad_out.len(), "relu grad shape changed");
        grad_in.resize(grad_out.shape());
        for ((o, &g), &m) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(self.mask.iter())
        {
            *o = if m { g } else { 0.0 };
        }
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Flattens `[n, …]` to `[n, prod(…)]`, remembering the input shape for the
/// backward pass.
#[derive(Debug, Default)]
pub struct Flatten {
    /// Input shape of the latest forward pass (persistent buffer; empty
    /// and unready until the first forward).
    input_shape: Vec<usize>,
    ready: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub(crate) fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward_into(&mut self, x: &Tensor, _train: bool, out: &mut Tensor) {
        self.input_shape.clear();
        self.input_shape.extend_from_slice(x.shape());
        self.ready = true;
        let (n, d) = x.dims2();
        out.resize(&[n, d]);
        out.as_mut_slice().copy_from_slice(x.as_slice());
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(self.ready, "Flatten::backward before forward");
        grad_in.resize(&self.input_shape);
        grad_in.as_mut_slice().copy_from_slice(grad_out.as_slice());
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Test helpers: each pass into a fresh tensor, and parameter clones.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Layer, Param};
    use goldfish_tensor::Tensor;

    /// [`Layer::forward_into`] into a fresh tensor.
    pub(crate) fn forward(layer: &mut dyn Layer, x: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        layer.forward_into(x, train, &mut out);
        out
    }

    /// [`Layer::backward_into`] into a fresh tensor.
    pub(crate) fn backward(layer: &mut dyn Layer, grad_out: &Tensor) -> Tensor {
        let mut grad_in = Tensor::zeros(vec![0]);
        layer.backward_into(grad_out, &mut grad_in);
        grad_in
    }

    /// Clones of the layer's parameters, in visiting order.
    pub(crate) fn params(layer: &dyn Layer) -> Vec<Param> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.push(p.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{backward, forward};
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = forward(&mut relu, &x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_maps_negative_zero_and_nan_to_positive_zero() {
        // Long enough for a vectorised body and a scalar tail.
        let mut relu = Relu::new();
        let x: Vec<f32> = (0..37).map(|i| [-0.0, f32::NAN, 0.0][i % 3]).collect();
        let y = forward(&mut relu, &Tensor::from_vec(vec![37], x), true);
        assert!(y.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.5, 2.0, -3.0]);
        forward(&mut relu, &x, true);
        let g = Tensor::from_vec(vec![4], vec![10.0, 20.0, 30.0, 40.0]);
        let gx = backward(&mut relu, &g);
        assert_eq!(gx.as_slice(), &[0.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        let _ = backward(&mut relu, &Tensor::zeros(vec![1]));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 4]);
        let y = forward(&mut fl, &x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = backward(&mut fl, &Tensor::zeros(vec![2, 48]));
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::filled(vec![3], 1.0));
        p.grad.as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn frozen_param_is_not_trainable() {
        let p = Param::frozen(Tensor::zeros(vec![2]));
        assert!(!p.trainable);
    }
}
