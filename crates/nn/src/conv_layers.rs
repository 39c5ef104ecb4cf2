//! Convolutional and pooling layers wrapping the `goldfish-tensor` kernels.

use goldfish_tensor::{
    conv::{self, Conv2dSpec, ConvWorkspace},
    init, Tensor,
};
use rand::Rng;

use crate::layer::{Layer, Param};

/// 2-D convolution layer.
///
/// Holds a [`ConvWorkspace`] so the convolution kernels reuse their
/// scratch buffers across steps: zero per-image allocations, and at
/// shapes whose forward runs in place (LeNet-5's) no layer grows the
/// column matrix, nor an eval-only one the staging matrix. The cached
/// input and the gradient staging buffers are persistent too, so a
/// training step via the `_into` plumbing allocates nothing after
/// warm-up.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    spec: Conv2dSpec,
    ws: ConvWorkspace,
    /// Cached input of the latest forward pass (persistent buffer;
    /// unready until the first forward).
    input: Tensor,
    have_input: bool,
    /// Staging buffers for `∂L/∂W` / `∂L/∂b` before accumulation.
    gw: Tensor,
    gb: Tensor,
}

impl Conv2d {
    /// Creates a convolution with `out_channels` filters of
    /// `in_channels × kernel × kernel`, Kaiming-uniform initialised.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the stride is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "empty conv layer");
        let spec = Conv2dSpec::new(kernel, kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_uniform(rng, vec![out_channels, in_channels, kernel, kernel], fan_in);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(vec![out_channels])),
            spec,
            ws: ConvWorkspace::new(),
            input: Tensor::zeros(vec![0]),
            have_input: false,
            gw: Tensor::zeros(vec![0]),
            gb: Tensor::zeros(vec![0]),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Shared backward core: runs the conv backward with or without the
    /// input gradient and accumulates `∂L/∂W` / `∂L/∂b`.
    fn backward_core(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        assert!(self.have_input, "Conv2d::backward before forward");
        conv::conv2d_backward_into(
            grad_out,
            &self.input,
            &self.weight.value,
            &self.spec,
            &mut self.ws,
            grad_in,
            &mut self.gw,
            &mut self.gb,
        );
        self.weight.grad.axpy(1.0, &self.gw);
        self.bias.grad.axpy(1.0, &self.gb);
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        conv::conv2d_forward_into(
            x,
            &self.weight.value,
            &self.bias.value,
            &self.spec,
            &mut self.ws,
            out,
        );
        // Backward reads the input where it lies (no column matrix is
        // cached), so a training pass keeps the input itself; an eval
        // pass keeps nothing.
        if train {
            self.input.assign(x);
        }
        self.have_input = train;
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.backward_core(grad_out, Some(grad_in));
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // First-layer form: skips the `Wᵀ·G` GEMM and the col2im scatter;
        // parameter gradients are bitwise identical.
        self.backward_core(grad_out, None);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Max-pooling layer.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: Conv2dSpec,
    /// Argmax routing of the latest forward pass (persistent buffer;
    /// unready until the first forward) and the input geometry.
    idx: Vec<usize>,
    input_shape: (usize, usize, usize, usize),
    ready: bool,
}

impl MaxPool2d {
    /// Creates a `kernel × kernel` max-pool with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: Conv2dSpec::new(kernel, kernel, stride, 0),
            idx: Vec::new(),
            input_shape: (0, 0, 0, 0),
            ready: false,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        self.input_shape = x.dims4();
        if train {
            conv::maxpool2d_forward_into(x, &self.spec, out, &mut self.idx);
        } else {
            // Same pooled values without the argmax routing.
            conv::maxpool2d_forward_eval_into(x, &self.spec, out);
        }
        self.ready = train;
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(self.ready, "MaxPool2d::backward before forward");
        conv::maxpool2d_backward_into(grad_out, &self.idx, self.input_shape, grad_in);
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Global average pooling `[n, c, h, w] → [n, c]` — the classification head
/// reduction used by the ResNet-style models.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<(usize, usize, usize, usize)>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward_into(&mut self, x: &Tensor, _train: bool, out: &mut Tensor) {
        self.input_shape = Some(x.dims4());
        conv::global_avg_pool_into(x, out);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        let shape = self
            .input_shape
            .expect("GlobalAvgPool::backward before forward");
        conv::global_avg_pool_backward_into(grad_out, shape, grad_in);
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn conv_layer_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 6, 5, 1, 0, &mut rng);
        let x = Tensor::zeros(vec![2, 1, 28, 28]);
        let y = forward(&mut conv, &x, true);
        assert_eq!(y.shape(), &[2, 6, 24, 24]);
        let gx = backward(&mut conv, &Tensor::zeros(vec![2, 6, 24, 24]));
        assert_eq!(gx.shape(), &[2, 1, 28, 28]);
    }

    #[test]
    fn conv_gradient_check_small() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = goldfish_tensor::init::normal(&mut rng, vec![1, 1, 4, 4], 0.0, 1.0);
        let y = forward(&mut conv, &x, true);
        backward(&mut conv, &Tensor::filled(y.shape().to_vec(), 1.0));
        let analytic = conv.weight.grad.clone();

        let eps = 1e-2;
        let w = conv.weight.value.clone();
        for wi in [0usize, 7, w.len() - 1] {
            let mut cp = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
            cp.weight.value = w.clone();
            cp.bias.value = conv.bias.value.clone();
            cp.weight.value.as_mut_slice()[wi] += eps;
            let yp = forward(&mut cp, &x, true).sum();
            cp.weight.value.as_mut_slice()[wi] -= 2.0 * eps;
            let ym = forward(&mut cp, &x, true).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic.as_slice()[wi]).abs() < 2e-2,
                "w[{wi}]: fd {fd} vs {}",
                analytic.as_slice()[wi]
            );
        }
    }

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut mp = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]);
        let y = forward(&mut mp, &x, true);
        assert_eq!(y.as_slice(), &[5.0]);
        let gx = backward(&mut mp, &Tensor::filled(vec![1, 1, 1, 1], 7.0));
        assert_eq!(gx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn gap_layer() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = forward(&mut gap, &x, true);
        assert_eq!(y.as_slice(), &[2.5]);
        let gx = backward(&mut gap, &Tensor::filled(vec![1, 1], 4.0));
        assert_eq!(gx.as_slice(), &[1., 1., 1., 1.]);
    }
}
