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
    /// Staging buffers for `∂L/∂W` / `∂L/∂b` before accumulation. Unlike
    /// `Dense`'s, `∂W` cannot be added straight into the gradient: it is
    /// summed over the lowering's image blocks first, and adding each
    /// block's sum on its own would round differently.
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

    /// Keeps what a backward after this forward reads: the input itself
    /// (the backward reads it where it lies, no column matrix is cached)
    /// after a training pass, nothing after an eval pass.
    fn keep_input(&mut self, x: &Tensor, train: bool) {
        if train {
            self.input.assign(x);
        }
        self.have_input = train;
    }

    /// Shared backward core: runs the conv backward with or without the
    /// input gradient — from `grad_out` itself, or routed back through a
    /// fused ReLU and max-pool `(pool, route)` — and accumulates `∂L/∂W`
    /// / `∂L/∂b`.
    fn backward_core(
        &mut self,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        pooled: Option<(&Conv2dSpec, &[u8])>,
    ) {
        assert!(self.have_input, "Conv2d::backward before forward");
        let (x, w, spec, ws) = (&self.input, &self.weight.value, &self.spec, &mut self.ws);
        let (gw, gb) = (&mut self.gw, &mut self.gb);
        match pooled {
            None => conv::conv2d_backward_into(grad_out, x, w, spec, ws, grad_in, gw, gb),
            Some((pool, route)) => conv::conv2d_relu_pool_backward_into(
                grad_out, route, x, w, spec, pool, ws, grad_in, gw, gb,
            ),
        }
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
        self.keep_input(x, train);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.backward_core(grad_out, Some(grad_in), None);
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // First-layer form: skips the `Wᵀ·G` GEMM and the col2im scatter;
        // parameter gradients are bitwise identical.
        self.backward_core(grad_out, None, None);
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

/// Convolution → ReLU → max-pool as one layer: the LeNet block.
///
/// It has the convolution's parameters, in the same state-vector order,
/// and its outputs and gradients are bit for bit those of
/// `Sequential[conv, Relu, MaxPool2d]` — but between passes it keeps only
/// the convolution's input and one byte per pooled output, the window's
/// route. The full-size convolution and ReLU outputs, their gradients and
/// the ReLU mask are never written (see
/// [`conv::conv2d_relu_pool_forward_into`]). The pool's windows must not
/// overlap: the stride is the window.
#[derive(Debug)]
pub struct ConvReluPool {
    conv: Conv2d,
    pool: Conv2dSpec,
    /// Routes of the latest training forward (persistent buffer).
    route: Vec<u8>,
}

impl ConvReluPool {
    /// Follows `conv` with a ReLU and a `pool × pool` max-pool at stride
    /// `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is zero or above 15.
    pub(crate) fn new(conv: Conv2d, pool: usize) -> Self {
        assert!(pool < 16, "a fused pool window is at most 15×15");
        ConvReluPool {
            conv,
            pool: Conv2dSpec::new(pool, pool, pool, 0),
            route: Vec::new(),
        }
    }

    /// The convolution's backward, from `grad_out` routed back through
    /// the ReLU and the pool.
    fn backward_core(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        assert!(
            self.conv.have_input,
            "ConvReluPool::backward before forward"
        );
        let pooled = Some((&self.pool, self.route.as_slice()));
        self.conv.backward_core(grad_out, grad_in, pooled);
    }
}

impl Layer for ConvReluPool {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let c = &mut self.conv;
        conv::conv2d_relu_pool_forward_into(
            x,
            &c.weight.value,
            &c.bias.value,
            &c.spec,
            &self.pool,
            &mut c.ws,
            out,
            train.then_some(&mut self.route),
        );
        c.keep_input(x, train);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.backward_core(grad_out, Some(grad_in));
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        self.backward_core(grad_out, None);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "conv_relu_pool"
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
        conv::maxpool2d_backward_into(grad_out, &self.idx, self.input_shape, &self.spec, grad_in);
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
    use crate::layer::Relu;
    use crate::sequential::Sequential;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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

    /// Operand values: five levels (so windows tie), signed zeros and,
    /// when `nan`, now and then a NaN.
    fn value(rng: &mut StdRng, nan: bool) -> f32 {
        match rng.gen_range(0..64) {
            0 if nan => f32::NAN,
            0..=5 => -0.0,
            k => (k % 5) as f32 * 0.5 - 1.0,
        }
    }

    /// Bit patterns of every parameter's gradient, in visiting order.
    fn grad_bits(layer: &dyn Layer) -> Vec<u32> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.extend(p.grad.as_slice().iter().map(|v| v.to_bits())));
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Which kinds of pooling window a case produced: ties for a maximum
    /// above zero, all below zero, all zero, holding NaN. (None holds
    /// −0.0: every convolution output is a sum seeded at +0.0 plus the
    /// bias, so it never is −0.0 — `conv.rs` pins the epilogue on such
    /// windows directly.)
    #[derive(Debug, Default, Clone, Copy)]
    struct Windows {
        ties: usize,
        negative: usize,
        zero: usize,
        nan: usize,
    }

    /// Runs [`ConvReluPool`] and `Sequential[Conv2d, Relu, MaxPool2d]`
    /// with the same parameters through an eval forward, a training
    /// forward and `backward_into`, then a second training forward and a
    /// `backward_params_only` accumulating into the same gradients, and
    /// demands equal bits at every step. Returns the windows the first
    /// input's convolution pooled.
    fn assert_fused_equals_unfused(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        (kernel, stride, padding, pool): (usize, usize, usize, usize),
        seed: u64,
    ) -> Windows {
        let what =
            format!("n={n} c={c} h={h} w={w} f={f} k={kernel}/{stride}/{padding} pool={pool}");
        let mut rng = StdRng::seed_from_u64(seed);
        let nan = rng.gen_bool(0.5);
        let conv = || Conv2d::new(c, f, kernel, stride, padding, &mut StdRng::seed_from_u64(0));
        let mut fused = ConvReluPool::new(conv(), pool);
        let mut unfused = Sequential::new()
            .push(conv())
            .push(Relu::new())
            .push(MaxPool2d::new(pool, pool));
        let params: Vec<f32> = (0..f * c * kernel * kernel + f)
            .map(|_| value(&mut rng, false))
            .collect();
        for layer in [&mut fused as &mut dyn Layer, &mut unfused] {
            let mut at = 0;
            layer.visit_params_mut(&mut |p| {
                let len = p.value.len();
                p.value
                    .as_mut_slice()
                    .copy_from_slice(&params[at..at + len]);
                at += len;
            });
        }
        let mut random = |shape: Vec<usize>, nan: bool| {
            let len = shape.iter().product();
            Tensor::from_vec(shape, (0..len).map(|_| value(&mut rng, nan)).collect())
        };
        let (x1, x2) = (random(vec![n, c, h, w], nan), random(vec![n, c, h, w], nan));

        let eval = forward(&mut fused, &x2, false);
        assert_eq!(
            bits(&eval),
            bits(&forward(&mut unfused, &x2, false)),
            "eval: {what}"
        );
        let y = forward(&mut fused, &x1, true);
        assert_eq!(
            bits(&y),
            bits(&forward(&mut unfused, &x1, true)),
            "train: {what}"
        );
        let g1 = random(y.shape().to_vec(), false);
        let gx = backward(&mut fused, &g1);
        assert_eq!(
            bits(&gx),
            bits(&backward(&mut unfused, &g1)),
            "∂input: {what}"
        );
        assert_eq!(grad_bits(&fused), grad_bits(&unfused), "∂W, ∂b: {what}");
        forward(&mut fused, &x2, true);
        forward(&mut unfused, &x2, true);
        let g2 = random(y.shape().to_vec(), false);
        fused.backward_params_only(&g2);
        unfused.backward_params_only(&g2);
        assert_eq!(
            grad_bits(&fused),
            grad_bits(&unfused),
            "accumulated ∂W, ∂b: {what}"
        );

        // The windows pooled: the convolution of x1 itself.
        let (mut out, mut ws) = (Tensor::zeros(vec![0]), ConvWorkspace::new());
        let cv = &fused.conv;
        conv::conv2d_forward_into(
            &x1,
            &cv.weight.value,
            &cv.bias.value,
            &cv.spec,
            &mut ws,
            &mut out,
        );
        let (_, _, oh, ow) = out.dims4();
        let mut seen = Windows::default();
        for plane in out.as_slice().chunks_exact(oh * ow) {
            for (py, px) in (0..oh / pool).flat_map(|py| (0..ow / pool).map(move |px| (py, px))) {
                let window: Vec<f32> = (0..pool * pool)
                    .map(|i| plane[(py * pool + i / pool) * ow + px * pool + i % pool])
                    .collect();
                let top = window.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                seen.ties +=
                    usize::from(top > 0.0 && window.iter().filter(|&&v| v == top).count() > 1);
                seen.negative += usize::from(window.iter().all(|&v| v < 0.0));
                seen.zero += usize::from(window.iter().all(|&v| v == 0.0));
                seen.nan += usize::from(window.iter().any(|v| v.is_nan()));
            }
        }
        seen
    }

    /// [`assert_fused_equals_unfused`] on one and on two threads.
    fn on_one_and_two_threads(
        dims: (usize, usize, usize, usize, usize),
        geometry: (usize, usize, usize, usize),
        seed: u64,
    ) -> Windows {
        let mut seen = Windows::default();
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            seen = pool.install(|| assert_fused_equals_unfused(dims, geometry, seed));
        }
        seen
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn fused_block_is_bitwise_equal_to_conv_relu_maxpool(
            (n, c, f) in (1usize..6, 1usize..4, 1usize..20),
            (h, w) in (3usize..8, 3usize..8),
            (kernel, stride, padding, pool) in (1usize..4, 1usize..3, 0usize..2, 1usize..4),
            seed in 0u64..1_000_000,
        ) {
            // Odd sides: the pool's floor drops a last row and column.
            let dims = (n, c, 2 * h + 1, 2 * w + 1, f);
            on_one_and_two_threads(dims, (kernel, stride, padding, pool), seed);
        }
    }

    #[test]
    fn fused_block_is_bitwise_equal_to_conv_relu_maxpool_at_lenet_shapes() {
        // Both LeNet-5 blocks (in-place convolutions), a CIFAR conv2
        // (lowered: 10×10 outputs are not whole strips) and small lowered
        // blocks; every kind of window turns up.
        let mut total = Windows::default();
        for (seed, (dims, kernel)) in [
            ((25, 1, 28, 28, 6), 5),
            ((25, 6, 12, 12, 16), 5),
            ((7, 6, 14, 14, 16), 5),
            ((3, 1, 9, 7, 2), 1),
            ((4, 2, 11, 9, 3), 3),
        ]
        .into_iter()
        .enumerate()
        {
            for round in 0..4 {
                let seen =
                    on_one_and_two_threads(dims, (kernel, 1, 0, 2), 100 * seed as u64 + round);
                total.ties += seen.ties;
                total.negative += seen.negative;
                total.zero += seen.zero;
                total.nan += seen.nan;
            }
        }
        let Windows {
            ties,
            negative,
            zero,
            nan,
        } = total;
        assert!(ties > 0 && negative > 0 && zero > 0 && nan > 0, "{total:?}");
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
