//! Fully-connected layer.

use goldfish_tensor::{engine, init, Tensor};
use rand::Rng;

use crate::layer::{Layer, Param};

/// A fully-connected (affine) layer: `y = x · Wᵀ + b`.
///
/// Weight shape is `[out, in]`, bias `[out]`. Kaiming-uniform initialised,
/// which suits the ReLU networks of the paper's model zoo.
///
/// All per-step scratch (the cached input, the bias-gradient staging
/// buffer) lives in persistent buffers, so a training step via the
/// `_into` plumbing performs no heap allocation after warm-up. `∂W` is
/// never staged: the GEMM adds each finished element straight into the
/// weight gradient ([`engine::gemm_at_b_add`]).
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    /// Cached `[n, in]` input of the latest forward pass (persistent
    /// buffer; unready until the first forward).
    input: Tensor,
    have_input: bool,
    /// Staging buffer for the bias-gradient column sums.
    gb: Tensor,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform weights over `rng`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0, "empty dense layer");
        let weight = init::kaiming_uniform(rng, vec![out_features, in_features], in_features);
        let bias = Tensor::zeros(vec![out_features]);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(bias),
            input: Tensor::zeros(vec![0]),
            have_input: false,
            gb: Tensor::zeros(vec![0]),
        }
    }

    /// Input feature count.
    pub(crate) fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output feature count.
    pub(crate) fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }
}

impl Dense {
    /// Accumulates `∂L/∂W` and `∂L/∂b` from `grad_out` and the cached
    /// input — the part of the backward pass shared by both backward
    /// forms. Returns the batch size.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass cached an input.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> usize {
        assert!(self.have_input, "Dense::backward before forward");
        let (n, d) = self.input.dims2();
        let (gn, o) = grad_out.dims2();
        assert_eq!(gn, n, "dense grad batch {gn} != input batch {n}");
        // ∂L/∂W = gᵀ · x (same accumulation order as ops::matmul_at_b),
        // each finished element added to the gradient once — the bits of
        // staging it and adding the staged matrix.
        engine::gemm_at_b_add(
            n,
            o,
            d,
            grad_out.as_slice(),
            self.input.as_slice(),
            self.weight.grad.as_mut_slice(),
        );
        // ∂L/∂b = column sums of g (same order as ops::sum_rows).
        self.gb.resize(&[o]);
        self.gb.zero_mut();
        let gbv = self.gb.as_mut_slice();
        let gv = grad_out.as_slice();
        for r in 0..n {
            for (acc, &v) in gbv.iter_mut().zip(gv[r * o..(r + 1) * o].iter()) {
                *acc += v;
            }
        }
        self.bias.grad.axpy(1.0, &self.gb);
        n
    }
}

impl Layer for Dense {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let (n, d) = x.dims2();
        assert_eq!(
            d,
            self.in_features(),
            "dense expected {} features, got {d}",
            self.in_features()
        );
        // A training pass caches the input as its [n, d] matrix view for
        // the backward pass; an eval pass keeps nothing, so a backward
        // after it has no input to use.
        if train {
            self.input.resize(&[n, d]);
            self.input.as_mut_slice().copy_from_slice(x.as_slice());
        }
        self.have_input = train;
        // y = x · Wᵀ, then add the bias row-wise.
        let o = self.out_features();
        out.resize(&[n, o]);
        engine::gemm_a_bt(
            n,
            d,
            o,
            x.as_slice(),
            self.weight.value.as_slice(),
            out.as_mut_slice(),
        );
        let bv = self.bias.value.as_slice();
        for row in out.as_mut_slice().chunks_exact_mut(o) {
            for (y, &b) in row.iter_mut().zip(bv.iter()) {
                *y += b;
            }
        }
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        let n = self.accumulate_param_grads(grad_out);
        // ∂L/∂x = g · W (same accumulation order as ops::matmul).
        let (o, d) = (self.out_features(), self.in_features());
        grad_in.resize(&[n, d]);
        engine::gemm(
            n,
            o,
            d,
            grad_out.as_slice(),
            self.weight.value.as_slice(),
            grad_in.as_mut_slice(),
        );
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // First-layer form: the `g · W` input-gradient GEMM is skipped
        // entirely; parameter gradients are bitwise identical.
        let _ = self.accumulate_param_grads(grad_out);
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
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::zeros(vec![5, 4]);
        assert_eq!(forward(&mut d, &x, true).shape(), &[5, 3]);
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite params with known values.
        d.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        d.bias.value = Tensor::from_vec(vec![2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let y = forward(&mut d, &x, true);
        // y0 = 1*1 + 1*2 + 0.5 = 3.5 ; y1 = 1*3 + 1*4 - 0.5 = 6.5
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![2, 3], vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
        let y = forward(&mut d, &x, true);
        let gout = Tensor::filled(y.shape().to_vec(), 1.0);
        let gx = backward(&mut d, &gout);

        let eps = 1e-3;
        // finite differences on weights
        let w0 = d.weight.value.clone();
        for wi in 0..w0.len() {
            let mut dp = Dense::new(3, 2, &mut rng);
            dp.weight.value = w0.clone();
            dp.bias.value = d.bias.value.clone();
            dp.weight.value.as_mut_slice()[wi] += eps;
            let yp = forward(&mut dp, &x, true).sum();
            let mut dm = Dense::new(3, 2, &mut rng);
            dm.weight.value = w0.clone();
            dm.bias.value = d.bias.value.clone();
            dm.weight.value.as_mut_slice()[wi] -= eps;
            let ym = forward(&mut dm, &x, true).sum();
            let fd = (yp - ym) / (2.0 * eps);
            let an = d.weight.grad.as_slice()[wi];
            assert!((fd - an).abs() < 1e-2, "w[{wi}] fd {fd} an {an}");
        }
        // finite differences on input
        for ii in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[ii] += eps;
            let mut dd = Dense::new(3, 2, &mut rng);
            dd.weight.value = w0.clone();
            dd.bias.value = d.bias.value.clone();
            let yp = forward(&mut dd, &xp, true).sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[ii] -= eps;
            let ym = forward(&mut dd, &xm, true).sum();
            let fd = (yp - ym) / (2.0 * eps);
            let an = gx.as_slice()[ii];
            assert!((fd - an).abs() < 1e-2, "x[{ii}] fd {fd} an {an}");
        }
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::filled(vec![1, 2], 1.0);
        let y = forward(&mut d, &x, true);
        let g = Tensor::filled(y.shape().to_vec(), 1.0);
        backward(&mut d, &g);
        let after_one = d.weight.grad.clone();
        forward(&mut d, &x, true);
        backward(&mut d, &g);
        let after_two = d.weight.grad.clone();
        for (a, b) in after_one.as_slice().iter().zip(after_two.as_slice()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "dense expected")]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(4, 3, &mut rng);
        let _ = forward(&mut d, &Tensor::zeros(vec![5, 7]), true);
    }
}
