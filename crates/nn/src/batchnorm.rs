#![allow(clippy::needless_range_loop)]

//! 2-D batch normalisation.

use goldfish_tensor::Tensor;

use crate::layer::{Layer, Param};

const BN_EPS: f32 = 1e-5;

/// Batch normalisation over the channel dimension of `[n, c, h, w]`.
///
/// Parameters are `γ` (scale) and `β` (shift); running mean/variance are
/// tracked as **frozen** [`Param`]s so they travel with the model through
/// federated aggregation and shard arithmetic but are not touched by SGD.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    momentum: f32,
    /// Persistent backward cache, valid when `ready` is set: normalised
    /// activations, per-channel statistics and the forward geometry.
    x_hat: Tensor,
    inv_std: Vec<f32>,
    means: Vec<f32>,
    vars: Vec<f32>,
    shape: (usize, usize, usize, usize),
    train_mode: bool,
    ready: bool,
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer for `channels` channels with the standard
    /// momentum of 0.1.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "batchnorm needs at least one channel");
        BatchNorm2d {
            gamma: Param::new(Tensor::filled(vec![channels], 1.0)),
            beta: Param::new(Tensor::zeros(vec![channels])),
            running_mean: Param::frozen(Tensor::zeros(vec![channels])),
            running_var: Param::frozen(Tensor::filled(vec![channels], 1.0)),
            momentum: 0.1,
            x_hat: Tensor::zeros(vec![0]),
            inv_std: Vec::new(),
            means: Vec::new(),
            vars: Vec::new(),
            shape: (0, 0, 0, 0),
            train_mode: false,
            ready: false,
        }
    }

    /// Number of channels this layer normalises.
    pub(crate) fn channels(&self) -> usize {
        self.gamma.value.len()
    }
}

impl Layer for BatchNorm2d {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let (n, c, h, w) = x.dims4();
        assert_eq!(c, self.channels(), "batchnorm channel mismatch");
        let m = (n * h * w) as f32;
        let xv = x.as_slice();

        self.means.clear();
        self.vars.clear();
        if train {
            self.means.resize(c, 0.0);
            self.vars.resize(c, 0.0);
            for ch in 0..c {
                let mut sum = 0.0f32;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    sum += xv[base..base + h * w].iter().sum::<f32>();
                }
                self.means[ch] = sum / m;
            }
            for ch in 0..c {
                let mu = self.means[ch];
                let mut acc = 0.0f32;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    acc += xv[base..base + h * w]
                        .iter()
                        .map(|&v| (v - mu) * (v - mu))
                        .sum::<f32>();
                }
                self.vars[ch] = acc / m;
            }
            // Update running statistics.
            for ch in 0..c {
                let rm = &mut self.running_mean.value.as_mut_slice()[ch];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * self.means[ch];
                let rv = &mut self.running_var.value.as_mut_slice()[ch];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * self.vars[ch];
            }
        } else {
            self.means
                .extend_from_slice(self.running_mean.value.as_slice());
            self.vars
                .extend_from_slice(self.running_var.value.as_slice());
        }

        self.inv_std.clear();
        self.inv_std
            .extend(self.vars.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()));
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        self.x_hat.resize(x.shape());
        out.resize(x.shape());
        let xh = self.x_hat.as_mut_slice();
        let ov = out.as_mut_slice();
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                let mu = self.means[ch];
                let is = self.inv_std[ch];
                for i in base..base + h * w {
                    let v = (xv[i] - mu) * is;
                    xh[i] = v;
                    ov[i] = gv[ch] * v + bv[ch];
                }
            }
        }
        self.shape = (n, c, h, w);
        self.train_mode = train;
        self.ready = true;
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(self.ready, "BatchNorm2d::backward before forward");
        let (n, c, h, w) = self.shape;
        let m = (n * h * w) as f32;
        let gv = grad_out.as_slice();
        let xh = self.x_hat.as_slice();
        let gamma = self.gamma.value.as_slice();

        // Parameter gradients, accumulated per channel directly (each
        // channel still sums its elements in sample-then-spatial order,
        // so values are bitwise identical to the seed's two-pass form).
        {
            let ggrad = self.gamma.grad.as_mut_slice();
            let bgrad = self.beta.grad.as_mut_slice();
            for ch in 0..c {
                let mut dgamma = 0.0f32;
                let mut dbeta = 0.0f32;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    for i in base..base + h * w {
                        dgamma += gv[i] * xh[i];
                        dbeta += gv[i];
                    }
                }
                ggrad[ch] += dgamma;
                bgrad[ch] += dbeta;
            }
        }

        grad_in.resize(grad_out.shape());
        let gi = grad_in.as_mut_slice();
        if self.train_mode {
            // Full batch-statistics backward.
            for ch in 0..c {
                let is = self.inv_std[ch];
                let g = gamma[ch];
                // Σ dxhat and Σ dxhat·xhat over the channel.
                let mut sum_dxh = 0.0f32;
                let mut sum_dxh_xh = 0.0f32;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    for i in base..base + h * w {
                        let dxh = gv[i] * g;
                        sum_dxh += dxh;
                        sum_dxh_xh += dxh * xh[i];
                    }
                }
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    for i in base..base + h * w {
                        let dxh = gv[i] * g;
                        gi[i] = is / m * (m * dxh - sum_dxh - xh[i] * sum_dxh_xh);
                    }
                }
            }
        } else {
            // Eval mode treats the statistics as constants.
            for s in 0..n {
                for ch in 0..c {
                    let base = (s * c + ch) * h * w;
                    let k = gamma[ch] * self.inv_std[ch];
                    for i in base..base + h * w {
                        gi[i] = gv[i] * k;
                    }
                }
            }
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward, params};
    use goldfish_tensor::init;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn normalises_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(2);
        let x = init::normal(&mut rng, vec![4, 2, 3, 3], 5.0, 2.0);
        let y = forward(&mut bn, &x, true);
        // Per channel, the output should be ~N(0, 1).
        let (n, c, h, w) = y.dims4();
        let yv = y.as_slice();
        for ch in 0..c {
            let mut vals = Vec::new();
            for s in 0..n {
                let base = (s * c + ch) * h * w;
                vals.extend_from_slice(&yv[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(1);
        let x = init::normal(&mut rng, vec![8, 1, 4, 4], 3.0, 1.0);
        for _ in 0..50 {
            forward(&mut bn, &x, true);
        }
        let rm = bn.running_mean.value.as_slice()[0];
        assert!((rm - 3.0).abs() < 0.2, "running mean {rm}");
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(1);
        let x = init::normal(&mut rng, vec![8, 1, 4, 4], 2.0, 1.5);
        for _ in 0..100 {
            forward(&mut bn, &x, true);
        }
        // In eval mode the same input should now be roughly standardised.
        let y = forward(&mut bn, &x, false);
        assert!(y.mean().abs() < 0.15, "eval mean {}", y.mean());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::normal(&mut rng, vec![2, 1, 2, 2], 0.0, 1.0);

        // Scalar loss: weighted sum so the gradient is non-uniform.
        let weights: Vec<f32> = (0..x.len()).map(|i| (i as f32 * 0.7).sin()).collect();
        let loss_of = |bn: &mut BatchNorm2d, x: &Tensor| {
            let y = forward(bn, x, true);
            y.as_slice()
                .iter()
                .zip(weights.iter())
                .map(|(&a, &b)| a * b)
                .sum::<f32>()
        };

        let mut bn = BatchNorm2d::new(1);
        let _ = loss_of(&mut bn, &x);
        let gout = Tensor::from_vec(x.shape().to_vec(), weights.clone());
        let gin = backward(&mut bn, &gout);

        let eps = 1e-2;
        for ii in 0..x.len() {
            let mut bn2 = BatchNorm2d::new(1);
            let mut xp = x.clone();
            xp.as_mut_slice()[ii] += eps;
            let lp = loss_of(&mut bn2, &xp);
            let mut bn3 = BatchNorm2d::new(1);
            let mut xm = x.clone();
            xm.as_mut_slice()[ii] -= eps;
            let lm = loss_of(&mut bn3, &xm);
            let fd = (lp - lm) / (2.0 * eps);
            let an = gin.as_slice()[ii];
            assert!((fd - an).abs() < 3e-2, "x[{ii}] fd {fd} an {an}");
        }
    }

    #[test]
    fn four_params_two_frozen() {
        let bn = BatchNorm2d::new(3);
        let params = params(&bn);
        assert_eq!(params.len(), 4);
        assert!(params[0].trainable && params[1].trainable);
        assert!(!params[2].trainable && !params[3].trainable);
    }
}
