//! End-to-end pin for the allocation-free training runtime.
//!
//! The one local SGD loop, `train_local_hot` (reached here through its
//! `train_local_ce` wrapper), must produce **bitwise identical**
//! parameters to the pre-refactor training pipeline. Every executor runs
//! that loop on a `TrainLane` — `Federation` and B1 through
//! `LoopbackClients`, sharded clients, the serve loopback and remote
//! workers — so this pin covers them all. The oracle is deliberately not
//! the library's own layers: `SeedMlpTrainer` re-implements the seed's
//! per-step arithmetic (subset copies, per-layer tensors, the
//! log-softmax/exp cross-entropy, three-pass momentum SGD) from the
//! public `ops` primitives, so any semantic drift in the runtime fails
//! this test.

use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::data::Dataset;
use goldfish::fed::trainer::{train_local_ce, TrainConfig};
use goldfish::nn::{zoo, Network};
use goldfish::tensor::{ops, Tensor};
use rand::{rngs::StdRng, SeedableRng};

/// A seed-style two-layer MLP trainer: `x → dense → relu → dense`, all
/// buffers freshly allocated per step exactly like the pre-refactor
/// layer stack, with the optimizer's three-pass momentum update.
struct SeedMlpTrainer {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    vel: [Tensor; 4],
    lr: f32,
    momentum: f32,
}

impl SeedMlpTrainer {
    /// Clones the parameters out of a `zoo::mlp(d, &[h], c)` network.
    fn from_network(net: &Network, d: usize, h: usize, c: usize) -> Self {
        let state = net.state_vector();
        let (w1, rest) = state.split_at(h * d);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2) = rest.split_at(c * h);
        SeedMlpTrainer {
            w1: Tensor::from_vec(vec![h, d], w1.to_vec()),
            b1: Tensor::from_vec(vec![h], b1.to_vec()),
            w2: Tensor::from_vec(vec![c, h], w2.to_vec()),
            b2: Tensor::from_vec(vec![c], b2.to_vec()),
            vel: [
                Tensor::zeros(vec![h, d]),
                Tensor::zeros(vec![h]),
                Tensor::zeros(vec![c, h]),
                Tensor::zeros(vec![c]),
            ],
            lr: 0.0,
            momentum: 0.0,
        }
    }

    fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for t in [&self.w1, &self.b1, &self.w2, &self.b2] {
            out.extend_from_slice(t.as_slice());
        }
        out
    }

    /// The seed cross-entropy: log-softmax tensor, exp pass, one-hot
    /// subtraction, scale.
    fn seed_ce(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (n, c) = logits.dims2();
        let logp = ops::log_softmax_t(logits, 1.0);
        let p = logp.map(|v| v.exp());
        let mut grad = p;
        let mut loss = 0.0f32;
        for (r, &label) in labels.iter().enumerate() {
            loss -= logp.at2(r, label);
            grad.row_mut(r)[label] -= 1.0;
        }
        let scale = 1.0 / n as f32;
        grad.scale_mut(scale);
        (loss * scale, grad.reshape(vec![n, c]))
    }

    /// One seed-style training step on a freshly copied batch; returns
    /// the batch-mean loss.
    fn step(&mut self, batch: &Dataset) -> f32 {
        let (n, d) = batch.features().dims2();
        let x = batch.features().clone().reshape(vec![n, d]);
        // dense 1 + relu
        let mut h_pre = ops::matmul_a_bt(&x, &self.w1);
        for r in 0..n {
            for (o, &b) in h_pre.row_mut(r).iter_mut().zip(self.b1.as_slice()) {
                *o += b;
            }
        }
        let mask: Vec<bool> = h_pre.as_slice().iter().map(|&v| v > 0.0).collect();
        let h = h_pre.map(|v| v.max(0.0));
        // dense 2
        let mut logits = ops::matmul_a_bt(&h, &self.w2);
        for r in 0..n {
            for (o, &b) in logits.row_mut(r).iter_mut().zip(self.b2.as_slice()) {
                *o += b;
            }
        }
        let (loss, grad) = Self::seed_ce(&logits, batch.labels());
        // backward: dense 2
        let gw2 = ops::matmul_at_b(&grad, &h);
        let gb2 = ops::sum_rows(&grad);
        let gh = ops::matmul(&grad, &self.w2);
        // relu
        let gh_relu = Tensor::from_vec(
            gh.shape().to_vec(),
            gh.as_slice()
                .iter()
                .zip(mask.iter())
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        // dense 1 (the seed also computed ∂L/∂x here and discarded it —
        // arithmetically irrelevant to the parameters).
        let gw1 = ops::matmul_at_b(&gh_relu, &x);
        let gb1 = ops::sum_rows(&gh_relu);
        // three-pass momentum SGD in parameter order
        for (param, (vel, grad)) in [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
            .into_iter()
            .zip(self.vel.iter_mut().zip([gw1, gb1, gw2, gb2]))
        {
            vel.scale_mut(self.momentum);
            vel.axpy(1.0, &grad);
            param.axpy(-self.lr, vel);
        }
        loss
    }

    /// The seed's local-training loop: shuffled indices per epoch, subset
    /// copies per chunk.
    fn train(&mut self, data: &Dataset, cfg: &TrainConfig, seed: u64) {
        self.lr = cfg.lr;
        self.momentum = cfg.momentum;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cfg.local_epochs {
            let order = data.shuffled_indices(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let batch = data.subset(chunk);
                self.step(&batch);
            }
        }
    }
}

#[test]
fn train_local_is_bitwise_identical_to_seed_pipeline() {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 90, 10, 5);
    let (d, h, c) = (64, 24, 10);
    let mut rng = StdRng::seed_from_u64(12);
    let mut net = zoo::mlp(d, &[h], c, &mut rng);
    let mut oracle = SeedMlpTrainer::from_network(&net, d, h, c);
    let cfg = TrainConfig {
        local_epochs: 3,
        batch_size: 20, // 90 % 20 != 0: exercises the short final batch
        lr: 0.05,
        momentum: 0.9,
    };
    train_local_ce(&mut net, &train, &cfg, 77);
    oracle.train(&train, &cfg, 77);
    let (got, want) = (net.state_vector(), oracle.state_vector());
    assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i}: {a} != {b}");
    }
}
