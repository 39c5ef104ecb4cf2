//! Property tests pinning the allocation-free runtime: a warm buffer
//! must compute what a fresh network computes, the params-only backward
//! must accumulate the parameter gradients of the full backward, and the
//! fused loss and the fused optimizer must be **bitwise identical** to
//! their classic counterparts on arbitrary shapes and values — reusing
//! buffers is an execution detail, never a semantic one. So is skipping
//! one: `Dense` adds its `∂W` inside the GEMM instead of staging it, and
//! a re-armed optimizer overwrites its velocity instead of zeroing it.

use goldfish_nn::loss::{CrossEntropy, HardLoss};
use goldfish_nn::optim::{FusedSgd, Sgd};
use goldfish_nn::{
    zoo, BatchNorm2d, Conv2d, Dense, GlobalAvgPool, Layer, Network, Relu, Residual, Sequential,
};
use goldfish_tensor::engine::{self, KPACK, NR, SMALL_FLOPS};
use goldfish_tensor::{init, ops, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The parameter gradients of `layer`, in state-vector order.
fn grads(layer: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.extend_from_slice(p.grad.as_slice()));
    out
}

/// A `d → h → c` MLP as a bare `Sequential`, so both backward forms are
/// reachable.
fn mlp_body(d: usize, h: usize, c: usize, seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Dense::new(d, h, &mut rng))
        .push(Relu::new())
        .push(Dense::new(h, c, &mut rng))
}

/// One step's cross-entropy gradient w.r.t. the logits of `body` on `x`.
fn logit_grad(body: &mut dyn Layer, x: &Tensor, labels: &[usize]) -> Tensor {
    let mut logits = Tensor::zeros(vec![0]);
    body.forward_into(x, true, &mut logits);
    let mut grad = Tensor::zeros(vec![0]);
    CrossEntropy.loss_and_grad_into(&logits, labels, &mut grad);
    grad
}

/// Strategy: batch size, feature width, hidden width, class count.
fn mlp_dims() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..9, 1usize..12, 1usize..10, 2usize..6)
}

/// Strategy: `(path, batch, in, out)` of a `Dense` layer whose `∂W` GEMM
/// (`gemm_at_b(batch, out, in)`, output `[out, in]`) takes `path`: 0 the
/// small path, 1 a narrow output (`in < NR`), 2 one or two full strips
/// plus the edge strip — with a batch (the reduction depth) below
/// `KPACK`, or at or above it.
fn dense_grad_dims() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    let picks = (
        0usize..3,
        0usize..2,
        0usize..1000,
        0usize..1000,
        0usize..1000,
    );
    picks.prop_map(|(path, deep, r1, r2, r3)| {
        let batch = if deep == 1 {
            KPACK + r1 % 20
        } else {
            1 + r1 % 12
        };
        let d = match path {
            0 => 1 + r2 % 40,
            1 => 1 + r2 % (NR - 1),
            _ => NR * (1 + r2 % 2) + 1 + r2 % (NR - 1),
        };
        let o = match path {
            0 => (1 + r3 % 17).min(((SMALL_FLOPS - 1) / (batch * d)).max(1)),
            _ => SMALL_FLOPS / (batch * d) + 1 + r3 % 7,
        };
        (path, batch, d, o)
    })
}

/// The seed implementation of softmax cross-entropy, kept verbatim as the
/// oracle for the fused path (log-softmax tensor, exponentiation pass,
/// one-hot subtraction, scale).
fn seed_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
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

proptest! {
    #[test]
    fn fused_loss_is_bitwise_identical_to_seed_pipeline(
        (n, c) in (1usize..10, 2usize..8),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = init::normal(&mut rng, vec![n, c], 0.0, 3.0);
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % c).collect();
        let (want_l, want_g) = seed_cross_entropy(&logits, &labels);
        let mut grad = Tensor::zeros(vec![1]);
        let got_l = CrossEntropy.loss_and_grad_into(&logits, &labels, &mut grad);
        prop_assert_eq!(got_l.to_bits(), want_l.to_bits(), "loss diverged");
        prop_assert_eq!(grad.shape(), want_g.shape());
        for (a, b) in grad.as_slice().iter().zip(want_g.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "grad diverged");
        }
    }

    /// A network whose buffers were sized and filled by another batch
    /// computes bitwise the logits of a fresh one.
    #[test]
    fn forward_into_is_bitwise_identical_to_forward(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fresh = zoo::mlp(d, &[h], c, &mut rng);
        let mut warm = zoo::mlp(d, &[h], c, &mut rng);
        warm.set_state_vector(&fresh.state_vector());
        let other = init::normal(&mut rng, vec![n + 2, d], 0.0, 5.0);
        let _ = warm.forward_ws(&other, true);
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let want = fresh.forward_ws(&x, true).clone();
        let got = warm.forward_ws(&x, true);
        prop_assert_eq!(want.shape(), got.shape());
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "logits diverged");
        }
    }

    /// `backward_params_only` (what `Network::backward_train` runs)
    /// accumulates bitwise the parameter gradients of `backward_into`.
    #[test]
    fn backward_train_accumulates_identical_gradients(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut full = mlp_body(d, h, c, seed);
        let mut params_only = mlp_body(d, h, c, seed);
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();

        let grad = logit_grad(&mut full, &x, &labels);
        let mut grad_in = Tensor::zeros(vec![0]);
        full.backward_into(&grad, &mut grad_in);
        prop_assert_eq!(grad_in.shape(), &[n, d]);

        let grad_b = logit_grad(&mut params_only, &x, &labels);
        params_only.backward_params_only(&grad_b);

        let (ga, gb) = (grads(&full), grads(&params_only));
        prop_assert_eq!(ga.len(), gb.len());
        for (a, b) in ga.iter().zip(gb.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param grads diverged");
        }
    }

    #[test]
    fn fused_sgd_tracks_sgd_over_several_steps(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        net_b.set_state_vector(&net_a.state_vector());
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut sgd = Sgd::new(0.05, 0.9);
        let mut fused = FusedSgd::new(0.05, 0.9);
        for _ in 0..3 {
            step(&mut net_a, &x, &labels, |net| sgd.step(net));
            step(&mut net_b, &x, &labels, |net| fused.step(net));
        }
        let (sa, sb) = (net_a.state_vector(), net_b.state_vector());
        for (a, b) in sa.iter().zip(sb.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "states diverged");
        }
    }

    /// `Dense` adds `∂W` into its gradient inside the GEMM: bitwise the
    /// staged `gemm_at_b` followed by `axpy(1.0, staged)`, on every
    /// kernel path, and again on a second backward without `zero_grad`
    /// (into a gradient that already holds one).
    #[test]
    fn dense_weight_gradient_adds_what_staging_would(
        (path, batch, d, o) in dense_grad_dims(),
        seed in 0u64..1000,
    ) {
        prop_assert_eq!(batch * o * d < SMALL_FLOPS, path == 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(d, o, &mut rng);
        let mut want = Tensor::zeros(vec![o, d]);
        let (mut out, mut staged) = (Tensor::zeros(vec![0]), Tensor::zeros(vec![o, d]));
        for pass in 0..2 {
            let x = init::normal(&mut rng, vec![batch, d], 0.0, 1.0);
            let g = init::normal(&mut rng, vec![batch, o], 0.0, 1.0);
            layer.forward_into(&x, true, &mut out);
            layer.backward_params_only(&g);
            engine::gemm_at_b(batch, o, d, g.as_slice(), x.as_slice(), staged.as_mut_slice());
            want.axpy(1.0, &staged);
            let got = grads(&layer);
            for (a, b) in got[..o * d].iter().zip(want.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "∂W diverged on pass {}", pass);
            }
        }
    }

    /// A stale velocity steps as a zeroed one: after a re-arm, after a
    /// reset and a re-arm, and after a re-arm before the very first step,
    /// `FusedSgd` stays bitwise with a fresh `Sgd`, whose velocity starts
    /// as zeros.
    #[test]
    fn a_stale_velocity_steps_as_a_zeroed_one(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..500,
        how in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut fused = FusedSgd::new(0.05, 0.9);
        if how < 2 {
            // Momentum to forget.
            for _ in 0..2 {
                step(&mut net_a, &x, &labels, |net| fused.step(net));
            }
        }
        if how == 1 {
            fused.reset();
        }
        fused.rearm(0.03, 0.5);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        net_b.set_state_vector(&net_a.state_vector());
        let mut zeroed = Sgd::new(0.03, 0.5);
        for _ in 0..3 {
            step(&mut net_a, &x, &labels, |net| fused.step(net));
            step(&mut net_b, &x, &labels, |net| zeroed.step(net));
            let (sa, sb) = (net_a.state_vector(), net_b.state_vector());
            for (a, b) in sa.iter().zip(sb.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "states diverged ({})", how);
            }
        }
    }

    /// A run of `k` steps whose last is a final step updates the weights
    /// bit for bit as `Sgd` does, from a stale velocity (`k = 1`, or a
    /// re-armed optimizer whose buffer an earlier run sized) or a warm
    /// one; and after it, a re-armed run equals a fresh optimizer's.
    #[test]
    fn a_final_step_updates_as_a_step_does(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..500,
        k in (0usize..4).prop_map(|i| [1, 2, 3, 8][i]),
        sized in (0usize..2).prop_map(|b| b == 1),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut fused = FusedSgd::new(0.05, 0.9);
        if sized {
            // An earlier run leaves a velocity buffer for the re-arm.
            for _ in 0..2 {
                step(&mut net_a, &x, &labels, |net| fused.step(net));
            }
            fused.rearm(0.05, 0.9);
        }
        net_b.set_state_vector(&net_a.state_vector());
        let mut sgd = Sgd::new(0.05, 0.9);
        for i in 0..k {
            let last = i + 1 == k;
            step(&mut net_a, &x, &labels, |net| {
                if last {
                    fused.final_step(net)
                } else {
                    fused.step(net)
                }
            });
            step(&mut net_b, &x, &labels, |net| sgd.step(net));
            let (sa, sb) = (net_a.state_vector(), net_b.state_vector());
            for (a, b) in sa.iter().zip(sb.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} of {} diverged", i, k);
            }
        }
        // The next run, re-armed, steps as a fresh optimizer from the
        // same weights.
        fused.rearm(0.03, 0.5);
        let mut fresh = FusedSgd::new(0.03, 0.5);
        for _ in 0..3 {
            step(&mut net_a, &x, &labels, |net| fused.step(net));
            step(&mut net_b, &x, &labels, |net| fresh.step(net));
            let (sa, sb) = (net_a.state_vector(), net_b.state_vector());
            for (a, b) in sa.iter().zip(sb.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "re-armed run diverged after {}", k);
            }
        }
    }
}

/// One training step of `net` on `(x, labels)`, the update applied by
/// `update`.
fn step(net: &mut Network, x: &Tensor, labels: &[usize], update: impl FnOnce(&mut Network)) {
    let mut grad = Tensor::zeros(vec![0]);
    let logits = net.forward_ws(x, true);
    CrossEntropy.loss_and_grad_into(logits, labels, &mut grad);
    net.zero_grad();
    net.backward_train(&grad);
    update(net);
}

/// The runtime plumbing must also hold for non-dense layers; a CNN with
/// BatchNorm exercises `Conv2d`, `MaxPool2d`, `BatchNorm2d`, `Flatten`
/// and the arena chain at once: `Sgd` on a fresh network and `FusedSgd`
/// on one whose buffers another batch warmed stay bitwise together.
/// (A plain #[test]: conv shapes make proptest cases needlessly slow.)
#[test]
fn conv_network_runtime_matches_allocating_path() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(3);
        zoo::lenet5(1, 16, 16, 4, &mut rng)
    };
    let mut net_a = build();
    let mut net_b = build();
    let mut rng = StdRng::seed_from_u64(4);
    let other = init::normal(&mut rng, vec![5, 1, 16, 16], 0.0, 2.0);
    step(&mut net_b, &other, &[1, 1, 0, 3, 2], |_| {});
    net_b.set_state_vector(&net_a.state_vector());
    let x = init::normal(&mut rng, vec![3, 1, 16, 16], 0.0, 1.0);
    let labels = vec![0usize, 2, 3];
    let mut sgd = Sgd::new(0.01, 0.9);
    let mut fused = FusedSgd::new(0.01, 0.9);
    for _ in 0..3 {
        step(&mut net_a, &x, &labels, |net| sgd.step(net));
        step(&mut net_b, &x, &labels, |net| fused.step(net));
        assert_eq!(net_a.state_vector(), net_b.state_vector());
    }
}

/// Residual blocks route both backward forms through nested
/// `Sequential`s, BatchNorm and the projection shortcut.
#[test]
fn residual_network_runtime_matches_allocating_path() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(8);
        let main = Sequential::new()
            .push(Conv2d::new(4, 8, 3, 2, 1, &mut rng))
            .push(BatchNorm2d::new(8))
            .push(Relu::new())
            .push(Conv2d::new(8, 8, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new(8));
        let shortcut = Sequential::new()
            .push(Conv2d::new(4, 8, 1, 2, 0, &mut rng))
            .push(BatchNorm2d::new(8));
        Sequential::new()
            .push(Conv2d::new(1, 4, 3, 1, 1, &mut rng))
            .push(BatchNorm2d::new(4))
            .push(Relu::new())
            .push(Residual::projected(main, shortcut))
            .push(GlobalAvgPool::new())
            .push(Dense::new(8, 3, &mut rng))
    };
    let mut full = build();
    let mut params_only = build();
    let mut rng = StdRng::seed_from_u64(9);
    let x = init::normal(&mut rng, vec![2, 1, 8, 8], 0.0, 1.0);
    let labels = vec![1usize, 2];

    let grad = logit_grad(&mut full, &x, &labels);
    let mut grad_in = Tensor::zeros(vec![0]);
    full.backward_into(&grad, &mut grad_in);
    assert_eq!(grad_in.shape(), x.shape());

    let grad_b = logit_grad(&mut params_only, &x, &labels);
    params_only.backward_params_only(&grad_b);

    assert_eq!(grads(&full), grads(&params_only));
}

/// Both backward forms read the one cache the training forward left: a
/// second backward sees the same state as the first.
#[test]
fn mixed_paths_share_caches() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut seq = Sequential::new()
        .push(Dense::new(4, 6, &mut rng))
        .push(Relu::new());
    let x = init::normal(&mut rng, vec![2, 4], 0.0, 1.0);
    let mut y = Tensor::zeros(vec![0]);
    seq.forward_into(&x, true, &mut y);
    let g = Tensor::filled(y.shape().to_vec(), 1.0);
    let mut grad_in = Tensor::zeros(vec![1]);
    seq.backward_into(&g, &mut grad_in);
    let once = grads(&seq);
    seq.backward_params_only(&g);
    let twice: Vec<f32> = once.iter().map(|v| v + v).collect();
    assert_eq!(grads(&seq), twice);
    let mut again = Tensor::zeros(vec![1]);
    seq.backward_into(&g, &mut again);
    assert_eq!(again, grad_in);
    let mut net = Network::new(seq);
    assert!(net.forward_ws(&x, false).all_finite());
}
