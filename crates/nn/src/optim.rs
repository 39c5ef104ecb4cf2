//! Optimizers.

use goldfish_tensor::Tensor;

use crate::network::Network;

/// Stochastic gradient descent with classical momentum — the optimizer the
/// paper uses everywhere (η = 0.001, β = 0.9).
///
/// Velocity buffers are kept inside the optimizer keyed by parameter index,
/// so one `Sgd` must stay paired with one [`Network`]. Frozen parameters
/// (BatchNorm running statistics) are skipped.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step from the gradients currently accumulated in
    /// `net`, then the caller typically calls [`Network::zero_grad`].
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter structure changed since the first
    /// step (the velocity buffers would no longer line up).
    pub fn step(&mut self, net: &mut Network) {
        let (lr, momentum) = (self.lr, self.momentum);
        let first = self.velocity.is_empty();
        let velocity = &mut self.velocity;
        let mut i = 0usize;
        net.visit_params_mut(&mut |p| {
            if first {
                velocity.push(Tensor::zeros(p.value.shape().to_vec()));
            }
            let v = velocity
                .get_mut(i)
                .expect("parameter structure changed under the optimizer");
            i += 1;
            if !p.trainable {
                return;
            }
            // v ← β·v + g ; w ← w − η·v
            v.scale_mut(momentum);
            v.axpy(1.0, &p.grad);
            p.value.axpy(-lr, v);
        });
        assert_eq!(
            i,
            self.velocity.len(),
            "parameter structure changed under the optimizer"
        );
    }
}

/// SGD with momentum, fused: one pass over `(w, g, v)` instead of the
/// three passes (`v *= β`, `v += g`, `w -= η·v`) of [`Sgd::step`].
///
/// Velocity lives in a single flat buffer covering the trainable
/// parameters in state-vector order, walked one parameter slice at a
/// time on the calling thread. Per-element arithmetic mirrors
/// [`Sgd::step`] exactly, so updates are **bitwise identical** to `Sgd`
/// and to themselves at every thread count. After the first step (which
/// sizes the velocity buffer) a step performs no heap allocation.
///
/// A fresh, reset or re-armed optimizer's velocity is *stale*: it is
/// taken as zero without being read or cleared, and the next step writes
/// `v = 0·β + g` over it — the arithmetic of a zeroed velocity, without
/// the zeroing pass.
///
/// The last step of a run is [`FusedSgd::final_step`]: the same weight
/// update, with the velocity kept in a register and never stored, since
/// the next run's [`FusedSgd::rearm`] would discard it unread. So the
/// velocity buffer is sized only by runs of two or more steps; a
/// one-step run never allocates it.
#[derive(Debug)]
pub struct FusedSgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
    /// Whether `velocity` stands for zero momentum, whatever it holds.
    stale: bool,
}

impl FusedSgd {
    /// Creates a fused SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        FusedSgd {
            lr,
            momentum,
            velocity: Vec::new(),
            stale: true,
        }
    }

    /// Applies one update step from the gradients currently accumulated
    /// in `net`, then the caller typically calls [`Network::zero_grad`].
    ///
    /// # Panics
    ///
    /// Panics if the network's trainable parameter count changed since
    /// the first step (the flat velocity would no longer line up).
    pub fn step(&mut self, net: &mut Network) {
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; net.trainable_len()];
        }
        let stale = std::mem::replace(&mut self.stale, false);
        self.sweep(net, |value, grad, vel, lr, momentum| {
            if stale {
                fused_momentum_step::<true>(value, grad, vel, lr, momentum);
            } else {
                fused_momentum_step::<false>(value, grad, vel, lr, momentum);
            }
        });
    }

    /// The last step of a run: updates the weights bit for bit as
    /// [`FusedSgd::step`] would, but stores no velocity and leaves the
    /// optimizer stale, as [`FusedSgd::rearm`] would. A stale final step
    /// reads no velocity either, and never sizes the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the network's trainable parameter count changed since
    /// the velocity buffer was sized.
    pub fn final_step(&mut self, net: &mut Network) {
        let stale = std::mem::replace(&mut self.stale, true);
        self.sweep(net, |value, grad, vel, lr, momentum| {
            if stale {
                fused_final_step::<true>(value, grad, vel, lr, momentum);
            } else {
                fused_final_step::<false>(value, grad, vel, lr, momentum);
            }
        });
    }

    /// Runs `update(value, grad, velocity, lr, momentum)` over each
    /// trainable parameter's slices in state-vector order. The velocity
    /// slice is empty while the buffer is unsized (only a stale final
    /// step gets that far without sizing it).
    fn sweep(
        &mut self,
        net: &mut Network,
        mut update: impl FnMut(&mut [f32], &[f32], &mut [f32], f32, f32),
    ) {
        let (lr, momentum) = (self.lr, self.momentum);
        let sized = !self.velocity.is_empty();
        let mut offset = 0usize;
        let velocity = &mut self.velocity;
        net.visit_params_mut(&mut |p| {
            if !p.trainable {
                return;
            }
            let n = p.value.len();
            let end = offset + n;
            let vel = if sized {
                assert!(
                    end <= velocity.len(),
                    "parameter structure changed under the optimizer"
                );
                &mut velocity[offset..end]
            } else {
                &mut []
            };
            update(p.value.as_mut_slice(), p.grad.as_slice(), vel, lr, momentum);
            offset = end;
        });
        assert!(
            !sized || offset == self.velocity.len(),
            "parameter structure changed under the optimizer"
        );
    }

    /// Clears momentum state and frees the velocity buffer (used when
    /// the network may change shape, e.g. a lane switching factories).
    pub fn reset(&mut self) {
        self.velocity.clear();
        self.stale = true;
    }

    /// Zeroes momentum state, keeping the velocity buffer — bitwise
    /// identical to a freshly constructed optimizer (velocity starts at
    /// zero either way) but allocation-free, for long-lived workers that
    /// run one local training per round. Writes nothing: the velocity is
    /// marked stale, and the next step overwrites it. Also re-arms the
    /// hyperparameters for the coming run.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid hyperparameters [`FusedSgd::new`]
    /// rejects.
    pub fn rearm(&mut self, lr: f32, momentum: f32) {
        assert!(lr > 0.0, "learning rate must be positive, got {lr}");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        self.lr = lr;
        self.momentum = momentum;
        self.stale = true;
    }
}

/// One fused `v ← β·v + g; w ← w − η·v` sweep over a parameter slice,
/// written to match [`Sgd::step`]'s three-pass form operation for
/// operation (`v *= β`, then `v += 1·g`, then `w += (−η)·v`) so the
/// fused path is bitwise identical to it. A `STALE` velocity is not read:
/// each `v` is `0·β + g`, what the same operations compute from a zeroed
/// one (`0·β` is +0.0, and `+0.0 + g` turns a −0.0 `g` into +0.0 exactly
/// as they would). It takes two passes of the same operations, a `w`
/// pass ([`fused_final_step`]'s) then a `v` pass: each loop streams two
/// slices instead of three, which runs faster than the fused loop.
fn fused_momentum_step<const STALE: bool>(
    value: &mut [f32],
    grad: &[f32],
    vel: &mut [f32],
    lr: f32,
    momentum: f32,
) {
    assert_eq!(value.len(), grad.len(), "fused step: grad length");
    assert_eq!(value.len(), vel.len(), "fused step: velocity length");
    if STALE {
        fused_final_step::<true>(value, grad, vel, lr, momentum);
        let zero = 0.0 * momentum;
        for (v, &g) in vel.iter_mut().zip(grad) {
            *v = zero + g;
        }
        return;
    }
    let neg_lr = -lr;
    for ((w, &g), v) in value.iter_mut().zip(grad).zip(vel.iter_mut()) {
        *v *= momentum;
        *v += g;
        *w += neg_lr * *v;
    }
}

/// [`fused_momentum_step`] without the velocity store: each `v` is formed
/// in a register by the same operations and only `w` is written. A
/// `STALE` velocity is not read, so `vel` may be empty then.
fn fused_final_step<const STALE: bool>(
    value: &mut [f32],
    grad: &[f32],
    vel: &[f32],
    lr: f32,
    momentum: f32,
) {
    assert_eq!(value.len(), grad.len(), "fused step: grad length");
    let neg_lr = -lr;
    if STALE {
        let zero = 0.0 * momentum;
        for (w, &g) in value.iter_mut().zip(grad) {
            *w += neg_lr * (zero + g);
        }
    } else {
        assert_eq!(value.len(), vel.len(), "fused step: velocity length");
        for ((w, &g), &v) in value.iter_mut().zip(grad).zip(vel) {
            *w += neg_lr * (v * momentum + g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Relu;
    use crate::loss::{CrossEntropy, HardLoss};
    use crate::sequential::Sequential;
    use goldfish_tensor::init;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimise ||Wx - 0||² by training on a single sample with label 0
        // via CE; loss should decrease monotonically-ish.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(
            Sequential::new()
                .push(Dense::new(4, 16, &mut rng))
                .push(Relu::new())
                .push(Dense::new(16, 3, &mut rng)),
        );
        let x = init::normal(&mut rng, vec![8, 4], 0.0, 1.0);
        let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
        let mut sgd = Sgd::new(0.1, 0.9);
        let mut first = None;
        let mut last = 0.0;
        let mut grad = Tensor::zeros(vec![0]);
        for _ in 0..60 {
            let logits = net.forward_ws(&x, true);
            let loss = CrossEntropy.loss_and_grad_into(logits, &labels, &mut grad);
            net.zero_grad();
            net.backward_train(&grad);
            sgd.step(&mut net);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < 0.25 * first.unwrap(),
            "loss {} -> {last} did not drop",
            first.unwrap()
        );
    }

    #[test]
    fn momentum_accelerates_versus_plain() {
        let run = |momentum: f32| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut net = Network::new(Sequential::new().push(Dense::new(2, 2, &mut rng)));
            let x = init::normal(&mut rng, vec![16, 2], 0.0, 1.0);
            let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
            let mut sgd = Sgd::new(0.01, momentum);
            let mut loss = 0.0;
            let mut grad = Tensor::zeros(vec![0]);
            for _ in 0..40 {
                let logits = net.forward_ws(&x, true);
                let l = CrossEntropy.loss_and_grad_into(logits, &labels, &mut grad);
                net.zero_grad();
                net.backward_train(&grad);
                sgd.step(&mut net);
                loss = l;
            }
            loss
        };
        // With identical data/seed, momentum should not be slower here.
        assert!(run(0.9) <= run(0.0) + 1e-3);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_unit_momentum() {
        let _ = Sgd::new(0.1, 1.0);
    }

    #[test]
    fn fused_step_bitwise_matches_sgd() {
        // Same init, same gradients, Sgd vs FusedSgd: states must stay
        // bitwise identical step after step (momentum included).
        let build = || {
            let mut rng = StdRng::seed_from_u64(9);
            Network::new(
                Sequential::new()
                    .push(Dense::new(6, 16, &mut rng))
                    .push(Relu::new())
                    .push(Dense::new(16, 4, &mut rng)),
            )
        };
        let mut a = build();
        let mut b = build();
        let mut rng = StdRng::seed_from_u64(10);
        let x = init::normal(&mut rng, vec![8, 6], 0.0, 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut sgd = Sgd::new(0.05, 0.9);
        let mut fused = FusedSgd::new(0.05, 0.9);
        let mut grad = Tensor::zeros(vec![0]);
        for _ in 0..7 {
            for (net, which) in [(&mut a, 0), (&mut b, 1)] {
                let logits = net.forward_ws(&x, true);
                CrossEntropy.loss_and_grad_into(logits, &labels, &mut grad);
                net.zero_grad();
                net.backward_train(&grad);
                if which == 0 {
                    sgd.step(net);
                } else {
                    fused.step(net);
                }
            }
            assert_eq!(a.state_vector(), b.state_vector());
        }
    }

    #[test]
    fn a_one_step_run_leaves_the_velocity_unsized() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = Network::new(Sequential::new().push(Dense::new(3, 2, &mut rng)));
        let x = init::normal(&mut rng, vec![4, 3], 0.0, 1.0);
        let mut grad = Tensor::zeros(vec![0]);
        let mut fused = FusedSgd::new(0.1, 0.9);
        for _ in 0..2 {
            let logits = net.forward_ws(&x, true);
            CrossEntropy.loss_and_grad_into(logits, &[0, 1, 1, 0], &mut grad);
            net.zero_grad();
            net.backward_train(&grad);
            fused.final_step(&mut net);
            assert!(fused.velocity.is_empty() && fused.velocity.capacity() == 0);
            assert!(fused.stale);
            fused.rearm(0.1, 0.9);
        }
        // A two-step run sizes it.
        fused.step(&mut net);
        assert_eq!(fused.velocity.len(), net.trainable_len());
    }

    #[test]
    #[should_panic(expected = "parameter structure changed")]
    fn fused_step_rejects_structure_change() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut small = Network::new(Sequential::new().push(Dense::new(2, 2, &mut rng)));
        let mut big = Network::new(Sequential::new().push(Dense::new(4, 4, &mut rng)));
        let mut fused = FusedSgd::new(0.1, 0.9);
        fused.step(&mut small);
        fused.step(&mut big);
    }
}
