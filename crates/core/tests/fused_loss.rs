//! Property tests pinning the fused composite-loss kernel
//! ([`GoldfishLoss::loss_and_grad_into`]) to the composed two-method
//! path, and its analytic gradients to finite differences — across
//! random logits, labels and loss weights, temperature sweeps
//! (including Eq 11 adaptive-temperature outputs) and the µc/µd edge
//! values (0 and the paper defaults).

use std::sync::Arc;

use goldfish_core::extension::AdaptiveTemperature;
use goldfish_core::loss::{
    confusion_loss, distillation_loss, GoldfishBatch, GoldfishLoss, GoldfishLossBufs, LossWeights,
};
use goldfish_nn::loss::{CrossEntropy, HardLoss};
use goldfish_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy: batch size, class count, seed, weight configuration.
fn cases() -> impl Strategy<Value = (usize, usize, u64, usize)> {
    (1usize..9, 2usize..8, 0u64..500, 0usize..4)
}

fn weights_case(which: usize) -> LossWeights {
    match which {
        0 => LossWeights::default(),
        1 => LossWeights::hard_only(),
        2 => LossWeights::without_distillation(),
        _ => LossWeights::without_confusion(),
    }
}

proptest! {
    #[test]
    fn fused_remaining_matches_composed_bitwise((n, c, seed, w) in cases()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let student = init::normal(&mut rng, vec![n, c], 0.0, 2.5);
        let teacher = init::normal(&mut rng, vec![n, c], 0.0, 2.5);
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % c).collect();
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights_case(w));
        let (want_bd, want_grad) = loss.remaining_grad(&student, Some(&teacher), &labels);
        let mut grad = Tensor::zeros(vec![1]);
        let mut bufs = GoldfishLossBufs::new();
        let got_bd = loss.loss_and_grad_into(
            GoldfishBatch::Remaining {
                student_logits: &student,
                teacher_logits: Some(&teacher),
                labels: &labels,
            },
            &mut grad,
            &mut bufs,
        );
        prop_assert_eq!(got_bd, want_bd);
        prop_assert_eq!(grad.shape(), want_grad.shape());
        for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "remaining grad diverged");
        }
    }

    #[test]
    fn fused_forget_matches_composed_bitwise(
        (n, c, seed, w) in cases(),
        scale_pct in 0u32..150,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0);
        let student = init::normal(&mut rng, vec![n, c], 0.0, 2.5);
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % c).collect();
        let hard_scale = scale_pct as f32 / 100.0;
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights_case(w));
        let (want_bd, want_grad) = loss.forget_grad(&student, &labels, hard_scale);
        let mut grad = Tensor::zeros(vec![1]);
        let mut bufs = GoldfishLossBufs::new();
        let got_bd = loss.loss_and_grad_into(
            GoldfishBatch::Forget {
                student_logits: &student,
                labels: &labels,
                hard_scale,
            },
            &mut grad,
            &mut bufs,
        );
        prop_assert_eq!(got_bd, want_bd);
        for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "forget grad diverged");
        }
    }

    #[test]
    fn fused_buffers_are_reusable_across_shapes(seed in 0u64..200) {
        // One buffer set driven through alternating geometries (the
        // remaining/forget interleaving of a training step) must keep
        // producing the composed path's bits.
        let mut rng = StdRng::seed_from_u64(seed);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let mut grad = Tensor::zeros(vec![1]);
        let mut bufs = GoldfishLossBufs::new();
        for &(n, c) in &[(6usize, 5usize), (2, 5), (6, 3), (1, 7)] {
            let student = init::normal(&mut rng, vec![n, c], 0.0, 2.0);
            let teacher = init::normal(&mut rng, vec![n, c], 0.0, 2.0);
            let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
            let (want_bd, want_grad) = loss.remaining_grad(&student, Some(&teacher), &labels);
            let got_bd = loss.loss_and_grad_into(
                GoldfishBatch::Remaining {
                    student_logits: &student,
                    teacher_logits: Some(&teacher),
                    labels: &labels,
                },
                &mut grad,
                &mut bufs,
            );
            prop_assert_eq!(got_bd, want_bd);
            for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let (want_bd, want_grad) = loss.forget_grad(&student, &labels, 0.5);
            let got_bd = loss.loss_and_grad_into(
                GoldfishBatch::Forget {
                    student_logits: &student,
                    labels: &labels,
                    hard_scale: 0.5,
                },
                &mut grad,
                &mut bufs,
            );
            prop_assert_eq!(got_bd, want_bd);
            for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// Central-difference check of `grad` against `value_of` at every
/// coordinate of `logits`.
fn fd_check(value_of: impl Fn(&Tensor) -> f32, grad: &Tensor, logits: &Tensor, tol: f32) {
    let eps = 1e-3;
    for i in 0..logits.len() {
        let mut lp = logits.clone();
        lp.as_mut_slice()[i] += eps;
        let mut lm = logits.clone();
        lm.as_mut_slice()[i] -= eps;
        let fd = (value_of(&lp) - value_of(&lm)) / (2.0 * eps);
        let an = grad.as_slice()[i];
        assert!((fd - an).abs() < tol, "grad[{i}]: fd {fd} vs analytic {an}");
    }
}

/// Temperature sweep: fixed paper values plus Eq 11 outputs across
/// remaining/forget mixes (the adaptive-temperature extension feeds the
/// fused kernel exactly these).
fn temperature_sweep() -> Vec<f32> {
    let at = AdaptiveTemperature::default();
    let mut ts = vec![0.5f32, 1.0, 3.0, 8.0];
    for (nr, nf) in [(100usize, 0usize), (100, 25), (100, 100), (10, 90)] {
        ts.push(at.temperature(nr, nf));
    }
    ts
}

#[test]
fn fused_remaining_gradient_passes_finite_difference_across_t_and_weights() {
    let mut rng = StdRng::seed_from_u64(11);
    let student = init::normal(&mut rng, vec![3, 5], 0.0, 1.0);
    let teacher = init::normal(&mut rng, vec![3, 5], 0.0, 1.0);
    let labels = vec![0usize, 2, 4];
    for t in temperature_sweep() {
        for mu_d in [0.0f32, 1.0] {
            let weights = LossWeights {
                mu_d,
                temperature: t,
                ..LossWeights::default()
            };
            let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights);
            let mut grad = Tensor::zeros(vec![1]);
            let mut bufs = GoldfishLossBufs::new();
            loss.loss_and_grad_into(
                GoldfishBatch::Remaining {
                    student_logits: &student,
                    teacher_logits: Some(&teacher),
                    labels: &labels,
                },
                &mut grad,
                &mut bufs,
            );
            fd_check(
                |l| {
                    let h =
                        CrossEntropy.loss_and_grad_into(l, &labels, &mut Tensor::zeros(vec![0]));
                    let (d, _) = distillation_loss(l, &teacher, t);
                    h + mu_d * d
                },
                &grad,
                &student,
                5e-3,
            );
        }
    }
}

#[test]
fn fused_forget_gradient_passes_finite_difference_across_mu_c() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut student = init::normal(&mut rng, vec![3, 5], 0.0, 1.0);
    let labels = vec![1usize, 3, 0];
    // Keep the per-sample ascent gate open (gated rows are non-smooth).
    for (r, &l) in labels.iter().enumerate() {
        student.row_mut(r)[l] += 2.0;
    }
    for mu_c in [0.0f32, 0.25] {
        let weights = LossWeights {
            mu_c,
            ..LossWeights::default()
        };
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights);
        let mut grad = Tensor::zeros(vec![1]);
        let mut bufs = GoldfishLossBufs::new();
        loss.loss_and_grad_into(
            GoldfishBatch::Forget {
                student_logits: &student,
                labels: &labels,
                hard_scale: 1.0,
            },
            &mut grad,
            &mut bufs,
        );
        fd_check(
            |l| {
                let h = CrossEntropy.loss_and_grad_into(l, &labels, &mut Tensor::zeros(vec![0]));
                let (c, _) = confusion_loss(l);
                -h + mu_c * c
            },
            &grad,
            &student,
            5e-3,
        );
    }
}
