//! The Goldfish composite loss (Eqs 1–6 of the paper).
//!
//! `L = Lh + µc·Lc + µd·Ld` where
//!
//! * `Lh = Lr − Lf` (Eq 1) — the hard loss rewards fitting the remaining
//!   data and *penalises* fitting the removed data,
//! * `Lc` (Eq 2) — the **confusion loss**, the mean over removed samples of
//!   `sqrt(Var(M_S(x)))`: minimising the dispersion of the predicted
//!   distribution pushes the student towards *uniform* (unbiased)
//!   predictions on removed data,
//! * `Ld` (Eq 5) — the **distillation loss**, cross-entropy between the
//!   temperature-softened teacher and student distributions on the
//!   remaining data (Eqs 3–4).
//!
//! All gradients w.r.t. the student logits are analytic (no autograd); each
//! is verified against finite differences in the tests below.

use std::sync::Arc;

use goldfish_nn::loss::{distillation_loss_into, HardLoss};
use goldfish_tensor::{ops, Tensor};
use serde::{Deserialize, Serialize};

/// Scalar knobs of the composite loss (Eq 6), defaulting to the paper's
/// experiment configuration: `T = 3`, `µd = 1.0`, `µc = 0.25`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossWeights {
    /// Confusion-loss weight µc.
    pub mu_c: f32,
    /// Distillation-loss weight µd.
    pub mu_d: f32,
    /// Distillation temperature T.
    pub temperature: f32,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights {
            mu_c: 0.25,
            mu_d: 1.0,
            temperature: 3.0,
        }
    }
}

impl LossWeights {
    /// Ablation: hard loss only (Table X column 1).
    pub fn hard_only() -> Self {
        LossWeights {
            mu_c: 0.0,
            mu_d: 0.0,
            ..LossWeights::default()
        }
    }

    /// Ablation: without distillation loss (Table X column 2).
    pub fn without_distillation() -> Self {
        LossWeights {
            mu_d: 0.0,
            ..LossWeights::default()
        }
    }

    /// Ablation: without confusion loss (Table X column 3).
    pub fn without_confusion() -> Self {
        LossWeights {
            mu_c: 0.0,
            ..LossWeights::default()
        }
    }
}

/// Per-batch breakdown of the composite loss value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LossBreakdown {
    /// `Lr`: hard loss on the remaining batch.
    pub hard_remaining: f32,
    /// `Lf`: hard loss on the removed batch (enters the total negatively).
    pub hard_forget: f32,
    /// `Lc`: confusion loss on the removed batch.
    pub confusion: f32,
    /// `Ld`: distillation loss on the remaining batch.
    pub distillation: f32,
}

impl LossBreakdown {
    /// The total Eq 6 value under the given weights.
    pub(crate) fn total(&self, w: &LossWeights) -> f32 {
        self.hard_remaining - self.hard_forget
            + w.mu_c * self.confusion
            + w.mu_d * self.distillation
    }
}

/// The Goldfish composite loss with a pluggable hard loss.
#[derive(Clone)]
pub struct GoldfishLoss {
    weights: LossWeights,
    hard: Arc<dyn HardLoss>,
}

impl std::fmt::Debug for GoldfishLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GoldfishLoss(hard: {}, {:?})",
            self.hard.name(),
            self.weights
        )
    }
}

impl GoldfishLoss {
    /// Creates the composite loss.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is not positive or a weight is negative.
    pub fn new(hard: Arc<dyn HardLoss>, weights: LossWeights) -> Self {
        assert!(
            weights.temperature > 0.0,
            "temperature must be positive, got {}",
            weights.temperature
        );
        assert!(
            weights.mu_c >= 0.0 && weights.mu_d >= 0.0,
            "loss weights must be non-negative"
        );
        GoldfishLoss { weights, hard }
    }

    /// The configured weights.
    pub(crate) fn weights(&self) -> &LossWeights {
        &self.weights
    }

    /// Overrides the temperature (the adaptive-temperature mechanism of the
    /// extension module does this per client).
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive.
    pub(crate) fn set_temperature(&mut self, t: f32) {
        assert!(t > 0.0, "temperature must be positive, got {t}");
        self.weights.temperature = t;
    }

    /// Fused composite loss and gradient, written into a caller-owned
    /// gradient tensor — the allocation-free form of
    /// [`GoldfishLoss::remaining_grad`] / [`GoldfishLoss::forget_grad`]
    /// that the runtime distillation loop
    /// ([`crate::basic_model::train_distill`]) calls every step.
    ///
    /// All intermediates (the softened teacher distribution, the staged
    /// distillation / confusion term, the per-row `∂L/∂p` row) live in
    /// the caller's [`GoldfishLossBufs`]; after warm-up a call performs
    /// zero heap allocations on the cross-entropy hard-loss path, and
    /// values are **bitwise identical** to the composed two-method path
    /// (pinned by proptests in `crates/core/tests`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, out-of-range labels, or a negative
    /// `hard_scale`.
    pub fn loss_and_grad_into(
        &self,
        batch: GoldfishBatch<'_>,
        grad: &mut Tensor,
        bufs: &mut GoldfishLossBufs,
    ) -> LossBreakdown {
        match batch {
            GoldfishBatch::Remaining {
                student_logits,
                teacher_logits,
                labels,
            } => {
                let hard_val = self.hard.loss_and_grad_into(student_logits, labels, grad);
                let mut breakdown = LossBreakdown {
                    hard_remaining: hard_val,
                    ..LossBreakdown::default()
                };
                if let (Some(teacher), true) = (teacher_logits, self.weights.mu_d > 0.0) {
                    assert_eq!(
                        teacher.shape(),
                        student_logits.shape(),
                        "teacher/student logit shapes differ"
                    );
                    let ld = distillation_loss_into(
                        student_logits,
                        teacher,
                        self.weights.temperature,
                        &mut bufs.term,
                        &mut bufs.probs,
                    );
                    breakdown.distillation = ld;
                    grad.axpy(self.weights.mu_d, &bufs.term);
                }
                breakdown
            }
            GoldfishBatch::Forget {
                student_logits,
                labels,
                hard_scale,
            } => {
                assert!(hard_scale >= 0.0, "hard_scale must be non-negative");
                let (n, c) = student_logits.dims2();
                let hard_val = self.hard.loss_and_grad_into(student_logits, labels, grad);
                // In-place counterpart of `hard_grad.scale(-hard_scale)`.
                for g in grad.as_mut_slice() {
                    *g *= -hard_scale;
                }
                // Gate: rows already at/below chance stop receiving ascent.
                ops::softmax_t_into(student_logits, 1.0, &mut bufs.probs);
                let chance = 1.0 / c as f32;
                for (r, &label) in labels.iter().enumerate().take(n) {
                    if bufs.probs.at2(r, label) <= chance {
                        for g in grad.row_mut(r) {
                            *g = 0.0;
                        }
                    }
                }
                let mut breakdown = LossBreakdown {
                    hard_forget: hard_scale * hard_val,
                    ..LossBreakdown::default()
                };
                if self.weights.mu_c > 0.0 {
                    let lc = confusion_from_probs(&bufs.probs, &mut bufs.term, &mut bufs.dl_dp);
                    breakdown.confusion = lc;
                    grad.axpy(self.weights.mu_c, &bufs.term);
                }
                breakdown
            }
        }
    }

    /// Loss and gradient w.r.t. the student logits for a **remaining-data**
    /// batch: `Lr + µd·Ld` (the positive hard term plus distillation from
    /// the teacher).
    ///
    /// `teacher_logits` may be `None`, in which case the distillation term
    /// is skipped regardless of `µd` (used by the hard-only ablation and by
    /// plain training).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between the two logit tensors.
    pub fn remaining_grad(
        &self,
        student_logits: &Tensor,
        teacher_logits: Option<&Tensor>,
        labels: &[usize],
    ) -> (LossBreakdown, Tensor) {
        let mut grad = Tensor::zeros(vec![0]);
        let hard_val = self
            .hard
            .loss_and_grad_into(student_logits, labels, &mut grad);
        let mut breakdown = LossBreakdown {
            hard_remaining: hard_val,
            ..LossBreakdown::default()
        };
        if let (Some(teacher), true) = (teacher_logits, self.weights.mu_d > 0.0) {
            assert_eq!(
                teacher.shape(),
                student_logits.shape(),
                "teacher/student logit shapes differ"
            );
            let (ld, ld_grad) =
                distillation_loss(student_logits, teacher, self.weights.temperature);
            breakdown.distillation = ld;
            grad.axpy(self.weights.mu_d, &ld_grad);
        }
        (breakdown, grad)
    }

    /// Loss and gradient w.r.t. the student logits for a **removed-data**
    /// batch: `−s·Lf + µc·Lc` (gradient *ascent* on the hard loss plus the
    /// confusion term).
    ///
    /// `hard_scale` is the weight `s` of the ascent term. The paper writes
    /// `Lh = Lr − Lf` with *sum*-based losses over datasets of very
    /// different sizes (`|D_r| ≫ |D_f|`); on batch means the equivalent
    /// weighting is `s = |D_f|/|D_r|` — unbounded ascent at full batch
    /// strength destroys the model instead of gently suppressing the
    /// removed data. Pass `1.0` to weight both terms equally.
    ///
    /// The ascent is **gated per sample**: once a removed sample's
    /// true-label probability has fallen to chance level (`≤ 1/α`), its
    /// hard-ascent gradient is switched off. Unbounded CE ascent would
    /// otherwise drive the model to *anti-predict* the removed labels —
    /// both numerically divergent and contrary to the paper's stated
    /// validity goal (the confusion loss explicitly wants *unbiased*
    /// predictions on `D_f`, Eq 2).
    ///
    /// # Panics
    ///
    /// Panics if `hard_scale` is negative.
    pub fn forget_grad(
        &self,
        student_logits: &Tensor,
        labels: &[usize],
        hard_scale: f32,
    ) -> (LossBreakdown, Tensor) {
        assert!(hard_scale >= 0.0, "hard_scale must be non-negative");
        let (n, c) = student_logits.dims2();
        let mut grad = Tensor::zeros(vec![0]);
        let hard_val = self
            .hard
            .loss_and_grad_into(student_logits, labels, &mut grad);
        grad.scale_mut(-hard_scale);
        // Gate: rows already at/below chance stop receiving ascent.
        let p = ops::softmax(student_logits);
        let chance = 1.0 / c as f32;
        for (r, &label) in labels.iter().enumerate().take(n) {
            if p.at2(r, label) <= chance {
                for g in grad.row_mut(r) {
                    *g = 0.0;
                }
            }
        }
        let mut breakdown = LossBreakdown {
            hard_forget: hard_scale * hard_val,
            ..LossBreakdown::default()
        };
        if self.weights.mu_c > 0.0 {
            let (lc, lc_grad) = confusion_loss(student_logits);
            breakdown.confusion = lc;
            grad.axpy(self.weights.mu_c, &lc_grad);
        }
        (breakdown, grad)
    }
}

/// One mini-batch as seen by the fused composite loss
/// ([`GoldfishLoss::loss_and_grad_into`]): either a remaining-data batch
/// (positive hard term plus distillation from the teacher) or a
/// removed-data batch (gated hard ascent plus confusion).
#[derive(Debug, Clone, Copy)]
pub enum GoldfishBatch<'a> {
    /// A batch drawn from `D_r^c`: contributes `Lr + µd·Ld`.
    Remaining {
        /// Student logits for the batch.
        student_logits: &'a Tensor,
        /// Teacher logits for the same inputs; `None` skips distillation
        /// (the hard-only ablation and plain training).
        teacher_logits: Option<&'a Tensor>,
        /// True labels, one per row.
        labels: &'a [usize],
    },
    /// A batch drawn from `D_f^c`: contributes `−s·Lf + µc·Lc`, with the
    /// ascent gated per sample (see [`GoldfishLoss::forget_grad`]).
    Forget {
        /// Student logits for the batch.
        student_logits: &'a Tensor,
        /// True labels, one per row.
        labels: &'a [usize],
        /// The ascent weight `s` (see [`GoldfishLoss::forget_grad`]).
        hard_scale: f32,
    },
}

/// Persistent scratch of the fused composite loss: one set per training
/// loop, reused every step so the hot path never touches the allocator
/// after warm-up (DESIGN.md §9).
#[derive(Debug)]
pub struct GoldfishLossBufs {
    /// The softened teacher distribution (remaining batches) or the
    /// student's prediction distribution (forget batches, for the ascent
    /// gate and the confusion term).
    probs: Tensor,
    /// Staging buffer for the distillation / confusion gradient term
    /// before its weighted accumulation into the caller's gradient.
    term: Tensor,
    /// Per-row `∂Lc/∂p` staging of the confusion gradient.
    dl_dp: Vec<f32>,
}

impl GoldfishLossBufs {
    /// Creates an empty scratch set (buffers sized on first use).
    pub fn new() -> Self {
        GoldfishLossBufs {
            probs: Tensor::zeros(vec![0]),
            term: Tensor::zeros(vec![0]),
            dl_dp: Vec::new(),
        }
    }
}

impl Default for GoldfishLossBufs {
    fn default() -> Self {
        GoldfishLossBufs::new()
    }
}

/// The [`confusion_loss`] value and gradient computed from an
/// already-materialised prediction distribution, written into a reused
/// gradient buffer — arithmetic is operation-for-operation the composed
/// form's, so results are bitwise identical.
fn confusion_from_probs(p: &Tensor, grad: &mut Tensor, dl_dp: &mut Vec<f32>) -> f32 {
    let (n, c) = p.dims2();
    grad.resize(&[n, c]);
    grad.zero_mut();
    if n == 0 {
        return 0.0;
    }
    let uniform = 1.0 / c as f32;
    let mut total = 0.0f32;
    for r in 0..n {
        let prow = p.row(r);
        let var: f32 = prow.iter().map(|&pk| (pk - uniform).powi(2)).sum::<f32>() / c as f32;
        let sd = var.sqrt();
        total += sd;
        if sd < 1e-8 {
            continue; // already uniform: flat spot of sqrt, treat as zero
        }
        // dL/dp_k for this sample, staged in the reused row buffer.
        dl_dp.clear();
        dl_dp.extend(prow.iter().map(|&pk| (pk - uniform) / (c as f32 * sd)));
        // Chain through the softmax Jacobian: dL/dz_i = p_i (dL/dp_i − Σ_k dL/dp_k p_k).
        let dot: f32 = dl_dp.iter().zip(prow.iter()).map(|(&a, &b)| a * b).sum();
        let grow = grad.row_mut(r);
        for i in 0..c {
            grow[i] = prow[i] * (dl_dp[i] - dot) / n as f32;
        }
    }
    total / n as f32
}

/// Confusion loss (Eq 2) and its gradient w.r.t. the logits.
///
/// For each sample, `Lc = sqrt(Var(p))` with `p = softmax(z)`; the batch
/// value is the mean. Since `p` sums to one, its mean is exactly `1/α`, so
/// `Var(p) = (1/α) Σ_k (p_k − 1/α)²`. The gradient chains
/// `∂√V/∂p_k = (p_k − 1/α)/(α·√V)` through the softmax Jacobian. A batch
/// row that is already uniform (V ≈ 0) contributes zero gradient.
pub fn confusion_loss(logits: &Tensor) -> (f32, Tensor) {
    let (n, c) = logits.dims2();
    let p = ops::softmax(logits);
    let mut grad = Tensor::zeros(vec![n, c]);
    if n == 0 {
        return (0.0, grad);
    }
    let uniform = 1.0 / c as f32;
    let mut total = 0.0f32;
    for r in 0..n {
        let prow = p.row(r).to_vec();
        let var: f32 = prow.iter().map(|&pk| (pk - uniform).powi(2)).sum::<f32>() / c as f32;
        let sd = var.sqrt();
        total += sd;
        if sd < 1e-8 {
            continue; // already uniform: flat spot of sqrt, treat as zero
        }
        // dL/dp_k for this sample.
        let dl_dp: Vec<f32> = prow
            .iter()
            .map(|&pk| (pk - uniform) / (c as f32 * sd))
            .collect();
        // Chain through the softmax Jacobian: dL/dz_i = p_i (dL/dp_i − Σ_k dL/dp_k p_k).
        let dot: f32 = dl_dp.iter().zip(prow.iter()).map(|(&a, &b)| a * b).sum();
        let grow = grad.row_mut(r);
        for i in 0..c {
            grow[i] = prow[i] * (dl_dp[i] - dot) / n as f32;
        }
    }
    (total / n as f32, grad)
}

/// Distillation loss (Eq 5) and its gradient w.r.t. the student logits.
///
/// `Ld = −(1/n) Σ_i Σ_k P^T_ik · log P^S_ik` with both distributions
/// softened at temperature `T` (Eqs 3–4). The exact gradient is
/// `(P^S − P^T) / (n·T)`.
///
/// This is the allocating wrapper over the fused
/// [`goldfish_nn::loss::distillation_loss_into`] (both forms share one
/// implementation, so they are bitwise identical by construction).
///
/// # Panics
///
/// Panics if shapes differ or `t <= 0`.
pub fn distillation_loss(
    student_logits: &Tensor,
    teacher_logits: &Tensor,
    t: f32,
) -> (f32, Tensor) {
    let mut grad = Tensor::zeros(vec![0]);
    let mut teacher_probs = Tensor::zeros(vec![0]);
    let loss = distillation_loss_into(
        student_logits,
        teacher_logits,
        t,
        &mut grad,
        &mut teacher_probs,
    );
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_nn::loss::CrossEntropy;
    use goldfish_tensor::init;
    use rand::{rngs::StdRng, SeedableRng};

    fn fd_check(
        value_of: impl Fn(&Tensor) -> f32,
        grad: &Tensor,
        logits: &Tensor,
        tol: f32,
        label: &str,
    ) {
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let fd = (value_of(&lp) - value_of(&lm)) / (2.0 * eps);
            let an = grad.as_slice()[i];
            assert!(
                (fd - an).abs() < tol,
                "{label} grad[{i}]: fd {fd} vs an {an}"
            );
        }
    }

    #[test]
    fn confusion_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(0);
        let logits = init::normal(&mut rng, vec![3, 5], 0.0, 1.0);
        let (_, grad) = confusion_loss(&logits);
        fd_check(|l| confusion_loss(l).0, &grad, &logits, 5e-3, "confusion");
    }

    #[test]
    fn confusion_is_zero_for_uniform_predictions() {
        let logits = Tensor::zeros(vec![2, 4]); // softmax → uniform
        let (val, grad) = confusion_loss(&logits);
        assert!(val < 1e-6);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn confusion_is_high_for_confident_predictions() {
        let mut logits = Tensor::filled(vec![1, 4], -10.0);
        logits.as_mut_slice()[0] = 10.0;
        let (val, _) = confusion_loss(&logits);
        // One-hot over 4 classes: Var = ((3/4)² + 3·(1/4)²)/4 = 0.1875.
        assert!((val - 0.1875f32.sqrt()).abs() < 1e-3, "val {val}");
    }

    #[test]
    fn distillation_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let student = init::normal(&mut rng, vec![3, 4], 0.0, 1.0);
        let teacher = init::normal(&mut rng, vec![3, 4], 0.0, 1.0);
        for &t in &[1.0f32, 3.0, 5.0] {
            let (_, grad) = distillation_loss(&student, &teacher, t);
            fd_check(
                |l| distillation_loss(l, &teacher, t).0,
                &grad,
                &student,
                5e-3,
                "distillation",
            );
        }
    }

    #[test]
    fn distillation_zero_when_student_matches_teacher() {
        let mut rng = StdRng::seed_from_u64(2);
        let logits = init::normal(&mut rng, vec![2, 3], 0.0, 1.0);
        let (_, grad) = distillation_loss(&logits, &logits, 3.0);
        assert!(grad.as_slice().iter().all(|&g| g.abs() < 1e-6));
    }

    #[test]
    fn higher_temperature_softens_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let student = init::normal(&mut rng, vec![2, 4], 0.0, 2.0);
        let teacher = init::normal(&mut rng, vec![2, 4], 0.0, 2.0);
        let (_, g1) = distillation_loss(&student, &teacher, 1.0);
        let (_, g5) = distillation_loss(&student, &teacher, 5.0);
        let n1: f32 = g1.as_slice().iter().map(|g| g.abs()).sum();
        let n5: f32 = g5.as_slice().iter().map(|g| g.abs()).sum();
        assert!(n5 < n1, "T=5 grad norm {n5} !< T=1 {n1}");
    }

    #[test]
    fn remaining_grad_composes_hard_and_distillation() {
        let mut rng = StdRng::seed_from_u64(4);
        let student = init::normal(&mut rng, vec![4, 3], 0.0, 1.0);
        let teacher = init::normal(&mut rng, vec![4, 3], 0.0, 1.0);
        let labels = vec![0usize, 1, 2, 0];
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let (bd, grad) = loss.remaining_grad(&student, Some(&teacher), &labels);
        assert!(bd.hard_remaining > 0.0);
        assert!(bd.distillation > 0.0);
        assert_eq!(bd.hard_forget, 0.0);
        // Total-gradient finite difference.
        let w = *loss.weights();
        fd_check(
            |l| {
                let h = CrossEntropy.loss_and_grad_into(l, &labels, &mut Tensor::zeros(vec![0]));
                let (d, _) = distillation_loss(l, &teacher, w.temperature);
                h + w.mu_d * d
            },
            &grad,
            &student,
            5e-3,
            "remaining total",
        );
    }

    #[test]
    fn forget_grad_is_ascent_plus_confusion() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut student = init::normal(&mut rng, vec![3, 4], 0.0, 1.0);
        let labels = vec![1usize, 2, 3];
        // Keep every row's true-label probability above chance so the
        // per-sample ascent gate stays open (gated rows are non-smooth).
        for (r, &l) in labels.iter().enumerate() {
            student.row_mut(r)[l] += 2.0;
        }
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let (bd, grad) = loss.forget_grad(&student, &labels, 1.0);
        assert!(bd.hard_forget > 0.0);
        let w = *loss.weights();
        fd_check(
            |l| {
                let h = CrossEntropy.loss_and_grad_into(l, &labels, &mut Tensor::zeros(vec![0]));
                let (c, _) = confusion_loss(l);
                -h + w.mu_c * c
            },
            &grad,
            &student,
            5e-3,
            "forget total",
        );
    }

    #[test]
    fn forget_grad_gates_below_chance_rows() {
        // A row whose true-label probability is already below chance must
        // receive only the confusion gradient.
        let mut logits = Tensor::zeros(vec![1, 4]);
        logits.as_mut_slice()[0] = -5.0; // true label 0 heavily suppressed
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::hard_only());
        let (_, grad) = loss.forget_grad(&logits, &[0], 1.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0), "{grad}");
    }

    #[test]
    fn forget_grad_scales_hard_term_only() {
        let mut rng = StdRng::seed_from_u64(7);
        let student = init::normal(&mut rng, vec![2, 4], 0.0, 1.0);
        let labels = vec![0usize, 3];
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let (bd_full, _) = loss.forget_grad(&student, &labels, 1.0);
        let (bd_half, _) = loss.forget_grad(&student, &labels, 0.5);
        assert!((bd_half.hard_forget - 0.5 * bd_full.hard_forget).abs() < 1e-6);
        assert!((bd_half.confusion - bd_full.confusion).abs() < 1e-6);
    }

    #[test]
    fn ablation_weights_disable_components() {
        let mut rng = StdRng::seed_from_u64(6);
        let student = init::normal(&mut rng, vec![2, 3], 0.0, 1.0);
        let teacher = init::normal(&mut rng, vec![2, 3], 0.0, 1.0);
        let labels = vec![0usize, 1];

        let hard_only = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::hard_only());
        let (bd, _) = hard_only.remaining_grad(&student, Some(&teacher), &labels);
        assert_eq!(bd.distillation, 0.0);
        let (bd_f, _) = hard_only.forget_grad(&student, &labels, 1.0);
        assert_eq!(bd_f.confusion, 0.0);

        let no_conf = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::without_confusion());
        let (bd2, _) = no_conf.remaining_grad(&student, Some(&teacher), &labels);
        assert!(bd2.distillation > 0.0);
    }

    #[test]
    fn breakdown_total_matches_eq6() {
        let bd = LossBreakdown {
            hard_remaining: 2.0,
            hard_forget: 0.5,
            confusion: 0.4,
            distillation: 1.0,
        };
        let w = LossWeights {
            mu_c: 0.25,
            mu_d: 1.0,
            temperature: 3.0,
        };
        assert!((bd.total(&w) - (2.0 - 0.5 + 0.1 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn fused_remaining_is_bitwise_identical_to_composed() {
        let mut rng = StdRng::seed_from_u64(21);
        let student = init::normal(&mut rng, vec![5, 4], 0.0, 2.0);
        let teacher = init::normal(&mut rng, vec![5, 4], 0.0, 2.0);
        let labels = vec![0usize, 1, 2, 3, 0];
        let mut grad = Tensor::zeros(vec![0]);
        let mut bufs = GoldfishLossBufs::new();
        for weights in [
            LossWeights::default(),
            LossWeights::hard_only(),
            LossWeights::without_distillation(),
            LossWeights::without_confusion(),
        ] {
            let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights);
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
            assert_eq!(got_bd, want_bd);
            for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fused_forget_is_bitwise_identical_to_composed() {
        let mut rng = StdRng::seed_from_u64(22);
        let student = init::normal(&mut rng, vec![6, 5], 0.0, 2.5);
        let labels = vec![0usize, 1, 2, 3, 4, 0];
        let mut grad = Tensor::zeros(vec![0]);
        let mut bufs = GoldfishLossBufs::new();
        for weights in [LossWeights::default(), LossWeights::hard_only()] {
            let loss = GoldfishLoss::new(Arc::new(CrossEntropy), weights);
            for &scale in &[0.0f32, 0.3, 1.0] {
                let (want_bd, want_grad) = loss.forget_grad(&student, &labels, scale);
                let got_bd = loss.loss_and_grad_into(
                    GoldfishBatch::Forget {
                        student_logits: &student,
                        labels: &labels,
                        hard_scale: scale,
                    },
                    &mut grad,
                    &mut bufs,
                );
                assert_eq!(got_bd, want_bd);
                for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "scale {scale}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_zero_temperature() {
        let _ = GoldfishLoss::new(
            Arc::new(CrossEntropy),
            LossWeights {
                temperature: 0.0,
                ..LossWeights::default()
            },
        );
    }
}
