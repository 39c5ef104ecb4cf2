//! Hard-loss functions with analytic gradients w.r.t. logits.
//!
//! The Goldfish loss (Eq 6) composes a *hard loss* with confusion and
//! distillation terms. Table XI of the paper demonstrates framework
//! compatibility with three hard losses — cross-entropy ("Total loss α"),
//! focal loss ("Total loss β") and negative log-likelihood ("Total loss γ")
//! — all three are implemented here behind the [`HardLoss`] trait.

use goldfish_tensor::{ops, Tensor};

/// A per-batch classification loss over logits: the **mean** loss over
/// the batch, with its gradient w.r.t. the logits (shape `[n, classes]`)
/// written into a caller-owned tensor — allocation-free once it is warm.
pub trait HardLoss: Send + Sync {
    /// Computes the mean loss and writes its gradient w.r.t. the logits
    /// into `grad` (resized in place, previous contents discarded).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size or a label is
    /// out of range.
    fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32;

    /// Short identifier used in experiment reports ("ce", "focal", "nll").
    fn name(&self) -> &'static str;

    /// A serializable identity of this loss, when it is one of the
    /// built-in losses a remote worker can reconstruct from a wire
    /// message. Custom losses return `None` (the default) and are
    /// restricted to in-process transports.
    fn spec(&self) -> Option<HardLossSpec> {
        None
    }
}

/// A wire-encodable identity of a built-in [`HardLoss`]. Federated
/// deployments ship this instead of a trait object: the coordinator
/// serializes the spec, the worker rebuilds the loss with
/// [`HardLossSpec::build`], and both sides compute identical numbers
/// because every built-in loss is a pure function of its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HardLossSpec {
    /// [`CrossEntropy`].
    CrossEntropy,
    /// [`Focal`] with its focusing parameter γ.
    Focal {
        /// Focusing parameter γ ≥ 0.
        gamma: f32,
    },
    /// [`Nll`].
    Nll,
}

impl HardLossSpec {
    /// Materialises the loss this spec describes.
    pub fn build(&self) -> std::sync::Arc<dyn HardLoss> {
        match *self {
            HardLossSpec::CrossEntropy => std::sync::Arc::new(CrossEntropy),
            HardLossSpec::Focal { gamma } => std::sync::Arc::new(Focal::new(gamma)),
            HardLossSpec::Nll => std::sync::Arc::new(Nll),
        }
    }
}

fn check_labels(logits: &Tensor, labels: &[usize]) -> (usize, usize) {
    let (n, c) = logits.dims2();
    assert_eq!(labels.len(), n, "labels {} != batch {n}", labels.len());
    for &l in labels {
        assert!(l < c, "label {l} out of {c} classes");
    }
    (n, c)
}

/// Standard softmax cross-entropy — the paper's default hard loss
/// ("Total loss α" in Table XI).
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropy;

impl HardLoss for CrossEntropy {
    /// Fused softmax–cross-entropy: loss and gradient in one sweep over
    /// the logits, written into the reused `grad` buffer.
    ///
    /// Per element this performs exactly the operations of the classic
    /// `log_softmax` → `exp` → subtract-one-hot → scale pipeline (the
    /// log-probability is computed as `(z − max)/T − lse` with `T = 1`,
    /// then exponentiated), so losses and gradients are bitwise identical
    /// to the seed implementation — the fusion removes the intermediate
    /// tensors, not a single floating-point rounding.
    fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        let (n, c) = check_labels(logits, labels);
        grad.resize(&[n, c]);
        let lv = logits.as_slice();
        let gv = grad.as_mut_slice();
        let mut loss = 0.0f32;
        let t = 1.0f32;
        for (r, &label) in labels.iter().enumerate() {
            let row = &lv[r * c..(r + 1) * c];
            let grow = &mut gv[r * c..(r + 1) * c];
            // Stable log-softmax of the row (same expression order as
            // ops::log_softmax_t at temperature 1): stage the raw
            // exponentials in the grad row (standalone elementwise pass —
            // vectorizable), sum them in ascending order for the lse,
            // then overwrite with exp(logp).
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (g, &z) in grow.iter_mut().zip(row.iter()) {
                *g = ((z - max) / t).exp();
            }
            let lse = grow.iter().sum::<f32>().ln();
            for (g, &z) in grow.iter_mut().zip(row.iter()) {
                *g = ((z - max) / t - lse).exp();
            }
            loss -= (row[label] - max) / t - lse;
            grow[label] -= 1.0;
        }
        let scale = 1.0 / n as f32;
        for g in gv.iter_mut() {
            *g *= scale;
        }
        loss * scale
    }

    fn name(&self) -> &'static str {
        "ce"
    }

    fn spec(&self) -> Option<HardLossSpec> {
        Some(HardLossSpec::CrossEntropy)
    }
}

/// Focal loss (Lin et al., ICCV 2017): `FL = -(1 - p_t)^γ · log(p_t)`
/// ("Total loss β" in Table XI). `γ = 0` reduces to cross-entropy.
#[derive(Debug, Clone, Copy)]
pub struct Focal {
    /// Focusing parameter γ ≥ 0.
    pub gamma: f32,
}

impl Focal {
    /// Creates a focal loss with the given focusing parameter.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is negative.
    pub fn new(gamma: f32) -> Self {
        assert!(gamma >= 0.0, "gamma must be non-negative, got {gamma}");
        Focal { gamma }
    }
}

impl Default for Focal {
    /// The paper-standard γ = 2.
    fn default() -> Self {
        Focal::new(2.0)
    }
}

impl HardLoss for Focal {
    /// Stages the softmax in `grad`, then rewrites each row in place with
    /// the focal gradient `dFL/dp_t · dp_t/dz_j`, scaled by `1/n`.
    fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        let (n, c) = check_labels(logits, labels);
        ops::softmax_t_into(logits, 1.0, grad);
        let gv = grad.as_mut_slice();
        let mut loss = 0.0f32;
        let g = self.gamma;
        let scale = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            let grow = &mut gv[r * c..(r + 1) * c];
            let pt = grow[label].clamp(1e-7, 1.0);
            let one_minus = (1.0 - pt).max(0.0);
            loss -= one_minus.powf(g) * pt.ln();
            // dFL/dp_t, then chain through the softmax Jacobian row.
            let dfl_dpt = if g == 0.0 {
                -1.0 / pt
            } else {
                g * one_minus.powf(g - 1.0) * pt.ln() - one_minus.powf(g) / pt
            };
            for (j, gj) in grow.iter_mut().enumerate() {
                let dpt_dzj = if j == label {
                    pt * (1.0 - pt)
                } else {
                    -pt * *gj
                };
                *gj = dfl_dpt * dpt_dzj * scale;
            }
        }
        loss * scale
    }

    fn name(&self) -> &'static str {
        "focal"
    }

    fn spec(&self) -> Option<HardLossSpec> {
        Some(HardLossSpec::Focal { gamma: self.gamma })
    }
}

/// Negative log-likelihood on log-softmax outputs ("Total loss γ" in
/// Table XI).
///
/// Applied to log-softmax probabilities this is analytically identical to
/// [`CrossEntropy`] — exactly as in PyTorch, where
/// `NLLLoss(log_softmax(x))` equals `CrossEntropyLoss(x)`. The paper treats
/// them as distinct configurations and observes near-identical results
/// (Table XI); we keep the separate code path for the same compatibility
/// check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nll;

impl HardLoss for Nll {
    /// Stages the log-softmax in `grad`, then rewrites each element in
    /// place with `d(−log p_t)/dz_j = p_j − δ_tj`, scaled by `1/n`.
    fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        let (n, c) = check_labels(logits, labels);
        ops::log_softmax_t_into(logits, 1.0, grad);
        let gv = grad.as_mut_slice();
        let mut loss = 0.0f32;
        let scale = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            let grow = &mut gv[r * c..(r + 1) * c];
            loss -= grow[label];
            for (j, gj) in grow.iter_mut().enumerate() {
                *gj = (gj.exp() - if j == label { 1.0 } else { 0.0 }) * scale;
            }
        }
        loss * scale
    }

    fn name(&self) -> &'static str {
        "nll"
    }

    fn spec(&self) -> Option<HardLossSpec> {
        Some(HardLossSpec::Nll)
    }
}

/// Temperature-softened distillation loss (Goldfish Eqs 3–5) and its
/// gradient w.r.t. the student logits, written into caller-owned buffers
/// — the fused form every distillation training loop calls per step.
///
/// `Ld = −(1/n) Σ_i Σ_k P^T_ik · log P^S_ik` with both distributions
/// softened at temperature `t`; the exact gradient `(P^S − P^T)/(n·t)`
/// lands in `grad` (resized in place) and the teacher distribution in
/// `teacher_probs` (a scratch buffer callers keep warm across steps).
/// Per element this performs exactly the operations of the classic
/// `softmax_t` / `log_softmax_t` / `exp` / `sub` / `scale` pipeline, so
/// losses and gradients are bitwise identical to the composed form;
/// after warm-up no heap allocation happens.
///
/// # Panics
///
/// Panics if the logit shapes differ or `t <= 0`.
pub fn distillation_loss_into(
    student_logits: &Tensor,
    teacher_logits: &Tensor,
    t: f32,
    grad: &mut Tensor,
    teacher_probs: &mut Tensor,
) -> f32 {
    assert_eq!(
        student_logits.shape(),
        teacher_logits.shape(),
        "teacher/student logit shapes differ"
    );
    assert!(t > 0.0, "temperature must be positive, got {t}");
    let (n, _c) = student_logits.dims2();
    if n == 0 {
        grad.resize(student_logits.shape());
        return 0.0;
    }
    ops::softmax_t_into(teacher_logits, t, teacher_probs);
    // Stage log P^S in the gradient buffer, reduce the loss against the
    // teacher distribution in row-major order (the same accumulation
    // sequence the composed pipeline used), then overwrite in place with
    // the gradient.
    ops::log_softmax_t_into(student_logits, t, grad);
    let loss = -teacher_probs
        .as_slice()
        .iter()
        .zip(grad.as_slice().iter())
        .map(|(&a, &b)| a * b)
        .sum::<f32>()
        / n as f32;
    let inv = 1.0 / (n as f32 * t);
    for (g, &pt) in grad.as_mut_slice().iter_mut().zip(teacher_probs.as_slice()) {
        *g = (g.exp() - pt) * inv;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_tensor::init;
    use rand::{rngs::StdRng, SeedableRng};

    fn loss_and_grad(loss: &dyn HardLoss, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let mut grad = Tensor::zeros(vec![0]);
        let l = loss.loss_and_grad_into(logits, labels, &mut grad);
        (l, grad)
    }

    fn finite_diff_check(loss: &dyn HardLoss, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = init::normal(&mut rng, vec![3, 4], 0.0, 1.5);
        let labels = vec![0usize, 3, 2];
        let (_, grad) = loss_and_grad(loss, &logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let fp = loss_and_grad(loss, &lp, &labels).0;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let fm = loss_and_grad(loss, &lm, &labels).0;
            let fd = (fp - fm) / (2.0 * eps);
            let an = grad.as_slice()[i];
            assert!(
                (fd - an).abs() < 5e-3,
                "{} grad[{i}]: fd {fd} vs an {an}",
                loss.name()
            );
        }
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        finite_diff_check(&CrossEntropy, 0);
    }

    #[test]
    fn focal_gradient_matches_finite_difference() {
        finite_diff_check(&Focal::new(2.0), 1);
    }

    #[test]
    fn nll_gradient_matches_finite_difference() {
        finite_diff_check(&Nll, 2);
    }

    #[test]
    fn focal_gamma_zero_equals_ce() {
        let mut rng = StdRng::seed_from_u64(5);
        let logits = init::normal(&mut rng, vec![4, 5], 0.0, 2.0);
        let labels = vec![1usize, 0, 4, 2];
        let (l1, g1) = loss_and_grad(&CrossEntropy, &logits, &labels);
        let (l2, g2) = loss_and_grad(&Focal::new(0.0), &logits, &labels);
        assert!((l1 - l2).abs() < 1e-4);
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn nll_equals_ce_analytically() {
        let mut rng = StdRng::seed_from_u64(6);
        let logits = init::normal(&mut rng, vec![4, 3], 0.0, 1.0);
        let labels = vec![2usize, 1, 0, 1];
        let (l1, g1) = loss_and_grad(&CrossEntropy, &logits, &labels);
        let (l2, g2) = loss_and_grad(&Nll, &logits, &labels);
        assert!((l1 - l2).abs() < 1e-5);
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn ce_perfect_prediction_has_near_zero_loss() {
        let mut logits = Tensor::filled(vec![1, 3], -20.0);
        logits.as_mut_slice()[1] = 20.0;
        let (l, _) = loss_and_grad(&CrossEntropy, &logits, &[1]);
        assert!(l < 1e-5);
    }

    #[test]
    fn focal_downweights_easy_examples() {
        // An easy example (high p_t) should contribute much less focal loss
        // relative to CE than a hard example.
        let easy = Tensor::from_vec(vec![1, 2], vec![5.0, -5.0]);
        let hard = Tensor::from_vec(vec![1, 2], vec![0.1, -0.1]);
        let f = Focal::new(2.0);
        let ratio =
            |x: &Tensor| loss_and_grad(&f, x, &[0]).0 / loss_and_grad(&CrossEntropy, x, &[0]).0;
        let (ratio_easy, ratio_hard) = (ratio(&easy), ratio(&hard));
        assert!(ratio_easy < ratio_hard);
    }

    #[test]
    #[should_panic(expected = "label 5 out of 3 classes")]
    fn rejects_out_of_range_label() {
        let _ = loss_and_grad(&CrossEntropy, &Tensor::zeros(vec![1, 3]), &[5]);
    }

    /// Focal and NLL as they were computed before they wrote into the
    /// caller's buffer: allocated softmax / log-softmax, a per-row copy of
    /// the probabilities and a separate scaling pass.
    fn focal_composed(g: f32, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (n, c) = logits.dims2();
        let p = ops::softmax(logits);
        let mut grad = Tensor::zeros(vec![n, c]);
        let mut loss = 0.0f32;
        for (r, &label) in labels.iter().enumerate() {
            let pt = p.at2(r, label).clamp(1e-7, 1.0);
            let one_minus = (1.0 - pt).max(0.0);
            loss -= one_minus.powf(g) * pt.ln();
            let dfl_dpt = if g == 0.0 {
                -1.0 / pt
            } else {
                g * one_minus.powf(g - 1.0) * pt.ln() - one_minus.powf(g) / pt
            };
            let prow = p.row(r).to_vec();
            for (j, gj) in grad.row_mut(r).iter_mut().enumerate() {
                let dpt_dzj = if j == label {
                    pt * (1.0 - pt)
                } else {
                    -pt * prow[j]
                };
                *gj = dfl_dpt * dpt_dzj;
            }
        }
        let scale = 1.0 / n as f32;
        grad.scale_mut(scale);
        (loss * scale, grad)
    }

    fn nll_composed(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (n, c) = logits.dims2();
        let logp = ops::log_softmax_t(logits, 1.0);
        let mut loss = 0.0f32;
        let mut grad = Tensor::zeros(vec![n, c]);
        for (r, &label) in labels.iter().enumerate() {
            loss -= logp.at2(r, label);
            let prow: Vec<f32> = logp.row(r).iter().map(|v| v.exp()).collect();
            for (j, gj) in grad.row_mut(r).iter_mut().enumerate() {
                *gj = prow[j] - if j == label { 1.0 } else { 0.0 };
            }
        }
        let scale = 1.0 / n as f32;
        grad.scale_mut(scale);
        (loss * scale, grad)
    }

    #[test]
    fn focal_and_nll_into_match_composed_form_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        // One warm buffer across shapes and losses, as a training loop
        // keeps it; a confident row exercises the `p_t` clamp.
        let mut grad = Tensor::zeros(vec![0]);
        for &(n, c) in &[(1usize, 2usize), (5, 4), (7, 10), (32, 10)] {
            let mut logits = init::normal(&mut rng, vec![n, c], 0.0, 3.0);
            logits.as_mut_slice()[0] = 40.0;
            let labels: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % c).collect();
            let mut check = |loss: &dyn HardLoss, (want_loss, want_grad): (f32, Tensor)| {
                let got = loss.loss_and_grad_into(&logits, &labels, &mut grad);
                let what = format!("{} [{n}, {c}]", loss.name());
                assert_eq!(got.to_bits(), want_loss.to_bits(), "loss of {what}");
                assert_eq!(grad.shape(), want_grad.shape(), "{what}");
                for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "grad of {what}");
                }
            };
            for focal in [Focal::new(0.0), Focal::default(), Focal::new(0.5)] {
                check(&focal, focal_composed(focal.gamma, &logits, &labels));
            }
            check(&Nll, nll_composed(&logits, &labels));
        }
    }

    #[test]
    fn distillation_into_matches_composed_pipeline_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let student = init::normal(&mut rng, vec![5, 4], 0.0, 2.0);
        let teacher = init::normal(&mut rng, vec![5, 4], 0.0, 2.0);
        let mut grad = Tensor::zeros(vec![0]);
        let mut probs = Tensor::zeros(vec![0]);
        for &t in &[0.5f32, 1.0, 3.0, 7.5] {
            // The composed pipeline the fused form replaces.
            let p_t = ops::softmax_t(&teacher, t);
            let log_p_s = ops::log_softmax_t(&student, t);
            let n = 5usize;
            let want_loss = -p_t
                .as_slice()
                .iter()
                .zip(log_p_s.as_slice().iter())
                .map(|(&a, &b)| a * b)
                .sum::<f32>()
                / n as f32;
            let p_s = log_p_s.map(|v| v.exp());
            let mut want_grad = p_s.sub(&p_t);
            want_grad.scale_mut(1.0 / (n as f32 * t));

            let got_loss = distillation_loss_into(&student, &teacher, t, &mut grad, &mut probs);
            assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "loss at T={t}");
            assert_eq!(grad.shape(), want_grad.shape());
            for (a, b) in grad.as_slice().iter().zip(want_grad.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad at T={t}");
            }
        }
    }

    #[test]
    fn distillation_into_empty_batch_is_zero() {
        let logits = Tensor::zeros(vec![0, 3]);
        let mut grad = Tensor::zeros(vec![0]);
        let mut probs = Tensor::zeros(vec![0]);
        let l = distillation_loss_into(&logits, &logits, 3.0, &mut grad, &mut probs);
        assert_eq!(l, 0.0);
        assert_eq!(grad.shape(), &[0, 3]);
    }
}
