//! Distribution-distance metrics between two models' predictions.
//!
//! Tables VII–IX of the paper compare the unlearned model's predictive
//! distribution against the retrained-from-scratch reference (B1) using
//! Jensen–Shannon divergence and L2 distance. Both are computed
//! **per sample** over the two `[n, classes]` probability tensors and then
//! averaged; JSD uses the natural logarithm, so its per-sample maximum is
//! `ln 2 ≈ 0.693` — matching the scale of the paper's reported values.

use goldfish_tensor::Tensor;

const EPS: f64 = 1e-12;

/// Kullback–Leibler divergence `KL(p ‖ q)` in nats for one distribution
/// pair. Zero-probability entries are clamped at `1e-12`.
fn kl(p: &[f32], q: &[f32]) -> f64 {
    p.iter()
        .zip(q.iter())
        .map(|(&pi, &qi)| {
            let pi = pi as f64;
            let qi = (qi as f64).max(EPS);
            if pi <= EPS {
                0.0
            } else {
                pi * (pi / qi).ln()
            }
        })
        .sum()
}

/// Jensen–Shannon divergence of a single distribution pair, in nats.
/// Bounded in `[0, ln 2]`.
pub(crate) fn jsd(p: &[f32], q: &[f32]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution lengths differ");
    let m: Vec<f32> = p
        .iter()
        .zip(q.iter())
        .map(|(&a, &b)| 0.5 * (a + b))
        .collect();
    0.5 * kl(p, &m) + 0.5 * kl(q, &m)
}

/// Mean per-sample JSD between two `[n, classes]` probability tensors.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn jsd_mean(p: &Tensor, q: &Tensor) -> f64 {
    assert_eq!(p.shape(), q.shape(), "prediction tensor shapes differ");
    let (n, _) = p.dims2();
    if n == 0 {
        return 0.0;
    }
    (0..n).map(|r| jsd(p.row(r), q.row(r))).sum::<f64>() / n as f64
}

/// Mean per-sample Euclidean (L2) distance between two `[n, classes]`
/// probability tensors.
///
/// The paper describes its "L2 distance" as a mean-squared-error style
/// dissimilarity between the two predictive distributions without fixing
/// the exact normalisation; we use the per-sample Euclidean norm
/// `‖p_i − q_i‖₂` averaged over samples (documented in DESIGN.md §3).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn l2_mean(p: &Tensor, q: &Tensor) -> f64 {
    assert_eq!(p.shape(), q.shape(), "prediction tensor shapes differ");
    let (n, c) = p.dims2();
    if n == 0 {
        return 0.0;
    }
    let pv = p.as_slice();
    let qv = q.as_slice();
    (0..n)
        .map(|r| {
            let mut acc = 0.0f64;
            for i in r * c..(r + 1) * c {
                let d = (pv[i] - qv[i]) as f64;
                acc += d * d;
            }
            acc.sqrt()
        })
        .sum::<f64>()
        / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsd_identical_is_zero() {
        let p = [0.2f32, 0.3, 0.5];
        assert!(jsd(&p, &p) < 1e-12);
    }

    #[test]
    fn jsd_disjoint_is_ln2() {
        let p = [1.0f32, 0.0];
        let q = [0.0f32, 1.0];
        assert!((jsd(&p, &q) - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn jsd_is_symmetric() {
        let p = [0.7f32, 0.2, 0.1];
        let q = [0.1f32, 0.6, 0.3];
        assert!((jsd(&p, &q) - jsd(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn jsd_mean_averages() {
        let p = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.5, 0.5]);
        let q = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 0.5, 0.5]);
        // First pair: ln2; second: 0 → mean ln2/2.
        assert!((jsd_mean(&p, &q) - std::f64::consts::LN_2 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn l2_of_identical_is_zero() {
        let p = Tensor::from_vec(vec![1, 3], vec![0.2, 0.3, 0.5]);
        assert_eq!(l2_mean(&p, &p), 0.0);
    }

    #[test]
    fn l2_disjoint_onehot_is_sqrt2() {
        let p = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0]);
        let q = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]);
        assert!((l2_mean(&p, &q) - std::f64::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn empty_tensors_give_zero() {
        let p = Tensor::from_vec(vec![0, 3], vec![]);
        assert_eq!(jsd_mean(&p, &p), 0.0);
        assert_eq!(l2_mean(&p, &p), 0.0);
    }
}
