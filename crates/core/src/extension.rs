//! The extension module: adaptive distillation temperature (Eq 11) and
//! adaptive aggregation weights (Eqs 12–13).
//!
//! The Eq 12 weights are [`adaptive_weights`], re-exported from
//! `goldfish_fed::aggregate`: they are one holding rule of the round
//! loop's accumulator, applied server-side once a round's uploads are
//! all in (`goldfish_fed::transport::Weighting::ServerMse`), so a
//! `Federation`, an unlearning drain and a serve coordinator weigh
//! uploads with the same code.

pub use goldfish_fed::aggregate::adaptive_weights;
use serde::{Deserialize, Serialize};

/// Parameters of the adaptive distillation temperature (Eq 11):
/// `T = α·T0·exp(−|D_r| / (|D_r| + |D_f|))`.
///
/// Clients with relatively more removed data keep a higher temperature
/// (softer teacher targets — more information decoupled from the teacher),
/// while clients dominated by remaining data run cooler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTemperature {
    /// Initial temperature T0.
    pub t0: f32,
    /// Adjustment factor α.
    pub alpha: f32,
}

impl Default for AdaptiveTemperature {
    /// The paper's experiment configuration: T0 = 3 with a neutral α = e
    /// (so a client with no removed data lands back at T0·e·e⁻¹ = T0).
    fn default() -> Self {
        AdaptiveTemperature {
            t0: 3.0,
            alpha: std::f32::consts::E,
        }
    }
}

impl AdaptiveTemperature {
    /// Evaluates Eq 11 for a client holding `n_remaining` remaining and
    /// `n_forget` removed samples. The result is clamped below at `0.25`
    /// to keep the softmax well-defined; with no data at all the initial
    /// temperature is returned.
    ///
    /// # Panics
    ///
    /// Panics if `t0` or `alpha` is not positive.
    pub fn temperature(&self, n_remaining: usize, n_forget: usize) -> f32 {
        assert!(
            self.t0 > 0.0 && self.alpha > 0.0,
            "t0 and alpha must be positive: {} {}",
            self.t0,
            self.alpha
        );
        let total = n_remaining + n_forget;
        if total == 0 {
            return self.t0;
        }
        let ratio = n_remaining as f32 / total as f32;
        (self.alpha * self.t0 * (-ratio).exp()).max(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_fed::aggregate::{weighted_mean, ClientUpdate};

    fn upd(id: usize, state: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            state,
            num_samples: 10,
        }
    }

    #[test]
    fn eq11_no_forget_data_returns_t0_at_default_alpha() {
        let at = AdaptiveTemperature::default();
        let t = at.temperature(100, 0);
        assert!((t - at.t0).abs() < 1e-4, "t = {t}");
    }

    #[test]
    fn eq11_more_forget_data_raises_temperature() {
        let at = AdaptiveTemperature::default();
        let cool = at.temperature(100, 0);
        let warm = at.temperature(100, 50);
        let hot = at.temperature(100, 100);
        assert!(cool < warm && warm < hot, "{cool} {warm} {hot}");
    }

    #[test]
    fn eq11_empty_client_gets_t0() {
        let at = AdaptiveTemperature::default();
        assert_eq!(at.temperature(0, 0), at.t0);
    }

    #[test]
    fn eq11_clamps_below() {
        let at = AdaptiveTemperature {
            t0: 0.1,
            alpha: 0.5,
        };
        assert_eq!(at.temperature(1000, 1), 0.25);
    }

    #[test]
    fn eq12_lower_mse_gets_higher_weight() {
        let w = adaptive_weights(&[0.1, 0.2, 0.3]);
        assert!(w[0] > w[1] && w[1] > w[2], "{w:?}");
        // Mean MSE gets weight exactly 1.
        assert!((w[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eq12_equal_mses_are_uniform() {
        let w = adaptive_weights(&[0.5, 0.5, 0.5]);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn eq12_zero_mean_degenerates_to_uniform() {
        let w = adaptive_weights(&[0.0, 0.0]);
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn aggregation_prefers_better_model() {
        let updates = vec![
            upd(0, vec![0.0, 0.0]), // good model
            upd(1, vec![1.0, 1.0]), // bad model
        ];
        let agg = weighted_mean(&updates, &adaptive_weights(&[0.05, 0.50]));
        // Result should sit much closer to the good model.
        assert!(agg[0] < 0.25, "agg = {agg:?}");
    }
}
