//! Statistical utilities: Welch's t-test and summary statistics.
//!
//! The t-test p-value needs the CDF of Student's t distribution, which we
//! obtain from the regularized incomplete beta function `I_x(a, b)`
//! (continued-fraction evaluation, as in *Numerical Recipes*). No external
//! stats crate is required.

use serde::{Deserialize, Serialize};

/// Result of a Welch two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Welch's unequal-variance t-test between two samples.
///
/// Returns `t = 0, p = 1` when either sample has fewer than two elements or
/// both variances vanish (the test is undefined; "no evidence of
/// difference" is the conservative report).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> TTest {
    if a.len() < 2 || b.len() < 2 {
        return TTest {
            t: 0.0,
            df: 1.0,
            p_value: 1.0,
        };
    }
    let (ma, va) = mean_var(a);
    let (mb, vb) = mean_var(b);
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return TTest {
            t: 0.0,
            df: (na + nb - 2.0).max(1.0),
            p_value: if (ma - mb).abs() < 1e-12 { 1.0 } else { 0.0 },
        };
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2
        / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0)).max(f64::MIN_POSITIVE);
    let p_value = t_two_sided_p(t, df);
    TTest { t, df, p_value }
}

/// Sample mean and (unbiased) variance.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom:
/// `p = I_{df/(df+t²)}(df/2, 1/2)`.
pub(crate) fn t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    reg_incomplete_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Natural log of the gamma function (Lanczos approximation, |error| <
/// 2e-10 for positive arguments).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 5, n = 6).
    const COEF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_5e-2,
        -0.539_523_938_495_3e-5,
    ];
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction of *Numerical Recipes* (`betacf`).
///
/// # Panics
///
/// Panics if `x` is outside `[0, 1]` or `a`/`b` are not positive.
pub(crate) fn reg_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1], got {x}");
    assert!(a > 0.0 && b > 0.0, "a, b must be positive: {a}, {b}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_bt = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let bt = ln_bt.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * betacf(a, b, x) / a
    } else {
        1.0 - bt * betacf(b, a, 1.0 - x) / b
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Summary statistics of a sample — used for the error-bar plots (Fig 8)
/// and Table XII.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics. Returns all-zero stats for empty input.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)).sqrt()
        } else {
            0.0
        };
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std,
            min,
            max,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.4} ± {:.4} (min {:.4}, max {:.4}, n={})",
            self.mean, self.std, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0)).abs() < 1e-9);
        assert!((ln_gamma(2.0)).abs() < 1e-9);
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn incomplete_beta_boundaries() {
        assert_eq!(reg_incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(reg_incomplete_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn incomplete_beta_uniform_case() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.5, 0.9] {
            assert!((reg_incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a, b) = 1 − I_{1−x}(b, a).
        let (a, b, x) = (2.5, 4.0, 0.3);
        let lhs = reg_incomplete_beta(a, b, x);
        let rhs = 1.0 - reg_incomplete_beta(b, a, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn t_p_value_known_points() {
        // t = 0 → p = 1 for any df.
        assert!((t_two_sided_p(0.0, 10.0) - 1.0).abs() < 1e-12);
        // df = 1 (Cauchy): p(t=1) = 0.5.
        assert!((t_two_sided_p(1.0, 1.0) - 0.5).abs() < 1e-9);
        // Large |t| → tiny p.
        assert!(t_two_sided_p(10.0, 30.0) < 1e-9);
    }

    #[test]
    fn welch_identical_samples_p_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = welch_t_test(&a, &a);
        assert!((r.p_value - 1.0).abs() < 1e-12);
        assert_eq!(r.t, 0.0);
    }

    #[test]
    fn welch_distinct_samples_small_p() {
        let a = [0.0, 0.1, -0.1, 0.05, -0.05, 0.02];
        let b = [5.0, 5.1, 4.9, 5.05, 4.95, 5.02];
        let r = welch_t_test(&a, &b);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.t < 0.0);
    }

    #[test]
    fn welch_handles_tiny_samples() {
        let r = welch_t_test(&[1.0], &[2.0, 3.0]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn welch_zero_variance_equal_means() {
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn welch_zero_variance_distinct_means() {
        let r = welch_t_test(&[2.0, 2.0, 2.0], &[3.0, 3.0]);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_matches_reference_example() {
        // Cross-checked against a manual Welch computation:
        // t = -2.83526, df = 27.7136; the corresponding two-sided p for
        // Student's t at that df is ≈ 0.0085.
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0,
            23.9,
        ];
        let r = welch_t_test(&a, &b);
        assert!((r.t - (-2.83526)).abs() < 0.001, "t = {}", r.t);
        assert!((r.df - 27.7136).abs() < 0.01, "df = {}", r.df);
        assert!((0.006..0.011).contains(&r.p_value), "p = {}", r.p_value);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn summary_empty_and_singleton() {
        assert_eq!(Summary::of(&[]).n, 0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 7.0);
    }
}
