//! Weight initialisation schemes over a caller-provided seeded RNG.
//!
//! Everything in the Goldfish reproduction is deterministic given a seed;
//! initialisers therefore never construct their own RNG.

use rand::Rng;

use crate::Tensor;

/// Kaiming-He uniform initialisation for layers followed by ReLU:
/// `U(-b, b)` with `b = sqrt(6 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in` is zero.
pub fn kaiming_uniform<R: Rng + ?Sized>(rng: &mut R, shape: Vec<usize>, fan_in: usize) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform(rng, shape, -bound, bound)
}

/// Uniform initialisation over `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub(crate) fn uniform<R: Rng + ?Sized>(rng: &mut R, shape: Vec<usize>, lo: f32, hi: f32) -> Tensor {
    assert!(lo < hi, "empty range [{lo}, {hi})");
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(lo..hi)).collect())
}

/// Gaussian initialisation with the given mean and standard deviation,
/// sampled via Box–Muller (avoids a distribution-crate dependency).
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, shape: Vec<usize>, mean: f32, std: f32) -> Tensor {
    assert!(std >= 0.0, "std must be non-negative");
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(mean + std * r * theta.cos());
        if data.len() < n {
            data.push(mean + std * r * theta.sin());
        }
    }
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn kaiming_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = kaiming_uniform(&mut rng, vec![100, 50], 50);
        let bound = (6.0f32 / 50.0).sqrt();
        assert!(t.as_slice().iter().all(|&v| v > -bound && v < bound));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ta = kaiming_uniform(&mut a, vec![10, 10], 10);
        let tb = kaiming_uniform(&mut b, vec![10, 10], 10);
        assert_eq!(ta, tb);
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = normal(&mut rng, vec![20_000], 1.0, 2.0);
        let mean = t.mean();
        let var =
            t.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (t.len() as f32 - 1.0);
        assert!((mean - 1.0).abs() < 0.08, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn normal_zero_std_is_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = normal(&mut rng, vec![8], 5.0, 0.0);
        assert!(t.as_slice().iter().all(|&v| v == 5.0));
    }
}
