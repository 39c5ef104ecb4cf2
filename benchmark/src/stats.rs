//! Order statistics the benchmark reports: medians, the "highest
//! resolvable percentile" tail rule and the quartile spread the
//! acceptance rule of `/BENCHMARK.json` is stated in.

/// Sorts a sample ascending (timings are never NaN; `total_cmp` keeps
/// the sort total anyway).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an ascending sample; 0 for an empty one.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (nearest rank, `0 ≤ p < 1`) of an ascending sample;
/// 0 for an empty one.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p * n as f64) as usize).min(n - 1)],
    }
}

/// The tenth percentile of an unsorted sample: the op time the code
/// reaches when nothing else slows it. Interference from outside the
/// process can only add time, and it comes in episodes far longer than
/// an op, so the low end of a window is the part that repeats from run
/// to run; the tenth percentile (unlike the minimum) does not drift with
/// the number of ops a run happens to fit into its window.
pub fn p10_of(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.10)
}

/// Median of an unsorted sample.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// The tail the sample can resolve: the highest percentile that still
/// has at least ten samples beyond it, as `(percentile, value)`. A
/// sample too small for that to lie above the median (fewer than 20
/// points) resolves no tail; the median is returned as percentile 50.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 20 {
        return (50.0, median(sorted));
    }
    let idx = n - 11; // indices idx+1 .. n-1 are the ten samples beyond
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them — the spread rule of the benchmark contract.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median (0 when the median is 0).
pub fn spread_share(sorted: &[f64]) -> f64 {
    let med = median(sorted);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quantile_is_nearest_rank_and_p10_ignores_slow_episodes() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.10), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Half the window slowed by 50 %: the median moves, p10 does not.
        let calm = vec![100.0; 40];
        let mut noisy = calm.clone();
        noisy[..24].fill(150.0);
        assert_eq!(p10_of(&calm), p10_of(&noisy));
        assert_ne!(median_of(&calm), median_of(&noisy));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: ten samples (91..=100) lie beyond 90.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        // 20 samples: the tail sits exactly at the median's upper side.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), (50.0, 10.0));
        // Too few samples to resolve any tail: the median, labelled 50.
        let s: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail(&s), (50.0, 7.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert!((spread_share(&s) - 1.0).abs() < 1e-12);
    }
}
