//! Deterministic per-round cohort sampling (DESIGN.md §14).
//!
//! Production federations register far more clients than any round
//! touches: each round the coordinator draws a small **cohort** from the
//! registry and talks only to it. The draw here is a *pure function of
//! `(seed, registry ids, fraction)`*:
//!
//! * every registered id gets a **rank** — a splitmix64 hash of
//!   `(seed, id)` — so ranks depend on nothing but the seed and the id
//!   itself (not registration order, arrival order, thread count, or
//!   the container the registry lives in);
//! * the cohort is the `ceil(fraction · n)` members with the smallest
//!   `(rank, id)` keys (the id tiebreak makes the order total even under
//!   a rank collision), reported **ascending by id** like every cohort
//!   in this codebase;
//! * removing a member from the registry substitutes exactly the
//!   next-ranked candidate and never reshuffles the survivors — the
//!   property that keeps straggler-drop re-rounds minimal.
//!
//! Because the draw is pure, a crash-restarted coordinator that replays
//! a round under the same round seed re-samples the identical cohort
//! (pinned by `tests/sampling.rs` and the serve crash-recovery suite).
//!
//! The round driver wraps each draw in a telemetry span —
//! `goldfish_cohort_draw_seconds` on the shared registry, alongside the
//! `goldfish_cohort_size` gauge (DESIGN.md §15) — so sampling cost at
//! high fan-in is visible on the admin endpoint without touching the
//! draw itself.

/// The splitmix64 finalizer — the same mixer the worker backoff jitter
/// uses, here the one source of per-`(seed, id)` rank bits.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampling seed of a round, derived from the round's base seed
/// (`round_seed(schedule, round)` — what [`crate::transport::TrainAssign::seed`]
/// carries). Domain-separated from the training-seed derivation so
/// cohort membership and local RNG streams never correlate.
pub fn cohort_seed(round_seed: u64) -> u64 {
    splitmix64(round_seed ^ 0xC0_4027_5EED_2024)
}

/// The sampling rank of client `id` under `seed` — smaller ranks are
/// drawn first.
pub(crate) fn cohort_rank(seed: u64, id: usize) -> u64 {
    splitmix64(seed ^ (id as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The cohort size a fraction implies over an `n`-client registry:
/// `ceil(fraction · n)`, clamped to `[1, n]` (an empty registry yields
/// `0`). Fractions outside `(0, 1]` are clamped into range, so `1.0`
/// (and anything above) means "everyone" and pathological inputs never
/// produce an empty round.
pub fn cohort_size(fraction: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let f = if fraction.is_finite() {
        fraction.clamp(0.0, 1.0)
    } else {
        1.0
    };
    ((f * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples the round's cohort from `registry` (`(client_id,
/// num_samples)` entries, **any order**, ids unique) into `out`,
/// ascending by id. `scratch` is a caller-owned rank buffer so a warm
/// round loop never allocates. The result is a pure function of
/// `(seed, {ids}, fraction)`; `num_samples` values ride along untouched.
pub fn sample_cohort_into(
    seed: u64,
    fraction: f64,
    registry: &[(usize, usize)],
    out: &mut Vec<(usize, usize)>,
    scratch: &mut Vec<(u64, usize, usize)>,
) {
    out.clear();
    let k = cohort_size(fraction, registry.len());
    if k == 0 {
        return;
    }
    scratch.clear();
    scratch.extend(
        registry
            .iter()
            .map(|&(id, n)| (cohort_rank(seed, id), id, n)),
    );
    if k < scratch.len() {
        // Partition around the k-th smallest (rank, id) key; the cohort
        // is the left side. `select_nth_unstable` compares the full
        // tuple, so the id tiebreak is already in the key.
        scratch.select_nth_unstable(k - 1);
        scratch.truncate(k);
    }
    out.extend(scratch.iter().map(|&(_, id, n)| (id, n)));
    out.sort_unstable_by_key(|&(id, _)| id);
}

/// Picks the delegate for a degraded shard retrain: the member of
/// `members` (a redundancy group, any order) with the smallest
/// `(cohort_rank, id)` key that is **not** `exclude` (the straggling
/// owner). A pure function of `(seed, {ids}, exclude)` — invariant
/// under member order and replayed identically on crash-restart, like
/// every draw in this module. Returns `None` when no healthy member
/// exists.
pub fn pick_delegate(seed: u64, members: &[usize], exclude: usize) -> Option<usize> {
    members
        .iter()
        .copied()
        .filter(|&id| id != exclude)
        .min_by_key(|&id| (cohort_rank(seed, id), id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, fraction: f64, registry: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        sample_cohort_into(seed, fraction, registry, &mut out, &mut scratch);
        out
    }

    #[test]
    fn size_formula() {
        assert_eq!(cohort_size(0.25, 0), 0);
        assert_eq!(cohort_size(0.25, 4), 1);
        assert_eq!(cohort_size(0.25, 5), 2);
        assert_eq!(cohort_size(1.0, 7), 7);
        assert_eq!(cohort_size(0.0, 7), 1); // clamped floor: never empty
        assert_eq!(cohort_size(-3.0, 7), 1);
        assert_eq!(cohort_size(42.0, 7), 7);
        assert_eq!(cohort_size(f64::NAN, 7), 7);
    }

    #[test]
    fn ascending_unique_and_sized() {
        let registry: Vec<(usize, usize)> = (0..100).map(|id| (id, id * 3 + 1)).collect();
        let cohort = sample(9, 0.1, &registry);
        assert_eq!(cohort.len(), 10);
        assert!(cohort.windows(2).all(|w| w[0].0 < w[1].0));
        // Weights ride along from the registry.
        for &(id, n) in &cohort {
            assert_eq!(n, id * 3 + 1);
        }
    }

    #[test]
    fn invariant_under_registry_order() {
        let mut registry: Vec<(usize, usize)> = (0..64).map(|id| (id, 10)).collect();
        let forward = sample(5, 0.25, &registry);
        registry.reverse();
        assert_eq!(sample(5, 0.25, &registry), forward);
        // A deterministic shuffle.
        registry.sort_by_key(|&(id, _)| splitmix64(id as u64));
        assert_eq!(sample(5, 0.25, &registry), forward);
    }

    #[test]
    fn removal_substitutes_one_member() {
        let registry: Vec<(usize, usize)> = (0..50).map(|id| (id, 1)).collect();
        let full = sample(3, 0.2, &registry);
        let dropped = full[2].0;
        let without: Vec<(usize, usize)> = registry
            .iter()
            .copied()
            .filter(|&(id, _)| id != dropped)
            .collect();
        let resampled = sample(3, 0.2, &without);
        assert_eq!(resampled.len(), full.len());
        // Every surviving member keeps its seat; exactly one new member
        // (the next-ranked candidate) fills the vacancy.
        let kept = full
            .iter()
            .filter(|&&(id, _)| id != dropped)
            .filter(|m| resampled.contains(m))
            .count();
        assert_eq!(kept, full.len() - 1);
    }

    #[test]
    fn distinct_seeds_draw_distinct_cohorts() {
        let registry: Vec<(usize, usize)> = (0..256).map(|id| (id, 1)).collect();
        let a = sample(cohort_seed(1), 0.1, &registry);
        let b = sample(cohort_seed(2), 0.1, &registry);
        assert_ne!(a, b);
        // Same seed: bitwise the same draw.
        assert_eq!(a, sample(cohort_seed(1), 0.1, &registry));
    }
}
