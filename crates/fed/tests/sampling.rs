//! Cohort-sampling determinism suite (DESIGN.md §14).
//!
//! The sampled cohort must be a **pure function** of `(round seed,
//! registry contents, fraction)` — invariant under registration order,
//! arrival order, thread count and checkpoint/recovery replay — and a
//! mid-round disconnect may only ever *shrink* the round's pinned
//! cohort, never re-draw it or disturb which registered clients are
//! eligible for the next round.

use goldfish_fed::aggregate::{weighted_mean, ClientUpdate};
use goldfish_fed::sampling::{cohort_seed, cohort_size, sample_cohort_into, splitmix64};
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::transport::{
    round_nonce, RoundMode, RoundRuntime, RoundTransport, StreamedUpdate, TrainAssign,
    TransportError, UpdateSink, Weighting,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn sample(seed: u64, fraction: f64, registry: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    sample_cohort_into(seed, fraction, registry, &mut out, &mut scratch);
    out
}

fn shuffled(registry: &[(usize, usize)], perm_seed: u64) -> Vec<(usize, usize)> {
    let mut v = registry.to_vec();
    let mut rng = StdRng::seed_from_u64(perm_seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The draw is a pure function of `(seed, {ids}, fraction)`: any
    /// permutation of the registry (registration order, container
    /// iteration order) yields the identical cohort, at the documented
    /// size, ascending by id, with weights riding along untouched.
    #[test]
    fn cohort_is_pure_and_registration_order_invariant(
        n in 1usize..200,
        stride in 1usize..5,
        seed in 0u64..u64::MAX,
        fraction in 0.0f64..1.3,
        perm_seed in 0u64..u64::MAX,
    ) {
        // Non-contiguous ids: sampling must not assume a dense 0..n.
        let registry: Vec<(usize, usize)> =
            (0..n).map(|i| (i * stride + 1, (i % 13) + 1)).collect();
        let want = sample(seed, fraction, &registry);
        prop_assert_eq!(want.len(), cohort_size(fraction, n));
        prop_assert!(want.windows(2).all(|w| w[0].0 < w[1].0));
        for &(id, w) in &want {
            let i = registry.iter().position(|&(rid, _)| rid == id).unwrap();
            prop_assert_eq!(w, registry[i].1);
        }
        prop_assert_eq!(&sample(seed, fraction, &shuffled(&registry, perm_seed)), &want);
        // Replay (a crash-restarted coordinator re-running the round
        // under the same seed) is bitwise the same draw.
        prop_assert_eq!(&sample(seed, fraction, &registry), &want);
    }

    /// Removing one registered client substitutes **at most one** cohort
    /// member: every survivor keeps its seat (the property that keeps
    /// straggler-drop re-rounds minimal), and removing a non-member
    /// changes nothing at a fixed cohort size.
    #[test]
    fn removal_never_reshuffles_survivors(
        n in 2usize..150,
        seed in 0u64..u64::MAX,
        fraction in 0.05f64..0.9,
        victim in 0usize..1_000_000,
    ) {
        let registry: Vec<(usize, usize)> = (0..n).map(|id| (id, id + 1)).collect();
        let full = sample(seed, fraction, &registry);
        let dropped = registry[victim % n].0;
        let without: Vec<(usize, usize)> = registry
            .iter()
            .copied()
            .filter(|&(id, _)| id != dropped)
            .collect();
        let resampled = sample(seed, fraction, &without);
        let was_member = full.iter().any(|&(id, _)| id == dropped);
        if was_member {
            prop_assert_eq!(resampled.len(), cohort_size(fraction, n - 1));
            let kept = full
                .iter()
                .filter(|&&(id, _)| id != dropped)
                .filter(|m| resampled.contains(m))
                .count();
            prop_assert_eq!(kept, full.len() - 1);
        } else if resampled.len() == full.len() {
            // A non-member's departure at an unchanged cohort size must
            // not disturb anyone's eligibility.
            prop_assert_eq!(&resampled, &full);
        }
    }
}

/// A scripted registry transport with a real targeted send path: each
/// `train_round` contacts exactly the requested cohort (in a
/// seeded arrival permutation), records who it contacted, reports the
/// scripted dead clients as timeouts, and drops them from the registry —
/// the shape of a mid-round disconnect on the TCP reactor.
struct RegistryFeed {
    registry: Vec<(usize, usize)>,
    /// Clients that time out when first contacted (then disconnect).
    dead: Vec<usize>,
    /// Arrival-order permutation seed.
    order_seed: u64,
    params: usize,
    /// Every client id a fan-out ever contacted.
    contacted: Vec<usize>,
}

impl RegistryFeed {
    fn new(registry: Vec<(usize, usize)>, params: usize) -> RegistryFeed {
        RegistryFeed {
            registry,
            dead: Vec::new(),
            order_seed: 0,
            params,
            contacted: Vec::new(),
        }
    }

    fn state_of(&self, id: usize) -> Vec<f32> {
        (0..self.params)
            .map(|j| (splitmix64((id as u64) << 20 | j as u64) % 1000) as f32 * 1e-3)
            .collect()
    }
}

impl RoundTransport for RegistryFeed {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.extend(self.registry.iter().copied());
        out.sort_unstable_by_key(|&(id, _)| id);
    }
    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        results.clear();
        let order = shuffled(cohort, self.order_seed);
        let mut died = Vec::new();
        for (id, n) in order {
            self.contacted.push(id);
            if self.dead.contains(&id) {
                died.push(id);
                results.push(Err(TransportError::Timeout { client_id: id }));
                continue;
            }
            let state = self.state_of(id);
            results.push(sink(StreamedUpdate {
                client_id: id,
                num_samples: n,
                nonce: assign.nonce,
                state: &state,
            }));
        }
        self.registry.retain(|&(id, _)| !died.contains(&id));
    }
}

/// FedAvg: `weighted_mean` over sample counts.
fn fedavg(updates: &[ClientUpdate]) -> Vec<f32> {
    let weights: Vec<f64> = updates.iter().map(|u| u.num_samples as f64).collect();
    weighted_mean(updates, &weights)
}

fn registry_of(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|id| (id, (id % 9) + 1)).collect()
}

fn assign_at<'a>(
    round: usize,
    seed: u64,
    global: &'a [f32],
    cfg: &'a TrainConfig,
) -> TrainAssign<'a> {
    TrainAssign {
        mode: RoundMode::Train,
        round,
        seed,
        nonce: round_nonce(seed, round),
        global,
        cfg,
    }
}

/// One sampled `run_hot` round; returns `(cohort, aggregate bits)`.
fn run_sampled(
    registry: Vec<(usize, usize)>,
    fraction: f64,
    threads: usize,
    order_seed: u64,
    round_seed: u64,
    params: usize,
) -> (Vec<(usize, usize)>, Vec<u32>) {
    let cfg = TrainConfig::default();
    let global = vec![0.0f32; params];
    let assign = assign_at(1, round_seed, &global, &cfg);
    let mut transport = RegistryFeed::new(registry, params);
    transport.order_seed = order_seed;
    let mut rt = RoundRuntime::new(Some(threads), 0);
    rt.set_sampling(Some(fraction));
    let mut out = Vec::new();
    rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
        .unwrap();
    (
        rt.last_cohort().to_vec(),
        out.iter().map(|v| v.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end purity through `run_hot`: the sampled cohort (and the
    /// resulting aggregate, bitwise) is invariant under registration
    /// order, arrival order, thread count and replay — the property a
    /// crash-restarted coordinator's re-run depends on.
    #[test]
    fn run_hot_cohort_is_invariant_under_execution_details(
        n in 4usize..80,
        round_seed in 0u64..u64::MAX,
        perm_seed in 0u64..u64::MAX,
        order_seed in 0u64..u64::MAX,
        threads in 1usize..4,
    ) {
        let fraction = 0.25;
        let registry = registry_of(n);
        let (cohort, bits) =
            run_sampled(registry.clone(), fraction, 1, 0, round_seed, 17);
        prop_assert_eq!(
            &cohort,
            &sample(cohort_seed(round_seed), fraction, &registry)
        );
        // First principles: the aggregate is the sample-count-weighted
        // mean (`FedAvg` = `weighted_mean`) of exactly the drawn cohort's
        // states.
        let feed = RegistryFeed::new(Vec::new(), 17);
        let updates: Vec<ClientUpdate> = cohort
            .iter()
            .map(|&(client_id, num_samples)| ClientUpdate {
                client_id,
                state: feed.state_of(client_id),
                num_samples,
            })
            .collect();
        let oracle = fedavg(&updates);
        prop_assert_eq!(&bits, &oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        // Registration order + arrival order + thread count shuffled:
        // identical draw, identical aggregate.
        let (c2, b2) = run_sampled(
            shuffled(&registry, perm_seed),
            fraction,
            threads,
            order_seed,
            round_seed,
            17,
        );
        prop_assert_eq!(&c2, &cohort);
        prop_assert_eq!(&b2, &bits);
        // Replay (fresh runtime, same inputs — a recovered coordinator).
        let (c3, b3) = run_sampled(registry, fraction, threads, order_seed, round_seed, 17);
        prop_assert_eq!(&c3, &cohort);
        prop_assert_eq!(&b3, &bits);
    }
}

/// `fraction = 1.0` is full participation: bitwise the unsampled path —
/// and both are the round whose explicit cohort is the whole registry,
/// down to which clients a fan-out contacts.
#[test]
fn full_fraction_matches_unsampled_round() {
    let cfg = TrainConfig::default();
    let global = vec![0.0f32; 11];
    let assign = assign_at(2, 77, &global, &cfg);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = |sampling: Option<f64>| {
        let mut transport = RegistryFeed::new(registry_of(12), 11);
        let mut rt = RoundRuntime::new(Some(1), 0);
        rt.set_sampling(sampling);
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        transport.contacted.sort_unstable();
        (rt.last_cohort().to_vec(), out, transport.contacted)
    };
    let (sampled_cohort, sampled, sampled_contacts) = run(Some(1.0));
    let (full_cohort, full, full_contacts) = run(None);
    assert_eq!(sampled_cohort, full_cohort);
    assert_eq!(bits(&sampled), bits(&full));
    assert_eq!(sampled_contacts, full_contacts);

    // The explicit full-registry cohort, fanned out directly, against
    // the `weighted_mean` oracle over each client's state.
    let mut transport = RegistryFeed::new(registry_of(12), 11);
    let mut results = Vec::new();
    transport.train_round(&assign, &registry_of(12), &mut |_| Ok(()), &mut results);
    assert!(results.iter().all(|r| r.is_ok()));
    transport.contacted.sort_unstable();
    let updates: Vec<ClientUpdate> = registry_of(12)
        .into_iter()
        .map(|(client_id, num_samples)| ClientUpdate {
            client_id,
            state: transport.state_of(client_id),
            num_samples,
        })
        .collect();
    assert_eq!(bits(&fedavg(&updates)), bits(&full));
    assert_eq!(transport.contacted, full_contacts);
    assert_eq!(full_contacts, (0..12).collect::<Vec<_>>());
}

/// The ISSUE-8 satellite-3 pin. A sampled member that disconnects
/// mid-round:
///
/// * shrinks the round to the **pinned survivors** — the re-round never
///   re-draws from the shrunken registry, so the substitute candidate is
///   never contacted mid-round;
/// * and cannot disturb the next round's eligibility: round `R+1` draws
///   from the current registry exactly as if the departed client had
///   never been sampled.
#[test]
fn mid_round_disconnect_shrinks_pinned_cohort_and_spares_next_round() {
    let fraction = 0.2;
    let params = 9;
    let registry = registry_of(60);
    let cfg = TrainConfig::default();
    let global = vec![0.0f32; params];

    let seed_r = 4242u64;
    let pinned = sample(cohort_seed(seed_r), fraction, &registry);
    assert!(pinned.len() >= 2, "fixture needs a multi-member cohort");
    let dead = pinned[1].0;
    // The member the re-draw *would* substitute in — must stay
    // uncontacted this round.
    let without_dead: Vec<(usize, usize)> = registry
        .iter()
        .copied()
        .filter(|&(id, _)| id != dead)
        .collect();
    let redraw = sample(cohort_seed(seed_r), fraction, &without_dead);
    let substitute: Vec<usize> = redraw
        .iter()
        .map(|&(id, _)| id)
        .filter(|id| !pinned.iter().any(|&(pid, _)| pid == *id))
        .collect();

    let mut transport = RegistryFeed::new(registry, params);
    transport.dead.push(dead);
    let mut rt = RoundRuntime::new(Some(1), 0);
    rt.set_sampling(Some(fraction));
    let mut out = Vec::new();
    let assign = assign_at(1, seed_r, &global, &cfg);
    rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
        .unwrap();

    // Round R aggregated over the pinned survivors only.
    let survivors: Vec<(usize, usize)> = pinned
        .iter()
        .copied()
        .filter(|&(id, _)| id != dead)
        .collect();
    assert_eq!(rt.last_cohort(), survivors.as_slice());
    // The would-be substitute was never contacted mid-round.
    for id in &substitute {
        assert!(
            !transport.contacted.contains(id),
            "re-round contacted substitute client {id}: the cohort was re-drawn mid-round"
        );
    }

    // Round R+1: eligibility is exactly "registered now", unperturbed by
    // the mid-round departure.
    let seed_r1 = 4243u64;
    let expect_next = sample(cohort_seed(seed_r1), fraction, &without_dead);
    let assign = assign_at(2, seed_r1, &global, &cfg);
    rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
        .unwrap();
    assert_eq!(rt.last_cohort(), expect_next.as_slice());
}
