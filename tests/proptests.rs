//! Cross-crate property-based tests on the load-bearing invariants.

use goldfish::core::extension::{adaptive_weights, AdaptiveTemperature};
use goldfish::core::loss::{confusion_loss, distillation_loss};
use goldfish::core::optimization::ShardedLocalModel;
use goldfish::data::partition;
use goldfish::fed::aggregate::{weighted_mean, ClientUpdate};
use goldfish::nn::zoo;
use goldfish::tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn state_vector_roundtrip_for_any_mlp(
        hidden in 1usize..24,
        classes in 2usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = zoo::mlp(10, &[hidden], classes, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(seed + 1);
        let mut other = zoo::mlp(10, &[hidden], classes, &mut rng2);
        let state = net.state_vector();
        other.set_state_vector(&state);
        prop_assert_eq!(other.state_vector(), state);
    }

    #[test]
    fn shard_recovery_is_exact_for_any_weights(
        states in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 6), 2..6),
        sizes_raw in proptest::collection::vec(1usize..50, 2..6),
    ) {
        let k = states.len().min(sizes_raw.len());
        let states: Vec<Vec<f32>> = states[..k].to_vec();
        let sizes: Vec<usize> = sizes_raw[..k].to_vec();
        let model = ShardedLocalModel::new(states.clone(), sizes);
        let agg = model.aggregate();
        for (i, expected) in states.iter().enumerate().take(k) {
            let rec = model.recover_shard_weights(i, &agg);
            for (r, s) in rec.iter().zip(expected.iter()) {
                prop_assert!((r - s).abs() < 1e-3, "shard {}: {} vs {}", i, r, s);
            }
        }
    }

    #[test]
    fn fedavg_is_within_client_hull(
        a in proptest::collection::vec(-3.0f32..3.0, 4),
        b in proptest::collection::vec(-3.0f32..3.0, 4),
        na in 1usize..100,
        nb in 1usize..100,
    ) {
        let updates = vec![
            ClientUpdate { client_id: 0, state: a.clone(), num_samples: na },
            ClientUpdate { client_id: 1, state: b.clone(), num_samples: nb },
        ];
        let agg = weighted_mean(&updates, &[na as f64, nb as f64]);
        for ((x, y), z) in a.iter().zip(b.iter()).zip(agg.iter()) {
            let lo = x.min(*y) - 1e-4;
            let hi = x.max(*y) + 1e-4;
            prop_assert!((lo..=hi).contains(z));
        }
    }

    #[test]
    fn adaptive_weights_are_positive_and_order_inverted(
        mses in proptest::collection::vec(0.001f64..2.0, 2..10),
    ) {
        let w = adaptive_weights(&mses);
        prop_assert!(w.iter().all(|&x| x > 0.0));
        for i in 0..mses.len() {
            for j in 0..mses.len() {
                if mses[i] < mses[j] {
                    prop_assert!(w[i] >= w[j], "lower MSE must not get less weight");
                }
            }
        }
    }

    #[test]
    fn adaptive_temperature_monotone_in_forget_fraction(
        n_rem in 1usize..10_000,
        n_f1 in 0usize..5_000,
        extra in 1usize..5_000,
    ) {
        let at = AdaptiveTemperature::default();
        let t_small = at.temperature(n_rem, n_f1);
        let t_big = at.temperature(n_rem, n_f1 + extra);
        prop_assert!(t_big >= t_small - 1e-6);
    }

    #[test]
    fn partitions_conserve_samples(
        n in 1usize..500,
        clients in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for parts in [
            partition::iid(n, clients, &mut rng),
            partition::uneven(n, clients, 0.05, &mut rng),
        ] {
            let mut all: Vec<usize> = parts.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn confusion_loss_bounded_and_gradient_finite(
        data in proptest::collection::vec(-8.0f32..8.0, 12),
    ) {
        let logits = Tensor::from_vec(vec![3, 4], data);
        let (val, grad) = confusion_loss(&logits);
        // sqrt(Var(p)) over a 4-class simplex is at most sqrt(3/16).
        prop_assert!(val >= 0.0);
        prop_assert!(val <= (3.0f32 / 16.0).sqrt() + 1e-5);
        prop_assert!(grad.all_finite());
    }

    #[test]
    fn distillation_loss_nonnegative_gap(
        s in proptest::collection::vec(-5.0f32..5.0, 8),
        t in proptest::collection::vec(-5.0f32..5.0, 8),
        temp in 0.5f32..8.0,
    ) {
        // Ld(student, teacher) ≥ Ld(teacher, teacher) (cross-entropy ≥ entropy).
        let sl = Tensor::from_vec(vec![2, 4], s);
        let tl = Tensor::from_vec(vec![2, 4], t);
        let (ld, _) = distillation_loss(&sl, &tl, temp);
        let (h, _) = distillation_loss(&tl, &tl, temp);
        prop_assert!(ld >= h - 1e-4, "{} < {}", ld, h);
    }
}

#[test]
fn goldfish_loss_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<goldfish::core::loss::GoldfishLoss>();
    assert_send_sync::<goldfish::core::unlearner::GoldfishUnlearning>();
}
