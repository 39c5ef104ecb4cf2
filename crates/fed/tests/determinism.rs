//! Thread-count invariance: the parallel compute paths (chunked
//! aggregation, pooled client training, tiled kernels underneath) must
//! produce bitwise-identical results at every pool size — parallelism is
//! an execution detail, never a semantic one.

use std::sync::Arc;

use goldfish_data::partition;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_fed::aggregate::{weighted_mean, ClientUpdate};
use goldfish_fed::federation::Federation;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::{pool, ModelFactory};
use goldfish_nn::zoo;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn updates(clients: usize, params: usize, seed: u64) -> Vec<ClientUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|id| ClientUpdate {
            client_id: id,
            state: (0..params).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            num_samples: rng.gen_range(1..100),
        })
        .collect()
}

#[test]
fn weighted_mean_identical_across_thread_counts() {
    // Large enough that the chunked reduction splits into many chunks.
    let ups = updates(7, 100_000, 1);
    let weights: Vec<f64> = ups.iter().map(|u| u.num_samples as f64).collect();
    let run = |threads| pool::install(Some(threads), || weighted_mean(&ups, &weights));
    let one = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(one, run(threads), "threads = {threads}");
    }
}

/// FedAvg: `weighted_mean` over sample counts.
fn fedavg(ups: &[ClientUpdate]) -> Vec<f32> {
    let weights: Vec<f64> = ups.iter().map(|u| u.num_samples as f64).collect();
    weighted_mean(ups, &weights)
}

#[test]
fn fedavg_identical_across_thread_counts() {
    let ups = updates(12, 40_000, 2);
    let one = pool::install(Some(1), || fedavg(&ups));
    let many = pool::install(Some(5), || fedavg(&ups));
    assert_eq!(one, many);
}

mod streaming_arrival_order {
    //! The ISSUE-5 arrival-order suite: the streaming fixed-slot
    //! accumulator must be bitwise identical to the buffered
    //! `weighted_mean` under *any* arrival permutation, thread count and
    //! resident-window size (down to 1, which forces maximal
    //! park-and-drain traffic through the pooled buffers).

    use super::*;
    use goldfish_fed::aggregate::StreamingMean;
    use proptest::prelude::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn streaming_matches_buffered_for_any_permutation(
            clients in 1usize..9,
            params in 1usize..400,
            seed in 0u64..1000,
            threads in 1usize..5,
            perm_seed in 0u64..1000,
            tight_window in 0u8..2,
        ) {
            let ups = updates(clients, params, seed);
            let weights: Vec<f64> =
                ups.iter().map(|u| u.num_samples.max(1) as f64).collect();
            let want = weighted_mean(&ups, &weights);

            // A random arrival permutation.
            let mut order: Vec<usize> = (0..clients).collect();
            let mut rng = StdRng::seed_from_u64(perm_seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            // window = clients always suffices; window = 1 forces the
            // frontier to park/drain one update at a time (or errors if
            // the permutation needs more resident than allowed — retry
            // with the safe window in that case).
            let window = if tight_window == 1 { 1 } else { clients };

            let cohort: Vec<(usize, f64)> = ups
                .iter()
                .map(|u| (u.client_id, u.num_samples.max(1) as f64))
                .collect();
            let mut agg = StreamingMean::new();
            agg.begin(&cohort, params, window);
            let mut overflowed = false;
            for &i in &order {
                match agg.offer(ups[i].client_id, &ups[i].state) {
                    Ok(()) => {}
                    Err(goldfish_fed::aggregate::AggregateError::WindowExceeded { .. }) => {
                        overflowed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected offer error: {e}"),
                }
            }
            if overflowed {
                // Legitimate under window = 1; the full window must work.
                agg.begin(&cohort, params, clients);
                for &i in &order {
                    agg.offer(ups[i].client_id, &ups[i].state).unwrap();
                }
            }
            let (got, peak) = pool::install(Some(threads), || {
                // (Folding already happened on offer above; re-run the
                // whole stream inside the pool so the chunked folds see
                // the thread count too.)
                let mut agg = StreamingMean::new();
                agg.begin(&cohort, params, clients);
                for &i in &order {
                    agg.offer(ups[i].client_id, &ups[i].state).unwrap();
                }
                (agg.finish().unwrap(), agg.peak_resident())
            });
            prop_assert!(peak <= clients);
            prop_assert_eq!(bits(&got), bits(&want));
            let serial = agg.finish().unwrap();
            prop_assert_eq!(bits(&serial), bits(&want));
        }
    }
}

mod robust_mode_determinism {
    //! The ISSUE-7 zero-attacker suite: every robust aggregation mode
    //! must be a pure function of the *reported set* — bitwise invariant
    //! under arrival permutation and thread count — and the identity
    //! modes (trim 0, an untriggered clip) must equal the streaming mean
    //! exactly.

    use super::*;
    use goldfish_fed::aggregate::{AggregationMode, RoundAccumulator, StreamingMean};
    use proptest::prelude::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    }

    /// Folds `ups[order]` through a [`RoundAccumulator`] in `mode` on a
    /// `threads`-sized pool; `partial` drops the last arrival and
    /// finishes the quorum path.
    fn fold(
        mode: AggregationMode,
        ups: &[ClientUpdate],
        order: &[usize],
        threads: usize,
        partial: bool,
    ) -> Vec<u32> {
        let cohort: Vec<(usize, f64)> = ups
            .iter()
            .map(|u| (u.client_id, u.num_samples.max(1) as f64))
            .collect();
        let params = ups[0].state.len();
        pool::install(Some(threads), || {
            let mut agg = RoundAccumulator::new();
            agg.begin(mode, &cohort, params, cohort.len());
            let feed = if partial && order.len() > 1 {
                &order[..order.len() - 1]
            } else {
                order
            };
            for &i in feed {
                agg.offer(ups[i].client_id, &ups[i].state).unwrap();
            }
            let mut out = Vec::new();
            if partial && order.len() > 1 {
                agg.finish_partial_into(&mut out).unwrap();
            } else {
                agg.finish_into(&mut out).unwrap();
            }
            bits(&out)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn robust_modes_are_arrival_and_thread_invariant(
            clients in 1usize..9,
            params in 1usize..300,
            seed in 0u64..1000,
            threads in 1usize..5,
            perm_seed in 0u64..1000,
        ) {
            let ups = updates(clients, params, seed);
            let trim = clients.saturating_sub(1) / 2;
            let modes = [
                AggregationMode::Mean,
                AggregationMode::TrimmedMean { trim },
                AggregationMode::Median,
                AggregationMode::NormClipped { limit: 1e12 },
            ];
            let canonical: Vec<usize> = (0..clients).collect();
            let order = permutation(clients, perm_seed);
            for mode in modes {
                // Reference: serial fold, id order, full participation.
                let want = fold(mode, &ups, &canonical, 1, false);
                prop_assert_eq!(
                    &fold(mode, &ups, &order, threads, false),
                    &want,
                    "mode {} diverged under permutation/threads",
                    mode
                );
                // The degraded (quorum) fold is equally deterministic:
                // a fixed reported subset gives one answer regardless of
                // arrival order or pool size.
                if clients > 1 {
                    let partial_want = fold(mode, &ups, &canonical, 1, true);
                    let mut reordered: Vec<usize> =
                        canonical[..clients - 1].to_vec();
                    reordered.reverse();
                    reordered.push(canonical[clients - 1]);
                    prop_assert_eq!(
                        &fold(mode, &ups, &reordered, threads, true),
                        &partial_want,
                        "mode {} degraded fold diverged",
                        mode
                    );
                }
            }

            // Zero-attacker identity: trim 0 and an untriggered clip are
            // bitwise the streaming mean.
            let cohort: Vec<(usize, f64)> = ups
                .iter()
                .map(|u| (u.client_id, u.num_samples.max(1) as f64))
                .collect();
            let mut mean = StreamingMean::new();
            mean.begin(&cohort, params, clients);
            for u in &ups {
                mean.offer(u.client_id, &u.state).unwrap();
            }
            let want = bits(&mean.finish().unwrap());
            prop_assert_eq!(
                &fold(AggregationMode::TrimmedMean { trim: 0 }, &ups, &order, threads, false),
                &want
            );
            prop_assert_eq!(
                &fold(AggregationMode::NormClipped { limit: 1e12 }, &ups, &order, threads, false),
                &want
            );
            prop_assert_eq!(&fold(AggregationMode::Mean, &ups, &order, threads, false), &want);
        }
    }
}

#[test]
fn fused_optimizer_identical_across_thread_counts() {
    // 300×300 ≈ 90k weights: crosses the fused chunking threshold, so
    // the update runs as parallel chunk tasks on pools > 1 thread. The
    // resulting states must be bitwise identical at every pool size.
    use goldfish_nn::loss::{CrossEntropy, HardLoss};
    use goldfish_nn::optim::FusedSgd;
    use goldfish_tensor::{init, Tensor};

    let run = |threads: usize| {
        pool::install(Some(threads), || {
            let mut rng = StdRng::seed_from_u64(21);
            let mut net = zoo::mlp(300, &[300], 10, &mut rng);
            let x = init::normal(&mut rng, vec![16, 300], 0.0, 1.0);
            let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
            let mut opt = FusedSgd::new(0.05, 0.9);
            let mut grad = Tensor::zeros(vec![1]);
            for _ in 0..3 {
                let logits = net.forward_ws(&x, true);
                CrossEntropy.loss_and_grad_into(logits, &labels, &mut grad);
                net.zero_grad();
                net.backward_train(&grad);
                opt.step(&mut net);
            }
            net.state_vector()
        })
    };
    let one = run(1);
    assert_eq!(one, run(2), "2-thread fused step diverged");
    assert_eq!(one, run(4), "4-thread fused step diverged");
}

#[test]
fn local_training_runtime_identical_across_thread_counts() {
    use goldfish_fed::trainer::train_local_ce;

    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 100, 20, 6);
    let run = |threads: usize| {
        pool::install(Some(threads), || {
            let mut rng = StdRng::seed_from_u64(13);
            let mut net = zoo::mlp(64, &[32], 10, &mut rng);
            let cfg = TrainConfig {
                local_epochs: 2,
                batch_size: 30, // 100 % 30 != 0: short final batch too
                lr: 0.05,
                momentum: 0.9,
            };
            train_local_ce(&mut net, &train, &cfg, 4);
            net.state_vector()
        })
    };
    let one = run(1);
    assert_eq!(one, run(3), "3-thread local training diverged");
    assert_eq!(one, run(8), "8-thread local training diverged");
}

#[test]
fn federated_round_identical_across_thread_counts() {
    let run = |threads: usize| {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (train, test) = synthetic::generate(&spec, 120, 40, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let parts = partition::iid(train.len(), 3, &mut rng);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[16], 10, &mut rng)
        });
        let mut b = Federation::builder(factory, test)
            .train_config(TrainConfig {
                local_epochs: 1,
                batch_size: 20,
                lr: 0.05,
                momentum: 0.9,
            })
            .threads(threads)
            .init_seed(3);
        for p in &parts {
            b = b.add_client(train.subset(p));
        }
        let mut fed = b.build();
        fed.train_rounds(2, 17);
        fed.global_state().to_vec()
    };
    let one = run(1);
    assert_eq!(one, run(2), "2-thread pool diverged");
    assert_eq!(one, run(4), "4-thread pool diverged");
}
