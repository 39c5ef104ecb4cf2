//! `Federation` rounds against an independent hand loop.
//!
//! `Federation::train_rounds` and the serve coordinator both run on
//! `RoundRuntime::run_hot`, so checking one against the other cannot
//! catch a fault they share. This suite pins the federation against a
//! loop written from the paper's definitions: every client trained
//! directly from the broadcast state, then `weighted_mean` over sample
//! counts (FedAvg) or over the Eq 12 weights of each upload's test MSE
//! (adaptive), and the test accuracy of every upload — bit for bit, at
//! one and at three threads.

use std::sync::Arc;

use goldfish_data::partition;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_fed::aggregate::{adaptive_weights, weighted_mean, ClientUpdate};
use goldfish_fed::eval;
use goldfish_fed::federation::{Federation, FederationBuilder, RoundReport, TrainReport};
use goldfish_fed::trainer::{train_local_ce, TrainConfig};
use goldfish_fed::transport::{client_seed, round_seed};
use goldfish_fed::ModelFactory;
use goldfish_nn::{zoo, Network};
use rand::{rngs::StdRng, SeedableRng};

const ROUNDS: usize = 3;
const SEED: u64 = 41;

/// Three IID clients with per-client accuracies on.
fn builder() -> FederationBuilder {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 240, 80, 9);
    let parts = partition::iid(train.len(), 3, &mut StdRng::seed_from_u64(1));
    let factory: ModelFactory =
        Arc::new(|seed| zoo::mlp(64, &[24], 10, &mut StdRng::seed_from_u64(seed)));
    Federation::builder(factory, test)
        .train_config(TrainConfig {
            local_epochs: 2,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
        })
        .eval_clients(true)
        .clients(parts.iter().map(|p| train.subset(p)))
}

/// The rounds `train_rounds(ROUNDS, SEED)` must reproduce, written from
/// scratch over the federation's public parts, and the final global.
fn hand_loop(fed: &Federation, adaptive: bool) -> (TrainReport, Vec<f32>) {
    let factory = fed.model_factory();
    let net_of = |state: &[f32]| -> Network {
        let mut net = (factory)(0);
        net.set_state_vector(state);
        net
    };
    let test = fed.test_data();
    let mut global = fed.global_state().to_vec();
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        let seed = round_seed(SEED, r);
        let updates: Vec<ClientUpdate> = (0..fed.num_clients())
            .map(|id| {
                let cs = client_seed(seed, id, r);
                let mut net = (factory)(cs);
                net.set_state_vector(&global);
                train_local_ce(&mut net, fed.client_data(id), fed.train_config(), cs);
                ClientUpdate {
                    client_id: id,
                    state: net.state_vector(),
                    num_samples: fed.client_data(id).len(),
                }
            })
            .collect();
        let weights = if adaptive {
            let mses: Vec<f64> = updates
                .iter()
                .map(|u| eval::mse(&mut net_of(&u.state), test))
                .collect();
            adaptive_weights(&mses)
        } else {
            updates.iter().map(|u| u.num_samples as f64).collect()
        };
        global = weighted_mean(&updates, &weights);
        rounds.push(RoundReport {
            round: r,
            global_accuracy: eval::accuracy(&mut net_of(&global), test),
            client_accuracies: updates
                .iter()
                .map(|u| eval::accuracy(&mut net_of(&u.state), test))
                .collect(),
            client_sizes: updates.iter().map(|u| u.num_samples).collect(),
        });
    }
    (TrainReport { rounds }, global)
}

#[test]
fn train_rounds_match_the_hand_loop_bitwise() {
    for adaptive in [false, true] {
        let (want, want_global) = hand_loop(&builder().build(), adaptive);
        for threads in [1, 3] {
            let mut fed = builder()
                .adaptive_aggregation(adaptive)
                .threads(threads)
                .build();
            let got = fed.train_rounds(ROUNDS, SEED);
            assert_eq!(got, want, "adaptive {adaptive}, {threads} threads");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fed.global_state()), bits(&want_global));
        }
    }
}
