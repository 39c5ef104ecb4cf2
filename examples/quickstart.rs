//! Quickstart: federated training, a deletion request, and Goldfish
//! unlearning — end to end in under a minute on a laptop.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use goldfish::core::basic_model::GoldfishLocalConfig;
use goldfish::core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
use goldfish::core::unlearner::GoldfishUnlearning;
use goldfish::data::backdoor::BackdoorSpec;
use goldfish::data::partition;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::fed::federation::Federation;
use goldfish::fed::trainer::TrainConfig;
use goldfish::fed::ModelFactory;
use goldfish::nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // 1. A small MNIST-like dataset split across 4 clients.
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 1200, 300, 42);
    let mut rng = StdRng::seed_from_u64(0);
    let parts = partition::iid(train.len(), 4, &mut rng);
    let mut clients: Vec<_> = parts.iter().map(|p| train.subset(p)).collect();

    // 2. Client 0 holds backdoored data (the data it later wants deleted).
    let backdoor = BackdoorSpec::new(0).with_patch(5);
    let poisoned: Vec<usize> = (0..30).collect();
    backdoor.poison(&mut clients[0], &poisoned);

    // 3. Federated pretraining with FedAvg — the "original" global model.
    let factory: ModelFactory = Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(14 * 14, &[64], 10, &mut rng)
    });
    let train_cfg = TrainConfig {
        local_epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
    };
    let mut federation = Federation::builder(Arc::clone(&factory), test.clone())
        .train_config(train_cfg)
        .clients(clients.iter().cloned())
        .build();
    federation.train_rounds(10, 7);

    let mut original = federation.global_network();
    let acc = goldfish::fed::eval::accuracy(&mut original, &test);
    let asr = goldfish::fed::eval::attack_success_rate(&mut original, &test, &backdoor);
    println!("original model:  accuracy {acc:.3}, backdoor success {asr:.3}");

    // 4. The deletion request: client 0 removes its poisoned samples.
    let mut splits: Vec<ClientSplit> = Vec::new();
    for (i, data) in clients.into_iter().enumerate() {
        if i == 0 {
            splits.push(ClientSplit::with_removed(&data, &poisoned));
        } else {
            splits.push(ClientSplit::intact(data));
        }
    }
    let setup = UnlearnSetup {
        factory,
        clients: splits,
        test: test.clone(),
        original_global: original.state_vector(),
        rounds: 3,
        train: train_cfg,
    };

    // 5. Goldfish unlearning (distillation retraining, adaptive weights).
    let method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
        epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    });
    let outcome = method.unlearn(&setup, 1);

    let mut unlearned =
        goldfish::core::basic_model::network_from_state(&setup.factory, &outcome.global_state, 0);
    let acc = goldfish::fed::eval::accuracy(&mut unlearned, &test);
    let asr = goldfish::fed::eval::attack_success_rate(&mut unlearned, &test, &backdoor);
    println!("unlearned model: accuracy {acc:.3}, backdoor success {asr:.3}");
    println!("round accuracies: {:?}", outcome.round_accuracies);
}
