//! Compares all unlearning methods on the same deletion request: the
//! original model, Goldfish (ours), B1 (retrain from scratch), B2 (rapid
//! retraining) and B3 (incompetent teacher) — reporting accuracy, backdoor
//! success and wall-clock.
//!
//! ```bash
//! cargo run --release --example backdoor_unlearning
//! ```

use std::sync::Arc;
use std::time::Instant;

use goldfish::core::baselines::{
    IncompetentTeacher, OriginalModel, RapidRetrain, RetrainFromScratch,
};
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
    let spec = SyntheticSpec::mnist().with_size(16, 16).with_shift(2);
    let (train, test) = synthetic::generate(&spec, 1500, 400, 11);
    let mut rng = StdRng::seed_from_u64(3);
    let parts = partition::iid(train.len(), 5, &mut rng);
    let mut clients: Vec<_> = parts.iter().map(|p| train.subset(p)).collect();

    let backdoor = BackdoorSpec::new(0).with_patch(6);
    let poisoned: Vec<usize> = (0..30).collect();
    backdoor.poison(&mut clients[0], &poisoned);

    let factory: ModelFactory = Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(256, &[64], 10, &mut rng)
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
    federation.train_rounds(12, 7);
    let original_global = federation.global_state().to_vec();

    let mut splits: Vec<ClientSplit> = Vec::new();
    for (i, data) in clients.into_iter().enumerate() {
        if i == 0 {
            splits.push(ClientSplit::with_removed(&data, &poisoned));
        } else {
            splits.push(ClientSplit::intact(data));
        }
    }
    let setup = UnlearnSetup {
        factory: Arc::clone(&factory),
        clients: splits,
        test: test.clone(),
        original_global,
        rounds: 4,
        train: train_cfg,
    };

    let goldfish_method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
        epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    });
    let b2 = RapidRetrain::default();
    let b3 = IncompetentTeacher::default();
    let methods: Vec<(&str, &dyn UnlearningMethod)> = vec![
        ("origin", &OriginalModel),
        ("goldfish (ours)", &goldfish_method),
        ("b1 retrain", &RetrainFromScratch),
        ("b2 rapid", &b2),
        ("b3 incompetent", &b3),
    ];

    println!(
        "{:<16} {:>9} {:>10} {:>8}",
        "method", "accuracy", "backdoor", "secs"
    );
    for (label, method) in methods {
        let t0 = Instant::now();
        let out = method.unlearn(&setup, 5);
        let secs = t0.elapsed().as_secs_f64();
        let mut net =
            goldfish::core::basic_model::network_from_state(&setup.factory, &out.global_state, 0);
        let acc = goldfish::fed::eval::accuracy(&mut net, &test);
        let asr = goldfish::fed::eval::attack_success_rate(&mut net, &test, &backdoor);
        println!("{label:<16} {acc:>9.3} {asr:>10.3} {secs:>8.1}");
    }
}
