//! The extension module's adaptive-weight aggregation vs FedAvg when
//! client datasets are wildly uneven (the Fig 8 scenario).
//!
//! ```bash
//! cargo run --release --example heterogeneous_aggregation
//! ```

use std::sync::Arc;

use goldfish::data::partition;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::fed::federation::Federation;
use goldfish::fed::trainer::TrainConfig;
use goldfish::fed::ModelFactory;
use goldfish::nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 1500, 400, 5);
    let mut rng = StdRng::seed_from_u64(9);
    // Heavily uneven split: some clients get a few samples, some hundreds.
    let parts = partition::uneven(train.len(), 8, 0.02, &mut rng);
    println!(
        "client sizes: {:?} (variance {:.1})",
        parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
        partition::size_variance(&parts)
    );

    let factory: ModelFactory = Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(196, &[48], 10, &mut rng)
    });
    let run = |adaptive: bool| -> Vec<f64> {
        let mut fed = Federation::builder(factory.clone(), test.clone())
            .train_config(TrainConfig {
                local_epochs: 2,
                batch_size: 25,
                lr: 0.05,
                momentum: 0.9,
            })
            .clients(parts.iter().map(|p| train.subset(p)))
            .adaptive_aggregation(adaptive)
            .init_seed(1)
            .build();
        fed.train_rounds(6, 2)
            .rounds
            .iter()
            .map(|r| r.global_accuracy)
            .collect()
    };

    let fedavg = run(false);
    let adaptive = run(true);
    println!("{:<7} {:>10} {:>10}", "round", "fedavg", "adaptive");
    for (i, (f, a)) in fedavg.iter().zip(adaptive.iter()).enumerate() {
        println!("{:<7} {f:>10.3} {a:>10.3}", i + 1);
    }
}
