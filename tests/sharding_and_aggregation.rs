//! Integration tests for the optimization module (sharding) and the
//! extension module (adaptive aggregation) on live trained models.

use std::sync::Arc;

use goldfish::core::optimization::ShardedClient;
use goldfish::data::partition;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::fed::federation::Federation;
use goldfish::fed::trainer::TrainConfig;
use goldfish::fed::ModelFactory;
use goldfish::nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

fn factory() -> ModelFactory {
    Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(196, &[32], 10, &mut rng)
    })
}

fn cfg() -> TrainConfig {
    TrainConfig {
        local_epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
    }
}

#[test]
fn eq10_recovery_holds_on_trained_states() {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 600, 50, 3);
    let mut client = ShardedClient::new(&train, 5, factory(), cfg(), 0);
    client.train_round(0);
    client.train_round(1);
    let model = client.model();
    let agg = model.aggregate();
    for i in 0..model.num_shards() {
        let recovered = model.recover_shard_weights(i, &agg);
        let max_err = recovered
            .iter()
            .zip(model.shard_state(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-2, "shard {i} recovery max err {max_err}");
    }
}

#[test]
fn shard_deletion_recovers_accuracy_quickly() {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 900, 250, 4);
    let f = factory();
    let acc_of = |c: &ShardedClient| {
        let mut net = (f)(0);
        net.set_state_vector(&c.local_state());
        goldfish::fed::eval::accuracy(&mut net, &test)
    };

    let mut sharded = ShardedClient::new(&train, 6, f.clone(), cfg(), 0);
    let mut whole = ShardedClient::new(&train, 1, f.clone(), cfg(), 0);
    for round in 0..6 {
        sharded.train_round(round);
        whole.train_round(round);
    }
    let before = acc_of(&sharded);
    assert!(before > 0.5, "sharded pre-deletion accuracy {before}");

    // Delete ~5% concentrated in shard 0 (indices ≡ 0 mod 6).
    let doomed: Vec<usize> = (0..45).map(|k| 6 * k).collect();
    let impact = sharded.delete_samples(&doomed, 9);
    assert_eq!(impact.partial, vec![0]);
    let whole_doomed: Vec<usize> = (0..45).collect();
    whole.delete_samples(&whole_doomed, 9);

    // One recovery round each: the sharded client (which kept 5/6 of its
    // shard models and restarted from the Eq 9 checkpoint) must not be
    // far below its pre-deletion accuracy.
    sharded.train_round(10);
    whole.train_round(10);
    let after = acc_of(&sharded);
    assert!(
        after > before - 0.15,
        "sharded accuracy collapsed after deletion: {before} -> {after}"
    );
}

#[test]
fn adaptive_aggregation_matches_fedavg_on_iid() {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 1000, 250, 5);
    let mut rng = StdRng::seed_from_u64(1);
    let parts = partition::iid(train.len(), 5, &mut rng);
    let run = |adaptive: bool| {
        let mut fed = Federation::builder(factory(), test.clone())
            .train_config(cfg())
            .clients(parts.iter().map(|p| train.subset(p)))
            .adaptive_aggregation(adaptive)
            .init_seed(2)
            .build();
        fed.train_rounds(4, 3).final_accuracy()
    };
    let fa = run(false);
    let ad = run(true);
    assert!(
        (fa - ad).abs() < 0.1,
        "IID: fedavg {fa} vs adaptive {ad} should be comparable"
    );
}

#[test]
fn adaptive_aggregation_not_worse_under_heterogeneity() {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 1200, 250, 6);
    // Any single uneven partition draw can favour either strategy, so
    // compare the round-1 accuracy averaged over a few partition seeds.
    let mut fa_sum = 0.0;
    let mut ad_sum = 0.0;
    const SEEDS: [u64; 3] = [0, 1, 2];
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let parts = partition::uneven(train.len(), 8, 0.02, &mut rng);
        let run = |adaptive: bool| {
            let mut fed = Federation::builder(factory(), test.clone())
                .train_config(cfg())
                .clients(parts.iter().map(|p| train.subset(p)))
                .adaptive_aggregation(adaptive)
                .init_seed(2)
                .build();
            let report = fed.train_rounds(1, 3);
            report.rounds[0].global_accuracy
        };
        fa_sum += run(false);
        ad_sum += run(true);
    }
    let fa = fa_sum / SEEDS.len() as f64;
    let ad = ad_sum / SEEDS.len() as f64;
    // In the first round (before FedAvg catches up), quality weighting
    // should give broadly comparable accuracy on average. Pure Eq 12
    // weighting ignores sample counts, so under an extreme uneven split it
    // may trail sample-count weighting by a few points — guard against
    // collapse, not against small gaps.
    assert!(
        ad > fa - 0.10,
        "heterogeneous round-1: adaptive {ad} vs fedavg {fa}"
    );
}
