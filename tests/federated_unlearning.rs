//! End-to-end integration tests spanning all crates: federated training,
//! backdoor injection, and the full unlearning pipeline.

use std::sync::Arc;

use goldfish::core::baselines::{
    IncompetentTeacher, OriginalModel, RapidRetrain, RetrainFromScratch,
};
use goldfish::core::basic_model::{network_from_state, GoldfishLocalConfig};
use goldfish::core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
use goldfish::core::unlearner::GoldfishUnlearning;
use goldfish::data::backdoor::BackdoorSpec;
use goldfish::data::partition;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::data::Dataset;
use goldfish::fed::federation::Federation;
use goldfish::fed::trainer::TrainConfig;
use goldfish::fed::ModelFactory;
use goldfish::nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

struct Fixture {
    setup: UnlearnSetup,
    backdoor: BackdoorSpec,
    test: Dataset,
    original_acc: f64,
    original_asr: f64,
}

fn fixture(seed: u64) -> Fixture {
    let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 1200, 300, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let parts = partition::iid(train.len(), 4, &mut rng);
    let mut clients: Vec<Dataset> = parts.iter().map(|p| train.subset(p)).collect();

    let backdoor = BackdoorSpec::new(0).with_patch(5);
    let poisoned: Vec<usize> = (0..30).collect();
    backdoor.poison(&mut clients[0], &poisoned);

    let factory: ModelFactory = Arc::new(|s| {
        let mut rng = StdRng::seed_from_u64(s);
        zoo::mlp(196, &[48], 10, &mut rng)
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
    federation.train_rounds(10, seed ^ 0xF00D);

    let mut original = federation.global_network();
    let original_acc = goldfish::fed::eval::accuracy(&mut original, &test);
    let original_asr = goldfish::fed::eval::attack_success_rate(&mut original, &test, &backdoor);

    let mut splits = Vec::new();
    for (i, data) in clients.into_iter().enumerate() {
        if i == 0 {
            splits.push(ClientSplit::with_removed(&data, &poisoned));
        } else {
            splits.push(ClientSplit::intact(data));
        }
    }
    Fixture {
        setup: UnlearnSetup {
            factory,
            clients: splits,
            test: test.clone(),
            original_global: original.state_vector(),
            rounds: 3,
            train: train_cfg,
        },
        backdoor,
        test,
        original_acc,
        original_asr,
    }
}

fn eval_method(f: &Fixture, method: &dyn UnlearningMethod) -> (f64, f64) {
    let out = method.unlearn(&f.setup, 5);
    let mut net = network_from_state(&f.setup.factory, &out.global_state, 0);
    let acc = goldfish::fed::eval::accuracy(&mut net, &f.test);
    let asr = goldfish::fed::eval::attack_success_rate(&mut net, &f.test, &f.backdoor);
    (acc, asr)
}

fn goldfish_method() -> GoldfishUnlearning {
    GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
        epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    })
}

#[test]
fn pretraining_plants_the_backdoor() {
    let f = fixture(42);
    assert!(f.original_acc > 0.75, "origin accuracy {}", f.original_acc);
    assert!(f.original_asr > 0.5, "origin ASR {}", f.original_asr);
}

#[test]
fn goldfish_forgets_while_keeping_accuracy() {
    let f = fixture(42);
    let (acc, asr) = eval_method(&f, &goldfish_method());
    assert!(acc > 0.7, "goldfish accuracy {acc}");
    assert!(
        asr < 0.2,
        "goldfish ASR {asr} (origin was {})",
        f.original_asr
    );
}

#[test]
fn all_baselines_forget() {
    let f = fixture(43);
    let (b1_acc, b1_asr) = eval_method(&f, &RetrainFromScratch);
    let (b2_acc, b2_asr) = eval_method(&f, &RapidRetrain::default());
    let (b3_acc, b3_asr) = eval_method(&f, &IncompetentTeacher::default());
    assert!(b1_asr < 0.25, "b1 ASR {b1_asr}");
    assert!(b2_asr < 0.25, "b2 ASR {b2_asr}");
    assert!(b3_asr < 0.35, "b3 ASR {b3_asr}");
    assert!(b1_acc > 0.6, "b1 accuracy {b1_acc}");
    assert!(b2_acc > 0.4, "b2 accuracy {b2_acc}");
    assert!(b3_acc > 0.5, "b3 accuracy {b3_acc}");
}

#[test]
fn origin_method_preserves_backdoor() {
    let f = fixture(42);
    let (_, asr) = eval_method(&f, &OriginalModel);
    assert!(
        (asr - f.original_asr).abs() < 1e-9,
        "origin method must not change the model"
    );
}

#[test]
fn unlearned_model_differs_from_original() {
    let f = fixture(44);
    let out = goldfish_method().unlearn(&f.setup, 5);
    let d: f32 = out
        .global_state
        .iter()
        .zip(f.setup.original_global.iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(d > 1.0, "unlearned state suspiciously close to original");
}

#[test]
fn goldfish_is_deterministic_per_seed_and_varies_across_seeds() {
    let f = fixture(45);
    let a = goldfish_method().unlearn(&f.setup, 9);
    let b = goldfish_method().unlearn(&f.setup, 9);
    let c = goldfish_method().unlearn(&f.setup, 10);
    assert_eq!(a.global_state, b.global_state);
    assert_ne!(a.global_state, c.global_state);
}

#[test]
fn divergence_metrics_favor_unlearned_models() {
    // The unlearned model should be distributionally closer to the
    // retrain-from-scratch reference than the (backdoored) original is.
    use goldfish::core::baselines::state_probs;
    use goldfish::metrics::divergence::jsd_mean;
    let f = fixture(46);
    let ours = goldfish_method().unlearn(&f.setup, 5);
    let b1 = RetrainFromScratch.unlearn(&f.setup, 5);

    let probe = f.backdoor.stamp_dataset(&f.test);
    let p_ours = state_probs(&f.setup.factory, &ours.global_state, &probe);
    let p_b1 = state_probs(&f.setup.factory, &b1.global_state, &probe);
    let p_origin = state_probs(&f.setup.factory, &f.setup.original_global, &probe);

    let jsd_ours = jsd_mean(&p_ours, &p_b1);
    let jsd_origin = jsd_mean(&p_origin, &p_b1);
    assert!(
        jsd_ours < jsd_origin,
        "ours-vs-b1 JSD {jsd_ours} should be below origin-vs-b1 {jsd_origin}"
    );
}
