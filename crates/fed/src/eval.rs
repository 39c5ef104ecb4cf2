//! Model evaluation over datasets.
//!
//! These helpers glue the NN substrate to the metrics crate: they run a
//! network over a dataset in eval mode and produce the quantities the
//! paper's tables report.

use goldfish_data::backdoor::BackdoorSpec;
use goldfish_data::Dataset;
use goldfish_metrics as metrics;
use goldfish_nn::Network;
use goldfish_tensor::{ops, Tensor};

use crate::aggregate::ClientUpdate;
use crate::{pool, ModelFactory};

/// Batch size used for evaluation passes (memory bound, not a
/// hyperparameter).
const EVAL_BATCH: usize = 256;

/// Runs the network over the dataset in eval mode and returns the
/// `[n, classes]` softmax probability tensor.
pub fn predict_probs(net: &mut Network, data: &Dataset) -> Tensor {
    let mut rows: Vec<f32> = Vec::with_capacity(data.len() * data.classes());
    let mut cols = data.classes();
    for (x, _) in data.batches(EVAL_BATCH) {
        let logits = net.forward(&x, false);
        let probs = ops::softmax(&logits);
        cols = probs.dims2().1;
        rows.extend_from_slice(probs.as_slice());
    }
    Tensor::from_vec(vec![data.len(), cols], rows)
}

/// Argmax class predictions over the dataset.
pub fn predict_classes(net: &mut Network, data: &Dataset) -> Vec<usize> {
    let mut preds = Vec::with_capacity(data.len());
    for (x, _) in data.batches(EVAL_BATCH) {
        let logits = net.forward(&x, false);
        preds.extend(ops::argmax_rows(&logits));
    }
    preds
}

/// Test-set accuracy in `[0, 1]`.
pub fn accuracy(net: &mut Network, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    metrics::accuracy(&predict_classes(net, data), data.labels())
}

/// Mean squared error between softmax outputs and one-hot labels — the
/// server-side quality score `me_c^t` of Eq 12.
pub fn mse(net: &mut Network, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let probs = predict_probs(net, data);
    let (n, c) = probs.dims2();
    let pv = probs.as_slice();
    let mut acc = 0.0f64;
    for (r, &label) in data.labels().iter().enumerate() {
        for j in 0..c {
            let target = if j == label { 1.0 } else { 0.0 };
            let d = pv[r * c + j] as f64 - target;
            acc += d * d;
        }
    }
    acc / (n * c) as f64
}

/// Builds a network carrying `state`.
fn materialize(factory: &ModelFactory, state: &[f32]) -> Network {
    let mut net = (factory)(0);
    net.set_state_vector(state);
    net
}

/// Evaluates each upload's MSE on the test set (in parallel), writing
/// `server_mse` — Eq 12's `me_c^t`. The evaluation happens
/// **server-side** from the uploaded state vector: a pure function of
/// `(state, test)`, so it matches what a client-side evaluation of the
/// same state would report and remote and in-process runs agree.
pub fn fill_server_mse(
    factory: &ModelFactory,
    test: &Dataset,
    threads: Option<usize>,
    updates: &mut [ClientUpdate],
) {
    pool::install(threads, || {
        pool::for_each_slot(updates, |_, u| {
            let mut net = materialize(factory, &u.state);
            u.server_mse = Some(mse(&mut net, test));
        });
    });
}

/// Test accuracy of each upload (Fig 8 error bars), in update order.
pub fn client_accuracies(
    factory: &ModelFactory,
    test: &Dataset,
    threads: Option<usize>,
    updates: &[ClientUpdate],
) -> Vec<f64> {
    let mut accs = vec![0.0f64; updates.len()];
    pool::install(threads, || {
        pool::for_each_slot(&mut accs, |i, slot| {
            let mut net = materialize(factory, &updates[i].state);
            *slot = accuracy(&mut net, test);
        });
    });
    accs
}

/// Backdoor attack success rate of `net` against the given backdoor, probed
/// on a clean dataset (the probe construction drops target-class samples
/// and stamps the trigger; see [`BackdoorSpec::stamp_dataset`]).
pub fn attack_success_rate(net: &mut Network, clean: &Dataset, backdoor: &BackdoorSpec) -> f64 {
    let probe = backdoor.stamp_dataset(clean);
    if probe.is_empty() {
        return 0.0;
    }
    let preds = predict_classes(net, &probe);
    metrics::attack_success_rate(&preds, backdoor.target_class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_fed_test_util::*;

    /// Local test helpers.
    mod goldfish_fed_test_util {
        use super::*;
        use goldfish_nn::zoo;
        use rand::{rngs::StdRng, SeedableRng};

        pub fn tiny() -> (Network, Dataset) {
            let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
            let (_, test) = synthetic::generate(&spec, 10, 60, 4);
            let mut rng = StdRng::seed_from_u64(0);
            (zoo::mlp(64, &[16], 10, &mut rng), test)
        }
    }

    #[test]
    fn probs_are_distributions() {
        let (mut net, test) = tiny();
        let p = predict_probs(&mut net, &test);
        assert_eq!(p.shape(), &[60, 10]);
        for r in 0..60 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn accuracy_of_untrained_net_is_near_chance() {
        let (mut net, test) = tiny();
        let acc = accuracy(&mut net, &test);
        assert!(acc < 0.5, "untrained accuracy {acc}");
    }

    #[test]
    fn mse_bounded_and_positive_for_untrained() {
        let (mut net, test) = tiny();
        let e = mse(&mut net, &test);
        assert!(e > 0.0 && e < 1.0, "mse {e}");
    }

    #[test]
    fn asr_of_untrained_net_is_low_for_most_targets() {
        let (mut net, test) = tiny();
        let spec = goldfish_data::backdoor::BackdoorSpec::new(3).with_patch(2);
        let asr = attack_success_rate(&mut net, &test, &spec);
        // An untrained network predicts near-uniformly over 10 classes.
        assert!(asr < 0.6, "asr {asr}");
    }

    #[test]
    fn empty_dataset_yields_zero_metrics() {
        let (mut net, _) = tiny();
        let empty = Dataset::empty(&[1, 8, 8], 10);
        assert_eq!(accuracy(&mut net, &empty), 0.0);
        assert_eq!(mse(&mut net, &empty), 0.0);
    }
}
