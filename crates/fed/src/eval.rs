//! Model evaluation over datasets.
//!
//! These helpers glue the NN substrate to the metrics crate: they run a
//! network over a dataset in eval mode and produce the quantities the
//! paper's tables report.
//!
//! Every evaluator streams the dataset through one pass,
//! [`for_each_chunk`]: [`EVAL_CHUNK`]-row chunks in dataset order, the
//! remainder folded into the first chunk, each forwarded in eval mode and
//! scored before the next is copied in. Resident memory is one chunk's
//! activations, whatever the dataset size (DESIGN.md §8).

use std::ops::Range;

use goldfish_data::backdoor::BackdoorSpec;
use goldfish_data::Dataset;
use goldfish_metrics as metrics;
use goldfish_nn::Network;
use goldfish_tensor::{ops, Tensor};

/// Rows per evaluation chunk; the first chunk also takes the remainder,
/// so a dataset of at least `EVAL_CHUNK` rows is never forwarded in a
/// shorter chunk.
///
/// The floor keeps evaluation batch-invariant: `engine` runs a GEMM below
/// `SMALL_FLOPS` multiply-accumulates on its reference-order loop (no
/// FMA), so a short chunk could move a narrow classifier head onto other
/// roundings. At 32 rows every dense layer of LeNet-5, LeNet-modified
/// (its 84→10 head needs 20) and the MLPs stays on the tiled path, and
/// every logit is bit-for-bit what a 256-row batch gives (pinned by
/// `crates/bench/tests/eval_chunks.rs`; DESIGN.md §8 names the one
/// experiment model no chunk size can make batch-invariant). Chunks are
/// the unit of resident memory, so the floor is also the ceiling: each
/// is at most `2 × EVAL_CHUNK − 1` rows.
pub const EVAL_CHUNK: usize = 32;

/// The row ranges [`for_each_chunk`] forwards for an `n`-row dataset, in
/// order: `EVAL_CHUNK` rows each, the remainder joining the first range
/// (one range of `n` rows when `n < EVAL_CHUNK`, none when `n == 0`).
/// Leading with the largest chunk sizes the network's workspace once; a
/// longer last chunk would regrow every activation buffer at the end.
pub fn chunk_ranges(n: usize) -> impl Iterator<Item = Range<usize>> {
    let chunks = (n / EVAL_CHUNK).max(usize::from(n > 0));
    let first = n - chunks.saturating_sub(1) * EVAL_CHUNK;
    (0..chunks).map(move |i| match i {
        0 => 0..first,
        _ => first + (i - 1) * EVAL_CHUNK..first + i * EVAL_CHUNK,
    })
}

/// Runs `net` in eval mode over `data` chunk by chunk (see
/// [`chunk_ranges`]), calling `f(logits, labels)` with each chunk's
/// `[rows, classes]` logits and its labels. The chunk's rows are copied
/// into one reused buffer and forwarded through the network's own
/// workspace, so nothing scales with the dataset.
pub fn for_each_chunk(net: &mut Network, data: &Dataset, mut f: impl FnMut(&Tensor, &[usize])) {
    let d = data.sample_len();
    let features = data.features().as_slice();
    let mut shape = Vec::with_capacity(data.sample_shape().len() + 1);
    shape.push(0);
    shape.extend_from_slice(data.sample_shape());
    let mut x = Tensor::zeros(vec![0]);
    for rows in chunk_ranges(data.len()) {
        shape[0] = rows.len();
        x.resize(&shape);
        x.as_mut_slice()
            .copy_from_slice(&features[rows.start * d..rows.end * d]);
        f(net.forward_ws(&x, false), &data.labels()[rows]);
    }
}

/// What one scoring pass accumulates.
struct Scores {
    /// Rows whose argmax class equals the label.
    correct: usize,
    /// `Σ (pᵢⱼ − yᵢⱼ)²` over softmax outputs and one-hot labels, row by
    /// row in dataset order (only when asked for).
    squared_error: f64,
    /// Softmax columns (the class count the network emits).
    classes: usize,
}

/// One pass over `data` scoring accuracy, and Eq 12's squared error too
/// when `with_mse` (the softmax is skipped otherwise).
fn score(net: &mut Network, data: &Dataset, with_mse: bool) -> Scores {
    let mut s = Scores {
        correct: 0,
        squared_error: 0.0,
        classes: 0,
    };
    let mut probs = Tensor::zeros(vec![0]);
    for_each_chunk(net, data, |logits, labels| {
        let (_, c) = logits.dims2();
        s.classes = c;
        for (row, &label) in logits.as_slice().chunks_exact(c).zip(labels) {
            s.correct += usize::from(ops::argmax_row(row) == label);
        }
        if with_mse {
            ops::softmax_t_into(logits, 1.0, &mut probs);
            for (row, &label) in probs.as_slice().chunks_exact(c).zip(labels) {
                for (j, &p) in row.iter().enumerate() {
                    let target = if j == label { 1.0 } else { 0.0 };
                    let d = p as f64 - target;
                    s.squared_error += d * d;
                }
            }
        }
    });
    s
}

/// Runs the network over the dataset in eval mode and returns the
/// `[n, classes]` softmax probability tensor.
pub fn predict_probs(net: &mut Network, data: &Dataset) -> Tensor {
    let mut rows: Vec<f32> = Vec::with_capacity(data.len() * data.classes());
    let mut cols = data.classes();
    let mut probs = Tensor::zeros(vec![0]);
    for_each_chunk(net, data, |logits, _| {
        ops::softmax_t_into(logits, 1.0, &mut probs);
        cols = probs.dims2().1;
        rows.extend_from_slice(probs.as_slice());
    });
    Tensor::from_vec(vec![data.len(), cols], rows)
}

/// Argmax class predictions over the dataset.
pub(crate) fn predict_classes(net: &mut Network, data: &Dataset) -> Vec<usize> {
    let mut preds = Vec::with_capacity(data.len());
    for_each_chunk(net, data, |logits, _| {
        let (_, c) = logits.dims2();
        preds.extend(logits.as_slice().chunks_exact(c).map(ops::argmax_row));
    });
    preds
}

/// Test-set accuracy in `[0, 1]`.
pub fn accuracy(net: &mut Network, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    score(net, data, false).correct as f64 / data.len() as f64
}

/// Mean squared error between softmax outputs and one-hot labels — the
/// server-side quality score `me_c^t` of Eq 12.
pub fn mse(net: &mut Network, data: &Dataset) -> f64 {
    accuracy_and_mse(net, data).1
}

/// [`accuracy`] and [`mse`] from one pass over the dataset — the same
/// two values, bit for bit.
pub fn accuracy_and_mse(net: &mut Network, data: &Dataset) -> (f64, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let s = score(net, data, true);
    let n = data.len();
    (
        s.correct as f64 / n as f64,
        s.squared_error / (n * s.classes) as f64,
    )
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

        pub(crate) fn tiny() -> (Network, Dataset) {
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
