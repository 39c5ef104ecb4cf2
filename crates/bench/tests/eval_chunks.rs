//! Chunked evaluation is batch-invariant: `fed::eval` forwards
//! `EVAL_CHUNK`-row chunks (the remainder joining the first one), and every
//! logit, accuracy and MSE it produces is bit-for-bit what forwarding the
//! same rows in 256-row batches gives.
//!
//! That holds wherever the GEMM engine itself is batch-invariant. It is
//! not for a convolution that lowers image blocks whose column count is
//! not a multiple of the register-tile width: the trailing columns run
//! through the engine's non-FMA edge loop, and which image lands there
//! depends on how the batch splits into blocks (DESIGN.md §8). ResNet-mini
//! at the experiments' 16×16 input lowers its 4×4 stage in blocks of 21
//! images, so no chunk size reproduces 256-row batches there; it is pinned
//! here at CIFAR's native 32×32, where every block is column-aligned.

use std::sync::Arc;

use goldfish_bench::workloads::Workload;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::eval::{self, EVAL_CHUNK};
use goldfish_fed::ModelFactory;
use goldfish_nn::zoo;
use goldfish_tensor::engine::SMALL_FLOPS;
use goldfish_tensor::{ops, Tensor};
use rand::{rngs::StdRng, SeedableRng};

/// Dataset lengths: several chunks with a remainder, exact multiples of
/// nothing in particular, and one dataset shorter than a chunk.
const LENGTHS: [usize; 5] = [400, 200, 198, 144, 37];

type Model = (String, ModelFactory, SyntheticSpec);

fn workload(w: Workload) -> Model {
    (w.name.clone(), w.factory(), w.spec.clone())
}

/// The benchmark's two models: LeNet-5 on 1×28×28 and the 784→128→10 MLP.
fn benchmark_models() -> Vec<Model> {
    vec![
        (
            "benchmark lenet5".into(),
            Arc::new(|seed| zoo::lenet5(1, 28, 28, 10, &mut StdRng::seed_from_u64(seed))),
            SyntheticSpec::mnist(),
        ),
        (
            "benchmark mlp".into(),
            Arc::new(|seed| zoo::mlp(784, &[128], 10, &mut StdRng::seed_from_u64(seed))),
            SyntheticSpec::mnist(),
        ),
    ]
}

/// Every model whose evaluation is pinned bitwise: the experiments'
/// LeNet-5 and LeNet-modified, the benchmark's LeNet-5 and MLP, and
/// ResNet-mini in the experiments' CIFAR-100 configuration (two blocks per
/// stage, base 8) on 3×32×32.
fn invariant_models() -> Vec<Model> {
    let mut out = vec![
        workload(Workload::mnist()),
        workload(Workload::fmnist()),
        workload(Workload::cifar10_lenet()),
        (
            "resnet-mini 3x32x32".into(),
            Arc::new(|seed| zoo::resnet_mini(3, 100, 2, 8, &mut StdRng::seed_from_u64(seed))),
            SyntheticSpec::cifar100(),
        ),
    ];
    out.extend(benchmark_models());
    out
}

/// The evaluation every caller ran before chunking: 256-row batches.
fn logits_in_256_row_batches(factory: &ModelFactory, data: &Dataset) -> Tensor {
    let mut net = (factory)(3);
    let mut rows = Vec::new();
    let mut cols = 0;
    for (x, _) in data.batches(256) {
        let logits = net.forward_ws(&x, false);
        cols = logits.dims2().1;
        rows.extend_from_slice(logits.as_slice());
    }
    Tensor::from_vec(vec![data.len(), cols], rows)
}

fn chunked_logits(factory: &ModelFactory, data: &Dataset) -> Vec<f32> {
    let mut net = (factory)(3);
    let mut rows = Vec::new();
    eval::for_each_chunk(&mut net, data, |logits, _| {
        rows.extend_from_slice(logits.as_slice())
    });
    rows
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn chunked_evaluation_matches_256_row_batches_bitwise() {
    for (name, factory, spec) in invariant_models() {
        let (_, test) = synthetic::generate(&spec, 10, LENGTHS[0], 11);
        for len in LENGTHS {
            let data = test.subset(&(0..len).collect::<Vec<_>>());
            let reference = logits_in_256_row_batches(&factory, &data);
            assert_eq!(
                bits(&chunked_logits(&factory, &data)),
                bits(reference.as_slice()),
                "{name}: logits over {len} rows"
            );

            // The scores, against the pre-chunking formulas over the
            // reference logits.
            let want_acc = goldfish_metrics::accuracy(&ops::argmax_rows(&reference), data.labels());
            let probs = ops::softmax(&reference);
            let (n, c) = probs.dims2();
            let mut sq = 0.0f64;
            for (r, &label) in data.labels().iter().enumerate() {
                for j in 0..c {
                    let target = if j == label { 1.0 } else { 0.0 };
                    let d = probs.as_slice()[r * c + j] as f64 - target;
                    sq += d * d;
                }
            }
            let want_mse = sq / (n * c) as f64;
            let mut net = (factory)(3);
            assert_eq!(eval::accuracy(&mut net, &data), want_acc, "{name}: {len}");
            assert_eq!(eval::mse(&mut net, &data), want_mse, "{name}: {len}");
            assert_eq!(
                eval::accuracy_and_mse(&mut net, &data),
                (want_acc, want_mse),
                "{name}: {len}"
            );
        }
    }
}

/// The chunk floor's job: no dense layer of a batch-invariant model drops
/// below the engine's small-GEMM threshold at `EVAL_CHUNK` rows, so no
/// chunk runs a layer on other roundings than a big batch does.
#[test]
fn chunk_floor_keeps_every_dense_layer_on_the_tiled_path() {
    for (name, factory, _) in invariant_models() {
        let net = (factory)(0);
        let mut weights = Vec::new();
        net.visit_params(&mut |p| {
            if p.value.shape().len() == 2 {
                weights.push(p.value.len());
            }
        });
        let narrowest = weights
            .into_iter()
            .min()
            .expect("every evaluated model ends in a dense layer");
        let floor = SMALL_FLOPS.div_ceil(narrowest);
        assert!(
            EVAL_CHUNK >= floor,
            "{name}: a {narrowest}-weight dense layer needs chunks of {floor} rows, \
             EVAL_CHUNK is {EVAL_CHUNK}"
        );
    }
}

#[test]
fn chunk_ranges_fold_the_remainder_into_the_first_chunk() {
    let lens = |n: usize| -> Vec<usize> { eval::chunk_ranges(n).map(|r| r.len()).collect() };
    assert!(lens(0).is_empty());
    assert_eq!(lens(EVAL_CHUNK / 2), vec![EVAL_CHUNK / 2]);
    assert_eq!(lens(EVAL_CHUNK), vec![EVAL_CHUNK]);
    assert_eq!(lens(2 * EVAL_CHUNK - 1), vec![2 * EVAL_CHUNK - 1]);
    assert_eq!(lens(2 * EVAL_CHUNK + 3), vec![EVAL_CHUNK + 3, EVAL_CHUNK]);
    for n in [37, 144, 198, 200, 400] {
        let ranges: Vec<_> = eval::chunk_ranges(n).collect();
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert_eq!(ranges.last().map(|r| r.end), Some(n));
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert!(n < EVAL_CHUNK || ranges.iter().all(|r| r.len() >= EVAL_CHUNK));
    }
}
