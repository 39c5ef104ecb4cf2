//! Local client training (plain SGD — the `LocalTraining` procedure of
//! Algorithm 1).
//!
//! There is one mini-batch loop, [`train_local_hot`], and one executor
//! shape for it: a [`TrainLane`] per running thread, grouped into
//! [`Lanes`] by an in-process executor. Federation rounds, B1
//! retraining, shard training, the serve loopback and remote workers
//! all train through it (B2 and B3 run their own local steps on the
//! same lanes); [`train_local_ce`] is the same loop on fresh buffers for
//! a one-off run. An executor built with `threads: None` sizes its
//! waves by the enclosing [`pool::install`], so a caller's pool decides
//! how many lanes run at once.
//!
//! The loop runs on the allocation-free training runtime (DESIGN.md
//! §8): batches are gathered into a persistent [`BatchGather`] buffer,
//! the forward/backward passes reuse the network's activation and
//! gradient arenas ([`Network::forward_ws`] /
//! [`Network::backward_train`]), the loss writes its gradient into a
//! reused buffer, and the fused optimizer walks flat parameter slices.
//! Every piece is bitwise identical to the seed's allocating pipeline
//! (subset copies, per-layer tensors, `loss_and_grad`, three-pass
//! momentum SGD), pinned against an independent re-implementation by
//! the step-identity tests in `tests/runtime_identity.rs`.

use std::sync::Arc;

use goldfish_data::{BatchGather, Dataset};
use goldfish_nn::loss::{CrossEntropy, HardLoss};
use goldfish_nn::optim::FusedSgd;
use goldfish_nn::Network;
use goldfish_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{eval, pool, ModelFactory};

/// Hyperparameters of one client's local training, defaulting to the
/// paper's settings (B = 100, η = 0.001, β = 0.9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate η.
    pub lr: f32,
    /// Momentum β.
    pub momentum: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            local_epochs: 1,
            batch_size: 100,
            lr: 0.001,
            momentum: 0.9,
        }
    }
}

/// Reusable per-step buffers of [`train_local_hot`]: the batch gather
/// buffer, the loss-gradient buffer and the shuffle-order vector. Keep
/// one per long-lived training loop (a [`TrainLane`], a benchmark
/// harness) so repeated local runs skip even the per-call warm-up
/// allocations. It carries capacity between calls, never state.
#[derive(Debug, Default)]
pub struct TrainWorkspace {
    gather: BatchGather,
    grad: Tensor,
    order: Vec<usize>,
}

impl TrainWorkspace {
    /// Creates an empty workspace (buffers sized on first use).
    pub fn new() -> Self {
        TrainWorkspace::default()
    }
}

/// Trains `net` on `data` for `cfg.local_epochs` epochs of mini-batch SGD
/// with the given hard loss, shuffling with a seeded RNG — the one local
/// SGD loop every client, shard and worker runs. Allocation-free once
/// warm: the caller owns the [`TrainWorkspace`] and the optimizer
/// (re-armed in place, so its velocity buffer survives between runs and
/// a re-armed optimizer steps bitwise as a fresh one). Does
/// nothing for an empty dataset.
pub fn train_local_hot(
    net: &mut Network,
    data: &Dataset,
    cfg: &TrainConfig,
    loss: &dyn HardLoss,
    seed: u64,
    ws: &mut TrainWorkspace,
    sgd: &mut FusedSgd,
) {
    if data.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    sgd.rearm(cfg.lr, cfg.momentum);
    let TrainWorkspace {
        gather,
        grad,
        order,
    } = ws;
    for _ in 0..cfg.local_epochs {
        data.shuffled_indices_into(&mut rng, order);
        for chunk in order.chunks(cfg.batch_size) {
            gather.gather(data, chunk);
            {
                let logits = net.forward_ws(gather.features(), true);
                loss.loss_and_grad_into(logits, gather.labels(), grad);
            }
            net.zero_grad();
            net.backward_train(grad);
            sgd.step(net);
        }
    }
}

/// [`train_local_hot`] with cross-entropy and fresh buffers — for a
/// one-off run on a network of its own.
pub fn train_local_ce(net: &mut Network, data: &Dataset, cfg: &TrainConfig, seed: u64) {
    let (ws, sgd) = (
        &mut TrainWorkspace::new(),
        &mut FusedSgd::new(cfg.lr, cfg.momentum),
    );
    train_local_hot(net, data, cfg, &CrossEntropy, seed, ws, sgd);
}

/// One executing thread's worth of model state: a network (arenas
/// included), a [`TrainWorkspace`], a [`FusedSgd`] velocity buffer, and a
/// second network slot that distillation lends to a client's teacher
/// cache. Whoever runs clients keeps one lane per thread that can be
/// running at once — the in-process executor
/// ([`LoopbackClients`](crate::transport::LoopbackClients), behind
/// `Federation`, the B1–B3 baselines, every in-process drain and the
/// serve loopback) and
/// a sharded client's shards one per pool thread ([`Lanes`]), a worker
/// connection one, a fleet host one for all its workers — and lends it
/// to whichever client is up next, for training, evaluation and
/// distillation alike, so resident model memory follows what is running
/// rather than who is registered.
///
/// A lane carries **capacity, never state**: every call installs the
/// whole state vector first (trainable parameters and frozen tracked
/// state alike) and re-arms the optimizer, so its result is bitwise that
/// of a fresh `factory(seed)` network run through [`train_local_ce`],
/// whatever the lane ran before and for whom.
pub struct TrainLane {
    /// The network and the factory that built it; rebuilt only when a
    /// call names a different factory.
    model: Option<(ModelFactory, Network)>,
    /// A second network of the same architecture, built on first use by
    /// whoever needs one (a distillation teacher) and dropped with
    /// `model`.
    spare: Option<Network>,
    ws: TrainWorkspace,
    sgd: FusedSgd,
}

impl TrainLane {
    /// An empty lane; the network is built on first use.
    pub fn new() -> Self {
        TrainLane {
            model: None,
            spare: None,
            ws: TrainWorkspace::new(),
            // Placeholder hyperparameters; re-armed from the TrainConfig
            // before every local run.
            sgd: FusedSgd::new(1.0, 0.0),
        }
    }

    /// The lane's parts, with the network built by `factory` (rebuilt
    /// only when the last call named a different one).
    fn fit(
        &mut self,
        factory: &ModelFactory,
    ) -> (&mut Network, &mut TrainWorkspace, &mut FusedSgd) {
        if !matches!(&self.model, Some((built_by, _)) if Arc::ptr_eq(built_by, factory)) {
            // Another factory may mean another architecture: the
            // velocity buffer is sized again on the next step.
            self.model = None;
            self.spare = None;
            self.sgd.reset();
        }
        let (_, net) = self
            .model
            .get_or_insert_with(|| (Arc::clone(factory), (factory)(0)));
        (net, &mut self.ws, &mut self.sgd)
    }

    /// One local run from `global` on `data`. The trained state stays in
    /// the lane's network until [`TrainLane::state_into`] exports it.
    pub fn run(
        &mut self,
        factory: &ModelFactory,
        global: &[f32],
        data: &Dataset,
        cfg: &TrainConfig,
        seed: u64,
    ) {
        self.run_from(factory, |net| net.set_state_vector(global), data, cfg, seed);
    }

    /// [`TrainLane::run`] from `global` given as its little-endian bytes
    /// (a frame's float run), installed without decoding it into a vector
    /// first ([`Network::set_state_le`]); bit for bit the same run.
    /// [`TrainLane::append_state_le`] exports the result as bytes.
    pub fn run_le(
        &mut self,
        factory: &ModelFactory,
        global: &[u8],
        data: &Dataset,
        cfg: &TrainConfig,
        seed: u64,
    ) {
        self.run_from(factory, |net| net.set_state_le(global), data, cfg, seed);
    }

    /// A local run on `data` from the state `install` puts into the
    /// lane's network.
    fn run_from(
        &mut self,
        factory: &ModelFactory,
        install: impl FnOnce(&mut Network),
        data: &Dataset,
        cfg: &TrainConfig,
        seed: u64,
    ) {
        let (net, ws, sgd) = self.fit(factory);
        install(net);
        train_local_hot(net, data, cfg, &CrossEntropy, seed, ws, sgd);
    }

    /// Writes the state of the lane's network — what the last run left
    /// there — into `out` (cleared first, capacity reused).
    ///
    /// # Panics
    ///
    /// Panics if the lane has not run yet.
    pub fn state_into(&self, out: &mut Vec<f32>) {
        let (_, net) = self.model.as_ref().expect("state_into on an unused lane");
        net.state_vector_into(out);
    }

    /// Appends the state of the lane's network to `out` as little-endian
    /// bytes ([`Network::append_state_le`]) — [`TrainLane::state_into`]
    /// encoded, without the vector.
    ///
    /// # Panics
    ///
    /// Panics if the lane has not run yet.
    pub fn append_state_le(&self, out: &mut Vec<u8>) {
        let (_, net) = self
            .model
            .as_ref()
            .expect("append_state_le on an unused lane");
        net.append_state_le(out);
    }

    /// One local run from `global` on `data`, the trained state written
    /// into `out` (cleared first, capacity reused).
    pub fn train(
        &mut self,
        factory: &ModelFactory,
        global: &[f32],
        data: &Dataset,
        cfg: &TrainConfig,
        seed: u64,
        out: &mut Vec<f32>,
    ) {
        self.run(factory, global, data, cfg, seed);
        self.state_into(out);
    }

    /// The state-vector length of `factory`'s model, read off the lane's
    /// network — built here if the lane has none from `factory`, and then
    /// the one the lane's next run trains — so a host learns it without
    /// building a network of its own.
    pub fn state_len(&mut self, factory: &ModelFactory) -> usize {
        self.fit(factory).0.state_len()
    }

    /// `(accuracy, mse)` of `global` on `data` — the `Eval` exchange,
    /// one chunked pass over `data`.
    pub fn eval(&mut self, factory: &ModelFactory, global: &[f32], data: &Dataset) -> (f64, f64) {
        let (net, ..) = self.fit(factory);
        net.set_state_vector(global);
        eval::accuracy_and_mse(net, data)
    }

    /// The lane's network and its spare-network slot, for a caller that
    /// trains with its own loop (distillation): the network as
    /// `TrainLane::run` would use it — [`TrainLane::state_into`]
    /// exports what the caller leaves there — and the slot, empty until
    /// the caller first fills it with a network built by `factory`.
    pub fn networks(&mut self, factory: &ModelFactory) -> (&mut Network, &mut Option<Network>) {
        self.fit(factory);
        let (_, net) = self.model.as_mut().expect("fitted above");
        (net, &mut self.spare)
    }
}

/// An in-process executor's lanes: one per client running at once on a
/// pool of `pool::effective_threads(threads)` threads — `None` is the
/// enclosing pool's size — so at most one per pool thread, whatever the
/// number of clients.
#[derive(Debug)]
pub struct Lanes {
    threads: Option<usize>,
    lanes: Vec<TrainLane>,
}

impl Lanes {
    /// No lanes yet; each wave grows the set to its own width.
    pub fn new(threads: Option<usize>) -> Self {
        Lanes {
            threads,
            lanes: Vec::new(),
        }
    }

    /// Runs `run(i, lane, item)` once per item `i`, in order, in waves of
    /// one item per pool thread. Each item of a wave gets its own lane
    /// (the lane at its position in the wave). After each wave,
    /// `feed(first, lanes, items)` runs on the calling thread with that
    /// wave's lanes and items, still paired by position (`first` is the
    /// wave's first item index), before the next wave reuses the lanes —
    /// so what a run leaves on its lane is read before it is overwritten.
    pub fn waves<T: Send>(
        &mut self,
        items: &mut [T],
        run: impl Fn(usize, &mut TrainLane, &mut T) + Send + Sync,
        mut feed: impl FnMut(usize, &mut [TrainLane], &mut [T]),
    ) {
        let wave = pool::effective_threads(self.threads);
        let width = wave.min(items.len());
        if self.lanes.len() < width {
            self.lanes.resize_with(width, TrainLane::new);
        }
        for (w, items) in items.chunks_mut(wave).enumerate() {
            let first = w * wave;
            let lanes = &mut self.lanes[..items.len()];
            pool::install(self.threads, || {
                pool::for_each_pair(lanes, items, |i, lane, item| run(first + i, lane, item));
            });
            feed(first, lanes, items);
        }
    }
}

impl Default for TrainLane {
    fn default() -> Self {
        TrainLane::new()
    }
}

impl std::fmt::Debug for TrainLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TrainLane(fitted: {})", self.model.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_nn::zoo;
    use goldfish_tensor::{serialize, Tensor};

    fn tiny_data() -> (Dataset, Dataset) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        synthetic::generate(&spec, 80, 40, 3)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (train, _) = tiny_data();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = zoo::mlp(64, &[32], 10, &mut rng);
        let cfg = TrainConfig {
            local_epochs: 8,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
        };
        let train_loss = |net: &mut Network| {
            let logits = net.forward_ws(train.features(), false);
            CrossEntropy.loss_and_grad_into(logits, train.labels(), &mut Tensor::zeros(vec![0]))
        };
        let before = train_loss(&mut net);
        train_local_ce(&mut net, &train, &cfg, 1);
        let after = train_loss(&mut net);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn empty_dataset_is_noop() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = zoo::mlp(4, &[], 2, &mut rng);
        let before = net.state_vector();
        let empty = Dataset::empty(&[4], 2);
        train_local_ce(&mut net, &empty, &TrainConfig::default(), 0);
        assert_eq!(net.state_vector(), before);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (train, _) = tiny_data();
        let run = || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = zoo::mlp(64, &[16], 10, &mut rng);
            let cfg = TrainConfig {
                local_epochs: 2,
                batch_size: 16,
                lr: 0.02,
                momentum: 0.9,
            };
            train_local_ce(&mut net, &train, &cfg, 11);
            net.state_vector()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hot_variant_is_bitwise_identical_and_reusable() {
        let (train, _) = tiny_data();
        let cfg = TrainConfig {
            local_epochs: 2,
            batch_size: 24, // short final batch exercised
            lr: 0.05,
            momentum: 0.9,
        };
        let make = || {
            let mut rng = StdRng::seed_from_u64(3);
            zoo::mlp(64, &[16], 10, &mut rng)
        };
        let mut ws = TrainWorkspace::new();
        let mut sgd = FusedSgd::new(1.0, 0.0); // re-armed per call
        let mut hot = make();
        // Two consecutive rounds through the same worker state: each must
        // equal a fresh allocating run (the velocity re-arm matters).
        for seed in [11u64, 12] {
            let mut oracle = make();
            oracle.set_state_vector(&hot.state_vector());
            train_local_ce(&mut oracle, &train, &cfg, seed);
            train_local_hot(
                &mut hot,
                &train,
                &cfg,
                &CrossEntropy,
                seed,
                &mut ws,
                &mut sgd,
            );
            assert_eq!(hot.state_vector(), oracle.state_vector(), "seed {seed}");
        }
    }

    #[test]
    fn lane_carries_capacity_never_state() {
        let (train, test) = tiny_data();
        let cfg = TrainConfig {
            local_epochs: 1,
            batch_size: 24,
            lr: 0.05,
            momentum: 0.9,
        };
        // Two architectures: switching factories rebuilds the network.
        let factories: [ModelFactory; 2] = [
            Arc::new(|seed| zoo::mlp(64, &[16], 10, &mut StdRng::seed_from_u64(seed))),
            Arc::new(|seed| zoo::mlp(64, &[8, 8], 10, &mut StdRng::seed_from_u64(seed))),
        ];
        let mut lane = TrainLane::new();
        let mut out = Vec::new();
        for (step, data) in [&train, &test, &train, &train].into_iter().enumerate() {
            let factory = &factories[step % 2];
            let seed = 40 + step as u64;
            let global = (factory)(step as u64).state_vector();
            let mut oracle = (factory)(seed);
            oracle.set_state_vector(&global);
            train_local_ce(&mut oracle, data, &cfg, seed);

            lane.train(factory, &global, data, &cfg, seed, &mut out);
            assert_eq!(out, oracle.state_vector(), "step {step}");
            // The same run from and to little-endian bytes.
            let mut bytes = Vec::new();
            serialize::f32s_write_le(&mut bytes, &global);
            lane.run_le(factory, &bytes, data, &cfg, seed);
            bytes.clear();
            lane.append_state_le(&mut bytes);
            let mut from_bytes = vec![0.0; out.len()];
            serialize::f32s_read_le(&bytes, &mut from_bytes);
            assert_eq!(from_bytes, out, "step {step}");

            let (accuracy, mse) = lane.eval(factory, &out, data);
            assert_eq!(accuracy, eval::accuracy(&mut oracle, data));
            assert_eq!(mse, eval::mse(&mut oracle, data));
        }
    }

    #[test]
    fn training_moves_parameters() {
        let (train, _) = tiny_data();
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = zoo::mlp(64, &[16], 10, &mut rng);
        let before = net.state_vector();
        train_local_ce(
            &mut net,
            &train,
            &TrainConfig {
                local_epochs: 1,
                batch_size: 20,
                lr: 0.05,
                momentum: 0.9,
            },
            0,
        );
        let after = net.state_vector();
        let delta: f32 = before
            .iter()
            .zip(after.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 0.0);
        let x = Tensor::zeros(vec![1, 64]);
        let mut check = net;
        assert!(check.forward_ws(&x, false).all_finite());
    }
}
