//! End-to-end pins for the ported Goldfish unlearning stack (DESIGN.md
//! §9).
//!
//! Every unlearning pipeline that moved onto the allocation-free
//! runtime — `GoldfishUnlearning::unlearn` (fused composite loss,
//! teacher-logit cache, persistent client workers) and the B2/B3
//! baselines — must produce **bitwise identical** results to the
//! pre-port implementations. `ShardedClient::delete_samples` is pinned
//! against a from-scratch oracle of its **documented snapshot
//! semantics** (every Eq 9 checkpoint computed from the deletion-time
//! shard states): that semantics intentionally replaces the pre-port
//! serial loop's ordering artifact — each retrained shard leaking into
//! the *next* shard's checkpoint — so for deletions touching two or
//! more shards the ported path is deliberately not bit-equal to the
//! old loop (see the method docs and DESIGN.md §9); for single-shard
//! deletions the two coincide and the oracle pins both.
//! As in `tests/runtime_identity.rs`, the oracle here
//! is deliberately not the library's own training stack: `OracleMlp`
//! re-implements the seed per-step arithmetic (subset copies, per-layer
//! tensors, composed two-method composite loss, `params()`-order
//! gradient clip, three-pass momentum SGD) from the public `ops`
//! primitives. Shared plumbing that this PR did not touch — model
//! factories, FedAvg / adaptive-weight aggregation, server-side
//! evaluation — is reused from the library so a failure isolates the
//! ported local-training surface.

use std::sync::Arc;

use goldfish::core::baselines::{IncompetentTeacher, RapidRetrain, RetrainFromScratch};
use goldfish::core::basic_model::{network_from_state, reinit_seed, GoldfishLocalConfig};
use goldfish::core::extension::{adaptive_weights, AdaptiveTemperature};
use goldfish::core::loss::LossWeights;
use goldfish::core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
use goldfish::core::optimization::ShardedClient;
use goldfish::core::unlearner::GoldfishUnlearning;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::data::{partition, Dataset};
use goldfish::fed::aggregate::{weighted_mean, ClientUpdate};
use goldfish::fed::trainer::TrainConfig;
use goldfish::fed::{eval, pool, ModelFactory};
use goldfish::nn::zoo;
use goldfish::tensor::{ops, Tensor};
use rand::{rngs::StdRng, SeedableRng};

const DIMS: (usize, usize, usize) = (64, 24, 10);

fn factory() -> ModelFactory {
    Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(DIMS.0, &[DIMS.1], DIMS.2, &mut rng)
    })
}

/// A seed-style `d → h → c` ReLU MLP whose every pass allocates exactly
/// like the pre-port layer stack; parameters live in `w1,b1,w2,b2`
/// state-vector order.
struct OracleMlp {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    vel: [Tensor; 4],
}

/// One forward pass's cached intermediates for the backward sweep.
struct OracleTape {
    x: Tensor,
    mask: Vec<bool>,
    h: Tensor,
    logits: Tensor,
}

type OracleGrads = [Tensor; 4];

impl OracleMlp {
    fn from_state(state: &[f32]) -> Self {
        let (d, h, c) = DIMS;
        let (w1, rest) = state.split_at(h * d);
        let (b1, rest) = rest.split_at(h);
        let (w2, b2) = rest.split_at(c * h);
        OracleMlp {
            w1: Tensor::from_vec(vec![h, d], w1.to_vec()),
            b1: Tensor::from_vec(vec![h], b1.to_vec()),
            w2: Tensor::from_vec(vec![c, h], w2.to_vec()),
            b2: Tensor::from_vec(vec![c], b2.to_vec()),
            vel: [
                Tensor::zeros(vec![h, d]),
                Tensor::zeros(vec![h]),
                Tensor::zeros(vec![c, h]),
                Tensor::zeros(vec![c]),
            ],
        }
    }

    fn set_state(&mut self, state: &[f32]) {
        let mut offset = 0;
        for t in [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2] {
            let n = t.len();
            t.as_mut_slice().copy_from_slice(&state[offset..offset + n]);
            offset += n;
        }
        assert_eq!(offset, state.len());
    }

    fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for t in [&self.w1, &self.b1, &self.w2, &self.b2] {
            out.extend_from_slice(t.as_slice());
        }
        out
    }

    /// Seed-style forward: fresh tensors per layer, bias added row-wise.
    fn forward(&self, features: &Tensor) -> OracleTape {
        let (n, d) = features.dims2();
        let x = features.clone().reshape(vec![n, d]);
        let mut h_pre = ops::matmul_a_bt(&x, &self.w1);
        for r in 0..n {
            for (o, &b) in h_pre.row_mut(r).iter_mut().zip(self.b1.as_slice()) {
                *o += b;
            }
        }
        let mask: Vec<bool> = h_pre.as_slice().iter().map(|&v| v > 0.0).collect();
        let h = h_pre.map(|v| v.max(0.0));
        let mut logits = ops::matmul_a_bt(&h, &self.w2);
        for r in 0..n {
            for (o, &b) in logits.row_mut(r).iter_mut().zip(self.b2.as_slice()) {
                *o += b;
            }
        }
        OracleTape { x, mask, h, logits }
    }

    /// Seed-style backward from ∂L/∂logits: returns parameter gradients
    /// in state-vector order.
    fn backward(&self, tape: &OracleTape, grad_logits: &Tensor) -> OracleGrads {
        let gw2 = ops::matmul_at_b(grad_logits, &tape.h);
        let gb2 = ops::sum_rows(grad_logits);
        let gh = ops::matmul(grad_logits, &self.w2);
        let gh_relu = Tensor::from_vec(
            gh.shape().to_vec(),
            gh.as_slice()
                .iter()
                .zip(tape.mask.iter())
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        let gw1 = ops::matmul_at_b(&gh_relu, &tape.x);
        let gb1 = ops::sum_rows(&gh_relu);
        [gw1, gb1, gw2, gb2]
    }

    /// Three-pass momentum SGD in parameter order.
    fn sgd_step(&mut self, grads: &OracleGrads, lr: f32, momentum: f32) {
        for (param, (vel, grad)) in [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2]
            .into_iter()
            .zip(self.vel.iter_mut().zip(grads.iter()))
        {
            vel.scale_mut(momentum);
            vel.axpy(1.0, grad);
            param.axpy(-lr, vel);
        }
    }
}

/// Accumulates `b` into `a` the way `Network::backward_train` accumulates into
/// `Param::grad`.
fn accumulate(a: &mut OracleGrads, b: &OracleGrads) {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        x.axpy(1.0, y);
    }
}

/// The pre-port `params()`-order gradient clip.
fn oracle_clip(grads: &mut OracleGrads, max_norm: f32) {
    let norm_sq: f32 = grads.iter().map(|g| g.norm_sq()).sum();
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            g.scale_mut(scale);
        }
    } else if !norm.is_finite() {
        for g in grads.iter_mut() {
            g.zero_mut();
        }
    }
}

/// The seed softmax cross-entropy (identical to the
/// `tests/runtime_identity.rs` oracle).
fn seed_ce(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = logits.dims2();
    let logp = ops::log_softmax_t(logits, 1.0);
    let p = logp.map(|v| v.exp());
    let mut grad = p;
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        loss -= logp.at2(r, label);
        grad.row_mut(r)[label] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    grad.scale_mut(scale);
    (loss * scale, grad.reshape(vec![n, c]))
}

/// The pre-port composed distillation loss (Eqs 3–5).
fn oracle_distill(student: &Tensor, teacher: &Tensor, t: f32) -> (f32, Tensor) {
    let (n, _c) = student.dims2();
    let p_t = ops::softmax_t(teacher, t);
    let log_p_s = ops::log_softmax_t(student, t);
    let loss = -p_t
        .as_slice()
        .iter()
        .zip(log_p_s.as_slice().iter())
        .map(|(&a, &b)| a * b)
        .sum::<f32>()
        / n as f32;
    let p_s = log_p_s.map(|v| v.exp());
    let mut grad = p_s.sub(&p_t);
    grad.scale_mut(1.0 / (n as f32 * t));
    (loss, grad)
}

/// The pre-port composed confusion loss (Eq 2).
fn oracle_confusion(logits: &Tensor) -> (f32, Tensor) {
    let (n, c) = logits.dims2();
    let p = ops::softmax(logits);
    let mut grad = Tensor::zeros(vec![n, c]);
    let uniform = 1.0 / c as f32;
    let mut total = 0.0f32;
    for r in 0..n {
        let prow = p.row(r).to_vec();
        let var: f32 = prow.iter().map(|&pk| (pk - uniform).powi(2)).sum::<f32>() / c as f32;
        let sd = var.sqrt();
        total += sd;
        if sd < 1e-8 {
            continue;
        }
        let dl_dp: Vec<f32> = prow
            .iter()
            .map(|&pk| (pk - uniform) / (c as f32 * sd))
            .collect();
        let dot: f32 = dl_dp.iter().zip(prow.iter()).map(|(&a, &b)| a * b).sum();
        let grow = grad.row_mut(r);
        for i in 0..c {
            grow[i] = prow[i] * (dl_dp[i] - dot) / n as f32;
        }
    }
    (total / n as f32, grad)
}

/// Eq 11, re-derived from scratch.
fn oracle_adaptive_temperature(
    at: &AdaptiveTemperature,
    n_remaining: usize,
    n_forget: usize,
) -> f32 {
    let total = n_remaining + n_forget;
    if total == 0 {
        return at.t0;
    }
    let ratio = n_remaining as f32 / total as f32;
    (at.alpha * at.t0 * (-ratio).exp()).max(0.25)
}

/// The pre-port `goldfish_local` loop, one seed-style allocation at a
/// time: subset copies, per-batch teacher forward, composed
/// remaining/forget losses, accumulated gradients, clip, three-pass SGD.
#[allow(clippy::too_many_arguments)]
fn oracle_train_distill(
    student: &mut OracleMlp,
    teacher: &OracleMlp,
    remaining: &Dataset,
    forget: &Dataset,
    cfg: &GoldfishLocalConfig,
    seed: u64,
) -> Vec<f32> {
    let temperature = match &cfg.adaptive_temperature {
        Some(at) => oracle_adaptive_temperature(at, remaining.len(), forget.len()),
        None => cfg.weights.temperature,
    };
    let w = cfg.weights;
    let mut epoch_losses = Vec::new();
    if remaining.is_empty() && forget.is_empty() {
        return epoch_losses;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let forget_scale = if remaining.is_empty() {
        1.0
    } else {
        (forget.len() as f32 / remaining.len() as f32).min(1.0)
    };
    for _ in 0..cfg.epochs {
        let order = remaining.shuffled_indices(&mut rng);
        let forget_order = forget.shuffled_indices(&mut rng);
        let remaining_batches: Vec<&[usize]> = order.chunks(cfg.batch_size.max(1)).collect();
        let n_steps = remaining_batches.len().max(1);
        let forget_chunk = forget_order.len().div_ceil(n_steps).max(1);
        let mut forget_batches = forget_order.chunks(forget_chunk);

        let mut epoch_loss = 0.0f32;
        let mut steps = 0usize;
        for chunk in &remaining_batches {
            let mut total = 0.0f32;
            let mut grads: Option<OracleGrads> = None;
            if !chunk.is_empty() {
                let batch = remaining.subset(chunk);
                let teacher_logits = if w.mu_d > 0.0 {
                    Some(teacher.forward(batch.features()).logits)
                } else {
                    None
                };
                let tape = student.forward(batch.features());
                let (hard, mut grad) = seed_ce(&tape.logits, batch.labels());
                total += hard;
                if let (Some(tl), true) = (teacher_logits.as_ref(), w.mu_d > 0.0) {
                    let (ld, ld_grad) = oracle_distill(&tape.logits, tl, temperature);
                    total += w.mu_d * ld;
                    grad.axpy(w.mu_d, &ld_grad);
                }
                let g = student.backward(&tape, &grad);
                grads = Some(g);
            }
            if let Some(fchunk) = forget_batches.next() {
                if !fchunk.is_empty() {
                    let fbatch = forget.subset(fchunk);
                    let tape = student.forward(fbatch.features());
                    let (n, c) = tape.logits.dims2();
                    let (hard, hard_grad) = seed_ce(&tape.logits, fbatch.labels());
                    let mut grad = hard_grad.scale(-forget_scale);
                    let p = ops::softmax(&tape.logits);
                    let chance = 1.0 / c as f32;
                    for (r, &label) in fbatch.labels().iter().enumerate().take(n) {
                        if p.at2(r, label) <= chance {
                            for g in grad.row_mut(r) {
                                *g = 0.0;
                            }
                        }
                    }
                    total -= forget_scale * hard;
                    if w.mu_c > 0.0 {
                        let (lc, lc_grad) = oracle_confusion(&tape.logits);
                        total += w.mu_c * lc;
                        grad.axpy(w.mu_c, &lc_grad);
                    }
                    let g = student.backward(&tape, &grad);
                    match grads.as_mut() {
                        Some(acc) => accumulate(acc, &g),
                        None => grads = Some(g),
                    }
                }
            }
            if let Some(mut g) = grads {
                if let Some(max_norm) = cfg.grad_clip {
                    oracle_clip(&mut g, max_norm);
                }
                student.sgd_step(&g, cfg.lr, cfg.momentum);
            }
            epoch_loss += total;
            steps += 1;
        }
        epoch_losses.push(epoch_loss / steps.max(1) as f32);
    }
    epoch_losses
}

/// The pre-port seed-style CE local training (the
/// `tests/runtime_identity.rs` oracle, reused for B1 and the sharded
/// client).
fn oracle_train_ce(net: &mut OracleMlp, data: &Dataset, cfg: &TrainConfig, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cfg.local_epochs {
        let order = data.shuffled_indices(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            let batch = data.subset(chunk);
            let tape = net.forward(batch.features());
            let (_, grad) = seed_ce(&tape.logits, batch.labels());
            let grads = net.backward(&tape, &grad);
            net.sgd_step(&grads, cfg.lr, cfg.momentum);
        }
    }
}

fn fixture(n_per_client: usize, removed: usize) -> UnlearnSetup {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, test) = synthetic::generate(&spec, 2 * n_per_client, 60, 33);
    let factory = factory();
    let train_cfg = TrainConfig {
        local_epochs: 2,
        batch_size: 25, // 90 % 25 != 0: exercises the short final batch
        lr: 0.05,
        momentum: 0.9,
    };
    let mut original = (factory)(1);
    goldfish::fed::trainer::train_local_ce(
        &mut original,
        &train,
        &TrainConfig {
            local_epochs: 6,
            ..train_cfg
        },
        5,
    );
    let (c0, c1) = train.split_at(n_per_client);
    let removed_idx: Vec<usize> = (0..removed).collect();
    UnlearnSetup {
        factory,
        clients: vec![
            ClientSplit::with_removed(&c0, &removed_idx),
            ClientSplit::intact(c1),
        ],
        test,
        original_global: original.state_vector(),
        rounds: 2,
        train: train_cfg,
    }
}

fn assert_bitwise(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: param {i}: {a} != {b}");
    }
}

/// The pre-port Goldfish round loop over [`oracle_train_distill`].
/// Aggregation and server-side evaluation reuse the (untouched) library
/// paths, so a mismatch isolates the ported local training.
/// FedAvg: `weighted_mean` over sample counts (an empty client weighs 1).
fn fedavg(updates: &[ClientUpdate]) -> Vec<f32> {
    let weights: Vec<f64> = updates
        .iter()
        .map(|u| u.num_samples.max(1) as f64)
        .collect();
    weighted_mean(updates, &weights)
}

fn oracle_goldfish_unlearn(
    method: &GoldfishUnlearning,
    setup: &UnlearnSetup,
    seed: u64,
) -> (Vec<f32>, Vec<f64>) {
    let mut global = (setup.factory)(reinit_seed(seed)).state_vector();
    let mut round_accuracies = Vec::new();
    for round in 0..setup.rounds {
        let mut updates = Vec::new();
        let mut mses = Vec::new();
        for (id, split) in setup.clients.iter().enumerate() {
            let client_seed = seed
                .wrapping_add((id as u64) << 32)
                .wrapping_add(round as u64);
            let mut student = OracleMlp::from_state(&global);
            let teacher = OracleMlp::from_state(&setup.original_global);
            oracle_train_distill(
                &mut student,
                &teacher,
                &split.remaining,
                &split.forget,
                &method.local,
                client_seed,
            );
            let state = student.state_vector();
            let mut net = network_from_state(&setup.factory, &state, 0);
            mses.push(eval::mse(&mut net, &setup.test));
            updates.push(ClientUpdate {
                client_id: id,
                state,
                num_samples: split.remaining.len(),
            });
        }
        global = if method.adaptive_aggregation {
            weighted_mean(&updates, &adaptive_weights(&mses))
        } else {
            fedavg(&updates)
        };
        let mut net = network_from_state(&setup.factory, &global, 0);
        round_accuracies.push(eval::accuracy(&mut net, &setup.test));
    }
    (global, round_accuracies)
}

fn goldfish_cfg() -> GoldfishLocalConfig {
    GoldfishLocalConfig {
        epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    }
}

#[test]
fn goldfish_unlearn_is_bitwise_identical_to_seed_pipeline() {
    // 90 remaining / 13 removed on client 0: both loops end in partial
    // final batches (90 % 25 = 15 remaining, 13 across 4 steps → 4,4,4,1
    // forget slices).
    let setup = fixture(103, 13);
    let method = GoldfishUnlearning::default().with_local(goldfish_cfg());
    let got = method.unlearn(&setup, 9);
    let (want_state, want_acc) = oracle_goldfish_unlearn(&method, &setup, 9);
    assert_bitwise(&got.global_state, &want_state, "goldfish");
    assert_eq!(got.round_accuracies, want_acc, "goldfish accuracies");
}

#[test]
fn goldfish_extension_paths_are_bitwise_identical() {
    // Adaptive temperature (Eq 11) + adaptive-weight aggregation
    // (Eqs 12–13) + a hard-only ablation without distillation.
    let setup = fixture(103, 13);
    for method in [
        GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            adaptive_temperature: Some(AdaptiveTemperature::default()),
            ..goldfish_cfg()
        }),
        GoldfishUnlearning::with_weights(LossWeights::hard_only()).with_local(
            GoldfishLocalConfig {
                weights: LossWeights::hard_only(),
                ..goldfish_cfg()
            },
        ),
        GoldfishUnlearning::default()
            .with_local(goldfish_cfg())
            .with_adaptive_aggregation(false),
    ] {
        let got = method.unlearn(&setup, 4);
        let (want_state, _) = oracle_goldfish_unlearn(&method, &setup, 4);
        assert_bitwise(&got.global_state, &want_state, "goldfish extension");
    }
}

#[test]
fn b1_retrain_is_bitwise_identical_to_seed_pipeline() {
    let setup = fixture(103, 13);
    let got = RetrainFromScratch.unlearn(&setup, 3);
    // Oracle round loop with seed-style CE training.
    let mut global = (setup.factory)(reinit_seed(3 ^ 0xB1)).state_vector();
    for round in 0..setup.rounds {
        let mut updates = Vec::new();
        for (id, split) in setup.clients.iter().enumerate() {
            let client_seed = 3u64
                .wrapping_add((id as u64) << 32)
                .wrapping_add(round as u64);
            let mut net = OracleMlp::from_state(&global);
            oracle_train_ce(&mut net, &split.remaining, &setup.train, client_seed);
            updates.push(ClientUpdate {
                client_id: id,
                state: net.state_vector(),
                num_samples: split.remaining.len(),
            });
        }
        global = fedavg(&updates);
    }
    assert_bitwise(&got.global_state, &global, "b1");
}

#[test]
fn b2_rapid_is_bitwise_identical_to_seed_pipeline() {
    let setup = fixture(103, 13);
    let b2 = RapidRetrain::default();
    let got = b2.unlearn(&setup, 3);
    let lr = b2.lr_override.unwrap_or(setup.train.lr * 0.2);
    let mut global = (setup.factory)(reinit_seed(3 ^ 0xB2)).state_vector();
    for round in 0..setup.rounds {
        let mut updates = Vec::new();
        for (id, split) in setup.clients.iter().enumerate() {
            let client_seed = (3u64
                .wrapping_add((id as u64) << 32)
                .wrapping_add(round as u64))
                ^ 0xB2;
            let mut net = OracleMlp::from_state(&global);
            if !split.remaining.is_empty() {
                let mut rng = StdRng::seed_from_u64(client_seed);
                let mut state = net.state_vector();
                let mut fim = vec![0.0f32; state.len()];
                for _ in 0..setup.train.local_epochs {
                    let order = split.remaining.shuffled_indices(&mut rng);
                    for chunk in order.chunks(setup.train.batch_size) {
                        let batch = split.remaining.subset(chunk);
                        let tape = net.forward(batch.features());
                        let (_, grad) = seed_ce(&tape.logits, batch.labels());
                        let grads = net.backward(&tape, &grad);
                        let mut g = Vec::with_capacity(state.len());
                        for t in grads.iter() {
                            g.extend_from_slice(t.as_slice());
                        }
                        for ((w, f), gi) in state.iter_mut().zip(fim.iter_mut()).zip(g.iter()) {
                            *f = b2.fim_decay * *f + (1.0 - b2.fim_decay) * gi * gi;
                            *w -= lr * gi / (f.sqrt() + b2.damping);
                        }
                        net.set_state(&state);
                    }
                }
            }
            updates.push(ClientUpdate {
                client_id: id,
                state: net.state_vector(),
                num_samples: split.remaining.len(),
            });
        }
        global = fedavg(&updates);
    }
    assert_bitwise(&got.global_state, &global, "b2");
}

#[test]
fn b3_incompetent_is_bitwise_identical_to_seed_pipeline() {
    let setup = fixture(103, 13);
    let b3 = IncompetentTeacher::default();
    let got = b3.unlearn(&setup, 3);
    let mut global = setup.original_global.clone();
    for round in 0..setup.rounds {
        let mut updates = Vec::new();
        for (id, split) in setup.clients.iter().enumerate() {
            let client_seed = (3u64
                .wrapping_add((id as u64) << 32)
                .wrapping_add(round as u64))
                ^ 0xB3;
            let mut student = OracleMlp::from_state(&global);
            let competent = OracleMlp::from_state(&setup.original_global);
            let incompetent =
                OracleMlp::from_state(&(setup.factory)(client_seed ^ 0x1C0DE).state_vector());
            let mut rng = StdRng::seed_from_u64(client_seed);
            for _ in 0..setup.train.local_epochs {
                for (data, teacher) in [
                    (&split.remaining, &competent),
                    (&split.forget, &incompetent),
                ] {
                    if data.is_empty() {
                        continue;
                    }
                    let order = data.shuffled_indices(&mut rng);
                    for chunk in order.chunks(setup.train.batch_size) {
                        let batch = data.subset(chunk);
                        let teacher_logits = teacher.forward(batch.features()).logits;
                        let tape = student.forward(batch.features());
                        let (_, grad) =
                            oracle_distill(&tape.logits, &teacher_logits, b3.temperature);
                        let grads = student.backward(&tape, &grad);
                        student.sgd_step(&grads, setup.train.lr, setup.train.momentum);
                    }
                }
            }
            updates.push(ClientUpdate {
                client_id: id,
                state: student.state_vector(),
                num_samples: split.remaining.len(),
            });
        }
        global = fedavg(&updates);
    }
    assert_bitwise(&got.global_state, &global, "b3");
}

#[test]
fn sharded_deletion_is_bitwise_identical_to_seed_pipeline() {
    // A deletion touching TWO shards partially: pins the snapshot
    // semantics (every Eq 9 checkpoint computed from the deletion-time
    // states) of the shard-parallel retraining.
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 120, 30, 11);
    let tau = 4;
    let cfg = TrainConfig {
        local_epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
    };
    let mut client = ShardedClient::new(&train, tau, factory(), cfg, 0);
    client.train_round(0);

    // Oracle state before deletion.
    let before: Vec<Vec<f32>> = (0..tau)
        .map(|i| client.model().shard_state(i).to_vec())
        .collect();
    let sizes: Vec<usize> = client.model().sizes().to_vec();
    let total: usize = sizes.iter().sum();

    // Delete rows from shards 1 and 2 (indices ≡ 1, 2 mod 4).
    let deleted = vec![1usize, 5, 9, 2, 6];
    let impact = client.delete_samples(&deleted, 7);
    assert_eq!(impact.partial, vec![1, 2]);

    // Oracle: reconstruct each affected shard's retraining from the
    // pre-deletion snapshot.
    let indices: Vec<usize> = (0..train.len()).collect();
    let parts = partition::shards(&indices, tau);
    for &shard in &[1usize, 2] {
        let rows: Vec<usize> = deleted
            .iter()
            .filter(|&&g| g % tau == shard)
            .map(|&g| g / tau)
            .collect();
        let shard_data = train.subset(&parts[shard]);
        let keep: Vec<usize> = (0..shard_data.len())
            .filter(|r| !rows.contains(r))
            .collect();
        let survived = shard_data.subset(&keep);
        // Eq 9 checkpoint from the snapshot states.
        let mut checkpoint = vec![0.0f32; before[0].len()];
        for (j, state) in before.iter().enumerate() {
            if j == shard {
                continue;
            }
            let w = sizes[j] as f32 / total as f32;
            for (o, &v) in checkpoint.iter_mut().zip(state.iter()) {
                *o += w * v;
            }
        }
        let shard_seed = 7u64.wrapping_add((shard as u64) << 16).wrapping_add(1);
        let mut net = if checkpoint.iter().any(|&v| v != 0.0) {
            OracleMlp::from_state(&checkpoint)
        } else {
            OracleMlp::from_state(&(factory())(shard_seed).state_vector())
        };
        oracle_train_ce(&mut net, &survived, &cfg, shard_seed);
        assert_bitwise(
            client.model().shard_state(shard),
            &net.state_vector(),
            &format!("shard {shard}"),
        );
    }
}

#[test]
fn unlearning_is_thread_count_invariant() {
    // Identical UnlearnOutcome (state bits + accuracies) at 1, 2 and 8
    // threads on the shared pool, for the client-parallel round loops of
    // Goldfish, B2 and B3 and the shard-parallel deletion path.
    let setup = fixture(103, 13);
    let goldfish = GoldfishUnlearning::default().with_local(goldfish_cfg());
    let methods: [&dyn UnlearningMethod; 3] = [
        &goldfish,
        &RapidRetrain::default(),
        &IncompetentTeacher::default(),
    ];
    for method in methods {
        let run = |threads: usize| pool::install(Some(threads), || method.unlearn(&setup, 5));
        let one = run(1);
        for threads in [2, 8] {
            let other = run(threads);
            assert_bitwise(
                &other.global_state,
                &one.global_state,
                &format!("{} @ {threads} threads", method.name()),
            );
            assert_eq!(other.round_accuracies, one.round_accuracies);
        }
    }

    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 120, 30, 11);
    let cfg = TrainConfig {
        local_epochs: 2,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
    };
    let run_delete = |threads: usize| {
        pool::install(Some(threads), || {
            let mut client = ShardedClient::new(&train, 4, factory(), cfg, 0);
            client.train_round(0);
            client.delete_samples(&[1, 5, 9, 2, 6, 3], 7);
            client.local_state()
        })
    };
    let one = run_delete(1);
    for threads in [2, 8] {
        assert_bitwise(
            &run_delete(threads),
            &one,
            &format!("delete @ {threads} threads"),
        );
    }
}
