//! The paper's comparison baselines.
//!
//! * **B1** — [`RetrainFromScratch`]: reinitialise and retrain the global
//!   model with plain federated SGD on the remaining data (Zhang et al.,
//!   FedRecovery's retraining reference).
//! * **B2** — [`RapidRetrain`]: retraining accelerated with diagonal
//!   empirical Fisher-information preconditioning (our CPU-scale stand-in
//!   for Liu et al., INFOCOM 2022 — see DESIGN.md §3).
//! * **B3** — [`IncompetentTeacher`]: distillation-based unlearning with a
//!   competent teacher on retained data and an incompetent (random)
//!   teacher on removed data (Chundawat et al., AAAI 2023).
//! * [`OriginalModel`] — the "origin" column of the paper's tables: the
//!   trained model without any unlearning.

use goldfish_data::{BatchGather, Dataset};
use goldfish_fed::trainer::TrainLane;
use goldfish_fed::transport::{
    round_nonce, LoopbackClients, RoundMode, RoundRuntime, RoundTransport, TrainAssign,
    TransportError, UpdateSink, Weighting,
};
use goldfish_fed::{eval, ModelFactory};
use goldfish_nn::loss::{distillation_loss_into, CrossEntropy, HardLoss};
use goldfish_nn::optim::FusedSgd;
use goldfish_nn::Network;
use goldfish_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::basic_model::{network_from_state, reinit_seed};
use crate::method::{ClientSplit, UnlearnOutcome, UnlearnSetup, UnlearningMethod};

/// Evaluates the test accuracy of a global state vector.
fn global_accuracy(factory: &ModelFactory, state: &[f32], test: &Dataset) -> f64 {
    let mut net = network_from_state(factory, state, 0);
    eval::accuracy(&mut net, test)
}

/// Every client's remaining split on the one in-process executor.
fn remaining_clients(setup: &UnlearnSetup) -> LoopbackClients<'_> {
    let remaining = setup.clients.iter().map(|c| &c.remaining);
    LoopbackClients::new(&setup.factory, remaining, None)
}

/// The federated rounds B1, B2 and B3 share: from `global`, each round
/// is one [`RoundRuntime::run_hot`] over `clients` with FedAvg sample
/// weights — the round `Federation` runs — followed by the new global's
/// test accuracy.
///
/// # Panics
///
/// Panics if a round has no client delivering a finite update.
fn run_rounds(
    method: &str,
    setup: &UnlearnSetup,
    seed: u64,
    mut global: Vec<f32>,
    clients: &mut dyn RoundTransport,
) -> UnlearnOutcome {
    let mut runtime = RoundRuntime::new(None, 0);
    let mut next = Vec::new();
    let mut round_accuracies = Vec::with_capacity(setup.rounds);
    for round in 0..setup.rounds {
        let assign = TrainAssign {
            mode: RoundMode::Train,
            round,
            seed,
            nonce: round_nonce(seed, round),
            global: &global,
            cfg: &setup.train,
        };
        runtime
            .run_hot(clients, &assign, Weighting::Samples, &mut next)
            .expect("no client delivered a finite update");
        std::mem::swap(&mut global, &mut next);
        round_accuracies.push(global_accuracy(&setup.factory, &global, &setup.test));
    }
    UnlearnOutcome {
        method: method.into(),
        global_state: global,
        round_accuracies,
    }
}

/// A baseline's own local step on the executor B1 trains on: each round
/// is one [`LoopbackClients::feed_waves`] over the cohort, running
/// `step(id, remaining, lane, assign)`, which leaves the client's
/// trained state on the lane's network.
struct LocalStep<'a, F: Fn(usize, &Dataset, &mut TrainLane, &TrainAssign<'_>) + Sync>(
    LoopbackClients<'a>,
    F,
);

impl<F: Fn(usize, &Dataset, &mut TrainLane, &TrainAssign<'_>) + Sync> RoundTransport
    for LocalStep<'_, F>
{
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.0.cohort_into(out);
    }

    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let step = &self.1;
        self.0.feed_waves(
            &mut vec![(); cohort.len()],
            |i, _| cohort[i].0,
            assign.nonce,
            |id, rows, lane, _| step(id, rows.live(), lane, assign),
            sink,
            results,
        );
    }
}

/// A B2/B3 client's seed for one round: `tag` is the method's own.
fn baseline_seed(seed: u64, id: usize, round: usize, tag: u64) -> u64 {
    seed.wrapping_add((id as u64) << 32)
        .wrapping_add(round as u64)
        ^ tag
}

/// **B1** — retraining from scratch on the remaining data only.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetrainFromScratch;

impl UnlearningMethod for RetrainFromScratch {
    fn name(&self) -> &'static str {
        "b1_retrain"
    }

    /// Federated rounds of plain local training over every client's
    /// remaining split, from a fresh initialisation: the shared
    /// [`LoopbackClients`] + [`RoundRuntime::run_hot`] rounds with the
    /// executor's own local step.
    ///
    /// # Panics
    ///
    /// Panics if a round has no client delivering a finite update.
    fn unlearn(&self, setup: &UnlearnSetup, seed: u64) -> UnlearnOutcome {
        let global = (setup.factory)(reinit_seed(seed ^ 0xB1)).state_vector();
        let clients = &mut remaining_clients(setup);
        run_rounds(self.name(), setup, seed, global, clients)
    }
}

/// **B2** — rapid retraining: from-scratch retraining accelerated with a
/// diagonal empirical-FIM preconditioner (`w ← w − η·g / (√F̂ + ε)` with
/// `F̂` an exponential moving average of squared gradients).
///
/// Liu et al. accelerate post-deletion recovery with diagonal-FIM
/// second-order steps; this reproduction keeps exactly that preconditioner
/// shape. Like B1 it trains only on remaining data, so it is equally valid
/// at forgetting — its selling point is convergence speed per round.
#[derive(Debug, Clone, Copy)]
pub struct RapidRetrain {
    /// Learning rate for the preconditioned update. Preconditioned steps
    /// are parameter-scaled, so this wants to be ~10× smaller than the SGD
    /// rate; `None` derives `0.2 × train.lr`.
    pub lr_override: Option<f32>,
    /// EMA decay of the squared-gradient accumulator.
    pub fim_decay: f32,
    /// Damping ε added to the preconditioner denominator.
    pub damping: f32,
}

impl Default for RapidRetrain {
    fn default() -> Self {
        RapidRetrain {
            lr_override: None,
            fim_decay: 0.95,
            damping: 1e-6,
        }
    }
}

impl RapidRetrain {
    /// One client's preconditioned local training: gathered batches,
    /// workspace forward/backward, and a fused in-place preconditioner
    /// sweep over the parameters in state-vector order.
    fn train_client(&self, net: &mut Network, data: &Dataset, setup: &UnlearnSetup, seed: u64) {
        if data.is_empty() {
            return;
        }
        let lr = self.lr_override.unwrap_or(setup.train.lr * 0.2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fim = vec![0.0f32; net.state_len()];
        let mut gather = BatchGather::new();
        let mut grad = Tensor::zeros(vec![0]);
        let mut order: Vec<usize> = Vec::new();
        let (decay, damping) = (self.fim_decay, self.damping);
        // Snapshot the frozen tracked state (BatchNorm running
        // statistics): the pre-port pipeline's per-batch
        // `set_state_vector` writeback pinned it to its entry values —
        // frozen gradients are zero, so the maintained state vector
        // never moved — and the in-place sweep must not let the
        // training-mode forwards drift it either.
        let mut frozen: Vec<f32> = Vec::new();
        net.visit_params_mut(&mut |p| {
            if !p.trainable {
                frozen.extend_from_slice(p.value.as_slice());
            }
        });
        for _ in 0..setup.train.local_epochs {
            data.shuffled_indices_into(&mut rng, &mut order);
            for chunk in order.chunks(setup.train.batch_size) {
                gather.gather(data, chunk);
                {
                    let logits = net.forward_ws(gather.features(), true);
                    CrossEntropy.loss_and_grad_into(logits, gather.labels(), &mut grad);
                }
                net.zero_grad();
                net.backward_train(&grad);
                // Fused diagonal-FIM update: `F̂ ← γF̂ + (1−γ)g²;
                // w ← w − η·g/(√F̂ + ε)` in one pass over each parameter,
                // walking the flat FIM buffer in state-vector order.
                // Frozen parameters are restored from the snapshot
                // (their FIM entries stay zero, exactly like the old
                // full-state sweep's decay of an all-zero accumulator).
                let mut offset = 0usize;
                let mut frozen_offset = 0usize;
                let (fim, frozen) = (&mut fim, &frozen);
                net.visit_params_mut(&mut |p| {
                    let n = p.value.len();
                    if !p.trainable {
                        p.value
                            .as_mut_slice()
                            .copy_from_slice(&frozen[frozen_offset..frozen_offset + n]);
                        frozen_offset += n;
                        offset += n;
                        return;
                    }
                    let fs = &mut fim[offset..offset + n];
                    for ((w, f), gi) in p
                        .value
                        .as_mut_slice()
                        .iter_mut()
                        .zip(fs.iter_mut())
                        .zip(p.grad.as_slice().iter())
                    {
                        *f = decay * *f + (1.0 - decay) * gi * gi;
                        *w -= lr * gi / (f.sqrt() + damping);
                    }
                    offset += n;
                });
            }
        }
    }
}

impl UnlearningMethod for RapidRetrain {
    fn name(&self) -> &'static str {
        "b2_rapid"
    }

    /// The rounds B1 runs, with [`RapidRetrain`]'s preconditioned local
    /// step on each lane, from a fresh initialisation.
    ///
    /// # Panics
    ///
    /// Panics if a round has no client delivering a finite update, as B1
    /// does (a non-finite upload is excluded and its round re-run).
    fn unlearn(&self, setup: &UnlearnSetup, seed: u64) -> UnlearnOutcome {
        let global = (setup.factory)(reinit_seed(seed ^ 0xB2)).state_vector();
        let step = |id, remaining: &Dataset, lane: &mut TrainLane, assign: &TrainAssign<'_>| {
            let (net, ..) = lane.networks(&setup.factory);
            net.set_state_vector(assign.global);
            let client_seed = baseline_seed(seed, id, assign.round, 0xB2);
            self.train_client(net, remaining, setup, client_seed);
        };
        let mut clients = LocalStep(remaining_clients(setup), step);
        run_rounds(self.name(), setup, seed, global, &mut clients)
    }
}

/// **B3** — unlearning with an incompetent teacher (Chundawat et al.,
/// AAAI 2023), adapted to the federated setting as in the paper: the
/// student starts **from the original model** (no reinitialisation) and is
/// steered by two teachers — the competent one (the original model) on
/// retained data and an incompetent randomly-initialised one on removed
/// data.
#[derive(Debug, Clone, Copy)]
pub struct IncompetentTeacher {
    /// Distillation temperature for both teachers (Chundawat et al. use 1).
    pub temperature: f32,
}

impl Default for IncompetentTeacher {
    fn default() -> Self {
        IncompetentTeacher { temperature: 1.0 }
    }
}

impl UnlearningMethod for IncompetentTeacher {
    fn name(&self) -> &'static str {
        "b3_incompetent"
    }

    /// The rounds B1 runs, from the original model, with the two-teacher
    /// distillation on each lane: the lane's network is the student, its
    /// spare network the competent teacher (the original model), and a
    /// fresh random network the incompetent one.
    ///
    /// # Panics
    ///
    /// Panics if a round has no client delivering a finite update, as B1
    /// does (a non-finite upload is excluded and its round re-run).
    fn unlearn(&self, setup: &UnlearnSetup, seed: u64) -> UnlearnOutcome {
        let factory = &setup.factory;
        let step = |id, _: &Dataset, lane: &mut TrainLane, assign: &TrainAssign<'_>| {
            let (student, spare, sgd, [gather, _]) = lane.networks(factory);
            student.set_state_vector(assign.global);
            let competent = spare.get_or_insert_with(|| (factory)(0));
            competent.set_state_vector(&setup.original_global);
            let client_seed = baseline_seed(seed, id, assign.round, 0xB3);
            let split = &setup.clients[id];
            self.train_client(student, competent, split, setup, client_seed, sgd, gather);
        };
        let global = setup.original_global.clone();
        let mut clients = LocalStep(remaining_clients(setup), step);
        run_rounds(self.name(), setup, seed, global, &mut clients)
    }
}

impl IncompetentTeacher {
    /// One client's two-teacher distillation: every epoch the student
    /// follows the competent teacher on the retained rows, then the
    /// incompetent one — a fresh random network — on the removed rows.
    /// Each teacher runs eval-mode in its own workspace, the fused
    /// distillation loss writes into a reused gradient buffer, and the
    /// lane's fused optimizer, re-armed, steps the student over batches
    /// gathered into the lane's buffer.
    #[allow(clippy::too_many_arguments)] // the lane's parts as it lends them
    fn train_client(
        &self,
        student: &mut Network,
        competent: &mut Network,
        split: &ClientSplit,
        setup: &UnlearnSetup,
        seed: u64,
        sgd: &mut FusedSgd,
        gather: &mut BatchGather,
    ) {
        let mut incompetent = (setup.factory)(seed ^ 0x1C0DE);
        let mut rng = StdRng::seed_from_u64(seed);
        sgd.rearm(setup.train.lr, setup.train.momentum);
        let mut grad = Tensor::zeros(vec![0]);
        let mut teacher_probs = Tensor::zeros(vec![0]);
        let mut order: Vec<usize> = Vec::new();
        // The run's last step (the last batch of the last non-empty split
        // in the last epoch) stores no velocity.
        let epochs = setup.train.local_epochs;
        let last_part = usize::from(!split.forget.is_empty());
        for epoch in 0..epochs {
            for (part, (data, teacher)) in [
                (&split.remaining, &mut *competent),
                (&split.forget, &mut incompetent),
            ]
            .into_iter()
            .enumerate()
            {
                if data.is_empty() {
                    continue;
                }
                data.shuffled_indices_into(&mut rng, &mut order);
                let steps = order.chunks(setup.train.batch_size).len();
                let last = epoch + 1 == epochs && part == last_part;
                for (i, chunk) in order.chunks(setup.train.batch_size).enumerate() {
                    gather.gather(data, chunk);
                    {
                        let teacher_logits = teacher.forward_ws(gather.features(), false);
                        let student_logits = student.forward_ws(gather.features(), true);
                        distillation_loss_into(
                            student_logits,
                            teacher_logits,
                            self.temperature,
                            &mut grad,
                            &mut teacher_probs,
                        );
                    }
                    student.zero_grad();
                    student.backward_train(&grad);
                    if last && i + 1 == steps {
                        sgd.final_step(student);
                    } else {
                        sgd.step(student);
                    }
                }
            }
        }
    }
}

/// The "origin" reference: no unlearning at all — returns the original
/// global model unchanged. Used as the contamination witness in Tables
/// III–VI.
#[derive(Debug, Clone, Copy, Default)]
pub struct OriginalModel;

impl UnlearningMethod for OriginalModel {
    fn name(&self) -> &'static str {
        "origin"
    }

    fn unlearn(&self, setup: &UnlearnSetup, _seed: u64) -> UnlearnOutcome {
        let acc = global_accuracy(&setup.factory, &setup.original_global, &setup.test);
        UnlearnOutcome {
            method: self.name().into(),
            global_state: setup.original_global.clone(),
            round_accuracies: vec![acc; setup.rounds.max(1)],
        }
    }
}

/// Prediction-probability tensor of a state vector over a dataset —
/// exposed for the divergence tables (VII–IX).
pub fn state_probs(factory: &ModelFactory, state: &[f32], data: &goldfish_data::Dataset) -> Tensor {
    let mut net = network_from_state(factory, state, 0);
    eval::predict_probs(&mut net, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::ClientSplit;
    use goldfish_data::backdoor::BackdoorSpec;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_fed::trainer::{train_local_ce, TrainConfig};
    use goldfish_nn::zoo;
    use std::sync::Arc;

    fn setup_fixture() -> (UnlearnSetup, BackdoorSpec) {
        let spec = SyntheticSpec::mnist().with_size(10, 10).with_shift(1);
        let (mut train, test) = synthetic::generate(&spec, 300, 100, 31);
        let backdoor = BackdoorSpec::new(0).with_patch(2);
        let poisoned: Vec<usize> = (0..24).collect();
        backdoor.poison(&mut train, &poisoned);

        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(100, &[32], 10, &mut rng)
        });
        let train_cfg = TrainConfig {
            local_epochs: 4,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
        };

        // Pretrain the original global model on everything (single client
        // keeps the fixture fast).
        let mut original = (factory)(1);
        train_local_ce(
            &mut original,
            &train,
            &TrainConfig {
                local_epochs: 15,
                ..train_cfg
            },
            5,
        );

        // Client 0 holds the poisoned data; client 1 is intact.
        let (c0, c1) = train.split_at(150);
        let removed: Vec<usize> = (0..24).collect();
        let clients = vec![
            ClientSplit::with_removed(&c0, &removed),
            ClientSplit::intact(c1),
        ];
        (
            UnlearnSetup {
                factory,
                clients,
                test,
                original_global: original.state_vector(),
                rounds: 3,
                train: train_cfg,
            },
            backdoor,
        )
    }

    #[test]
    fn original_model_keeps_backdoor() {
        let (setup, backdoor) = setup_fixture();
        let out = OriginalModel.unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        assert!(asr > 0.5, "origin ASR {asr} should stay high");
        assert!(out.final_accuracy() > 0.5);
    }

    #[test]
    fn b1_retrain_removes_backdoor() {
        let (setup, backdoor) = setup_fixture();
        let out = RetrainFromScratch.unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        assert!(asr < 0.3, "B1 ASR {asr} should be low");
        assert!(
            out.final_accuracy() > 0.5,
            "B1 accuracy {}",
            out.final_accuracy()
        );
        assert_eq!(out.round_accuracies.len(), 3);
    }

    #[test]
    fn b2_rapid_converges_and_forgets() {
        let (setup, backdoor) = setup_fixture();
        let out = RapidRetrain::default().unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        assert!(asr < 0.3, "B2 ASR {asr}");
        assert!(
            out.final_accuracy() > 0.5,
            "B2 accuracy {}",
            out.final_accuracy()
        );
    }

    #[test]
    fn b3_incompetent_teacher_reduces_backdoor_quickly() {
        let (setup, backdoor) = setup_fixture();
        let out = IncompetentTeacher::default().unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        // The original model's ASR is > 0.5; B3 must cut it drastically.
        assert!(asr < 0.35, "B3 ASR {asr}");
        assert!(
            out.final_accuracy() > 0.4,
            "B3 accuracy {}",
            out.final_accuracy()
        );
    }

    #[test]
    fn b2_keeps_frozen_batchnorm_stats_pinned() {
        // The pre-port B2 maintained its own state vector and wrote it
        // back every batch, which pinned the frozen BatchNorm running
        // statistics to their round-entry values (frozen grads are
        // zero). The fused in-place sweep must reproduce that: after an
        // unlearning run on a BN-bearing model, every frozen entry of
        // the global state equals the reinitialised model's.
        let spec = SyntheticSpec::mnist().with_size(10, 10);
        let (train, test) = synthetic::generate(&spec, 60, 20, 3);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::resnet_mini(1, 10, 1, 4, &mut rng)
        });
        let setup = UnlearnSetup {
            factory: factory.clone(),
            clients: vec![ClientSplit::intact(train)],
            test,
            original_global: (factory)(1).state_vector(),
            rounds: 1,
            train: TrainConfig {
                local_epochs: 1,
                batch_size: 20,
                lr: 0.05,
                momentum: 0.9,
            },
        };
        let seed = 5;
        let out = RapidRetrain::default().unlearn(&setup, seed);
        let init = (setup.factory)(crate::basic_model::reinit_seed(seed ^ 0xB2)).state_vector();
        // Frozen mask in state-vector order.
        let mut probe = (setup.factory)(0);
        let mut trainable = Vec::new();
        probe.visit_params_mut(&mut |p| {
            trainable.extend(std::iter::repeat_n(p.trainable, p.value.len()));
        });
        assert!(trainable.iter().any(|t| !t), "fixture has no frozen state");
        let mut moved = 0usize;
        for ((t, got), want) in trainable
            .iter()
            .zip(out.global_state.iter())
            .zip(init.iter())
        {
            if !t {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "frozen running stat drifted: {got} vs {want}"
                );
            } else if got.to_bits() != want.to_bits() {
                moved += 1;
            }
        }
        assert!(moved > 0, "trainable parameters did not move");
    }
}
