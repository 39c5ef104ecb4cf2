//! The four dataset workloads of the paper at CPU scale, plus the shared
//! experiment assembly (pretraining, poisoning, deletion splits).
//!
//! Scale substitution (DESIGN.md §3): image sizes, sample counts and model
//! widths are reduced to fit the pure-Rust CPU substrate; every knob is a
//! field on [`Workload`], so full-paper-scale runs are configuration-only.

use std::sync::Arc;

use goldfish_core::basic_model::{network_from_state, GoldfishLocalConfig};
use goldfish_core::method::{ClientSplit, UnlearnSetup};
use goldfish_data::backdoor::BackdoorSpec;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::{partition, Dataset};
use goldfish_fed::federation::Federation;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::{eval, ModelFactory};
use goldfish_nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

/// Which paper model a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ModelKind {
    /// LeNet-5 (2 FC head) — MNIST/FMNIST.
    Lenet5,
    /// Modified LeNet-5 (3 FC head) — CIFAR-10.
    Lenet5Modified,
    /// ResNet-mini — the ResNet32/ResNet56 stand-in.
    ResnetMini {
        /// Residual blocks per stage.
        blocks: usize,
        /// Stage-1 channel width.
        base: usize,
    },
}

/// A fully-specified experiment workload (dataset + model + FL setup).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name ("mnist", "fmnist", …).
    pub name: String,
    /// Synthetic dataset generator parameters.
    pub spec: SyntheticSpec,
    /// Model architecture.
    pub(crate) model: ModelKind,
    /// Training-set size.
    pub(crate) train_n: usize,
    /// Test-set size.
    pub(crate) test_n: usize,
    /// Number of federated clients.
    pub(crate) clients: usize,
    /// Federated rounds used for pretraining the original model.
    pub(crate) pretrain_rounds: usize,
    /// Federated rounds available to each unlearning method.
    pub(crate) rounds: usize,
    /// Local epochs per round.
    pub(crate) local_epochs: usize,
    /// Mini-batch size.
    pub(crate) batch_size: usize,
    /// Learning rate.
    pub(crate) lr: f32,
    /// Backdoor trigger patch side length.
    pub(crate) patch: usize,
}

impl Workload {
    /// MNIST analogue: 1×20×20, LeNet-5.
    ///
    /// Calibrated so the pretrained ("origin") model lands in the paper's
    /// profile: high test accuracy with a high backdoor success rate.
    pub fn mnist() -> Self {
        Workload {
            name: "mnist".into(),
            spec: SyntheticSpec::mnist().with_size(20, 20),
            model: ModelKind::Lenet5,
            train_n: 2500,
            test_n: 400,
            clients: 5,
            pretrain_rounds: 12,
            rounds: 5,
            local_epochs: 2,
            batch_size: 25,
            lr: 0.03,
            patch: 7,
        }
    }

    /// Fashion-MNIST analogue: 1×20×20, LeNet-5, noisier.
    pub fn fmnist() -> Self {
        let mut spec = SyntheticSpec::fashion_mnist().with_size(20, 20);
        spec.noise_std = 0.24;
        spec.max_shift = 2;
        Workload {
            name: "fmnist".into(),
            spec,
            pretrain_rounds: 16,
            patch: 8,
            ..Workload::mnist()
        }
    }

    /// CIFAR-10 analogue on the modified LeNet-5.
    pub fn cifar10_lenet() -> Self {
        let mut spec = SyntheticSpec::cifar10().with_size(20, 20);
        spec.noise_std = 0.30;
        spec.max_shift = 3;
        Workload {
            name: "cifar10-lenet".into(),
            spec,
            model: ModelKind::Lenet5Modified,
            train_n: 3000,
            pretrain_rounds: 16,
            patch: 8,
            ..Workload::mnist()
        }
    }

    /// CIFAR-10 analogue on the ResNet-mini (the ResNet32 stand-in).
    pub fn cifar10_resnet() -> Self {
        Workload {
            name: "cifar10-resnet".into(),
            spec: SyntheticSpec::cifar10().with_size(16, 16),
            model: ModelKind::ResnetMini { blocks: 1, base: 8 },
            train_n: 1600,
            test_n: 320,
            pretrain_rounds: 16,
            lr: 0.02,
            patch: 8,
            ..Workload::mnist()
        }
    }

    /// CIFAR-100 analogue on a deeper ResNet-mini (the ResNet56 stand-in).
    pub(crate) fn cifar100() -> Self {
        let mut spec = SyntheticSpec::cifar100().with_size(16, 16);
        spec.noise_std = 0.22;
        spec.max_shift = 2;
        Workload {
            name: "cifar100".into(),
            spec,
            model: ModelKind::ResnetMini { blocks: 2, base: 8 },
            train_n: 2600,
            lr: 0.08,
            patch: 8,
            ..Workload::mnist()
        }
    }

    /// All five paper workloads (Fig 4/5 iterate over these).
    pub(crate) fn all() -> Vec<Workload> {
        vec![
            Workload::mnist(),
            Workload::fmnist(),
            Workload::cifar10_lenet(),
            Workload::cifar10_resnet(),
            Workload::cifar100(),
        ]
    }

    /// Shrinks the workload for smoke runs (`--quick`). LeNet inputs stay
    /// at the 18×18 minimum its 5×5/2×2 trunk requires.
    pub(crate) fn quick(mut self) -> Self {
        self.train_n = (self.train_n / 4).max(120);
        self.test_n = (self.test_n / 3).max(60);
        self.pretrain_rounds = 3;
        self.rounds = 2;
        self.model = match self.model {
            ModelKind::ResnetMini { .. } => {
                self.spec = self.spec.clone().with_size(10, 10);
                ModelKind::ResnetMini { blocks: 1, base: 4 }
            }
            other => {
                self.spec = self.spec.clone().with_size(18, 18);
                other
            }
        };
        self.patch = 2;
        self
    }

    /// A thread-safe model factory for this workload.
    pub fn factory(&self) -> ModelFactory {
        let model = self.model;
        let channels = self.spec.channels;
        let (h, w) = (self.spec.height, self.spec.width);
        let classes = self.spec.classes;
        Arc::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            match model {
                ModelKind::Lenet5 => zoo::lenet5(channels, h, w, classes, &mut rng),
                ModelKind::Lenet5Modified => {
                    zoo::lenet5_modified(channels, h, w, classes, &mut rng)
                }
                ModelKind::ResnetMini { blocks, base } => {
                    zoo::resnet_mini(channels, classes, blocks, base, &mut rng)
                }
            }
        })
    }

    /// Generates `(train, test)` datasets.
    pub(crate) fn datasets(&self, seed: u64) -> (Dataset, Dataset) {
        synthetic::generate(&self.spec, self.train_n, self.test_n, seed)
    }

    /// Local training configuration for federated rounds.
    pub(crate) fn train_config(&self) -> TrainConfig {
        TrainConfig {
            local_epochs: self.local_epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            momentum: 0.9,
        }
    }

    /// Goldfish's local configuration for this workload: its epochs, batch
    /// size and learning rate, everything else the paper's default.
    pub(crate) fn goldfish_local(&self) -> GoldfishLocalConfig {
        GoldfishLocalConfig {
            epochs: self.local_epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            ..GoldfishLocalConfig::default()
        }
    }

    /// The backdoor used as the unlearning-validity probe.
    pub(crate) fn backdoor(&self) -> BackdoorSpec {
        BackdoorSpec::new(0).with_patch(self.patch)
    }
}

/// A fully-assembled unlearning experiment: poisoned federation, pretrained
/// original model, per-client splits.
pub(crate) struct BuiltExperiment {
    /// The unlearning setup handed to every method.
    pub(crate) setup: UnlearnSetup,
    /// The backdoor probe.
    pub(crate) backdoor: BackdoorSpec,
    /// Test accuracy of the original (pre-unlearning) model.
    pub(crate) original_acc: f64,
    /// Backdoor success rate of the original model.
    pub(crate) original_asr: f64,
}

impl std::fmt::Debug for BuiltExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BuiltExperiment({:?}, origin acc {:.3}, origin asr {:.3})",
            self.setup, self.original_acc, self.original_asr
        )
    }
}

/// Builds the standard experiment: IID partition over `workload.clients`,
/// client 0 poisons a `deletion_rate` fraction of its local data with the
/// backdoor (this is the data later requested for deletion), the original
/// global model is pretrained federatedly on everything.
pub(crate) fn build_unlearning_experiment(
    workload: &Workload,
    deletion_rate: f64,
    seed: u64,
) -> BuiltExperiment {
    assert!(
        (0.0..=1.0).contains(&deletion_rate),
        "deletion rate must be a fraction, got {deletion_rate}"
    );
    let (train, test) = workload.datasets(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    let parts = partition::iid(train.len(), workload.clients, &mut rng);

    // Client 0 receives the backdoored (to-be-deleted) samples.
    let mut client_data: Vec<Dataset> = parts.iter().map(|p| train.subset(p)).collect();
    let backdoor = workload.backdoor();
    let n_poison = ((client_data[0].len() as f64) * deletion_rate).round() as usize;
    let poison_idx: Vec<usize> = (0..n_poison).collect();
    backdoor.poison(&mut client_data[0], &poison_idx);

    // Pretrain the original global model on the full (poisoned) federation.
    let factory = workload.factory();
    let mut federation = Federation::builder(Arc::clone(&factory), test.clone())
        .train_config(workload.train_config())
        .clients(client_data.iter().cloned())
        .init_seed(seed)
        .build();
    federation.train_rounds(workload.pretrain_rounds, seed ^ 0x9E37);
    let original_global = federation.global_state().to_vec();

    let mut original = federation.global_network();
    let original_acc = eval::accuracy(&mut original, &test);
    let original_asr = eval::attack_success_rate(&mut original, &test, &backdoor);

    // Deletion request: client 0 removes exactly the poisoned samples.
    let mut clients = Vec::with_capacity(client_data.len());
    for (i, data) in client_data.into_iter().enumerate() {
        if i == 0 {
            clients.push(ClientSplit::with_removed(&data, &poison_idx));
        } else {
            clients.push(ClientSplit::intact(data));
        }
    }

    BuiltExperiment {
        setup: UnlearnSetup {
            factory,
            clients,
            test,
            original_global,
            rounds: workload.rounds,
            train: workload.train_config(),
        },
        backdoor,
        original_acc,
        original_asr,
    }
}

/// Evaluates `(accuracy, backdoor ASR)` of a global state vector.
pub(crate) fn eval_state(
    factory: &ModelFactory,
    state: &[f32],
    test: &Dataset,
    backdoor: &BackdoorSpec,
) -> (f64, f64) {
    let mut net = network_from_state(factory, state, 0);
    let acc = eval::accuracy(&mut net, test);
    let asr = eval::attack_success_rate(&mut net, test, backdoor);
    (acc, asr)
}

/// The deletion rates of the paper's tables (2 % … 12 %).
pub(crate) const DELETION_RATES: [f64; 6] = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workload_is_smaller() {
        let full = Workload::mnist();
        let quick = Workload::mnist().quick();
        assert!(quick.train_n < full.train_n);
        assert!(quick.rounds <= full.rounds);
    }

    #[test]
    fn factories_build_right_shapes() {
        for w in Workload::all() {
            let w = w.quick();
            let factory = w.factory();
            let mut net = (factory)(0);
            let x = goldfish_tensor::Tensor::zeros(vec![
                2,
                w.spec.channels,
                w.spec.height,
                w.spec.width,
            ]);
            let y = net.forward_ws(&x, false);
            assert_eq!(y.shape(), &[2, w.spec.classes], "workload {}", w.name);
        }
    }

    #[test]
    fn built_experiment_has_poisoned_origin() {
        // The full (calibrated) MNIST workload: the origin model must both
        // perform well and carry the backdoor. The quick() scale is a smoke
        // configuration and intentionally cannot plant a reliable backdoor.
        let w = Workload::mnist();
        let built = build_unlearning_experiment(&w, 0.10, 7);
        // Well above the 10% random-guess baseline. The exact value moves
        // with kernel rounding (the engine uses hardware FMA), so the bar
        // asserts "backdoor planted", not a calibrated strength.
        assert!(
            built.original_asr > 0.2,
            "origin ASR {} too low for a poisoned model",
            built.original_asr
        );
        assert!(
            built.original_acc > 0.7,
            "origin acc {}",
            built.original_acc
        );
        assert_eq!(built.setup.clients.len(), w.clients);
        assert!(!built.setup.clients[0].forget.is_empty());
        assert!(built.setup.clients[1].forget.is_empty());
    }

    #[test]
    fn quick_experiment_assembles() {
        let w = Workload::mnist().quick();
        let built = build_unlearning_experiment(&w, 0.10, 7);
        assert_eq!(built.setup.clients.len(), w.clients);
        let total: usize = built
            .setup
            .clients
            .iter()
            .map(|c| c.remaining.len() + c.forget.len())
            .sum();
        assert_eq!(total, w.train_n);
    }

    #[test]
    #[should_panic(expected = "deletion rate must be a fraction")]
    fn rejects_percent_style_rates() {
        let w = Workload::mnist().quick();
        let _ = build_unlearning_experiment(&w, 2.0, 0);
    }
}
