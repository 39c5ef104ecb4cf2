//! **Goldfish** — an efficient federated unlearning framework.
//!
//! Reproduction of Wang, Zhu, Chen & Esteves-Veríssimo, *"Goldfish: An
//! Efficient Federated Unlearning Framework"* (DSN 2024). The framework
//! removes a client's (partial) data contribution from a federated global
//! model far faster than retraining from scratch, while keeping accuracy
//! and actually forgetting (validated with backdoor probes).
//!
//! The crate mirrors the paper's four modules:
//!
//! | Module | Paper §III | Here |
//! |---|---|---|
//! | Basic model | teacher/student distillation retraining | [`basic_model`] |
//! | Loss function | `L = Lh + µc·Lc + µd·Ld` (Eqs 1–6) | [`loss`] |
//! | Optimization | early termination (Eq 7) + data sharding (Eqs 8–10) | [`optimization`] |
//! | Extension | adaptive temperature (Eq 11) + adaptive weights (Eqs 12–13) | [`extension`] |
//!
//! plus the paper's baselines ([`baselines`]: B1 retrain-from-scratch, B2
//! rapid retraining, B3 incompetent teacher) and the Algorithm 1
//! orchestration ([`unlearner::GoldfishUnlearning`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use goldfish_core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
//! use goldfish_core::unlearner::GoldfishUnlearning;
//! use goldfish_core::basic_model::GoldfishLocalConfig;
//! use goldfish_data::synthetic::{self, SyntheticSpec};
//! use goldfish_fed::trainer::TrainConfig;
//! use goldfish_nn::zoo;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A tiny federation: one client must forget its first 5 samples.
//! let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
//! let (train, test) = synthetic::generate(&spec, 60, 30, 1);
//! let factory: goldfish_fed::ModelFactory = Arc::new(|seed| {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     zoo::mlp(64, &[16], 10, &mut rng)
//! });
//! let original = factory(1).state_vector();
//! let setup = UnlearnSetup {
//!     factory,
//!     clients: vec![ClientSplit::with_removed(&train, &[0, 1, 2, 3, 4])],
//!     test,
//!     original_global: original,
//!     rounds: 1,
//!     train: TrainConfig::default(),
//! };
//! let method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
//!     epochs: 1,
//!     batch_size: 20,
//!     ..GoldfishLocalConfig::default()
//! });
//! let outcome = method.unlearn(&setup, 42);
//! assert_eq!(outcome.round_accuracies.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod basic_model;
pub mod extension;
pub mod loss;
pub mod method;
pub mod optimization;
pub mod transport;
pub mod unlearner;

pub use basic_model::{train_distill, GoldfishLocalConfig, GoldfishLocalStats};
pub use loss::{GoldfishLoss, LossBreakdown, LossWeights};
pub use method::{ClientSplit, UnlearnOutcome, UnlearnSetup, UnlearningMethod};
pub use optimization::{EarlyTermination, ShardedClient, ShardedLocalModel};
pub use transport::{ClientDistiller, DistillJob, DistillTransport, LoopbackDistill, UnlearnJob};
pub use unlearner::{GoldfishUnlearning, UnlearnServer};
