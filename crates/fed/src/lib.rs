//! Federated-learning simulator for the Goldfish reproduction.
//!
//! This crate provides the federated substrate the paper's algorithms run
//! on:
//!
//! * [`trainer`] — the one local SGD loop, [`trainer::train_local_hot`],
//!   and [`trainer::TrainLane`], the reusable network + workspace +
//!   optimizer every executor runs it on, one per executing thread,
//! * [`aggregate`] — aggregation of flattened state vectors:
//!   [`aggregate::RoundAccumulator`], the one fixed-slot accumulator
//!   behind every round (FedAvg after McMahan et al., the Eq 12–13
//!   [`aggregate::adaptive_weights`], and every serve-side
//!   [`aggregate::AggregationMode`]), and [`aggregate::weighted_mean`],
//!   its buffered oracle,
//! * [`eval`] — model evaluation over datasets (accuracy, server-side MSE
//!   for Eq 12, prediction distributions, backdoor success),
//! * [`federation`] — the simulated federation: clients train in
//!   parallel on the shared pool, the server aggregates and re-broadcasts,
//! * [`transport`] — the server↔client transport abstraction: the
//!   [`transport::RoundTransport`] contract,
//!   [`transport::LoopbackClients`] — the one in-process executor, which
//!   `goldfish-core`'s distillation and `goldfish-serve`'s loopback build
//!   on — and [`transport::RoundRuntime`], the one round loop every
//!   federation, coordinator and unlearning drain runs on
//!   (`goldfish-serve` adds the TCP implementation),
//! * [`rows`] — [`rows::ClientRows`], the one owner of a client's rows:
//!   live rows for every round, deletions by original index, and a
//!   drain's forget rows until the next training round,
//! * [`pool`] — the shared rayon compute pool with a configurable thread
//!   count; every parallel federated step (client training, evaluation,
//!   chunked aggregation) runs on it.
//!
//! The Goldfish unlearning procedures themselves live in `goldfish-core`;
//! they compose these building blocks per Algorithm 1 of the paper.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use goldfish_data::synthetic::{self, SyntheticSpec};
//! use goldfish_fed::{federation::Federation, trainer::TrainConfig};
//! use goldfish_nn::zoo;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
//! let (train, test) = synthetic::generate(&spec, 60, 30, 1);
//! let factory = Arc::new(|seed: u64| {
//!     let mut rng = StdRng::seed_from_u64(seed);
//!     zoo::mlp(64, &[16], 10, &mut rng)
//! });
//! let mut fed = Federation::builder(factory, test)
//!     .train_config(TrainConfig { local_epochs: 1, ..TrainConfig::default() })
//!     .adaptive_aggregation(true)
//!     .add_client(train)
//!     .build();
//! let report = fed.train_rounds(1, 7);
//! assert_eq!(report.rounds.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod eval;
pub mod federation;
pub mod pool;
pub mod rows;
pub mod sampling;
pub mod trainer;
pub mod transport;

/// Convenience alias: a thread-safe factory building a fresh (randomly
/// initialised) model from a seed. Every federated component clones
/// architecture through this.
pub type ModelFactory = std::sync::Arc<dyn Fn(u64) -> goldfish_nn::Network + Send + Sync>;
