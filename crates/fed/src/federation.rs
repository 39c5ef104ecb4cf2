//! The federated round loop.

use goldfish_data::Dataset;
use goldfish_nn::Network;
use serde::{Deserialize, Serialize};

use crate::trainer::TrainConfig;
use crate::transport::{
    round_nonce, round_seed, LoopbackClients, RoundMode, RoundRuntime, TrainAssign, Weighting,
};
use crate::{eval, ModelFactory};

/// A federated-learning simulation: one server, `n` clients holding local
/// datasets, and a shared model architecture.
///
/// Clients run their local epochs **in parallel** on the shared compute
/// pool (see [`crate::pool`]), mirroring the `foreach client in parallel`
/// loop of Algorithm 1. The global model travels as a flattened state
/// vector. The pool size is configurable per federation via
/// [`FederationBuilder::threads`]; results are identical at every thread
/// count.
pub struct Federation {
    factory: ModelFactory,
    clients: Vec<Dataset>,
    test: Dataset,
    cfg: TrainConfig,
    eval_clients: bool,
    adaptive: bool,
    threads: Option<usize>,
    global: Vec<f32>,
}

/// Builder for [`Federation`].
pub struct FederationBuilder {
    factory: ModelFactory,
    clients: Vec<Dataset>,
    test: Dataset,
    cfg: TrainConfig,
    eval_clients: bool,
    adaptive: bool,
    threads: Option<usize>,
    init_seed: u64,
}

impl Federation {
    /// Starts building a federation around a model factory and the server's
    /// held-out test set.
    pub fn builder(factory: ModelFactory, test: Dataset) -> FederationBuilder {
        FederationBuilder {
            factory,
            clients: Vec::new(),
            test,
            cfg: TrainConfig::default(),
            eval_clients: false,
            adaptive: false,
            threads: None,
            init_seed: 0,
        }
    }

    /// Number of participating clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// A client's local dataset.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client_data(&self, id: usize) -> &Dataset {
        &self.clients[id]
    }

    /// The server's test set.
    pub fn test_data(&self) -> &Dataset {
        &self.test
    }

    /// The current global state vector.
    pub fn global_state(&self) -> &[f32] {
        &self.global
    }

    /// Materialises the current global model as a [`Network`].
    pub fn global_network(&self) -> Network {
        let mut net = (self.factory)(0);
        net.set_state_vector(&self.global);
        net
    }

    /// Test accuracy of the current global model.
    pub fn global_accuracy(&self) -> f64 {
        let mut net = self.global_network();
        eval::accuracy(&mut net, &self.test)
    }

    /// The local training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// The model factory.
    pub fn model_factory(&self) -> ModelFactory {
        std::sync::Arc::clone(&self.factory)
    }

    /// Runs one federated round: every client trains locally from the
    /// current global state (in parallel), the server aggregates — FedAvg,
    /// or Eqs 12–13 when [`FederationBuilder::adaptive_aggregation`] is on
    /// — and installs the new global model. With
    /// [`FederationBuilder::eval_clients`] on, each upload's test accuracy
    /// is scored alongside its training.
    ///
    /// The round is [`RoundRuntime::run_hot`] over the in-process
    /// [`LoopbackClients`] transport; `goldfish-serve` drives the same
    /// loop over TCP.
    ///
    /// # Panics
    ///
    /// Panics if the federation has no clients or every client diverged.
    pub(crate) fn run_round(&mut self, round: usize, seed: u64) -> RoundReport {
        assert!(!self.clients.is_empty(), "federation has no clients");
        let mut clients = LoopbackClients::new(&self.factory, &self.clients, self.threads);
        let assign = TrainAssign {
            mode: RoundMode::Train,
            round,
            seed,
            nonce: round_nonce(seed, round),
            global: &self.global,
            cfg: &self.cfg,
        };
        let weighting = if self.adaptive {
            Weighting::ServerMse {
                factory: &self.factory,
                test: &self.test,
            }
        } else {
            Weighting::Samples
        };
        if self.eval_clients {
            clients = clients.scoring_on(&self.test);
        }
        let mut runtime = RoundRuntime::new(self.threads, 0);
        let mut global = Vec::new();
        runtime
            .run_hot(&mut clients, &assign, weighting, &mut global)
            .expect("no loopback client delivered a finite update");
        self.global = global;
        RoundReport {
            round,
            global_accuracy: self.global_accuracy(),
            client_accuracies: clients.accuracies().to_vec(),
            client_sizes: runtime.last_cohort().iter().map(|&(_, n)| n).collect(),
        }
    }

    /// Runs `rounds` federated rounds.
    pub fn train_rounds(&mut self, rounds: usize, seed: u64) -> TrainReport {
        let mut report = TrainReport {
            rounds: Vec::with_capacity(rounds),
        };
        for r in 0..rounds {
            // The shared derivation keeps daemons/benchmarks replaying a
            // schedule bitwise aligned with this loop.
            report.rounds.push(self.run_round(r, round_seed(seed, r)));
        }
        report
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Federation({} clients, {} test samples, {} params)",
            self.clients.len(),
            self.test.len(),
            self.global.len()
        )
    }
}

impl FederationBuilder {
    /// Adds one client with its local dataset.
    pub fn add_client(mut self, data: Dataset) -> Self {
        self.clients.push(data);
        self
    }

    /// Adds many clients at once.
    pub fn clients(mut self, datasets: impl IntoIterator<Item = Dataset>) -> Self {
        self.clients.extend(datasets);
        self
    }

    /// Sets the local training configuration.
    pub fn train_config(mut self, cfg: TrainConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Enables per-round evaluation of every client model on the test set
    /// (needed for the Fig 8 error bars; off by default — it costs one
    /// forward pass over the test set per client per round).
    pub fn eval_clients(mut self, yes: bool) -> Self {
        self.eval_clients = yes;
        self
    }

    /// Aggregates with the adaptive weights of Eqs 12–13 (each upload
    /// weighted by its server-side test MSE) instead of FedAvg's sample
    /// counts (the default).
    pub fn adaptive_aggregation(mut self, yes: bool) -> Self {
        self.adaptive = yes;
        self
    }

    /// Pins this federation's compute-pool size. Unset (or `0`), the
    /// federation runs on the enclosing [`crate::pool::install`]'s pool,
    /// or on the hardware thread count at top level; results are
    /// identical at every thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Seed for the initial global model.
    pub fn init_seed(mut self, seed: u64) -> Self {
        self.init_seed = seed;
        self
    }

    /// Builds the federation, initialising the global model from the
    /// factory.
    pub fn build(self) -> Federation {
        let global = (self.factory)(self.init_seed).state_vector();
        Federation {
            factory: self.factory,
            clients: self.clients,
            test: self.test,
            cfg: self.cfg,
            eval_clients: self.eval_clients,
            adaptive: self.adaptive,
            threads: self.threads,
            global,
        }
    }
}

/// Result of one federated round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Test accuracy of the aggregated global model.
    pub global_accuracy: f64,
    /// Test accuracy of every client's uploaded model (empty unless
    /// [`FederationBuilder::eval_clients`] was enabled).
    pub client_accuracies: Vec<f64>,
    /// Client dataset sizes this round.
    pub client_sizes: Vec<usize>,
}

/// Result of a multi-round run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-round reports, in order.
    pub rounds: Vec<RoundReport>,
}

impl TrainReport {
    /// Accuracy of the final round (0 when empty).
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map(|r| r.global_accuracy).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::partition;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_nn::zoo;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    fn small_federation(clients: usize, eval_clients: bool) -> Federation {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (train, test) = synthetic::generate(&spec, 240, 80, 9);
        let mut rng = StdRng::seed_from_u64(1);
        let parts = partition::iid(train.len(), clients, &mut rng);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[24], 10, &mut rng)
        });
        let mut b = Federation::builder(factory, test)
            .train_config(TrainConfig {
                local_epochs: 2,
                batch_size: 20,
                lr: 0.05,
                momentum: 0.9,
            })
            .eval_clients(eval_clients);
        for p in &parts {
            b = b.add_client(train.subset(p));
        }
        b.build()
    }

    #[test]
    fn federated_training_improves_accuracy() {
        let mut fed = small_federation(3, false);
        let before = fed.global_accuracy();
        let report = fed.train_rounds(4, 0);
        let after = report.final_accuracy();
        assert!(
            after > before + 0.2,
            "accuracy {before} -> {after} did not improve"
        );
    }

    #[test]
    fn round_reports_carry_sizes() {
        let mut fed = small_federation(4, false);
        let report = fed.run_round(0, 0);
        assert_eq!(report.client_sizes.len(), 4);
        assert_eq!(report.client_sizes.iter().sum::<usize>(), 240);
        assert!(report.client_accuracies.is_empty());
    }

    #[test]
    fn eval_clients_populates_accuracies() {
        let mut fed = small_federation(3, true);
        let report = fed.run_round(0, 0);
        assert_eq!(report.client_accuracies.len(), 3);
        assert!(report
            .client_accuracies
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fed = small_federation(2, false);
            fed.train_rounds(2, 123);
            fed.global_state().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn global_network_matches_state() {
        let fed = small_federation(2, false);
        let net = fed.global_network();
        assert_eq!(net.state_vector(), fed.global_state());
    }
}
