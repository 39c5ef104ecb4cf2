//! The deterministic demo workload both daemons derive independently.
//!
//! A coordinator and its workers must agree on the data without shipping
//! datasets around. The demo workload is a pure function of
//! `(seed, clients, samples_per_client)`: every process generates the
//! same synthetic-MNIST pool (`goldfish_data::synthetic`) and slices its
//! own contiguous shard.

use std::sync::Arc;

use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::ModelFactory;
use goldfish_nn::zoo;
use rand::{rngs::StdRng, SeedableRng};

/// Parameters of the demo workload; must match across all daemons of one
/// deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoSpec {
    /// Number of federated clients.
    pub clients: usize,
    /// Samples per client shard.
    pub samples_per_client: usize,
    /// Server-side test samples.
    pub test_samples: usize,
    /// Workload seed (data generation + initial global model).
    pub seed: u64,
}

impl Default for DemoSpec {
    fn default() -> Self {
        DemoSpec {
            clients: 2,
            samples_per_client: 120,
            test_samples: 60,
            seed: 42,
        }
    }
}

impl DemoSpec {
    /// The model factory: the paper-shaped scaled-MNIST MLP (64 → 32 →
    /// 10).
    pub fn factory(&self) -> ModelFactory {
        Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[32], 10, &mut rng)
        })
    }

    /// Local training hyperparameters (shared by every client).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            local_epochs: 1,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
        }
    }

    /// Generates the full `(train, test)` pool. Deterministic in
    /// `self.seed`.
    fn pool(&self) -> (Dataset, Dataset) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        synthetic::generate(
            &spec,
            self.clients * self.samples_per_client,
            self.test_samples,
            self.seed,
        )
    }

    /// Client `id`'s shard (a contiguous slice of the pool).
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.clients`.
    pub fn client_shard(&self, id: usize) -> Dataset {
        assert!(id < self.clients, "client {id} out of {}", self.clients);
        let (train, _) = self.pool();
        Self::slice(&train, id, self.samples_per_client)
    }

    /// Every client shard, in id order (the coordinator-side loopback
    /// transport holds all of them). Generates the pool **once** and
    /// slices every shard from it.
    pub fn client_shards(&self) -> Vec<Dataset> {
        let (train, _) = self.pool();
        (0..self.clients)
            .map(|id| Self::slice(&train, id, self.samples_per_client))
            .collect()
    }

    /// Shard `id` of `train` at `per` samples per client.
    fn slice(train: &Dataset, id: usize, per: usize) -> Dataset {
        let start = id * per;
        let idx: Vec<usize> = (start..start + per).collect();
        train.subset(&idx)
    }

    /// The server's held-out test set.
    pub fn test_set(&self) -> Dataset {
        self.pool().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_deterministic_and_disjoint() {
        let spec = DemoSpec::default();
        let a = spec.client_shard(0);
        let b = spec.client_shard(0);
        assert_eq!(a.features().as_slice(), b.features().as_slice());
        assert_eq!(a.labels(), b.labels());
        let c = spec.client_shard(1);
        assert_ne!(a.features().as_slice(), c.features().as_slice());
        assert_eq!(spec.client_shards().len(), 2);
    }

    #[test]
    fn factory_is_deterministic() {
        let spec = DemoSpec::default();
        assert_eq!(
            (spec.factory())(7).state_vector(),
            (spec.factory())(7).state_vector()
        );
    }
}
