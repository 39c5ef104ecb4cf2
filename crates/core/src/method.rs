//! The unlearning-method abstraction shared by Goldfish and the baselines.
//!
//! Every method consumes the same [`UnlearnSetup`] — a trained ("original")
//! global model, per-client remaining/removed splits, and a test set — and
//! produces an [`UnlearnOutcome`] with the unlearned global state and
//! per-round accuracy. The experiment harness then measures accuracy,
//! backdoor success, divergence and timing uniformly across methods.

use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::ModelFactory;
use serde::{Deserialize, Serialize};

/// One client's data after a deletion request has been applied.
#[derive(Debug, Clone)]
pub struct ClientSplit {
    /// The remaining data `D_r^c`.
    pub remaining: Dataset,
    /// The removed data `D_f^c` (empty for clients without deletions).
    pub forget: Dataset,
}

impl ClientSplit {
    /// A client with no deletion request.
    pub fn intact(data: Dataset) -> Self {
        let forget = Dataset::empty(data.sample_shape(), data.classes());
        ClientSplit {
            remaining: data,
            forget,
        }
    }

    /// Splits a client's data by the indices to remove.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn with_removed(data: &Dataset, removed: &[usize]) -> Self {
        let removed_set: std::collections::HashSet<usize> = removed.iter().copied().collect();
        let keep: Vec<usize> = (0..data.len())
            .filter(|i| !removed_set.contains(i))
            .collect();
        ClientSplit {
            remaining: data.subset(&keep),
            forget: data.subset(removed),
        }
    }
}

/// Everything an unlearning method needs to run.
pub struct UnlearnSetup {
    /// Architecture factory (seed → freshly initialised model).
    pub factory: ModelFactory,
    /// Per-client data splits.
    pub clients: Vec<ClientSplit>,
    /// The server's test set.
    pub test: Dataset,
    /// State vector of the trained global model that must forget (it was
    /// trained on everything, including the removed data).
    pub original_global: Vec<f32>,
    /// Federated rounds the method may use.
    pub rounds: usize,
    /// Base local-training hyperparameters.
    pub train: TrainConfig,
}

impl UnlearnSetup {
    /// Total removed samples across clients.
    pub(crate) fn total_forget(&self) -> usize {
        self.clients.iter().map(|c| c.forget.len()).sum()
    }

    /// Total remaining samples across clients.
    pub(crate) fn total_remaining(&self) -> usize {
        self.clients.iter().map(|c| c.remaining.len()).sum()
    }
}

impl std::fmt::Debug for UnlearnSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UnlearnSetup({} clients, {} remaining, {} removed, {} rounds)",
            self.clients.len(),
            self.total_remaining(),
            self.total_forget(),
            self.rounds
        )
    }
}

/// Result of running an unlearning method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnlearnOutcome {
    /// Method name.
    pub method: String,
    /// The unlearned global state vector.
    pub global_state: Vec<f32>,
    /// Test accuracy of the global model after each round.
    pub round_accuracies: Vec<f64>,
}

impl UnlearnOutcome {
    /// Final-round accuracy (0 when no rounds ran).
    #[cfg(test)]
    pub(crate) fn final_accuracy(&self) -> f64 {
        self.round_accuracies.last().copied().unwrap_or(0.0)
    }
}

/// An unlearning algorithm: Goldfish, or one of the paper's baselines.
pub trait UnlearningMethod: Send + Sync {
    /// Short identifier ("goldfish", "b1_retrain", …).
    fn name(&self) -> &'static str;

    /// Produces an unlearned global model.
    fn unlearn(&self, setup: &UnlearnSetup, seed: u64) -> UnlearnOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_tensor::Tensor;

    fn toy_dataset(n: usize) -> Dataset {
        Dataset::new(
            Tensor::zeros(vec![n, 4]),
            (0..n).map(|i| i % 2).collect(),
            2,
        )
    }

    #[test]
    fn intact_client_has_empty_forget() {
        let c = ClientSplit::intact(toy_dataset(5));
        assert_eq!(c.remaining.len(), 5);
        assert!(c.forget.is_empty());
    }

    #[test]
    fn with_removed_partitions_cleanly() {
        let c = ClientSplit::with_removed(&toy_dataset(10), &[1, 3, 5]);
        assert_eq!(c.remaining.len(), 7);
        assert_eq!(c.forget.len(), 3);
    }

    proptest::proptest! {
        /// A row store's live view after any sequence of deletions is
        /// the split of the original data by every removed row, bit for
        /// bit and in the same row order.
        #[test]
        fn store_live_view_is_the_splits_remaining_rows(
            batches in proptest::collection::vec(proptest::collection::vec(0usize..30, 0..6), 0..5),
        ) {
            use goldfish_data::synthetic::{self, SyntheticSpec};
            use goldfish_fed::rows::ClientRows;
            let spec = SyntheticSpec::mnist().with_size(4, 4);
            let data = synthetic::generate(&spec, 30, 0, 3).0;
            let mut rows = ClientRows::new(std::borrow::Cow::Borrowed(&data));
            let mut all: Vec<usize> = Vec::new();
            for batch in &batches {
                rows.remove(batch);
                all.extend(batch);
            }
            all.sort_unstable();
            all.dedup();
            let split = ClientSplit::with_removed(&data, &all);
            let bits = |d: &Dataset| {
                let f: Vec<u32> = d.features().as_slice().iter().map(|x| x.to_bits()).collect();
                (f, d.labels().to_vec())
            };
            proptest::prop_assert_eq!(bits(rows.live()), bits(&split.remaining));
        }
    }

    #[test]
    fn outcome_final_accuracy() {
        let o = UnlearnOutcome {
            method: "x".into(),
            global_state: vec![],
            round_accuracies: vec![0.1, 0.5, 0.8],
        };
        assert_eq!(o.final_accuracy(), 0.8);
    }
}
