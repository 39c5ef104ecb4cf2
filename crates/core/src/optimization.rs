//! The optimization module: early termination guided by excess empirical
//! risk (Eq 7) and data sharding with checkpoint arithmetic (Eqs 8–10,
//! Figs 2–3).

use goldfish_data::{partition, Dataset};
use goldfish_fed::trainer::{train_local_ce, Lanes, TrainConfig};
use goldfish_fed::ModelFactory;
use serde::{Deserialize, Serialize};

/// Early-termination monitor implementing Eq 7: local training stops once
/// the *running mean* of the student's epoch losses comes within `δ` of the
/// reference loss `L(ω^{t−1})` of the previous global model:
///
/// `err(ω_c^t, ω^{t−1}) = | (1/n) Σ_i L(ω_c^t(i)) − L(ω^{t−1}) | ≤ δ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyTermination {
    delta: f32,
    reference_loss: f32,
    sum: f32,
    count: usize,
}

impl EarlyTermination {
    /// Creates a monitor against the given reference loss.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or the reference loss is not finite.
    pub(crate) fn new(delta: f32, reference_loss: f32) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative, got {delta}");
        assert!(
            reference_loss.is_finite(),
            "reference loss must be finite, got {reference_loss}"
        );
        EarlyTermination {
            delta,
            reference_loss,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one local epoch's mean loss and reports whether training
    /// should stop.
    pub(crate) fn observe(&mut self, epoch_loss: f32) -> bool {
        self.sum += epoch_loss;
        self.count += 1;
        self.excess_risk() <= self.delta
    }

    /// The current excess empirical risk (Eq 7); `∞` before any epoch.
    pub(crate) fn excess_risk(&self) -> f32 {
        if self.count == 0 {
            return f32::INFINITY;
        }
        (self.sum / self.count as f32 - self.reference_loss).abs()
    }
}

/// A client's local model maintained as per-shard models over a sharded
/// dataset (Fig 2). All arithmetic operates on flattened state vectors.
///
/// * Eq 8 — [`ShardedLocalModel::aggregate`]: the local model is the
///   size-weighted mean of shard models.
/// * Eq 9 — [`ShardedLocalModel::checkpoint_without`]: the restart
///   checkpoint after deleting shard `i` is the weighted sum of the other
///   shards (no re-initialisation).
/// * Eq 10 — [`ShardedLocalModel::recover_shard_weights`]: after retraining
///   the aggregate from the checkpoint, shard `i`'s new weights are backed
///   out by subtracting the other shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedLocalModel {
    states: Vec<Vec<f32>>,
    sizes: Vec<usize>,
}

impl ShardedLocalModel {
    /// Creates a sharded model from per-shard states and shard sizes.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, lengths disagree, or states have
    /// inconsistent dimensions.
    pub fn new(states: Vec<Vec<f32>>, sizes: Vec<usize>) -> Self {
        assert!(!states.is_empty(), "need at least one shard");
        assert_eq!(states.len(), sizes.len(), "states/sizes length mismatch");
        let dim = states[0].len();
        assert!(
            states.iter().all(|s| s.len() == dim),
            "inconsistent shard state dimensions"
        );
        ShardedLocalModel { states, sizes }
    }

    /// Number of shards τ.
    pub fn num_shards(&self) -> usize {
        self.states.len()
    }

    /// Shard sizes `|D_i^c|`.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total local dataset size `|D^c|`.
    pub fn total_size(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// A shard's state.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn shard_state(&self, i: usize) -> &[f32] {
        &self.states[i]
    }

    /// Replaces a shard's state (after retraining that shard).
    ///
    /// # Panics
    ///
    /// Panics if out of range or the dimension changed.
    pub fn set_shard(&mut self, i: usize, state: Vec<f32>, size: usize) {
        assert_eq!(
            state.len(),
            self.states[i].len(),
            "shard state dimension changed"
        );
        self.states[i] = state;
        self.sizes[i] = size;
    }

    /// Removes shard `i` entirely (its data was fully deleted).
    ///
    /// # Panics
    ///
    /// Panics if out of range or it is the last shard.
    pub(crate) fn remove_shard(&mut self, i: usize) {
        assert!(self.states.len() > 1, "cannot remove the last shard");
        self.states.remove(i);
        self.sizes.remove(i);
    }

    /// Eq 8: `ω_c = Σ_i (|D_i|/|D|)·ω_{c,i}`.
    ///
    /// # Panics
    ///
    /// Panics if the total size is zero.
    pub fn aggregate(&self) -> Vec<f32> {
        let total = self.total_size();
        assert!(total > 0, "cannot aggregate zero-sized shards");
        let mut out = vec![0.0f32; self.states[0].len()];
        for (state, &size) in self.states.iter().zip(self.sizes.iter()) {
            let w = size as f32 / total as f32;
            for (o, &v) in out.iter_mut().zip(state.iter()) {
                *o += w * v;
            }
        }
        out
    }

    /// Eq 9: the restart checkpoint excluding shard `i`:
    /// `Σ_{j≠i} (|D_j|/|D|)·ω_{c,j}` (weighted by the *original* total
    /// `|D|`, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn checkpoint_without(&self, i: usize) -> Vec<f32> {
        assert!(i < self.states.len(), "shard {i} out of range");
        let total = self.total_size();
        assert!(total > 0, "cannot checkpoint zero-sized shards");
        let mut out = vec![0.0f32; self.states[0].len()];
        for (j, (state, &size)) in self.states.iter().zip(self.sizes.iter()).enumerate() {
            if j == i {
                continue;
            }
            let w = size as f32 / total as f32;
            for (o, &v) in out.iter_mut().zip(state.iter()) {
                *o += w * v;
            }
        }
        out
    }

    /// Eq 10: given a retrained aggregate `new_local`, backs out the new
    /// weights of shard `i`:
    /// `ω_{c,i} = (|D|/|D_i|)·(new_local − Σ_{j≠i} (|D_j|/|D|)·ω_{c,j})`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, dimensions disagree, or shard `i` is
    /// empty.
    pub fn recover_shard_weights(&self, i: usize, new_local: &[f32]) -> Vec<f32> {
        assert!(i < self.states.len(), "shard {i} out of range");
        assert_eq!(
            new_local.len(),
            self.states[0].len(),
            "aggregate dimension mismatch"
        );
        assert!(self.sizes[i] > 0, "shard {i} is empty");
        let total = self.total_size() as f32;
        let rest = self.checkpoint_without(i);
        let scale = total / self.sizes[i] as f32;
        new_local
            .iter()
            .zip(rest.iter())
            .map(|(&new, &r)| scale * (new - r))
            .collect()
    }
}

/// A client whose local data and model are sharded (Fig 2): each shard owns
/// a model trained only on that shard's data; the client's local model is
/// the Eq 8 aggregate. Deletion requests retrain only the affected shards
/// (Fig 3).
pub struct ShardedClient {
    shards: Vec<Dataset>,
    model: ShardedLocalModel,
    factory: ModelFactory,
    cfg: TrainConfig,
}

impl std::fmt::Debug for ShardedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedClient(τ={}, sizes={:?})",
            self.shards.len(),
            self.model.sizes()
        )
    }
}

/// Retrains one shard from its Eq 9 restart checkpoint on the surviving
/// shard data — the single primitive behind [`ShardedClient::delete_samples`]
/// and the serve layer's shard-granular drain, so both paths are bitwise
/// identical by construction. An all-zero checkpoint (the degenerate τ = 1
/// case, where the Eq 9 sum over the *other* shards is empty) falls back to
/// the factory's fresh initialisation instead of a zero saddle.
pub fn retrain_shard(
    factory: &ModelFactory,
    cfg: &TrainConfig,
    checkpoint: &[f32],
    survived: &Dataset,
    seed: u64,
) -> Vec<f32> {
    let mut net = (factory)(seed);
    if checkpoint.iter().any(|&v| v != 0.0) {
        net.set_state_vector(checkpoint);
    }
    train_local_ce(&mut net, survived, cfg, seed);
    net.state_vector()
}

/// Which shards a deletion touched, and how.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeletionImpact {
    /// Shards that lost *some* samples and must be retrained (Fig 3).
    pub partial: Vec<usize>,
    /// Shards whose data was deleted entirely (dropped outright).
    pub emptied: Vec<usize>,
}

impl ShardedClient {
    /// Shards `data` into `tau` pieces. Every shard model starts from the
    /// *same* initial state (so the Eq 8 weighted average is meaningful,
    /// exactly as FedAvg requires a common initialisation).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero or exceeds the dataset size.
    pub fn new(
        data: &Dataset,
        tau: usize,
        factory: ModelFactory,
        cfg: TrainConfig,
        seed: u64,
    ) -> Self {
        assert!(tau > 0, "need at least one shard");
        assert!(
            tau <= data.len(),
            "more shards ({tau}) than samples ({})",
            data.len()
        );
        let indices: Vec<usize> = (0..data.len()).collect();
        let parts = partition::shards(&indices, tau);
        let shards: Vec<Dataset> = parts.iter().map(|p| data.subset(p)).collect();
        let init = (factory)(seed).state_vector();
        let states: Vec<Vec<f32>> = vec![init; tau];
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        ShardedClient {
            shards,
            model: ShardedLocalModel::new(states, sizes),
            factory,
            cfg,
        }
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard-state arithmetic view.
    pub fn model(&self) -> &ShardedLocalModel {
        &self.model
    }

    /// Total samples across shards.
    #[cfg(test)]
    pub(crate) fn num_samples(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Eq 8 aggregate — the client's current local model state.
    pub fn local_state(&self) -> Vec<f32> {
        self.model.aggregate()
    }

    /// Trains every shard model for one round of local epochs on its own
    /// shard data, starting from the client's current Eq 8 aggregate
    /// (FedAvg-within-the-client, per Fig 2). Shards run in parallel, in
    /// waves of one shard per pool thread on [`Lanes`], each lane's
    /// result written straight over its shard's state.
    pub fn train_round(&mut self, seed: u64) {
        let (factory, cfg, shards) = (&self.factory, &self.cfg, &self.shards);
        let base = self.model.aggregate();
        Lanes::new(None).waves(
            &mut self.model.states,
            |i, lane, state| {
                let shard_seed = seed.wrapping_add((i as u64) << 24);
                lane.train(factory, &base, &shards[i], cfg, shard_seed, state);
            },
            |_, _, _| {},
        );
    }

    /// Deletes the samples at `global_indices` (indices into the client's
    /// original dataset ordering mapped round-robin to shards, i.e. sample
    /// `g` lives in shard `g % τ`). Affected shards are either dropped
    /// (fully emptied) or retrained **from re-initialisation on the
    /// surviving shard data only**, exactly as Fig 3 prescribes; untouched
    /// shards keep their trained models (the Eq 9 checkpoint effect).
    ///
    /// Affected shards retrain **concurrently** on the shared compute
    /// pool (`goldfish_fed::pool`), the scaling lever of shard-level
    /// unlearning: every Eq 9 restart checkpoint is computed up front
    /// from the deletion-time shard states, so the retrains are
    /// independent and the outcome is bitwise identical at every thread
    /// count. (The earlier serial implementation threaded each
    /// retrained shard's state into the *next* shard's checkpoint — an
    /// ordering artifact of the loop, not Eq 9, which defines every
    /// checkpoint against the states held when the deletion request
    /// arrived.)
    ///
    /// Returns which shards were touched.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range of the original ordering.
    pub fn delete_samples(&mut self, global_indices: &[usize], seed: u64) -> DeletionImpact {
        let tau = self.shards.len();
        // Map global (original-order) indices to (shard, within-shard row).
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); tau];
        for &g in global_indices {
            let shard = g % tau;
            let row = g / tau;
            assert!(
                row < self.shards[shard].len(),
                "sample {g} out of range for shard {shard}"
            );
            per_shard[shard].push(row);
        }
        let mut impact = DeletionImpact {
            partial: Vec::new(),
            emptied: Vec::new(),
        };
        for (i, rows) in per_shard.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            if rows.len() >= self.shards[i].len() {
                impact.emptied.push(i);
            } else {
                impact.partial.push(i);
            }
        }
        // Drop fully-emptied shards (highest index first to keep indices valid).
        for &i in impact.emptied.iter().rev() {
            if self.shards.len() > 1 {
                self.shards.remove(i);
                self.model.remove_shard(i);
            } else {
                // Last shard: keep an empty dataset and a fresh model.
                let empty = Dataset::empty(self.shards[i].sample_shape(), self.shards[i].classes());
                self.shards[i] = empty;
                let fresh = (self.factory)(seed).state_vector();
                self.model.set_shard(i, fresh, 0);
            }
        }
        // Shift partial indices to account for removed shards.
        let shift = |i: usize| i - impact.emptied.iter().filter(|&&e| e < i).count();
        let partial_shifted: Vec<usize> = impact.partial.iter().map(|&i| shift(i)).collect();
        // Retrain partially-affected shards on their surviving data,
        // starting from the Eq 9 checkpoint (the weighted sum of the
        // *other* shards) instead of re-initialising — this is the paper's
        // retraining-time saving. With a single shard (τ = 1) the Eq 9 sum
        // is empty — an all-zero state is a degenerate saddle for a neural
        // network — so the non-sharded case falls back to a fresh
        // re-initialisation, exactly the slow path sharding is meant to
        // avoid (Fig 7a).
        //
        // Stage every retrain job up front (surviving rows, checkpoint,
        // seed) from the deletion-time states, then run them in parallel
        // on the shared pool: each job writes only its own slot, so the
        // result never depends on the thread count.
        struct RetrainJob {
            shard: usize,
            survived: Dataset,
            checkpoint: Vec<f32>,
            seed: u64,
        }
        let jobs: Vec<RetrainJob> = impact
            .partial
            .iter()
            .zip(partial_shifted.iter())
            .map(|(&orig, &i)| {
                let rows = &per_shard[orig];
                let keep: Vec<usize> = (0..self.shards[i].len())
                    .filter(|r| !rows.contains(r))
                    .collect();
                RetrainJob {
                    shard: i,
                    survived: self.shards[i].subset(&keep),
                    checkpoint: self.model.checkpoint_without(i),
                    seed: seed.wrapping_add((i as u64) << 16).wrapping_add(1),
                }
            })
            .collect();
        let mut states: Vec<Option<Vec<f32>>> = vec![None; jobs.len()];
        let (factory, cfg, jobs_ref) = (&self.factory, &self.cfg, &jobs);
        goldfish_fed::pool::for_each_slot(&mut states, |j, slot| {
            let job = &jobs_ref[j];
            *slot = Some(retrain_shard(
                factory,
                cfg,
                &job.checkpoint,
                &job.survived,
                job.seed,
            ));
        });
        for (job, state) in jobs.into_iter().zip(states) {
            let state = state.expect("missing retrained shard state");
            self.model.set_shard(job.shard, state, job.survived.len());
            self.shards[job.shard] = job.survived;
        }
        impact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_nn::zoo;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn early_termination_waits_for_convergence() {
        let mut et = EarlyTermination::new(0.05, 0.5);
        assert_eq!(et.excess_risk(), f32::INFINITY);
        assert!(!et.observe(2.0)); // mean 2.0, err 1.5
        assert!(!et.observe(0.4)); // mean 1.2, err 0.7
        assert!(!et.observe(0.1)); // mean ~0.833, err 0.333
        assert!(et.observe(-0.43)); // mean ~0.5175, err 0.0175 ≤ 0.05
    }

    #[test]
    fn early_termination_delta_zero_requires_exact() {
        let mut et = EarlyTermination::new(0.0, 1.0);
        assert!(et.observe(1.0));
    }

    #[test]
    #[should_panic(expected = "delta must be non-negative")]
    fn early_termination_rejects_negative_delta() {
        let _ = EarlyTermination::new(-0.1, 0.0);
    }

    fn toy_sharded() -> ShardedLocalModel {
        ShardedLocalModel::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![10, 20, 30],
        )
    }

    #[test]
    fn eq8_weighted_aggregate() {
        let m = toy_sharded();
        let agg = m.aggregate();
        // (10*1 + 20*3 + 30*5)/60 = 220/60; (10*2+20*4+30*6)/60 = 280/60
        assert!((agg[0] - 220.0 / 60.0).abs() < 1e-6);
        assert!((agg[1] - 280.0 / 60.0).abs() < 1e-6);
    }

    #[test]
    fn eq9_checkpoint_excludes_shard() {
        let m = toy_sharded();
        let cp = m.checkpoint_without(1);
        // (10*1 + 30*5)/60 ; (10*2 + 30*6)/60
        assert!((cp[0] - 160.0 / 60.0).abs() < 1e-6);
        assert!((cp[1] - 200.0 / 60.0).abs() < 1e-6);
    }

    #[test]
    fn eq10_recovers_shard_exactly() {
        // recover(i, aggregate()) must reproduce shard i's stored weights.
        let m = toy_sharded();
        let agg = m.aggregate();
        for i in 0..3 {
            let rec = m.recover_shard_weights(i, &agg);
            for (r, s) in rec.iter().zip(m.shard_state(i)) {
                assert!((r - s).abs() < 1e-4, "shard {i}: {r} vs {s}");
            }
        }
    }

    #[test]
    fn checkpoint_plus_weighted_shard_is_aggregate() {
        let m = toy_sharded();
        let total = m.total_size() as f32;
        for i in 0..3 {
            let cp = m.checkpoint_without(i);
            let w = m.sizes()[i] as f32 / total;
            let agg = m.aggregate();
            for ((c, s), a) in cp.iter().zip(m.shard_state(i)).zip(agg.iter()) {
                assert!((c + w * s - a).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn remove_shard_shrinks() {
        let mut m = toy_sharded();
        m.remove_shard(0);
        assert_eq!(m.num_shards(), 2);
        assert_eq!(m.total_size(), 50);
    }

    fn client_fixture(tau: usize) -> (ShardedClient, Dataset) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (train, test) = synthetic::generate(&spec, 120, 60, 5);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[16], 10, &mut rng)
        });
        let cfg = TrainConfig {
            local_epochs: 3,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
        };
        (ShardedClient::new(&train, tau, factory, cfg, 0), test)
    }

    #[test]
    fn sharded_training_learns() {
        let (mut client, test) = client_fixture(3);
        for round in 0..8 {
            client.train_round(round);
        }
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[16], 10, &mut rng)
        });
        let mut net = (factory)(0);
        net.set_state_vector(&client.local_state());
        let acc = goldfish_fed::eval::accuracy(&mut net, &test);
        // 10-class task on 120 tiny images split over 3 shards: well above
        // the 0.1 chance level is what matters.
        assert!(acc > 0.4, "sharded client accuracy {acc}");
    }

    #[test]
    fn deletion_touches_only_affected_shards() {
        let (mut client, _) = client_fixture(4);
        client.train_round(0);
        let untouched_before: Vec<Vec<f32>> = (0..4)
            .map(|i| client.model().shard_state(i).to_vec())
            .collect();
        // Delete three samples all living in shard 1 (indices ≡ 1 mod 4).
        let impact = client.delete_samples(&[1, 5, 9], 7);
        assert_eq!(impact.partial, vec![1]);
        assert!(impact.emptied.is_empty());
        // Other shards' models unchanged.
        for &i in &[0usize, 2, 3] {
            assert_eq!(client.model().shard_state(i), &untouched_before[i][..]);
        }
        assert_eq!(client.num_samples(), 117);
    }

    #[test]
    fn single_shard_partial_deletion_reinitialises() {
        // τ = 1: the Eq 9 checkpoint is empty; retraining must fall back to
        // a fresh initialisation, never the all-zero degenerate state.
        let (mut client, _) = client_fixture(1);
        client.train_round(0);
        let impact = client.delete_samples(&[0, 1, 2], 5);
        assert_eq!(impact.partial, vec![0]);
        let state = client.local_state();
        assert!(
            state.iter().any(|&v| v != 0.0),
            "single-shard retrain produced an all-zero model"
        );
        assert_eq!(client.num_samples(), 117);
    }

    #[test]
    fn deleting_a_whole_shard_drops_it() {
        let (mut client, _) = client_fixture(3);
        client.train_round(0);
        // Shard 2 holds indices {2, 5, 8, …} — delete all of them.
        let all_of_shard_2: Vec<usize> = (0..120).filter(|g| g % 3 == 2).collect();
        let impact = client.delete_samples(&all_of_shard_2, 3);
        assert_eq!(impact.emptied, vec![2]);
        assert_eq!(client.num_shards(), 2);
        assert_eq!(client.num_samples(), 80);
    }
}
