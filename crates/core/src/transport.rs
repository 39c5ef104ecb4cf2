//! The transport abstraction of the Goldfish unlearning round loop.
//!
//! Mirrors `goldfish_fed::transport` for the *distillation* rounds of
//! Algorithm 1: [`DistillTransport`] is the server-side contract ("ship
//! the unlearning job, then run distillation rounds"), [`ClientDistiller`]
//! is the per-client worker state machine factored out of the pre-refactor
//! [`crate::method::UnlearningMethod::unlearn`] round loop of
//! [`crate::unlearner::GoldfishUnlearning`] (student
//! network with warm arenas + cross-round teacher-logit cache, DESIGN.md
//! §9), and [`LoopbackDistill`] runs the distillers in-process on the
//! shared pool — exactly the execution the old loop performed, pinned
//! bitwise by `tests/unlearn_identity.rs`.
//!
//! The networked implementation (`goldfish-serve`) runs one
//! [`ClientDistiller`] inside each remote worker daemon, which is what
//! makes a TCP unlearning request bitwise identical to the in-process run:
//! both transports execute this exact code against byte-identical inputs
//! (the wire format round-trips `f32`s losslessly).

use std::sync::Arc;

use goldfish_fed::aggregate::ClientUpdate;
use goldfish_fed::transport::{
    client_seed, round_nonce, StreamedUpdate, TransportError, UpdateSink,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::loss::{HardLoss, HardLossSpec};
use goldfish_nn::Network;

use crate::basic_model::{
    network_from_state, reference_loss, train_distill_cached, GoldfishLocalConfig, TeacherCache,
};
use crate::loss::GoldfishLoss;
use crate::method::ClientSplit;

/// Everything a worker needs to execute one unlearning request: the local
/// retraining configuration and the (wire-encodable) hard loss. Shipped
/// once per request by [`DistillTransport::begin_unlearn`]; the frozen
/// teacher state travels alongside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnlearnJob {
    /// Per-client local retraining configuration.
    pub local: GoldfishLocalConfig,
    /// The hard loss, by spec. `None` when the method uses a custom
    /// (non-built-in) loss — in-process transports fall back to the
    /// method's own trait object; wire transports must reject the job.
    pub hard: Option<HardLossSpec>,
}

/// Server-side transport contract for the unlearning flow: deliver the
/// job + teacher to every live client, then stream distillation-round
/// updates exactly like [`goldfish_fed::transport::RoundTransport`]
/// streams training-round updates.
pub trait DistillTransport {
    /// Number of currently live clients.
    fn num_clients(&self) -> usize;

    /// Ships the unlearning job and the frozen teacher state; workers
    /// (re)build their per-request distillation state.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveClients`] when nobody can take the job, or
    /// a per-client error when the job itself is undeliverable (e.g. a
    /// custom loss over a wire transport).
    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError>;

    /// Runs one distillation round over every live client. Same contract
    /// as [`goldfish_fed::transport::RoundTransport::train_round`] with
    /// the live set as the cohort: each delivered update is fed to `sink`
    /// as it arrives, echoing the round's
    /// [`goldfish_fed::transport::round_nonce`]`(seed, round)`; `results`
    /// (cleared first) gets one entry per contacted client, stragglers
    /// and sink rejections as errors.
    fn distill_round(
        &mut self,
        round: usize,
        seed: u64,
        global: &[f32],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    );
}

/// One client's worker state across the rounds of an unlearning request:
/// the student network (arenas stay warm; parameters are overwritten from
/// the incoming global every round) and the teacher-logit cache (the
/// teacher is the frozen pre-deletion global, so its logits over the
/// client's remaining data are materialised once per request).
pub struct ClientDistiller {
    id: usize,
    factory: ModelFactory,
    split: ClientSplit,
    teacher_state: Vec<f32>,
    local: GoldfishLocalConfig,
    loss: GoldfishLoss,
    student: Option<Network>,
    cache: Option<TeacherCache>,
}

impl ClientDistiller {
    /// Sets up the worker state for one request.
    pub fn new(
        id: usize,
        factory: ModelFactory,
        split: ClientSplit,
        teacher_state: Vec<f32>,
        local: GoldfishLocalConfig,
        hard: Arc<dyn HardLoss>,
    ) -> Self {
        let loss = GoldfishLoss::new(hard, local.weights);
        ClientDistiller {
            id,
            factory,
            split,
            teacher_state,
            local,
            loss,
            student: None,
            cache: None,
        }
    }

    /// This distiller's client id.
    pub fn client_id(&self) -> usize {
        self.id
    }

    /// Samples remaining after the deletion — the update's FedAvg weight.
    pub fn num_samples(&self) -> usize {
        self.split.remaining.len()
    }

    /// Runs one local distillation round from the incoming global state
    /// and returns the client's upload. Bitwise identical to the body of
    /// the pre-refactor round loop (`server_mse` is left `None`; the
    /// server evaluates uploads itself).
    pub fn round(&mut self, incoming: &[f32], round: usize, base_seed: u64) -> ClientUpdate {
        let seed = client_seed(base_seed, self.id, round);
        let split = &self.split;
        let student = self.student.get_or_insert_with(|| (self.factory)(seed));
        student.set_state_vector(incoming);
        let cache = self.cache.get_or_insert_with(|| {
            if self.local.weights.mu_d > 0.0 {
                let teacher = network_from_state(&self.factory, &self.teacher_state, seed);
                TeacherCache::build(teacher, &split.remaining, self.local.batch_size)
            } else {
                TeacherCache::empty()
            }
        });

        // Eq 7 reference: the empirical risk of the previous global
        // model. On the first unlearning round the incoming global is
        // freshly reinitialised (uninformative), so the teacher (the
        // pre-deletion global) provides the floor.
        let reference = if self.local.early_termination.is_some() {
            let mut teacher = network_from_state(&self.factory, &self.teacher_state, seed);
            let teacher_ref =
                reference_loss(&mut teacher, &split.remaining, &split.forget, &self.loss);
            let mut incoming_net = network_from_state(&self.factory, incoming, seed);
            let incoming_ref = reference_loss(
                &mut incoming_net,
                &split.remaining,
                &split.forget,
                &self.loss,
            );
            Some(teacher_ref.min(incoming_ref))
        } else {
            None
        };

        train_distill_cached(
            student,
            cache,
            &split.remaining,
            &split.forget,
            &self.loss,
            &self.local,
            reference,
            seed,
        );
        ClientUpdate {
            client_id: self.id,
            state: student.state_vector(),
            num_samples: split.remaining.len(),
            server_mse: None,
        }
    }
}

impl std::fmt::Debug for ClientDistiller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ClientDistiller(client {}, {} remaining, {} forget)",
            self.id,
            self.split.remaining.len(),
            self.split.forget.len()
        )
    }
}

/// The in-process [`DistillTransport`]: one [`ClientDistiller`] per client
/// split, run in parallel on the shared compute pool — exactly the
/// pre-refactor execution of `GoldfishUnlearning::unlearn`.
///
/// Never produces stragglers.
pub struct LoopbackDistill {
    factory: ModelFactory,
    /// The client id each split belongs to (its position by default).
    ids: Vec<usize>,
    splits: Vec<ClientSplit>,
    hard: Arc<dyn HardLoss>,
    threads: Option<usize>,
    distillers: Vec<ClientDistiller>,
}

impl LoopbackDistill {
    /// Wraps the given client splits as an in-process transport. `hard`
    /// is the method's hard loss: for built-in losses it matches the
    /// [`UnlearnJob`]'s spec; custom losses only exist in-process, and
    /// this trait object is what keeps them runnable here.
    pub fn new(
        factory: ModelFactory,
        splits: Vec<ClientSplit>,
        hard: Arc<dyn HardLoss>,
        threads: Option<usize>,
    ) -> Self {
        LoopbackDistill {
            factory,
            ids: (0..splits.len()).collect(),
            splits,
            hard,
            threads,
            distillers: Vec::new(),
        }
    }

    /// Names the client each split belongs to, for a host whose live
    /// set has gaps (`ids[i]` owns `splits[i]`; ascending). Seeds and
    /// uploads are keyed by these ids, so a client distils the same bits
    /// whoever else takes part.
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not name every split.
    pub fn with_client_ids(mut self, ids: Vec<usize>) -> Self {
        assert_eq!(ids.len(), self.splits.len(), "one id per client split");
        self.ids = ids;
        self
    }
}

impl DistillTransport for LoopbackDistill {
    fn num_clients(&self) -> usize {
        self.splits.len()
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        if self.splits.is_empty() {
            return Err(TransportError::NoLiveClients);
        }
        // Built-in losses rebuild from the spec (what a remote worker
        // does); custom losses use the trait object handed to `new`.
        let hard = match job.hard {
            Some(spec) => spec.build(),
            None => Arc::clone(&self.hard),
        };
        self.distillers = self
            .ids
            .iter()
            .zip(&self.splits)
            .map(|(&id, split)| {
                ClientDistiller::new(
                    id,
                    Arc::clone(&self.factory),
                    split.clone(),
                    teacher.to_vec(),
                    job.local,
                    Arc::clone(&hard),
                )
            })
            .collect();
        Ok(())
    }

    fn distill_round(
        &mut self,
        round: usize,
        seed: u64,
        global: &[f32],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        assert!(
            !self.distillers.is_empty(),
            "distill_round before begin_unlearn"
        );
        let mut updates: Vec<Option<ClientUpdate>> =
            (0..self.distillers.len()).map(|_| None).collect();
        let distillers = &mut self.distillers;
        goldfish_fed::pool::install(self.threads, || {
            let mut slots: Vec<(&mut ClientDistiller, &mut Option<ClientUpdate>)> =
                distillers.iter_mut().zip(updates.iter_mut()).collect();
            goldfish_fed::pool::for_each_slot(&mut slots, |_, (distiller, slot)| {
                **slot = Some(distiller.round(global, round, seed));
            });
        });
        let nonce = round_nonce(seed, round);
        results.clear();
        results.extend(updates.into_iter().map(|u| {
            let u = u.expect("missing loopback distill update");
            sink(StreamedUpdate {
                client_id: u.client_id,
                num_samples: u.num_samples,
                nonce,
                state: &u.state,
            })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_fed::transport::collect_round;
    use goldfish_nn::loss::CrossEntropy;
    use goldfish_nn::zoo;
    use rand::{rngs::StdRng, SeedableRng};

    fn fixture() -> (ModelFactory, Vec<ClientSplit>, Vec<f32>) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (train, _) = synthetic::generate(&spec, 80, 20, 3);
        let (c0, c1) = train.split_at(40);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[12], 10, &mut rng)
        });
        let teacher = (factory)(9).state_vector();
        let splits = vec![
            ClientSplit::with_removed(&c0, &[0, 1, 2]),
            ClientSplit::intact(c1),
        ];
        (factory, splits, teacher)
    }

    fn job() -> UnlearnJob {
        UnlearnJob {
            local: GoldfishLocalConfig {
                epochs: 1,
                batch_size: 10,
                ..GoldfishLocalConfig::default()
            },
            hard: Some(HardLossSpec::CrossEntropy),
        }
    }

    #[test]
    fn loopback_matches_standalone_distillers() {
        let (factory, splits, teacher) = fixture();
        let global = (factory)(17).state_vector();
        let mut lb = LoopbackDistill::new(
            Arc::clone(&factory),
            splits.clone(),
            Arc::new(CrossEntropy),
            Some(2),
        );
        lb.begin_unlearn(&job(), &teacher).unwrap();
        let got = collect_round(round_nonce(5, 0), |sink, results| {
            lb.distill_round(0, 5, &global, sink, results);
            lb.num_clients()
        })
        .unwrap();
        assert_eq!(got.len(), 2);
        for (id, u) in got.into_iter().enumerate() {
            assert_eq!(u.client_id, id);
            let mut lone = ClientDistiller::new(
                id,
                Arc::clone(&factory),
                splits[id].clone(),
                teacher.clone(),
                job().local,
                Arc::new(CrossEntropy),
            );
            assert_eq!(lone.round(&global, 0, 5).state, u.state);
        }
    }

    #[test]
    fn distiller_state_persists_across_rounds() {
        let (factory, splits, teacher) = fixture();
        let global = (factory)(17).state_vector();
        let mut d = ClientDistiller::new(
            0,
            Arc::clone(&factory),
            splits[0].clone(),
            teacher,
            job().local,
            Arc::new(CrossEntropy),
        );
        assert_eq!(d.num_samples(), 37);
        assert_eq!(d.client_id(), 0);
        let u0 = d.round(&global, 0, 5);
        let u1 = d.round(&u0.state, 1, 5);
        assert_ne!(u0.state, u1.state);
    }

    #[test]
    fn begin_unlearn_requires_clients() {
        let (factory, _, teacher) = fixture();
        let mut lb = LoopbackDistill::new(factory, Vec::new(), Arc::new(CrossEntropy), None);
        assert_eq!(
            lb.begin_unlearn(&job(), &teacher),
            Err(TransportError::NoLiveClients)
        );
    }
}
