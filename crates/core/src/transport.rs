//! The transport abstraction of the Goldfish unlearning round loop.
//!
//! Extends `goldfish_fed::transport` to the *distillation* rounds of
//! Algorithm 1, which are ordinary rounds whose assignment names
//! [`goldfish_fed::transport::RoundMode::Distill`]: [`DistillTransport`]
//! is a [`RoundTransport`] that also takes an unlearning request ("ship
//! the job and the teacher", after which its distillation rounds run
//! like any other round), [`DistillJob`] is
//! what every client of one request shares (teacher state, local
//! configuration, composite loss), [`ClientDistiller`] is the one
//! client's own state (its cross-round teacher-logit cache, DESIGN.md
//! §9), and [`LoopbackDistill`] runs the distillers in-process: it is
//! `goldfish_fed`'s one in-process executor,
//! [`goldfish_fed::transport::LoopbackClients`], plus one request's
//! distillation state. The library's
//! [`crate::unlearner::GoldfishUnlearning`] borrows its client splits
//! into one; the serve loopback owns one over its clients' rows — so
//! library and serving distil through the same code by construction
//! (`tests/unlearn_identity.rs` pins the bits).
//!
//! A distiller holds no rows either. Each round borrows its client's
//! [`ClientRows`] store, the one holder of the live rows and of the
//! request's forget rows: in-process the executor lends it, in a worker
//! the worker's own store. A training round empties the forget rows
//! ([`ClientRows::commit`]), so nothing outlives the request's drain.
//!
//! A distiller owns no network: each round runs on a
//! [`goldfish_fed::trainer::TrainLane`] lent by whoever executes it —
//! one per pool thread in-process, one per worker connection or fleet
//! host remotely — whose network is the student and whose spare network
//! is the teacher. Resident distillation memory therefore follows the
//! threads running, not the clients taking part.
//!
//! The networked implementation (`goldfish-serve`) runs one
//! [`ClientDistiller`] inside each remote worker daemon, which is what
//! makes a TCP unlearning request bitwise identical to the in-process run:
//! both transports execute this exact code against byte-identical inputs
//! (the wire format round-trips `f32`s losslessly).

use std::sync::Arc;

use goldfish_data::Dataset;
use goldfish_fed::rows::ClientRows;
use goldfish_fed::trainer::{Lanes, TrainLane};
use goldfish_fed::transport::{
    client_seed, LoopbackClients, RoundMode, RoundTransport, TrainAssign, TransportError,
    UpdateSink,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::loss::{HardLoss, HardLossSpec};

use crate::basic_model::{reference_loss, train_distill_hot, GoldfishLocalConfig, TeacherCache};
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

/// Server-side transport contract for the unlearning flow: a
/// [`RoundTransport`] that can also take an unlearning request. Once
/// [`DistillTransport::begin_unlearn`] has delivered the job and the
/// teacher, a round whose assignment names
/// [`goldfish_fed::transport::RoundMode::Distill`] is a distillation
/// round of that request — the same [`RoundTransport::train_round`], on
/// the same [`goldfish_fed::transport::RoundRuntime`], as a training
/// round.
pub trait DistillTransport: RoundTransport {
    /// Number of currently live clients: the length of
    /// [`RoundTransport::cohort_into`]'s registry.
    fn num_clients(&self) -> usize {
        let mut live = Vec::new();
        self.cohort_into(&mut live);
        live.len()
    }

    /// Ships the unlearning job and the frozen teacher state; workers
    /// (re)build their per-request distillation state. Afterwards each
    /// live client's registered sample count is its remaining-data
    /// count — its distillation upload's FedAvg weight.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveClients`] when nobody can take the job, or
    /// a per-client error when the job itself is undeliverable (e.g. a
    /// custom loss over a wire transport).
    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError>;
}

/// An [`UnlearnJob`] made runnable: what every client's run of one
/// unlearning request shares — the architecture, the frozen teacher
/// state (the pre-deletion global), the local configuration and the
/// composite loss. An executor builds one per request, not one per
/// client.
pub struct DistillJob {
    factory: ModelFactory,
    teacher: Vec<f32>,
    local: GoldfishLocalConfig,
    loss: GoldfishLoss,
}

impl DistillJob {
    /// The job of one request.
    pub fn new(
        factory: ModelFactory,
        teacher: Vec<f32>,
        local: GoldfishLocalConfig,
        hard: Arc<dyn HardLoss>,
    ) -> Self {
        let loss = GoldfishLoss::new(hard, local.weights);
        DistillJob {
            factory,
            teacher,
            local,
            loss,
        }
    }
}

impl std::fmt::Debug for DistillJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DistillJob({} teacher params)", self.teacher.len())
    }
}

/// One client's own state across the rounds of an unlearning request:
/// its id and its teacher-logit cache (the teacher is the frozen
/// pre-deletion global, so its logits over the client's remaining data
/// are materialised once per request). Everything else a round needs is
/// borrowed: the shared [`DistillJob`], the client's rows from the store
/// that holds them, and the networks and workspaces of the
/// [`TrainLane`] the round runs on.
#[derive(Debug)]
pub struct ClientDistiller {
    id: usize,
    cache: Option<TeacherCache>,
}

impl ClientDistiller {
    /// A client's state before its first round.
    pub fn new(id: usize) -> Self {
        ClientDistiller { id, cache: None }
    }

    /// Runs one local distillation round from the incoming global state
    /// on `lane`, over the live rows and the forget rows `rows` lends:
    /// the lane's network is the student, and its spare
    /// network, holding the teacher's state, builds the logit cache on
    /// the first round and is lent to the cache for the short-batch
    /// fallback. The trained student stays on the lane —
    /// [`TrainLane::state_into`] exports the client's upload, whose
    /// FedAvg weight is the live row count. Bitwise the round of a
    /// student and a teacher built for this client alone: a lane carries
    /// capacity, never state.
    pub fn round(
        &mut self,
        job: &DistillJob,
        rows: &ClientRows<'_>,
        lane: &mut TrainLane,
        incoming: &[f32],
        round: usize,
        base_seed: u64,
    ) {
        let (remaining, forget) = (rows.live(), rows.forget());
        let seed = client_seed(base_seed, self.id, round);
        let distilling = job.local.weights.mu_d > 0.0;
        let (student, spare, sgd, gathers) = lane.networks(&job.factory);
        student.set_state_vector(incoming);
        if distilling || job.local.early_termination.is_some() {
            spare
                .get_or_insert_with(|| (job.factory)(0))
                .set_state_vector(&job.teacher);
        }
        let cache = self.cache.get_or_insert_with(|| match spare.as_mut() {
            Some(teacher) if distilling => {
                TeacherCache::build_with(teacher, remaining, job.local.batch_size)
            }
            _ => TeacherCache::empty(),
        });

        // Eq 7 reference: the empirical risk of the previous global
        // model. On the first unlearning round the incoming global is
        // freshly reinitialised (uninformative), so the teacher (the
        // pre-deletion global) provides the floor. Both are evaluated in
        // eval mode, which changes neither network.
        let reference = match spare.as_mut() {
            Some(teacher) if job.local.early_termination.is_some() => {
                let teacher_ref = reference_loss(teacher, remaining, forget, &job.loss);
                let incoming_ref = reference_loss(student, remaining, forget, &job.loss);
                Some(teacher_ref.min(incoming_ref))
            }
            _ => None,
        };

        if distilling {
            cache.lend_teacher(spare.take().expect("teacher built above"));
        }
        train_distill_hot(
            student, cache, remaining, forget, &job.loss, &job.local, reference, seed, sgd, gathers,
        );
        if distilling {
            *spare = cache.take_teacher();
        }
    }
}

/// The in-process [`DistillTransport`]: the in-process executor,
/// [`LoopbackClients`], plus one request's distillation state — its
/// [`DistillJob`] and one [`ClientDistiller`] per client live at
/// `begin_unlearn`. Each distillation round is one
/// [`LoopbackClients::feed_waves`] over the cohort's distillers, each
/// reading its client's store, on the executor's own lanes: one student
/// and one teacher network per pool thread, not per client.
///
/// Never produces stragglers.
pub struct LoopbackDistill<'a> {
    clients: LoopbackClients<'a>,
    /// The custom-loss fallback (see [`LoopbackDistill::new`]).
    hard: Option<Arc<dyn HardLoss>>,
    job: Option<DistillJob>,
    distillers: Vec<ClientDistiller>,
}

impl<'a> LoopbackDistill<'a> {
    /// Borrows the given client splits (client `id` is the `id`-th):
    /// each distils on its remaining rows and forgets its forget rows.
    /// `hard` is the method's hard loss: for built-in losses it matches
    /// the [`UnlearnJob`]'s spec; custom losses only exist in-process,
    /// and this trait object is what keeps them runnable here.
    pub(crate) fn new(
        factory: ModelFactory,
        splits: &'a [ClientSplit],
        hard: Arc<dyn HardLoss>,
        threads: Option<usize>,
    ) -> Self {
        let rows = splits
            .iter()
            .map(|s| ClientRows::lending(&s.remaining, &s.forget));
        LoopbackDistill {
            clients: LoopbackClients::new(&factory, rows, threads),
            hard: Some(hard),
            job: None,
            distillers: Vec::new(),
        }
    }

    /// Owns the given client datasets, which forget the rows
    /// [`LoopbackClients::remove_rows`] takes. There is no custom-loss
    /// fallback: a job without a built-in loss is
    /// [`TransportError::Unsupported`], as on a wire transport.
    pub fn owning(
        factory: ModelFactory,
        clients: Vec<Dataset>,
        threads: Option<usize>,
    ) -> LoopbackDistill<'static> {
        LoopbackDistill {
            clients: LoopbackClients::new(&factory, clients, threads),
            hard: None,
            job: None,
            distillers: Vec::new(),
        }
    }

    /// The executor the rounds run on.
    pub fn clients(&self) -> &LoopbackClients<'a> {
        &self.clients
    }

    /// The executor, for training rounds, evaluation and row removal.
    pub fn clients_mut(&mut self) -> &mut LoopbackClients<'a> {
        &mut self.clients
    }
}

impl RoundTransport for LoopbackDistill<'_> {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.clients.cohort_into(out)
    }

    /// A training round runs on the executor; a distillation round is
    /// one [`LoopbackClients::feed_waves`] over the cohort's distillers.
    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        if assign.mode == RoundMode::Train {
            return self.clients.train_round(assign, cohort, sink, results);
        }
        let job = self
            .job
            .as_ref()
            .expect("a distillation round before begin_unlearn");
        let mut members: Vec<&mut ClientDistiller> = self
            .distillers
            .iter_mut()
            .filter(|d| cohort.binary_search_by_key(&d.id, |&(id, _)| id).is_ok())
            .collect();
        let TrainAssign { global, round, .. } = *assign;
        self.clients.feed_waves(
            &mut members,
            |_, distiller| distiller.id,
            assign.nonce,
            |_, rows, lane, distiller| distiller.round(job, rows, lane, global, round, assign.seed),
            sink,
            results,
        );
    }

    fn quarantine(&mut self, client_id: usize) -> bool {
        self.clients.quarantine(client_id)
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        self.clients.lanes()
    }
}

impl DistillTransport for LoopbackDistill<'_> {
    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        let mut live = Vec::new();
        self.clients.cohort_into(&mut live);
        if live.is_empty() {
            return Err(TransportError::NoLiveClients);
        }
        // Built-in losses rebuild from the spec (what a remote worker
        // does); custom losses use the fallback handed to `new`.
        let hard = match (job.hard, &self.hard) {
            (Some(spec), _) => spec.build(),
            (None, Some(hard)) => Arc::clone(hard),
            (None, None) => {
                return Err(TransportError::Unsupported {
                    reason: "custom hard losses cannot be shipped to workers".into(),
                })
            }
        };
        let factory = Arc::clone(self.clients.factory());
        self.job = Some(DistillJob::new(factory, teacher.to_vec(), job.local, hard));
        self.distillers = live
            .iter()
            .map(|&(id, _)| ClientDistiller::new(id))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_fed::transport::round_nonce;
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

    /// A client's round alone: a fresh lane, a fresh distiller.
    fn lone_round(
        factory: &ModelFactory,
        split: &ClientSplit,
        teacher: &[f32],
        id: usize,
        global: &[f32],
    ) -> Vec<f32> {
        let job = DistillJob::new(
            Arc::clone(factory),
            teacher.to_vec(),
            job().local,
            Arc::new(CrossEntropy),
        );
        let mut lane = TrainLane::new();
        let rows = ClientRows::lending(&split.remaining, &split.forget);
        ClientDistiller::new(id).round(&job, &rows, &mut lane, global, 0, 5);
        let mut out = Vec::new();
        lane.state_into(&mut out);
        out
    }

    #[test]
    fn loopback_matches_standalone_distillers() {
        let (factory, splits, teacher) = fixture();
        let global = (factory)(17).state_vector();
        // One thread: both clients share one lane, in turn.
        for threads in [1, 2] {
            let mut lb = LoopbackDistill::new(
                Arc::clone(&factory),
                &splits,
                Arc::new(CrossEntropy),
                Some(threads),
            );
            lb.begin_unlearn(&job(), &teacher).unwrap();
            let mut cohort = Vec::new();
            lb.cohort_into(&mut cohort);
            let lens: Vec<usize> = splits.iter().map(|s| s.remaining.len()).collect();
            assert_eq!(cohort, vec![(0, lens[0]), (1, lens[1])]);
            // The whole cohort, then client 1 alone: a client distils
            // the same bits whoever else takes part.
            let cfg = goldfish_fed::trainer::TrainConfig::default();
            let assign = TrainAssign {
                mode: RoundMode::Distill,
                round: 0,
                seed: 5,
                nonce: round_nonce(5, 0),
                global: &global,
                cfg: &cfg,
            };
            for members in [&cohort[..], &cohort[1..]] {
                let (mut got, mut results) = (Vec::new(), Vec::new());
                lb.train_round(
                    &assign,
                    members,
                    &mut |u| {
                        assert_eq!(u.nonce, round_nonce(5, 0));
                        got.push((u.client_id, u.num_samples, u.state.to_vec()));
                        Ok(())
                    },
                    &mut results,
                );
                assert_eq!(results.len(), members.len());
                for ((id, n, state), &(want_id, want_n)) in got.into_iter().zip(members) {
                    assert_eq!((id, n), (want_id, want_n));
                    assert_eq!(
                        lone_round(&factory, &splits[id], &teacher, id, &global),
                        state
                    );
                }
            }
        }
    }

    #[test]
    fn distiller_state_persists_across_rounds() {
        let (factory, splits, teacher) = fixture();
        let global = (factory)(17).state_vector();
        let job = DistillJob::new(
            Arc::clone(&factory),
            teacher,
            job().local,
            Arc::new(CrossEntropy),
        );
        let mut lane = TrainLane::new();
        let mut d = ClientDistiller::new(0);
        assert_eq!(d.id, 0);
        let rows = ClientRows::lending(&splits[0].remaining, &splits[0].forget);
        assert_eq!(rows.live().len(), 37);
        let (mut u0, mut u1) = (Vec::new(), Vec::new());
        d.round(&job, &rows, &mut lane, &global, 0, 5);
        lane.state_into(&mut u0);
        d.round(&job, &rows, &mut lane, &u0, 1, 5);
        lane.state_into(&mut u1);
        assert_ne!(u0, u1);
    }

    #[test]
    fn begin_unlearn_requires_clients() {
        let (factory, _, teacher) = fixture();
        let mut lb = LoopbackDistill::new(factory, &[], Arc::new(CrossEntropy), None);
        assert_eq!(
            lb.begin_unlearn(&job(), &teacher),
            Err(TransportError::NoLiveClients)
        );
    }
}
