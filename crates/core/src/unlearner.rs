//! The full Goldfish federated unlearning procedure (Algorithm 1).
//!
//! On a deletion request the server reinitialises the global model and
//! broadcasts it; every client — unlearned or not — then runs the
//! distillation-based `Goldfish` local procedure with the **original**
//! global model as teacher (it holds the knowledge of both `D_r` and
//! `D_f`; see the basic-model description in §III-B). Clients with removed
//! data additionally apply the negative hard term and the confusion term
//! on `D_f^c`. The server aggregates with the adaptive weights of the
//! extension module (Eqs 12–13) unless configured for plain FedAvg
//! weights.
//!
//! The rounds run on [`RoundRuntime::run_hot`], the round loop of every
//! training round: a [`DistillTransport`] is a
//! [`RoundTransport`](goldfish_fed::transport::RoundTransport), and a
//! distillation round is a round whose assignment names
//! [`RoundMode::Distill`], so a drain gets the same admission checks and
//! the same straggler/violator re-round as a training round.

use std::sync::Arc;

use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::transport::{
    round_nonce, RoundMode, RoundRuntime, TrainAssign, TransportError, Weighting,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::loss::{CrossEntropy, HardLoss};

use crate::basic_model::{reinit_seed, GoldfishLocalConfig};
use crate::loss::LossWeights;
use crate::method::{UnlearnOutcome, UnlearnSetup, UnlearningMethod};
use crate::transport::{DistillTransport, LoopbackDistill, UnlearnJob};

/// The Goldfish unlearning method ("Ours" in every table and figure).
#[derive(Clone)]
pub struct GoldfishUnlearning {
    /// Per-client local retraining configuration.
    pub local: GoldfishLocalConfig,
    /// Aggregate with the Eq 12–13 adaptive weights (`true`, the default)
    /// or plain FedAvg (`false`).
    pub adaptive_aggregation: bool,
    /// The hard loss (Table XI swaps this between CE, focal and NLL).
    pub hard: Arc<dyn HardLoss>,
}

impl Default for GoldfishUnlearning {
    fn default() -> Self {
        GoldfishUnlearning {
            local: GoldfishLocalConfig::default(),
            adaptive_aggregation: true,
            hard: Arc::new(CrossEntropy),
        }
    }
}

impl std::fmt::Debug for GoldfishUnlearning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GoldfishUnlearning(hard: {}, adaptive_agg: {}, {:?})",
            self.hard.name(),
            self.adaptive_aggregation,
            self.local
        )
    }
}

impl GoldfishUnlearning {
    /// Creates the method with the paper's default configuration but a
    /// custom loss-weight setting (used by the Table X ablations).
    pub fn with_weights(weights: LossWeights) -> Self {
        GoldfishUnlearning {
            local: GoldfishLocalConfig {
                weights,
                ..GoldfishLocalConfig::default()
            },
            ..GoldfishUnlearning::default()
        }
    }

    /// Builder-style override of the local configuration.
    pub fn with_local(mut self, local: GoldfishLocalConfig) -> Self {
        self.local = local;
        self
    }

    /// Builder-style toggle of the adaptive aggregation.
    pub fn with_adaptive_aggregation(mut self, yes: bool) -> Self {
        self.adaptive_aggregation = yes;
        self
    }
}

/// The server side of an unlearning request: what the coordinator owns.
/// [`GoldfishUnlearning::unlearn_over`] drives the round loop from these
/// pieces against any [`DistillTransport`] — the client data lives behind
/// the transport, not here.
pub struct UnlearnServer<'a> {
    /// Architecture factory: the reinitialisation, and the server-side
    /// evaluation when the transport lends no lanes
    /// ([`goldfish_fed::transport::RoundTransport::lanes`]).
    pub factory: &'a ModelFactory,
    /// The server's held-out test set.
    pub test: &'a Dataset,
    /// State of the trained global model that must forget (the teacher).
    pub original_global: &'a [f32],
    /// Distillation rounds to run.
    pub rounds: usize,
}

impl UnlearningMethod for GoldfishUnlearning {
    fn name(&self) -> &'static str {
        "goldfish"
    }

    fn unlearn(&self, setup: &UnlearnSetup, seed: u64) -> UnlearnOutcome {
        // The in-process path: the pre-refactor parallel round loop is now
        // the LoopbackDistill transport (see `crate::transport`), driven
        // by the same `unlearn_over` loop the networked coordinator uses.
        let mut transport = LoopbackDistill::new(
            Arc::clone(&setup.factory),
            &setup.clients,
            Arc::clone(&self.hard),
            None,
        );
        let server = UnlearnServer {
            factory: &setup.factory,
            test: &setup.test,
            original_global: &setup.original_global,
            rounds: setup.rounds,
        };
        let mut runtime = RoundRuntime::new(None, 0);
        self.unlearn_over(&server, &mut transport, &mut runtime, seed)
            .expect("loopback distillation never fails")
    }
}

impl GoldfishUnlearning {
    /// Runs the Goldfish unlearning round loop (Algorithm 1, server side)
    /// over any [`DistillTransport`]: reinitialise the global model, ship
    /// the job + frozen teacher, then run each distillation round on
    /// `runtime` ([`RoundRuntime::run_hot`]) — admission, straggler and
    /// violator drop + re-round, and FedAvg or (by default) the Eq 12–13
    /// weights of each upload's server-side MSE — and evaluate the new
    /// global ([`RoundRuntime::accuracy`]); both evaluations run on the
    /// transport's lanes when it lends them. The runtime's policy and
    /// reputation state apply as they are; a fresh runtime's default is
    /// full participation with no quorum, bound or quarantine. Its
    /// [`RoundRuntime::drain_events`] afterwards name every rejected
    /// upload.
    ///
    /// # Errors
    ///
    /// Propagates transport failures
    /// ([`TransportError::NoLiveClients`] when every client is gone or
    /// every upload was rejected).
    pub fn unlearn_over(
        &self,
        server: &UnlearnServer<'_>,
        transport: &mut dyn DistillTransport,
        runtime: &mut RoundRuntime,
        seed: u64,
    ) -> Result<UnlearnOutcome, TransportError> {
        // Algorithm 1, line 12: reinitialise the global model ω0.
        let mut global = (server.factory)(reinit_seed(seed)).state_vector();
        let job = UnlearnJob {
            local: self.local,
            hard: self.hard.spec(),
        };
        transport.begin_unlearn(&job, server.original_global)?;
        let weighting = if self.adaptive_aggregation {
            Weighting::ServerMse {
                factory: server.factory,
                test: server.test,
            }
        } else {
            Weighting::Samples
        };
        // Distill workers take their configuration from the job; the
        // assignment's is unused.
        let cfg = TrainConfig::default();
        let mut next = Vec::new();
        let mut round_accuracies = Vec::with_capacity(server.rounds);
        for round in 0..server.rounds {
            let assign = TrainAssign {
                mode: RoundMode::Distill,
                round,
                seed,
                nonce: round_nonce(seed, round),
                global: &global,
                cfg: &cfg,
            };
            runtime.run_hot(transport, &assign, weighting, &mut next)?;
            std::mem::swap(&mut global, &mut next);
            let accuracy = runtime.accuracy(transport, server.factory, &global, server.test);
            round_accuracies.push(accuracy);
        }
        Ok(UnlearnOutcome {
            method: "goldfish".into(),
            global_state: global,
            round_accuracies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic_model::network_from_state;
    use crate::method::ClientSplit;
    use goldfish_data::backdoor::BackdoorSpec;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_fed::eval;
    use goldfish_fed::trainer::train_local_ce;
    use goldfish_fed::transport::{
        RobustnessEvent, RoundTransport, StreamedUpdate, UpdateSink, UpdateViolation,
    };
    use goldfish_fed::ModelFactory;
    use goldfish_nn::zoo;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup_fixture(rounds: usize) -> (UnlearnSetup, BackdoorSpec) {
        let spec = SyntheticSpec::mnist().with_size(10, 10).with_shift(1);
        let (mut train, test) = synthetic::generate(&spec, 300, 100, 77);
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
                rounds,
                train: train_cfg,
            },
            backdoor,
        )
    }

    fn goldfish_method() -> GoldfishUnlearning {
        GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 4,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        })
    }

    #[test]
    fn goldfish_unlearns_backdoor_and_keeps_accuracy() {
        let (setup, backdoor) = setup_fixture(3);
        let out = goldfish_method().unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let acc = eval::accuracy(&mut net, &setup.test);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        assert!(acc > 0.55, "goldfish accuracy {acc}");
        assert!(asr < 0.3, "goldfish ASR {asr}");
        assert_eq!(out.round_accuracies.len(), 3);
    }

    #[test]
    fn goldfish_beats_b1_on_hard_task() {
        // The headline efficiency claim (Fig 4): with the same budget of
        // rounds, distillation retraining reaches at-least-comparable (and
        // typically higher) accuracy than retraining from scratch. An easy
        // task saturates immediately and shows nothing, so this fixture
        // raises the noise until the original model itself is imperfect.
        let spec = SyntheticSpec::mnist()
            .with_size(10, 10)
            .with_shift(1)
            .with_noise(0.45);
        let (mut train, test) = synthetic::generate(&spec, 400, 150, 77);
        let backdoor = BackdoorSpec::new(0).with_patch(2);
        let poisoned: Vec<usize> = (0..32).collect();
        backdoor.poison(&mut train, &poisoned);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(100, &[32], 10, &mut rng)
        });
        let train_cfg = TrainConfig {
            local_epochs: 2,
            batch_size: 25,
            lr: 0.03,
            momentum: 0.9,
        };
        let mut original = (factory)(1);
        train_local_ce(
            &mut original,
            &train,
            &TrainConfig {
                local_epochs: 25,
                ..train_cfg
            },
            5,
        );
        let (c0, c1) = train.split_at(200);
        let removed: Vec<usize> = (0..32).collect();
        let setup = UnlearnSetup {
            factory,
            clients: vec![
                ClientSplit::with_removed(&c0, &removed),
                ClientSplit::intact(c1),
            ],
            test,
            original_global: original.state_vector(),
            rounds: 3,
            train: train_cfg,
        };
        let method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 2,
            batch_size: 25,
            lr: 0.03,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        });
        let ours = method.unlearn(&setup, 3);
        let b1 = crate::baselines::RetrainFromScratch.unlearn(&setup, 3);
        assert!(
            ours.final_accuracy() >= b1.final_accuracy() - 0.03,
            "final accuracy: ours {} vs b1 {}",
            ours.final_accuracy(),
            b1.final_accuracy()
        );
        // Deliberately hard task (noise 0.45 + shift): the floor only
        // guards against degenerate collapse, the claim is ours ≥ b1.
        assert!(
            ours.final_accuracy() > 0.35,
            "ours {}",
            ours.final_accuracy()
        );
    }

    #[test]
    fn fedavg_variant_also_works() {
        let (setup, backdoor) = setup_fixture(2);
        let out = goldfish_method()
            .with_adaptive_aggregation(false)
            .unlearn(&setup, 0);
        let mut net = network_from_state(&setup.factory, &out.global_state, 0);
        let asr = eval::attack_success_rate(&mut net, &setup.test, &backdoor);
        assert!(asr < 0.35, "fedavg-variant ASR {asr}");
    }

    #[test]
    fn early_termination_variant_runs() {
        let (setup, _) = setup_fixture(2);
        let method = GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 12,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
            early_termination: Some(0.5),
            ..GoldfishLocalConfig::default()
        });
        let out = method.unlearn(&setup, 0);
        assert!(
            out.final_accuracy() > 0.4,
            "accuracy {}",
            out.final_accuracy()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (setup, _) = setup_fixture(1);
        let a = goldfish_method().unlearn(&setup, 9);
        let b = goldfish_method().unlearn(&setup, 9);
        assert_eq!(a.global_state, b.global_state);
    }

    /// A scripted drain: each client of `samples` uploads a fixed
    /// function of the incoming global — NaN on its first upload when
    /// listed in `nan_once`, under a forged nonce when it is the
    /// `forger`.
    struct Scripted {
        samples: Vec<(usize, usize)>,
        nan_once: Vec<usize>,
        forger: Option<usize>,
        /// Uploads attempted per client id.
        contacts: Vec<usize>,
    }

    impl Scripted {
        fn new(samples: Vec<(usize, usize)>) -> Self {
            Scripted {
                samples,
                nan_once: Vec::new(),
                forger: None,
                contacts: vec![0; 2],
            }
        }
    }

    impl RoundTransport for Scripted {
        fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
            out.clear();
            out.extend(&self.samples);
        }
        fn train_round(
            &mut self,
            assign: &TrainAssign<'_>,
            cohort: &[(usize, usize)],
            sink: &mut UpdateSink<'_>,
            results: &mut Vec<Result<(), TransportError>>,
        ) {
            assert_eq!(assign.mode, RoundMode::Distill);
            let (round, global) = (assign.round, assign.global);
            results.clear();
            for &(id, n) in cohort {
                self.contacts[id] += 1;
                assert!(self.contacts[id] < 10, "the re-round loop is spinning");
                let state: Vec<f32> = if self.nan_once.contains(&id) && self.contacts[id] == 1 {
                    vec![f32::NAN; global.len()]
                } else {
                    global
                        .iter()
                        .map(|&v| 0.5 * v + 0.01 * (id + round + 1) as f32)
                        .collect()
                };
                let nonce = match self.forger {
                    Some(f) if f == id => 0xF0_26ED,
                    _ => assign.nonce,
                };
                results.push(sink(StreamedUpdate {
                    client_id: id,
                    num_samples: n,
                    nonce,
                    state: &state,
                }));
            }
        }
    }

    impl DistillTransport for Scripted {
        fn begin_unlearn(&mut self, _: &UnlearnJob, _: &[f32]) -> Result<(), TransportError> {
            Ok(())
        }
    }

    /// Runs a scripted drain on a fresh runtime: the committed bits (or
    /// the error) and the runtime's robustness events.
    fn scripted_drain(
        adaptive: bool,
        rounds: usize,
        transport: &mut Scripted,
    ) -> (Result<Vec<u32>, TransportError>, Vec<RobustnessEvent>) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (_, test) = synthetic::generate(&spec, 10, 10, 1);
        let factory: ModelFactory =
            Arc::new(|seed| zoo::mlp(64, &[4], 10, &mut StdRng::seed_from_u64(seed)));
        let teacher = (factory)(0).state_vector();
        let server = UnlearnServer {
            factory: &factory,
            test: &test,
            original_global: &teacher,
            rounds,
        };
        let mut runtime = RoundRuntime::new(Some(1), 0);
        let out = GoldfishUnlearning::default()
            .with_adaptive_aggregation(adaptive)
            .unlearn_over(&server, transport, &mut runtime, 7)
            .map(|o| o.global_state.iter().map(|v| v.to_bits()).collect());
        (out, runtime.drain_events())
    }

    #[test]
    fn non_finite_drain_uploads_are_rejected_like_stragglers() {
        for adaptive in [false, true] {
            // Every upload NaN: nothing to commit, a typed error.
            let mut all_nan = Scripted::new(vec![(0, 3), (1, 5)]);
            all_nan.nan_once = vec![0, 1];
            let (out, events) = scripted_drain(adaptive, 1, &mut all_nan);
            assert_eq!(
                out,
                Err(TransportError::NoLiveClients),
                "adaptive {adaptive}"
            );
            assert_eq!(events.len(), 2);

            // Client 1's one NaN upload: rejected, left out of the
            // re-round, logged; the commit is client 0's alone.
            let mut once = Scripted::new(vec![(0, 3), (1, 5)]);
            once.nan_once = vec![1];
            let (out, events) = scripted_drain(adaptive, 1, &mut once);
            let (alone, none) = scripted_drain(adaptive, 1, &mut Scripted::new(vec![(0, 3)]));
            assert_eq!(out.unwrap(), alone.unwrap(), "adaptive {adaptive}");
            assert!(none.is_empty());
            assert_eq!(
                events,
                vec![RobustnessEvent::Violation {
                    client_id: 1,
                    violation: UpdateViolation::NonFinite,
                    strikes: 1,
                }]
            );
            assert_eq!(once.contacts, vec![2, 1]);
        }
    }

    #[test]
    fn forged_distill_nonce_is_a_typed_rejection() {
        // Client 1 echoes a forged nonce every round and is never
        // dropped: each round rejects it once, re-rounds without it and
        // commits; the drain equals the one without client 1.
        const ROUNDS: usize = 2;
        let mut forged = Scripted::new(vec![(0, 3), (1, 5)]);
        forged.forger = Some(1);
        let (out, events) = scripted_drain(true, ROUNDS, &mut forged);
        let (alone, _) = scripted_drain(true, ROUNDS, &mut Scripted::new(vec![(0, 3)]));
        assert_eq!(out.unwrap(), alone.unwrap());
        assert_eq!(forged.contacts, vec![2 * ROUNDS, ROUNDS]);
        let want: Vec<RobustnessEvent> = (0..ROUNDS)
            .map(|round| RobustnessEvent::Violation {
                client_id: 1,
                violation: UpdateViolation::StaleNonce {
                    got: 0xF0_26ED,
                    want: round_nonce(7, round),
                },
                strikes: round as u32 + 1,
            })
            .collect();
        assert_eq!(events, want);
    }
}
