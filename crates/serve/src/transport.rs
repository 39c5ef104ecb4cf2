//! The serve-level transport contract and its in-process implementation.
//!
//! [`ServeTransport`] is what a [`crate::coordinator::Coordinator`]
//! drives: the federated-round contract
//! ([`goldfish_fed::transport::RoundTransport`]) plus the distillation
//! contract ([`goldfish_core::transport::DistillTransport`]) plus the
//! serve-specific operations (staging deletion requests, local
//! evaluation, wire accounting). Two implementations exist:
//!
//! * [`LoopbackTransport`] (here) — clients are datasets in this process;
//!   execution delegates to the same loopback executors the library's
//!   `Federation`/`GoldfishUnlearning` use, so a loopback run **is** the
//!   existing in-process path,
//! * [`crate::tcp::TcpTransport`] — clients are remote worker daemons
//!   behind sockets; bitwise-identical to loopback because both sides
//!   run the same per-client code against losslessly round-tripped
//!   states.

use goldfish_core::transport::{ClientDistiller, DistillJob, DistillTransport, UnlearnJob};
use goldfish_core::ClientSplit;
use goldfish_data::Dataset;
use goldfish_fed::trainer::Lanes;
use goldfish_fed::transport::{
    client_seed, RoundTransport, StreamedUpdate, TrainAssign, TransportError, UpdateSink,
};
use goldfish_fed::ModelFactory;

use crate::queue::UnlearnRequest;

/// Wire-traffic counters of a transport (zero for loopback).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total frame bytes written to peers.
    pub bytes_sent: u64,
    /// Total frame bytes read from peers.
    pub bytes_received: u64,
}

impl WireStats {
    /// Sum of both directions.
    pub fn total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// One client's local evaluation of a state vector (the `Eval` exchange).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalEval {
    /// The evaluating client.
    pub client_id: usize,
    /// Classification accuracy on the client's local data.
    pub accuracy: f64,
    /// Mean squared error on the client's local data.
    pub mse: f64,
}

/// Everything a coordinator needs from a transport.
pub trait ServeTransport: RoundTransport + DistillTransport {
    /// Local dataset sizes by client id (`0` for dead clients) — used to
    /// validate deletion requests before they are queued.
    fn client_sizes(&self) -> Vec<usize>;

    /// Stages the drained deletion requests for the next
    /// [`DistillTransport::begin_unlearn`]: each listed client will split
    /// its data by the given indices; unlisted clients stay intact.
    /// `serial` is the coordinator-wide drain-batch serial — remote
    /// transports ship it with the `UnlearnAssign` so workers apply a
    /// deletion exactly once even when a recovered coordinator re-sends
    /// the batch.
    fn stage_removals(&mut self, requests: &[UnlearnRequest], serial: u64);

    /// Recovery path: re-applies *already committed* deletions (from
    /// the audit chain, in chain order) to the transport's view of the
    /// client datasets. Loopback shrinks its owned datasets; remote
    /// transports do nothing (the workers are authoritative for their
    /// own data and apply deletions idempotently by serial).
    fn apply_removals(&mut self, requests: &[UnlearnRequest]) {
        let _ = requests;
    }

    /// Gives the transport a chance to re-admit reconnecting workers
    /// between rounds (`round` = the round about to run, `global` = the
    /// state a resume digest is computed over). Returns how many
    /// workers were re-admitted. The default — and loopback, whose
    /// clients cannot leave — does nothing, keeping the loopback hot
    /// path allocation-free.
    fn admit_reconnects(&mut self, round: usize, global: &[f32]) -> usize {
        let _ = (round, global);
        0
    }

    /// Asks every live client to evaluate `global` on its local data.
    fn local_eval(
        &mut self,
        round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>>;

    /// Reconfigures the per-client reply deadline (the coordinator
    /// builder's straggler knob). No-op for transports without one.
    fn set_read_timeout(&mut self, timeout: std::time::Duration) {
        let _ = timeout;
    }

    /// A fatal, transport-wide fault that is *not* attributable to any
    /// single client — e.g. an injected coordinator kill from the fault
    /// harness. When set, the coordinator stops re-rounding over
    /// "survivors" (there are none) and propagates the reason instead
    /// of a generic `NoLiveClients`. Real transports have no such
    /// state and return `None`.
    fn fatal_fault(&self) -> Option<&str> {
        None
    }

    /// Announces a graceful end-of-service to every live worker (the
    /// `Shutdown` frame on networked transports). Without it a worker
    /// cannot tell a finished schedule from a crashed coordinator —
    /// bare EOF is always treated as a disconnect. In-process
    /// transports have nothing to announce; the default is a no-op.
    fn shutdown(&mut self) {}

    /// Wire-traffic counters since construction.
    fn wire_stats(&self) -> WireStats;

    /// Joins the coordinator's shared telemetry catalog: transports
    /// with wire-side counters/spans rebind their handles to the
    /// registered cells (carrying pre-registration counts forward via
    /// `transfer_into`). In-process transports have nothing to report;
    /// the default is a no-op.
    fn set_telemetry(&mut self, telemetry: &crate::telemetry::ServeTelemetry) {
        let _ = telemetry;
    }

    /// Executes one shard-granular retrain (DESIGN.md §16): the
    /// executor subsets the owner's **original** dataset by
    /// `assign.keep_rows` and runs
    /// `goldfish_core::optimization::retrain_shard` from the shipped
    /// Eq 9 checkpoint — the same primitive `ShardedClient` uses, which
    /// is what pins the serve drain bitwise against the in-core oracle.
    /// Transports without shard support return
    /// [`TransportError::Unsupported`].
    fn shard_retrain(
        &mut self,
        assign: &crate::shard::ShardRetrainAssign,
    ) -> Result<Vec<f32>, TransportError> {
        let _ = assign;
        Err(TransportError::Unsupported {
            reason: "transport does not implement shard retrains".into(),
        })
    }

    /// The injected straggle delay (milliseconds) scripted for a
    /// client's replies, consulted by the deadline-driven drain *before*
    /// dispatching a shard retrain — fully deterministic, no wall-clock
    /// sleeps on the drain path. Real transports report `0` (their
    /// stragglers surface as read timeouts instead).
    fn straggle_ms(&self, client_id: usize) -> u64 {
        let _ = client_id;
        0
    }
}

/// The request a [`LoopbackTransport`] is distilling: its job, and one
/// distiller and forget set per client live at `begin_unlearn` (a
/// client's remaining data is its dataset, already shrunk).
struct Distill {
    job: DistillJob,
    ids: Vec<usize>,
    distillers: Vec<ClientDistiller>,
    forgets: Vec<Dataset>,
}

/// The in-process [`ServeTransport`]: owns every client's dataset and one
/// set of [`Lanes`] — one [`goldfish_fed::trainer::TrainLane`] per
/// executing pool thread — that serves training, evaluation and
/// distillation alike. Training rounds run the same per-client compute
/// as the library's [`goldfish_fed::transport::LoopbackClients`]
/// executor (bitwise identical — pinned by `serve_identity`), and
/// distillation rounds the same as [`goldfish_core::LoopbackDistill`],
/// but on long-lived lanes feeding the streaming aggregation sink from
/// one reused export buffer, so a warm single-thread round never touches
/// the allocator (pinned by `tests/alloc_free_round.rs`) and resident
/// model memory is `threads` lanes and one state — not a network or a
/// state per registered client or cohort member (pinned by
/// `tests/alloc_free.rs`). The reference implementation every TCP run
/// is checked against.
pub struct LoopbackTransport {
    factory: ModelFactory,
    clients: Vec<Dataset>,
    staged: Vec<UnlearnRequest>,
    distill: Option<Distill>,
    lanes: Lanes,
    /// The round's contacted clients, in cohort (id) order.
    members: Vec<usize>,
    /// The one buffer each trained lane is exported into just before
    /// the sink reads it; reused across lanes, waves and rounds.
    export: Vec<f32>,
    /// Clients evicted via [`RoundTransport::quarantine`]: excluded
    /// from cohorts and the streamed feed (their datasets stay owned —
    /// in-process data cannot "leave" — but their updates never reach
    /// an aggregation sink again).
    quarantined: std::collections::BTreeSet<usize>,
}

impl LoopbackTransport {
    /// Wraps the client datasets as an in-process transport.
    pub fn new(factory: ModelFactory, clients: Vec<Dataset>, threads: Option<usize>) -> Self {
        LoopbackTransport {
            factory,
            clients,
            staged: Vec::new(),
            distill: None,
            lanes: Lanes::new(threads),
            members: Vec::new(),
            export: Vec::new(),
            quarantined: std::collections::BTreeSet::new(),
        }
    }

    /// Clients evicted so far, ascending.
    pub fn quarantined_clients(&self) -> Vec<usize> {
        self.quarantined.iter().copied().collect()
    }
}

impl RoundTransport for LoopbackTransport {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.extend(
            self.clients
                .iter()
                .enumerate()
                .filter(|(id, _)| !self.quarantined.contains(id))
                .map(|(id, d)| (id, d.len())),
        );
    }

    /// Only cohort members compute and upload. Members train in
    /// id-ordered waves of one member per pool thread, each on the lane
    /// at its position in the wave: a lane carries capacity, never state
    /// (every run installs the whole broadcast state first), so which
    /// lane served a client cannot change a bit. After each wave, every
    /// lane's trained state is exported into the one export buffer and
    /// fed in client-id order before the next wave reuses the lanes: the
    /// aggregation frontier folds every update on arrival, so nothing is
    /// ever parked on loopback, and resident states follow neither the
    /// pool size nor the cohort.
    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let LoopbackTransport {
            factory,
            clients,
            lanes,
            members,
            export,
            quarantined,
            ..
        } = self;
        // Quarantined clients are out of the federation: no compute, no
        // upload.
        members.clear();
        members.extend(
            cohort
                .iter()
                .map(|&(id, _)| id)
                .filter(|id| *id < clients.len() && !quarantined.contains(id)),
        );
        let (factory, clients) = (&*factory, &*clients);
        results.clear();
        lanes.waves(
            members,
            |_, lane, &mut id| {
                let seed = client_seed(assign.seed, id, assign.round);
                lane.run(factory, assign.global, &clients[id], assign.cfg, seed);
            },
            |_, lanes, ids| {
                for (lane, &mut id) in lanes.iter().zip(ids.iter_mut()) {
                    lane.state_into(export);
                    results.push(sink(StreamedUpdate {
                        client_id: id,
                        num_samples: clients[id].len(),
                        nonce: assign.nonce,
                        state: export,
                    }));
                }
            },
        );
    }

    /// Evicts `client_id` from every future cohort and streamed feed.
    fn quarantine(&mut self, client_id: usize) -> bool {
        if client_id >= self.clients.len() {
            return false;
        }
        self.quarantined.insert(client_id)
    }
}

impl DistillTransport for LoopbackTransport {
    fn num_clients(&self) -> usize {
        self.clients.len() - self.quarantined.len()
    }

    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        RoundTransport::cohort_into(self, out)
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        let hard = match job.hard {
            Some(spec) => spec.build(),
            None => {
                return Err(TransportError::Unsupported {
                    reason: "custom hard losses cannot be shipped to workers".into(),
                })
            }
        };
        let staged = std::mem::take(&mut self.staged);
        // Live clients only, like every round: a quarantined client gets
        // no job and shapes no distillation round, exactly as its closed
        // connection guarantees on TCP — where a deletion requested by
        // one is the same typed failure, before anything is applied.
        if let Some(req) = staged
            .iter()
            .find(|r| !r.removed.is_empty() && self.quarantined.contains(&r.client_id))
        {
            return Err(TransportError::Disconnected {
                client_id: req.client_id,
                reason: "deletion-requesting client is not connected".into(),
            });
        }
        let mut live = Vec::new();
        RoundTransport::cohort_into(self, &mut live);
        if live.is_empty() {
            return Err(TransportError::NoLiveClients);
        }
        let ids: Vec<usize> = live.iter().map(|&(id, _)| id).collect();
        // The deletion is permanent (mirroring the worker daemon's state
        // machine): a client with removals keeps only its remaining data
        // for every later round, and that dataset is what it distils on.
        let forgets = ids
            .iter()
            .map(|&id| {
                let data = &mut self.clients[id];
                match staged.iter().find(|r| r.client_id == id) {
                    Some(req) if !req.removed.is_empty() => {
                        let split = ClientSplit::with_removed(data, &req.removed);
                        *data = split.remaining;
                        split.forget
                    }
                    _ => Dataset::empty(data.sample_shape(), data.classes()),
                }
            })
            .collect();
        self.distill = Some(Distill {
            job: DistillJob::new(self.factory.clone(), teacher.to_vec(), job.local, hard),
            distillers: ids.iter().map(|&id| ClientDistiller::new(id)).collect(),
            ids,
            forgets,
        });
        Ok(())
    }

    fn distill_round(
        &mut self,
        round: usize,
        seed: u64,
        global: &[f32],
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let LoopbackTransport {
            clients,
            distill,
            lanes,
            export,
            ..
        } = self;
        let Distill {
            job,
            ids,
            distillers,
            forgets,
        } = distill
            .as_mut()
            .expect("distill_round before begin_unlearn");
        let (clients, ids, forgets) = (&*clients, &*ids, &*forgets);
        job.round_on(
            lanes,
            distillers,
            |i| (&clients[ids[i]], &forgets[i]),
            round,
            seed,
            global,
            cohort,
            export,
            sink,
            results,
        );
    }
}

impl ServeTransport for LoopbackTransport {
    fn client_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.clients.iter().map(|c| c.len()).collect();
        // A quarantined client reads 0, like a closed TCP connection.
        for &id in &self.quarantined {
            sizes[id] = 0;
        }
        sizes
    }

    fn stage_removals(&mut self, requests: &[UnlearnRequest], _serial: u64) {
        self.staged = requests.to_vec();
    }

    fn apply_removals(&mut self, requests: &[UnlearnRequest]) {
        // Committed deletions replay in audit order; each removal's
        // indices refer to the dataset as it stood at that point, so
        // the shrink must be sequential, exactly as `begin_unlearn`
        // originally performed it.
        for req in requests {
            if req.removed.is_empty() {
                continue;
            }
            if let Some(data) = self.clients.get(req.client_id) {
                let split = ClientSplit::with_removed(data, &req.removed);
                self.clients[req.client_id] = split.remaining;
            }
        }
    }

    fn local_eval(
        &mut self,
        _round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>> {
        // Live clients only, like every round: a quarantined client is
        // out of the federation here exactly as its closed connection is
        // on TCP.
        let mut live = Vec::new();
        RoundTransport::cohort_into(self, &mut live);
        let mut evals: Vec<LocalEval> = live
            .iter()
            .map(|&(client_id, _)| LocalEval {
                client_id,
                accuracy: 0.0,
                mse: 0.0,
            })
            .collect();
        let (factory, clients) = (&self.factory, &self.clients);
        self.lanes.waves(
            &mut evals,
            |_, lane, e| (e.accuracy, e.mse) = lane.eval(factory, global, &clients[e.client_id]),
            |_, _, _| {},
        );
        evals.into_iter().map(Ok).collect()
    }

    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }

    fn shard_retrain(
        &mut self,
        assign: &crate::shard::ShardRetrainAssign,
    ) -> Result<Vec<f32>, TransportError> {
        // In shard mode the owned datasets never shrink (`begin_unlearn`
        // is never called), so `keep_rows` — original-order indices —
        // subsets them directly. The redundancy-group model: members
        // hold replicas of each other's shard data, so any executor can
        // run the owner's retrain; in-process, that is simply reading
        // the owner's dataset.
        let data = match self.clients.get(assign.owner) {
            Some(d) => d,
            None => {
                return Err(TransportError::Disconnected {
                    client_id: assign.owner,
                    reason: "shard retrain for unregistered client".into(),
                })
            }
        };
        if let Some(&bad) = assign.keep_rows.iter().find(|&&r| r >= data.len()) {
            return Err(TransportError::Protocol {
                client_id: assign.owner,
                reason: format!("keep row {bad} out of {} local samples", data.len()),
            });
        }
        let survived = data.subset(&assign.keep_rows);
        Ok(goldfish_core::optimization::retrain_shard(
            &self.factory,
            &assign.cfg,
            &assign.checkpoint,
            &survived,
            assign.seed,
        ))
    }
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LoopbackTransport({} clients)", self.clients.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoSpec;
    use goldfish_core::basic_model::GoldfishLocalConfig;
    use goldfish_nn::loss::HardLossSpec;

    #[test]
    fn loopback_runs_both_flows() {
        let spec = DemoSpec {
            clients: 2,
            samples_per_client: 40,
            test_samples: 20,
            seed: 5,
        };
        let factory = spec.factory();
        let mut t = LoopbackTransport::new(factory.clone(), spec.client_shards(), Some(2));
        assert_eq!(DistillTransport::num_clients(&t), 2);
        assert_eq!(t.client_sizes(), vec![40, 40]);

        let global = (factory)(1).state_vector();
        let cfg = spec.train_config();
        let assign = TrainAssign {
            round: 0,
            seed: 3,
            nonce: goldfish_fed::transport::round_nonce(3, 0),
            global: &global,
            cfg: &cfg,
        };
        let mut cohort = Vec::new();
        RoundTransport::cohort_into(&t, &mut cohort);
        let mut results = Vec::new();
        t.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
        assert_eq!(results, vec![Ok(()), Ok(())]);

        t.stage_removals(&[UnlearnRequest::new(0, vec![0, 1, 2])], 0);
        let job = UnlearnJob {
            local: GoldfishLocalConfig {
                epochs: 1,
                batch_size: 20,
                ..GoldfishLocalConfig::default()
            },
            hard: Some(HardLossSpec::CrossEntropy),
        };
        t.begin_unlearn(&job, &global).unwrap();
        let mut weights = Vec::new();
        DistillTransport::cohort_into(&t, &mut cohort);
        assert_eq!(cohort, vec![(0, 37), (1, 40)]);
        t.distill_round(
            0,
            3,
            &global,
            &cohort,
            &mut |u| {
                weights.push(u.num_samples);
                Ok(())
            },
            &mut results,
        );
        assert_eq!(results.len(), 2);
        assert_eq!(weights, vec![37, 40]); // client 0: 40 - 3 removed

        let evals = t.local_eval(0, &global);
        assert_eq!(evals.len(), 2);
        assert!(evals[0].as_ref().unwrap().accuracy <= 1.0);
        assert_eq!(t.wire_stats().total(), 0);
    }
}
