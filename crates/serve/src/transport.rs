//! The serve-level transport contract and its in-process implementation.
//!
//! [`ServeTransport`] is what a [`crate::coordinator::Coordinator`]
//! drives: the federated-round contract
//! ([`goldfish_fed::transport::RoundTransport`]) plus the distillation
//! contract ([`goldfish_core::transport::DistillTransport`]) plus the
//! serve-specific operations (staging deletion requests, local
//! evaluation, wire accounting). Two implementations exist:
//!
//! * [`LoopbackTransport`] (here) — clients are datasets in this process.
//!   It holds the library's own in-process executor, a
//!   [`LoopbackDistill`] over rows it owns (itself a
//!   [`goldfish_fed::transport::LoopbackClients`] plus one request's
//!   distillation state), and adds only what serving needs: deletion
//!   staging, recovery replay and shard retrains; every client's rows
//!   live in one [`goldfish_fed::rows::ClientRows`] store. So a loopback
//!   round or drain **is** the in-process path `Federation` and
//!   `GoldfishUnlearning` run, by construction,
//! * [`crate::tcp::TcpTransport`] — clients are remote worker daemons
//!   behind sockets; bitwise-identical to loopback because both sides
//!   run the same per-client code against losslessly round-tripped
//!   states.

use goldfish_core::transport::{DistillTransport, LoopbackDistill, UnlearnJob};
use goldfish_data::Dataset;
use goldfish_fed::rows::{ClientRows, RowIndex};
use goldfish_fed::trainer::Lanes;
pub(crate) use goldfish_fed::transport::LocalEval;
use goldfish_fed::transport::{
    RoundTransport, RowOutOfRange, TrainAssign, TransportError, UpdateSink,
};
use goldfish_fed::ModelFactory;

use crate::queue::UnlearnRequest;

/// Translates deletions from live-view indices, the convention they are
/// submitted, logged and audited in, to original ones through each
/// client's `index` — when a drain is staged, and when committed
/// deletions replay at recovery. Each request addresses its client's
/// rows as the requests before it left them, so it marks its rows
/// removed in `index` before the next one translates. A client with no
/// index is not registered: its request passes as it is, for the
/// transport to refuse or skip.
pub(crate) fn to_originals(
    index: &mut [RowIndex],
    requests: &[UnlearnRequest],
) -> Vec<UnlearnRequest> {
    let translate = |r: &UnlearnRequest| {
        let removed = match index.get_mut(r.client_id) {
            Some(rows) => {
                let removed = rows.originals(&r.removed);
                rows.remove(&removed);
                removed
            }
            None => r.removed.clone(),
        };
        UnlearnRequest {
            client_id: r.client_id,
            removed,
        }
    };
    requests.iter().map(translate).collect()
}

/// The refusal of a deletion whose requesting client is not connected.
pub(crate) fn not_connected(client_id: usize) -> TransportError {
    TransportError::Disconnected {
        client_id,
        reason: "deletion-requesting client is not connected".into(),
    }
}

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

/// Everything a coordinator needs from a transport.
pub trait ServeTransport: RoundTransport + DistillTransport {
    /// Local dataset sizes by client id (`0` for dead clients) — used to
    /// validate deletion requests before they are queued.
    fn client_sizes(&self) -> Vec<usize>;

    /// Stages the drained deletion requests for the next
    /// [`DistillTransport::begin_unlearn`]: each listed client will
    /// forget the given rows and remove them for good; unlisted clients
    /// stay intact. The requests arrive in live-view indices and are
    /// translated to original ones here, so what the transport applies
    /// and ships in `UnlearnAssign` names fixed rows: a re-drain of a
    /// batch whose rows are already gone (a recovered coordinator
    /// re-sending it) removes nothing more, and forgets the same rows,
    /// read back from the client's store.
    fn stage_removals(&mut self, requests: &[UnlearnRequest]);

    /// Recovery path: re-applies *already committed* deletions (from
    /// the audit chain, in chain order, in live-view indices) to the
    /// transport's view of the client rows. Loopback removes them from
    /// its stores; TCP marks them in its index of each client's removed
    /// rows (the workers hold the rows, and their stores make a re-sent
    /// deletion a no-op).
    ///
    /// # Errors
    ///
    /// A deletion naming a row its client does not hold (the state dir
    /// belongs to other data); nothing is applied then.
    fn apply_removals(&mut self, requests: &[UnlearnRequest]) -> Result<(), RowOutOfRange>;

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

/// The in-process [`ServeTransport`]: a [`LoopbackDistill`] owning every
/// client's dataset (training, evaluation and drains all run on its one
/// set of lanes) plus deletion staging. A warm single-thread round never
/// touches the allocator (pinned by `tests/alloc_free_round.rs`), and
/// resident model memory is `threads` lanes and one state — not a
/// network or a state per registered client or cohort member (pinned by
/// `tests/alloc_free.rs`). The reference implementation every TCP run
/// is checked against.
pub struct LoopbackTransport {
    exec: LoopbackDistill<'static>,
    /// The staged drain's requests, in original indices.
    staged: Vec<UnlearnRequest>,
}

impl LoopbackTransport {
    /// Wraps the client datasets as an in-process transport.
    pub fn new(factory: ModelFactory, clients: Vec<Dataset>, threads: Option<usize>) -> Self {
        LoopbackTransport {
            exec: LoopbackDistill::owning(factory, clients, threads),
            staged: Vec::new(),
        }
    }

    /// Clients evicted so far, ascending.
    pub fn quarantined_clients(&self) -> Vec<usize> {
        self.exec.clients().quarantined().collect()
    }

    /// Client `id`'s row store (`None` for an unregistered id): its live
    /// rows, and the forget rows of a drain no training round has
    /// committed yet.
    pub fn rows(&self, id: usize) -> Option<&ClientRows<'static>> {
        self.exec.clients().rows(id)
    }

    /// A copy of every client's index half, to translate deletions on.
    fn index(&self) -> Vec<RowIndex> {
        (0..)
            .map_while(|id| self.rows(id).map(|r| r.index().clone()))
            .collect()
    }
}

impl RoundTransport for LoopbackTransport {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.exec.clients().cohort_into(out)
    }

    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        self.exec
            .clients_mut()
            .train_round(assign, cohort, sink, results)
    }

    /// Evicts `client_id` from every later cohort (its dataset stays
    /// owned — in-process data cannot "leave" — but it is never
    /// contacted again).
    fn quarantine(&mut self, client_id: usize) -> bool {
        self.exec.clients_mut().quarantine(client_id)
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        self.exec.lanes()
    }
}

impl DistillTransport for LoopbackTransport {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.exec.cohort_into(out)
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        let staged = std::mem::take(&mut self.staged);
        // Live clients only, like every round: a quarantined client gets
        // no job and shapes no distillation round, exactly as its closed
        // connection guarantees on TCP — where a deletion requested by
        // one is the same typed failure, before anything is applied.
        let mut live = Vec::new();
        self.exec.cohort_into(&mut live);
        let is_live = |id| live.binary_search_by_key(&id, |&(l, _)| l).is_ok();
        if let Some(req) = staged
            .iter()
            .find(|r| !r.removed.is_empty() && !is_live(r.client_id))
        {
            return Err(not_connected(req.client_id));
        }
        // The deletion is permanent (mirroring the worker daemon's state
        // machine): a client with removals keeps only its remaining data
        // for every later round, and that is what it distils on. A bad
        // row is the worker's typed refusal, and nothing shrinks.
        self.exec.begin_unlearn(job, teacher)?;
        let removals = staged.iter().map(|r| (r.client_id, r.removed.as_slice()));
        Ok(self.exec.clients_mut().remove_rows(removals)?)
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
        self.exec
            .distill_round(round, seed, global, cohort, sink, results)
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        self.exec.lanes()
    }
}

impl ServeTransport for LoopbackTransport {
    fn client_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..)
            .map_while(|id| self.rows(id).map(|r| r.live().len()))
            .collect();
        // A quarantined client reads 0, like a closed TCP connection.
        for id in self.exec.clients().quarantined() {
            sizes[id] = 0;
        }
        sizes
    }

    fn stage_removals(&mut self, requests: &[UnlearnRequest]) {
        self.staged = to_originals(&mut self.index(), requests);
    }

    fn apply_removals(&mut self, requests: &[UnlearnRequest]) -> Result<(), RowOutOfRange> {
        let replayed = to_originals(&mut self.index(), requests);
        let removals = replayed.iter().map(|r| (r.client_id, r.removed.as_slice()));
        let clients = self.exec.clients_mut();
        clients.remove_rows(removals)?;
        // The replayed deletions are committed: nothing forgets their rows.
        clients.commit();
        Ok(())
    }

    fn local_eval(
        &mut self,
        _round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>> {
        // Live clients only, like every round: a quarantined client is
        // out of the federation here exactly as its closed connection is
        // on TCP.
        let evals = self.exec.clients_mut().eval(global);
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
        let clients = self.exec.clients();
        let Some(data) = clients.rows(assign.owner).map(|r| r.live()) else {
            return Err(TransportError::Disconnected {
                client_id: assign.owner,
                reason: "shard retrain for unregistered client".into(),
            });
        };
        if let Some(&bad) = assign.keep_rows.iter().find(|&&r| r >= data.len()) {
            return Err(TransportError::Protocol {
                client_id: assign.owner,
                reason: format!("keep row {bad} out of {} local samples", data.len()),
            });
        }
        let survived = data.subset(&assign.keep_rows);
        Ok(goldfish_core::optimization::retrain_shard(
            clients.factory(),
            &assign.cfg,
            &assign.checkpoint,
            &survived,
            assign.seed,
        ))
    }
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LoopbackTransport({} clients)",
            self.client_sizes().len()
        )
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

        t.stage_removals(&[UnlearnRequest::new(0, vec![0, 1, 2])]);
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

    /// Committed deletions translate in order, each through the rows the
    /// ones before it left; one naming no registered client (a state dir
    /// can name any id) passes untranslated, for the transport to skip.
    #[test]
    fn translation_runs_in_order_and_passes_unknown_clients() {
        let mut index = vec![RowIndex::default(); 2];
        let replay = [
            UnlearnRequest::new(0, vec![1]),
            UnlearnRequest::new(usize::MAX, vec![3]),
            UnlearnRequest::new(0, vec![1, 5]),
        ];
        let originals = to_originals(&mut index, &replay);
        let want = [
            UnlearnRequest::new(0, vec![1]),
            UnlearnRequest::new(usize::MAX, vec![3]),
            UnlearnRequest::new(0, vec![2, 6]),
        ];
        assert_eq!(originals, want);
        assert_eq!(index[0].originals(&[0, 1]), [0, 3]);
    }

    /// A deletion naming a row its client does not hold is the worker's
    /// typed refusal, found before any client shrinks, and the next valid
    /// drain goes through. A recovery replay is refused the same way.
    #[test]
    fn out_of_range_rows_are_typed_and_shrink_nothing() {
        let spec = DemoSpec {
            clients: 2,
            samples_per_client: 40,
            test_samples: 20,
            seed: 5,
        };
        let factory = spec.factory();
        let mut t = LoopbackTransport::new(factory.clone(), spec.client_shards(), Some(2));
        let teacher = (factory)(1).state_vector();
        let job = UnlearnJob {
            local: GoldfishLocalConfig {
                epochs: 1,
                batch_size: 20,
                ..GoldfishLocalConfig::default()
            },
            hard: Some(HardLossSpec::CrossEntropy),
        };
        // Client 0's request is fine, client 1's is not: neither applies.
        let requests = |last| {
            [
                UnlearnRequest::new(0, vec![0, 1]),
                UnlearnRequest::new(1, vec![3, last]),
            ]
        };
        t.stage_removals(&requests(40));
        assert_eq!(
            t.begin_unlearn(&job, &teacher),
            Err(TransportError::Protocol {
                client_id: 1,
                reason: "removed index 40 out of 40 local samples".into(),
            })
        );
        assert_eq!(t.client_sizes(), vec![40, 40]);

        t.stage_removals(&requests(39));
        t.begin_unlearn(&job, &teacher).unwrap();
        assert_eq!(t.client_sizes(), vec![38, 38]);
        let (mut cohort, mut results) = (Vec::new(), Vec::new());
        DistillTransport::cohort_into(&t, &mut cohort);
        t.distill_round(0, 3, &teacher, &cohort, &mut |_| Ok(()), &mut results);
        assert_eq!(results, vec![Ok(()), Ok(())]);

        // Each replayed removal indexes the live rows as the ones before
        // it left them (38, then 37), and is refused in original terms:
        // live row 37 of 37 is original row 40 of 40.
        let replay = [
            UnlearnRequest::new(0, vec![37]),
            UnlearnRequest::new(0, vec![36, 37]),
        ];
        assert_eq!(
            t.apply_removals(&replay),
            Err(RowOutOfRange {
                client_id: 0,
                row: 40,
                len: 40
            })
        );
        assert_eq!(t.client_sizes(), vec![38, 38]);
        t.apply_removals(&replay[..1]).unwrap();
        assert_eq!(t.client_sizes(), vec![37, 38]);
    }
}
