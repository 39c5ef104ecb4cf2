//! The transport abstraction between the federated round loop and its
//! clients.
//!
//! Algorithm 1 has one round shape — broadcast ω, clients work in
//! parallel, aggregate — and this module gives it one driver:
//!
//! * [`RoundTransport`] — the server-side contract: ship one round's
//!   [`TrainAssign`] to a **cohort** of live clients and stream each
//!   delivered update into an [`UpdateSink`] as it arrives (stragglers as
//!   typed errors). A full-participation round is simply the round whose
//!   cohort is the whole live registry,
//! * [`LoopbackClients`] — the one in-process executor: `Federation`
//!   rounds, the B1–B3 baselines, in-process distillation drains and the
//!   serve loopback all run its one wave loop, on one
//!   [`crate::trainer::TrainLane`] per pool thread,
//! * [`RoundRuntime`] — the one round loop: admission checks, straggler
//!   and violator drop + re-round, and aggregation under the round's
//!   [`Weighting`] — FedAvg sample counts folded on arrival, or Eq 12's
//!   server-MSE weights over the held cohort. Training rounds, `Federation`
//!   rounds and distillation drains (through `goldfish-core`'s adapter)
//!   all run on it,
//! * [`client_seed`] — the one place the per-client per-round RNG seed is
//!   derived, shared by every transport so remote workers reproduce the
//!   in-process run bit for bit.
//!
//! The networked implementation (`TcpTransport` in `goldfish-serve`) speaks
//! a length-prefixed binary protocol over `std::net` and plugs into the
//! same loop; DESIGN.md §10 specifies the wire format and the determinism
//! argument.

use std::collections::BTreeSet;
use std::sync::Arc;

use goldfish_data::Dataset;
use goldfish_telemetry::clock::Clock;
use goldfish_telemetry::events::{EventKind, Trace};
use goldfish_telemetry::registry::{Counter, Gauge, Histogram, Registry};

use crate::aggregate::{
    clip_update_into, delta_norm, l2_norm, AggregateError, AggregationMode, RoundAccumulator,
};
use crate::rows::ClientRows;
use crate::trainer::{Lanes, TrainConfig, TrainLane};
use crate::{eval, pool, ModelFactory};

/// Derives the seed of client `id` in round `round` from the round-loop
/// base seed. Every transport (in-process or remote) must use this exact
/// derivation for the runs to be bitwise identical.
pub fn client_seed(base: u64, id: usize, round: usize) -> u64 {
    base.wrapping_add((id as u64) << 32)
        .wrapping_add(round as u64)
}

/// Derives the base seed of round `round` from a schedule seed — the one
/// derivation `Federation::train_rounds` and the serve coordinator's
/// round loop share, so a daemon replaying a schedule stays bitwise
/// aligned with the in-process run.
pub fn round_seed(base: u64, round: usize) -> u64 {
    base.wrapping_add(round as u64).wrapping_mul(0x9E37_79B9)
}

/// Derives the round nonce shipped in every [`TrainAssign`] and echoed
/// back in every update: the admission layer's replay/stale-round
/// detector (DESIGN.md §13). One derivation shared by every transport,
/// like [`client_seed`].
pub fn round_nonce(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x517C_C1B7_2722_0A95)
        .wrapping_add((round as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// What the admission layer found wrong with an arriving update —
/// each variant a typed violation that earns the sender a strike,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateViolation {
    /// The state vector contains NaN or infinite values.
    NonFinite,
    /// The update's relative delta norm vs. the broadcast global
    /// exceeds the configured bound.
    DeltaNorm,
    /// The update's round nonce does not match this round's — a
    /// replayed or stale frame.
    StaleNonce {
        /// The nonce the frame carried.
        got: u64,
        /// This round's nonce.
        want: u64,
    },
    /// A second update from the same client within one round.
    Duplicate,
    /// Handling this client's reply panicked inside the coordinator
    /// (a poisoned frame or a faulted handler). The panic is confined
    /// to the sender: it earns a strike and costs the connection, never
    /// the coordinator.
    HandlerPanic,
}

impl UpdateViolation {
    /// The stable numeric code audit-log entries record (DESIGN.md §13).
    pub fn code(&self) -> u64 {
        match self {
            UpdateViolation::NonFinite => 1,
            UpdateViolation::DeltaNorm => 2,
            UpdateViolation::StaleNonce { .. } => 3,
            UpdateViolation::Duplicate => 4,
            UpdateViolation::HandlerPanic => 5,
        }
    }
}

impl std::fmt::Display for UpdateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateViolation::NonFinite => write!(f, "non-finite state values"),
            UpdateViolation::DeltaNorm => write!(f, "delta norm over the admission bound"),
            UpdateViolation::StaleNonce { got, want } => {
                write!(f, "stale round nonce {got:#x} (expected {want:#x})")
            }
            UpdateViolation::Duplicate => write!(f, "duplicate update in one round"),
            UpdateViolation::HandlerPanic => {
                write!(f, "reply handling panicked in the coordinator")
            }
        }
    }
}

/// Why a client failed to deliver its update this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The client did not answer within the transport's deadline.
    Timeout {
        /// The straggler's client id.
        client_id: usize,
    },
    /// The connection to the client is gone.
    Disconnected {
        /// The lost client's id.
        client_id: usize,
        /// Human-readable cause (I/O error text).
        reason: String,
    },
    /// The client answered with something protocol-invalid.
    Protocol {
        /// The offending client's id.
        client_id: usize,
        /// What was wrong with the reply.
        reason: String,
    },
    /// No client delivered an update, so the round cannot aggregate.
    NoLiveClients,
    /// The operation itself cannot be transported (a server-side
    /// configuration problem, not any client's fault).
    Unsupported {
        /// What cannot be shipped.
        reason: String,
    },
    /// An arriving update could not be parked: the round's resident
    /// in-flight update window is full (see
    /// [`crate::aggregate::RoundAccumulator`] and the coordinator's
    /// `update_window` knob).
    UpdateWindowExceeded {
        /// The configured window.
        limit: usize,
        /// The update that did not fit.
        client_id: usize,
    },
    /// A second `Update` frame from the same client within one round —
    /// the first was accepted, this one is rejected.
    DuplicateUpdate {
        /// The repeating client.
        client_id: usize,
    },
    /// The admission layer rejected the update as a typed violation
    /// (the sender earns a strike; see [`RobustConfig`]).
    Rejected {
        /// The offending client.
        client_id: usize,
        /// What the admission layer found.
        violation: UpdateViolation,
    },
    /// The client crossed its strike budget and has been evicted from
    /// the federation.
    Quarantined {
        /// The evicted client.
        client_id: usize,
    },
}

impl TransportError {
    /// The client this error is about (`None` for [`TransportError::NoLiveClients`]).
    pub fn client_id(&self) -> Option<usize> {
        match self {
            TransportError::Timeout { client_id }
            | TransportError::Disconnected { client_id, .. }
            | TransportError::Protocol { client_id, .. }
            | TransportError::UpdateWindowExceeded { client_id, .. }
            | TransportError::DuplicateUpdate { client_id }
            | TransportError::Rejected { client_id, .. }
            | TransportError::Quarantined { client_id } => Some(*client_id),
            TransportError::NoLiveClients | TransportError::Unsupported { .. } => None,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout { client_id } => {
                write!(f, "client {client_id} timed out")
            }
            TransportError::Disconnected { client_id, reason } => {
                write!(f, "client {client_id} disconnected: {reason}")
            }
            TransportError::Protocol { client_id, reason } => {
                write!(f, "client {client_id} protocol error: {reason}")
            }
            TransportError::NoLiveClients => write!(f, "no live clients"),
            TransportError::Unsupported { reason } => {
                write!(f, "unsupported operation: {reason}")
            }
            TransportError::UpdateWindowExceeded { limit, client_id } => {
                write!(
                    f,
                    "client {client_id}'s update exceeds the {limit}-update in-flight window"
                )
            }
            TransportError::DuplicateUpdate { client_id } => {
                write!(f, "client {client_id} sent a duplicate update this round")
            }
            TransportError::Rejected {
                client_id,
                violation,
            } => {
                write!(f, "client {client_id}'s update rejected: {violation}")
            }
            TransportError::Quarantined { client_id } => {
                write!(f, "client {client_id} is quarantined")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A state vector whose length does not match the model architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLenError {
    /// Length of the rejected vector.
    pub got: usize,
    /// The architecture's state length.
    pub want: usize,
}

impl StateLenError {
    /// Validates a state vector's length against the architecture's —
    /// the one check behind every `set_global_state` entry point.
    ///
    /// # Errors
    ///
    /// Returns the mismatch as a [`StateLenError`].
    pub fn check(got: usize, want: usize) -> Result<(), StateLenError> {
        if got != want {
            return Err(StateLenError { got, want });
        }
        Ok(())
    }
}

impl std::fmt::Display for StateLenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "state vector length {} does not match the model's {} parameters",
            self.got, self.want
        )
    }
}

impl std::error::Error for StateLenError {}

/// A deletion names a row its client's data does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowOutOfRange {
    /// The client whose data was to shrink.
    pub client_id: usize,
    /// The offending row, by original index.
    pub row: usize,
    /// The client's original row count.
    pub len: usize,
}

impl std::fmt::Display for RowOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed index {} out of {} local samples",
            self.row, self.len
        )
    }
}

impl std::error::Error for RowOutOfRange {}

/// A worker refuses such a deletion as a protocol error.
impl From<RowOutOfRange> for TransportError {
    fn from(e: RowOutOfRange) -> Self {
        let reason = e.to_string();
        TransportError::Protocol {
            client_id: e.client_id,
            reason,
        }
    }
}

/// One round's marching orders, broadcast to every client.
#[derive(Debug, Clone, Copy)]
pub struct TrainAssign<'a> {
    /// Round index (0-based).
    pub round: usize,
    /// Base seed; each client derives its own via [`client_seed`].
    pub seed: u64,
    /// This round's nonce ([`round_nonce`]): shipped with the
    /// assignment, echoed in every update, checked by the admission
    /// layer to reject stale/replayed frames.
    pub nonce: u64,
    /// The current global state vector.
    pub global: &'a [f32],
    /// Local training hyperparameters.
    pub cfg: &'a TrainConfig,
}

/// One update flowing through the streaming round path: a borrowed view
/// of a delivered state vector, fed to the aggregation sink the moment
/// it arrives.
#[derive(Debug, Clone, Copy)]
pub struct StreamedUpdate<'a> {
    /// The delivering client.
    pub client_id: usize,
    /// Aggregation weight (local sample count).
    pub num_samples: usize,
    /// The round nonce the update echoed (must match the assignment's).
    pub nonce: u64,
    /// The uploaded state vector.
    pub state: &'a [f32],
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

/// The per-arrival callback of [`RoundTransport::train_round`].
pub type UpdateSink<'s> = dyn FnMut(StreamedUpdate<'_>) -> Result<(), TransportError> + 's;

/// Server-side transport contract: deliver an assignment to a cohort of
/// live clients and stream their updates back.
///
/// A failed client is expected to be dropped from the live set, so later
/// rounds (and re-round attempts) simply no longer include it. Arrival
/// order is **unspecified**: [`RoundRuntime`] folds order-invariantly.
pub trait RoundTransport {
    /// The live registry: `(client_id, num_samples)` of every live
    /// client, **strictly ascending by id**, written into `out` (cleared
    /// first, so a warm vector never reallocates).
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>);

    /// Runs one training round over `cohort` (`(client_id, num_samples)`
    /// ascending by id — a subset of what
    /// [`RoundTransport::cohort_into`] reported; the whole of it for a
    /// full-participation round), feeding each delivered update to `sink`
    /// **as it arrives**. Clients outside the cohort are not contacted
    /// and produce no `results` entries. Pushes one entry per contacted
    /// client into `results` (cleared first, caller-owned so warm rounds
    /// don't allocate): `Ok(())` for a delivered-and-accepted update, the
    /// transport or sink error otherwise.
    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    );

    /// Permanently evicts a client the round loop has quarantined:
    /// the transport should drop its connection/resources and refuse
    /// readmission. The default cannot evict (returns `false`); the
    /// [`RoundRuntime`] excludes quarantined clients from every later
    /// cohort itself, so quarantine is enforced on any transport.
    fn quarantine(&mut self, _client_id: usize) -> bool {
        false
    }

    /// The lanes this process already holds for the clients, with the
    /// factory that built their networks: where [`RoundRuntime`] runs its
    /// server-side evaluation (Eq 12's upload scores, the per-round
    /// accuracy). `None` (the default — a wire transport, whose clients
    /// train elsewhere) makes the runtime evaluate on lanes of its own.
    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        None
    }
}

/// The in-process round executor — the only one: `Federation` rounds,
/// the B1–B3 baselines, the library's distillation and the serve
/// loopback all run on it.
/// Clients are datasets in this address space, each held by its
/// [`ClientRows`]: borrowed (the library's splits, forget rows included,
/// are never copied) or owned (a server's, which
/// [`LoopbackClients::remove_rows`] shrinks and a training round
/// commits).
/// Each round trains on [`Lanes`] in id-ordered waves
/// ([`LoopbackClients::feed_waves`]), so resident model memory is
/// `threads` lanes and one state, not one per cohort member.
///
/// Never produces stragglers: every entry is `Ok`.
pub struct LoopbackClients<'a> {
    factory: ModelFactory,
    clients: Vec<ClientRows<'a>>,
    lanes: Lanes,
    /// The one buffer each trained lane is exported into just before the
    /// sink reads it; reused across lanes, waves and rounds.
    export: Vec<f32>,
    /// Clients evicted via [`RoundTransport::quarantine`]: out of every
    /// later cohort, though their rows stay.
    quarantined: BTreeSet<usize>,
    /// The test set each trained client is scored on, when asked.
    scored: Option<&'a Dataset>,
    accuracies: Vec<f64>,
}

impl<'a> LoopbackClients<'a> {
    /// The given clients' rows (client `id` is the `id`-th) — borrowed
    /// datasets, owned ones or whole [`ClientRows`] stores — as an
    /// in-process transport running on `threads` pool threads.
    pub fn new(
        factory: &ModelFactory,
        clients: impl IntoIterator<Item = impl Into<ClientRows<'a>>>,
        threads: Option<usize>,
    ) -> Self {
        LoopbackClients {
            factory: Arc::clone(factory),
            clients: clients.into_iter().map(Into::into).collect(),
            lanes: Lanes::new(threads),
            export: Vec::new(),
            quarantined: BTreeSet::new(),
            scored: None,
            accuracies: Vec::new(),
        }
    }

    /// Also scores every upload's accuracy on `test`, on the lane that
    /// trained it (Fig 8's per-client error bars).
    pub(crate) fn scoring_on(mut self, test: &'a Dataset) -> Self {
        self.scored = Some(test);
        self
    }

    /// The last round attempt's upload accuracies, in cohort order
    /// (empty unless [`LoopbackClients::scoring_on`]).
    pub(crate) fn accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    /// The architecture every client runs.
    pub fn factory(&self) -> &ModelFactory {
        &self.factory
    }

    /// Client `id`'s rows (`None` for an unregistered id).
    pub fn rows(&self, id: usize) -> Option<&ClientRows<'a>> {
        self.clients.get(id)
    }

    /// The quarantined client ids, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantined.iter().copied()
    }

    /// The one in-process round: `run(id, rows, lane, item)` once per
    /// item, with `rows` its client's store (`client(i, item)` names item
    /// `i`'s client; ascending), in waves of one item per pool thread,
    /// each on the lane at its position in the wave — a lane carries
    /// capacity, never state, so which lane served a client cannot change
    /// a bit. After each wave, every lane's state is exported into the
    /// one export buffer and fed to `sink` in client order, before the
    /// next wave reuses the lanes: nothing is ever parked. `results`
    /// (cleared first) gets one entry per item.
    pub fn feed_waves<T: Send>(
        &mut self,
        items: &mut [T],
        client: impl Fn(usize, &T) -> usize + Sync,
        nonce: u64,
        run: impl Fn(usize, &ClientRows<'a>, &mut TrainLane, &mut T) + Sync,
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let (clients, export) = (&self.clients, &mut self.export);
        results.clear();
        self.lanes.waves(
            items,
            |i, lane, item| {
                let id = client(i, item);
                run(id, &clients[id], lane, item);
            },
            |first, lanes, items| {
                for (i, (lane, item)) in lanes.iter().zip(items.iter()).enumerate() {
                    let id = client(first + i, item);
                    lane.state_into(export);
                    results.push(sink(StreamedUpdate {
                        client_id: id,
                        num_samples: clients[id].live().len(),
                        nonce,
                        state: export,
                    }));
                }
            },
        );
    }

    /// The `Eval` exchange: every live client evaluates `global` on its
    /// rows, in id order, on the lanes.
    pub fn eval(&mut self, global: &[f32]) -> Vec<LocalEval> {
        let mut live = Vec::new();
        self.cohort_into(&mut live);
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
            |_, lane, e| {
                (e.accuracy, e.mse) = lane.eval(factory, global, clients[e.client_id].live())
            },
            |_, _, _| {},
        );
        evals
    }

    /// Deletes rows from clients' data for good — the one row shrink:
    /// each `(client_id, rows)` names original rows
    /// ([`ClientRows::remove`]: set semantics, so a row already gone is
    /// not removed again, and what it took becomes the client's forget
    /// rows); unregistered ids are skipped. A client named twice removes
    /// both lists at once; one not named forgets nothing.
    ///
    /// # Errors
    ///
    /// The first row past its client's original data, found before any
    /// client shrinks.
    pub fn remove_rows<'r>(
        &mut self,
        removals: impl IntoIterator<Item = (usize, &'r [usize])> + Clone,
    ) -> Result<(), RowOutOfRange> {
        for (client_id, rows) in removals.clone() {
            let Some(data) = self.clients.get(client_id) else {
                continue;
            };
            let len = data.original_len();
            if let Some(&row) = rows.iter().find(|&&row| row >= len) {
                return Err(RowOutOfRange {
                    client_id,
                    row,
                    len,
                });
            }
        }
        for (id, data) in self.clients.iter_mut().enumerate() {
            let named = removals.clone().into_iter().filter(|&(c, _)| c == id);
            let rows: Vec<usize> = named.flat_map(|(_, rows)| rows.iter().copied()).collect();
            data.remove(&rows);
        }
        Ok(())
    }

    /// Drops every client's forget rows ([`ClientRows::commit`]): the
    /// deletions that lent them are committed. A training round does
    /// this first.
    pub fn commit(&mut self) {
        self.clients.iter_mut().for_each(ClientRows::commit);
    }
}

impl RoundTransport for LoopbackClients<'_> {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.extend(
            self.clients
                .iter()
                .enumerate()
                .filter(|(id, _)| !self.quarantined.contains(id))
                .map(|(id, d)| (id, d.live().len())),
        );
    }

    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        // A training round commits every drained deletion.
        self.commit();
        let (factory, scored) = (Arc::clone(&self.factory), self.scored);
        let mut accuracies = std::mem::take(&mut self.accuracies);
        accuracies.clear();
        accuracies.resize(cohort.len(), 0.0);
        self.feed_waves(
            &mut accuracies,
            |i, _| cohort[i].0,
            assign.nonce,
            |id, rows, lane, accuracy| {
                let seed = client_seed(assign.seed, id, assign.round);
                lane.run(&factory, assign.global, rows.live(), assign.cfg, seed);
                if let Some(test) = scored {
                    let (net, ..) = lane.networks(&factory);
                    *accuracy = eval::accuracy(net, test);
                }
            },
            sink,
            results,
        );
        if scored.is_none() {
            accuracies.clear();
        }
        self.accuracies = accuracies;
    }

    /// Evicts `client_id` from every later cohort.
    fn quarantine(&mut self, client_id: usize) -> bool {
        client_id < self.clients.len() && self.quarantined.insert(client_id)
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        Some((&self.factory, &mut self.lanes))
    }
}

/// The echoed-nonce check every aggregation sink runs first: a frame from
/// another round is a typed, strike-earning violation.
fn check_nonce(u: &StreamedUpdate<'_>, want: u64) -> Result<(), TransportError> {
    if u.nonce == want {
        return Ok(());
    }
    Err(TransportError::Rejected {
        client_id: u.client_id,
        violation: UpdateViolation::StaleNonce { got: u.nonce, want },
    })
}

/// How a [`RoundRuntime::run_hot`] round weights its cohort (Eq 13's
/// mean is the same; only the weights differ).
#[derive(Clone, Copy)]
pub enum Weighting<'a> {
    /// FedAvg: each client's registered sample count, folded as updates
    /// arrive.
    Samples,
    /// Eqs 12–13: the round holds every admitted update, scores each by
    /// its server-side MSE on `test` ([`eval::mse`] of the uploaded
    /// state), and folds with the [`crate::aggregate::adaptive_weights`]
    /// of those scores.
    ServerMse {
        /// The architecture each upload is scored as, on the runtime's own
        /// lanes when the transport lends none
        /// ([`RoundTransport::lanes`]).
        factory: &'a ModelFactory,
        /// The server's held-out test set.
        test: &'a Dataset,
    },
}

/// The round loop's robustness policy (DESIGN.md §13): which fold to
/// run, when a partial cohort is good enough, and how many typed
/// violations a client survives before eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustConfig {
    /// The aggregation rule ([`AggregationMode::Mean`] = the bitwise
    /// reference path).
    pub mode: AggregationMode,
    /// Quorum fraction in `(0, 1]`: when an attempt ends with failures
    /// but at least `ceil(quorum · cohort)` updates folded, the round
    /// finishes **degraded** over the reported set instead of
    /// re-rounding. `None` keeps the strict everyone-or-re-round policy.
    pub quorum: Option<f64>,
    /// Strikes before quarantine; `0` disables quarantine (violations
    /// are still rejected, counted, and reported).
    pub max_strikes: u32,
    /// Admission bound on the relative delta norm
    /// `‖u − g‖ / (1 + ‖g‖)`; over it the update is rejected as a
    /// [`UpdateViolation::DeltaNorm`]. Ignored under
    /// [`AggregationMode::NormClipped`], which clips instead of
    /// rejecting.
    pub max_delta_norm: Option<f64>,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            mode: AggregationMode::Mean,
            quorum: None,
            max_strikes: 0,
            max_delta_norm: None,
        }
    }
}

/// How the last [`RoundRuntime::run_hot`] round concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundOutcome {
    /// The round folded a quorum subset instead of the full cohort.
    pub degraded: bool,
    /// Cohort members whose updates were folded.
    pub reported: usize,
    /// The cohort size the round aggregated over.
    pub cohort: usize,
}

/// A reputation event the round loop emitted — drained via
/// [`RoundRuntime::drain_events`] so the serve coordinator can append
/// it to the hash-chained audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RobustnessEvent {
    /// A client's update was rejected by the admission layer.
    Violation {
        /// The offending client.
        client_id: usize,
        /// What the admission layer found.
        violation: UpdateViolation,
        /// The client's strike count after this violation.
        strikes: u32,
    },
    /// A client crossed its strike budget and was evicted.
    Quarantined {
        /// The evicted client.
        client_id: usize,
        /// The strike count that crossed the budget.
        strikes: u32,
    },
}

/// The round loop's telemetry handles (DESIGN.md §15): counters, gauges
/// and latency histograms the [`RoundRuntime`] updates as it folds, plus
/// the event [`Trace`] and the [`Clock`] every span is timed against.
///
/// `Default` is fully **detached**: every handle counts into an
/// unexported atomic and the trace is disabled, so an uninstrumented
/// runtime pays one relaxed atomic op per update and nothing more.
/// [`RoundMetrics::register`] binds the same handles into a
/// [`Registry`] for export. Handles are `Arc`-backed — cloning one is a
/// refcount bump, never an allocation — and no value read from them
/// ever feeds back into aggregation, so telemetry-on and telemetry-off
/// runs stay bitwise identical (pinned by the serve telemetry suite).
#[derive(Debug, Clone, Default)]
pub struct RoundMetrics {
    /// The span-timing clock.
    pub clock: Clock,
    /// The structured event ring (disabled by default).
    pub trace: Trace,
    /// Rounds committed (full or degraded).
    pub rounds_total: Counter,
    /// Rounds that committed on a quorum (partial) fold.
    pub rounds_degraded_total: Counter,
    /// Extra attempts the re-round loop ran after drops/rejections.
    pub reround_attempts_total: Counter,
    /// Updates accepted by the admission layer and folded.
    pub updates_admitted_total: Counter,
    /// Rejections: non-finite state values.
    pub rejected_non_finite: Counter,
    /// Rejections: delta norm over the admission bound.
    pub rejected_delta_norm: Counter,
    /// Rejections: stale/replayed round nonce.
    pub rejected_stale_nonce: Counter,
    /// Rejections: duplicate update within one round.
    pub rejected_duplicate: Counter,
    /// Rejections: reply handling panicked in the coordinator.
    pub rejected_handler_panic: Counter,
    /// Strikes charged by the reputation ledger.
    pub strikes_total: Counter,
    /// Clients evicted over the strike budget.
    pub quarantines_total: Counter,
    /// Cohort size of the current/last attempt.
    pub cohort_size: Gauge,
    /// High-water mark of simultaneously resident updates.
    pub resident_peak: Gauge,
    /// Per-update aggregation fold latency.
    pub agg_fold_seconds: Histogram,
    /// Sampled-cohort draw latency.
    pub cohort_draw_seconds: Histogram,
}

impl RoundMetrics {
    /// Registers every handle in `registry` (idempotent by name) and
    /// stamps spans/events with `clock`/`trace`.
    pub fn register(registry: &Registry, clock: Clock, trace: Trace) -> RoundMetrics {
        let rej = |kind: &str| {
            registry.counter(
                &format!("goldfish_updates_rejected_total{{kind=\"{kind}\"}}"),
                "updates rejected by the admission layer, by violation kind",
            )
        };
        RoundMetrics {
            clock,
            trace,
            rounds_total: registry.counter("goldfish_rounds_total", "training rounds committed"),
            rounds_degraded_total: registry.counter(
                "goldfish_rounds_degraded_total",
                "rounds committed on a quorum (partial) fold",
            ),
            reround_attempts_total: registry.counter(
                "goldfish_reround_attempts_total",
                "extra round attempts after straggler drops or rejections",
            ),
            updates_admitted_total: registry.counter(
                "goldfish_updates_admitted_total",
                "updates accepted by the admission layer and folded",
            ),
            rejected_non_finite: rej("non_finite"),
            rejected_delta_norm: rej("delta_norm"),
            rejected_stale_nonce: rej("stale_nonce"),
            rejected_duplicate: rej("duplicate"),
            rejected_handler_panic: rej("handler_panic"),
            strikes_total: registry.counter(
                "goldfish_strikes_total",
                "strikes charged by the reputation ledger",
            ),
            quarantines_total: registry.counter(
                "goldfish_quarantines_total",
                "clients evicted over the strike budget",
            ),
            cohort_size: registry.gauge(
                "goldfish_cohort_size",
                "cohort size of the current/last round attempt",
            ),
            resident_peak: registry.gauge(
                "goldfish_resident_updates_peak",
                "high-water mark of simultaneously resident updates",
            ),
            agg_fold_seconds: registry.histogram(
                "goldfish_agg_fold_seconds",
                "per-update aggregation fold latency",
            ),
            cohort_draw_seconds: registry.histogram(
                "goldfish_cohort_draw_seconds",
                "sampled-cohort draw latency",
            ),
        }
    }

    /// The rejection counter of one violation kind.
    pub(crate) fn rejected(&self, violation: &UpdateViolation) -> &Counter {
        match violation {
            UpdateViolation::NonFinite => &self.rejected_non_finite,
            UpdateViolation::DeltaNorm => &self.rejected_delta_norm,
            UpdateViolation::StaleNonce { .. } => &self.rejected_stale_nonce,
            UpdateViolation::Duplicate => &self.rejected_duplicate,
            UpdateViolation::HandlerPanic => &self.rejected_handler_panic,
        }
    }
}

/// The one federated round loop, behind coordinator training rounds,
/// `Federation` rounds and distillation drains alike. A `RoundRuntime`
/// feeds each update into a [`RoundAccumulator`] **as it arrives**: under
/// [`Weighting::Samples`] it folds on arrival (FedAvg weights from the
/// transport's registry), so aggregation overlaps with stragglers' I/O,
/// memory holds at most the configured window of resident updates, and a
/// warm runtime performs **zero heap allocations per round** on a
/// single-thread pool (pinned by `tests/alloc_free_round.rs`; larger
/// pools pay only the scope machinery's task-queue allocations, never
/// per-update state buffers). Under [`Weighting::ServerMse`] it holds the
/// cohort and applies Eqs 12–13 once it is complete.
///
/// Under the default [`RobustConfig`] (mean, no quorum, no bounds) the
/// aggregate is bitwise identical to [`crate::aggregate::weighted_mean`]
/// over the same cohort and weights — see [`RoundAccumulator`] for the
/// argument and DESIGN.md §11/§13 for the invariants. The runtime also
/// owns the **admission layer** (nonce, delta-norm, duplicate, finite
/// checks) and the per-client strike/quarantine reputation state, so
/// every transport gets the same defense.
#[derive(Debug)]
pub struct RoundRuntime {
    agg: RoundAccumulator,
    cohort: Vec<(usize, usize)>,
    weights: Vec<(usize, f64)>,
    results: Vec<Result<(), TransportError>>,
    clip_buf: Vec<f32>,
    threads: Option<usize>,
    window: usize,
    robust: RobustConfig,
    /// Per-round cohort fraction (DESIGN.md §14); `None` keeps the
    /// everyone-every-round behaviour.
    sampling: Option<f64>,
    /// Live-registry snapshot scratch.
    registry: Vec<(usize, usize)>,
    /// The round's pinned cohort — the sampled draw, or the whole
    /// registry (eligibility is fixed before the first attempt; re-round
    /// attempts only ever shrink it).
    pinned: Vec<(usize, usize)>,
    /// Rank scratch of [`crate::sampling::sample_cohort_into`].
    rank_scratch: Vec<(u64, usize, usize)>,
    /// Lifetime strike counts, `(client_id, strikes)` ascending by id.
    strikes: Vec<(usize, u32)>,
    /// Clients evicted for crossing the strike budget — excluded from
    /// every later cohort even when the transport cannot evict them.
    quarantined: BTreeSet<usize>,
    events: Vec<RobustnessEvent>,
    outcome: RoundOutcome,
    /// Telemetry handles (detached unless [`RoundRuntime::set_metrics`]
    /// bound them to a registry).
    metrics: RoundMetrics,
    /// The lanes server-side evaluation runs on when the transport lends
    /// none (empty until first used).
    lanes: Lanes,
}

impl RoundRuntime {
    /// Builds a runtime. `threads` pins the compute pool
    /// ([`pool::install`] semantics); `window` caps simultaneously
    /// resident (parked) updates per round, `0` meaning "auto" (the
    /// cohort size — never exceeded, memory bounded by the fleet).
    pub fn new(threads: Option<usize>, window: usize) -> Self {
        RoundRuntime {
            agg: RoundAccumulator::new(),
            cohort: Vec::new(),
            weights: Vec::new(),
            results: Vec::new(),
            clip_buf: Vec::new(),
            threads,
            window,
            robust: RobustConfig::default(),
            sampling: None,
            registry: Vec::new(),
            pinned: Vec::new(),
            rank_scratch: Vec::new(),
            strikes: Vec::new(),
            quarantined: BTreeSet::new(),
            events: Vec::new(),
            outcome: RoundOutcome::default(),
            metrics: RoundMetrics::default(),
            lanes: Lanes::new(threads),
        }
    }

    /// Binds the runtime's telemetry handles (typically
    /// [`RoundMetrics::register`]ed into the coordinator's registry).
    /// Purely observational: metric values never feed back into
    /// aggregation, so this cannot change round outputs.
    pub fn set_metrics(&mut self, metrics: RoundMetrics) {
        self.metrics = metrics;
    }

    /// Enables (or disables, with `None`) per-round cohort sampling:
    /// each [`RoundRuntime::run_hot`] round draws a deterministic
    /// `ceil(fraction · registry)` cohort via
    /// [`crate::sampling::sample_cohort_into`], seeded from the round
    /// seed, instead of assigning every registered client.
    pub fn set_sampling(&mut self, fraction: Option<f64>) {
        self.sampling = fraction;
    }

    /// Installs a robustness policy (takes effect next round).
    pub fn set_robustness(&mut self, cfg: RobustConfig) {
        self.robust = cfg;
    }

    /// High-water mark of simultaneously resident updates in the last
    /// round.
    pub fn peak_resident(&self) -> usize {
        self.agg.peak_resident()
    }

    /// The `(client_id, num_samples)` cohort the last round aggregated
    /// over, ascending by id.
    pub fn last_cohort(&self) -> &[(usize, usize)] {
        &self.cohort
    }

    /// How the last round concluded (degraded vs. full).
    pub fn last_outcome(&self) -> RoundOutcome {
        self.outcome
    }

    /// Lifetime strike count of a client.
    pub fn strikes(&self, client_id: usize) -> u32 {
        self.strikes
            .binary_search_by_key(&client_id, |&(id, _)| id)
            .map(|i| self.strikes[i].1)
            .unwrap_or(0)
    }

    /// Whether a client has been quarantined.
    pub fn is_quarantined(&self, client_id: usize) -> bool {
        self.quarantined.contains(&client_id)
    }

    /// The quarantined client ids, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantined.iter().copied()
    }

    /// Drains the violation/quarantine events accumulated since the
    /// last drain (the serve coordinator appends them to the audit
    /// chain).
    pub fn drain_events(&mut self) -> Vec<RobustnessEvent> {
        std::mem::take(&mut self.events)
    }

    /// Adds one strike, returning `(strikes_now, newly_quarantined)`.
    fn add_strike(&mut self, client_id: usize) -> (u32, bool) {
        let i = match self.strikes.binary_search_by_key(&client_id, |&(id, _)| id) {
            Ok(i) => i,
            Err(i) => {
                self.strikes.insert(i, (client_id, 0));
                i
            }
        };
        self.strikes[i].1 += 1;
        let now = self.strikes[i].1;
        let evict = self.robust.max_strikes > 0
            && now >= self.robust.max_strikes
            && !self.quarantined.contains(&client_id);
        if evict {
            self.quarantined.insert(client_id);
        }
        (now, evict)
    }

    /// Records one committed round into the telemetry handles (counters,
    /// peak gauge, trace event). No allocation, no feedback into the
    /// aggregate.
    fn commit_metrics(&self, round: usize) {
        self.metrics.rounds_total.inc();
        if self.outcome.degraded {
            self.metrics.rounds_degraded_total.inc();
        }
        self.metrics
            .resident_peak
            .set_max(self.agg.peak_resident() as i64);
        self.metrics.trace.record(EventKind::RoundCommitted {
            round: round as u64,
            reported: self.outcome.reported as u64,
            cohort: self.outcome.cohort as u64,
            degraded: u64::from(self.outcome.degraded),
        });
    }

    /// Test-set accuracy of `state` — a round's per-round accuracy —
    /// on the transport's lanes ([`RoundTransport::lanes`]), or on the
    /// runtime's own, built by `factory`, when it lends none. Bitwise
    /// `eval::accuracy` of a fresh network: a lane carries capacity,
    /// never state.
    pub fn accuracy(
        &mut self,
        transport: &mut dyn RoundTransport,
        factory: &ModelFactory,
        state: &[f32],
        test: &Dataset,
    ) -> f64 {
        let mut item = [(state, 0.0)];
        evaluate(
            &mut self.lanes,
            self.threads,
            transport,
            factory,
            test,
            &mut item,
            |(a, _)| a,
        );
        item[0].1
    }

    /// Applies Eqs 12–13 to a held round about to finish: every held
    /// upload is scored by its server-side MSE on the lanes
    /// [`RoundRuntime::accuracy`] runs on. A no-op under
    /// [`Weighting::Samples`].
    fn reweight(&mut self, transport: &mut dyn RoundTransport, weighting: Weighting<'_>) {
        if let Weighting::ServerMse { factory, test } = weighting {
            let (own, threads) = (&mut self.lanes, self.threads);
            self.agg.reweight_adaptive(|held| {
                evaluate(own, threads, transport, factory, test, held, |(_, mse)| mse)
            });
        }
    }

    /// Rebuilds `self.cohort`: the pinned members that are still live,
    /// not quarantined and not excluded this round — a mid-round
    /// disconnect shrinks the attempt, it never re-draws (DESIGN.md §14).
    fn refresh_cohort(&mut self, transport: &dyn RoundTransport, excluded: &BTreeSet<usize>) {
        transport.cohort_into(&mut self.registry);
        let registry = &self.registry;
        let quarantined = &self.quarantined;
        self.cohort.clear();
        self.cohort
            .extend(self.pinned.iter().copied().filter(|&(id, _)| {
                registry.binary_search_by_key(&id, |&(rid, _)| rid).is_ok()
                    && !quarantined.contains(&id)
                    && !excluded.contains(&id)
            }));
    }

    /// Runs one streamed federated round over `transport` and writes the
    /// aggregate into `global_out` (reused, so a warm call never
    /// allocates). When some clients fail and the transport dropped them,
    /// the round re-runs over the shrunken cohort; an error that shrinks
    /// nothing (e.g. a window overflow on a transport that cannot drop
    /// clients) is propagated instead of retried forever.
    ///
    /// Robustness extensions (DESIGN.md §13):
    ///
    /// * every update passes the **admission layer** first — round-nonce
    ///   match, cohort membership + registered weight, optional
    ///   delta-norm bound (or clipping under
    ///   [`AggregationMode::NormClipped`]), duplicate and finite checks
    ///   in the accumulator;
    /// * a typed violation earns the sender a strike (at most one per
    ///   round): the violator is **excluded from this round's re-round
    ///   attempts** (not contacted again) and quarantined for good once
    ///   it crosses [`RobustConfig::max_strikes`];
    /// * when an attempt ends with failures but the fold holds at least
    ///   `ceil(quorum · cohort)` updates, the round finishes **degraded**
    ///   over the reported set ([`RoundOutcome::degraded`]) instead of
    ///   re-rounding.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveClients`] when nobody delivers; otherwise
    /// the first client error of a non-shrinking, under-quorum attempt.
    pub fn run_hot(
        &mut self,
        transport: &mut dyn RoundTransport,
        assign: &TrainAssign<'_>,
        weighting: Weighting<'_>,
        global_out: &mut Vec<f32>,
    ) -> Result<(), TransportError> {
        // Violators excluded from this round's later attempts (strike
        // already taken; a still-connected attacker cannot wedge the
        // re-round loop).
        let mut excluded: BTreeSet<usize> = BTreeSet::new();
        let global_norm = l2_norm(assign.global);
        // The round pins its cohort **once**, before any attempt: the
        // sampled draw is a pure function of (round seed, registry,
        // fraction), so eligibility cannot drift when re-round attempts
        // shrink the live set (DESIGN.md §14). Full participation is the
        // round whose pinned cohort is the whole registry.
        transport.cohort_into(&mut self.registry);
        self.registry
            .retain(|&(id, _)| !self.quarantined.contains(&id));
        match self.sampling {
            Some(fraction) => {
                let draw_start = self.metrics.clock.now_nanos();
                crate::sampling::sample_cohort_into(
                    crate::sampling::cohort_seed(assign.seed),
                    fraction,
                    &self.registry,
                    &mut self.pinned,
                    &mut self.rank_scratch,
                );
                self.metrics
                    .cohort_draw_seconds
                    .observe_nanos(self.metrics.clock.now_nanos().saturating_sub(draw_start));
            }
            None => std::mem::swap(&mut self.pinned, &mut self.registry),
        }
        self.refresh_cohort(transport, &excluded);
        let mut attempt: u64 = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                self.metrics.reround_attempts_total.inc();
                self.metrics.trace.record(EventKind::ReRound {
                    round: assign.round as u64,
                    attempt,
                });
            }
            if self.cohort.is_empty() {
                return Err(TransportError::NoLiveClients);
            }
            let n_before = self.cohort.len();
            self.metrics.cohort_size.set(n_before as i64);
            if attempt == 1 {
                self.metrics.trace.record(EventKind::RoundStarted {
                    round: assign.round as u64,
                    cohort: n_before as u64,
                });
            }
            self.weights.clear();
            self.weights
                .extend(self.cohort.iter().map(|&(id, n)| (id, n.max(1) as f64)));
            let window = if self.window == 0 {
                n_before
            } else {
                self.window
            };
            self.agg
                .begin(self.robust.mode, &self.weights, assign.global.len(), window);
            if let Weighting::ServerMse { .. } = weighting {
                self.agg.hold();
            }
            let clip_limit = match self.robust.mode {
                AggregationMode::NormClipped { limit } => Some(limit),
                _ => None,
            };
            let max_delta = self.robust.max_delta_norm;
            let agg = &mut self.agg;
            let clip_buf = &mut self.clip_buf;
            let cohort = &self.cohort;
            let skip = &self.quarantined;
            let skip2 = &excluded;
            let results = &mut self.results;
            let metrics = &self.metrics;
            pool::install(self.threads, || {
                let sink = &mut |u: StreamedUpdate<'_>| {
                    // Already-judged (or evicted) senders: discard, the
                    // strike was taken when the violation happened.
                    if skip.contains(&u.client_id) || skip2.contains(&u.client_id) {
                        return Ok(());
                    }
                    // Replay/stale-round detection before anything else:
                    // a frame from another round proves nothing about
                    // this one.
                    check_nonce(&u, assign.nonce)?;
                    // The registered weight is what the fractions were
                    // computed from; an upload disagreeing with it would
                    // silently change the mean.
                    match cohort.binary_search_by_key(&u.client_id, |&(id, _)| id) {
                        Ok(i) if cohort[i].1 == u.num_samples => {}
                        Ok(i) => {
                            return Err(TransportError::Protocol {
                                client_id: u.client_id,
                                reason: format!(
                                    "update weight {} disagrees with the registered {}",
                                    u.num_samples, cohort[i].1
                                ),
                            })
                        }
                        Err(_) => {
                            return Err(TransportError::Protocol {
                                client_id: u.client_id,
                                reason: "update from a client outside the cohort".into(),
                            })
                        }
                    }
                    // Norm policy: clip under NormClipped (an update
                    // under the limit passes through bitwise-untouched),
                    // reject over an explicit admission bound otherwise.
                    let mut state = u.state;
                    if let Some(limit) = clip_limit {
                        let rel = delta_norm(assign.global, u.state) / (1.0 + global_norm);
                        if rel.is_finite() && rel > limit {
                            clip_update_into(assign.global, u.state, limit / rel, clip_buf);
                            state = clip_buf;
                        }
                    } else if let Some(limit) = max_delta {
                        let rel = delta_norm(assign.global, u.state) / (1.0 + global_norm);
                        if rel > limit {
                            return Err(TransportError::Rejected {
                                client_id: u.client_id,
                                violation: UpdateViolation::DeltaNorm,
                            });
                        }
                    }
                    let fold_start = metrics.clock.now_nanos();
                    let folded = agg
                        .offer(u.client_id, state)
                        .map_err(|e| map_aggregate_error(u.client_id, e));
                    metrics
                        .agg_fold_seconds
                        .observe_nanos(metrics.clock.now_nanos().saturating_sub(fold_start));
                    if folded.is_ok() {
                        metrics.updates_admitted_total.inc();
                    }
                    folded
                };
                transport.train_round(assign, cohort, sink, results);
            });
            if self.results.is_empty() {
                return Err(TransportError::NoLiveClients);
            }
            // Reputation pass: one strike per violator per round. The
            // violator is excluded from this round's re-rounds, and
            // evicted for good once over the budget.
            let mut newly_excluded = false;
            for i in 0..self.results.len() {
                let offender = match &self.results[i] {
                    Err(TransportError::Rejected {
                        client_id,
                        violation,
                    }) => Some((*client_id, violation.clone())),
                    Err(TransportError::DuplicateUpdate { client_id }) => {
                        Some((*client_id, UpdateViolation::Duplicate))
                    }
                    _ => None,
                };
                let Some((client_id, violation)) = offender else {
                    continue;
                };
                if excluded.contains(&client_id) || self.quarantined.contains(&client_id) {
                    continue;
                }
                excluded.insert(client_id);
                newly_excluded = true;
                let (strikes, evicted) = self.add_strike(client_id);
                self.metrics.rejected(&violation).inc();
                self.metrics.strikes_total.inc();
                self.metrics.trace.record(EventKind::ClientRejected {
                    round: assign.round as u64,
                    client: client_id as u64,
                    violation: violation.code(),
                    strikes: u64::from(strikes),
                });
                self.events.push(RobustnessEvent::Violation {
                    client_id,
                    violation,
                    strikes,
                });
                if evicted {
                    transport.quarantine(client_id);
                    self.metrics.quarantines_total.inc();
                    self.metrics.trace.record(EventKind::Quarantined {
                        client: client_id as u64,
                        strikes: u64::from(strikes),
                    });
                    self.events
                        .push(RobustnessEvent::Quarantined { client_id, strikes });
                }
            }
            let first_err = self.results.iter().find_map(|r| r.as_ref().err().cloned());
            if self.agg.is_complete() {
                // Every cohort member folded; late violations (e.g. a
                // duplicate second frame) were already charged above.
                self.reweight(transport, weighting);
                self.agg
                    .finish_into(global_out)
                    .expect("complete accumulator");
                self.outcome = RoundOutcome {
                    degraded: false,
                    reported: n_before,
                    cohort: n_before,
                };
                self.commit_metrics(assign.round);
                return Ok(());
            }
            // Quorum-degraded finish: enough of the cohort reported —
            // fold what arrived (deterministically, over the id-sorted
            // reported set) instead of re-rounding.
            if let Some(q) = self.robust.quorum {
                let reported = self.agg.offered_count();
                let needed = ((q * n_before as f64).ceil() as usize).clamp(1, n_before);
                if reported >= needed {
                    self.reweight(transport, weighting);
                    self.agg
                        .finish_partial_into(global_out)
                        .expect("quorum implies a non-empty fold");
                    self.outcome = RoundOutcome {
                        degraded: true,
                        reported,
                        cohort: n_before,
                    };
                    self.commit_metrics(assign.round);
                    return Ok(());
                }
            }
            match first_err {
                None => {
                    // Every result Ok but cohort members missing: the
                    // transport under-delivered without reporting.
                    return Err(TransportError::NoLiveClients);
                }
                Some(e) => {
                    if self.results.iter().all(|r| r.is_err()) {
                        return Err(TransportError::NoLiveClients);
                    }
                    // Progress is measured against the **pinned cohort**,
                    // not the whole registry: losing one sampled
                    // straggler leaves thousands of live clients, so
                    // the registry would never shrink and the error
                    // would wrongly propagate.
                    self.refresh_cohort(transport, &excluded);
                    let remaining = self.cohort.len();
                    if remaining > 0 && (remaining < n_before || newly_excluded) {
                        // Progress was made — stragglers dropped from the
                        // live set or violators excluded from the cohort;
                        // re-round over the survivors (training is
                        // deterministic — a re-round costs time, never
                        // changes results).
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Scores every `(state, score)` item on `test` with `pick` of its
/// `(accuracy, mse)`, in waves as wide as `threads`: on the transport's
/// lanes with the factory that built them, so no lane rebuilds its
/// network, or on `own` with `factory`.
fn evaluate(
    own: &mut Lanes,
    threads: Option<usize>,
    transport: &mut dyn RoundTransport,
    factory: &ModelFactory,
    test: &Dataset,
    items: &mut [(&[f32], f64)],
    pick: fn((f64, f64)) -> f64,
) {
    let (factory, lanes) = match transport.lanes() {
        Some(lent) => lent,
        None => (factory, own),
    };
    let score = |_, lane: &mut TrainLane, (state, score): &mut (&[f32], f64)| {
        *score = pick(lane.eval(factory, state, test))
    };
    pool::install(threads, || lanes.waves(items, score, |_, _, _| {}));
}

fn map_aggregate_error(client_id: usize, e: AggregateError) -> TransportError {
    match e {
        AggregateError::WindowExceeded { limit, .. } => {
            TransportError::UpdateWindowExceeded { limit, client_id }
        }
        AggregateError::DuplicateUpdate { .. } => TransportError::DuplicateUpdate { client_id },
        AggregateError::Diverged { .. } => TransportError::Rejected {
            client_id,
            violation: UpdateViolation::NonFinite,
        },
        other => TransportError::Protocol {
            client_id,
            reason: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{adaptive_weights, weighted_mean, ClientUpdate};
    use crate::trainer::train_local_ce;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_nn::zoo;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fixture() -> (ModelFactory, Vec<Dataset>, Dataset, TrainConfig) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (train, test) = synthetic::generate(&spec, 120, 40, 5);
        let (c0, c1) = train.split_at(60);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[12], 10, &mut rng)
        });
        let cfg = TrainConfig {
            local_epochs: 1,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
        };
        (factory, vec![c0, c1], test, cfg)
    }

    /// The oracle round: every client trained directly from the
    /// assignment, in id order.
    fn direct_updates(
        factory: &ModelFactory,
        clients: &[Dataset],
        assign: &TrainAssign<'_>,
    ) -> Vec<ClientUpdate> {
        (0..clients.len())
            .map(|id| {
                let seed = client_seed(assign.seed, id, assign.round);
                let mut net = (factory)(seed);
                net.set_state_vector(assign.global);
                train_local_ce(&mut net, &clients[id], assign.cfg, seed);
                ClientUpdate {
                    client_id: id,
                    state: net.state_vector(),
                    num_samples: clients[id].len(),
                }
            })
            .collect()
    }

    #[test]
    fn loopback_matches_direct_execution() {
        let (factory, clients, _test, cfg) = fixture();
        let global = (factory)(0).state_vector();
        let mut lb = LoopbackClients::new(&factory, &clients, Some(2));
        let assign = TrainAssign {
            round: 3,
            seed: 9,
            nonce: round_nonce(9, 3),
            global: &global,
            cfg: &cfg,
        };
        let mut cohort = Vec::new();
        lb.cohort_into(&mut cohort);
        let (mut got, mut results) = (Vec::new(), Vec::new());
        lb.train_round(
            &assign,
            &cohort,
            &mut |u| {
                got.push((u.client_id, u.num_samples, u.nonce, u.state.to_vec()));
                Ok(())
            },
            &mut results,
        );
        assert_eq!(results, vec![Ok(()), Ok(())]);
        let want = direct_updates(&factory, &clients, &assign);
        for ((id, n, nonce, state), u) in got.into_iter().zip(want) {
            assert_eq!((id, n, nonce), (u.client_id, u.num_samples, assign.nonce));
            assert_eq!(state, u.state);
        }
    }

    #[test]
    fn round_runtime_matches_buffered_round_bitwise() {
        let (factory, clients, test, cfg) = fixture();
        let global = (factory)(1).state_vector();
        let assign = TrainAssign {
            round: 2,
            seed: 17,
            nonce: round_nonce(17, 2),
            global: &global,
            cfg: &cfg,
        };
        // The oracle: direct training, then `weighted_mean` over sample
        // counts or over Eq 12's weights of each state's test MSE.
        let updates = direct_updates(&factory, &clients, &assign);
        let samples: Vec<f64> = updates.iter().map(|u| u.num_samples as f64).collect();
        let mses: Vec<f64> = updates
            .iter()
            .map(|u| {
                let mut net = (factory)(0);
                net.set_state_vector(&u.state);
                eval::mse(&mut net, &test)
            })
            .collect();
        let fedavg = weighted_mean(&updates, &samples);
        let adaptive = weighted_mean(&updates, &adaptive_weights(&mses));
        assert_ne!(fedavg, adaptive);

        // The runtime, several windows and thread counts.
        for (threads, window) in [(1, 0), (2, 0), (4, 1), (2, 64)] {
            let mut rt = RoundRuntime::new(Some(threads), window);
            for (weighting, want) in [
                (Weighting::Samples, &fedavg),
                (
                    Weighting::ServerMse {
                        factory: &factory,
                        test: &test,
                    },
                    &adaptive,
                ),
            ] {
                let mut lb = LoopbackClients::new(&factory, &clients, Some(threads));
                let mut got = Vec::new();
                rt.run_hot(&mut lb, &assign, weighting, &mut got).unwrap();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "threads {threads} window {window}"
                );
                assert!(rt.peak_resident() <= clients.len());
            }
        }
    }

    #[test]
    fn run_hot_propagates_window_overflow_without_spinning() {
        // A transport that always feeds its (valid) updates in reverse
        // id order and never drops clients: with a 1-update window the
        // out-of-order arrivals overflow, and because the live set did
        // not shrink, `run_hot` must propagate the typed error instead
        // of re-rounding forever.
        let updates: Vec<ClientUpdate> = (0..4)
            .map(|id| ClientUpdate {
                client_id: id,
                state: vec![id as f32; 3],
                num_samples: 5,
            })
            .collect();
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 3];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: (0..4).map(|id| (id, 5)).collect(),
            frames: updates
                .iter()
                .rev()
                .map(|u| (u.client_id, 5, None, u.state.clone()))
                .collect(),
            timeouts: vec![],
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 1);
        let mut out = Vec::new();
        let err = rt
            .run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, TransportError::UpdateWindowExceeded { limit: 1, .. }),
            "got {err:?}"
        );
        // No client was lost to the coordinator's own capacity policy.
        let mut live = Vec::new();
        transport.cohort_into(&mut live);
        assert_eq!(live.len(), 4);

        // A window that fits the reversal succeeds, bitwise equal to
        // `weighted_mean` over the sample counts.
        let mut rt = RoundRuntime::new(Some(1), 4);
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, weighted_mean(&updates, &[5.0; 4]));
        assert_eq!(rt.peak_resident(), 4);
    }

    #[test]
    fn round_seed_matches_legacy_formula() {
        for (base, r) in [(0u64, 0usize), (42, 3), (u64::MAX, 17)] {
            assert_eq!(
                round_seed(base, r),
                base.wrapping_add(r as u64).wrapping_mul(0x9E37_79B9)
            );
        }
    }

    #[test]
    fn client_seed_matches_legacy_formula() {
        // The derivation the pre-refactor loops inlined.
        for (base, id, round) in [(0u64, 0usize, 0usize), (42, 3, 7), (u64::MAX, 17, 2)] {
            let want = base
                .wrapping_add((id as u64) << 32)
                .wrapping_add(round as u64);
            assert_eq!(client_seed(base, id, round), want);
        }
    }

    /// A scripted transport for admission/robustness tests: feeds the
    /// given frames (optionally with a forged nonce) in order, reports
    /// scripted transport errors, and honors quarantine by dropping the
    /// client from its registry.
    struct ScriptedFeed {
        cohort: Vec<(usize, usize)>,
        /// `(client_id, num_samples, forged_nonce, state)`.
        frames: Vec<(usize, usize, Option<u64>, Vec<f32>)>,
        /// Clients that report a transport error instead of a frame.
        timeouts: Vec<usize>,
        quarantined: Vec<usize>,
    }

    impl RoundTransport for ScriptedFeed {
        fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
            out.clear();
            out.extend(
                self.cohort
                    .iter()
                    .filter(|&&(id, _)| !self.quarantined.contains(&id)),
            );
        }
        fn train_round(
            &mut self,
            assign: &TrainAssign<'_>,
            cohort: &[(usize, usize)],
            sink: &mut UpdateSink<'_>,
            results: &mut Vec<Result<(), TransportError>>,
        ) {
            let contacted = |id: usize| cohort.iter().any(|&(cid, _)| cid == id);
            results.clear();
            for &(id, n, forged, ref state) in &self.frames {
                if !contacted(id) {
                    continue;
                }
                results.push(sink(StreamedUpdate {
                    client_id: id,
                    num_samples: n,
                    nonce: forged.unwrap_or(assign.nonce),
                    state,
                }));
            }
            for &id in self.timeouts.iter().filter(|&&id| contacted(id)) {
                results.push(Err(TransportError::Timeout { client_id: id }));
            }
        }
        fn quarantine(&mut self, client_id: usize) -> bool {
            self.quarantined.push(client_id);
            true
        }
    }

    /// A [`ScriptedFeed`] that lends lanes of its own, built by
    /// `factory`, as an in-process transport does.
    struct LanedFeed {
        feed: ScriptedFeed,
        factory: ModelFactory,
        lanes: Lanes,
    }

    impl RoundTransport for LanedFeed {
        fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
            self.feed.cohort_into(out)
        }
        fn train_round(
            &mut self,
            assign: &TrainAssign<'_>,
            cohort: &[(usize, usize)],
            sink: &mut UpdateSink<'_>,
            results: &mut Vec<Result<(), TransportError>>,
        ) {
            self.feed.train_round(assign, cohort, sink, results)
        }
        fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
            Some((&self.factory, &mut self.lanes))
        }
    }

    /// `factory` behind a counter of its calls.
    fn counting(factory: &ModelFactory) -> (ModelFactory, Arc<AtomicUsize>) {
        let (inner, calls) = (Arc::clone(factory), Arc::new(AtomicUsize::new(0)));
        let counter = Arc::clone(&calls);
        let counted: ModelFactory = Arc::new(move |seed| {
            counter.fetch_add(1, Ordering::SeqCst);
            (inner)(seed)
        });
        (counted, calls)
    }

    #[test]
    fn server_scores_run_on_lanes_bitwise_as_fresh_networks() {
        let (factory, _, test, cfg) = fixture();
        let global = (factory)(1).state_vector();
        let assign = scripted_assign(&global, &cfg);
        // Five held uploads: more than any wave below is wide.
        let uploads: Vec<ClientUpdate> = (0..5)
            .map(|id| ClientUpdate {
                client_id: id,
                state: (factory)(20 + id as u64).state_vector(),
                num_samples: 10 + id,
            })
            .collect();
        let fresh = |state: &[f32]| {
            let mut net = (factory)(0);
            net.set_state_vector(state);
            net
        };
        let mses: Vec<f64> = uploads
            .iter()
            .map(|u| eval::mse(&mut fresh(&u.state), &test))
            .collect();
        let want = weighted_mean(&uploads, &adaptive_weights(&mses));
        let want_acc = eval::accuracy(&mut fresh(&want), &test);
        let feed = || ScriptedFeed {
            cohort: uploads
                .iter()
                .map(|u| (u.client_id, u.num_samples))
                .collect(),
            frames: uploads
                .iter()
                .map(|u| (u.client_id, u.num_samples, None, u.state.clone()))
                .collect(),
            timeouts: vec![],
            quarantined: vec![],
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 3] {
            let (scoring, built) = counting(&factory);
            let weighting = Weighting::ServerMse {
                factory: &scoring,
                test: &test,
            };
            // A transport that lends no lanes: the runtime builds one per
            // thread, once, and keeps them for later rounds.
            let mut rt = RoundRuntime::new(Some(threads), 0);
            for _ in 0..2 {
                let mut got = Vec::new();
                rt.run_hot(&mut feed(), &assign, weighting, &mut got)
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "threads {threads}");
                let acc = rt.accuracy(&mut feed(), &scoring, &got, &test);
                assert_eq!(acc.to_bits(), want_acc.to_bits(), "threads {threads}");
            }
            assert_eq!(built.load(Ordering::SeqCst), threads);
            // A transport's lanes, fitted by its own factory (another
            // `Arc` of the same architecture): nothing is rebuilt.
            let (lent, lent_built) = counting(&factory);
            let mut laned = LanedFeed {
                feed: feed(),
                factory: lent,
                lanes: Lanes::new(Some(threads)),
            };
            let mut rt = RoundRuntime::new(Some(threads), 0);
            for _ in 0..2 {
                let mut got = Vec::new();
                rt.run_hot(&mut laned, &assign, weighting, &mut got)
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "lent, threads {threads}");
                let acc = rt.accuracy(&mut laned, &scoring, &got, &test);
                assert_eq!(acc.to_bits(), want_acc.to_bits(), "lent, threads {threads}");
            }
            assert_eq!(built.load(Ordering::SeqCst), threads);
            assert_eq!(lent_built.load(Ordering::SeqCst), threads);
        }
    }

    fn scripted_assign<'a>(global: &'a [f32], cfg: &'a TrainConfig) -> TrainAssign<'a> {
        TrainAssign {
            round: 5,
            seed: 11,
            nonce: round_nonce(11, 5),
            global,
            cfg,
        }
    }

    #[test]
    fn zero_sample_clients_get_floor_weight() {
        // A registered sample count of 0 weighs 1, so a fresh client
        // still counts.
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 1];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: vec![(0, 0), (1, 0)],
            frames: vec![(0, 0, None, vec![2.0]), (1, 0, None, vec![4.0])],
            timeouts: vec![],
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 0);
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn stale_nonce_strikes_and_quarantines() {
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 1];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: vec![(0, 1), (1, 1), (2, 1)],
            frames: vec![
                (0, 1, None, vec![1.0]),
                (1, 1, Some(0xDEAD), vec![100.0]), // replayed frame
                (2, 1, None, vec![3.0]),
            ],
            timeouts: vec![],
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 0);
        rt.set_robustness(RobustConfig {
            max_strikes: 1,
            ..RobustConfig::default()
        });
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        // The attacker is excluded; the round folds clients 0 and 2.
        assert_eq!(out, vec![2.0]);
        assert!(rt.is_quarantined(1));
        assert_eq!(rt.strikes(1), 1);
        assert_eq!(transport.quarantined, vec![1]);
        let events = rt.drain_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            RobustnessEvent::Violation {
                client_id: 1,
                violation: UpdateViolation::StaleNonce { got: 0xDEAD, .. },
                strikes: 1,
            }
        ));
        assert!(matches!(
            events[1],
            RobustnessEvent::Quarantined {
                client_id: 1,
                strikes: 1
            }
        ));
        // Later rounds never include the quarantined client again.
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, vec![2.0]);
        assert!(rt.drain_events().is_empty());
    }

    #[test]
    fn duplicate_frame_is_struck_but_round_completes() {
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 1];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: vec![(0, 1), (1, 1)],
            frames: vec![
                (0, 1, None, vec![2.0]),
                (0, 1, None, vec![90.0]), // duplicate: rejected, first copy stands
                (1, 1, None, vec![4.0]),
            ],
            timeouts: vec![],
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 0);
        rt.set_robustness(RobustConfig {
            max_strikes: 3,
            ..RobustConfig::default()
        });
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, vec![3.0]);
        assert!(!rt.last_outcome().degraded);
        assert_eq!(rt.strikes(0), 1);
        assert!(!rt.is_quarantined(0));
        let events = rt.drain_events();
        assert_eq!(
            events,
            vec![RobustnessEvent::Violation {
                client_id: 0,
                violation: UpdateViolation::Duplicate,
                strikes: 1,
            }]
        );
    }

    #[test]
    fn delta_norm_bound_rejects_oversized_updates() {
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 2];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: vec![(0, 1), (1, 1)],
            frames: vec![
                (0, 1, None, vec![0.1, 0.1]),
                (1, 1, None, vec![1000.0, -1000.0]), // scaled attack
            ],
            timeouts: vec![],
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 0);
        rt.set_robustness(RobustConfig {
            max_delta_norm: Some(10.0),
            max_strikes: 1,
            ..RobustConfig::default()
        });
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, vec![0.1, 0.1]);
        assert!(rt.is_quarantined(1));
    }

    #[test]
    fn quorum_finishes_degraded_over_reported_set() {
        let cfg = TrainConfig::default();
        let global = vec![0.0f32; 1];
        let assign = scripted_assign(&global, &cfg);
        let mut transport = ScriptedFeed {
            cohort: vec![(0, 1), (1, 1), (2, 1), (3, 1)],
            frames: vec![
                (0, 1, None, vec![0.0]),
                (1, 1, None, vec![1.0]),
                (2, 1, None, vec![2.0]),
            ],
            timeouts: vec![3], // straggler, never dropped by the transport
            quarantined: vec![],
        };
        let mut rt = RoundRuntime::new(Some(1), 0);
        rt.set_robustness(RobustConfig {
            quorum: Some(0.75),
            ..RobustConfig::default()
        });
        let mut out = Vec::new();
        rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap();
        assert_eq!(out, vec![1.0]); // mean of the three reported
        let outcome = rt.last_outcome();
        assert!(outcome.degraded);
        assert_eq!(outcome.reported, 3);
        assert_eq!(outcome.cohort, 4);

        // Under quorum the straggler error propagates as before.
        rt.set_robustness(RobustConfig {
            quorum: Some(0.9),
            ..RobustConfig::default()
        });
        let err = rt
            .run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
            .unwrap_err();
        assert_eq!(err, TransportError::Timeout { client_id: 3 });
    }

    #[test]
    fn robust_modes_match_mean_bitwise_with_zero_attackers() {
        let cfg = TrainConfig::default();
        let global = vec![0.25f32; 5];
        let assign = scripted_assign(&global, &cfg);
        let frames: Vec<(usize, usize, Option<u64>, Vec<f32>)> = (0..5usize)
            .map(|id| {
                let state: Vec<f32> = (0..5)
                    .map(|j| ((id * 7 + j * 3) as f32).sin() * 0.5)
                    .collect();
                (id, id + 1, None, state)
            })
            .collect();
        let cohort: Vec<(usize, usize)> = (0..5).map(|id| (id, id + 1)).collect();
        let run = |robust: RobustConfig| {
            let mut transport = ScriptedFeed {
                cohort: cohort.clone(),
                frames: frames.clone(),
                timeouts: vec![],
                quarantined: vec![],
            };
            let mut rt = RoundRuntime::new(Some(1), 0);
            rt.set_robustness(robust);
            let mut out = Vec::new();
            rt.run_hot(&mut transport, &assign, Weighting::Samples, &mut out)
                .unwrap();
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let mean = run(RobustConfig::default());
        // trim 0, an untriggered norm clip, and a full-participation
        // quorum round are all bitwise the mean.
        assert_eq!(
            run(RobustConfig {
                mode: AggregationMode::TrimmedMean { trim: 0 },
                ..RobustConfig::default()
            }),
            mean
        );
        assert_eq!(
            run(RobustConfig {
                mode: AggregationMode::NormClipped { limit: 1e9 },
                ..RobustConfig::default()
            }),
            mean
        );
        assert_eq!(
            run(RobustConfig {
                quorum: Some(0.5),
                ..RobustConfig::default()
            }),
            mean
        );
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            TransportError::Timeout { client_id: 3 }.to_string(),
            "client 3 timed out"
        );
        assert_eq!(
            TransportError::Timeout { client_id: 3 }.client_id(),
            Some(3)
        );
        assert_eq!(TransportError::NoLiveClients.client_id(), None);
        let e = StateLenError { got: 5, want: 9 };
        assert!(e.to_string().contains('5'));
    }
}
