//! The coordinator: the server daemon's brain.
//!
//! Owns the global model, the training schedule and the unlearning
//! request queue, and drives both round loops over any
//! [`ServeTransport`]:
//!
//! * training rounds run through `goldfish_fed`'s transport-independent
//!   [`RoundRuntime`] (admission checks, straggler drop + re-round,
//!   fold-on-arrival aggregation in ascending client-id order —
//!   deterministic under any arrival order),
//! * between rounds the queue is drained (the paper's
//!   request-then-retrain flow): drained requests are staged on the
//!   transport, the current global becomes the frozen teacher, and
//!   [`GoldfishUnlearning::unlearn_over`] runs its distillation rounds
//!   over the same transport, on a fresh [`RoundRuntime`] per drain —
//!   the same admission and re-round rule, whose verdicts join the
//!   robustness log and the audit chain like a training round's.
//!
//! A loopback-backed coordinator reproduces `Federation::train_rounds`
//! and `GoldfishUnlearning::unlearn` bitwise; a TCP-backed one
//! reproduces the loopback run bitwise (pinned by
//! `crates/serve/tests/serve_identity.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use goldfish_core::{GoldfishUnlearning, UnlearnServer};
use goldfish_data::Dataset;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::transport::{
    round_nonce, RobustConfig, RobustnessEvent, RoundOutcome, RoundRuntime, RowOutOfRange,
    StateLenError, TrainAssign, TransportError, Weighting,
};
use goldfish_fed::ModelFactory;
use goldfish_telemetry::events::EventKind;

use crate::audit::{audit_kind, AuditEventRecord};

use crate::digest;
use crate::durability::{DurabilityError, DurableStore, Recovered};
use crate::queue::{UnlearnQueue, UnlearnRequest};
use crate::telemetry::{DurabilityTelemetry, QueueTelemetry, ServeTelemetry};
use crate::transport::ServeTransport;

/// Coordinator policy knobs. Construct with [`CoordinatorConfig::default`]
/// and the builder-style `with_*` methods.
#[derive(Clone)]
pub struct CoordinatorConfig {
    /// Local training hyperparameters broadcast each round.
    pub train: TrainConfig,
    /// The unlearning method driven when the queue drains.
    pub method: GoldfishUnlearning,
    /// Distillation rounds per drained queue batch.
    pub unlearn_rounds: usize,
    /// Seed of the initial global model.
    pub init_seed: u64,
    /// Compute-pool override for server-side evaluation/aggregation.
    pub threads: Option<usize>,
    /// Maximum simultaneously resident (parked) updates per round in the
    /// streaming aggregation; `0` = auto (the cohort size). Exceeding it
    /// is the typed [`TransportError::UpdateWindowExceeded`].
    pub update_window: usize,
    /// Byzantine-robustness policy (aggregation rule, quorum fraction,
    /// strike budget, delta-norm admission bound). The default is the
    /// bitwise reference path: plain mean, strict re-round, no strikes.
    pub robust: RobustConfig,
    /// Per-round cohort sampling fraction (`--cohort-fraction`):
    /// `Some(f)` draws a seeded `ceil(f · registered)` subset of the
    /// registered clients each round (deterministic in `(round_seed,
    /// registry)` — see `goldfish_fed::sampling`); `None` keeps the
    /// full-participation reference path.
    pub cohort_fraction: Option<f64>,
    /// Shard-isolated unlearning (`--shards`/`--shard-group`/
    /// `--drain-deadline-ms`, DESIGN.md §16): `Some` routes deletions
    /// through the coordinator-owned [`crate::shard::ShardMap`] as
    /// shard-granular retrain tasks with coded straggler tolerance;
    /// `None` keeps the whole-client distillation path.
    pub shard: Option<crate::shard::ShardPolicy>,
    /// Backpressure bound on pending queue entries (`--max-queue-depth`):
    /// a submit that would grow the queue (merges are free) past this
    /// limit is rejected with the typed [`SubmitError::QueueFull`].
    /// `None` = unbounded.
    pub max_queue_depth: Option<usize>,
    /// The shared observability catalog (`--metrics-addr` /
    /// `--trace-out`). `None` builds a detached catalog: every metric
    /// still counts (accessors read them) but nothing is exported.
    /// Telemetry never feeds back into the numeric path — all bitwise
    /// identity gates hold with it enabled.
    pub telemetry: Option<Arc<ServeTelemetry>>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            train: TrainConfig::default(),
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 0,
            threads: None,
            update_window: 0,
            robust: RobustConfig::default(),
            cohort_fraction: None,
            shard: None,
            max_queue_depth: None,
            telemetry: None,
        }
    }
}

impl CoordinatorConfig {
    /// Caps simultaneously resident in-flight updates per round (`0` =
    /// auto: the cohort size).
    pub fn with_update_window(mut self, window: usize) -> Self {
        self.update_window = window;
        self
    }

    /// Selects the aggregation rule (`--aggregation` on the daemon).
    pub fn with_aggregation(mut self, mode: AggregationMode) -> Self {
        self.robust.mode = mode;
        self
    }

    /// Enables quorum-degraded rounds: finish over the reported set when
    /// at least `ceil(quorum · cohort)` updates folded (`--quorum`).
    pub fn with_quorum(mut self, quorum: f64) -> Self {
        self.robust.quorum = Some(quorum);
        self
    }

    /// Sets the strike budget before a client is quarantined
    /// (`--max-strikes`; `0` disables eviction).
    pub fn with_max_strikes(mut self, strikes: u32) -> Self {
        self.robust.max_strikes = strikes;
        self
    }

    /// Sets the relative-delta-norm admission bound
    /// (`--max-delta-norm`).
    pub fn with_max_delta_norm(mut self, limit: f64) -> Self {
        self.robust.max_delta_norm = Some(limit);
        self
    }

    /// Enables seeded per-round cohort sampling at this fraction of the
    /// registered clients (`--cohort-fraction`).
    pub fn with_cohort_fraction(mut self, fraction: f64) -> Self {
        self.cohort_fraction = Some(fraction);
        self
    }

    /// Enables shard-isolated unlearning under this policy (`--shards`,
    /// `--shard-group`, `--drain-deadline-ms`).
    pub fn with_shards(mut self, policy: crate::shard::ShardPolicy) -> Self {
        self.shard = Some(policy);
        self
    }

    /// Bounds the pending queue depth (`--max-queue-depth`); submits
    /// that would grow past it are rejected with
    /// [`SubmitError::QueueFull`].
    pub fn with_max_queue_depth(mut self, limit: usize) -> Self {
        self.max_queue_depth = Some(limit);
        self
    }

    /// Attaches a shared observability catalog (the daemon builds one
    /// per process and hands the same [`Arc`] to the admin endpoint).
    pub fn with_telemetry(mut self, telemetry: Arc<ServeTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Running totals of the coordinator's drain phase (the unlearning
/// queue's visibility counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Unlearning requests served across all drains.
    pub requests_served: usize,
    /// Drain batches executed (each serves a whole queue's worth).
    pub batches_served: usize,
    /// Requests served by the most recent drain.
    pub last_batch_requests: usize,
}

/// Summary of one training round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Round index.
    pub round: usize,
    /// Test accuracy of the new global model.
    pub global_accuracy: f64,
    /// Delivered clients' dataset sizes, in client-id order.
    pub client_sizes: Vec<usize>,
}

/// Summary of one drained unlearning batch.
#[derive(Debug, Clone, PartialEq)]
pub struct UnlearnSummary {
    /// The requests served (FIFO order, deduplicated per client).
    pub requests: Vec<UnlearnRequest>,
    /// Test accuracy after each distillation round.
    pub round_accuracies: Vec<f64>,
}

/// Summary of one shard-granular drain batch (shard mode only).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardDrainSummary {
    /// Committed tasks as `(client, shard)`, execution order.
    pub completed: Vec<(usize, usize)>,
    /// Tasks committed via the coded degraded path, as `(owner, shard,
    /// delegate)` — the owner straggled past the deadline, the delegate
    /// retrained from the parity-reconstructed checkpoint.
    pub degraded: Vec<(usize, usize, usize)>,
    /// Tasks re-enqueued because the drain deadline expired.
    pub requeued: usize,
}

/// Full-run summary of [`Coordinator::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Per-round training summaries.
    pub rounds: Vec<RoundSummary>,
    /// Unlearning batches, in the order they drained.
    pub unlearns: Vec<UnlearnSummary>,
    /// Shard-granular drain batches (shard mode), in drain order.
    pub shard_drains: Vec<ShardDrainSummary>,
}

/// A deletion request the coordinator refused to queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The client id names no (live) client.
    UnknownClient {
        /// The offending id.
        client_id: usize,
    },
    /// A removal index is outside the client's dataset.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The client's local sample count.
        len: usize,
    },
    /// The request names no samples. Accepting it would burn a full
    /// distillation pass (and an audit entry) on a no-op — flushed out
    /// by the queue edge-case tests and rejected here, before the
    /// request is logged or queued.
    EmptyRequest {
        /// The submitting client.
        client_id: usize,
    },
    /// The request could not be made durable (WAL append/fsync
    /// failed); it was **not** queued — an acknowledged request is
    /// always recoverable.
    Durability {
        /// The underlying durability error text.
        detail: String,
    },
    /// The pending queue is at its configured bound
    /// (`--max-queue-depth`) and this submit would grow it (a submit
    /// that merges into an already-pending entry is always accepted).
    /// Rejected before the WAL append, so nothing was logged or queued.
    QueueFull {
        /// The queue depth at rejection time.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownClient { client_id } => write!(f, "unknown client {client_id}"),
            SubmitError::IndexOutOfRange { index, len } => {
                write!(f, "removal index {index} out of {len} local samples")
            }
            SubmitError::EmptyRequest { client_id } => {
                write!(f, "client {client_id} requested deletion of zero samples")
            }
            SubmitError::Durability { detail } => {
                write!(f, "request not accepted, WAL write failed: {detail}")
            }
            SubmitError::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth} pending, limit {limit})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A recovered state that does not fit the coordinator it is attached to
/// ([`Coordinator::attach_durability`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The recovered global does not match the model architecture
    /// (version/config skew).
    StateLen(StateLenError),
    /// A committed deletion names a row its client's data does not hold:
    /// the state dir was written over other data.
    Removal(RowOutOfRange),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::StateLen(e) => e.fmt(f),
            RecoveryError::Removal(e) => write!(
                f,
                "committed deletion on client {}: {e} (the state dir is not over this data)",
                e.client_id
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-round training seed of [`Coordinator::run`] — the shared
/// derivation `Federation::train_rounds` uses (one definition, in
/// `goldfish_fed::transport`, so daemons, tests and benchmarks replaying
/// a schedule stay bitwise aligned with `run`).
pub use goldfish_fed::transport::round_seed;

/// Seed of the unlearning batch drained after training round `round` in
/// [`Coordinator::run`].
pub fn drain_seed(base: u64, round: usize) -> u64 {
    base.wrapping_add(0xA5A5_0000 + round as u64)
}

/// A failed commit (checkpoint/audit write) surfaced through the round
/// loop's error channel: the coordinator must stop rather than keep
/// serving rounds it cannot recover.
fn durability_fault(e: DurabilityError) -> TransportError {
    TransportError::Unsupported {
        reason: format!("durability: {e}"),
    }
}

/// The shard-mode UNLEARN_SERVED audit record: detail leads with the
/// shard index, then the removed row indices (original ordering).
fn served_record(task: &crate::shard::ShardTask) -> AuditEventRecord {
    AuditEventRecord {
        kind: audit_kind::UNLEARN_SERVED,
        client_id: task.client_id as u64,
        detail: std::iter::once(task.shard as u64)
            .chain(task.rows.iter().map(|&r| r as u64))
            .collect(),
    }
}

/// When the transport reports a transport-wide fatal fault (an injected
/// coordinator kill), that reason supersedes whatever per-client shape
/// the failure took on the way up (usually a blanket `NoLiveClients`).
fn fatal_or<T: ServeTransport>(transport: &T, e: TransportError) -> TransportError {
    match transport.fatal_fault() {
        Some(reason) => TransportError::Unsupported {
            reason: reason.to_string(),
        },
        None => e,
    }
}

/// The server daemon: global state + request queue + round loops over a
/// [`ServeTransport`].
pub struct Coordinator<T: ServeTransport> {
    factory: ModelFactory,
    test: Dataset,
    cfg: CoordinatorConfig,
    global: Vec<f32>,
    /// Spare buffer the next round's aggregate lands in before the swap.
    next_global: Vec<f32>,
    queue: UnlearnQueue,
    transport: T,
    runtime: RoundRuntime,
    /// The observability catalog (detached when none was configured).
    /// Drain counters live here — [`Coordinator::drain_stats`] is a
    /// thin read of the registry cells.
    telemetry: Arc<ServeTelemetry>,
    /// The next training round [`Coordinator::run`] will execute
    /// (advanced by every completed round; restored by recovery).
    next_round: usize,
    /// Durable state store; `None` = in-memory only (tests, benches).
    durability: Option<DurableStore>,
    /// Recovery found a pending queue whose drain slot already passed —
    /// [`Coordinator::run`] serves it first, at the original seed slot.
    resume_drain_pending: bool,
    /// Every violation/quarantine verdict the admission layer has
    /// emitted, in order (what the audit chain records).
    robustness_log: Vec<RobustnessEvent>,
    /// Shard mode's coordinator-owned map (DESIGN.md §16). Built
    /// lazily from the registry on the first shard-routed submit, or
    /// restored bitwise from a recovered checkpoint's shard section.
    shard_map: Option<crate::shard::ShardMap>,
    /// Shard mode's pending retrain tasks.
    shard_tasks: crate::shard::ShardTaskQueue,
}

impl<T: ServeTransport> Coordinator<T> {
    /// Builds a coordinator; the initial global model comes from
    /// `factory(cfg.init_seed)`.
    pub fn new(
        factory: ModelFactory,
        test: Dataset,
        mut transport: T,
        cfg: CoordinatorConfig,
    ) -> Self {
        let global = (factory)(cfg.init_seed).state_vector();
        let telemetry = cfg
            .telemetry
            .clone()
            .unwrap_or_else(ServeTelemetry::disabled);
        transport.set_telemetry(&telemetry);
        let mut queue = UnlearnQueue::new();
        queue.set_telemetry(QueueTelemetry::from_serve(&telemetry));
        let mut shard_tasks = crate::shard::ShardTaskQueue::new();
        shard_tasks.set_telemetry(QueueTelemetry::for_shard_tasks(&telemetry));
        let mut runtime = RoundRuntime::new(cfg.threads, cfg.update_window);
        runtime.set_robustness(cfg.robust);
        runtime.set_sampling(cfg.cohort_fraction);
        runtime.set_metrics(telemetry.round.clone());
        Coordinator {
            factory,
            test,
            cfg,
            global,
            next_global: Vec::new(),
            queue,
            transport,
            runtime,
            telemetry,
            next_round: 0,
            durability: None,
            resume_drain_pending: false,
            robustness_log: Vec::new(),
            shard_map: None,
            shard_tasks,
        }
    }

    /// Builds the shard map on first use: one mirror per registered
    /// client, every shard starting from the factory's `init_seed`
    /// state. Deterministic in `(policy, registry, init_seed)`, so a
    /// crash before the first shard checkpoint rebuilds it bitwise.
    fn ensure_shard_map(&mut self) {
        if self.shard_map.is_some() {
            return;
        }
        let Some(policy) = self.cfg.shard else { return };
        let lens = self.transport.client_sizes();
        let init = (self.factory)(self.cfg.init_seed).state_vector();
        self.shard_map = Some(crate::shard::ShardMap::new(policy, &lens, &init));
    }

    /// Attaches a durable store and applies what it recovered: global
    /// state, round cursor, drain counters, committed deletions
    /// (replayed onto the transport) and the pending queue (checkpoint
    /// entries restored verbatim, WAL tail replayed through the normal
    /// merge logic). From here on every accepted submit is WAL-logged
    /// before acknowledgement and every completed round/drain writes a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// A [`RecoveryError`] when the recovered state does not fit this
    /// coordinator — nothing is applied.
    pub fn attach_durability(
        &mut self,
        mut store: DurableStore,
        recovered: Recovered,
    ) -> Result<(), RecoveryError> {
        store.set_telemetry(DurabilityTelemetry::from_serve(&self.telemetry));
        let replayed = recovered.replayed.len() + recovered.replayed_shard.len();
        if recovered.resumed {
            StateLenError::check(recovered.global.len(), self.global.len())
                .map_err(RecoveryError::StateLen)?;
            // The v2 chain mixes served deletions with robustness
            // verdicts; only the former are removals to replay. In
            // shard mode client datasets never shrink (removals are
            // realised via per-retrain `keep_rows`, tombstoned in the
            // shard map) — served entries are audit history only.
            if self.cfg.shard.is_none() {
                let served: Vec<UnlearnRequest> = recovered
                    .served
                    .iter()
                    .filter(|e| e.kind == audit_kind::UNLEARN_SERVED)
                    .map(|e| e.request())
                    .collect();
                self.transport
                    .apply_removals(&served)
                    .map_err(RecoveryError::Removal)?;
            }
            self.global = recovered.global;
            self.next_round = recovered.round_next;
            // Recovered drain counters fold into the (fresh) registry
            // cells, so `drain_stats` spans the crash.
            self.telemetry
                .unlearn_requests_served_total
                .add(recovered.drain_stats.requests_served as u64);
            self.telemetry
                .drain_batches_total
                .add(recovered.drain_stats.batches_served as u64);
            self.telemetry
                .drain_last_batch_requests
                .set(recovered.drain_stats.last_batch_requests as i64);
        }
        self.queue.restore(recovered.pending);
        for req in recovered.replayed {
            self.queue.submit(req);
        }
        // Shard section: the map restores bitwise (parity recomputed),
        // checkpoint tasks verbatim, then the WAL tail replays through
        // the normal merge logic — same shape as the plain queue.
        if let Some(mut snap) = recovered.shard {
            self.shard_tasks
                .restore(std::mem::take(&mut snap.tasks).into_owned());
            self.shard_map = Some(crate::shard::ShardMap::restore(snap));
        }
        if !recovered.replayed_shard.is_empty() {
            self.ensure_shard_map();
            for task in recovered.replayed_shard {
                self.shard_tasks.submit(task);
            }
        }
        // A non-empty queue whose drain slot already passed (the crash
        // hit after the round's checkpoint but before the drain
        // committed) is served first by `run`, at its original seed.
        self.resume_drain_pending = recovered.resumed
            && (!self.queue.is_empty() || !self.shard_tasks.is_empty())
            && self.next_round > 0;
        if recovered.resumed || replayed > 0 {
            self.telemetry.trace.record(EventKind::RecoveryReplayed {
                next_round: self.next_round as u64,
                replayed: replayed as u64,
            });
        }
        self.durability = Some(store);
        Ok(())
    }

    /// The observability catalog this coordinator reports into.
    pub fn telemetry(&self) -> &Arc<ServeTelemetry> {
        &self.telemetry
    }

    /// The next training round [`Coordinator::run`] will execute.
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Whether recovery left an overdue drain that [`Coordinator::run`]
    /// will serve before its first training round.
    pub fn has_overdue_drain(&self) -> bool {
        self.resume_drain_pending
    }

    /// The current global state vector.
    pub fn global_state(&self) -> &[f32] {
        &self.global
    }

    /// Test accuracy of the current global model.
    pub fn global_accuracy(&self) -> f64 {
        let mut net = (self.factory)(0);
        net.set_state_vector(&self.global);
        goldfish_fed::eval::accuracy(&mut net, &self.test)
    }

    /// The pending-request queue (for inspection).
    pub fn queue(&self) -> &UnlearnQueue {
        &self.queue
    }

    /// The transport (for wire accounting and liveness inspection).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable transport access (daemon shutdown paths).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Queues a deletion request after validating it against the
    /// transport's client registry. The queue dedupes per client; the
    /// request is served when the queue next drains (between rounds).
    ///
    /// In shard mode the request is routed through the shard map
    /// instead: it drains as O(affected shards) retrain tasks, with
    /// per-`(client, shard)` dedupe/merge. Removal indices address the
    /// client's **original** dataset ordering (shard-mode datasets
    /// never shrink); already-tombstoned rows drop out, and a request
    /// routing to zero fresh tasks is an accepted no-op.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] for unknown clients, out-of-range indices, a
    /// full queue, or a failed WAL append.
    pub fn submit_unlearn(&mut self, req: UnlearnRequest) -> Result<(), SubmitError> {
        if self.cfg.shard.is_some() {
            return self.submit_unlearn_sharded(req);
        }
        let sizes = self.transport.client_sizes();
        let len = match sizes.get(req.client_id) {
            Some(&n) if n > 0 => n,
            _ => {
                return Err(SubmitError::UnknownClient {
                    client_id: req.client_id,
                })
            }
        };
        if req.removed.is_empty() {
            return Err(SubmitError::EmptyRequest {
                client_id: req.client_id,
            });
        }
        if let Some(&bad) = req.removed.iter().find(|&&i| i >= len) {
            return Err(SubmitError::IndexOutOfRange { index: bad, len });
        }
        // Backpressure before durability: a rejected submit must leave
        // no WAL record. Merges into an already-pending entry do not
        // grow the queue and always pass.
        if let Some(limit) = self.cfg.max_queue_depth {
            let depth = self.queue.len();
            let merges = self
                .queue
                .pending()
                .iter()
                .any(|r| r.client_id == req.client_id);
            if depth >= limit && !merges {
                return Err(SubmitError::QueueFull { depth, limit });
            }
        }
        // Durability before acknowledgement: the request reaches the
        // WAL (fsync'd) before it reaches the queue, so an accepted
        // request survives any crash from here on.
        if let Some(store) = self.durability.as_mut() {
            store
                .log_submit(&req)
                .map_err(|e| SubmitError::Durability {
                    detail: e.to_string(),
                })?;
        }
        self.queue.submit(req);
        Ok(())
    }

    /// The shard-mode submit path: validate against the shard map's
    /// original lengths, route to affected shards, WAL-log the route
    /// (one fsync), then queue the tasks.
    fn submit_unlearn_sharded(&mut self, req: UnlearnRequest) -> Result<(), SubmitError> {
        self.ensure_shard_map();
        let map = self.shard_map.as_ref().expect("shard mode without map");
        if req.client_id >= map.num_clients() || map.original_len(req.client_id) == 0 {
            return Err(SubmitError::UnknownClient {
                client_id: req.client_id,
            });
        }
        if req.removed.is_empty() {
            return Err(SubmitError::EmptyRequest {
                client_id: req.client_id,
            });
        }
        let len = map.original_len(req.client_id);
        if let Some(&bad) = req.removed.iter().find(|&&i| i >= len) {
            return Err(SubmitError::IndexOutOfRange { index: bad, len });
        }
        let routed = map.route(req.client_id, &req.removed);
        if routed.is_empty() {
            // Everything already tombstoned: deletion is idempotent —
            // accepted, nothing queued, nothing logged.
            return Ok(());
        }
        // Backpressure before durability, counting only tasks that
        // would grow the queue (merges are free).
        if let Some(limit) = self.cfg.max_queue_depth {
            let depth = self.shard_tasks.len();
            let fresh = routed
                .iter()
                .filter(|&&(shard, _)| {
                    !self
                        .shard_tasks
                        .pending()
                        .iter()
                        .any(|t| t.client_id == req.client_id && t.shard == shard)
                })
                .count();
            if depth + fresh > limit {
                return Err(SubmitError::QueueFull { depth, limit });
            }
        }
        let tasks: Vec<crate::shard::ShardTask> = routed
            .into_iter()
            .map(|(shard, rows)| crate::shard::ShardTask::new(req.client_id, shard, rows))
            .collect();
        // One WAL append+fsync for the whole route: a crash persists
        // all of the submit's tasks or none of them.
        if let Some(store) = self.durability.as_mut() {
            store
                .log_submit_shard(&tasks)
                .map_err(|e| SubmitError::Durability {
                    detail: e.to_string(),
                })?;
        }
        for task in tasks {
            self.shard_tasks.submit(task);
        }
        // One per *request*, however many tasks it routed to.
        self.telemetry.unlearn_submitted_total.inc();
        Ok(())
    }

    /// Runs one federated training round (FedAvg) over the transport and
    /// evaluates the new global model — [`Coordinator::train_round_hot`]
    /// plus the per-round reporting.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveClients`] when nobody delivers.
    pub fn train_round(&mut self, round: usize, seed: u64) -> Result<RoundSummary, TransportError> {
        self.train_round_hot(round, seed)?;
        let global_accuracy =
            self.runtime
                .accuracy(&mut self.transport, &self.factory, &self.global, &self.test);
        Ok(RoundSummary {
            round,
            global_accuracy,
            client_sizes: self.runtime.last_cohort().iter().map(|&(_, n)| n).collect(),
        })
    }

    /// The serving hot path: one federated training round (encode-once
    /// broadcast, streaming FedAvg aggregation as updates arrive,
    /// bounded resident-update window) with **no** evaluation or summary
    /// allocation — a warm loopback coordinator runs this with zero heap
    /// allocations (pinned by `tests/alloc_free_round.rs`). Bitwise
    /// identical to [`Coordinator::train_round`]'s global result.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoLiveClients`] when nobody delivers;
    /// [`TransportError::UpdateWindowExceeded`] when arrivals overflow
    /// the configured window.
    pub fn train_round_hot(&mut self, round: usize, seed: u64) -> Result<(), TransportError> {
        let round_start = self.telemetry.clock.now_nanos();
        // Re-admit resumed workers at the round boundary, before the
        // cohort is drawn — a no-op (and allocation-free) on loopback.
        self.transport.admit_reconnects(round, &self.global);
        // The new global lands in a second reusable buffer (the assign
        // borrows the current one), then the buffers swap.
        let mut next = std::mem::take(&mut self.next_global);
        let Coordinator {
            cfg,
            global,
            transport,
            runtime,
            ..
        } = self;
        let assign = TrainAssign {
            round,
            seed,
            nonce: round_nonce(seed, round),
            global,
            cfg: &cfg.train,
        };
        let outcome = runtime.run_hot(transport, &assign, Weighting::Samples, &mut next);
        match outcome {
            Ok(()) => {
                self.next_global = std::mem::replace(&mut self.global, next);
                self.next_round = round + 1;
                let events = self.runtime.drain_events();
                self.commit_robustness_events(events)
                    .map_err(durability_fault)?;
                let drain_stats = self.drain_stats();
                {
                    let Coordinator {
                        durability,
                        shard_map,
                        shard_tasks,
                        next_round,
                        global,
                        queue,
                        ..
                    } = &mut *self;
                    if let Some(store) = durability.as_mut() {
                        let shard_snapshot = shard_map
                            .as_ref()
                            .map(|m| m.snapshot(shard_tasks.pending()));
                        store
                            .commit_round(
                                *next_round,
                                global,
                                queue.pending(),
                                shard_snapshot.as_ref(),
                                drain_stats,
                            )
                            .map_err(durability_fault)?;
                    }
                }
                self.telemetry
                    .round_seconds
                    .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(round_start));
                Ok(())
            }
            Err(e) => {
                self.next_global = next;
                Err(fatal_or(&self.transport, e))
            }
        }
    }

    /// Moves a round loop's violation/quarantine verdicts into the
    /// coordinator's log and — when durability is attached — onto the
    /// hash-chained audit log, **before** the round's or drain's
    /// checkpoint snapshots the chain tip (a crash in between truncates
    /// the events and the deterministic re-run re-appends identical
    /// bytes).
    fn commit_robustness_events(
        &mut self,
        events: Vec<RobustnessEvent>,
    ) -> Result<(), DurabilityError> {
        if events.is_empty() {
            return Ok(());
        }
        if let Some(store) = self.durability.as_mut() {
            let records: Vec<AuditEventRecord> = events
                .iter()
                .map(|e| match e {
                    RobustnessEvent::Violation {
                        client_id,
                        violation,
                        strikes,
                    } => AuditEventRecord {
                        kind: audit_kind::VIOLATION,
                        client_id: *client_id as u64,
                        detail: vec![violation.code(), *strikes as u64],
                    },
                    RobustnessEvent::Quarantined { client_id, strikes } => AuditEventRecord {
                        kind: audit_kind::QUARANTINE,
                        client_id: *client_id as u64,
                        detail: vec![*strikes as u64],
                    },
                })
                .collect();
            let state_digest = digest::state_digest(self.next_round as u64, &self.global);
            store.log_robustness_events(self.next_round as u64, &records, &state_digest)?;
        }
        self.robustness_log.extend(events);
        Ok(())
    }

    /// Every violation/quarantine verdict emitted so far, in order.
    pub fn robustness_log(&self) -> &[RobustnessEvent] {
        &self.robustness_log
    }

    /// How the last training round concluded (full vs. quorum-degraded).
    pub fn last_round_outcome(&self) -> RoundOutcome {
        self.runtime.last_outcome()
    }

    /// Lifetime strike count of a client.
    pub fn client_strikes(&self, client_id: usize) -> u32 {
        self.runtime.strikes(client_id)
    }

    /// Whether the reputation ledger has quarantined a client.
    pub fn is_quarantined(&self, client_id: usize) -> bool {
        self.runtime.is_quarantined(client_id)
    }

    /// The quarantined client ids, ascending.
    pub fn quarantined_clients(&self) -> Vec<usize> {
        self.runtime.quarantined().collect()
    }

    /// Streaming-aggregation telemetry of the last round: the high-water
    /// mark of simultaneously resident (parked + folding) updates.
    pub fn peak_resident_updates(&self) -> usize {
        self.runtime.peak_resident()
    }

    /// Drain-phase counters (unlearning requests served so far) — a
    /// thin read of the telemetry registry's cells, which are the
    /// single source of truth for these totals.
    pub fn drain_stats(&self) -> DrainStats {
        DrainStats {
            requests_served: self.telemetry.unlearn_requests_served_total.get() as usize,
            batches_served: self.telemetry.drain_batches_total.get() as usize,
            last_batch_requests: self.telemetry.drain_last_batch_requests.get() as usize,
        }
    }

    /// Drains the request queue and, if anything was pending, serves the
    /// whole batch with one unlearning pass: the current global becomes
    /// the frozen teacher, every drained client's removals are staged on
    /// the transport, and the method's distillation rounds rebuild the
    /// global model. Returns `None` when the queue was empty.
    ///
    /// # Errors
    ///
    /// Transport failures; the queue is already drained when they
    /// surface (matching a real deployment, where a crashed request is
    /// not silently replayed).
    pub fn drain_unlearning(
        &mut self,
        seed: u64,
    ) -> Result<Option<UnlearnSummary>, TransportError> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        let drain_start = self.telemetry.clock.now_nanos();
        self.telemetry.trace.record(EventKind::DrainStarted {
            pending: self.queue.len() as u64,
        });
        // The batch's drain serial, its audit record's.
        let serial = self.telemetry.drain_batches_total.get();
        let requests = self.queue.drain();
        self.transport.stage_removals(&requests);
        let teacher = std::mem::take(&mut self.global);
        let server = UnlearnServer {
            factory: &self.factory,
            test: &self.test,
            original_global: &teacher,
            rounds: self.cfg.unlearn_rounds,
        };
        let mut runtime = RoundRuntime::new(self.cfg.threads, 0);
        let outcome =
            self.cfg
                .method
                .unlearn_over(&server, &mut self.transport, &mut runtime, seed);
        match outcome {
            Ok(out) => {
                self.global = out.global_state;
                self.commit_robustness_events(runtime.drain_events())
                    .map_err(durability_fault)?;
                self.telemetry
                    .unlearn_requests_served_total
                    .add(requests.len() as u64);
                self.telemetry.drain_batches_total.inc();
                self.telemetry
                    .drain_last_batch_requests
                    .set(requests.len() as i64);
                let drain_stats = self.drain_stats();
                if let Some(store) = self.durability.as_mut() {
                    // Audit append (fsync'd) then checkpoint: the
                    // checkpoint IS the drain's commit record. A crash
                    // between the two truncates the audit back to the
                    // checkpoint on recovery and deterministically
                    // re-drains, re-appending identical bytes.
                    let state_digest = digest::state_digest(self.next_round as u64, &self.global);
                    store
                        .commit_drain(
                            self.next_round as u64,
                            serial,
                            &requests,
                            &state_digest,
                            self.next_round,
                            &self.global,
                            self.queue.pending(),
                            drain_stats,
                        )
                        .map_err(durability_fault)?;
                }
                self.telemetry.trace.record(EventKind::DrainCommitted {
                    requests: requests.len() as u64,
                    rounds: self.cfg.unlearn_rounds as u64,
                });
                self.telemetry
                    .drain_seconds
                    .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(drain_start));
                Ok(Some(UnlearnSummary {
                    requests,
                    round_accuracies: out.round_accuracies,
                }))
            }
            Err(e) => {
                // Keep serving with the pre-request model.
                self.global = teacher;
                self.commit_robustness_events(runtime.drain_events())
                    .map_err(durability_fault)?;
                Err(fatal_or(&self.transport, e))
            }
        }
    }

    /// Whether this coordinator runs shard-isolated unlearning
    /// (DESIGN.md §16) — deletions drain as shard retrain tasks instead
    /// of whole-client distillation batches.
    pub fn shard_mode(&self) -> bool {
        self.cfg.shard.is_some()
    }

    /// The shard map, when shard mode has built (or recovered) it.
    pub fn shard_map(&self) -> Option<&crate::shard::ShardMap> {
        self.shard_map.as_ref()
    }

    /// The shard-granular task queue (for inspection).
    pub fn shard_tasks(&self) -> &crate::shard::ShardTaskQueue {
        &self.shard_tasks
    }

    /// Drains the shard task queue (shard mode's analogue of
    /// [`Coordinator::drain_unlearning`]): each task retrains one
    /// affected shard from its Eq 9 checkpoint on the transport, the
    /// map tombstones the removed rows, and the global model absorbs
    /// the size-weighted Eq 8 aggregate deltas of every touched client.
    /// Returns `None` when nothing was pending.
    ///
    /// Straggler tolerance (DESIGN.md §16): before dispatching a task
    /// the owner's declared lateness (`ServeTransport::straggle_ms`) is
    /// checked against the drain deadline. An owner that alone would
    /// miss it is bypassed — the owner's states are reconstructed from
    /// the group's XOR parity (bitwise exact), a seeded delegate
    /// retrains from the reconstructed checkpoint, and the audit chain
    /// records a degraded-drain verdict. When the batch's consumed
    /// lateness budget cannot absorb the next task's executor, the
    /// drain commits its partial progress and re-enqueues the remainder
    /// at the front of the queue.
    ///
    /// # Errors
    ///
    /// Transport failures abort the drain uncommitted (the remainder,
    /// including the failed task, is re-enqueued in memory; a durable
    /// coordinator replays the whole batch from its last checkpoint).
    pub fn drain_shard_tasks(
        &mut self,
        seed: u64,
    ) -> Result<Option<ShardDrainSummary>, TransportError> {
        self.ensure_shard_map();
        if self.shard_tasks.is_empty() {
            return Ok(None);
        }
        let drain_start = self.telemetry.clock.now_nanos();
        self.telemetry.trace.record(EventKind::DrainStarted {
            pending: self.shard_tasks.len() as u64,
        });
        let serial = self.telemetry.drain_batches_total.get();
        let tasks = self.shard_tasks.drain();

        let mut summary = ShardDrainSummary::default();
        let mut audit_records: Vec<AuditEventRecord> = Vec::new();
        // Eq 8 aggregates of touched clients *before* their first
        // retrain of this batch, keyed (and later folded) in ascending
        // client order — deterministic under any task interleaving.
        let mut agg_before: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
        let mut consumed: u64 = 0;
        let mut fail: Option<TransportError> = None;
        let mut idx = 0;
        {
            let Coordinator {
                shard_map,
                transport,
                factory,
                cfg,
                telemetry,
                ..
            } = self;
            let map = shard_map.as_mut().expect("shard mode without map");
            let policy = *map.policy();
            let deadline = policy.deadline_ms;
            while idx < tasks.len() {
                let task = &tasks[idx];
                let owner = task.client_id;
                let keep = map.keep_rows(owner, task.shard, &task.rows);
                if keep.is_empty() {
                    // The shard emptied: its replacement is the fresh
                    // init state at size zero — no retrain to run, no
                    // lateness to budget.
                    agg_before
                        .entry(owner)
                        .or_insert_with(|| map.client_aggregate(owner));
                    let state = (factory)(cfg.init_seed).state_vector();
                    map.apply_retrain(owner, task.shard, state, &task.rows);
                    audit_records.push(served_record(task));
                    summary.completed.push((owner, task.shard));
                    idx += 1;
                    continue;
                }
                let own_straggle = transport.straggle_ms(owner);
                let mut executor = owner;
                let mut exec_straggle = own_straggle;
                let mut degraded = false;
                if deadline > 0 && own_straggle >= deadline {
                    // The owner alone blows the deadline: delegate to
                    // the seeded pick among its healthy group members.
                    let members = policy.members(policy.group_of(owner), map.num_clients());
                    if let Some(d) = goldfish_fed::sampling::pick_delegate(seed, &members, owner) {
                        executor = d;
                        exec_straggle = transport.straggle_ms(d);
                        degraded = true;
                    }
                }
                if deadline > 0 && consumed + exec_straggle > deadline {
                    // Out of budget: commit what ran, requeue the rest.
                    break;
                }
                let task_seed = seed
                    .wrapping_add((owner as u64) << 32)
                    .wrapping_add((task.shard as u64) << 16)
                    .wrapping_add(1);
                let checkpoint = if degraded {
                    // Parity ⊕ healthy members reproduces the owner's
                    // states bitwise, so this checkpoint equals the
                    // healthy path's bytes.
                    let states = map.reconstruct(owner);
                    telemetry.shard_reconstructions_total.inc();
                    map.checkpoint_from_states(owner, task.shard, &states)
                } else {
                    map.checkpoint_for(owner, task.shard)
                };
                let assign = crate::shard::ShardRetrainAssign {
                    owner,
                    executor,
                    shard: task.shard,
                    tau: policy.tau,
                    keep_rows: keep,
                    checkpoint,
                    cfg: cfg.train,
                    seed: task_seed,
                };
                let state = match transport.shard_retrain(&assign) {
                    Ok(s) => s,
                    Err(e) => {
                        fail = Some(e);
                        break;
                    }
                };
                consumed += exec_straggle;
                agg_before
                    .entry(owner)
                    .or_insert_with(|| map.client_aggregate(owner));
                map.apply_retrain(owner, task.shard, state, &task.rows);
                if degraded {
                    telemetry.shard_degraded_drains_total.inc();
                    telemetry.trace.record(EventKind::ShardDegraded {
                        client: owner as u64,
                        shard: task.shard as u64,
                        delegate: executor as u64,
                    });
                    audit_records.push(AuditEventRecord {
                        kind: audit_kind::DEGRADED_DRAIN,
                        client_id: owner as u64,
                        detail: vec![task.shard as u64, executor as u64],
                    });
                    summary.degraded.push((owner, task.shard, executor));
                }
                audit_records.push(served_record(task));
                summary.completed.push((owner, task.shard));
                idx += 1;
            }
        }
        // Deadline expiry or transport failure: the untouched remainder
        // (including the task that hit the wall) goes back to the front
        // — those tasks were first in line and stay first.
        if idx < tasks.len() {
            let remainder: Vec<crate::shard::ShardTask> = tasks[idx..].to_vec();
            summary.requeued = remainder.len();
            self.telemetry
                .shard_tasks_requeued_total
                .add(remainder.len() as u64);
            self.shard_tasks.requeue_front(remainder);
            let remaining = self.shard_tasks.len() as u64;
            for t in &tasks[idx..] {
                self.telemetry.trace.record(EventKind::ShardRequeued {
                    client: t.client_id as u64,
                    shard: t.shard as u64,
                    remaining,
                });
            }
        }
        if let Some(e) = fail {
            return Err(fatal_or(&self.transport, e));
        }
        if summary.completed.is_empty() {
            // The deadline expired before anything ran — nothing to
            // commit; the requeued batch waits for the next drain.
            return Ok(Some(summary));
        }
        // Fold the touched clients' Eq 8 aggregate deltas into the
        // global, size-weighted over the remaining samples, ascending
        // by client id. A fully-emptied client's mass simply drops out.
        {
            let map = self.shard_map.as_ref().expect("shard mode without map");
            let total: usize = (0..map.num_clients()).map(|c| map.remaining(c)).sum();
            if total > 0 {
                for (&client, before) in agg_before.iter() {
                    if map.remaining(client) == 0 {
                        continue;
                    }
                    let after = map.client_aggregate(client);
                    let w = map.remaining(client) as f32 / total as f32;
                    for ((g, &a), &b) in self.global.iter_mut().zip(after.iter()).zip(before.iter())
                    {
                        *g += w * (a - b);
                    }
                }
            }
        }
        let completed = summary.completed.len();
        self.telemetry
            .unlearn_requests_served_total
            .add(completed as u64);
        self.telemetry.drain_batches_total.inc();
        self.telemetry
            .drain_last_batch_requests
            .set(completed as i64);
        self.telemetry.shard_tasks_total.add(completed as u64);
        let drain_stats = self.drain_stats();
        {
            let Coordinator {
                durability,
                shard_map,
                shard_tasks,
                next_round,
                global,
                queue,
                ..
            } = &mut *self;
            if let Some(store) = durability.as_mut() {
                // Audit append (fsync'd) then checkpoint with the
                // advanced shard section — the checkpoint IS the
                // drain's commit record, exactly like the whole-client
                // path.
                let snapshot = shard_map
                    .as_ref()
                    .expect("shard mode without map")
                    .snapshot(shard_tasks.pending());
                let state_digest = digest::state_digest(*next_round as u64, global);
                store
                    .commit_shard_drain(
                        *next_round as u64,
                        serial,
                        &audit_records,
                        &state_digest,
                        *next_round,
                        global,
                        queue.pending(),
                        &snapshot,
                        drain_stats,
                    )
                    .map_err(durability_fault)?;
            }
        }
        self.telemetry.trace.record(EventKind::DrainCommitted {
            requests: completed as u64,
            rounds: 0,
        });
        self.telemetry
            .drain_seconds
            .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(drain_start));
        Ok(Some(summary))
    }

    /// The full serving loop: `rounds` training rounds, draining the
    /// unlearning queue between rounds (and once more after the last).
    /// Seeds derive via [`round_seed`]/[`drain_seed`] (the former
    /// matching `Federation::train_rounds`).
    ///
    /// A recovered coordinator resumes at [`Coordinator::next_round`];
    /// if recovery found an overdue drain (the crash hit between a
    /// round's checkpoint and its drain's commit) it is served first, at
    /// the drain-seed slot of the round already completed — so the
    /// resumed stream is bitwise identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// The first transport failure aborts the run.
    pub fn run(&mut self, rounds: usize, seed: u64) -> Result<RunSummary, TransportError> {
        let mut summary = RunSummary::default();
        if self.resume_drain_pending {
            self.resume_drain_pending = false;
            let slot = self.next_round - 1;
            if self.cfg.shard.is_some() {
                if let Some(s) = self.drain_shard_tasks(drain_seed(seed, slot))? {
                    summary.shard_drains.push(s);
                }
            } else if let Some(u) = self.drain_unlearning(drain_seed(seed, slot))? {
                summary.unlearns.push(u);
            }
        }
        for r in self.next_round..rounds {
            summary
                .rounds
                .push(self.train_round(r, round_seed(seed, r))?);
            if self.cfg.shard.is_some() {
                if let Some(s) = self.drain_shard_tasks(drain_seed(seed, r))? {
                    summary.shard_drains.push(s);
                }
            } else if let Some(u) = self.drain_unlearning(drain_seed(seed, r))? {
                summary.unlearns.push(u);
            }
        }
        Ok(summary)
    }
}

impl<T: ServeTransport> std::fmt::Debug for Coordinator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Coordinator({} params, {} pending requests)",
            self.global.len(),
            self.queue.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoSpec;
    use crate::transport::LoopbackTransport;
    use goldfish_core::basic_model::GoldfishLocalConfig;

    fn coordinator(spec: &DemoSpec) -> Coordinator<LoopbackTransport> {
        let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
        let cfg = CoordinatorConfig {
            train: spec.train_config(),
            method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
                epochs: 1,
                batch_size: 20,
                lr: 0.05,
                momentum: 0.9,
                ..GoldfishLocalConfig::default()
            }),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(2),
            ..CoordinatorConfig::default()
        };
        Coordinator::new(spec.factory(), spec.test_set(), transport, cfg)
    }

    #[test]
    fn run_trains_and_serves_requests() {
        let spec = DemoSpec {
            clients: 2,
            samples_per_client: 60,
            test_samples: 30,
            seed: 8,
        };
        let mut c = coordinator(&spec);
        c.submit_unlearn(UnlearnRequest::new(0, (0..6).collect()))
            .unwrap();
        let summary = c.run(2, 7).unwrap();
        assert_eq!(summary.rounds.len(), 2);
        // The request drained after round 0.
        assert_eq!(summary.unlearns.len(), 1);
        assert_eq!(summary.unlearns[0].requests[0].client_id, 0);
        assert_eq!(summary.unlearns[0].round_accuracies.len(), 1);
        assert!(c.queue().is_empty());
    }

    #[test]
    fn submit_validation_is_typed() {
        let spec = DemoSpec {
            clients: 2,
            samples_per_client: 30,
            test_samples: 10,
            seed: 8,
        };
        let mut c = coordinator(&spec);
        assert_eq!(
            c.submit_unlearn(UnlearnRequest::new(9, vec![0])),
            Err(SubmitError::UnknownClient { client_id: 9 })
        );
        assert_eq!(
            c.submit_unlearn(UnlearnRequest::new(0, vec![99])),
            Err(SubmitError::IndexOutOfRange { index: 99, len: 30 })
        );
        assert!(c.submit_unlearn(UnlearnRequest::new(0, vec![2])).is_ok());
        assert_eq!(c.queue().len(), 1);
    }
}
