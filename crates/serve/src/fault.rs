//! Fault injection: a [`FaultyTransport`] wrapper that kills, drops or
//! delays a serving run at scripted points (DESIGN.md §12.5).
//!
//! The wrapper sits between the coordinator and **any**
//! [`ServeTransport`] — loopback or TCP — and counts transport
//! operations (each broadcast fan-out: a training round, a distill
//! round, an `UnlearnAssign` staging pass, a local-eval sweep is one
//! op). A [`FaultPlan`] maps op indices to actions:
//!
//! * `FaultAction::KillBefore` / `FaultAction::KillAfter` — the
//!   coordinator "crashes" at this op: every client errors out, this
//!   call and forever after. `KillBefore` dies before the inner
//!   transport runs (mid-round crash: no worker saw the op);
//!   `KillAfter` dies after it completed (mid-drain crash: workers
//!   already applied the deletion, the coordinator never committed).
//!   Both leave zero durability side effects in the coordinator, which
//!   is exactly what an aborted round guarantees — the crash-recovery
//!   tests restart from the state directory and must reproduce the
//!   uninterrupted run bitwise.
//! * `FaultAction::DropClient` — one client's reply is suppressed for
//!   this op (straggler/connection-loss simulation).
//!
//! Plans are scripted ([`FaultPlan::kill_before_at`] etc.), so a fault
//! schedule is as reproducible as everything else in this repository.

use crate::queue::UnlearnRequest;
use crate::transport::{LocalEval, ServeTransport, WireStats};
use goldfish_core::transport::{DistillTransport, UnlearnJob};
use goldfish_fed::trainer::Lanes;
use goldfish_fed::transport::{
    RoundTransport, RowOutOfRange, StreamedUpdate, TrainAssign, TransportError, UpdateSink,
};
use goldfish_fed::ModelFactory;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// One scripted fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Crash before the op reaches the inner transport.
    KillBefore,
    /// Crash after the inner transport completed the op (results are
    /// discarded — the coordinator never sees them).
    KillAfter,
    /// Suppress this client's reply for this op.
    DropClient(usize),
}

/// A per-worker Byzantine behaviour, applied to every training update
/// the scripted worker streams through the wrapper (distillation rounds
/// are never scripted). Scripts are fully deterministic, so adversarial
/// runs reproduce bitwise like everything else here.
#[derive(Debug, Clone, PartialEq)]
pub enum ByzantineScript {
    /// Multiply every uploaded coordinate by `factor` (a model-scaling
    /// / boosting attack).
    Scale {
        /// The multiplier.
        factor: f32,
    },
    /// Negate every uploaded coordinate (gradient sign-flip attack).
    SignFlip,
    /// Add seeded uniform noise in `[-amp, amp]` per coordinate. The
    /// per-round stream is derived from `(seed, nonce, client)`, so the
    /// same run replays identically.
    Noise {
        /// Noise amplitude.
        amp: f32,
        /// Base seed of the noise stream.
        seed: u64,
    },
    /// Replay the previous round's upload verbatim — state *and* nonce,
    /// so the admission layer sees a genuinely stale frame. The first
    /// round has nothing to replay and passes through (while caching).
    Replay,
    /// Echo a corrupted nonce, simulating an update forged for (or
    /// left over from) a different round.
    StaleRound,
    /// Deliver the update twice in one round (duplicate-frame attack).
    Duplicate,
    /// Panic while the coordinator handles this worker's reply — the
    /// scripted stand-in for a bug in reply decoding or aggregation.
    /// The reactor must contain it to a typed per-client
    /// `Rejected(HandlerPanic)` failure (worker dropped, round goes
    /// on), never a coordinator abort.
    Panic,
    /// Straggle: this worker is `ms` milliseconds slow. A straggler is
    /// *late, not wrong* — its training updates pass through intact —
    /// but the shard drain consults the declared lateness (via
    /// `ServeTransport::straggle_ms`) against `--drain-deadline-ms`
    /// and, when the budget can't absorb it, routes the shard through
    /// the coded-reconstruction degraded path (DESIGN.md §16).
    Straggle {
        /// Injected per-op lateness in milliseconds.
        ms: u64,
    },
}

impl ByzantineScript {
    /// Parses the daemon-flag syntax: `scale:F`, `signflip`,
    /// `noise:AMP` or `noise:AMP:SEED`, `replay`, `stale`, `dup`,
    /// `panic`, `straggle:MS`.
    pub fn parse(s: &str) -> Option<ByzantineScript> {
        let mut parts = s.split(':');
        let head = parts.next()?;
        let script = match head {
            "scale" => ByzantineScript::Scale {
                factor: parts.next()?.parse().ok()?,
            },
            "signflip" => ByzantineScript::SignFlip,
            "noise" => ByzantineScript::Noise {
                amp: parts.next()?.parse().ok()?,
                seed: match parts.next() {
                    Some(v) => v.parse().ok()?,
                    None => 0xB12E,
                },
            },
            "replay" => ByzantineScript::Replay,
            "stale" => ByzantineScript::StaleRound,
            "dup" => ByzantineScript::Duplicate,
            "panic" => ByzantineScript::Panic,
            "straggle" => ByzantineScript::Straggle {
                ms: parts.next()?.parse().ok()?,
            },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(script)
    }
}

/// A reproducible schedule of faults keyed by transport-op index, plus
/// per-worker Byzantine scripts keyed by client id.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    at: BTreeMap<u64, Vec<FaultAction>>,
    byz: BTreeMap<usize, ByzantineScript>,
}

impl FaultPlan {
    /// No faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Crash before op `op` runs.
    pub fn kill_before_at(mut self, op: u64) -> Self {
        self.at.entry(op).or_default().push(FaultAction::KillBefore);
        self
    }

    /// Crash after op `op` completes on the inner transport.
    pub fn kill_after_at(mut self, op: u64) -> Self {
        self.at.entry(op).or_default().push(FaultAction::KillAfter);
        self
    }

    /// Suppress client `client_id`'s reply at op `op`.
    pub fn drop_client_at(mut self, op: u64, client_id: usize) -> Self {
        self.at
            .entry(op)
            .or_default()
            .push(FaultAction::DropClient(client_id));
        self
    }

    /// Scripts client `client_id` as Byzantine for the whole run.
    pub fn byzantine(mut self, client_id: usize, script: ByzantineScript) -> Self {
        self.byz.insert(client_id, script);
        self
    }

    /// Actions scheduled at `op`.
    pub(crate) fn actions_at(&self, op: u64) -> &[FaultAction] {
        self.at.get(&op).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The Byzantine script of `client_id`, if any.
    pub(crate) fn byzantine_script(&self, client_id: usize) -> Option<&ByzantineScript> {
        self.byz.get(&client_id)
    }
}

/// A [`ServeTransport`] wrapper executing a [`FaultPlan`]. See the
/// module docs for semantics.
pub struct FaultyTransport<T: ServeTransport> {
    inner: T,
    plan: FaultPlan,
    op: u64,
    killed: bool,
    /// [`ByzantineScript::Replay`] memory: the last `(nonce, state)`
    /// each scripted worker uploaded.
    replay: BTreeMap<usize, (u64, Vec<f32>)>,
}

/// What one op's scheduled actions resolve to.
struct OpFate {
    kill_before: bool,
    kill_after: bool,
    drops: Vec<usize>,
}

impl<T: ServeTransport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            op: 0,
            killed: false,
            replay: BTreeMap::new(),
        }
    }

    /// Whether a kill action has fired (the "process" is dead; every
    /// further op errors out).
    pub fn killed(&self) -> bool {
        self.killed
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Advances the op counter and resolves this op's
    /// fate.
    fn begin_op(&mut self) -> OpFate {
        let op = self.op;
        self.op += 1;
        let mut fate = OpFate {
            kill_before: false,
            kill_after: false,
            drops: Vec::new(),
        };
        for action in self.plan.actions_at(op) {
            match action {
                FaultAction::KillBefore => fate.kill_before = true,
                FaultAction::KillAfter => fate.kill_after = true,
                FaultAction::DropClient(id) => fate.drops.push(*id),
            }
        }
        fate
    }

    /// The gate every op passes, one op per call: resolves the op's
    /// fate, then `run`s it on the live transport — unless the
    /// coordinator is already dead or dies here first (`KillBefore`: no
    /// worker sees the op). `None` means the coordinator is dead now and
    /// the caller reports dead errors; after a `KillAfter` that is so
    /// even though `run` happened — the workers did the work, the
    /// coordinator never sees the result.
    fn gated<R>(&mut self, run: impl FnOnce(&mut Self, &OpFate) -> R) -> Option<R> {
        let fate = self.begin_op();
        if self.killed || fate.kill_before {
            self.killed = true;
            return None;
        }
        let out = run(self, &fate);
        if fate.kill_after {
            self.killed = true;
            return None;
        }
        Some(out)
    }

    fn dead_error(client_id: usize) -> TransportError {
        TransportError::Disconnected {
            client_id,
            reason: "fault injection: coordinator killed".into(),
        }
    }

    /// The one interceptor of round-shaped ops (one op per call): `run`
    /// drives the inner transport's round with the sink it is handed.
    /// A kill reports a dead error for every `cohort` member (after a
    /// `KillAfter` the workers did the compute, into a discarding sink);
    /// otherwise dropped clients' updates are suppressed and — for
    /// `byzantine` (training) rounds — scripts run before frames reach
    /// the aggregation `sink`, exactly where a malicious worker's bytes
    /// would enter the coordinator. A suppressed or rejected update
    /// surfaces through the inner transport's own `results` entry for
    /// that client.
    fn round_op(
        &mut self,
        cohort: &[(usize, usize)],
        byzantine: bool,
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
        run: impl FnOnce(&mut T, &mut UpdateSink<'_>, &mut Vec<Result<(), TransportError>>),
    ) {
        let ran = self.gated(|t, fate| {
            if fate.kill_after {
                return run(&mut t.inner, &mut |_| Ok(()), results);
            }
            let scripted = byzantine && !t.plan.byz.is_empty();
            if fate.drops.is_empty() && !scripted {
                return run(&mut t.inner, sink, results);
            }
            let FaultyTransport {
                inner,
                plan,
                replay,
                ..
            } = t;
            let mut scratch: Vec<f32> = Vec::new();
            let mut filtered = |u: StreamedUpdate<'_>| {
                if fate.drops.contains(&u.client_id) {
                    return Err(TransportError::Disconnected {
                        client_id: u.client_id,
                        reason: "fault injection: reply dropped".into(),
                    });
                }
                match plan.byzantine_script(u.client_id) {
                    Some(script) if byzantine => {
                        apply_script(script, &mut *replay, &mut scratch, &mut *sink, u)
                    }
                    _ => sink(u),
                }
            };
            run(inner, &mut filtered, results);
        });
        if ran.is_none() {
            results.clear();
            results.extend(cohort.iter().map(|&(id, _)| Err(Self::dead_error(id))));
        }
    }
}

impl<T: ServeTransport> RoundTransport for FaultyTransport<T> {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        RoundTransport::cohort_into(&self.inner, out)
    }

    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        self.round_op(cohort, true, sink, results, |inner, sink, results| {
            inner.train_round(assign, cohort, sink, results)
        });
    }

    fn quarantine(&mut self, client_id: usize) -> bool {
        self.inner.quarantine(client_id)
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        RoundTransport::lanes(&mut self.inner)
    }
}

/// Applies a client's Byzantine script to one streamed update before it
/// reaches the real aggregation `sink`.
fn apply_script(
    script: &ByzantineScript,
    replay: &mut BTreeMap<usize, (u64, Vec<f32>)>,
    scratch: &mut Vec<f32>,
    sink: &mut UpdateSink<'_>,
    u: StreamedUpdate<'_>,
) -> Result<(), TransportError> {
    match script {
        ByzantineScript::Scale { factor } => {
            scratch.clear();
            scratch.extend(u.state.iter().map(|v| v * factor));
            sink(StreamedUpdate {
                state: scratch,
                ..u
            })
        }
        ByzantineScript::SignFlip => {
            scratch.clear();
            scratch.extend(u.state.iter().map(|v| -v));
            sink(StreamedUpdate {
                state: scratch,
                ..u
            })
        }
        ByzantineScript::Noise { amp, seed } => {
            let mut rng = StdRng::seed_from_u64(
                seed ^ u.nonce ^ (u.client_id as u64).wrapping_mul(0x9E37_79B9),
            );
            scratch.clear();
            scratch.extend(u.state.iter().map(|v| v + rng.gen_range(-amp..=*amp)));
            sink(StreamedUpdate {
                state: scratch,
                ..u
            })
        }
        ByzantineScript::Replay => {
            let prev = replay.insert(u.client_id, (u.nonce, u.state.to_vec()));
            match prev {
                // A genuinely stale frame: last round's state under
                // last round's nonce.
                Some((nonce, state)) => {
                    scratch.clear();
                    scratch.extend_from_slice(&state);
                    sink(StreamedUpdate {
                        nonce,
                        state: scratch,
                        ..u
                    })
                }
                None => sink(u),
            }
        }
        ByzantineScript::StaleRound => sink(StreamedUpdate {
            nonce: u.nonce ^ 0x5741_4C45,
            ..u
        }),
        ByzantineScript::Duplicate => {
            // Both frames are delivered; the recorded outcome is the
            // second one's verdict, which is what a transport that
            // observed its client double-send would report.
            let first = sink(u);
            let second = sink(u);
            first.and(second)
        }
        // The panic unwinds out of the reply handler the transport
        // invoked; the reactor's catch_unwind must turn it into a
        // typed per-client failure.
        ByzantineScript::Panic => panic!(
            "fault injection: scripted reply-handler panic (client {})",
            u.client_id
        ),
        // A straggler is late, not wrong: its training update is
        // delivered unmodified. The lateness bites on the shard drain
        // path, where `straggle_ms` is consulted against the deadline.
        ByzantineScript::Straggle { .. } => sink(u),
    }
}

impl<T: ServeTransport> DistillTransport for FaultyTransport<T> {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        DistillTransport::cohort_into(&self.inner, out)
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        self.gated(|t, _| t.inner.begin_unlearn(job, teacher))
            .unwrap_or_else(|| Err(Self::dead_error(0)))
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
        self.round_op(cohort, false, sink, results, |inner, sink, results| {
            inner.distill_round(round, seed, global, cohort, sink, results)
        });
    }

    fn lanes(&mut self) -> Option<(&ModelFactory, &mut Lanes)> {
        DistillTransport::lanes(&mut self.inner)
    }
}

impl<T: ServeTransport> ServeTransport for FaultyTransport<T> {
    fn client_sizes(&self) -> Vec<usize> {
        self.inner.client_sizes()
    }

    fn stage_removals(&mut self, requests: &[UnlearnRequest]) {
        self.inner.stage_removals(requests)
    }

    fn apply_removals(&mut self, requests: &[UnlearnRequest]) -> Result<(), RowOutOfRange> {
        self.inner.apply_removals(requests)
    }

    fn admit_reconnects(&mut self, round: usize, global: &[f32]) -> usize {
        if self.killed {
            return 0;
        }
        self.inner.admit_reconnects(round, global)
    }

    fn shutdown(&mut self) {
        // A dead process announces nothing — its workers must see the
        // crash (bare EOF), not a graceful goodbye.
        if !self.killed {
            self.inner.shutdown();
        }
    }

    fn local_eval(
        &mut self,
        round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>> {
        let mut live = Vec::new();
        RoundTransport::cohort_into(&self.inner, &mut live);
        let dead = |&(id, _): &(usize, usize)| Err(Self::dead_error(id));
        self.gated(|t, _| t.inner.local_eval(round, global))
            .unwrap_or_else(|| live.iter().map(dead).collect())
    }

    fn fatal_fault(&self) -> Option<&str> {
        if self.killed {
            Some("fault injection: coordinator killed")
        } else {
            None
        }
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }

    fn set_telemetry(&mut self, telemetry: &crate::telemetry::ServeTelemetry) {
        self.inner.set_telemetry(telemetry)
    }

    fn shard_retrain(
        &mut self,
        assign: &crate::shard::ShardRetrainAssign,
    ) -> Result<Vec<f32>, TransportError> {
        self.gated(|t, _| t.inner.shard_retrain(assign))
            .unwrap_or_else(|| Err(Self::dead_error(assign.owner)))
    }

    fn straggle_ms(&self, client_id: usize) -> u64 {
        match self.plan.byzantine_script(client_id) {
            Some(&ByzantineScript::Straggle { ms }) => ms,
            _ => self.inner.straggle_ms(client_id),
        }
    }
}

impl<T: ServeTransport> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultyTransport(op {}, killed {}, {} scheduled op(s))",
            self.op,
            self.killed,
            self.plan.at.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byzantine_scripts_parse_from_flag_syntax() {
        assert_eq!(
            ByzantineScript::parse("straggle:500"),
            Some(ByzantineScript::Straggle { ms: 500 })
        );
        assert_eq!(
            ByzantineScript::parse("scale:2.5"),
            Some(ByzantineScript::Scale { factor: 2.5 })
        );
        assert_eq!(ByzantineScript::parse("straggle"), None);
        assert_eq!(ByzantineScript::parse("straggle:abc"), None);
        assert_eq!(ByzantineScript::parse("straggle:500:extra"), None);
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::new().kill_before_at(3).drop_client_at(1, 2);
        assert_eq!(plan.actions_at(0), &[]);
        assert_eq!(plan.actions_at(3), &[FaultAction::KillBefore]);
        assert_eq!(plan.actions_at(1), &[FaultAction::DropClient(2)]);
    }

    #[test]
    fn round_faults_are_reported_per_cohort_id() {
        use crate::demo::DemoSpec;
        use crate::transport::LoopbackTransport;

        let spec = DemoSpec {
            clients: 4,
            samples_per_client: 20,
            test_samples: 10,
            seed: 3,
        };
        let mut inner = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
        // Client 1 is gone: the live set has a gap, so a `results`
        // position is not a client id.
        inner.quarantine(1);
        let plan = FaultPlan::new().drop_client_at(0, 2).kill_before_at(1);
        let mut t = FaultyTransport::new(inner, plan);
        let global = (spec.factory())(1).state_vector();
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
        assert_eq!(cohort.iter().map(|c| c.0).collect::<Vec<_>>(), [0, 2, 3]);
        let failed = |results: &[Result<(), TransportError>]| -> Vec<Option<usize>> {
            let id = |r: &Result<(), TransportError>| r.as_ref().err().and_then(|e| e.client_id());
            results.iter().map(id).collect()
        };
        let mut results = Vec::new();
        // Op 0: exactly one drop, for client 2; client 3 stays Ok.
        t.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
        assert_eq!(failed(&results), [None, Some(2), None]);
        // Op 1: the kill reports a dead error for each cohort id.
        t.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
        assert_eq!(failed(&results), [Some(0), Some(2), Some(3)]);
        assert!(t.killed());
        // So does an eval fan-out: live ids, not positions 0..3.
        let blamed: Vec<_> = t
            .local_eval(0, &global)
            .iter()
            .map(|r| r.as_ref().err().and_then(|e| e.client_id()))
            .collect();
        assert_eq!(blamed, [Some(0), Some(2), Some(3)]);
    }
}
