//! The worker daemon's client-side state machine.
//!
//! A worker owns one client's local dataset and answers the
//! coordinator's messages:
//!
//! ```text
//!            ┌────────────── Training ◄──────────────┐
//!            │   RoundAssign(Train) → Update         │ RoundAssign(Train)
//!            │   Eval              → Eval            │ (drops distill state)
//!            ▼                                       │
//!   UnlearnAssign (build ClientDistiller) ──► Unlearning
//!                RoundAssign(Distill) → UnlearnResult
//! ```
//!
//! The per-round compute is the library's own: a
//! [`goldfish_fed::trainer::TrainLane`] run for training rounds and
//! [`ClientDistiller::round`] for distillation rounds — the exact
//! functions the in-process loopback transport runs, which is what makes
//! a TCP federation bitwise identical to a loopback one. The lane belongs
//! to whoever hosts the runtime (one per connection in [`serve_stream`],
//! one per thread in [`crate::fleet::run_fleet`]) and is lent to
//! [`WorkerRuntime::answer`] per frame: it carries capacity, never
//! state, so a lane that just served another worker changes no bit. The
//! lane's network also tells the handshake the model's size
//! ([`WorkerRuntime::hello`]): a runtime builds no network of its own.
//!
//! Both hosts answer every frame through [`WorkerRuntime::answer`]. A
//! training assignment — every round of a federation, 407 KB each way on
//! the benchmark's MLP — is answered from the frame's bytes: its floats
//! go straight into the lane's network and the `Update`'s floats
//! straight from the network into the reply frame. Every other frame is
//! decoded into a [`Msg`] and answered by [`WorkerRuntime::handle`], whose
//! training arm shares the byte path's round ([`WorkerRuntime::answer`]
//! is pinned byte for byte against it).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use goldfish_core::transport::{ClientDistiller, DistillJob};
use goldfish_core::ClientSplit;
use goldfish_data::Dataset;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::trainer::{TrainConfig, TrainLane};
use goldfish_fed::transport::client_seed;
use goldfish_fed::ModelFactory;

use crate::digest::DIGEST_LEN;
use crate::wire::{
    self, decode_msg, encode_frame_into, err_code, read_frame, read_raw_frame, write_frame,
    FrameLimits, Msg, RoundMode, UpdateHeader, WireError,
};

/// A worker's unlearning request: the shared job, the client's
/// distillation state and its removed rows.
struct Unlearning {
    job: DistillJob,
    distiller: ClientDistiller,
    forget: Dataset,
}

/// The worker-side state machine: one logical client, independent of how
/// its messages arrive (a socket in production, a byte buffer in tests).
pub struct WorkerRuntime {
    client_id: usize,
    factory: ModelFactory,
    data: Dataset,
    /// The model's state-vector length, once a host's lane has told it
    /// ([`WorkerRuntime::state_len`]).
    state_len: Option<usize>,
    /// The unlearning request being distilled, between its
    /// `UnlearnAssign` and the next training round.
    unlearning: Option<Unlearning>,
    /// Last round this worker answered — the `Hello` resume token after
    /// a reconnect (`None` until the first answered round).
    last_round: Option<u64>,
    /// The most recent applied deletion batch: its drain serial plus the
    /// removed rows (the remaining rows are `data`). A re-shipped
    /// `UnlearnAssign` carrying the same serial (coordinator
    /// crash-restart re-draining the batch it never committed) reuses
    /// this instead of shrinking the dataset twice.
    last_unlearn: Option<(u64, Dataset)>,
    /// Round cursor + global-state digest the coordinator announced at
    /// re-admission (the `Digest` frame), for post-run verification.
    resume_digest: Option<(u64, [u8; DIGEST_LEN])>,
    /// Coordinator messages handled across all sessions (reconnect
    /// policies use it to tell progress from connect-fail loops).
    frames_handled: u64,
}

impl WorkerRuntime {
    /// Builds the runtime for one client. Builds no network: the model's
    /// size is learned from the host's lane at the handshake.
    pub fn new(client_id: usize, factory: ModelFactory, data: Dataset) -> Self {
        WorkerRuntime {
            client_id,
            factory,
            data,
            state_len: None,
            unlearning: None,
            last_round: None,
            last_unlearn: None,
            resume_digest: None,
            frames_handled: 0,
        }
    }

    /// This worker's client id.
    pub(crate) fn client_id(&self) -> usize {
        self.client_id
    }

    /// The model's state-vector length (announced in `Hello`), read off
    /// the network `lane` builds for this worker's factory — the network
    /// the lane then trains on, so a host that lends one lane to all its
    /// workers builds one network for all of them — and remembered.
    pub fn state_len(&mut self, lane: &mut TrainLane) -> usize {
        *self
            .state_len
            .get_or_insert_with(|| lane.state_len(&self.factory))
    }

    /// The last round this worker answered, if any — what its next
    /// `Hello` carries as the resume token.
    pub fn last_round(&self) -> Option<u64> {
        self.last_round
    }

    /// The `(round, digest)` the coordinator announced when this worker
    /// was re-admitted, if it ever reconnected mid-run.
    pub fn resume_digest(&self) -> Option<(u64, [u8; DIGEST_LEN])> {
        self.resume_digest
    }

    /// Coordinator messages handled across all sessions.
    pub(crate) fn frames_handled(&self) -> u64 {
        self.frames_handled
    }

    /// The introduction frame this worker opens a connection with, its
    /// model size read through the host's `lane`
    /// ([`WorkerRuntime::state_len`]). A worker that already answered
    /// rounds introduces itself with a resume token (client id + last
    /// answered round) so the coordinator re-admits it into its old slot.
    pub fn hello(&mut self, lane: &mut TrainLane) -> Msg {
        Msg::Hello {
            client_id: self.client_id as u64,
            state_len: self.state_len(lane) as u64,
            num_samples: self.data.len() as u64,
            resume: self.last_round,
        }
    }

    /// Handles one decoded coordinator message and returns the reply to
    /// send, training and evaluating on the host's `lane` — the typed form
    /// of [`WorkerRuntime::answer`], which hosts call. Protocol violations
    /// produce a [`Msg::Err`] reply (the caller should close the
    /// connection after sending one).
    pub fn handle(&mut self, msg: Msg, lane: &mut TrainLane) -> Msg {
        self.frames_handled += 1;
        let state_len = self.state_len(lane);
        match msg {
            Msg::RoundAssign {
                mode: RoundMode::Train,
                round,
                seed,
                nonce,
                cfg,
                global,
            } => match self.train(lane, round, seed, nonce, &cfg, Global::Floats(&global)) {
                Ok(head) => {
                    // The assignment's buffer becomes the reply's.
                    let mut state = global;
                    lane.state_into(&mut state);
                    Msg::Update {
                        round: head.round,
                        client_id: head.client_id,
                        weight: head.weight,
                        nonce: head.nonce,
                        state,
                    }
                }
                Err((got, want)) => bad_state_len(got, want),
            },
            Msg::UnlearnAssign {
                serial,
                job,
                removed,
                teacher,
            } => {
                if teacher.len() != state_len {
                    return bad_state_len(teacher.len(), state_len);
                }
                let hard = match job.hard {
                    Some(spec) => spec.build(),
                    None => {
                        return Msg::Err {
                            code: err_code::BAD_REQUEST,
                            detail: "unlearn job carries no wire-encodable hard loss".into(),
                        }
                    }
                };
                let forget = if removed.is_empty() {
                    Dataset::empty(self.data.sample_shape(), self.data.classes())
                } else if let Some((_, cached)) = self
                    .last_unlearn
                    .as_ref()
                    .filter(|(last, _)| *last == serial)
                {
                    // The same drain serial again: a coordinator that
                    // crashed before committing the batch re-drained it
                    // on recovery. The deletion already happened — reuse
                    // the removed rows instead of shrinking twice (the
                    // shipped indices address the pre-deletion dataset,
                    // which no longer exists here).
                    cached.clone()
                } else {
                    if let Some(&bad) = removed.iter().find(|&&i| i as usize >= self.data.len()) {
                        return Msg::Err {
                            code: err_code::BAD_REQUEST,
                            detail: format!(
                                "removed index {bad} out of {} local samples",
                                self.data.len()
                            ),
                        };
                    }
                    let idx: Vec<usize> = removed.iter().map(|&i| i as usize).collect();
                    let split = ClientSplit::with_removed(&self.data, &idx);
                    // The deletion is permanent: once the request is
                    // assigned, the removed samples leave this worker's
                    // dataset — later training rounds must never touch
                    // them again.
                    self.data = split.remaining;
                    self.last_unlearn = Some((serial, split.forget.clone()));
                    split.forget
                };
                self.unlearning = Some(Unlearning {
                    job: DistillJob::new(Arc::clone(&self.factory), teacher, job.local, hard),
                    distiller: ClientDistiller::new(self.client_id),
                    forget,
                });
                // The job is accepted; the distiller answers the coming
                // Distill assignments. The ack carries this worker's
                // authoritative remaining sample count — correct whether
                // the deletion was fresh or deduplicated by serial.
                Msg::UnlearnAck {
                    num_samples: self.data.len() as u64,
                }
            }
            Msg::RoundAssign {
                mode: RoundMode::Distill,
                round,
                seed,
                nonce,
                global,
                ..
            } => {
                if global.len() != state_len {
                    return bad_state_len(global.len(), state_len);
                }
                match self.unlearning.as_mut() {
                    Some(u) => {
                        // The student trains on the host's lane; the
                        // assignment's buffer becomes the reply's.
                        let mut state = global;
                        u.distiller.round(
                            &u.job,
                            &self.data,
                            &u.forget,
                            lane,
                            &state,
                            round as usize,
                            seed,
                        );
                        lane.state_into(&mut state);
                        self.last_round = Some(round);
                        Msg::UnlearnResult {
                            round,
                            client_id: self.client_id as u64,
                            weight: self.data.len() as u64,
                            nonce,
                            state,
                        }
                    }
                    None => Msg::Err {
                        code: err_code::NOT_UNLEARNING,
                        detail: "distill round without a preceding UnlearnAssign".into(),
                    },
                }
            }
            Msg::Digest { round, digest } => {
                // The coordinator's re-admission announcement: record
                // where the run stands and acknowledge.
                self.resume_digest = Some((round, digest));
                Msg::Ack
            }
            Msg::Eval { round, global, .. } => {
                if global.len() != state_len {
                    return bad_state_len(global.len(), state_len);
                }
                let (accuracy, mse) = lane.eval(&self.factory, &global, &self.data);
                Msg::Eval {
                    round,
                    accuracy,
                    mse,
                    global: Vec::new(),
                }
            }
            other => Msg::Err {
                code: err_code::BAD_REQUEST,
                detail: format!("unexpected {} from coordinator", other.name()),
            },
        }
    }

    /// Answers one coordinator frame — its `kind` and `payload` — on the
    /// host's `lane`, writing the reply frame into `reply` (cleared first,
    /// capacity reused). Both hosts, [`serve_stream`] and
    /// [`crate::fleet::run_fleet`], answer through it.
    ///
    /// A training `RoundAssign` is answered from the frame's bytes: its
    /// fixed fields are read in place, its floats go straight into the
    /// lane's network, and the `Update`'s floats straight from the network
    /// into `reply` — no state vector in between, so once the lane and
    /// `reply` are warm the answer allocates nothing. Any other frame is
    /// decoded and answered by [`WorkerRuntime::handle`]; the reply bytes
    /// are the same either way.
    ///
    /// # Errors
    ///
    /// A payload that does not decode, the coordinator's own `Err` frame
    /// (as [`WireError::Malformed`]), or a reply too large for `limits`;
    /// the host closes the connection without replying.
    pub fn answer(
        &mut self,
        kind: u8,
        payload: &[u8],
        lane: &mut TrainLane,
        reply: &mut Vec<u8>,
        limits: &FrameLimits,
    ) -> Result<Answer, WireError> {
        let msg = if kind == wire::kind::ROUND_ASSIGN {
            let assign = wire::read_round_assign(payload)?;
            if assign.mode == RoundMode::Train {
                self.frames_handled += 1;
                let global = Global::Bytes(assign.global);
                let (round, seed, nonce) = (assign.round, assign.seed, assign.nonce);
                return match self.train(lane, round, seed, nonce, &assign.cfg, global) {
                    Ok(head) => {
                        let floats = assign.global.len() / 4;
                        let put = |out: &mut Vec<u8>| lane.append_state_le(out);
                        wire::encode_update_into(reply, &head, floats, put, limits)?;
                        Ok(Answer::Reply)
                    }
                    Err((got, want)) => encode_answer(&bad_state_len(got, want), reply, limits),
                };
            }
            assign.to_msg()
        } else {
            decode_msg(kind, payload)?
        };
        match msg {
            Msg::Shutdown => Ok(Answer::Shutdown),
            // The coordinator's eviction notice (e.g. quarantine).
            Msg::Err { code, detail } => Err(WireError::Malformed(format!(
                "coordinator error (code {code}): {detail}"
            ))),
            msg => encode_answer(&self.handle(msg, lane), reply, limits),
        }
    }

    /// A training round from `global`, shared by both answer paths: ends
    /// any unlearning request, checks the state length, trains on the
    /// lane from the client's derived seed and records the round. Returns
    /// the `Update`'s fixed fields (the trained state is left on the
    /// lane), or the assignment's and the model's state lengths when they
    /// differ.
    fn train(
        &mut self,
        lane: &mut TrainLane,
        round: u64,
        seed: u64,
        nonce: u64,
        cfg: &TrainConfig,
        global: Global<'_>,
    ) -> Result<UpdateHeader, (usize, usize)> {
        // A plain training round ends any unlearning request.
        self.unlearning = None;
        let state_len = self.state_len(lane);
        let got = match global {
            Global::Floats(g) => g.len(),
            Global::Bytes(b) => b.len() / 4,
        };
        if got != state_len {
            return Err((got, state_len));
        }
        let s = client_seed(seed, self.client_id, round as usize);
        match global {
            Global::Floats(g) => lane.run(&self.factory, g, &self.data, cfg, s),
            Global::Bytes(b) => lane.run_le(&self.factory, b, &self.data, cfg, s),
        }
        self.last_round = Some(round);
        Ok(UpdateHeader {
            round,
            client_id: self.client_id as u64,
            weight: self.data.len() as u64,
            // The echoed nonce: the coordinator's admission layer matches
            // it against the assignment to reject stale/replayed frames.
            nonce,
            distill: false,
        })
    }
}

/// What a host does once [`WorkerRuntime::answer`] has written a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Send the reply and read the next frame.
    Reply,
    /// Send the reply — a protocol `Err`, described here — then close
    /// the connection.
    Refuse(String),
    /// The coordinator's `Shutdown`: close cleanly, nothing to send.
    Shutdown,
}

/// Encodes `msg` as the reply and says what follows it.
fn encode_answer(
    msg: &Msg,
    reply: &mut Vec<u8>,
    limits: &FrameLimits,
) -> Result<Answer, WireError> {
    encode_frame_into(msg, reply, limits)?;
    Ok(match msg {
        Msg::Err { .. } => Answer::Refuse(wire::describe_err(msg)),
        _ => Answer::Reply,
    })
}

/// A training assignment's global state as its host holds it.
#[derive(Clone, Copy)]
enum Global<'a> {
    /// Decoded, in a [`Msg::RoundAssign`].
    Floats(&'a [f32]),
    /// The frame's little-endian float bytes.
    Bytes(&'a [u8]),
}

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerRuntime(client {}, {} samples, state_len {:?}, unlearning: {})",
            self.client_id,
            self.data.len(),
            self.state_len,
            self.unlearning.is_some()
        )
    }
}

fn bad_state_len(got: usize, want: usize) -> Msg {
    Msg::Err {
        code: err_code::BAD_STATE_LEN,
        detail: format!("state vector length {got}, this worker's model has {want}"),
    }
}

/// Connects to a coordinator, performs the `Hello`/`Capabilities`
/// handshake and serves assignments until the coordinator closes the
/// connection (clean shutdown) or a protocol error occurs.
///
/// # Errors
///
/// [`WireError`] on handshake or I/O failures; a coordinator-initiated
/// close is `Ok`.
pub fn run_worker(
    addr: &str,
    runtime: &mut WorkerRuntime,
    limits: &FrameLimits,
) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr)?;
    serve_stream(stream, runtime, limits)
}

/// Judges the coordinator's answer to `runtime`'s `Hello` — the one
/// handshake check every worker host runs ([`serve_stream`] per daemon,
/// [`crate::fleet::run_fleet`] per hosted runtime) — its model size read
/// through the host's `lane`.
///
/// # Errors
///
/// [`WireError::Malformed`] unless the answer is a `Capabilities` this
/// worker can serve under: a typed rejection, any other frame, a model
/// of a different size, or an aggregation mode it cannot decode.
pub(crate) fn check_capabilities(
    reply: &Msg,
    runtime: &mut WorkerRuntime,
    lane: &mut TrainLane,
) -> Result<(), WireError> {
    let id = runtime.client_id();
    let refuse = |why: String| Err(WireError::Malformed(why));
    match reply {
        Msg::Capabilities {
            state_len,
            agg_mode,
            agg_param,
            ..
        } => {
            let ours = runtime.state_len(lane);
            if *state_len as usize != ours {
                return refuse(format!(
                    "coordinator model has {state_len} params, worker {id} has {ours}"
                ));
            }
            // The negotiated aggregation mode: a worker that cannot
            // decode it would disagree with the coordinator about what
            // its updates feed, so it refuses the session.
            if AggregationMode::from_wire(*agg_mode, *agg_param).is_none() {
                return refuse(format!(
                    "coordinator announced unknown aggregation mode {agg_mode} (param {agg_param})"
                ));
            }
            Ok(())
        }
        Msg::Err { code, detail } => refuse(format!(
            "coordinator rejected worker {id} (code {code}): {detail}"
        )),
        other => refuse(format!(
            "expected Capabilities for worker {id}, got {}",
            other.name()
        )),
    }
}

/// The connection loop over an established stream (what [`run_worker`]
/// runs after connecting; tests call it on in-process socket pairs).
///
/// # Errors
///
/// [`WireError`] on handshake or I/O failures.
pub fn serve_stream(
    mut stream: TcpStream,
    runtime: &mut WorkerRuntime,
    limits: &FrameLimits,
) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    // Connection-lifetime training lane and frame buffers: the lane's
    // network answers the handshake's model size and then trains, and
    // incoming payloads, outgoing replies and the network's arenas reuse
    // the same allocations round after round.
    let mut lane = TrainLane::new();
    write_frame(&mut stream, &runtime.hello(&mut lane), limits)?;
    let (reply, _) = read_frame(&mut stream, limits)?;
    check_capabilities(&reply, runtime, &mut lane)?;
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    loop {
        // Bare EOF is NOT a clean end: a graceful coordinator sends
        // `Shutdown` first. EOF without it means the coordinator (or
        // the network) died, which must surface as an error so the
        // resilient loop can reconnect instead of exiting 0.
        let (kind, _) = read_raw_frame(&mut stream, &mut rbuf, limits)?;
        let refusal = match runtime.answer(kind, &rbuf, &mut lane, &mut wbuf, limits)? {
            Answer::Shutdown => return Ok(()),
            Answer::Reply => None,
            Answer::Refuse(why) => Some(why),
        };
        {
            use std::io::Write;
            stream.write_all(&wbuf)?;
            stream.flush()?;
        }
        if let Some(why) = refusal {
            return Err(WireError::Malformed(why));
        }
    }
}

/// Bounded-backoff policy of [`run_worker_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Consecutive failed attempts (connect failure or a session that
    /// handled no message) before giving up. `1` = a single try.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per consecutive failure.
    pub initial_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed — typically the worker's client id, so a
    /// mass-disconnect spreads the fleet's retries across the backoff
    /// window instead of thundering-herding the coordinator. The
    /// schedule stays fully deterministic per `(seed, attempt)`.
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 20,
            initial_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

/// Deterministic seeded jitter for one reconnect attempt: maps the
/// exponential-backoff `delay` into `[delay/2, delay)` using a
/// splitmix64 hash of `(seed, attempt)`. Same inputs, same output —
/// reconnect schedules are reproducible — while distinct seeds (one per
/// worker) decorrelate the fleet.
pub(crate) fn jittered_backoff(seed: u64, attempt: u32, delay: Duration) -> Duration {
    let nanos = delay.as_nanos().min(u64::MAX as u128) as u64;
    let half = nanos / 2;
    let span = nanos - half;
    if half == 0 {
        // Sub-2ns delays have no jitter window; pass through.
        return delay;
    }
    let mut z = seed
        .wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Duration::from_nanos(half + z % span)
}

/// Why a worker gave up on its coordinator — the worker daemon's exit
/// status derives from the variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSessionError {
    /// The coordinator answered but refused this worker (handshake
    /// rejection or a protocol violation). Retrying cannot help.
    Rejected {
        /// Human-readable rejection/violation text.
        detail: String,
    },
    /// The connection (or the coordinator) went away and the reconnect
    /// budget ran out.
    Disconnected {
        /// The last transport failure observed.
        detail: String,
    },
}

impl std::fmt::Display for WorkerSessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerSessionError::Rejected { detail } => {
                write!(f, "coordinator rejected this worker: {detail}")
            }
            WorkerSessionError::Disconnected { detail } => {
                write!(
                    f,
                    "coordinator unreachable, reconnect budget exhausted: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for WorkerSessionError {}

/// [`run_worker`] with crash resilience: a lost connection (including a
/// coordinator that died mid-frame) is retried under `policy` with
/// exponential backoff, re-introducing the runtime with its resume
/// token. Any session that handles at least one message refills the
/// attempt budget, so a long-lived worker survives any number of
/// *separate* coordinator restarts while a dead coordinator still fails
/// fast.
///
/// # Errors
///
/// [`WorkerSessionError::Rejected`] on a handshake rejection or
/// protocol violation (never retried);
/// [`WorkerSessionError::Disconnected`] when the budget runs out.
pub fn run_worker_resilient(
    addr: &str,
    runtime: &mut WorkerRuntime,
    limits: &FrameLimits,
    policy: ReconnectPolicy,
) -> Result<(), WorkerSessionError> {
    let mut attempts = 0u32;
    let mut delay = policy.initial_delay;
    loop {
        let before = runtime.frames_handled();
        let outcome = TcpStream::connect(addr)
            .map_err(WireError::from)
            .and_then(|stream| serve_stream(stream, runtime, limits));
        let detail = match outcome {
            Ok(()) => return Ok(()),
            // Malformed covers handshake rejections and protocol-level
            // faults: deterministic, so retrying is useless.
            Err(WireError::Malformed(detail)) => {
                return Err(WorkerSessionError::Rejected { detail })
            }
            Err(e) => e.to_string(),
        };
        if runtime.frames_handled() > before {
            // The session made progress before dying — a fresh outage,
            // not a continuation of the previous one.
            attempts = 0;
            delay = policy.initial_delay;
        }
        attempts += 1;
        if attempts >= policy.max_attempts {
            return Err(WorkerSessionError::Disconnected { detail });
        }
        std::thread::sleep(jittered_backoff(policy.jitter_seed, attempts, delay));
        delay = (delay * 2).min(policy.max_delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoSpec;
    use goldfish_core::basic_model::GoldfishLocalConfig;
    use goldfish_core::transport::UnlearnJob;
    use goldfish_fed::eval;
    use goldfish_fed::trainer::train_local_ce;
    use goldfish_nn::loss::HardLossSpec;

    fn runtime() -> (WorkerRuntime, DemoSpec) {
        let spec = DemoSpec {
            clients: 2,
            samples_per_client: 40,
            test_samples: 20,
            seed: 6,
        };
        (
            WorkerRuntime::new(1, spec.factory(), spec.client_shard(1)),
            spec,
        )
    }

    #[test]
    fn train_round_matches_local_execution() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let factory = spec.factory();
        let global = (factory)(3).state_vector();
        let cfg = spec.train_config();
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Train,
                round: 2,
                seed: 11,
                nonce: 0xFACE,
                cfg,
                global: global.clone(),
            },
            &mut lane,
        );
        let Msg::Update {
            round,
            client_id,
            weight,
            nonce,
            state,
        } = reply
        else {
            panic!("expected Update, got {reply:?}");
        };
        // The worker echoes the assignment's nonce verbatim.
        assert_eq!((round, client_id, weight, nonce), (2, 1, 40, 0xFACE));
        let s = client_seed(11, 1, 2);
        let mut net = (factory)(s);
        net.set_state_vector(&global);
        train_local_ce(&mut net, &spec.client_shard(1), &cfg, s);
        assert_eq!(state, net.state_vector());
    }

    /// The trainer chunks each epoch by `batch_size`, so a zero would
    /// panic the thread hosting the worker (under `run_fleet`, every
    /// worker on it). The decoder refuses the frame instead.
    #[test]
    fn a_zero_batch_round_assign_is_malformed_and_panics_no_worker() {
        use std::io::Write;
        let (mut w, spec) = runtime();
        let limits = FrameLimits::default();
        let state_len = w.state_len(&mut TrainLane::new());
        let frame = wire::encode_frame(
            &Msg::RoundAssign {
                mode: RoundMode::Train,
                round: 0,
                seed: 0,
                nonce: 0,
                cfg: goldfish_fed::trainer::TrainConfig {
                    batch_size: 0,
                    ..spec.train_config()
                },
                global: vec![0.0; state_len],
            },
            &limits,
        )
        .unwrap();
        assert!(matches!(
            wire::decode_frame(&frame, &limits),
            Err(WireError::Malformed(_))
        ));

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            serve_stream(TcpStream::connect(addr).unwrap(), &mut w, &limits)
        });
        let (mut sock, _) = listener.accept().unwrap();
        let (hello, _) = read_frame(&mut sock, &limits).unwrap();
        assert!(matches!(hello, Msg::Hello { .. }), "got {hello:?}");
        let caps = Msg::Capabilities {
            max_payload: limits.max_payload as u64,
            state_len: state_len as u64,
            agg_mode: 0,
            agg_param: 0,
        };
        write_frame(&mut sock, &caps, &limits).unwrap();
        sock.write_all(&frame).unwrap();
        let outcome = worker.join().expect("the worker thread panicked");
        assert!(
            matches!(outcome, Err(WireError::Malformed(_))),
            "{outcome:?}"
        );
    }

    #[test]
    fn distill_requires_assignment() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let global = (spec.factory())(3).state_vector();
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Distill,
                round: 0,
                seed: 0,
                nonce: 0,
                cfg: spec.train_config(),
                global,
            },
            &mut lane,
        );
        assert!(matches!(
            reply,
            Msg::Err {
                code: err_code::NOT_UNLEARNING,
                ..
            }
        ));
    }

    #[test]
    fn unlearn_flow_runs_and_train_exits_it() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let teacher = (spec.factory())(3).state_vector();
        let job = UnlearnJob {
            local: GoldfishLocalConfig {
                epochs: 1,
                batch_size: 20,
                ..GoldfishLocalConfig::default()
            },
            hard: Some(HardLossSpec::CrossEntropy),
        };
        let ack = w.handle(
            Msg::UnlearnAssign {
                serial: 0,
                job,
                removed: vec![0, 3],
                teacher: teacher.clone(),
            },
            &mut lane,
        );
        // The ack reports the post-deletion dataset size (worker truth).
        assert!(matches!(ack, Msg::UnlearnAck { num_samples: 38 }));
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Distill,
                round: 0,
                seed: 5,
                nonce: 21,
                cfg: spec.train_config(),
                global: teacher.clone(),
            },
            &mut lane,
        );
        let Msg::UnlearnResult { weight, nonce, .. } = reply else {
            panic!("expected UnlearnResult, got {reply:?}");
        };
        assert_eq!((weight, nonce), (38, 21)); // 40 - 2 removed, nonce echoed

        // A training assignment exits unlearning mode — and trains on
        // the post-deletion dataset (the removal is permanent).
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Train,
                round: 1,
                seed: 5,
                nonce: 0,
                cfg: spec.train_config(),
                global: teacher.clone(),
            },
            &mut lane,
        );
        let Msg::Update { weight, .. } = reply else {
            panic!("expected Update, got {reply:?}");
        };
        assert_eq!(weight, 38);
        // …so a further distill round is a protocol error again.
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Distill,
                round: 1,
                seed: 5,
                nonce: 0,
                cfg: spec.train_config(),
                global: teacher,
            },
            &mut lane,
        );
        assert!(matches!(reply, Msg::Err { .. }));
    }

    #[test]
    fn bad_requests_are_typed() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let reply = w.handle(
            Msg::RoundAssign {
                mode: RoundMode::Train,
                round: 0,
                seed: 0,
                nonce: 0,
                cfg: spec.train_config(),
                global: vec![0.0; 3],
            },
            &mut lane,
        );
        assert!(matches!(
            reply,
            Msg::Err {
                code: err_code::BAD_STATE_LEN,
                ..
            }
        ));
        let teacher = (spec.factory())(0).state_vector();
        let reply = w.handle(
            Msg::UnlearnAssign {
                serial: 0,
                job: UnlearnJob {
                    local: GoldfishLocalConfig::default(),
                    hard: Some(HardLossSpec::CrossEntropy),
                },
                removed: vec![10_000],
                teacher,
            },
            &mut lane,
        );
        assert!(matches!(
            reply,
            Msg::Err {
                code: err_code::BAD_REQUEST,
                ..
            }
        ));
        let reply = w.handle(
            Msg::Hello {
                client_id: 0,
                state_len: 0,
                num_samples: 0,
                resume: None,
            },
            &mut lane,
        );
        assert!(matches!(reply, Msg::Err { .. }));
    }

    #[test]
    fn eval_reports_local_metrics() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let global = (spec.factory())(3).state_vector();
        let reply = w.handle(
            Msg::Eval {
                round: 4,
                accuracy: 0.0,
                mse: 0.0,
                global,
            },
            &mut lane,
        );
        let Msg::Eval {
            round,
            accuracy,
            mse,
            global,
        } = reply
        else {
            panic!("expected Eval, got {reply:?}");
        };
        assert_eq!(round, 4);
        assert!((0.0..=1.0).contains(&accuracy));
        assert!(mse > 0.0);
        assert!(global.is_empty());
    }

    /// One lent lane, two runtimes, consecutive messages: every reply is
    /// what a fresh `factory(seed)` network would have produced — the
    /// lane carries capacity, never state, whoever used it last.
    #[test]
    fn a_lent_lane_equals_a_fresh_network_per_message() {
        let (_, spec) = runtime();
        // Clones of one factory (a fleet host's usual shape: the lane's
        // network is reused) and a separately built one (it is rebuilt).
        let shared = spec.factory();
        for other in [Arc::clone(&shared), spec.factory()] {
            let mut workers = [
                WorkerRuntime::new(0, Arc::clone(&shared), spec.client_shard(0)),
                WorkerRuntime::new(1, other, spec.client_shard(1)),
            ];
            let mut lane = TrainLane::new();
            let cfg = spec.train_config();
            let mut global = (shared)(3).state_vector();
            for round in 0..2u64 {
                for (id, w) in workers.iter_mut().enumerate() {
                    let reply = w.handle(
                        Msg::RoundAssign {
                            mode: RoundMode::Train,
                            round,
                            seed: 11,
                            nonce: 5,
                            cfg,
                            global: global.clone(),
                        },
                        &mut lane,
                    );
                    let Msg::Update { state, .. } = reply else {
                        panic!("expected Update, got {reply:?}");
                    };
                    let s = client_seed(11, id, round as usize);
                    let mut net = (shared)(s);
                    net.set_state_vector(&global);
                    train_local_ce(&mut net, &spec.client_shard(id), &cfg, s);
                    assert_eq!(state, net.state_vector(), "round {round} client {id}");
                    // The next message starts from this reply.
                    global = state;

                    let reply = w.handle(
                        Msg::Eval {
                            round,
                            accuracy: 0.0,
                            mse: 0.0,
                            global: global.clone(),
                        },
                        &mut lane,
                    );
                    let Msg::Eval { accuracy, mse, .. } = reply else {
                        panic!("expected Eval, got {reply:?}");
                    };
                    let mut net = (shared)(0);
                    net.set_state_vector(&global);
                    let data = spec.client_shard(id);
                    assert_eq!(accuracy, eval::accuracy(&mut net, &data));
                    assert_eq!(mse, eval::mse(&mut net, &data));
                }
            }
        }
    }

    /// A training assignment's frame, encoded as the coordinator's
    /// broadcast encodes it.
    fn assign_frame(round: u64, seed: u64, cfg: &TrainConfig, global: &[f32]) -> Vec<u8> {
        let mut frame = Vec::new();
        let limits = FrameLimits::default();
        wire::encode_round_assign_into(
            &mut frame,
            RoundMode::Train,
            round,
            seed,
            0xC0DE + round,
            cfg,
            global,
            &limits,
        )
        .unwrap();
        frame
    }

    /// `answer` on a frame is `encode_frame(handle(decode_msg(frame)))`,
    /// byte for byte: training rounds (answered from the frame's bytes)
    /// over seeded globals, round seeds and batch sizes — the small and
    /// the tiled `Dense` paths, a short last batch — and the frames that
    /// still go through `handle`.
    #[test]
    fn byte_answers_equal_typed_answers() {
        let (_, spec) = runtime();
        let factory = spec.factory();
        let limits = FrameLimits::default();
        let mut bytes = WorkerRuntime::new(1, Arc::clone(&factory), spec.client_shard(1));
        let mut typed = WorkerRuntime::new(1, Arc::clone(&factory), spec.client_shard(1));
        let (mut bytes_lane, mut typed_lane) = (TrainLane::new(), TrainLane::new());
        let mut reply = vec![0xEE; 3];
        let rounds = [(3, 11, 20), (4, 12, 7), (5, 99, 1), (6, 5, 13), (7, 0, 40)];
        for (round, (global_seed, seed, batch_size)) in rounds.into_iter().enumerate() {
            let global = (factory)(global_seed).state_vector();
            let cfg = TrainConfig {
                batch_size,
                ..spec.train_config()
            };
            let mut frames = vec![assign_frame(round as u64, seed, &cfg, &global)];
            let mut eval = Vec::new();
            wire::encode_eval_request_into(&mut eval, round as u64, &global, &limits).unwrap();
            frames.push(eval);
            let digest = Msg::Digest {
                round: round as u64,
                digest: [round as u8; DIGEST_LEN],
            };
            frames.push(wire::encode_frame(&digest, &limits).unwrap());
            for frame in frames {
                let (kind, payload) = (frame[5], &frame[wire::HEADER_LEN..]);
                let answer = bytes.answer(kind, payload, &mut bytes_lane, &mut reply, &limits);
                assert_eq!(answer, Ok(Answer::Reply), "round {round} kind {kind}");
                let want = typed.handle(decode_msg(kind, payload).unwrap(), &mut typed_lane);
                assert!(!matches!(want, Msg::Err { .. }), "{want:?}");
                let want = wire::encode_frame(&want, &limits).unwrap();
                assert!(
                    reply == want,
                    "round {round} kind {kind}: reply bytes differ"
                );
            }
            assert_eq!(bytes.last_round(), Some(round as u64));
            assert_eq!(bytes.frames_handled(), typed.frames_handled());
        }
    }

    /// Hostile training assignments end as the typed path ends them: a
    /// frame that does not decode is the decoder's own error, and one
    /// that decodes but does not fit this worker is `handle`'s `Err`
    /// reply, refused.
    #[test]
    fn hostile_assignments_end_as_the_typed_path_ends_them() {
        let (_, spec) = runtime();
        let limits = FrameLimits::default();
        for (what, frame) in hostile_assignments(&spec) {
            let (kind, payload) = (frame[5], &frame[wire::HEADER_LEN..]);
            let (mut w, _) = runtime();
            let mut reply = Vec::new();
            let got = w.answer(kind, payload, &mut TrainLane::new(), &mut reply, &limits);
            let (mut oracle, _) = runtime();
            match decode_msg(kind, payload) {
                Err(e) => {
                    assert_ne!(what, "wrong state_len");
                    assert_eq!(got, Err(e), "{what}");
                }
                Ok(msg) => {
                    assert_eq!(what, "wrong state_len");
                    let want = oracle.handle(msg, &mut TrainLane::new());
                    assert!(matches!(want, Msg::Err { .. }), "{what}: {want:?}");
                    assert_eq!(got, Ok(Answer::Refuse(wire::describe_err(&want))), "{what}");
                    assert!(
                        reply == wire::encode_frame(&want, &limits).unwrap(),
                        "{what}"
                    );
                }
            }
        }
    }

    /// Both hosts end a hostile training assignment without a panic:
    /// `serve_stream` returns `Malformed` and `run_fleet` retires the
    /// connection as dropped, after sending the `Err` reply when there is
    /// one (a wrong state length) and without a reply otherwise.
    #[test]
    fn both_hosts_survive_hostile_assignments() {
        let (_, spec) = runtime();
        let limits = FrameLimits::default();
        for (what, frame) in hostile_assignments(&spec) {
            let refused = what == "wrong state_len";
            for fleet in [false, true] {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let host = std::thread::spawn(move || {
                    let (mut w, _) = runtime();
                    if fleet {
                        let report =
                            crate::fleet::run_fleet(&addr, std::slice::from_mut(&mut w), &limits);
                        format!("{report:?}")
                    } else {
                        let stream = TcpStream::connect(addr).unwrap();
                        format!("{:?}", serve_stream(stream, &mut w, &limits))
                    }
                });
                let (mut sock, _) = listener.accept().unwrap();
                let (hello, _) = read_frame(&mut sock, &limits).unwrap();
                let Msg::Hello { state_len, .. } = hello else {
                    panic!("expected Hello, got {hello:?}");
                };
                let caps = Msg::Capabilities {
                    max_payload: limits.max_payload as u64,
                    state_len,
                    agg_mode: 0,
                    agg_param: 0,
                };
                write_frame(&mut sock, &caps, &limits).unwrap();
                std::io::Write::write_all(&mut sock, &frame).unwrap();
                let reply = read_frame(&mut sock, &limits).ok().map(|(msg, _)| msg);
                let ended = host.join().expect("the host panicked");
                let host = if fleet { "run_fleet" } else { "serve_stream" };
                match reply {
                    Some(Msg::Err { code, .. }) => {
                        assert!(refused, "{host}, {what}: an Err reply");
                        assert_eq!(code, err_code::BAD_STATE_LEN, "{host}, {what}");
                    }
                    other => assert!(!refused && other.is_none(), "{host}, {what}: {other:?}"),
                }
                if fleet {
                    assert!(ended.contains("dropped: 1"), "{host}, {what}: {ended}");
                } else {
                    assert!(
                        ended.starts_with("Err(Malformed("),
                        "{host}, {what}: {ended}"
                    );
                }
            }
        }
    }

    /// Training assignments no honest coordinator sends, each named.
    fn hostile_assignments(spec: &DemoSpec) -> Vec<(&'static str, Vec<u8>)> {
        let cfg = spec.train_config();
        let global = (spec.factory())(3).state_vector();
        let valid = assign_frame(2, 11, &cfg, &global);
        // Payload offsets: mode tag 0, round 1, seed 9, nonce 17, epochs
        // 25, batch size 33, lr 41, momentum 45, float count 49.
        let at = |offset: usize| wire::HEADER_LEN + offset;
        let mut truncated = valid[..valid.len() - 3].to_vec();
        let len = (truncated.len() - wire::HEADER_LEN) as u32;
        truncated[6..10].copy_from_slice(&len.to_le_bytes());
        let mut overcount = valid.clone();
        let count = (global.len() as u64 + 1).to_le_bytes();
        overcount[at(49)..at(57)].copy_from_slice(&count);
        let zero_batch = TrainConfig {
            batch_size: 0,
            ..cfg
        };
        let mut bad_mode = valid.clone();
        bad_mode[at(0)] = 7;
        vec![
            ("truncated float run", truncated),
            ("float count past the payload", overcount),
            ("batch_size 0", assign_frame(2, 11, &zero_batch, &global)),
            ("wrong state_len", assign_frame(2, 11, &cfg, &global[1..])),
            ("unknown mode tag", bad_mode),
        ]
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        for seed in 0..8u64 {
            for attempt in 0..12u32 {
                for ms in [1u64, 3, 100, 2000] {
                    let delay = Duration::from_millis(ms);
                    let j = jittered_backoff(seed, attempt, delay);
                    assert!(j >= delay / 2, "jitter below half: {j:?} < {delay:?}/2");
                    assert!(
                        j < delay,
                        "jitter not strictly below delay: {j:?} >= {delay:?}"
                    );
                    // Deterministic: same inputs, same schedule.
                    assert_eq!(j, jittered_backoff(seed, attempt, delay));
                }
            }
        }
        // A sub-2ns delay has no room to jitter and passes through.
        assert_eq!(
            jittered_backoff(1, 1, Duration::from_nanos(1)),
            Duration::from_nanos(1)
        );
        // Distinct seeds decorrelate: not every worker picks the same
        // point in the window.
        let d = Duration::from_millis(400);
        let picks: std::collections::BTreeSet<Duration> =
            (0..16).map(|s| jittered_backoff(s, 3, d)).collect();
        assert!(picks.len() > 8, "seeds collapsed to {} values", picks.len());
    }
}
