//! The worker daemon's client-side state machine.
//!
//! A worker owns one client's local dataset and answers the
//! coordinator's messages:
//!
//! ```text
//!            ┌────────────── Training ◄──────────────┐
//!            │   RoundAssign(Train) → Update         │ RoundAssign(Train)
//!            │   Eval              → Eval            │ (drops distill state
//!            ▼                                       │  and forget rows)
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
//! round assignment of either kind — a training round, 407 KB each way
//! on the benchmark's MLP, or a distillation round — is answered from the
//! frame's bytes: read in place, run on the lane, and its reply's floats
//! written straight from the lane's network into the reply frame. Only
//! the control frames (`UnlearnAssign`, `Eval`, `Digest`, `Err`,
//! `Shutdown`) are decoded into a [`Msg`].

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use goldfish_core::transport::{ClientDistiller, DistillJob};
use goldfish_data::Dataset;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::rows::ClientRows;
use goldfish_fed::trainer::TrainLane;
use goldfish_fed::transport::client_seed;
use goldfish_fed::ModelFactory;
use goldfish_tensor::serialize;

use crate::digest::DIGEST_LEN;
use crate::wire::{
    self, decode_msg, encode_frame_into, err_code, read_frame, read_raw_frame, write_frame,
    FrameLimits, Msg, RoundAssignRef, RoundMode, UpdateHeader, WireError,
};

/// A worker's unlearning request: the shared job and the client's
/// distillation state. Its forget rows stay in the worker's store.
struct Unlearning {
    job: DistillJob,
    distiller: ClientDistiller,
    /// Each distillation round's incoming global, decoded from its frame
    /// (capacity reused round after round).
    global: Vec<f32>,
}

/// The worker-side state machine: one logical client, independent of how
/// its messages arrive (a socket in production, a byte buffer in tests).
pub struct WorkerRuntime {
    client_id: usize,
    factory: ModelFactory,
    rows: ClientRows<'static>,
    /// The model's state-vector length, once a host's lane has told it
    /// ([`WorkerRuntime::state_len`]).
    state_len: Option<usize>,
    /// The unlearning request being distilled, between its
    /// `UnlearnAssign` and the next training round.
    unlearning: Option<Unlearning>,
    /// Last round this worker answered — the `Hello` resume token after
    /// a reconnect (`None` until the first answered round).
    last_round: Option<u64>,
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
            rows: data.into(),
            state_len: None,
            unlearning: None,
            last_round: None,
            resume_digest: None,
            frames_handled: 0,
        }
    }

    /// This worker's client id.
    pub(crate) fn client_id(&self) -> usize {
        self.client_id
    }

    /// The client's row store: its live rows, and the forget rows of a
    /// deletion no training round has committed yet.
    pub fn rows(&self) -> &ClientRows<'static> {
        &self.rows
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
            num_samples: self.rows.live().len() as u64,
            resume: self.last_round,
        }
    }

    /// Answers one coordinator frame — its `kind` and `payload` — on the
    /// host's `lane`, writing the reply frame into `reply` (cleared first,
    /// capacity reused). The worker's one entry point: both hosts,
    /// [`serve_stream`] and [`crate::fleet::run_fleet`], answer through
    /// it.
    ///
    /// A `RoundAssign` of either mode is answered from the frame's bytes:
    /// its fixed fields are read in place, its floats go into the lane's
    /// network (a distillation round decodes them first, into a buffer
    /// its unlearning request keeps), and the reply's floats go straight
    /// from the network into `reply` — so once the lane and `reply` are
    /// warm a training round allocates nothing. Control frames are
    /// decoded into a [`Msg`]. A frame that decodes but does not fit this
    /// worker is answered with a protocol `Err` ([`Answer::Refuse`]).
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
            match self.round(lane, &assign) {
                Ok(head) => {
                    let floats = assign.global.len() / 4;
                    let put = |out: &mut Vec<u8>| lane.append_state_le(out);
                    wire::encode_update_into(reply, &head, floats, put, limits)?;
                    return Ok(Answer::Reply);
                }
                Err((code, detail)) => Msg::Err { code, detail },
            }
        } else {
            match decode_msg(kind, payload)? {
                Msg::Shutdown => return Ok(Answer::Shutdown),
                // The coordinator's eviction notice (e.g. quarantine).
                Msg::Err { code, detail } => {
                    return Err(WireError::Malformed(format!(
                        "coordinator error (code {code}): {detail}"
                    )))
                }
                msg => self.control(msg, lane),
            }
        };
        encode_frame_into(&msg, reply, limits)?;
        Ok(match msg {
            Msg::Err { .. } => Answer::Refuse(wire::describe_err(&msg)),
            _ => Answer::Reply,
        })
    }

    /// One round of either mode, run on the lane from the assignment's
    /// global: a training round ends any unlearning request and trains
    /// from the client's derived seed, a distillation round runs the
    /// request's [`ClientDistiller::round`]. Records the round and
    /// returns the reply's fixed fields (the reply's state is left on the
    /// lane), or the code and detail of the `Err` that refuses the
    /// assignment.
    fn round(
        &mut self,
        lane: &mut TrainLane,
        assign: &RoundAssignRef<'_>,
    ) -> Result<UpdateHeader, (u16, String)> {
        self.frames_handled += 1;
        let distill = assign.mode == RoundMode::Distill;
        if !distill {
            // A plain training round ends any unlearning request and
            // commits its deletion: the store drops the forget rows.
            self.unlearning = None;
            self.rows.commit();
        }
        let state_len = self.state_len(lane);
        let got = assign.global.len() / 4;
        if got != state_len {
            return Err(bad_state_len(got, state_len));
        }
        let (round, rows) = (assign.round, &self.rows);
        if distill {
            let Some(u) = self.unlearning.as_mut() else {
                return Err((
                    err_code::NOT_UNLEARNING,
                    "distill round without a preceding UnlearnAssign".into(),
                ));
            };
            // The student trains on the host's lane.
            u.global.resize(got, 0.0);
            serialize::f32s_read_le(assign.global, &mut u.global);
            u.distiller
                .round(&u.job, rows, lane, &u.global, round as usize, assign.seed);
        } else {
            let s = client_seed(assign.seed, self.client_id, round as usize);
            lane.run_le(&self.factory, assign.global, rows.live(), &assign.cfg, s);
        }
        self.last_round = Some(round);
        Ok(UpdateHeader {
            round,
            client_id: self.client_id as u64,
            weight: rows.live().len() as u64,
            // The echoed nonce: the coordinator's admission layer matches
            // it against the assignment to reject stale/replayed frames.
            nonce: assign.nonce,
            distill,
        })
    }

    /// Answers a decoded control frame — an `UnlearnAssign`, an `Eval` or
    /// a `Digest`; anything else is a `BAD_REQUEST` — and returns the
    /// reply. Protocol violations produce a [`Msg::Err`] reply (the host
    /// closes the connection after sending one).
    fn control(&mut self, msg: Msg, lane: &mut TrainLane) -> Msg {
        self.frames_handled += 1;
        let state_len = self.state_len(lane);
        match msg {
            Msg::UnlearnAssign {
                job,
                removed,
                teacher,
            } => {
                if teacher.len() != state_len {
                    let (code, detail) = bad_state_len(teacher.len(), state_len);
                    return Msg::Err { code, detail };
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
                // Original indices: a re-shipped batch (a coordinator
                // that crashed before committing it re-drains it) names
                // rows already gone, removes nothing more and forgets
                // the same rows, which the store still holds — no
                // training round came between.
                let removed: Vec<usize> = removed.iter().map(|&i| i as usize).collect();
                let len = self.rows.original_len();
                if let Some(bad) = removed.iter().find(|&&i| i >= len) {
                    return Msg::Err {
                        code: err_code::BAD_REQUEST,
                        detail: format!("removed index {bad} out of {len} local samples"),
                    };
                }
                // The deletion is permanent: once the request is
                // assigned, the removed samples leave the live rows —
                // later training rounds never touch them again — and
                // become the forget rows until the next training round.
                self.rows.remove(&removed);
                self.unlearning = Some(Unlearning {
                    job: DistillJob::new(Arc::clone(&self.factory), teacher, job.local, hard),
                    distiller: ClientDistiller::new(self.client_id),
                    global: Vec::new(),
                });
                // The job is accepted; the distiller answers the coming
                // Distill assignments. The ack carries this worker's
                // authoritative remaining sample count — correct whether
                // the deletion was fresh or a no-op re-drain.
                Msg::UnlearnAck {
                    num_samples: self.rows.live().len() as u64,
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
                    let (code, detail) = bad_state_len(global.len(), state_len);
                    return Msg::Err { code, detail };
                }
                let (accuracy, mse) = lane.eval(&self.factory, &global, self.rows.live());
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

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WorkerRuntime(client {}, {} samples, state_len {:?}, unlearning: {})",
            self.client_id,
            self.rows.live().len(),
            self.state_len,
            self.unlearning.is_some()
        )
    }
}

/// The `Err` code and detail refusing a state vector of `got` floats to
/// a worker whose model has `want`.
fn bad_state_len(got: usize, want: usize) -> (u16, String) {
    (
        err_code::BAD_STATE_LEN,
        format!("state vector length {got}, this worker's model has {want}"),
    )
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
    use goldfish_core::ClientSplit;
    use goldfish_fed::eval;
    use goldfish_fed::trainer::{train_local_ce, TrainConfig};
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

    /// Encodes `msg` as the coordinator does and answers the frame
    /// through [`WorkerRuntime::answer`], returning the reply decoded. A
    /// reply is an `Err` exactly when the answer is a refusal.
    fn ask(w: &mut WorkerRuntime, msg: &Msg, lane: &mut TrainLane) -> Msg {
        let limits = FrameLimits::default();
        let frame = wire::encode_frame(msg, &limits).unwrap();
        let mut reply = Vec::new();
        let (kind, payload) = (frame[5], &frame[wire::HEADER_LEN..]);
        let answer = w.answer(kind, payload, lane, &mut reply, &limits);
        let (got, _) = wire::decode_frame(&reply, &limits).unwrap();
        match &got {
            Msg::Err { .. } => assert_eq!(answer, Ok(Answer::Refuse(wire::describe_err(&got)))),
            _ => assert_eq!(answer, Ok(Answer::Reply)),
        }
        got
    }

    fn assign(mode: RoundMode, round: u64, seed: u64, nonce: u64, global: &[f32]) -> Msg {
        Msg::RoundAssign {
            mode,
            round,
            seed,
            nonce,
            cfg: runtime().1.train_config(),
            global: global.to_vec(),
        }
    }

    #[test]
    fn train_round_matches_local_execution() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let factory = spec.factory();
        let global = (factory)(3).state_vector();
        let cfg = spec.train_config();
        let reply = ask(
            &mut w,
            &assign(RoundMode::Train, 2, 11, 0xFACE, &global),
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
        assert_eq!(w.last_round(), Some(2));
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
                cfg: TrainConfig {
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
        let reply = ask(
            &mut w,
            &assign(RoundMode::Distill, 0, 0, 0, &global),
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
        let unlearn = Msg::UnlearnAssign {
            job,
            removed: vec![0, 3],
            teacher: teacher.clone(),
        };
        // The ack reports the post-deletion dataset size (worker truth).
        let ack = ask(&mut w, &unlearn, &mut lane);
        assert!(matches!(ack, Msg::UnlearnAck { num_samples: 38 }));
        // Two distillation rounds from different globals: the second
        // reuses the request's decoded-global buffer and teacher cache.
        let split = ClientSplit::with_removed(&spec.client_shard(1), &[0, 3]);
        let hard = HardLossSpec::CrossEntropy.build();
        let oracle_job = DistillJob::new(spec.factory(), teacher.clone(), job.local, hard);
        let mut oracle = ClientDistiller::new(1);
        let mut global = teacher.clone();
        for round in 0..2u64 {
            let reply = ask(
                &mut w,
                &assign(RoundMode::Distill, round, 5, 21, &global),
                &mut lane,
            );
            let Msg::UnlearnResult {
                round: echoed,
                client_id,
                weight,
                nonce,
                state,
            } = reply
            else {
                panic!("expected UnlearnResult, got {reply:?}");
            };
            // 40 - 2 removed, nonce echoed.
            assert_eq!((echoed, client_id, weight, nonce), (round, 1, 38, 21));
            assert_eq!(w.last_round(), Some(round));
            // The upload is the library's own distillation round.
            let mut fresh = TrainLane::new();
            let rows = ClientRows::lending(&split.remaining, &split.forget);
            oracle.round(&oracle_job, &rows, &mut fresh, &global, round as usize, 5);
            let mut want = Vec::new();
            fresh.state_into(&mut want);
            assert_eq!(state, want, "distill round {round}");
            global = state;
        }

        // A training assignment exits unlearning mode — and trains on
        // the post-deletion dataset (the removal is permanent).
        let reply = ask(
            &mut w,
            &assign(RoundMode::Train, 1, 5, 0, &teacher),
            &mut lane,
        );
        let Msg::Update { weight, .. } = reply else {
            panic!("expected Update, got {reply:?}");
        };
        assert_eq!(weight, 38);
        // …so a further distill round is a protocol error again.
        let reply = ask(
            &mut w,
            &assign(RoundMode::Distill, 1, 5, 0, &teacher),
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
    fn bad_requests_are_typed() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let reply = ask(
            &mut w,
            &assign(RoundMode::Train, 0, 0, 0, &[0.0; 3]),
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
        let unlearn = Msg::UnlearnAssign {
            job: UnlearnJob {
                local: GoldfishLocalConfig::default(),
                hard: Some(HardLossSpec::CrossEntropy),
            },
            removed: vec![10_000],
            teacher,
        };
        assert!(matches!(
            ask(&mut w, &unlearn, &mut lane),
            Msg::Err {
                code: err_code::BAD_REQUEST,
                ..
            }
        ));
        let hello = Msg::Hello {
            client_id: 0,
            state_len: 0,
            num_samples: 0,
            resume: None,
        };
        assert!(matches!(
            ask(&mut w, &hello, &mut lane),
            Msg::Err {
                code: err_code::BAD_REQUEST,
                ..
            }
        ));
    }

    #[test]
    fn eval_reports_local_metrics() {
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let global = (spec.factory())(3).state_vector();
        let request = Msg::Eval {
            round: 4,
            accuracy: 0.0,
            mse: 0.0,
            global,
        };
        let reply = ask(&mut w, &request, &mut lane);
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
                    let request = assign(RoundMode::Train, round, 11, 5, &global);
                    let reply = ask(w, &request, &mut lane);
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

                    let request = Msg::Eval {
                        round,
                        accuracy: 0.0,
                        mse: 0.0,
                        global: global.clone(),
                    };
                    let reply = ask(w, &request, &mut lane);
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

    /// Each hostile assignment ends as it should: one that does not
    /// decode is the decoder's `Malformed` (nothing to send), one that
    /// decodes but does not fit this worker is the `Err` reply of its
    /// code, refused.
    #[test]
    fn hostile_assignments_end_in_an_error_or_a_refusal() {
        let (_, spec) = runtime();
        let limits = FrameLimits::default();
        for (what, frame, refusal) in hostile_assignments(&spec) {
            let (kind, payload) = (frame[5], &frame[wire::HEADER_LEN..]);
            let (mut w, _) = runtime();
            let mut reply = Vec::new();
            let got = w.answer(kind, payload, &mut TrainLane::new(), &mut reply, &limits);
            let Some(code) = refusal else {
                assert!(
                    matches!(got, Err(WireError::Malformed(_))),
                    "{what}: {got:?}"
                );
                continue;
            };
            let (sent, _) = wire::decode_frame(&reply, &limits).unwrap();
            assert!(
                matches!(&sent, Msg::Err { code: c, .. } if *c == code),
                "{what}: {sent:?}"
            );
            assert_eq!(got, Ok(Answer::Refuse(wire::describe_err(&sent))), "{what}");
        }
    }

    /// Both hosts end a hostile assignment without a panic:
    /// `serve_stream` returns `Malformed` and `run_fleet` retires the
    /// connection as dropped, after sending the `Err` reply when there is
    /// one and without a reply otherwise.
    #[test]
    fn both_hosts_survive_hostile_assignments() {
        let (_, spec) = runtime();
        let limits = FrameLimits::default();
        for (what, frame, refusal) in hostile_assignments(&spec) {
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
                        assert_eq!(Some(code), refusal, "{host}, {what}");
                    }
                    other => assert!(
                        refusal.is_none() && other.is_none(),
                        "{host}, {what}: {other:?}"
                    ),
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

    /// A round assignment's frame, encoded as the coordinator's broadcast
    /// encodes it.
    fn assign_frame(mode: RoundMode, cfg: &TrainConfig, global: &[f32]) -> Vec<u8> {
        let mut frame = Vec::new();
        let limits = FrameLimits::default();
        wire::encode_round_assign_into(&mut frame, mode, 2, 11, 0xC0DE, cfg, global, &limits)
            .unwrap();
        frame
    }

    /// Round assignments no honest coordinator sends to a fresh worker,
    /// each named, with the `Err` code a refusal replies with (`None`:
    /// the frame does not decode).
    fn hostile_assignments(spec: &DemoSpec) -> Vec<(&'static str, Vec<u8>, Option<u16>)> {
        let cfg = spec.train_config();
        let global = (spec.factory())(3).state_vector();
        // Payload offsets: mode tag 0, round 1, seed 9, nonce 17, epochs
        // 25, batch size 33, lr 41, momentum 45, float count 49.
        let at = |offset: usize| wire::HEADER_LEN + offset;
        let truncated = |mode| {
            let valid = assign_frame(mode, &cfg, &global);
            let mut cut = valid[..valid.len() - 3].to_vec();
            let len = (cut.len() - wire::HEADER_LEN) as u32;
            cut[6..10].copy_from_slice(&len.to_le_bytes());
            cut
        };
        let mut overcount = assign_frame(RoundMode::Train, &cfg, &global);
        let count = (global.len() as u64 + 1).to_le_bytes();
        overcount[at(49)..at(57)].copy_from_slice(&count);
        let zero_batch = TrainConfig {
            batch_size: 0,
            ..cfg
        };
        let mut bad_mode = assign_frame(RoundMode::Train, &cfg, &global);
        bad_mode[at(0)] = 7;
        let past_end = unlearn_frame(spec, &[3, spec.samples_per_client]);
        let (train, distill) = (RoundMode::Train, RoundMode::Distill);
        let short = &global[1..];
        vec![
            ("truncated float run", truncated(train), None),
            ("float count past the payload", overcount, None),
            (
                "batch_size 0",
                assign_frame(train, &zero_batch, &global),
                None,
            ),
            (
                "wrong state_len",
                assign_frame(train, &cfg, short),
                Some(err_code::BAD_STATE_LEN),
            ),
            ("unknown mode tag", bad_mode, None),
            ("distill: truncated float run", truncated(distill), None),
            (
                "distill: wrong state_len",
                assign_frame(distill, &cfg, short),
                Some(err_code::BAD_STATE_LEN),
            ),
            (
                "distill before any UnlearnAssign",
                assign_frame(distill, &cfg, &global),
                Some(err_code::NOT_UNLEARNING),
            ),
            (
                "UnlearnAssign: a row past the original data",
                past_end,
                Some(err_code::BAD_REQUEST),
            ),
        ]
    }

    /// An `UnlearnAssign` frame removing `removed` (original indices).
    fn unlearn_frame(spec: &DemoSpec, removed: &[usize]) -> Vec<u8> {
        let (mut frame, limits) = (Vec::new(), FrameLimits::default());
        let teacher = (spec.factory())(3).state_vector();
        wire::encode_unlearn_assign_into(&mut frame, &job(), removed, &teacher, &limits).unwrap();
        frame
    }

    fn job() -> UnlearnJob {
        UnlearnJob {
            local: GoldfishLocalConfig {
                epochs: 1,
                batch_size: 20,
                ..GoldfishLocalConfig::default()
            },
            hard: Some(HardLossSpec::CrossEntropy),
        }
    }

    /// A hostile `UnlearnAssign` removes nothing when refused, and a
    /// duplicated index forgets its row once: the worker's store holds
    /// each row once, so the distillation round is the library's over a
    /// single forget row. A frame naming that row again after a training
    /// round — which committed the deletion — removes nothing and forgets
    /// nothing.
    #[test]
    fn hostile_unlearn_assigns_remove_nothing_or_one_row() {
        let limits = FrameLimits::default();
        let answer = |w: &mut WorkerRuntime, frame: &[u8], lane: &mut TrainLane| {
            let mut reply = Vec::new();
            let (kind, payload) = (frame[5], &frame[wire::HEADER_LEN..]);
            w.answer(kind, payload, lane, &mut reply, &limits).unwrap();
            wire::decode_frame(&reply, &limits).unwrap().0
        };
        let (mut w, spec) = runtime();
        let mut lane = TrainLane::new();
        let global = (spec.factory())(5).state_vector();
        let refused = answer(&mut w, &unlearn_frame(&spec, &[3, 40]), &mut lane);
        assert!(
            matches!(
                refused,
                Msg::Err {
                    code: err_code::BAD_REQUEST,
                    ..
                }
            ),
            "{refused:?}"
        );
        let train = assign(RoundMode::Train, 0, 5, 0, &global);
        assert!(matches!(
            ask(&mut w, &train, &mut lane),
            Msg::Update { weight: 40, .. }
        ));

        let ack = answer(&mut w, &unlearn_frame(&spec, &[2, 2]), &mut lane);
        assert_eq!(ack, Msg::UnlearnAck { num_samples: 39 });
        let reply = ask(
            &mut w,
            &assign(RoundMode::Distill, 0, 5, 9, &global),
            &mut lane,
        );
        let Msg::UnlearnResult { weight, state, .. } = reply else {
            panic!("expected UnlearnResult, got {reply:?}");
        };
        assert_eq!(weight, 39);
        let split = ClientSplit::with_removed(&spec.client_shard(1), &[2]);
        assert_eq!(split.forget.len(), 1);
        let teacher = (spec.factory())(3).state_vector();
        let hard = HardLossSpec::CrossEntropy.build();
        let oracle_job = DistillJob::new(spec.factory(), teacher, job().local, hard);
        let oracle = |forget: &Dataset| {
            let mut fresh = TrainLane::new();
            let rows = ClientRows::lending(&split.remaining, forget);
            ClientDistiller::new(1).round(&oracle_job, &rows, &mut fresh, &global, 0, 5);
            let mut want = Vec::new();
            fresh.state_into(&mut want);
            want
        };
        assert_eq!(state, oracle(&split.forget));

        let train = assign(RoundMode::Train, 1, 5, 0, &global);
        assert!(matches!(
            ask(&mut w, &train, &mut lane),
            Msg::Update { weight: 39, .. }
        ));
        assert!(w.rows().forget().is_empty());
        let ack = answer(&mut w, &unlearn_frame(&spec, &[2]), &mut lane);
        assert_eq!(ack, Msg::UnlearnAck { num_samples: 39 });
        assert!(w.rows().forget().is_empty());
        let reply = ask(
            &mut w,
            &assign(RoundMode::Distill, 0, 5, 9, &global),
            &mut lane,
        );
        let Msg::UnlearnResult { weight, state, .. } = reply else {
            panic!("expected UnlearnResult, got {reply:?}");
        };
        assert_eq!(weight, 39);
        let none = split.forget.subset(&[]);
        assert_eq!(state, oracle(&none));
        assert_ne!(state, oracle(&split.forget));
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
