//! The coordinator-side TCP transport — a single-threaded readiness
//! reactor (DESIGN.md §14).
//!
//! One non-blocking socket per worker, all owned by one event loop: a
//! vendored oneshot `epoll` poller ([`polling::Poller`]) reports
//! readiness, and per-connection frame state machines
//! (`crate::nio::FrameReadState` / `crate::nio::FrameWriteState`)
//! carry each frame across partial reads and writes. A fan-out
//! therefore costs zero thread spawns regardless of fleet size —
//! thousands of registered workers multiplex onto the coordinator
//! thread. Replies reach the caller **in fold order** (ascending client
//! id, the order the aggregation fold consumes them): a reply is read
//! only once every lower cohort slot is done, so an early one waits in
//! its socket rather than as a decoded copy parked beside the fold.
//! Liveness is a per-fan-out deadline (`read_timeout` from the
//! fan-out's start); at the deadline every reply that has started to
//! arrive is still read, and a client whose reply has not, or that
//! disconnects or answers out of protocol, is dropped from the live set
//! and reported as a typed [`TransportError`], and the round driver
//! re-rounds over the survivors.
//!
//! There is one handshake, and it never blocks: start-up
//! ([`TcpTransport::accept`]) and round-boundary re-admission
//! ([`ServeTransport::admit_reconnects`]) drive every peer's `Hello`,
//! verdict and — on a re-admission — `Digest` acknowledgement at once on
//! one poller, so no half-connected peer can stall another. A round boundary
//! returns at once when nothing is queued on the listener; otherwise it
//! takes what is queued and whoever connects meanwhile, and never takes
//! longer than one `read_timeout`: whoever has not registered by then
//! is closed.
//!
//! Hot-path machinery (DESIGN.md §11):
//!
//! * **Encode-once broadcast** — round assignments and eval requests are
//!   encoded a single time into a transport-owned reusable buffer
//!   straight from the borrowed global state (no `Msg`, no state clone)
//!   and the same bytes are written to every connection.
//! * **Pooled reply buffers** — no connection owns a buffer. A reply
//!   holds a lease from the reactor's `crate::nio::FramePool` from its
//!   header until it is handled (or its connection fails or times out):
//!   an update decodes its state as the bytes arrive, through a small
//!   staging chunk, straight into a state buffer
//!   ([`crate::wire::UpdateDecoder`]), and any other reply lands in a
//!   frame buffer — so a steady-state round re-uses a handful of
//!   allocations, buffers held follow replies concurrently in flight,
//!   never the registry, and an update never sits in a frame-sized byte
//!   buffer beside its decoded state. The two
//!   `goldfish_frame_buffers_*` gauges report it.
//! * **Per-phase frame bounds** — a length prefix is honoured only up to
//!   what the protocol state can legally carry: a constant during the
//!   handshake (the peer is not validated yet), `4·state_len` plus a
//!   fixed header for replies, each `min`-ed with the configured
//!   [`FrameLimits`]. A 10-byte header cannot make the coordinator size
//!   a 256 MiB buffer.
//! * **Streaming replies** — each completed reply frame is decoded and
//!   handed to the caller the moment the reactor reads its last byte,
//!   which is what lets the coordinator's
//!   [`goldfish_fed::transport::RoundRuntime`] fold updates while
//!   higher ids are still on the wire.
//! * **Cohort fan-outs** — training rounds
//!   ([`goldfish_fed::transport::RoundTransport::train_round`]) write
//!   frames only to the round's cohort; every other registered
//!   connection stays out of the poller untouched, and the fan-out's
//!   bookkeeping is one reused slot per cohort member — so a
//!   4096-registered / 64-sampled round costs 64 frame exchanges and
//!   64 slots, not a registry-sized scan.
//!
//! Two panic paths of the old layer are structurally gone: there is no
//! cross-thread channel to `expect` on (a panicking reply handler is
//! caught and converted into a typed
//! [`goldfish_fed::transport::UpdateViolation::HandlerPanic`] rejection
//! that costs the client its connection, never the coordinator), and
//! reconnect admission binds the listener once with `let`–`else`
//! instead of re-`unwrap`ing shared state mid-drain.

use std::collections::BTreeSet;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use goldfish_core::transport::{DistillTransport, UnlearnJob};
use goldfish_fed::rows::RowIndex;
use goldfish_fed::transport::{
    RoundTransport, RowOutOfRange, StreamedUpdate, TrainAssign, TransportError, UpdateSink,
    UpdateViolation,
};
use polling::{Event, Events, Poller};

use crate::nio::{FramePool, FrameReadState, FrameWriteState, PayloadSink};
use crate::queue::UnlearnRequest;
use crate::telemetry::{ServeTelemetry, WireTelemetry};
use crate::transport::{not_connected, to_originals, LocalEval, ServeTransport, WireStats};
use crate::wire::{
    decode_msg, encode_eval_request_into, encode_frame, encode_round_assign_into,
    encode_unlearn_assign_into, err_code, kind as wire_kind, write_frame, FrameLimits, Msg,
    RoundMode, UpdateDecoder, UpdateHeader, WireError,
};

/// Socket policy of a [`TcpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Frame-size limits (both directions).
    pub limits: FrameLimits,
    /// Per-fan-out reply deadline: every contacted worker must answer
    /// within this much of the fan-out's start or be dropped as a
    /// straggler. Set here before [`TcpTransport::accept`] (the
    /// coordinator daemon's `--read-timeout-ms`), or changed after it
    /// through [`TcpTransport::set_read_timeout`].
    pub read_timeout: Duration,
    /// Aggregation-mode wire code announced in `Capabilities`
    /// ([`goldfish_fed::aggregate::AggregationMode::wire_code`]), so
    /// workers know which robust fold their updates feed.
    pub agg_mode: u8,
    /// Mode parameter paired with `agg_mode` (trim count or clip-limit
    /// bits; 0 when the mode takes none).
    pub agg_param: u64,
}

impl Default for TcpConfig {
    /// 30 s replies — generous for CI boxes under load; benchmarks and
    /// tests that probe straggler handling shrink it.
    fn default() -> Self {
        TcpConfig {
            limits: FrameLimits::default(),
            read_timeout: Duration::from_secs(30),
            agg_mode: 0,
            agg_param: 0,
        }
    }
}

impl TcpConfig {
    /// The `Capabilities` frame every admitted worker is answered with,
    /// at start-up and on re-admission alike.
    fn capabilities(&self, state_len: usize) -> Msg {
        Msg::Capabilities {
            max_payload: self.limits.max_payload as u64,
            state_len: state_len as u64,
            agg_mode: self.agg_mode,
            agg_param: self.agg_param,
        }
    }
}

/// The coordinator's verdict on a peer's opening frame, the same at
/// start-up ([`TcpTransport::accept`]) and at a round-boundary
/// re-admission: `Ok((client_id, num_samples))` grants the peer that
/// slot, `Err((code, detail))` is the typed `Err` frame it is refused
/// with. `slots` is the registry size and `taken` whether a slot below
/// it is occupied (or reserved); `readmission` carries the banned ids of
/// a running fleet, which additionally demands a resume token.
fn hello_verdict(
    opener: &Msg,
    slots: usize,
    state_len: usize,
    taken: impl Fn(usize) -> bool,
    readmission: Option<&BTreeSet<usize>>,
) -> Result<(usize, usize), (u16, String)> {
    let Msg::Hello {
        client_id,
        state_len: worker_len,
        num_samples,
        resume,
    } = opener
    else {
        return Err((err_code::BAD_REQUEST, "expected Hello".into()));
    };
    let id = *client_id as usize;
    let refusal = if readmission.is_some() && resume.is_none() {
        (
            err_code::BAD_REQUEST,
            "mid-run joins require a resume token".into(),
        )
    } else if id >= slots || taken(id) {
        (
            err_code::BAD_REQUEST,
            format!("client id {id} invalid or already registered"),
        )
    } else if readmission.is_some_and(|banned| banned.contains(&id)) {
        (
            err_code::QUARANTINED,
            format!("client id {id} is quarantined"),
        )
    } else if *worker_len as usize != state_len {
        (
            err_code::BAD_STATE_LEN,
            format!("model has {state_len} params, worker says {worker_len}"),
        )
    } else {
        return Ok((id, *num_samples as usize));
    };
    Err(refusal)
}

/// Poller key of the listener during a handshake run — outside the
/// index space of the run's handshakes.
const LISTENER_KEY: usize = usize::MAX;

/// The most a not-yet-validated peer may announce during a handshake: a
/// `Hello` payload is at most 33 bytes, a reconnect `Ack` empty.
const HANDSHAKE_MAX_PAYLOAD: usize = 64;

/// What a reply may carry beside its state vector: the fixed fields and
/// length prefix of an `Update` / `UnlearnResult`, or the detail string
/// of an `Err`.
const REPLY_OVERHEAD: usize = 1024;

/// The frame bound of a worker reply for a model of `state_len`
/// parameters — derived, and only ever tighter than `limits`.
fn reply_limits(limits: FrameLimits, state_len: usize) -> FrameLimits {
    limits.at_most(state_len.saturating_mul(4).saturating_add(REPLY_OVERHEAD))
}

struct Conn {
    stream: TcpStream,
    num_samples: usize,
    /// Incremental reader of the in-flight reply frame.
    rd: FrameReadState,
    /// Incremental writer of the in-flight assignment frame.
    wr: FrameWriteState,
}

/// Where a handshake stands. A grant is `(client_id, num_samples)`.
enum HsPhase {
    /// Reading the peer's opening `Hello`.
    Hello,
    /// Flushing the verdict: the welcome frames of a grant, or the
    /// encoded `Err` frame refusing the peer.
    Verdict(Result<(usize, usize), Vec<u8>>),
    /// Reading the `Ack` a re-admitted worker owes the `Digest`.
    Ack((usize, usize)),
}

/// A peer between its connect and its registration, driven by
/// [`TcpTransport::handshakes`].
struct Handshake {
    stream: TcpStream,
    phase: HsPhase,
    rd: FrameReadState,
    wr: FrameWriteState,
    /// The frame being read: the `Hello`, then the `Ack`.
    rbuf: Vec<u8>,
}

/// What one readiness event left a handshake needing.
enum HsStep {
    /// Its socket re-armed for this interest.
    Await(Event),
    Register((usize, usize)),
    /// Refused, dead or out of protocol.
    Close,
}

/// What every handshake of one [`TcpTransport::handshakes`] run shares.
struct Admission<'a> {
    /// What a grant is answered with: `Capabilities`, then at a round
    /// boundary `Digest`.
    welcome: Vec<u8>,
    /// The banned ids at a round boundary, which also demands a resume
    /// token; `None` at start-up, where a token is fine: a worker that
    /// outlived a crashed coordinator re-registers into its old slot.
    banned: Option<&'a BTreeSet<usize>>,
    cfg: &'a TcpConfig,
    state_len: usize,
    stats: &'a WireTelemetry,
    /// Slots granted to handshakes still in flight: two peers cannot
    /// both be granted one.
    reserved: BTreeSet<usize>,
}

impl Handshake {
    /// The slot this handshake holds reserved, once granted.
    fn grant(&self) -> Option<usize> {
        match self.phase {
            HsPhase::Verdict(Ok((id, _))) | HsPhase::Ack((id, _)) => Some(id),
            _ => None,
        }
    }

    /// Advances as far as the socket allows without blocking; `key` is
    /// its poller key. Both frames the peer sends are bounded by
    /// [`HANDSHAKE_MAX_PAYLOAD`].
    fn advance(
        &mut self,
        key: usize,
        adm: &mut Admission<'_>,
        conns: &mut [Option<Conn>],
    ) -> HsStep {
        if let HsPhase::Verdict(verdict) = &self.phase {
            let frame = match verdict {
                Ok(_) => &adm.welcome,
                Err(refusal) => refusal,
            };
            match self.wr.poll(&mut self.stream, frame) {
                Ok(true) => adm.stats.sent_bytes.add(frame.len() as u64),
                Ok(false) => return HsStep::Await(Event::writable(key)),
                Err(_) => return HsStep::Close,
            }
            // A refused peer is closed after its typed `Err`.
            let &Ok(grant) = verdict else {
                return HsStep::Close;
            };
            if adm.banned.is_none() {
                return HsStep::Register(grant);
            }
            self.phase = HsPhase::Ack(grant);
            return HsStep::Await(Event::readable(key));
        }
        let limits = adm.cfg.limits.at_most(HANDSHAKE_MAX_PAYLOAD);
        let (kind, nbytes) = match self.rd.poll(&mut self.stream, &mut self.rbuf, &limits) {
            Ok(Some(done)) => done,
            Ok(None) => return HsStep::Await(Event::readable(key)),
            Err(_) => return HsStep::Close,
        };
        adm.stats.received_bytes.add(nbytes as u64);
        let msg = decode_msg(kind, &self.rbuf);
        if let HsPhase::Ack(grant) = self.phase {
            return match msg {
                Ok(Msg::Ack) => HsStep::Register(grant),
                _ => HsStep::Close,
            };
        }
        let Ok(hello) = msg else {
            return HsStep::Close;
        };
        if adm.banned.is_some() {
            release_if_dead(&hello, conns);
        }
        let taken = |id: usize| conns[id].is_some() || adm.reserved.contains(&id);
        let verdict = hello_verdict(&hello, conns.len(), adm.state_len, taken, adm.banned);
        self.phase = HsPhase::Verdict(match verdict {
            Ok(grant) => {
                adm.reserved.insert(grant.0);
                Ok(grant)
            }
            // A refusal the limits cannot frame closes without it.
            Err((code, detail)) => {
                Err(encode_frame(&Msg::Err { code, detail }, &adm.cfg.limits).unwrap_or_default())
            }
        });
        HsStep::Await(Event::writable(key))
    }
}

/// At a round boundary, frees the slot a resume `Hello` names when the
/// connection registered there is dead: the worker dropped and came back
/// before any fan-out to its slot noticed. The slot is dropped as a failed
/// fan-out drops it. An occupant with nothing to read (`WouldBlock`) or
/// with unread bytes is alive, keeps its slot, and the `Hello` is refused
/// as a duplicate. Registered connections are non-blocking, so the `peek`
/// never waits.
fn release_if_dead(hello: &Msg, conns: &mut [Option<Conn>]) {
    let Msg::Hello {
        client_id,
        resume: Some(_),
        ..
    } = hello
    else {
        return;
    };
    let Some(slot) = conns.get_mut(*client_id as usize) else {
        return;
    };
    let dead = slot
        .as_ref()
        .is_some_and(|conn| match conn.stream.peek(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
            ),
        });
    if dead {
        *slot = None;
    }
}

/// The networked [`ServeTransport`]: a registry of worker connections
/// keyed by client id, accepting the round-loop contracts of
/// `goldfish_fed` and `goldfish_core` over the wire protocol.
pub struct TcpTransport {
    conns: Vec<Option<Conn>>,
    cfg: TcpConfig,
    /// The staged drain's requests, in original indices.
    staged: Vec<UnlearnRequest>,
    /// Each client's removed original indices: the index half of
    /// its worker's row store, which deletions are translated through.
    index: Vec<RowIndex>,
    /// Wire-side telemetry handles (byte counters + reactor spans).
    /// Detached at construction — `accept` counts handshake bytes
    /// before any coordinator exists — and rebound to the shared
    /// catalog by [`ServeTransport::set_telemetry`], which carries the
    /// accumulated counts across. **Every** frame is tallied: fan-out
    /// exchanges, handshakes, reconnect admissions, quarantine `Err`
    /// frames and `Shutdown` goodbyes.
    stats: WireTelemetry,
    /// Parameter count every `Hello` must match (kept for reconnect
    /// validation).
    state_len: usize,
    /// Listener retained for mid-run reconnects; `None` = closed-world
    /// fleet (original behaviour).
    listener: Option<TcpListener>,
    /// The encode-once broadcast frame, reused round after round.
    bcast: Vec<u8>,
    /// The frames of a fan-out that differ from the broadcast one — an
    /// `UnlearnAssign` to a client with removals of its own. One per
    /// *requesting* client, reused across requests.
    own_frames: Vec<Vec<u8>>,
    /// Client ids evicted via [`RoundTransport::quarantine`]. Banned
    /// ids are refused readmission even with a valid resume token.
    banned: BTreeSet<usize>,
    /// The reactor and its per-fan-out scratch.
    reactor: Reactor,
    /// Per-client round outcomes in the order they completed, reused
    /// across rounds.
    outcomes: Vec<(usize, Result<(), TransportError>)>,
}

/// Where a contacted connection stands in its frame exchange.
#[derive(Clone, Copy)]
enum Phase {
    /// Flushing the request.
    Write,
    /// Request flushed; the reply waits unread in the socket, its
    /// readiness disarmed, until every lower slot has finished.
    Queued,
    /// Reading the reply; `started` stamps when it was armed for
    /// reading, so a completed read observes read time, not time spent
    /// queued behind lower slots.
    Read { started: u64 },
}

/// One contacted connection of the fan-out in progress. The poller key
/// of its socket is this slot's index.
struct Slot {
    id: usize,
    /// `None` once the exchange completed or failed.
    phase: Option<Phase>,
    /// The reply's buffer lease, from its header until it is handled.
    inbox: Option<Inbox>,
    /// Drop the connection when the fan-out ends.
    failed: bool,
}

/// Staging size of a reply state read: an update's bytes pass through
/// this much at a time on their way to its floats.
const STATE_CHUNK: usize = 64 << 10;

/// A reply's payload as it arrives, leased from the reactor's
/// [`FramePool`] once its header is in.
enum Inbox {
    /// Any reply but an update: its payload bytes, decoded once complete.
    Frame(Vec<u8>),
    /// An `Update` / `UnlearnResult`: its state decodes piece by piece
    /// straight into a state buffer, so the reply never occupies a
    /// frame-sized byte buffer beside it.
    State(UpdateDecoder, Vec<f32>),
}

impl Inbox {
    /// Hands the lease back.
    fn release(self, frames: &mut FramePool) {
        match self {
            Inbox::Frame(buf) => frames.release(buf),
            Inbox::State(_, state) => frames.release_state(state),
        }
    }
}

/// One slot's [`PayloadSink`] for one read: the inbox to lease on the
/// header, and the reactor's staging chunk for state bytes.
struct ReplyPayload<'a> {
    inbox: &'a mut Option<Inbox>,
    frames: &'a mut FramePool,
    chunk: &'a mut Vec<u8>,
}

impl PayloadSink for ReplyPayload<'_> {
    fn begin(&mut self, kind: u8, len: usize) -> Result<(), WireError> {
        let inbox = if kind == wire_kind::UPDATE || kind == wire_kind::UNLEARN_RESULT {
            Inbox::State(UpdateDecoder::new(kind, len)?, self.frames.lease_state())
        } else {
            let mut buf = self.frames.lease();
            buf.begin(kind, len)?;
            Inbox::Frame(buf)
        };
        *self.inbox = Some(inbox);
        Ok(())
    }

    fn room(&mut self, filled: usize) -> &mut [u8] {
        match self.inbox {
            Some(Inbox::Frame(buf)) => buf.room(filled),
            _ => {
                self.chunk.resize(STATE_CHUNK, 0);
                self.chunk
            }
        }
    }

    fn took(&mut self, n: usize) -> Result<(), WireError> {
        match self.inbox {
            Some(Inbox::State(decoder, state)) => decoder.take(&self.chunk[..n], state),
            _ => Ok(()),
        }
    }
}

/// The reactor: one oneshot poller owning every in-flight socket, plus
/// the scratch a fan-out needs — sized by the cohort it contacts and
/// reused round after round.
struct Reactor {
    poller: Poller,
    /// Reusable readiness buffer for [`Poller::wait`].
    events: Events,
    slots: Vec<Slot>,
    /// The buffers replies are read into.
    frames: FramePool,
    /// Where update replies' bytes stage on their way to their floats.
    chunk: Vec<u8>,
}

/// One round-shaped fan-out's borrowed parameters (train or distill).
struct RoundSpec<'a> {
    mode: RoundMode,
    round: u64,
    seed: u64,
    nonce: u64,
    cfg: &'a goldfish_fed::trainer::TrainConfig,
    global: &'a [f32],
}

/// A decoded worker reply leaving the reactor.
enum Reply<'r> {
    /// `Update` / `UnlearnResult` with the state decoded into the
    /// reply's leased buffer.
    Update {
        header: UpdateHeader,
        state: &'r [f32],
    },
    /// An `Eval` reply's metrics.
    Eval { accuracy: f64, mse: f64 },
    /// A bare acknowledgement.
    Ack,
    /// An `UnlearnAssign` ack carrying the worker's authoritative
    /// post-deletion sample count.
    UnlearnAck { num_samples: usize },
}

impl Reply<'_> {
    /// The protocol failure of a well-formed reply of the wrong kind.
    fn unexpected(&self, id: usize, want: &str) -> TransportError {
        let got = match self {
            Reply::Update { .. } => "a round result",
            Reply::Eval { .. } => "Eval",
            Reply::Ack | Reply::UnlearnAck { .. } => "an acknowledgement",
        };
        TransportError::Protocol {
            client_id: id,
            reason: format!("expected {want}, got {got}"),
        }
    }
}

/// One fan-out in progress: the reactor parts and the caller's reply
/// handler that every slot transition needs.
struct FanOut<'a, H> {
    poller: &'a Poller,
    frames: &'a mut FramePool,
    chunk: &'a mut Vec<u8>,
    stats: &'a WireTelemetry,
    reply_limits: &'a FrameLimits,
    on_reply: H,
    /// Slots still exchanging.
    pending: usize,
    recv_total: u64,
}

impl<H: FnMut(usize, Result<Reply<'_>, TransportError>)> FanOut<'_, H> {
    /// Retires `slot` from the fan-out with a typed failure; a reply
    /// half-read gives its lease back.
    fn fail(&mut self, slot: &mut Slot, conn: &Conn, err: TransportError) {
        slot.phase = None;
        slot.failed = true;
        self.pending -= 1;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if let Some(inbox) = slot.inbox.take() {
            inbox.release(self.frames);
        }
        (self.on_reply)(slot.id, Err(err));
    }

    /// Re-arms `slot`'s socket for `interest`, failing the slot if the
    /// poller refuses.
    fn rearm(&mut self, slot: &mut Slot, conn: &Conn, interest: Event) {
        if self
            .poller
            .modify(conn.stream.as_raw_fd(), interest)
            .is_err()
        {
            self.fail(
                slot,
                conn,
                TransportError::Disconnected {
                    client_id: slot.id,
                    reason: "reactor re-arm failed".into(),
                },
            );
        }
    }

    /// Arms `slot`'s flushed request for its reply: from here its read
    /// time runs.
    fn arm_read(&mut self, key: usize, slot: &mut Slot, conn: &Conn) {
        slot.phase = Some(Phase::Read {
            started: self.stats.clock.now_nanos(),
        });
        self.rearm(slot, conn, Event::readable(key));
    }

    /// Reads `slot`'s reply as far as its socket allows: a complete
    /// frame is decoded and handed over, a partial one re-armed.
    fn read(&mut self, key: usize, slot: &mut Slot, conn: &mut Conn) {
        let Some(Phase::Read { started }) = slot.phase else {
            return;
        };
        let mut payload = ReplyPayload {
            inbox: &mut slot.inbox,
            frames: self.frames,
            chunk: self.chunk,
        };
        let (kind, nbytes) = match conn
            .rd
            .poll(&mut conn.stream, &mut payload, self.reply_limits)
        {
            Ok(Some(done)) => done,
            Ok(None) => return self.rearm(slot, conn, Event::readable(key)),
            Err(e) => return self.fail(slot, conn, map_wire_error(slot.id, e)),
        };
        let id = slot.id;
        self.recv_total += nbytes as u64;
        self.stats
            .frame_read_seconds
            .observe_nanos(self.stats.clock.now_nanos().saturating_sub(started));
        slot.phase = None;
        self.pending -= 1;
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let inbox = slot.inbox.take().expect("a complete frame began");
        let mut decode_failed = false;
        let on_reply = &mut self.on_reply;
        let delivered = catch_unwind(AssertUnwindSafe(|| {
            let reply = TcpTransport::decode_reply(kind, &inbox, conn, id);
            decode_failed = reply.is_err();
            on_reply(id, reply);
        }));
        // Decoded, rejected or blown up: the reply is done with its
        // buffer.
        inbox.release(self.frames);
        if decode_failed {
            slot.failed = true;
        }
        if delivered.is_err() {
            // The handler blew up on this client's bytes: its connection
            // is forfeit (the strike ledger keeps `Rejected` conns alive,
            // so the drop happens here), the round continues for
            // everyone else.
            slot.failed = true;
            (self.on_reply)(
                id,
                Err(TransportError::Rejected {
                    client_id: id,
                    violation: UpdateViolation::HandlerPanic,
                }),
            );
        }
    }
}

/// Accepts every connection queued on `listener` into `pending`, each a
/// handshake awaiting its `Hello` on `poller` under its index. Returns
/// how many were added.
fn accept_queued(
    listener: &TcpListener,
    poller: &Poller,
    pending: &mut Vec<Option<Handshake>>,
) -> usize {
    let before = pending.len();
    while let Ok((stream, _)) = listener.accept() {
        stream.set_nodelay(true).ok();
        let key = pending.len();
        if stream.set_nonblocking(true).is_ok()
            && poller.add(stream.as_raw_fd(), Event::readable(key)).is_ok()
        {
            pending.push(Some(Handshake {
                stream,
                phase: HsPhase::Hello,
                rd: FrameReadState::new(),
                wr: FrameWriteState::new(),
                rbuf: Vec::new(),
            }));
        }
    }
    pending.len() - before
}

impl TcpTransport {
    /// Accepts `expected` workers on `listener`, running every handshake
    /// at once without blocking (a stalled or malicious half-connected
    /// peer cannot block the fleet from forming). Each
    /// worker must open with a valid `Hello` (unique client id below
    /// `expected`, matching `state_len`); invalid peers get a typed
    /// `Err` frame and are dropped without consuming a slot.
    ///
    /// # Errors
    ///
    /// [`WireError`] on listener or poller failures.
    pub fn accept(
        listener: &TcpListener,
        expected: usize,
        state_len: usize,
        cfg: TcpConfig,
    ) -> Result<TcpTransport, WireError> {
        // High-fanout fleets exceed default shell fd limits; lifting
        // the soft limit is idempotent and failure is non-fatal (small
        // fleets fit anyway).
        polling::raise_nofile_limit().ok();
        let mut transport = TcpTransport {
            conns: (0..expected).map(|_| None).collect(),
            cfg,
            staged: Vec::new(),
            index: vec![RowIndex::default(); expected],
            // Detached counters until a coordinator attaches its
            // catalog; handshake traffic must not go missing just
            // because it happens before wiring.
            stats: WireTelemetry::default(),
            state_len,
            listener: None,
            bcast: Vec::new(),
            own_frames: Vec::new(),
            banned: BTreeSet::new(),
            reactor: Reactor {
                poller: Poller::new()?,
                events: Events::new(),
                slots: Vec::new(),
                frames: FramePool::new(),
                chunk: Vec::new(),
            },
            outcomes: Vec::new(),
        };
        if expected > 0 {
            transport.handshakes(listener, None)?;
            listener.set_nonblocking(false).ok();
        }
        Ok(transport)
    }

    /// Keeps `listener` open for mid-run reconnects: at every round
    /// boundary the coordinator calls
    /// [`ServeTransport::admit_reconnects`], which re-admits workers
    /// presenting a `Hello` resume token into their (vacated) slots.
    /// Without this the fleet is closed-world — a dropped worker stays
    /// dropped.
    pub fn enable_reconnect(&mut self, listener: TcpListener) {
        self.listener = Some(listener);
    }

    /// Replaces the per-fan-out reply deadline
    /// ([`TcpConfig::read_timeout`]). The reactor enforces it per
    /// fan-out; nothing per-socket changes (connections are
    /// non-blocking).
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.cfg.read_timeout = timeout;
    }

    /// Tears the reconnect listener down mid-run, returning it (e.g.
    /// to stop admitting during a maintenance window) in blocking mode.
    /// Subsequent [`ServeTransport::admit_reconnects`] calls admit `0` —
    /// this is the typed path that replaced the old layer's
    /// `self.listener.as_ref().unwrap()` panic.
    pub fn disable_reconnect(&mut self) -> Option<TcpListener> {
        let listener = self.listener.take()?;
        listener.set_nonblocking(false).ok();
        Some(listener)
    }

    /// The one handshake, at start-up ([`Self::accept`]) and at a round
    /// boundary ([`ServeTransport::admit_reconnects`]) alike: every peer
    /// accepted on `listener` sends a `Hello`, gets the
    /// [`hello_verdict`] (`Capabilities`, or a typed `Err` and a close),
    /// and a granted peer is registered into its slot. All handshakes
    /// run at once, non-blocking, so no peer can stall another.
    ///
    /// `boundary` is `None` at start-up, which runs until every slot is
    /// registered. At a round boundary it carries the `(round, global)` a
    /// resumed worker's `Digest` describes: a grant is answered
    /// `Capabilities` then `Digest` and registers on the worker's `Ack`.
    /// A boundary with nothing queued on the listener returns at once;
    /// otherwise peers connecting meanwhile join the same run, and it
    /// returns once every handshake has ended or `read_timeout` has
    /// passed since the call — closing whoever has not finished. Leaves
    /// `listener` non-blocking. Returns how many peers were registered.
    ///
    /// # Errors
    ///
    /// [`WireError`] on listener or poller failures.
    fn handshakes(
        &mut self,
        listener: &TcpListener,
        boundary: Option<(usize, &[f32])>,
    ) -> Result<usize, WireError> {
        let deadline = boundary.map(|_| Instant::now() + self.cfg.read_timeout);
        listener.set_nonblocking(true)?;
        // A poller of the run's own, keyed by index into `pending`: it
        // drops at the end with every registration in it, and whoever is
        // unfinished closes as `pending` drops.
        let poller = Poller::new()?;
        let mut pending = Vec::new();
        let mut open = accept_queued(listener, &poller, &mut pending);
        if boundary.is_some() && open == 0 {
            return Ok(0);
        }
        let cfg = &self.cfg;
        let mut welcome = encode_frame(&cfg.capabilities(self.state_len), &cfg.limits)?;
        if let Some((round, global)) = boundary {
            let digest = crate::digest::state_digest(round as u64, global);
            let digest = Msg::Digest {
                round: round as u64,
                digest,
            };
            welcome.extend(encode_frame(&digest, &cfg.limits)?);
        }
        let mut adm = Admission {
            welcome,
            banned: boundary.map(|_| &self.banned),
            cfg,
            state_len: self.state_len,
            stats: &self.stats,
            reserved: BTreeSet::new(),
        };
        poller.add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
        let (mut events, mut registered) = (Events::new(), 0);
        loop {
            let timeout = match deadline {
                None if registered == self.conns.len() => break,
                None => None,
                Some(_) if open == 0 => break,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break,
                },
            };
            poller.wait(&mut events, timeout)?;
            for ev in events.iter() {
                if ev.key == LISTENER_KEY {
                    open += accept_queued(listener, &poller, &mut pending);
                    poller.modify(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
                    continue;
                }
                let Some(Some(hs)) = pending.get_mut(ev.key) else {
                    continue;
                };
                let step = hs.advance(ev.key, &mut adm, &mut self.conns);
                // A peer that cannot be re-armed is closed.
                if let HsStep::Await(interest) = step {
                    if poller.modify(hs.stream.as_raw_fd(), interest).is_ok() {
                        continue;
                    }
                }
                let hs = pending[ev.key].take().expect("handshake in flight");
                open -= 1;
                if let Some(id) = hs.grant() {
                    adm.reserved.remove(&id);
                }
                if let HsStep::Register((id, num_samples)) = step {
                    self.conns[id] = Some(Conn {
                        stream: hs.stream,
                        num_samples,
                        rd: FrameReadState::new(),
                        wr: FrameWriteState::new(),
                    });
                    registered += 1;
                }
            }
        }
        Ok(registered)
    }

    /// Live client ids, ascending.
    pub fn live_clients(&self) -> Vec<usize> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(id, c)| c.as_ref().map(|_| id))
            .collect()
    }

    /// Decodes a completed reply.
    fn decode_reply<'r>(
        kind: u8,
        inbox: &'r Inbox,
        conn: &mut Conn,
        id: usize,
    ) -> Result<Reply<'r>, TransportError> {
        let payload = match inbox {
            Inbox::State(decoder, state) => {
                let header = decoder.header();
                // A train update's weight is the worker's own dataset
                // size — authoritative, so a registry count that drifted
                // (e.g. a deletion re-shipped to a rejoined worker)
                // self-heals.
                if !header.distill {
                    conn.num_samples = header.weight as usize;
                }
                return Ok(Reply::Update { header, state });
            }
            Inbox::Frame(payload) => payload,
        };
        match decode_msg(kind, payload).map_err(|e| map_wire_error(id, e))? {
            Msg::Err { code, detail } => Err(TransportError::Protocol {
                client_id: id,
                reason: format!("worker error code {code}: {detail}"),
            }),
            Msg::Eval { accuracy, mse, .. } => Ok(Reply::Eval { accuracy, mse }),
            Msg::Ack => Ok(Reply::Ack),
            Msg::UnlearnAck { num_samples } => Ok(Reply::UnlearnAck {
                num_samples: num_samples as usize,
            }),
            other => Err(TransportError::Protocol {
                client_id: id,
                reason: format!("unexpected {} from worker", other.name()),
            }),
        }
    }

    /// The fan-out engine: writes `frame_of(id)` to every live connection
    /// of `cohort` (`None` = the whole live registry), reads one reply
    /// each — all multiplexed on the reactor — and hands each decoded
    /// reply to `on_reply`. Connections outside the cohort are never
    /// touched; the bookkeeping is one reused [`Slot`] per contacted
    /// connection. Failed connections are dropped from the live set
    /// afterwards. Wire bytes are tallied into `stats`.
    ///
    /// Requests are all written at once, but replies are read in slot
    /// order — ascending client id, the order the aggregation fold
    /// consumes them — because a reply is armed for reading only once
    /// every lower slot has finished or failed. An early reply above
    /// that frontier waits in its socket (the kernel's buffers, then the
    /// worker's blocked write), not as a decoded copy parked beside the
    /// fold. At the deadline the order is dropped: a slot whose reply
    /// has not started to arrive times out, every other reply is read to
    /// its end under one more `read_timeout`, so a straggling frontier
    /// costs only itself.
    ///
    /// A panic escaping `on_reply` (a reply handler or sink blowing up
    /// on one client's bytes) is caught and converted into a
    /// [`UpdateViolation::HandlerPanic`] rejection for that client
    /// alone; the round continues for everyone else.
    #[allow(clippy::too_many_arguments)] // the reactor's shared plumbing; private to this impl
    fn fan_out<'f>(
        conns: &mut [Option<Conn>],
        stats: &WireTelemetry,
        read_timeout: Duration,
        reply_limits: &FrameLimits,
        reactor: &mut Reactor,
        cohort: Option<&[(usize, usize)]>,
        frame_of: impl Fn(usize) -> &'f [u8],
        on_reply: impl FnMut(usize, Result<Reply<'_>, TransportError>),
    ) {
        let Reactor {
            poller,
            events,
            slots,
            frames,
            chunk,
        } = reactor;
        let live = |id: &usize| conns.get(*id).is_some_and(|c| c.is_some());
        let slot = |id| Slot {
            id,
            phase: None,
            inbox: None,
            failed: false,
        };
        slots.clear();
        match cohort {
            Some(cohort) => slots.extend(cohort.iter().map(|&(id, _)| id).filter(live).map(slot)),
            None => slots.extend((0..conns.len()).filter(live).map(slot)),
        }
        let mut fan = FanOut {
            poller,
            frames,
            chunk,
            stats,
            reply_limits,
            on_reply,
            pending: 0,
            recv_total: 0,
        };
        let mut sent_total = 0u64;
        for (key, slot) in slots.iter_mut().enumerate() {
            let Some(conn) = conns[slot.id].as_mut() else {
                continue;
            };
            conn.rd.reset();
            conn.wr.reset();
            slot.phase = Some(Phase::Write);
            fan.pending += 1;
            if let Err(e) = fan
                .poller
                .add(conn.stream.as_raw_fd(), Event::writable(key))
            {
                fan.fail(
                    slot,
                    conn,
                    TransportError::Disconnected {
                        client_id: slot.id,
                        reason: format!("reactor registration failed: {e}"),
                    },
                );
            }
        }
        let mut deadline = Instant::now() + read_timeout;
        // The lowest slot still exchanging: the one reply being read.
        let mut frontier = 0usize;
        let mut ordered = true;
        loop {
            if ordered {
                while let Some(slot) = slots.get_mut(frontier) {
                    match slot.phase {
                        None => frontier += 1,
                        Some(Phase::Queued) => {
                            let conn = conns[slot.id].as_mut().expect("slots name live conns");
                            fan.arm_read(frontier, slot, conn);
                        }
                        Some(_) => break,
                    }
                }
            }
            if fan.pending == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                if !ordered {
                    break;
                }
                // The deadline sweep: whoever has not started replying
                // is a straggler; whatever is buffered is read, in any
                // order, under one more deadline.
                ordered = false;
                deadline = now + read_timeout;
                for (key, slot) in slots.iter_mut().enumerate() {
                    let Some(phase) = slot.phase else {
                        continue;
                    };
                    let conn = conns[slot.id].as_mut().expect("slots name live conns");
                    if matches!(phase, Phase::Write) {
                        fan.fail(slot, conn, TransportError::Timeout { client_id: slot.id });
                        continue;
                    }
                    if matches!(phase, Phase::Queued) {
                        slot.phase = Some(Phase::Read {
                            started: fan.stats.clock.now_nanos(),
                        });
                    }
                    fan.read(key, slot, conn);
                    if slot.phase.is_some() && !conn.rd.mid_frame() {
                        fan.fail(slot, conn, TransportError::Timeout { client_id: slot.id });
                    }
                }
                continue;
            }
            let wait_start = fan.stats.clock.now_nanos();
            let waited = fan.poller.wait(events, Some(deadline - now));
            fan.stats
                .poll_wait_seconds
                .observe_nanos(fan.stats.clock.now_nanos().saturating_sub(wait_start));
            let n = match waited {
                Ok(n) => n,
                Err(_) => break, // poller failure: every pending conn times out below
            };
            if n == 0 {
                continue; // timeout or EINTR; the deadline check decides
            }
            for ev in events.iter() {
                let key = ev.key;
                let Some(slot) = slots.get_mut(key) else {
                    continue;
                };
                let Some(conn) = conns.get_mut(slot.id).and_then(|c| c.as_mut()) else {
                    continue;
                };
                match slot.phase {
                    Some(Phase::Write) => {
                        let frame = frame_of(slot.id);
                        match conn.wr.poll(&mut conn.stream, frame) {
                            Ok(true) => {
                                sent_total += frame.len() as u64;
                                slot.phase = Some(Phase::Queued);
                                // Oneshot: the socket stays disarmed
                                // until its turn to be read.
                                if key == frontier || !ordered {
                                    fan.arm_read(key, slot, conn);
                                }
                            }
                            Ok(false) => fan.rearm(slot, conn, Event::writable(key)),
                            Err(e) => fan.fail(slot, conn, map_wire_error(slot.id, e)),
                        }
                    }
                    Some(Phase::Read { .. }) => fan.read(key, slot, conn),
                    Some(Phase::Queued) | None => {}
                }
            }
        }
        stats.sent_bytes.add(sent_total);
        stats.received_bytes.add(fan.recv_total);
        for slot in slots.iter_mut() {
            // Whoever is still mid-exchange missed the deadline.
            if slot.phase.is_some() {
                if let Some(conn) = conns[slot.id].as_ref() {
                    fan.fail(slot, conn, TransportError::Timeout { client_id: slot.id });
                }
            }
            if slot.failed {
                // Straggler / lost / misbehaving worker: drop it.
                conns[slot.id] = None;
            }
        }
    }

    /// One request/reply exchange with `cohort` (`None` = the whole live
    /// registry), start to finish. `encode(None, ..)` fills the broadcast
    /// frame and `encode(Some(id), ..)` the frame of each client in `own`
    /// whose bytes differ from it — timed together as the encode span;
    /// the frames then [fan out](Self::fan_out) under the reply bound of
    /// this model, every reply that decodes goes through `expect` (the
    /// caller's one legal reply kind; anything else it refuses with
    /// [`Reply::unexpected`]), and the per-client `outcomes` come back
    /// sorted by id with the at-fault connections dropped
    /// ([`Self::drop_failed_and_sort`]).
    ///
    /// # Errors
    ///
    /// The [`WireError`] of a frame that would not encode: nothing was
    /// sent, and `outcomes` holds that error for every client the
    /// exchange would have contacted.
    fn exchange<T>(
        &mut self,
        cohort: Option<&[(usize, usize)]>,
        own: &[usize],
        encode: impl Fn(Option<usize>, &mut Vec<u8>, &FrameLimits) -> Result<usize, WireError>,
        outcomes: &mut Vec<(usize, Result<T, TransportError>)>,
        mut expect: impl FnMut(usize, Reply<'_>) -> Result<T, TransportError>,
    ) -> Result<(), WireError> {
        let limits = self.cfg.limits;
        let enc_start = self.stats.clock.now_nanos();
        if self.own_frames.len() < own.len() {
            self.own_frames.resize_with(own.len(), Vec::new);
        }
        let encoded = encode(None, &mut self.bcast, &limits).and_then(|_| {
            let mut frames = self.own_frames.iter_mut().zip(own);
            frames.try_for_each(|(frame, &id)| encode(Some(id), frame, &limits).map(drop))
        });
        self.stats
            .broadcast_encode_seconds
            .observe_nanos(self.stats.clock.now_nanos().saturating_sub(enc_start));
        if let Err(e) = &encoded {
            let contacted = |id: &usize| match cohort {
                None => true,
                Some(cohort) => cohort.binary_search_by_key(id, |&(cid, _)| cid).is_ok(),
            };
            let live = self.live_clients().into_iter().filter(contacted);
            outcomes.extend(live.map(|id| (id, Err(map_wire_error(id, e.clone())))));
            return encoded;
        }
        let (bcast, own_frames) = (self.bcast.as_slice(), self.own_frames.as_slice());
        Self::fan_out(
            &mut self.conns,
            &self.stats,
            self.cfg.read_timeout,
            &reply_limits(limits, self.state_len),
            &mut self.reactor,
            cohort,
            |id| match own.iter().position(|&o| o == id) {
                Some(at) => own_frames[at].as_slice(),
                None => bcast,
            },
            |id, reply| outcomes.push((id, reply.and_then(|r| expect(id, r)))),
        );
        self.drop_failed_and_sort(outcomes);
        Ok(())
    }

    /// Runs a round-shaped fan-out (train or distill) feeding `sink` as
    /// updates arrive, recording per-client outcomes into `results`
    /// (sorted by client id). With a `cohort`, only that subset of the
    /// live connections is contacted and reported.
    fn round_streamed(
        &mut self,
        spec: &RoundSpec<'_>,
        cohort: Option<&[(usize, usize)]>,
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let round = spec.round;
        let want_distill = matches!(spec.mode, RoundMode::Distill);
        let mut outcomes = std::mem::take(&mut self.outcomes);
        // An encode failure is already in `outcomes`, client by client.
        let _ = self.exchange(
            cohort,
            &[],
            |_, frame, limits| {
                encode_round_assign_into(
                    frame,
                    spec.mode,
                    spec.round,
                    spec.seed,
                    spec.nonce,
                    spec.cfg,
                    spec.global,
                    limits,
                )
            },
            &mut outcomes,
            |id, reply| match reply {
                // The nonce is *forwarded*, not checked: the sink is the
                // caller's admission layer (`RoundRuntime::run_hot`),
                // which judges stale nonces as typed violations so they
                // earn strikes instead of a bare protocol drop.
                Reply::Update { header, state } => {
                    check_update_header(id, &header, round, want_distill)?;
                    sink(StreamedUpdate {
                        client_id: id,
                        num_samples: header.weight as usize,
                        nonce: header.nonce,
                        state,
                    })
                }
                other => Err(other.unexpected(id, "a round result")),
            },
        );
        results.clear();
        results.extend(outcomes.drain(..).map(|(_, r)| r));
        self.outcomes = outcomes;
    }

    /// Drops the connections of clients whose round outcome was **their
    /// fault** (straggling, disconnecting, answering out of protocol)
    /// and sorts outcomes by client id. Three error kinds keep the
    /// connection alive:
    ///
    /// * [`TransportError::UpdateWindowExceeded`] is the coordinator's
    ///   own capacity policy — the worker answered correctly — so the
    ///   error propagates to the caller instead of silently shrinking
    ///   the fleet.
    /// * [`TransportError::Rejected`] and
    ///   [`TransportError::DuplicateUpdate`] are admission verdicts:
    ///   the strike/quarantine ledger decides the worker's fate, and
    ///   evicting on the first offense would bypass the configured
    ///   `max_strikes` budget. (The one exception is
    ///   [`UpdateViolation::HandlerPanic`], whose connection the
    ///   fan-out itself already dropped — the reply bytes blew up the
    ///   handler, so the socket cannot be trusted for another frame.)
    ///
    /// A [`TransportError::Quarantined`] outcome additionally bans the
    /// client from readmission (the eviction itself happens in
    /// [`RoundTransport::quarantine`]).
    fn drop_failed_and_sort<T>(&mut self, outcomes: &mut [(usize, Result<T, TransportError>)]) {
        for (id, outcome) in outcomes.iter() {
            match outcome {
                Ok(_)
                | Err(TransportError::UpdateWindowExceeded { .. })
                | Err(TransportError::Rejected { .. })
                | Err(TransportError::DuplicateUpdate { .. }) => {}
                Err(TransportError::Quarantined { .. }) => {
                    self.banned.insert(*id);
                    self.conns[*id] = None;
                }
                Err(_) => {
                    self.conns[*id] = None;
                }
            }
        }
        outcomes.sort_by_key(|(id, _)| *id);
    }
}

/// Validates an `Update`/`UnlearnResult` header against the round it
/// answers. The echoed nonce is not judged here: it is forwarded to the
/// sink, whose admission layer turns a mismatch into a strike-earning
/// [`TransportError::Rejected`].
fn check_update_header(
    id: usize,
    header: &UpdateHeader,
    round: u64,
    want_distill: bool,
) -> Result<(), TransportError> {
    if header.distill == want_distill && header.round == round && header.client_id as usize == id {
        return Ok(());
    }
    Err(TransportError::Protocol {
        client_id: id,
        reason: format!(
            "reply mismatch: round {} (want {round}), client {} (want {id}), distill {} (want {want_distill})",
            header.round, header.client_id, header.distill
        ),
    })
}

fn map_wire_error(client_id: usize, e: WireError) -> TransportError {
    match e {
        WireError::Io { kind, detail } => match kind {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                TransportError::Timeout { client_id }
            }
            _ => TransportError::Disconnected {
                client_id,
                reason: detail,
            },
        },
        // A peer that vanished with a frame half-delivered is a
        // disconnect, not a protocol violation — the distinction drives
        // reconnect/backoff policy instead of a hard protocol abort.
        WireError::DisconnectedMidFrame { got, want } => TransportError::Disconnected {
            client_id,
            reason: format!("connection lost mid-frame ({got} of {want} bytes)"),
        },
        other => TransportError::Protocol {
            client_id,
            reason: other.to_string(),
        },
    }
}

impl RoundTransport for TcpTransport {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        out.clear();
        out.extend(
            self.conns
                .iter()
                .enumerate()
                .filter_map(|(id, c)| c.as_ref().map(|c| (id, c.num_samples))),
        );
    }

    /// Frames go only to the cohort's connections; every other
    /// registered worker stays parked in the poller, untouched and
    /// unbilled this round.
    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        self.round_streamed(
            &RoundSpec {
                mode: RoundMode::Train,
                round: assign.round as u64,
                seed: assign.seed,
                nonce: assign.nonce,
                cfg: assign.cfg,
                global: assign.global,
            },
            Some(cohort),
            sink,
            results,
        );
    }

    /// Evicts `client_id`: its connection is closed (after a
    /// best-effort typed `Err` frame telling the worker why) and its id
    /// is banned from readmission, so a quarantined worker cannot
    /// reconnect into its old slot with a resume token.
    fn quarantine(&mut self, client_id: usize) -> bool {
        self.banned.insert(client_id);
        let Some(slot) = self.conns.get_mut(client_id) else {
            return false;
        };
        let Some(conn) = slot.as_mut() else {
            return false;
        };
        // Best-effort delivery on the way out: briefly back to blocking
        // mode with a bounded write timeout so the frame actually
        // leaves before the socket closes.
        conn.stream.set_nonblocking(false).ok();
        conn.stream
            .set_write_timeout(Some(Duration::from_secs(2)))
            .ok();
        if let Ok(n) = write_frame(
            &mut conn.stream,
            &Msg::Err {
                code: err_code::QUARANTINED,
                detail: format!("client id {client_id} is quarantined"),
            },
            &self.cfg.limits,
        ) {
            self.stats.sent_bytes.add(n as u64);
        }
        *slot = None;
        true
    }
}

impl DistillTransport for TcpTransport {
    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        RoundTransport::cohort_into(self, out)
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        if job.hard.is_none() {
            return Err(TransportError::Unsupported {
                reason: "custom hard losses cannot be shipped to workers".into(),
            });
        }
        let staged = std::mem::take(&mut self.staged);
        // Before any frame goes out: every client whose own data is
        // being deleted must be connected. Workers apply deletions
        // permanently on receipt, so discovering a missing requester
        // *after* the fan-out would leave other requesters' datasets
        // shrunk while the coordinator aborts and keeps serving the
        // pre-request model.
        for req in staged.iter().filter(|r| !r.removed.is_empty()) {
            if self.conns.get(req.client_id).is_none_or(|c| c.is_none()) {
                return Err(not_connected(req.client_id));
            }
        }
        // Frames differ per client only in the (tiny) removed-index
        // list, so every client without removals of its own gets the
        // same bytes: that frame is encoded once, plus one frame per
        // requester — the (large) teacher state is borrowed straight
        // into each, never cloned.
        let removed_of = |id: usize| {
            let staged = staged.iter().find(|r| r.client_id == id);
            staged.map_or(&[][..], |r| r.removed.as_slice())
        };
        let requesters = staged.iter().filter(|r| !r.removed.is_empty());
        let own: Vec<usize> = requesters.map(|r| r.client_id).collect();
        let mut results: Vec<(usize, Result<(), TransportError>)> = Vec::new();
        let mut acked_sizes: Vec<(usize, usize)> = Vec::new();
        self.exchange(
            None,
            &own,
            |id, frame, limits| {
                let removed = id.map_or(&[][..], removed_of);
                encode_unlearn_assign_into(frame, job, removed, teacher, limits)
            },
            &mut results,
            |id, reply| match reply {
                Reply::UnlearnAck { num_samples } => {
                    acked_sizes.push((id, num_samples));
                    Ok(())
                }
                Reply::Ack => Ok(()),
                other => Err(other.unexpected(id, "an UnlearnAssign ack")),
            },
        )
        // A job that does not fit a frame is no client's fault.
        .map_err(|e| TransportError::Unsupported {
            reason: format!("UnlearnAssign cannot be framed: {e}"),
        })?;
        // Sync from worker truth, whatever the other clients did: an
        // acked worker removed its rows, and its ack reports its own
        // post-deletion count, which the registry *assigns* (never
        // subtracts). A rejoined worker whose `Hello` already reflected
        // the deletion, and whose store made the re-application a no-op,
        // therefore cannot be double-shrunk.
        for (id, n) in acked_sizes {
            self.index[id].remove(removed_of(id));
            if let Some(conn) = self.conns[id].as_mut() {
                conn.num_samples = n;
            }
        }
        if results.iter().all(|(_, r)| r.is_err()) {
            return Err(TransportError::NoLiveClients);
        }
        // A client whose *own* deletion request did not land must fail
        // the whole pass — otherwise the coordinator would report the
        // request as served while the data survives. (Intact clients
        // that dropped are mere stragglers; the survivors distill on.)
        for req in staged.iter().filter(|r| !r.removed.is_empty()) {
            match results.iter().find(|(id, _)| *id == req.client_id) {
                Some((_, Ok(()))) => {}
                Some((_, Err(e))) => return Err(e.clone()),
                None => return Err(not_connected(req.client_id)),
            }
        }
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
        self.round_streamed(
            &RoundSpec {
                mode: RoundMode::Distill,
                round: round as u64,
                seed,
                // Distill assignments derive their nonce the same way
                // training rounds do; workers echo whatever the
                // `RoundAssign` carried, so both sides agree by
                // construction.
                nonce: goldfish_fed::transport::round_nonce(seed, round),
                // cfg travels for frame uniformity but is ignored by
                // distill workers (the job shipped it already).
                cfg: &goldfish_fed::trainer::TrainConfig::default(),
                global,
            },
            Some(cohort),
            sink,
            results,
        );
    }
}

impl ServeTransport for TcpTransport {
    fn client_sizes(&self) -> Vec<usize> {
        self.conns
            .iter()
            .map(|c| c.as_ref().map(|c| c.num_samples).unwrap_or(0))
            .collect()
    }

    fn stage_removals(&mut self, requests: &[UnlearnRequest]) {
        self.staged = to_originals(&mut self.index.clone(), requests);
    }

    fn apply_removals(&mut self, requests: &[UnlearnRequest]) -> Result<(), RowOutOfRange> {
        to_originals(&mut self.index, requests);
        Ok(())
    }

    fn admit_reconnects(&mut self, round: usize, global: &[f32]) -> usize {
        // The typed no-listener path (a fleet torn down mid-run, or one
        // that never enabled reconnects) admits zero — no unwrap, no
        // panic, pinned by `tests/reactor.rs`. The listener is held by
        // value meanwhile, so no aliased re-borrow of `self` is needed.
        let Some(listener) = self.listener.take() else {
            return 0;
        };
        let admitted = self.handshakes(&listener, Some((round, global)));
        self.listener = Some(listener);
        admitted.unwrap_or(0)
    }

    fn shutdown(&mut self) {
        // Best effort: a worker that already vanished can't be told.
        // Briefly back to blocking mode so the frame actually flushes
        // on a socket whose send buffer is busy.
        for conn in self.conns.iter_mut().flatten() {
            conn.stream.set_nonblocking(false).ok();
            conn.stream
                .set_write_timeout(Some(Duration::from_secs(5)))
                .ok();
            if let Ok(n) = write_frame(&mut conn.stream, &Msg::Shutdown, &self.cfg.limits) {
                self.stats.sent_bytes.add(n as u64);
            }
        }
    }

    fn local_eval(
        &mut self,
        round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>> {
        let mut evals: Vec<(usize, Result<LocalEval, TransportError>)> = Vec::new();
        // An encode failure is already in `evals`, client by client.
        let _ = self.exchange(
            None,
            &[],
            |_, frame, limits| encode_eval_request_into(frame, round as u64, global, limits),
            &mut evals,
            |id, reply| match reply {
                Reply::Eval { accuracy, mse } => Ok(LocalEval {
                    client_id: id,
                    accuracy,
                    mse,
                }),
                other => Err(other.unexpected(id, "an Eval reply")),
            },
        );
        evals.into_iter().map(|(_, e)| e).collect()
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.wire_stats()
    }

    fn set_telemetry(&mut self, telemetry: &ServeTelemetry) {
        // Carries handshake-era counts into the shared catalog's cells.
        self.stats.attach(telemetry);
        self.reactor.frames.attach(
            &telemetry.frame_buffers_leased,
            &telemetry.frame_buffers_high_water,
        );
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpTransport({} live of {} slots, {} B out, {} B in)",
            DistillTransport::num_clients(self),
            self.conns.len(),
            self.stats.sent_bytes.get(),
            self.stats.received_bytes.get()
        )
    }
}

/// Convenience: binds `addr` (e.g. `127.0.0.1:0`) and returns the
/// listener plus its resolved local address string.
///
/// # Errors
///
/// [`WireError::Io`] when binding fails.
pub fn bind(addr: &str) -> Result<(TcpListener, String), WireError> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?.to_string();
    Ok((listener, local))
}

// Keep the module's error text helpers exercised even in non-network
// test builds.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_error_mapping() {
        let e = map_wire_error(
            3,
            WireError::Io {
                kind: std::io::ErrorKind::TimedOut,
                detail: "t".into(),
            },
        );
        assert_eq!(e, TransportError::Timeout { client_id: 3 });
        let e = map_wire_error(
            1,
            WireError::Io {
                kind: std::io::ErrorKind::ConnectionReset,
                detail: "gone".into(),
            },
        );
        assert!(matches!(
            e,
            TransportError::Disconnected { client_id: 1, .. }
        ));
        let e = map_wire_error(0, WireError::UnknownKind(9));
        assert!(matches!(e, TransportError::Protocol { .. }));
        let _ = crate::wire::describe_err(&Msg::Err {
            code: 1,
            detail: "x".into(),
        });
    }
}
