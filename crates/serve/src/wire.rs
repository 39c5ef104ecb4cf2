//! The versioned, length-prefixed binary wire protocol (DESIGN.md §10).
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GFWP"
//! 4       1     protocol version (PROTOCOL_VERSION)
//! 5       1     message kind
//! 6       4     payload length, u32 LE
//! 10      n     payload
//! ```
//!
//! Payloads are little-endian throughout. `f32` vectors (model states,
//! teacher states) are embedded verbatim in the
//! [`goldfish_tensor::serialize::params_to_bytes`] format — a `u64`
//! element count followed by the bulk-converted floats — so the hot part
//! of every frame moves through the ~10 GB/s batched codec, and the
//! `f32 → LE bytes → f32` round trip is bit-exact (what makes a TCP round
//! bitwise identical to an in-process one). The vector is always the
//! **last** field of its payload.
//!
//! Decoding is strict: wrong magic, an unsupported version, an unknown
//! kind, a length prefix above the configured maximum, or a truncated
//! buffer each produce a distinct [`WireError`] — no panic, no partial
//! message.

use bytes::BufMut;
use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::extension::AdaptiveTemperature;
use goldfish_core::loss::LossWeights;
use goldfish_core::transport::UnlearnJob;
use goldfish_fed::trainer::TrainConfig;
use goldfish_nn::loss::HardLossSpec;
use goldfish_tensor::serialize;

use crate::codec::Reader;
use crate::nio::FrameReadState;

/// Frame magic: "GoldFish Wire Protocol".
pub const MAGIC: [u8; 4] = *b"GFWP";

/// Protocol version spoken by this build. Bumped on any incompatible
/// frame or payload change; both ends reject mismatches at the frame
/// layer (and again during the Hello/Capabilities handshake).
///
/// Version history: 1 = initial GFWP; 2 = `Hello` resume token,
/// `UnlearnAssign` drain serial, `Digest` frame; 3 = round nonce in
/// `RoundAssign`/`Update`/`UnlearnResult`, aggregation-mode negotiation
/// in `Capabilities` (DESIGN.md §13); 4 = `ShardAssign`/`ShardResult`
/// frames and shard-policy announcement in `Capabilities`
/// (DESIGN.md §16); 5 = shard frames and `Capabilities` shard fields
/// removed, kinds 13–14 retired; 6 = `UnlearnAssign` drain serial
/// removed (deletions name original rows, so no worker needs it).
pub const PROTOCOL_VERSION: u8 = 6;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 10;

/// Frame-size policy. A peer announcing or sending frames above
/// `max_payload` is rejected before any allocation happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Maximum payload bytes per frame.
    pub max_payload: usize,
}

impl FrameLimits {
    /// These limits, tightened to `max_payload` where that is smaller —
    /// how a reader bounds one protocol phase (a handshake, a round
    /// reply) by what that phase can legally carry, so an unvalidated
    /// length prefix cannot size a buffer beyond it.
    pub(crate) fn at_most(self, max_payload: usize) -> FrameLimits {
        FrameLimits {
            max_payload: self.max_payload.min(max_payload),
        }
    }
}

impl Default for FrameLimits {
    /// 256 MiB — comfortably above any model this repository trains
    /// (a 500k-parameter state is 2 MB) while bounding a hostile length
    /// prefix.
    fn default() -> Self {
        FrameLimits {
            max_payload: 256 << 20,
        }
    }
}

/// Typed decode/transport failures of the wire layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame (or a payload field) does.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
    },
    /// The kind byte maps to no known message.
    UnknownKind(u8),
    /// The length prefix exceeds [`FrameLimits::max_payload`].
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
        /// The configured maximum.
        max: usize,
    },
    /// The payload parsed but its contents are invalid.
    Malformed(String),
    /// An I/O error while reading or writing a frame.
    Io {
        /// The underlying error kind.
        kind: std::io::ErrorKind,
        /// The error text.
        detail: String,
    },
    /// The peer closed the stream **inside** a frame: some header or
    /// payload bytes arrived, then EOF. Distinct from a clean EOF
    /// between frames (reported as [`WireError::Io`] with
    /// [`std::io::ErrorKind::UnexpectedEof`]), because a mid-frame close
    /// means the peer died or reset rather than finishing its session.
    DisconnectedMidFrame {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame announced (header plus payload).
        want: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (want {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::Io { kind, detail } => write!(f, "wire i/o error ({kind:?}): {detail}"),
            WireError::DisconnectedMidFrame { got, want } => {
                write!(f, "peer disconnected mid-frame ({got} of {want} bytes)")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Frame kind bytes — the one place a message's wire kind is assigned.
/// `Msg::kind`, the payload decoders and the borrowed encoders all
/// reference these, so adding or renumbering a message is a one-site
/// change. Kinds 13 and 14 (protocol v4's shard frames) are retired and
/// never reused.
pub mod kind {
    /// [`super::Msg::Hello`].
    pub const HELLO: u8 = 1;
    /// [`super::Msg::Capabilities`].
    pub(crate) const CAPABILITIES: u8 = 2;
    /// [`super::Msg::RoundAssign`].
    pub(crate) const ROUND_ASSIGN: u8 = 3;
    /// [`super::Msg::Update`].
    pub const UPDATE: u8 = 4;
    /// [`super::Msg::UnlearnAssign`].
    pub(crate) const UNLEARN_ASSIGN: u8 = 5;
    /// [`super::Msg::UnlearnResult`].
    pub(crate) const UNLEARN_RESULT: u8 = 6;
    /// [`super::Msg::Eval`].
    pub(crate) const EVAL: u8 = 7;
    /// [`super::Msg::Err`].
    pub(crate) const ERR: u8 = 8;
    /// [`super::Msg::Ack`].
    pub const ACK: u8 = 9;
    /// [`super::Msg::Digest`].
    pub(crate) const DIGEST: u8 = 10;
    /// [`super::Msg::UnlearnAck`].
    pub(crate) const UNLEARN_ACK: u8 = 11;
    /// [`super::Msg::Shutdown`].
    pub(crate) const SHUTDOWN: u8 = 12;
}

/// Error codes carried by [`Msg::Err`].
pub mod err_code {
    /// The peer's state-vector length does not match the architecture.
    pub(crate) const BAD_STATE_LEN: u16 = 1;
    /// A distillation round arrived with no preceding `UnlearnAssign`.
    pub(crate) const NOT_UNLEARNING: u16 = 2;
    /// The request is semantically invalid (bad indices, bad job).
    pub(crate) const BAD_REQUEST: u16 = 3;
    /// The client has been quarantined by the coordinator's
    /// strike/reputation ledger and will not be readmitted.
    pub(crate) const QUARANTINED: u16 = 5;
}

/// Whether a `RoundAssign` is a plain training round or a distillation
/// round of an active unlearning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Local SGD on the client's full data; reply is [`Msg::Update`].
    Train,
    /// Goldfish distillation retraining; reply is [`Msg::UnlearnResult`]
    /// and requires a prior [`Msg::UnlearnAssign`].
    Distill,
}

/// One protocol message. See DESIGN.md §10 for the message table and the
/// coordinator/worker state machines that exchange them.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → coordinator introduction, first frame on a connection.
    Hello {
        /// The worker's logical client id.
        client_id: u64,
        /// State-vector length of the worker's model build.
        state_len: u64,
        /// Local dataset size (the FedAvg weight).
        num_samples: u64,
        /// Resume token: `Some(last_acked_round)` when this connection
        /// re-joins a session the worker already participated in, `None`
        /// on a fresh join. The coordinator re-admits resuming workers
        /// into their registry slot without perturbing cohort or round
        /// seeds and answers with a [`Msg::Digest`] of the current
        /// global so the worker can confirm it rejoined the same run.
        resume: Option<u64>,
    },
    /// Coordinator → worker handshake acknowledgement.
    Capabilities {
        /// The coordinator's frame-size limit.
        max_payload: u64,
        /// The coordinator's state-vector length (must match the
        /// worker's).
        state_len: u64,
        /// The negotiated aggregation mode
        /// ([`goldfish_fed::aggregate::AggregationMode::wire_code`]):
        /// announced so workers know which robust fold their updates
        /// enter.
        agg_mode: u8,
        /// The aggregation mode's parameter (trim count or norm-limit
        /// bits; `0` when the mode takes none).
        agg_param: u64,
    },
    /// Coordinator → worker: one round's marching orders.
    RoundAssign {
        /// Training or distillation round.
        mode: RoundMode,
        /// Round index.
        round: u64,
        /// Base seed; the worker derives its own via
        /// [`goldfish_fed::transport::client_seed`].
        seed: u64,
        /// This round's nonce
        /// ([`goldfish_fed::transport::round_nonce`]); the worker must
        /// echo it in its reply, which is how the admission layer
        /// rejects stale and replayed update frames.
        nonce: u64,
        /// Local training hyperparameters (ignored for
        /// [`RoundMode::Distill`], which uses the job shipped by
        /// `UnlearnAssign`).
        cfg: TrainConfig,
        /// The current global state vector.
        global: Vec<f32>,
    },
    /// Worker → coordinator: the trained local state.
    Update {
        /// Echoes the assignment's round index.
        round: u64,
        /// The worker's client id.
        client_id: u64,
        /// Aggregation weight (local sample count).
        weight: u64,
        /// Echoes the assignment's round nonce.
        nonce: u64,
        /// The updated local state vector.
        state: Vec<f32>,
    },
    /// Coordinator → worker: an unlearning request begins. The worker
    /// removes the `removed` rows from its store, rebuilds its
    /// distillation state and answers subsequent [`RoundMode::Distill`]
    /// assignments.
    UnlearnAssign {
        /// The job (local config + hard loss).
        job: UnlearnJob,
        /// Original indices (positions in the data the worker registered
        /// with) of the rows to forget; empty for clients without a
        /// deletion request. A re-drain's rows, already removed, are
        /// removed nothing more and read back from the store.
        removed: Vec<u64>,
        /// The frozen pre-deletion global state (the teacher).
        teacher: Vec<f32>,
    },
    /// Worker → coordinator: one distillation round's result.
    UnlearnResult {
        /// Echoes the assignment's round index.
        round: u64,
        /// The worker's client id.
        client_id: u64,
        /// Aggregation weight (remaining sample count).
        weight: u64,
        /// Echoes the assignment's round nonce.
        nonce: u64,
        /// The retrained student state.
        state: Vec<f32>,
    },
    /// Local-evaluation exchange. The coordinator sends a non-empty
    /// `global` with zeroed metrics; the worker replies with an empty
    /// `global` and its local test of that state.
    Eval {
        /// Round index this evaluation refers to.
        round: u64,
        /// Classification accuracy on the worker's local data.
        accuracy: f64,
        /// Mean squared error on the worker's local data.
        mse: f64,
        /// The state to evaluate (request) or empty (reply).
        global: Vec<f32>,
    },
    /// A typed failure, either direction. The connection is torn down
    /// after sending or receiving one.
    Err {
        /// One of [`err_code`]'s values.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// A bare positive acknowledgement (worker → coordinator), e.g. of
    /// an accepted `UnlearnAssign`. Empty payload.
    Ack,
    /// Coordinator → worker on a resumed connection: the round counter
    /// and SHA-256 state digest (see
    /// [`crate::digest::state_digest`]) of the global the session will
    /// continue from. The worker replies [`Msg::Ack`].
    Digest {
        /// Rounds completed so far.
        round: u64,
        /// `state_digest(round, global)`.
        digest: [u8; 32],
    },
    /// Worker → coordinator: an [`Msg::UnlearnAssign`] landed. Carries
    /// the worker's authoritative post-deletion dataset size: the
    /// coordinator *assigns* (never subtracts) this into its registry,
    /// so a batch re-shipped to a rejoined worker — whose `Hello`
    /// already reported the shrunk size and whose store makes the
    /// re-application a no-op — cannot double-shrink the aggregation
    /// weights.
    UnlearnAck {
        /// Remaining local sample count (the FedAvg weight from here
        /// on).
        num_samples: u64,
    },
    /// Coordinator → worker: the schedule is complete; close cleanly.
    /// This frame is what distinguishes a graceful end-of-service from
    /// a coordinator crash — a worker seeing bare EOF *without* a
    /// preceding `Shutdown` treats the session as a disconnect (and,
    /// under `--reconnect`, waits for the coordinator to come back).
    Shutdown,
}

impl Msg {
    /// The frame kind byte of this message.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => kind::HELLO,
            Msg::Capabilities { .. } => kind::CAPABILITIES,
            Msg::RoundAssign { .. } => kind::ROUND_ASSIGN,
            Msg::Update { .. } => kind::UPDATE,
            Msg::UnlearnAssign { .. } => kind::UNLEARN_ASSIGN,
            Msg::UnlearnResult { .. } => kind::UNLEARN_RESULT,
            Msg::Eval { .. } => kind::EVAL,
            Msg::Err { .. } => kind::ERR,
            Msg::Ack => kind::ACK,
            Msg::Digest { .. } => kind::DIGEST,
            Msg::UnlearnAck { .. } => kind::UNLEARN_ACK,
            Msg::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Short message name for logs.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::Capabilities { .. } => "Capabilities",
            Msg::RoundAssign { .. } => "RoundAssign",
            Msg::Update { .. } => "Update",
            Msg::UnlearnAssign { .. } => "UnlearnAssign",
            Msg::UnlearnResult { .. } => "UnlearnResult",
            Msg::Eval { .. } => "Eval",
            Msg::Err { .. } => "Err",
            Msg::Ack => "Ack",
            Msg::Digest { .. } => "Digest",
            Msg::UnlearnAck { .. } => "UnlearnAck",
            Msg::Shutdown => "Shutdown",
        }
    }
}

/// Renders a message for logs: `Err` frames show their code and detail,
/// everything else its name.
pub(crate) fn describe_err(msg: &Msg) -> String {
    match msg {
        Msg::Err { code, detail } => format!("error code {code}: {detail}"),
        other => other.name().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.put_u64_le(v.to_bits());
}

fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    serialize::params_write_into(out, data);
}

/// Starts a frame in `out` (cleared first): magic, version, kind, and a
/// zero length field to be patched by [`finish_frame`].
fn begin_frame(out: &mut Vec<u8>, kind: u8) {
    out.clear();
    out.put_slice(&MAGIC);
    out.put_slice(&[PROTOCOL_VERSION, kind]);
    out.put_u32_le(0); // payload length, patched by finish_frame
}

/// Validates the payload length against `limits` and patches the header's
/// length field. Returns the whole frame's size in bytes.
fn finish_frame(out: &mut [u8], limits: &FrameLimits) -> Result<usize, WireError> {
    let payload_len = out.len() - HEADER_LEN;
    // The header's length field is u32; a payload above either the
    // configured cap or the field's range must fail cleanly here, never
    // wrap into a desynced stream.
    if payload_len > limits.max_payload || payload_len > u32::MAX as usize {
        return Err(WireError::FrameTooLarge {
            len: payload_len as u64,
            max: limits.max_payload.min(u32::MAX as usize),
        });
    }
    out[6..10].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(out.len())
}

fn put_opt_f32(out: &mut Vec<u8>, v: Option<f32>) {
    match v {
        Some(x) => {
            out.put_slice(&[1]);
            out.put_f32_le(x);
        }
        None => out.put_slice(&[0]),
    }
}

fn put_train_config(out: &mut Vec<u8>, cfg: &TrainConfig) {
    out.put_u64_le(cfg.local_epochs as u64);
    out.put_u64_le(cfg.batch_size as u64);
    out.put_f32_le(cfg.lr);
    out.put_f32_le(cfg.momentum);
}

fn put_job(out: &mut Vec<u8>, job: &UnlearnJob) -> Result<(), WireError> {
    let l = &job.local;
    out.put_u64_le(l.epochs as u64);
    out.put_u64_le(l.batch_size as u64);
    out.put_f32_le(l.lr);
    out.put_f32_le(l.momentum);
    out.put_f32_le(l.weights.mu_c);
    out.put_f32_le(l.weights.mu_d);
    out.put_f32_le(l.weights.temperature);
    match &l.adaptive_temperature {
        Some(at) => {
            out.put_slice(&[1]);
            out.put_f32_le(at.t0);
            out.put_f32_le(at.alpha);
        }
        None => out.put_slice(&[0]),
    }
    put_opt_f32(out, l.early_termination);
    put_opt_f32(out, l.grad_clip);
    match job.hard {
        Some(HardLossSpec::CrossEntropy) => out.put_slice(&[0]),
        Some(HardLossSpec::Focal { gamma }) => {
            out.put_slice(&[1]);
            out.put_f32_le(gamma);
        }
        Some(HardLossSpec::Nll) => out.put_slice(&[2]),
        None => {
            return Err(WireError::Malformed(
                "custom hard losses cannot travel over the wire".into(),
            ))
        }
    }
    Ok(())
}

/// Serializes `msg` into one complete frame (header + payload).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `limits`, or
/// [`WireError::Malformed`] for messages that cannot be wire-encoded
/// (an [`UnlearnJob`] carrying a custom loss).
pub fn encode_frame(msg: &Msg, limits: &FrameLimits) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    encode_frame_into(msg, &mut out, limits)?;
    Ok(out)
}

/// [`encode_frame`] into a caller-owned buffer (cleared and refilled) —
/// the reusable-buffer form the transports encode every frame through,
/// so a steady-state round allocates no frame memory. Returns the
/// frame's size in bytes.
///
/// # Errors
///
/// Same as [`encode_frame`].
pub fn encode_frame_into(
    msg: &Msg,
    out: &mut Vec<u8>,
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    begin_frame(out, msg.kind());
    match msg {
        Msg::Hello {
            client_id,
            state_len,
            num_samples,
            resume,
        } => {
            out.put_u64_le(*client_id);
            out.put_u64_le(*state_len);
            out.put_u64_le(*num_samples);
            match resume {
                Some(round) => {
                    out.put_slice(&[1]);
                    out.put_u64_le(*round);
                }
                None => out.put_slice(&[0]),
            }
        }
        Msg::Capabilities {
            max_payload,
            state_len,
            agg_mode,
            agg_param,
        } => {
            out.put_u64_le(*max_payload);
            out.put_u64_le(*state_len);
            out.put_slice(&[*agg_mode]);
            out.put_u64_le(*agg_param);
        }
        Msg::RoundAssign {
            mode,
            round,
            seed,
            nonce,
            cfg,
            global,
        } => {
            put_round_assign_payload(out, *mode, *round, *seed, *nonce, cfg, global);
        }
        Msg::Update {
            round,
            client_id,
            weight,
            nonce,
            state,
        }
        | Msg::UnlearnResult {
            round,
            client_id,
            weight,
            nonce,
            state,
        } => {
            let head = UpdateHeader {
                round: *round,
                client_id: *client_id,
                weight: *weight,
                nonce: *nonce,
                distill: matches!(msg, Msg::UnlearnResult { .. }),
            };
            put_update_payload(out, &head, state.len(), |out| {
                serialize::f32s_write_le(out, state)
            });
        }
        Msg::UnlearnAssign {
            job,
            removed,
            teacher,
        } => {
            put_job(out, job)?;
            out.put_u32_le(removed.len() as u32);
            for &r in removed {
                out.put_u64_le(r);
            }
            put_f32s(out, teacher);
        }
        Msg::Eval {
            round,
            accuracy,
            mse,
            global,
        } => {
            out.put_u64_le(*round);
            put_f64(out, *accuracy);
            put_f64(out, *mse);
            put_f32s(out, global);
        }
        Msg::Err { code, detail } => {
            out.put_u16_le(*code);
            let b = detail.as_bytes();
            out.put_u32_le(b.len() as u32);
            out.put_slice(b);
        }
        Msg::Ack => {}
        Msg::Digest { round, digest } => {
            out.put_u64_le(*round);
            out.put_slice(digest);
        }
        Msg::UnlearnAck { num_samples } => {
            out.put_u64_le(*num_samples);
        }
        Msg::Shutdown => {}
    }
    finish_frame(out, limits)
}

/// An `Update`/`UnlearnResult` payload: the fixed fields of `head`, the
/// float count, then the `floats` floats `put_floats` appends.
///
/// # Panics
///
/// Panics if `put_floats` appends other than `4 · floats` bytes: the
/// frame would announce a vector it does not carry.
fn put_update_payload(
    out: &mut Vec<u8>,
    head: &UpdateHeader,
    floats: usize,
    put_floats: impl FnOnce(&mut Vec<u8>),
) {
    out.put_u64_le(head.round);
    out.put_u64_le(head.client_id);
    out.put_u64_le(head.weight);
    out.put_u64_le(head.nonce);
    out.put_u64_le(floats as u64);
    let start = out.len();
    put_floats(out);
    assert_eq!(out.len() - start, 4 * floats, "update floats");
}

/// Encodes an `Update` (an `UnlearnResult` when `head.distill`) frame
/// from borrowed fields, its `floats` floats appended straight into `out`
/// by `put_floats` — a worker writes its network's state there
/// ([`goldfish_fed::trainer::TrainLane::append_state_le`]) without an
/// intermediate vector. Byte-for-byte identical to
/// `encode_frame(&Msg::Update { .. })` of the same floats.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `limits`.
pub(crate) fn encode_update_into(
    out: &mut Vec<u8>,
    head: &UpdateHeader,
    floats: usize,
    put_floats: impl FnOnce(&mut Vec<u8>),
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    let kind = if head.distill {
        kind::UNLEARN_RESULT
    } else {
        kind::UPDATE
    };
    begin_frame(out, kind);
    put_update_payload(out, head, floats, put_floats);
    finish_frame(out, limits)
}

fn put_round_assign_payload(
    out: &mut Vec<u8>,
    mode: RoundMode,
    round: u64,
    seed: u64,
    nonce: u64,
    cfg: &TrainConfig,
    global: &[f32],
) {
    out.put_slice(&[match mode {
        RoundMode::Train => 0,
        RoundMode::Distill => 1,
    }]);
    out.put_u64_le(round);
    out.put_u64_le(seed);
    out.put_u64_le(nonce);
    put_train_config(out, cfg);
    put_f32s(out, global);
}

/// Encodes a `RoundAssign` frame straight from borrowed fields — no
/// intermediate [`Msg`], no clone of the (large) global state. This is
/// the encode-once broadcast path: the coordinator builds the frame a
/// single time per round in a reused buffer and writes the same bytes to
/// every connection. Byte-for-byte identical to
/// `encode_frame(&Msg::RoundAssign { .. })`.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `limits`.
// The parameter list mirrors the wire layout field-for-field; bundling
// them into a struct would just re-introduce the intermediate `Msg`.
#[allow(clippy::too_many_arguments)]
pub fn encode_round_assign_into(
    out: &mut Vec<u8>,
    mode: RoundMode,
    round: u64,
    seed: u64,
    nonce: u64,
    cfg: &TrainConfig,
    global: &[f32],
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    begin_frame(out, kind::ROUND_ASSIGN);
    put_round_assign_payload(out, mode, round, seed, nonce, cfg, global);
    finish_frame(out, limits)
}

/// Encodes an `Eval` request frame from borrowed fields (zeroed metrics,
/// the state to evaluate) — the broadcast form of the local-evaluation
/// exchange. Byte-identical to the [`Msg::Eval`] request encoding.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `limits`.
pub(crate) fn encode_eval_request_into(
    out: &mut Vec<u8>,
    round: u64,
    global: &[f32],
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    begin_frame(out, kind::EVAL);
    out.put_u64_le(round);
    put_f64(out, 0.0);
    put_f64(out, 0.0);
    put_f32s(out, global);
    finish_frame(out, limits)
}

/// Encodes an `UnlearnAssign` frame from borrowed fields — per-client
/// frames differ only in the (tiny) removed-index list, so the fan-out
/// encodes each without ever cloning the (large) teacher state.
/// Byte-identical to the [`Msg::UnlearnAssign`] encoding.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] / [`WireError::Malformed`] as for
/// [`encode_frame`].
pub(crate) fn encode_unlearn_assign_into(
    out: &mut Vec<u8>,
    job: &UnlearnJob,
    removed: &[usize],
    teacher: &[f32],
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    begin_frame(out, kind::UNLEARN_ASSIGN);
    put_job(out, job)?;
    out.put_u32_le(removed.len() as u32);
    for &r in removed {
        out.put_u64_le(r as u64);
    }
    put_f32s(out, teacher);
    finish_frame(out, limits)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// Payloads decode through `codec::Reader`, the cursor behind every state-dir
// format, borrowing the payload slice. Running short of a field is
// `Truncated`; a bad tag, bad UTF-8 or an `f32` vector the payload cannot
// hold is `Malformed`.

/// An optional `f32`: a `0`/`1` tag, then the value when present.
fn opt_f32(r: &mut Reader<'_>) -> Result<Option<f32>, WireError> {
    match r.u8().ok_or(WireError::Truncated)? {
        0 => Ok(None),
        1 => Ok(Some(r.f32().ok_or(WireError::Truncated)?)),
        t => Err(WireError::Malformed(format!("bad option tag {t}"))),
    }
}

/// A `u32`-length-prefixed UTF-8 string.
fn string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let n = r.u32().ok_or(WireError::Truncated)? as usize;
    let raw = r.take(n).ok_or(WireError::Truncated)?;
    String::from_utf8(raw.to_vec()).map_err(|e| WireError::Malformed(format!("bad utf-8: {e}")))
}

/// The trailing `f32` vector (the bulk-codec segment).
fn f32s(r: &mut Reader<'_>) -> Result<Vec<f32>, WireError> {
    r.f32s().ok_or_else(f32s_overrun)
}

fn f32s_overrun() -> WireError {
    WireError::Malformed("f32 vector longer than its payload".into())
}

fn read_train_config(r: &mut Reader<'_>) -> Result<TrainConfig, WireError> {
    let cfg = TrainConfig {
        local_epochs: r.u64().ok_or(WireError::Truncated)? as usize,
        batch_size: r.u64().ok_or(WireError::Truncated)? as usize,
        lr: r.f32().ok_or(WireError::Truncated)?,
        momentum: r.f32().ok_or(WireError::Truncated)?,
    };
    // The trainer chunks each epoch by `batch_size`; a hostile zero must
    // surface as a typed error here, never as a worker panic there.
    if cfg.batch_size == 0 {
        return Err(WireError::Malformed("train config batch size 0".into()));
    }
    Ok(cfg)
}

fn read_job(r: &mut Reader<'_>) -> Result<UnlearnJob, WireError> {
    let epochs = r.u64().ok_or(WireError::Truncated)? as usize;
    let batch_size = r.u64().ok_or(WireError::Truncated)? as usize;
    let lr = r.f32().ok_or(WireError::Truncated)?;
    let momentum = r.f32().ok_or(WireError::Truncated)?;
    let weights = LossWeights {
        mu_c: r.f32().ok_or(WireError::Truncated)?,
        mu_d: r.f32().ok_or(WireError::Truncated)?,
        temperature: r.f32().ok_or(WireError::Truncated)?,
    };
    let adaptive_temperature = match r.u8().ok_or(WireError::Truncated)? {
        0 => None,
        1 => Some(AdaptiveTemperature {
            t0: r.f32().ok_or(WireError::Truncated)?,
            alpha: r.f32().ok_or(WireError::Truncated)?,
        }),
        t => return Err(WireError::Malformed(format!("bad option tag {t}"))),
    };
    let early_termination = opt_f32(r)?;
    let grad_clip = opt_f32(r)?;
    let hard = match r.u8().ok_or(WireError::Truncated)? {
        0 => HardLossSpec::CrossEntropy,
        1 => {
            // `Focal::new` asserts γ ≥ 0; a hostile frame must surface
            // as a typed error here, never as a worker panic there.
            let gamma = r.f32().ok_or(WireError::Truncated)?;
            if !gamma.is_finite() || gamma < 0.0 {
                return Err(WireError::Malformed(format!(
                    "focal gamma {gamma} is not a finite non-negative value"
                )));
            }
            HardLossSpec::Focal { gamma }
        }
        2 => HardLossSpec::Nll,
        t => return Err(WireError::Malformed(format!("bad hard-loss tag {t}"))),
    };
    Ok(UnlearnJob {
        local: GoldfishLocalConfig {
            epochs,
            batch_size,
            lr,
            momentum,
            weights,
            adaptive_temperature,
            early_termination,
            grad_clip,
        },
        hard: Some(hard),
    })
}

/// A `RoundAssign` payload read in place: the fixed fields decoded, the
/// global state left as the payload's little-endian float bytes — how a
/// worker reads every round assignment (a training round installs the
/// bytes straight into its network,
/// [`goldfish_fed::trainer::TrainLane::run_le`]). [`decode_msg`] reads
/// every `RoundAssign` through it, so the layout and its checks are
/// written once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundAssignRef<'a> {
    pub(crate) mode: RoundMode,
    pub(crate) round: u64,
    pub(crate) seed: u64,
    pub(crate) nonce: u64,
    pub(crate) cfg: TrainConfig,
    /// The global state's floats, `4` bytes each, all inside the payload.
    pub(crate) global: &'a [u8],
}

impl RoundAssignRef<'_> {
    /// The owned message, its floats decoded.
    pub(crate) fn to_msg(self) -> Msg {
        let mut global = vec![0.0; self.global.len() / 4];
        serialize::f32s_read_le(self.global, &mut global);
        Msg::RoundAssign {
            mode: self.mode,
            round: self.round,
            seed: self.seed,
            nonce: self.nonce,
            cfg: self.cfg,
            global,
        }
    }
}

/// Reads a `RoundAssign` payload without decoding its floats.
///
/// # Errors
///
/// What [`decode_msg`] reports for the payload: [`WireError::Truncated`]
/// short of a fixed field, [`WireError::Malformed`] for a bad mode tag, a
/// zero batch size or a float count the payload cannot hold.
pub(crate) fn read_round_assign(payload: &[u8]) -> Result<RoundAssignRef<'_>, WireError> {
    let mut r = Reader { b: payload };
    let mode = match r.u8().ok_or(WireError::Truncated)? {
        0 => RoundMode::Train,
        1 => RoundMode::Distill,
        t => return Err(WireError::Malformed(format!("bad round mode {t}"))),
    };
    Ok(RoundAssignRef {
        mode,
        round: r.u64().ok_or(WireError::Truncated)?,
        seed: r.u64().ok_or(WireError::Truncated)?,
        nonce: r.u64().ok_or(WireError::Truncated)?,
        cfg: read_train_config(&mut r)?,
        global: r.f32_bytes().ok_or_else(f32s_overrun)?,
    })
}

/// A parsed `Update`/`UnlearnResult` header, the fixed-size fields in
/// front of the state vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateHeader {
    /// Echoed round index.
    pub round: u64,
    /// The uploading client.
    pub client_id: u64,
    /// Aggregation weight (local sample count).
    pub weight: u64,
    /// Echoed round nonce (checked by the admission layer).
    pub nonce: u64,
    /// Whether the frame was an `UnlearnResult` (distillation round)
    /// rather than a plain `Update`.
    pub distill: bool,
}

/// Decodes an `Update`/`UnlearnResult` payload with the state vector
/// written straight into a caller-owned (pooled) buffer — the transport
/// hot path, which never materialises a [`Msg`]. This is
/// [`UpdateDecoder`] fed the whole payload at once.
///
/// # Errors
///
/// [`WireError::UnknownKind`] for non-update kinds, otherwise the usual
/// payload errors.
pub fn decode_update_into(
    kind: u8,
    payload: &[u8],
    state: &mut Vec<f32>,
) -> Result<UpdateHeader, WireError> {
    let mut decoder = UpdateDecoder::new(kind, payload.len())?;
    decoder.take(payload, state)?;
    Ok(decoder.header())
}

/// Bytes of an update payload in front of its floats: round, client id,
/// weight, nonce and the float count, each a little-endian `u64`.
const UPDATE_HEAD: usize = 40;

/// An `Update`/`UnlearnResult` payload decoded as its bytes arrive, in
/// any split: the fixed fields into a 40-byte header, then every float
/// straight into the caller's state buffer — so a reader needs no
/// payload-sized byte buffer. As with the whole-frame decode, bytes past
/// the announced floats are ignored.
#[derive(Debug, Clone)]
pub struct UpdateDecoder {
    distill: bool,
    head: [u8; UPDATE_HEAD],
    /// The payload's length and the bytes of it taken so far.
    len: usize,
    got: usize,
    /// The floats the header announces.
    floats: usize,
    /// A float split across two pieces.
    carry: [u8; 4],
    carry_len: usize,
}

impl UpdateDecoder {
    /// Starts decoding a `len`-byte payload of `kind`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownKind`] for non-update kinds,
    /// [`WireError::Truncated`] when `len` cannot hold the fixed fields.
    pub fn new(kind: u8, len: usize) -> Result<UpdateDecoder, WireError> {
        if kind != self::kind::UPDATE && kind != self::kind::UNLEARN_RESULT {
            return Err(WireError::UnknownKind(kind));
        }
        if len < UPDATE_HEAD {
            return Err(WireError::Truncated);
        }
        Ok(UpdateDecoder {
            distill: kind == self::kind::UNLEARN_RESULT,
            head: [0; UPDATE_HEAD],
            len,
            got: 0,
            floats: 0,
            carry: [0; 4],
            carry_len: 0,
        })
    }

    /// Takes the next piece of the payload; the floats land in `state`
    /// (cleared once the header is in, capacity reused).
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the float count does not fit the
    /// payload, or for bytes past its length.
    pub fn take(&mut self, mut bytes: &[u8], state: &mut Vec<f32>) -> Result<(), WireError> {
        if bytes.len() > self.len - self.got {
            return Err(WireError::Malformed(format!(
                "update payload longer than its {} bytes",
                self.len
            )));
        }
        if self.got < UPDATE_HEAD {
            let k = (UPDATE_HEAD - self.got).min(bytes.len());
            self.head[self.got..self.got + k].copy_from_slice(&bytes[..k]);
            self.got += k;
            bytes = &bytes[k..];
            if self.got < UPDATE_HEAD {
                return Ok(());
            }
            let floats = self.field(4);
            let room = (self.len - UPDATE_HEAD) / 4;
            if floats > room as u64 {
                return Err(WireError::Malformed(format!(
                    "f32 vector: param payload truncated: need {floats} floats, have {} bytes",
                    self.len - UPDATE_HEAD
                )));
            }
            self.floats = floats as usize;
            state.clear();
            state.reserve(self.floats);
        }
        self.got += bytes.len();
        while state.len() < self.floats && !bytes.is_empty() {
            if self.carry_len > 0 || bytes.len() < 4 {
                let k = (4 - self.carry_len).min(bytes.len());
                self.carry[self.carry_len..self.carry_len + k].copy_from_slice(&bytes[..k]);
                self.carry_len += k;
                bytes = &bytes[k..];
                if self.carry_len == 4 {
                    state.push(f32::from_le_bytes(self.carry));
                    self.carry_len = 0;
                }
                continue;
            }
            let whole = (bytes.len() / 4).min(self.floats - state.len());
            let (floats, rest) = bytes.split_at(4 * whole);
            state.extend(
                floats
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
            );
            bytes = rest;
        }
        Ok(())
    }

    /// The fixed fields. Meaningful once the first 40 bytes were taken.
    pub fn header(&self) -> UpdateHeader {
        UpdateHeader {
            round: self.field(0),
            client_id: self.field(1),
            weight: self.field(2),
            nonce: self.field(3),
            distill: self.distill,
        }
    }

    /// The `i`-th little-endian `u64` of the header.
    fn field(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.head[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    }
}

/// Decodes a payload of the given kind into a [`Msg`] (the body of
/// [`decode_frame`], exposed for transports that read frames through
/// pooled buffers). Bytes past the last field are ignored.
///
/// # Errors
///
/// Any payload-level [`WireError`].
pub(crate) fn decode_msg(k: u8, payload: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader { b: payload };
    match k {
        kind::HELLO => {
            let client_id = r.u64().ok_or(WireError::Truncated)?;
            let state_len = r.u64().ok_or(WireError::Truncated)?;
            let num_samples = r.u64().ok_or(WireError::Truncated)?;
            let resume = match r.u8().ok_or(WireError::Truncated)? {
                0 => None,
                1 => Some(r.u64().ok_or(WireError::Truncated)?),
                t => return Err(WireError::Malformed(format!("bad resume tag {t}"))),
            };
            Ok(Msg::Hello {
                client_id,
                state_len,
                num_samples,
                resume,
            })
        }
        kind::CAPABILITIES => Ok(Msg::Capabilities {
            max_payload: r.u64().ok_or(WireError::Truncated)?,
            state_len: r.u64().ok_or(WireError::Truncated)?,
            agg_mode: r.u8().ok_or(WireError::Truncated)?,
            agg_param: r.u64().ok_or(WireError::Truncated)?,
        }),
        kind::ROUND_ASSIGN => Ok(read_round_assign(payload)?.to_msg()),
        kind::UPDATE | kind::UNLEARN_RESULT => {
            let round = r.u64().ok_or(WireError::Truncated)?;
            let client_id = r.u64().ok_or(WireError::Truncated)?;
            let weight = r.u64().ok_or(WireError::Truncated)?;
            let nonce = r.u64().ok_or(WireError::Truncated)?;
            let state = f32s(&mut r)?;
            Ok(if k == kind::UPDATE {
                Msg::Update {
                    round,
                    client_id,
                    weight,
                    nonce,
                    state,
                }
            } else {
                Msg::UnlearnResult {
                    round,
                    client_id,
                    weight,
                    nonce,
                    state,
                }
            })
        }
        kind::UNLEARN_ASSIGN => Ok(Msg::UnlearnAssign {
            job: read_job(&mut r)?,
            // `rows` checks the announced count against the bytes
            // present before it allocates for them.
            removed: r.rows().ok_or(WireError::Truncated)?,
            teacher: f32s(&mut r)?,
        }),
        kind::EVAL => Ok(Msg::Eval {
            round: r.u64().ok_or(WireError::Truncated)?,
            accuracy: r.f64().ok_or(WireError::Truncated)?,
            mse: r.f64().ok_or(WireError::Truncated)?,
            global: f32s(&mut r)?,
        }),
        kind::ERR => Ok(Msg::Err {
            code: r.u16().ok_or(WireError::Truncated)?,
            detail: string(&mut r)?,
        }),
        kind::ACK => Ok(Msg::Ack),
        kind::DIGEST => Ok(Msg::Digest {
            round: r.u64().ok_or(WireError::Truncated)?,
            digest: r.array().ok_or(WireError::Truncated)?,
        }),
        kind::UNLEARN_ACK => Ok(Msg::UnlearnAck {
            num_samples: r.u64().ok_or(WireError::Truncated)?,
        }),
        kind::SHUTDOWN => Ok(Msg::Shutdown),
        other => Err(WireError::UnknownKind(other)),
    }
}

/// Parses the 10-byte frame header, validating magic, version, and the
/// length prefix against `limits`. Returns `(kind, payload_len)`.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`] or [`WireError::FrameTooLarge`].
pub(crate) fn decode_header(header: &[u8], limits: &FrameLimits) -> Result<(u8, usize), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if header[0..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[0..4]);
        return Err(WireError::BadMagic { got });
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion { got: header[4] });
    }
    let kind = header[5];
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if len > limits.max_payload {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: limits.max_payload,
        });
    }
    Ok((kind, len))
}

/// Decodes one complete frame from `buf`, returning the message and the
/// bytes consumed.
///
/// # Errors
///
/// Any [`WireError`]; [`WireError::Truncated`] when `buf` ends before
/// the announced payload does.
pub fn decode_frame(buf: &[u8], limits: &FrameLimits) -> Result<(Msg, usize), WireError> {
    let (kind, len) = decode_header(buf, limits)?;
    if buf.len() < HEADER_LEN + len {
        return Err(WireError::Truncated);
    }
    // The payload is decoded in place — no copy into an owned buffer.
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    Ok((decode_msg(kind, payload)?, HEADER_LEN + len))
}

/// Writes `msg` as one frame to `w` and returns the frame's size in
/// bytes.
///
/// # Errors
///
/// Encoding errors plus [`WireError::Io`] from the writer.
pub fn write_frame(
    w: &mut impl std::io::Write,
    msg: &Msg,
    limits: &FrameLimits,
) -> Result<usize, WireError> {
    let frame = encode_frame(msg, limits)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one frame from `r` (blocking until a full frame or an error)
/// and returns the message plus the frame's size in bytes.
///
/// # Errors
///
/// Any [`WireError`]; a clean EOF before the first header byte is
/// reported as [`WireError::Io`] with
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame(
    r: &mut impl std::io::Read,
    limits: &FrameLimits,
) -> Result<(Msg, usize), WireError> {
    let mut payload = Vec::new();
    let (kind, frame_len) = read_raw_frame(r, &mut payload, limits)?;
    Ok((decode_msg(kind, &payload)?, frame_len))
}

/// Reads one frame from `r` into a caller-owned (pooled) payload buffer
/// without decoding it: `buf` is resized to the announced payload length
/// (reusing its capacity — a steady-state connection never reallocates)
/// and filled. Returns `(kind, frame size in bytes)`. This is the
/// non-blocking reader ([`crate::nio::FrameReadState`]) run to a complete
/// frame, so both read a frame's header, limits and EOFs the same way.
///
/// # Errors
///
/// Same as [`read_frame`]; an EOF **after** the first header byte (the
/// peer died inside a frame) is reported as
/// [`WireError::DisconnectedMidFrame`] rather than the generic I/O
/// error a clean between-frames close produces. A read timeout on a
/// blocking socket (or a non-blocking reader with nothing ready) ends the
/// read as [`WireError::Io`] of kind
/// [`std::io::ErrorKind::WouldBlock`], the partial frame dropped.
pub(crate) fn read_raw_frame(
    r: &mut impl std::io::Read,
    buf: &mut Vec<u8>,
    limits: &FrameLimits,
) -> Result<(u8, usize), WireError> {
    FrameReadState::new()
        .poll(r, buf, limits)?
        .ok_or_else(|| WireError::Io {
            kind: std::io::ErrorKind::WouldBlock,
            detail: "read timed out before the frame was complete".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let limits = FrameLimits::default();
        let frame = encode_frame(&msg, &limits).unwrap();
        let (back, used) = decode_frame(&frame, &limits).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Msg::Hello {
            client_id: 3,
            state_len: 1234,
            num_samples: 300,
            resume: None,
        });
        roundtrip(Msg::Hello {
            client_id: 3,
            state_len: 1234,
            num_samples: 292,
            resume: Some(17),
        });
        roundtrip(Msg::Capabilities {
            max_payload: 1 << 20,
            state_len: 1234,
            agg_mode: 1,
            agg_param: 2,
        });
        roundtrip(Msg::RoundAssign {
            mode: RoundMode::Train,
            round: 7,
            seed: 42,
            nonce: 0xABCD_EF01_2345_6789,
            cfg: TrainConfig::default(),
            global: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0],
        });
        roundtrip(Msg::Update {
            round: 7,
            client_id: 1,
            weight: 250,
            nonce: 99,
            state: vec![0.125; 33],
        });
        roundtrip(Msg::UnlearnAssign {
            job: UnlearnJob {
                local: GoldfishLocalConfig::default(),
                hard: Some(HardLossSpec::Focal { gamma: 2.0 }),
            },
            removed: vec![0, 5, 17],
            teacher: vec![-1.0; 9],
        });
        roundtrip(Msg::UnlearnResult {
            round: 0,
            client_id: 2,
            weight: 100,
            nonce: 7,
            state: vec![],
        });
        roundtrip(Msg::Eval {
            round: 3,
            accuracy: 0.875,
            mse: 0.023,
            global: vec![1.5; 4],
        });
        roundtrip(Msg::Err {
            code: err_code::BAD_STATE_LEN,
            detail: "want 10, got 12".into(),
        });
        roundtrip(Msg::Ack);
        let mut digest = [0u8; 32];
        for (i, b) in digest.iter_mut().enumerate() {
            *b = i as u8;
        }
        roundtrip(Msg::Digest { round: 11, digest });
        roundtrip(Msg::UnlearnAck { num_samples: 54 });
        roundtrip(Msg::Shutdown);
    }

    #[test]
    fn header_rejections_are_typed() {
        let limits = FrameLimits::default();
        let msg = Msg::Hello {
            client_id: 0,
            state_len: 1,
            num_samples: 1,
            resume: None,
        };
        let mut frame = encode_frame(&msg, &limits).unwrap();

        assert_eq!(
            decode_frame(&frame[..5], &limits),
            Err(WireError::Truncated)
        );

        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad, &limits),
            Err(WireError::BadMagic { .. })
        ));

        let mut bad = frame.clone();
        bad[4] = 99;
        assert_eq!(
            decode_frame(&bad, &limits),
            Err(WireError::UnsupportedVersion { got: 99 })
        );

        // 13 and 14 are protocol v4's retired shard frames.
        for kind in [13, 14, 200] {
            let mut bad = frame.clone();
            bad[5] = kind;
            assert_eq!(
                decode_frame(&bad, &limits),
                Err(WireError::UnknownKind(kind))
            );
        }

        // Oversized length prefix.
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, &FrameLimits { max_payload: 1024 }),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let limits = FrameLimits::default();
        let frame = encode_frame(
            &Msg::Update {
                round: 1,
                client_id: 0,
                weight: 10,
                nonce: 0,
                state: vec![3.0; 100],
            },
            &limits,
        )
        .unwrap();
        for cut in [frame.len() - 1, frame.len() - 37, HEADER_LEN + 3] {
            assert_eq!(
                decode_frame(&frame[..cut], &limits),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_encode_is_rejected() {
        let tiny = FrameLimits { max_payload: 16 };
        let err = encode_frame(
            &Msg::Update {
                round: 0,
                client_id: 0,
                weight: 0,
                nonce: 0,
                state: vec![0.0; 64],
            },
            &tiny,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
    }

    #[test]
    fn custom_loss_cannot_encode() {
        let err = encode_frame(
            &Msg::UnlearnAssign {
                job: UnlearnJob {
                    local: GoldfishLocalConfig::default(),
                    hard: None,
                },
                removed: vec![],
                teacher: vec![],
            },
            &FrameLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn borrowed_encoders_match_msg_encoding_byte_for_byte() {
        let limits = FrameLimits::default();
        let global: Vec<f32> = (0..1234).map(|i| (i as f32 * 0.11).sin()).collect();
        let cfg = TrainConfig::default();

        let mut buf = Vec::new();
        for (mode, round, seed) in [(RoundMode::Train, 3u64, 9u64), (RoundMode::Distill, 0, 42)] {
            let nonce = seed ^ 0x5A5A;
            let n = encode_round_assign_into(
                &mut buf, mode, round, seed, nonce, &cfg, &global, &limits,
            )
            .unwrap();
            let via_msg = encode_frame(
                &Msg::RoundAssign {
                    mode,
                    round,
                    seed,
                    nonce,
                    cfg,
                    global: global.clone(),
                },
                &limits,
            )
            .unwrap();
            assert_eq!(buf, via_msg);
            assert_eq!(n, via_msg.len());
            // Read back in place: the fixed fields, and the float run the
            // encoder wrote.
            let assign = read_round_assign(&buf[HEADER_LEN..]).unwrap();
            assert_eq!(
                (assign.mode, assign.round, assign.seed),
                (mode, round, seed)
            );
            assert_eq!((assign.nonce, assign.cfg), (nonce, cfg));
            assert_eq!(assign.global, &buf[HEADER_LEN + 57..]);
        }

        for distill in [false, true] {
            let head = UpdateHeader {
                round: 4,
                client_id: 17,
                weight: 40,
                nonce: 0xBEEF,
                distill,
            };
            let put = |out: &mut Vec<u8>| serialize::f32s_write_le(out, &global);
            let n = encode_update_into(&mut buf, &head, global.len(), put, &limits).unwrap();
            let (round, client_id, weight, nonce, state) = (4, 17, 40, 0xBEEF, global.clone());
            let msg = if distill {
                Msg::UnlearnResult {
                    round,
                    client_id,
                    weight,
                    nonce,
                    state,
                }
            } else {
                Msg::Update {
                    round,
                    client_id,
                    weight,
                    nonce,
                    state,
                }
            };
            let via_msg = encode_frame(&msg, &limits).unwrap();
            assert_eq!(buf, via_msg);
            assert_eq!(n, via_msg.len());
        }

        let n = encode_eval_request_into(&mut buf, 7, &global, &limits).unwrap();
        let via_msg = encode_frame(
            &Msg::Eval {
                round: 7,
                accuracy: 0.0,
                mse: 0.0,
                global: global.clone(),
            },
            &limits,
        )
        .unwrap();
        assert_eq!(buf, via_msg);
        assert_eq!(n, via_msg.len());

        let job = UnlearnJob {
            local: GoldfishLocalConfig::default(),
            hard: Some(HardLossSpec::Focal { gamma: 1.5 }),
        };
        let removed = vec![2usize, 9, 31];
        let n = encode_unlearn_assign_into(&mut buf, &job, &removed, &global, &limits).unwrap();
        let via_msg = encode_frame(
            &Msg::UnlearnAssign {
                job,
                removed: removed.iter().map(|&i| i as u64).collect(),
                teacher: global.clone(),
            },
            &limits,
        )
        .unwrap();
        assert_eq!(buf, via_msg);
        assert_eq!(n, via_msg.len());
    }

    #[test]
    fn pooled_update_decode_matches_msg_decode() {
        let limits = FrameLimits::default();
        let state: Vec<f32> = (0..513).map(|i| i as f32 * -0.25).collect();
        for distill in [false, true] {
            let msg = if distill {
                Msg::UnlearnResult {
                    round: 5,
                    client_id: 3,
                    weight: 99,
                    nonce: 0xFEED,
                    state: state.clone(),
                }
            } else {
                Msg::Update {
                    round: 5,
                    client_id: 3,
                    weight: 99,
                    nonce: 0xFEED,
                    state: state.clone(),
                }
            };
            let frame = encode_frame(&msg, &limits).unwrap();
            let (kind, len) = decode_header(&frame, &limits).unwrap();
            let mut pooled = vec![0.0f32; 7]; // wrong size on purpose; resized
            let header =
                decode_update_into(kind, &frame[HEADER_LEN..HEADER_LEN + len], &mut pooled)
                    .unwrap();
            assert_eq!(
                header,
                UpdateHeader {
                    round: 5,
                    client_id: 3,
                    weight: 99,
                    nonce: 0xFEED,
                    distill,
                }
            );
            assert_eq!(pooled, state);
        }
        // Non-update kinds are typed rejections.
        let frame = encode_frame(&Msg::Ack, &limits).unwrap();
        let (kind, _) = decode_header(&frame, &limits).unwrap();
        assert_eq!(
            decode_update_into(kind, &[], &mut Vec::new()),
            Err(WireError::UnknownKind(9))
        );
    }

    #[test]
    fn update_decoder_rejects_what_the_payload_cannot_hold() {
        let limits = FrameLimits::default();
        let msg = Msg::Update {
            round: 1,
            client_id: 2,
            weight: 30,
            nonce: 4,
            state: vec![1.5; 8],
        };
        let frame = encode_frame(&msg, &limits).unwrap();
        let payload = &frame[HEADER_LEN..];
        assert_eq!(
            UpdateDecoder::new(kind::UPDATE, 39).unwrap_err(),
            WireError::Truncated
        );
        // A float count the payload has no room for.
        let mut hostile = payload.to_vec();
        hostile[32..40].copy_from_slice(&9u64.to_le_bytes());
        let mut d = UpdateDecoder::new(kind::UPDATE, hostile.len()).unwrap();
        assert!(matches!(
            d.take(&hostile, &mut Vec::new()),
            Err(WireError::Malformed(_))
        ));
        // Bytes past the announced length.
        let mut d = UpdateDecoder::new(kind::UPDATE, payload.len() - 1).unwrap();
        assert!(matches!(
            d.take(payload, &mut Vec::new()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn raw_frame_reads_reuse_the_buffer() {
        let limits = FrameLimits::default();
        let msg = Msg::Update {
            round: 1,
            client_id: 2,
            weight: 30,
            nonce: 4,
            state: vec![1.5; 64],
        };
        let frame = encode_frame(&msg, &limits).unwrap();
        let mut buf = Vec::new();
        let (kind, n) = read_raw_frame(&mut frame.as_slice(), &mut buf, &limits).unwrap();
        assert_eq!((kind, n), (4, frame.len()));
        assert_eq!(&buf[..], &frame[HEADER_LEN..]);
        let cap = buf.capacity();
        let (kind, n2) = read_raw_frame(&mut frame.as_slice(), &mut buf, &limits).unwrap();
        assert_eq!(decode_msg(kind, &buf).unwrap(), msg);
        assert_eq!(n2, frame.len());
        assert_eq!(buf.capacity(), cap, "payload buffer was reallocated");
    }

    #[test]
    fn eof_between_frames_vs_mid_frame_is_distinguished() {
        let limits = FrameLimits::default();
        let msg = Msg::Update {
            round: 1,
            client_id: 2,
            weight: 30,
            nonce: 4,
            state: vec![1.5; 16],
        };
        let frame = encode_frame(&msg, &limits).unwrap();
        let mut buf = Vec::new();

        // Clean close before any byte: generic UnexpectedEof.
        match read_raw_frame(&mut (&[] as &[u8]), &mut buf, &limits) {
            Err(WireError::Io { kind, .. }) => {
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("got {other:?}"),
        }

        // Close inside the header and inside the payload: typed
        // mid-frame disconnect.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 1, frame.len() - 1] {
            match read_raw_frame(&mut &frame[..cut], &mut buf, &limits) {
                Err(WireError::DisconnectedMidFrame { want, .. }) => {
                    assert!(want > cut.min(HEADER_LEN), "cut at {cut}")
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    /// A blocking read whose socket timeout fires inside a frame — in
    /// the header or in the payload — ends as an `Io` error of kind
    /// `WouldBlock`, never as a frame or a disconnect.
    #[test]
    fn a_read_timeout_inside_a_frame_is_would_block() {
        /// Serves its bytes, then reports a timeout.
        struct TimesOut<'a>(&'a [u8]);
        impl std::io::Read for TimesOut<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = out.len().min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let limits = FrameLimits::default();
        let frame = encode_frame(
            &Msg::Digest {
                round: 3,
                digest: [9; 32],
            },
            &limits,
        )
        .unwrap();
        let mut buf = Vec::new();
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 5,
            frame.len() - 1,
        ] {
            match read_raw_frame(&mut TimesOut(&frame[..cut]), &mut buf, &limits) {
                Err(WireError::Io { kind, .. }) => {
                    assert_eq!(kind, std::io::ErrorKind::WouldBlock, "cut at {cut}")
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
        let (kind, n) = read_raw_frame(&mut TimesOut(&frame), &mut buf, &limits).unwrap();
        assert_eq!((kind, n), (kind::DIGEST, frame.len()));
    }

    #[test]
    fn stream_io_roundtrip() {
        let limits = FrameLimits::default();
        let msg = Msg::Eval {
            round: 9,
            accuracy: 1.0,
            mse: 0.0,
            global: vec![2.0; 7],
        };
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &msg, &limits).unwrap();
        let (back, read) = read_frame(&mut buf.as_slice(), &limits).unwrap();
        assert_eq!(wrote, read);
        assert_eq!(back, msg);
    }
}
