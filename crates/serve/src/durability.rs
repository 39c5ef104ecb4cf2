//! Crash-safe coordinator state: checkpoints + write-ahead log
//! (DESIGN.md §12).
//!
//! Two files plus the audit log live in the coordinator's state
//! directory:
//!
//! * `checkpoint-<serial>.gfck` — a full snapshot of the durable
//!   coordinator state (global model, round cursor, pending queue,
//!   drain counters, audit-chain position), versioned and SHA-256
//!   checksummed, written to a temp file, fsync'd and atomically
//!   renamed. The last **two** checkpoints are kept: if the newest is
//!   torn or corrupt, recovery falls back to the previous one.
//!   A commit streams the file: [`Checkpoint::encode_with`] encodes
//!   from borrowed state into one state-sized buffer and spills it —
//!   hashed, then written — after every shard state, so a shard-mode
//!   commit holds one shard state's encoding, not a copy of the map.
//! * `queue.wal` — the submit write-ahead log. Every accepted deletion
//!   request is appended and fsync'd **before** the submit call
//!   returns, so an acknowledged request survives any crash. Records
//!   carry a monotone sequence number and their own SHA-256; recovery
//!   replays every record newer than the loaded checkpoint through the
//!   queue's normal merge logic.
//!
//! ## Recovery invariant
//!
//! A checkpoint is written after **every** completed training round and
//! after every committed drain (audit append happens first, checkpoint
//! second — the checkpoint *is* the drain's commit record). Restarting
//! from `(checkpoint, WAL tail, truncated audit)` therefore lands the
//! coordinator exactly between two schedule steps of
//! [`crate::coordinator::Coordinator::run`], and re-running the
//! remaining steps with the same base seed reproduces the uninterrupted
//! round stream bitwise (pinned by `tests/crash_recovery.rs`).

use crate::audit::{AuditEntry, AuditError, AuditLog};
use crate::codec::{put_rows, Reader};
use crate::coordinator::DrainStats;
use crate::digest::{sha256, Sha256, DIGEST_LEN};
use crate::queue::UnlearnRequest;
use crate::shard::ShardSnapshot;
use crate::telemetry::DurabilityTelemetry;
use goldfish_tensor::serialize;
use std::borrow::Cow;
use std::convert::Infallible;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Checkpoint file magic: "GoldFish ChecKpoint".
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"GFCK";

/// Checkpoint format version. v2 added the shard-mode section (a
/// presence-flagged [`crate::shard::ShardSnapshot`] between the pending
/// queue and the global state); v1 files are rejected with a typed
/// version-skew error rather than silently read without their shard
/// state.
pub(crate) const CHECKPOINT_VERSION: u32 = 2;

/// WAL file magic: "GoldFish Wal Log".
pub(crate) const WAL_MAGIC: [u8; 4] = *b"GFWL";

/// WAL format version.
pub(crate) const WAL_VERSION: u32 = 1;

/// How many checkpoint generations stay on disk.
pub(crate) const CHECKPOINTS_KEPT: usize = 2;

/// Typed durability failures. Everything fails closed: no partially
/// applied state ever reaches the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// An I/O error touching the state directory.
    Io {
        /// The underlying error kind.
        kind: std::io::ErrorKind,
        /// The error text.
        detail: String,
    },
    /// A checkpoint file does not start with [`CHECKPOINT_MAGIC`].
    CheckpointBadMagic {
        /// The offending file.
        path: String,
    },
    /// A checkpoint file ends before its announced contents do.
    CheckpointTruncated {
        /// The offending file.
        path: String,
    },
    /// A checkpoint's trailing SHA-256 does not match its contents.
    CheckpointChecksum {
        /// The offending file.
        path: String,
    },
    /// A checkpoint was written by a different format version.
    CheckpointVersionSkew {
        /// The offending file.
        path: String,
        /// The version found.
        got: u32,
    },
    /// Checkpoint files exist but none decodes — recovery refuses to
    /// guess and fails closed.
    NoUsableCheckpoint {
        /// The state directory.
        dir: String,
        /// How many candidate files were tried.
        tried: usize,
    },
    /// The WAL's header is wrong (magic or version).
    WalHeader {
        /// What was wrong with it.
        detail: String,
    },
    /// A non-tail WAL record fails its hash or length check.
    WalCorrupt {
        /// Byte offset of the offending record.
        offset: u64,
    },
    /// The audit log failed verification or re-synchronisation.
    Audit(AuditError),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { kind, detail } => {
                write!(f, "durability i/o error ({kind:?}): {detail}")
            }
            DurabilityError::CheckpointBadMagic { path } => {
                write!(f, "checkpoint {path}: bad magic")
            }
            DurabilityError::CheckpointTruncated { path } => {
                write!(f, "checkpoint {path}: truncated")
            }
            DurabilityError::CheckpointChecksum { path } => {
                write!(f, "checkpoint {path}: checksum mismatch")
            }
            DurabilityError::CheckpointVersionSkew { path, got } => {
                write!(
                    f,
                    "checkpoint {path}: version {got} (want {CHECKPOINT_VERSION})"
                )
            }
            DurabilityError::NoUsableCheckpoint { dir, tried } => {
                write!(
                    f,
                    "no usable checkpoint in {dir} ({tried} candidate(s) all failed)"
                )
            }
            DurabilityError::WalHeader { detail } => write!(f, "wal header: {detail}"),
            DurabilityError::WalCorrupt { offset } => {
                write!(f, "wal record at byte {offset} is corrupt")
            }
            DurabilityError::Audit(e) => write!(f, "audit: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<AuditError> for DurabilityError {
    fn from(e: AuditError) -> Self {
        DurabilityError::Audit(e)
    }
}

/// The durable coordinator state one checkpoint captures. A commit
/// borrows its lists from the live coordinator; a decoded checkpoint
/// owns them.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<'a> {
    /// Monotone checkpoint generation.
    pub serial: u64,
    /// The next training round to run (rounds `0..round_next` are
    /// committed).
    pub round_next: u64,
    /// Highest WAL sequence number whose submission this checkpoint's
    /// `pending` already reflects.
    pub wal_seq: u64,
    /// Committed audit-chain length, in entries.
    pub audit_entries: u64,
    /// Committed audit-chain length, in file bytes.
    pub audit_bytes: u64,
    /// Committed audit-chain head hash.
    pub audit_tip: [u8; DIGEST_LEN],
    /// Drain counters at commit time.
    pub drain_stats: DrainStats,
    /// The pending unlearning queue, FIFO order.
    pub pending: Cow<'a, [UnlearnRequest]>,
    /// The shard-mode section (`None` when the coordinator runs without
    /// `--shards`): the full shard map plus its pending task queue,
    /// restored bitwise on recovery.
    pub shard: Option<ShardSnapshot<'a>>,
    /// The global model state.
    pub global: Cow<'a, [f32]>,
}

fn put_request(out: &mut Vec<u8>, req: &UnlearnRequest) {
    out.extend_from_slice(&(req.client_id as u64).to_le_bytes());
    put_rows(out, req.removed.iter().map(|&i| i as u64));
}

fn read_request(c: &mut Reader<'_>) -> Option<UnlearnRequest> {
    Some(UnlearnRequest {
        client_id: c.u64()? as usize,
        removed: c.rows()?,
    })
}

impl Checkpoint<'_> {
    /// Serializes the checkpoint: header, fields, pending queue, shard
    /// section, global (bulk f32 codec), trailing SHA-256 over
    /// everything before it — the in-memory sink of
    /// [`Checkpoint::encode_with`], byte for byte what a commit streams
    /// to disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let Ok(()) = self.encode_with(&mut out, &mut |_| Ok::<(), Infallible>(()));
        let checksum = sha256(&out);
        out.extend_from_slice(&checksum);
        out
    }

    /// The one checkpoint encoder: appends everything the trailing
    /// SHA-256 covers to `out`, handing `out` to `spill` after the
    /// pending queue, after every shard state and after the shard
    /// section. A sink that hashes, writes and clears `out` there holds
    /// one shard state's encoding at a time; the caller appends the
    /// checksum of all bytes seen.
    ///
    /// # Errors
    ///
    /// The first error `spill` returns; encoding stops there.
    pub fn encode_with<E>(
        &self,
        out: &mut Vec<u8>,
        spill: &mut impl FnMut(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.round_next.to_le_bytes());
        out.extend_from_slice(&self.wal_seq.to_le_bytes());
        out.extend_from_slice(&self.audit_entries.to_le_bytes());
        out.extend_from_slice(&self.audit_bytes.to_le_bytes());
        out.extend_from_slice(&self.audit_tip);
        out.extend_from_slice(&(self.drain_stats.requests_served as u64).to_le_bytes());
        out.extend_from_slice(&(self.drain_stats.batches_served as u64).to_le_bytes());
        out.extend_from_slice(&(self.drain_stats.last_batch_requests as u64).to_le_bytes());
        out.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for req in self.pending.iter() {
            put_request(out, req);
        }
        spill(out)?;
        match &self.shard {
            None => out.push(0u8),
            Some(snap) => {
                out.push(1u8);
                snap.encode_with(out, spill)?;
                spill(out)?;
            }
        }
        serialize::params_write_into(out, &self.global);
        Ok(())
    }
}

impl Checkpoint<'static> {
    /// Decodes and fully validates a checkpoint file's bytes.
    ///
    /// # Errors
    ///
    /// Typed [`DurabilityError`]s; `path` only labels them.
    pub fn from_bytes(data: &[u8], path: &str) -> Result<Self, DurabilityError> {
        let truncated = || DurabilityError::CheckpointTruncated {
            path: path.to_string(),
        };
        if data.len() < 8 + DIGEST_LEN {
            return Err(truncated());
        }
        let (body, stored) = data.split_at(data.len() - DIGEST_LEN);
        let mut c = Reader { b: body };
        if c.take(4) != Some(&CHECKPOINT_MAGIC[..]) {
            return Err(DurabilityError::CheckpointBadMagic {
                path: path.to_string(),
            });
        }
        let version = c.u32().ok_or_else(truncated)?;
        if version != CHECKPOINT_VERSION {
            return Err(DurabilityError::CheckpointVersionSkew {
                path: path.to_string(),
                got: version,
            });
        }
        // Checksum first: everything after it can assume intact bytes.
        if sha256(body) != *stored {
            return Err(DurabilityError::CheckpointChecksum {
                path: path.to_string(),
            });
        }
        let serial = c.u64().ok_or_else(truncated)?;
        let round_next = c.u64().ok_or_else(truncated)?;
        let wal_seq = c.u64().ok_or_else(truncated)?;
        let audit_entries = c.u64().ok_or_else(truncated)?;
        let audit_bytes = c.u64().ok_or_else(truncated)?;
        let audit_tip = c.array().ok_or_else(truncated)?;
        let drain_stats = DrainStats {
            requests_served: c.u64().ok_or_else(truncated)? as usize,
            batches_served: c.u64().ok_or_else(truncated)? as usize,
            last_batch_requests: c.u64().ok_or_else(truncated)? as usize,
        };
        let n_pending = c.u32().ok_or_else(truncated)? as usize;
        let mut pending = Vec::with_capacity(n_pending.min(1 << 16));
        for _ in 0..n_pending {
            pending.push(read_request(&mut c).ok_or_else(truncated)?);
        }
        let shard = match c.u8().ok_or_else(truncated)? {
            0 => None,
            1 => {
                let (snap, consumed) = ShardSnapshot::decode(c.b).ok_or_else(truncated)?;
                c.take(consumed).ok_or_else(truncated)?;
                Some(snap)
            }
            _ => return Err(truncated()),
        };
        let global = c.f32s().ok_or_else(truncated)?;
        Ok(Checkpoint {
            serial,
            round_next,
            wal_seq,
            audit_entries,
            audit_bytes,
            audit_tip,
            drain_stats,
            pending: Cow::Owned(pending),
            shard,
            global: Cow::Owned(global),
        })
    }
}

/// What [`DurableStore::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Whether a checkpoint was loaded (`false` = fresh state
    /// directory; every other field is at its initial value).
    pub resumed: bool,
    /// `true` when the newest checkpoint was corrupt and the previous
    /// generation was used instead.
    pub fell_back: bool,
    /// The next training round to run.
    pub round_next: usize,
    /// The committed global model (empty when not `resumed`).
    pub global: Vec<f32>,
    /// Drain counters at the commit point.
    pub drain_stats: DrainStats,
    /// The checkpoint's pending queue (restore verbatim, FIFO order).
    pub pending: Vec<UnlearnRequest>,
    /// WAL submissions newer than the checkpoint, in sequence order —
    /// replay through the queue's normal submit/merge logic.
    pub replayed: Vec<UnlearnRequest>,
    /// Shard-routed WAL tasks newer than the checkpoint, in sequence
    /// order — replay through the shard queue's submit/merge logic.
    pub replayed_shard: Vec<crate::shard::ShardTask>,
    /// The checkpoint's shard section (`None` when the run was not in
    /// shard mode, or not `resumed`). Restore with
    /// [`crate::shard::ShardMap::restore`]; parity is recomputed.
    pub shard: Option<ShardSnapshot<'static>>,
    /// The committed audit chain in chain order. Since audit v2 this
    /// mixes served deletions with robustness verdicts — filter to
    /// [`crate::audit::audit_kind::UNLEARN_SERVED`] before replaying
    /// removals to rebuild post-deletion client datasets.
    pub served: Vec<AuditEntry>,
}

/// The coordinator's handle on its state directory: checkpoint writer,
/// WAL appender and audit-log owner.
pub struct DurableStore {
    dir: PathBuf,
    wal: File,
    wal_seq: u64,
    audit: AuditLog,
    serial: u64,
    /// fsync-span handles (detached until a coordinator attaches its
    /// catalog).
    telemetry: DurabilityTelemetry,
}

fn checkpoint_path(dir: &Path, serial: u64) -> PathBuf {
    dir.join(format!("checkpoint-{serial:016x}.gfck"))
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".gfck"))
        {
            if let Ok(serial) = u64::from_str_radix(hex, 16) {
                found.push((serial, entry.path()));
            }
        }
    }
    found.sort_by_key(|&(serial, _)| std::cmp::Reverse(serial));
    Ok(found)
}

fn sync_dir(dir: &Path) -> Result<(), DurabilityError> {
    // Directory fsync makes the rename itself durable (Linux/macOS).
    // Platforms where directories cannot be opened just skip it.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn seal_wal_record(body: Vec<u8>) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(&body);
    let hash = h.finalize();
    let mut out = Vec::with_capacity(4 + body.len() + DIGEST_LEN);
    out.extend_from_slice(&((body.len() + DIGEST_LEN) as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&hash);
    out
}

fn wal_record_bytes(seq: u64, req: &UnlearnRequest) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + 8 * req.removed.len());
    body.push(1u8); // record kind: submit
    body.extend_from_slice(&seq.to_le_bytes());
    put_request(&mut body, req);
    seal_wal_record(body)
}

fn wal_shard_record_bytes(seq: u64, task: &crate::shard::ShardTask) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + 8 * task.rows.len());
    body.push(2u8); // record kind: shard-routed submit
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&(task.client_id as u64).to_le_bytes());
    body.extend_from_slice(&(task.shard as u32).to_le_bytes());
    put_rows(&mut body, task.rows.iter().map(|&r| r as u64));
    seal_wal_record(body)
}

/// One decoded WAL record: a whole-client submit (kind 1) or one
/// shard-routed retrain task of a shard-mode submit (kind 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A whole-client deletion request (the non-shard queue path).
    Submit(UnlearnRequest),
    /// One shard retrain task of a shard-routed deletion.
    ShardTask(crate::shard::ShardTask),
}

/// Sequenced WAL records plus the torn-tail truncation offset, if any.
type WalContents = (Vec<(u64, WalRecord)>, Option<u64>);

/// Parses the whole WAL. Returns `(records, truncate_at)`:
/// `truncate_at` is `Some(offset)` when the file ends inside a record —
/// a torn tail from a crash mid-append. Torn tails are safe to discard:
/// the submit was never acknowledged (fsync happens before the ack).
fn read_wal(data: &[u8]) -> Result<WalContents, DurabilityError> {
    let mut file = Reader { b: data };
    let (Some(magic), Some(version)) = (file.take(4), file.u32()) else {
        return Err(DurabilityError::WalHeader {
            detail: "file shorter than header".into(),
        });
    };
    if magic != WAL_MAGIC {
        return Err(DurabilityError::WalHeader {
            detail: format!("bad magic {magic:?}"),
        });
    }
    if version != WAL_VERSION {
        return Err(DurabilityError::WalHeader {
            detail: format!("version {version} (want {WAL_VERSION})"),
        });
    }
    let mut records = Vec::new();
    while !file.b.is_empty() {
        let start = (data.len() - file.b.len()) as u64;
        let framed = file.u32().and_then(|len| file.take(len as usize));
        let Some(record) = framed else {
            return Ok((records, Some(start)));
        };
        let corrupt = || DurabilityError::WalCorrupt { offset: start };
        if record.len() < 1 + 8 + 8 + 4 + DIGEST_LEN {
            return Err(corrupt());
        }
        let (body, stored_hash) = record.split_at(record.len() - DIGEST_LEN);
        if sha256(body) != *stored_hash {
            return Err(corrupt());
        }
        let mut c = Reader { b: &body[1..] };
        let seq = c.u64().ok_or_else(corrupt)?;
        let record = match body[0] {
            1 => WalRecord::Submit(read_request(&mut c).ok_or_else(corrupt)?),
            2 => {
                let client_id = c.u64().ok_or_else(corrupt)? as usize;
                let shard = c.u32().ok_or_else(corrupt)? as usize;
                let rows = c.rows().ok_or_else(corrupt)?;
                WalRecord::ShardTask(crate::shard::ShardTask::new(client_id, shard, rows))
            }
            _ => return Err(corrupt()),
        };
        if !c.b.is_empty() {
            return Err(corrupt());
        }
        records.push((seq, record));
    }
    Ok((records, None))
}

impl DurableStore {
    /// Opens (creating if necessary) the state directory and
    /// reconstructs the committed coordinator state: newest valid
    /// checkpoint (falling back one generation on corruption), WAL tail
    /// replay, audit log truncated to the checkpoint's committed
    /// position.
    ///
    /// # Errors
    ///
    /// Typed [`DurabilityError`]s. Checkpoints present but all invalid,
    /// a corrupt WAL interior, or an audit chain that does not reach
    /// the checkpoint's recorded tip each fail closed.
    pub fn open(dir: &Path) -> Result<(Self, Recovered), DurabilityError> {
        fs::create_dir_all(dir)?;

        // --- checkpoint ---------------------------------------------------
        let candidates = list_checkpoints(dir)?;
        let mut loaded: Option<Checkpoint> = None;
        let mut fell_back = false;
        let mut first_error: Option<DurabilityError> = None;
        for (i, (_, path)) in candidates.iter().enumerate() {
            let data = fs::read(path)?;
            match Checkpoint::from_bytes(&data, &path.to_string_lossy()) {
                Ok(c) => {
                    loaded = Some(c);
                    fell_back = i > 0;
                    break;
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if loaded.is_none() && !candidates.is_empty() {
            // Checkpoints exist but none decodes: refuse to silently
            // restart from scratch (that would forget served deletions).
            return Err(first_error.unwrap_or(DurabilityError::NoUsableCheckpoint {
                dir: dir.to_string_lossy().into_owned(),
                tried: candidates.len(),
            }));
        }

        // --- WAL ----------------------------------------------------------
        let wal_path = dir.join("queue.wal");
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut data = Vec::new();
        wal.read_to_end(&mut data)?;
        if data.is_empty() {
            wal.write_all(&WAL_MAGIC)?;
            wal.write_all(&WAL_VERSION.to_le_bytes())?;
            wal.sync_all()?;
            data.extend_from_slice(&WAL_MAGIC);
            data.extend_from_slice(&WAL_VERSION.to_le_bytes());
        }
        let (records, torn_at) = read_wal(&data)?;
        if let Some(offset) = torn_at {
            // A torn tail record was never acknowledged — drop it.
            wal.set_len(offset)?;
            wal.sync_all()?;
        }
        use std::io::Seek;
        wal.seek(std::io::SeekFrom::End(0))?;

        // --- audit --------------------------------------------------------
        let audit_path = dir.join("audit.log");
        let (mut audit, mut served) = AuditLog::open(&audit_path)?;

        let ckpt_seq = loaded.as_ref().map(|c| c.wal_seq).unwrap_or(0);
        let wal_seq = records
            .iter()
            .map(|&(seq, _)| seq)
            .max()
            .unwrap_or(0)
            .max(ckpt_seq);
        let mut replayed = Vec::new();
        let mut replayed_shard = Vec::new();
        for (_, record) in records.into_iter().filter(|&(seq, _)| seq > ckpt_seq) {
            match record {
                WalRecord::Submit(req) => replayed.push(req),
                WalRecord::ShardTask(task) => replayed_shard.push(task),
            }
        }

        let recovered = match loaded {
            Some(ckpt) => {
                // Audit entries past the checkpoint belong to a drain
                // that never committed; cut them (the recovered run
                // re-drains deterministically and re-appends identical
                // bytes).
                audit.truncate_to(ckpt.audit_entries, ckpt.audit_bytes, &ckpt.audit_tip)?;
                served.truncate(ckpt.audit_entries as usize);
                Recovered {
                    resumed: true,
                    fell_back,
                    round_next: ckpt.round_next as usize,
                    global: ckpt.global.into_owned(),
                    drain_stats: ckpt.drain_stats,
                    pending: ckpt.pending.into_owned(),
                    replayed,
                    replayed_shard,
                    shard: ckpt.shard,
                    served,
                }
            }
            None => {
                // No checkpoint: nothing was ever committed. Audit
                // entries without one are uncommitted leftovers.
                audit.truncate_to(0, crate::audit::AUDIT_HEADER_LEN, &crate::digest::GENESIS)?;
                Recovered {
                    resumed: false,
                    fell_back: false,
                    round_next: 0,
                    global: Vec::new(),
                    drain_stats: DrainStats::default(),
                    pending: Vec::new(),
                    replayed,
                    replayed_shard,
                    shard: None,
                    served: Vec::new(),
                }
            }
        };
        let serial = candidates.first().map(|&(s, _)| s).unwrap_or(0);
        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                wal,
                wal_seq,
                audit,
                serial,
                telemetry: DurabilityTelemetry::default(),
            },
            recovered,
        ))
    }

    /// Appends one accepted submission to the WAL and fsyncs it. Only
    /// after this returns may the submit be acknowledged.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] — the caller must then *reject* the
    /// submission (it is not durable).
    pub fn log_submit(&mut self, req: &UnlearnRequest) -> Result<u64, DurabilityError> {
        let start = self.telemetry.clock.now_nanos();
        let seq = self.wal_seq + 1;
        let record = wal_record_bytes(seq, req);
        self.wal.write_all(&record)?;
        self.wal.sync_all()?;
        self.wal_seq = seq;
        self.telemetry
            .wal_append_seconds
            .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(start));
        Ok(seq)
    }

    /// Appends one shard-routed submission — one kind-2 record per
    /// affected shard, consecutive sequence numbers — in a **single**
    /// write+fsync, so a crash either persists the whole route or none
    /// of it (a partial route would desynchronise the tombstones the
    /// tasks were computed against). Only after this returns may the
    /// submit be acknowledged.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] — the caller must then *reject* the
    /// submission (it is not durable).
    pub fn log_submit_shard(
        &mut self,
        tasks: &[crate::shard::ShardTask],
    ) -> Result<u64, DurabilityError> {
        let start = self.telemetry.clock.now_nanos();
        let mut batch = Vec::new();
        let mut seq = self.wal_seq;
        for task in tasks {
            seq += 1;
            batch.extend_from_slice(&wal_shard_record_bytes(seq, task));
        }
        self.wal.write_all(&batch)?;
        self.wal.sync_all()?;
        self.wal_seq = seq;
        self.telemetry
            .wal_append_seconds
            .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(start));
        Ok(seq)
    }

    /// Rebinds the store's fsync-span histograms to a shared catalog's
    /// cells (the coordinator calls this from `attach_durability`).
    pub(crate) fn set_telemetry(&mut self, telemetry: DurabilityTelemetry) {
        self.telemetry = telemetry;
    }

    /// Writes the post-training-round checkpoint (the round's commit
    /// record).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`].
    pub fn commit_round(
        &mut self,
        round_next: usize,
        global: &[f32],
        pending: &[UnlearnRequest],
        shard: Option<&ShardSnapshot<'_>>,
        drain_stats: DrainStats,
    ) -> Result<(), DurabilityError> {
        self.write_checkpoint(round_next, global, pending, shard, drain_stats)
    }

    /// Appends robustness verdicts (violations/quarantines) to the
    /// audit chain and fsyncs them. Call before the round's
    /// `commit_round` so that checkpoint snapshots the advanced tip; a
    /// crash in between truncates the events on recovery and the
    /// deterministic round re-run re-appends identical bytes.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Audit`] / [`DurabilityError::Io`].
    pub(crate) fn log_robustness_events(
        &mut self,
        round: u64,
        events: &[crate::audit::AuditEventRecord],
        state_digest: &[u8; DIGEST_LEN],
    ) -> Result<(), DurabilityError> {
        self.audit.append_events(round, events, state_digest)?;
        Ok(())
    }

    /// Commits one served drain batch: appends the audit entries
    /// (fsync'd) and then writes the post-drain checkpoint. The
    /// checkpoint records the new audit tip, making the drain
    /// atomic-at-recovery: a crash between the two steps leaves audit
    /// entries the next open truncates away and re-derives.
    ///
    /// # Errors
    ///
    /// [`DurabilityError`] from either step.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_drain(
        &mut self,
        round: u64,
        drain_serial: u64,
        served: &[UnlearnRequest],
        state_digest: &[u8; DIGEST_LEN],
        round_next: usize,
        global: &[f32],
        pending: &[UnlearnRequest],
        drain_stats: DrainStats,
    ) -> Result<(), DurabilityError> {
        self.audit
            .append_batch(round, drain_serial, served, state_digest)?;
        self.write_checkpoint(round_next, global, pending, None, drain_stats)
    }

    /// Commits one shard drain batch: appends the batch's audit entries
    /// (served tasks plus degraded-drain verdicts, fsync'd) and then
    /// writes the post-drain checkpoint whose shard section snapshots
    /// the advanced map and any deadline-requeued remainder. Same
    /// atomic-at-recovery shape as [`DurableStore::commit_drain`].
    ///
    /// # Errors
    ///
    /// [`DurabilityError`] from either step.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_shard_drain(
        &mut self,
        round: u64,
        drain_serial: u64,
        records: &[crate::audit::AuditEventRecord],
        state_digest: &[u8; DIGEST_LEN],
        round_next: usize,
        global: &[f32],
        pending: &[UnlearnRequest],
        shard: &ShardSnapshot<'_>,
        drain_stats: DrainStats,
    ) -> Result<(), DurabilityError> {
        self.audit
            .append_shard_batch(round, drain_serial, records, state_digest)?;
        self.write_checkpoint(round_next, global, pending, Some(shard), drain_stats)
    }

    fn write_checkpoint(
        &mut self,
        round_next: usize,
        global: &[f32],
        pending: &[UnlearnRequest],
        shard: Option<&ShardSnapshot<'_>>,
        drain_stats: DrainStats,
    ) -> Result<(), DurabilityError> {
        let start = self.telemetry.clock.now_nanos();
        let serial = self.serial + 1;
        let ckpt = Checkpoint {
            serial,
            round_next: round_next as u64,
            wal_seq: self.wal_seq,
            audit_entries: self.audit.entries(),
            audit_bytes: self.audit.bytes(),
            audit_tip: self.audit.tip(),
            drain_stats,
            pending: Cow::Borrowed(pending),
            shard: shard.map(ShardSnapshot::borrowed),
            global: Cow::Borrowed(global),
        };
        let final_path = checkpoint_path(&self.dir, serial);
        let tmp_path = final_path.with_extension("gfck.tmp");
        {
            // Stream: hash and write each spill, then the tail and the
            // checksum of everything before it. The buffer holds at most
            // one state-sized spill (a shard state, or the global).
            let mut f = File::create(&tmp_path)?;
            let mut hash = Sha256::new();
            let mut buf = Vec::with_capacity(128 + 4 * global.len());
            ckpt.encode_with(&mut buf, &mut |b: &mut Vec<u8>| {
                hash.update(b);
                f.write_all(b)?;
                b.clear();
                Ok::<(), std::io::Error>(())
            })?;
            hash.update(&buf);
            buf.extend_from_slice(&hash.finalize());
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        self.serial = serial;
        // Prune generations beyond the fallback window (and any stale
        // temp files from interrupted writes).
        for (old_serial, path) in list_checkpoints(&self.dir)? {
            if serial.saturating_sub(old_serial) >= CHECKPOINTS_KEPT as u64 {
                let _ = fs::remove_file(path);
            }
        }
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_string_lossy().ends_with(".gfck.tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        self.telemetry
            .checkpoint_fsync_seconds
            .observe_nanos(self.telemetry.clock.now_nanos().saturating_sub(start));
        Ok(())
    }
}

/// The audit-log path inside a state directory (shared by the
/// coordinator daemon's `--verify-audit` mode).
pub fn audit_path(dir: &Path) -> PathBuf {
    dir.join("audit.log")
}
