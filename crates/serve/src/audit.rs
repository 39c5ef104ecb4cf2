//! Hash-chained, append-only audit log of served unlearning requests
//! and robustness verdicts (DESIGN.md §12.3, §13).
//!
//! Every deletion request the coordinator **serves** (drains through a
//! distillation pass that produced a new global) appends one entry of
//! kind [`audit_kind::UNLEARN_SERVED`]: the request itself, the round
//! and drain serial it was served at, a SHA-256 digest of the
//! post-drain global, the previous entry's hash, and the entry's own
//! hash over all of that. Since format v2 the same chain also records
//! the admission layer's verdicts: each rejected update appends a
//! [`audit_kind::VIOLATION`] entry (detail = `[violation_code,
//! strikes]`) and each eviction a [`audit_kind::QUARANTINE`] entry
//! (detail = `[strikes]`), so "who was thrown out, when, and why" is as
//! tamper-evident as "whose data was forgotten". The chain makes the
//! log tamper-evident — flipping any byte of any entry breaks either
//! that entry's hash or every later entry's `prev_hash` link — which is
//! the verifiable-unlearning property ("can you prove you forgot?") the
//! blockchain-unlearning line of work argues for, minus the chain
//! consensus machinery a single-coordinator deployment doesn't need.
//!
//! ## File layout
//!
//! ```text
//! magic  b"GFAL"            4 bytes
//! version u32 LE            4 bytes (AUDIT_VERSION)
//! entry*                    repeated:
//!   body_len   u32 LE       length of the body that follows
//!   body:
//!     kind         u8       audit_kind::* (1 served, 2 violation, 3 quarantine)
//!     index        u64 LE   0-based entry index
//!     round        u64 LE   rounds completed when the entry was made
//!     serial       u64 LE   drain-batch serial (0 for robustness kinds)
//!     client_id    u64 LE
//!     n_detail     u32 LE
//!     detail[i]    u64 LE   × n_detail (removed indices / codes)
//!     state_digest [u8;32]  digest::state_digest(round, global)
//!     prev_hash    [u8;32]  previous entry_hash (GENESIS for index 0)
//!     entry_hash   [u8;32]  sha256(body minus entry_hash)
//! ```
//!
//! The log is recovery-coordinated with the checkpoint store: a
//! checkpoint records `(audit_entries, audit_bytes, audit_tip)`, and on
//! restart the log is truncated back to exactly that point before the
//! coordinator resumes (a drain that died between appending audit
//! entries and committing its checkpoint is deterministically re-run
//! and re-appends byte-identical entries).

use crate::codec::{put_rows, Reader};
use crate::digest::{self, DIGEST_LEN, GENESIS};
use crate::queue::UnlearnRequest;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Audit file magic: "GoldFish Audit Log".
pub(crate) const AUDIT_MAGIC: [u8; 4] = *b"GFAL";

/// Audit file format version. v2 added the leading `kind` byte and
/// generalised the per-entry payload from removed indices to `detail`.
pub(crate) const AUDIT_VERSION: u32 = 2;

/// Entry kinds of the v2 audit chain.
pub mod audit_kind {
    /// A served deletion request (`detail` = removed sample indices).
    pub const UNLEARN_SERVED: u8 = 1;
    /// An admission-layer rejection (`detail` = `[violation_code,
    /// strikes_after]`; codes from
    /// `goldfish_fed::transport::UpdateViolation::code`).
    pub const VIOLATION: u8 = 2;
    /// A strike-budget eviction (`detail` = `[strikes]`).
    pub const QUARANTINE: u8 = 3;
    /// A shard retrain that committed **degraded**: its owner missed the
    /// drain deadline, the shard states were reconstructed from the XOR
    /// redundancy group and the retrain ran on a delegate (`detail` =
    /// `[shard, delegate_client]`).
    pub const DEGRADED_DRAIN: u8 = 4;
}

/// Fixed file-header size (magic + version).
pub(crate) const AUDIT_HEADER_LEN: u64 = 8;

/// Typed audit-log failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// An I/O error touching the audit file.
    Io {
        /// The underlying error kind.
        kind: std::io::ErrorKind,
        /// The error text.
        detail: String,
    },
    /// The file does not start with `AUDIT_MAGIC`.
    BadMagic {
        /// The bytes found instead.
        got: [u8; 4],
    },
    /// The file's version word differs from `AUDIT_VERSION`.
    VersionSkew {
        /// The version found.
        got: u32,
    },
    /// The file ends inside an entry.
    Truncated {
        /// Byte offset of the entry the file ends inside of.
        at: u64,
    },
    /// An entry's stored `entry_hash` does not match its contents —
    /// the entry was tampered with.
    HashMismatch {
        /// The 0-based index of the offending entry.
        index: u64,
    },
    /// An entry's `prev_hash` does not link to the previous entry —
    /// the chain was cut or an entry replaced wholesale.
    ChainBroken {
        /// The 0-based index of the offending entry.
        index: u64,
    },
    /// An entry's stored index is out of sequence.
    IndexSkew {
        /// The index the walk expected.
        want: u64,
        /// The index found.
        got: u64,
    },
    /// A recovery truncation point disagrees with the file (the
    /// checkpoint's recorded tip hash does not match the chain at the
    /// recorded length).
    TipMismatch,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io { kind, detail } => write!(f, "audit i/o error ({kind:?}): {detail}"),
            AuditError::BadMagic { got } => write!(f, "bad audit magic {got:?}"),
            AuditError::VersionSkew { got } => {
                write!(f, "audit version {got} (want {AUDIT_VERSION})")
            }
            AuditError::Truncated { at } => write!(f, "audit file truncated inside entry at {at}"),
            AuditError::HashMismatch { index } => {
                write!(f, "audit entry {index} hash mismatch (tampered)")
            }
            AuditError::ChainBroken { index } => {
                write!(f, "audit chain broken at entry {index} (prev-hash link)")
            }
            AuditError::IndexSkew { want, got } => {
                write!(f, "audit entry index skew: want {want}, got {got}")
            }
            AuditError::TipMismatch => {
                write!(
                    f,
                    "audit tip does not match the checkpoint's recorded chain head"
                )
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl From<std::io::Error> for AuditError {
    fn from(e: std::io::Error) -> Self {
        AuditError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// One chain record: a served deletion or a robustness verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// What this entry records ([`audit_kind`]).
    pub kind: u8,
    /// 0-based position in the chain.
    pub index: u64,
    /// Rounds completed when the entry was made.
    pub round: u64,
    /// Drain-batch serial (all requests of one drain share it; 0 for
    /// robustness kinds).
    pub serial: u64,
    /// The client the entry is about.
    pub client_id: u64,
    /// Kind-specific payload: removed sample indices
    /// ([`audit_kind::UNLEARN_SERVED`]), `[violation_code, strikes]`
    /// ([`audit_kind::VIOLATION`]) or `[strikes]`
    /// ([`audit_kind::QUARANTINE`]).
    pub detail: Vec<u64>,
    /// `digest::state_digest(round, post-drain global)`.
    pub state_digest: [u8; DIGEST_LEN],
    /// The previous entry's `entry_hash` (`GENESIS` for entry 0).
    pub prev_hash: [u8; DIGEST_LEN],
    /// SHA-256 over every field above, in file order.
    pub entry_hash: [u8; DIGEST_LEN],
}

impl AuditEntry {
    /// Computes what `entry_hash` must be for this entry's contents.
    pub(crate) fn compute_hash(&self) -> [u8; DIGEST_LEN] {
        let mut hashed = Vec::with_capacity(self.body_len());
        self.write_hashed(&mut hashed);
        digest::sha256(&hashed)
    }

    fn body_len(&self) -> usize {
        1 + 8 + 8 + 8 + 8 + 4 + 8 * self.detail.len() + 3 * DIGEST_LEN
    }

    /// The part of the body `entry_hash` covers: every field before it,
    /// in file order.
    fn write_hashed(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.client_id.to_le_bytes());
        put_rows(out, self.detail.iter().copied());
        out.extend_from_slice(&self.state_digest);
        out.extend_from_slice(&self.prev_hash);
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.body_len() as u32).to_le_bytes());
        self.write_hashed(out);
        out.extend_from_slice(&self.entry_hash);
    }

    /// The served request this entry records. Meaningful only for
    /// [`audit_kind::UNLEARN_SERVED`] entries (check `kind` first).
    pub(crate) fn request(&self) -> UnlearnRequest {
        UnlearnRequest::new(
            self.client_id as usize,
            self.detail.iter().map(|&r| r as usize).collect(),
        )
    }
}

/// One robustness verdict to append to the chain (what the coordinator
/// drains from the admission layer after each round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEventRecord {
    /// [`audit_kind::VIOLATION`] or [`audit_kind::QUARANTINE`].
    pub kind: u8,
    /// The client the verdict is about.
    pub client_id: u64,
    /// Kind-specific payload (see [`AuditEntry::detail`]).
    pub detail: Vec<u64>,
}

/// Result of a full chain walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSummary {
    /// Every entry, in chain order.
    pub entries: Vec<AuditEntry>,
    /// The chain head: the last entry's hash, or `GENESIS` when the
    /// log is empty.
    pub tip: [u8; DIGEST_LEN],
    /// Total file bytes the walked chain occupies (header included).
    pub bytes: u64,
}

/// The append handle the coordinator holds.
pub struct AuditLog {
    file: File,
    tip: [u8; DIGEST_LEN],
    entries: u64,
    bytes: u64,
}

impl AuditLog {
    /// Opens (creating if absent) the audit log at `path` and verifies
    /// the whole existing chain.
    pub fn open(path: &Path) -> Result<(Self, Vec<AuditEntry>), AuditError> {
        let exists = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if !exists || file.metadata()?.len() == 0 {
            file.write_all(&AUDIT_MAGIC)?;
            file.write_all(&AUDIT_VERSION.to_le_bytes())?;
            file.sync_all()?;
            return Ok((
                AuditLog {
                    file,
                    tip: GENESIS,
                    entries: 0,
                    bytes: AUDIT_HEADER_LEN,
                },
                Vec::new(),
            ));
        }
        let summary = verify_reader(&mut file)?;
        file.seek(SeekFrom::Start(summary.bytes))?;
        Ok((
            AuditLog {
                file,
                tip: summary.tip,
                entries: summary.entries.len() as u64,
                bytes: summary.bytes,
            },
            summary.entries,
        ))
    }

    /// Cuts the log back to the first `entries` entries / `bytes` bytes
    /// — the recovery path, re-synchronising the file with what the
    /// loaded checkpoint committed. `expected_tip` must match the chain
    /// head at that point.
    pub(crate) fn truncate_to(
        &mut self,
        entries: u64,
        bytes: u64,
        expected_tip: &[u8; DIGEST_LEN],
    ) -> Result<(), AuditError> {
        if entries > self.entries || bytes > self.bytes {
            return Err(AuditError::TipMismatch);
        }
        if entries == self.entries {
            return if &self.tip == expected_tip {
                Ok(())
            } else {
                Err(AuditError::TipMismatch)
            };
        }
        // Re-walk to the cut point to learn the tip there.
        self.file.seek(SeekFrom::Start(0))?;
        let summary = verify_reader(&mut self.file)?;
        let (cut_tip, cut_bytes) = if entries == 0 {
            (GENESIS, AUDIT_HEADER_LEN)
        } else {
            let e = &summary.entries[entries as usize - 1];
            let mut off = AUDIT_HEADER_LEN;
            for prior in &summary.entries[..entries as usize] {
                off += 4 + prior.body_len() as u64;
            }
            (e.entry_hash, off)
        };
        if &cut_tip != expected_tip || cut_bytes != bytes {
            return Err(AuditError::TipMismatch);
        }
        self.file.set_len(bytes)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(bytes))?;
        self.tip = cut_tip;
        self.entries = entries;
        self.bytes = bytes;
        Ok(())
    }

    /// Appends one drain batch's entries and fsyncs. The caller passes
    /// the request data; index, prev-hash and entry hash are assigned
    /// here so the chain cannot be mis-threaded.
    pub fn append_batch(
        &mut self,
        round: u64,
        serial: u64,
        requests: &[UnlearnRequest],
        state_digest: &[u8; DIGEST_LEN],
    ) -> Result<(), AuditError> {
        self.append_raw(
            requests.iter().map(|req| {
                (
                    audit_kind::UNLEARN_SERVED,
                    round,
                    serial,
                    req.client_id as u64,
                    req.removed.iter().map(|&r| r as u64).collect(),
                )
            }),
            state_digest,
        )
    }

    /// Appends robustness verdicts (violations/quarantines) and fsyncs —
    /// same chain, same tamper evidence as served deletions.
    ///
    /// # Errors
    ///
    /// [`AuditError::Io`].
    pub(crate) fn append_events(
        &mut self,
        round: u64,
        events: &[AuditEventRecord],
        state_digest: &[u8; DIGEST_LEN],
    ) -> Result<(), AuditError> {
        self.append_raw(
            events
                .iter()
                .map(|e| (e.kind, round, 0, e.client_id, e.detail.clone())),
            state_digest,
        )
    }

    /// Appends one shard-granular drain batch's records and fsyncs:
    /// served shard retrains ([`audit_kind::UNLEARN_SERVED`], `detail` =
    /// `[shard, rows_removed…]`) interleaved with degraded-drain
    /// verdicts ([`audit_kind::DEGRADED_DRAIN`]), all carrying the drain
    /// `serial` — same chain, same tamper evidence.
    ///
    /// # Errors
    ///
    /// [`AuditError::Io`].
    pub(crate) fn append_shard_batch(
        &mut self,
        round: u64,
        serial: u64,
        records: &[AuditEventRecord],
        state_digest: &[u8; DIGEST_LEN],
    ) -> Result<(), AuditError> {
        self.append_raw(
            records
                .iter()
                .map(|e| (e.kind, round, serial, e.client_id, e.detail.clone())),
            state_digest,
        )
    }

    fn append_raw(
        &mut self,
        records: impl Iterator<Item = (u8, u64, u64, u64, Vec<u64>)>,
        state_digest: &[u8; DIGEST_LEN],
    ) -> Result<(), AuditError> {
        let mut buf = Vec::new();
        let mut tip = self.tip;
        let mut index = self.entries;
        for (kind, round, serial, client_id, detail) in records {
            let mut entry = AuditEntry {
                kind,
                index,
                round,
                serial,
                client_id,
                detail,
                state_digest: *state_digest,
                prev_hash: tip,
                entry_hash: GENESIS,
            };
            entry.entry_hash = entry.compute_hash();
            tip = entry.entry_hash;
            index += 1;
            entry.write_to(&mut buf);
        }
        self.file.write_all(&buf)?;
        self.file.sync_all()?;
        self.tip = tip;
        self.entries = index;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// The chain head.
    pub(crate) fn tip(&self) -> [u8; DIGEST_LEN] {
        self.tip
    }

    /// Entries in the chain.
    pub(crate) fn entries(&self) -> u64 {
        self.entries
    }

    /// File bytes the chain occupies.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Walks and verifies the full chain in the file at `path`.
///
/// # Errors
///
/// Any [`AuditError`]; in particular a 1-byte tamper anywhere in an
/// entry surfaces as [`AuditError::HashMismatch`] or
/// [`AuditError::ChainBroken`].
pub fn verify_file(path: &Path) -> Result<AuditSummary, AuditError> {
    let mut file = File::open(path)?;
    verify_reader(&mut file)
}

/// Reads one length-prefixed entry. `None` when the file, or the entry's
/// own announced length, ends before a field does — or leaves bytes over:
/// either way the entry is not what was written.
fn read_entry(file: &mut Reader<'_>) -> Option<AuditEntry> {
    let body_len = file.u32()? as usize;
    let mut c = Reader {
        b: file.take(body_len)?,
    };
    let entry = AuditEntry {
        kind: c.u8()?,
        index: c.u64()?,
        round: c.u64()?,
        serial: c.u64()?,
        client_id: c.u64()?,
        detail: c.rows()?,
        state_digest: c.array()?,
        prev_hash: c.array()?,
        entry_hash: c.array()?,
    };
    c.b.is_empty().then_some(entry)
}

fn verify_reader(r: &mut impl Read) -> Result<AuditSummary, AuditError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let mut file = Reader { b: &data };
    let (Some(magic), Some(version)) = (file.array(), file.u32()) else {
        return Err(AuditError::Truncated { at: 0 });
    };
    if magic != AUDIT_MAGIC {
        return Err(AuditError::BadMagic { got: magic });
    }
    if version != AUDIT_VERSION {
        return Err(AuditError::VersionSkew { got: version });
    }
    let mut entries = Vec::new();
    let mut tip = GENESIS;
    while !file.b.is_empty() {
        let start = (data.len() - file.b.len()) as u64;
        let Some(entry) = read_entry(&mut file) else {
            return Err(AuditError::Truncated { at: start });
        };
        let index = entry.index;
        let want_index = entries.len() as u64;
        if index != want_index {
            return Err(AuditError::IndexSkew {
                want: want_index,
                got: index,
            });
        }
        if entry.prev_hash != tip {
            return Err(AuditError::ChainBroken { index });
        }
        if entry.compute_hash() != entry.entry_hash {
            return Err(AuditError::HashMismatch { index });
        }
        tip = entry.entry_hash;
        entries.push(entry);
    }
    Ok(AuditSummary {
        entries,
        tip,
        bytes: data.len() as u64,
    })
}

/// Renders a short human-readable line for one entry (CLI output).
pub fn describe_entry(e: &AuditEntry) -> String {
    let what = match e.kind {
        audit_kind::UNLEARN_SERVED => format!("removed {} sample(s)", e.detail.len()),
        audit_kind::VIOLATION => format!(
            "violation code {} (strikes {})",
            e.detail.first().copied().unwrap_or(0),
            e.detail.get(1).copied().unwrap_or(0),
        ),
        audit_kind::QUARANTINE => format!(
            "QUARANTINED after {} strike(s)",
            e.detail.first().copied().unwrap_or(0)
        ),
        audit_kind::DEGRADED_DRAIN => format!(
            "DEGRADED shard {} retrained by delegate {} (owner straggled)",
            e.detail.first().copied().unwrap_or(0),
            e.detail.get(1).copied().unwrap_or(0),
        ),
        k => format!("unknown kind {k}"),
    };
    format!(
        "#{} round {} serial {} client {} {} state {} hash {}",
        e.index,
        e.round,
        e.serial,
        e.client_id,
        what,
        &digest::hex(&e.state_digest)[..16],
        &digest::hex(&e.entry_hash)[..16],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("goldfish-audit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn reqs() -> Vec<UnlearnRequest> {
        vec![
            UnlearnRequest::new(0, vec![3, 1, 2]),
            UnlearnRequest::new(2, vec![7]),
        ]
    }

    #[test]
    fn append_then_verify_roundtrip() {
        let path = tmp("roundtrip");
        let (mut log, existing) = AuditLog::open(&path).unwrap();
        assert!(existing.is_empty());
        let d0 = sha256(b"state-after-drain-0");
        log.append_batch(1, 0, &reqs(), &d0).unwrap();
        let d1 = sha256(b"state-after-drain-1");
        log.append_batch(3, 1, &[UnlearnRequest::new(1, vec![0])], &d1)
            .unwrap();
        let tip = log.tip();
        drop(log);

        let summary = verify_file(&path).unwrap();
        assert_eq!(summary.entries.len(), 3);
        assert_eq!(summary.tip, tip);
        assert_eq!(summary.entries[0].prev_hash, GENESIS);
        assert_eq!(summary.entries[1].prev_hash, summary.entries[0].entry_hash);
        assert_eq!(summary.entries[2].prev_hash, summary.entries[1].entry_hash);
        assert_eq!(summary.entries[0].detail, vec![1, 2, 3]);
        assert!(summary
            .entries
            .iter()
            .all(|e| e.kind == audit_kind::UNLEARN_SERVED));
        assert_eq!(summary.entries[2].round, 3);
        assert_eq!(summary.entries[2].serial, 1);

        // Re-open resumes at the same tip.
        let (log2, entries) = AuditLog::open(&path).unwrap();
        assert_eq!(log2.tip(), tip);
        assert_eq!(entries.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn robustness_events_chain_with_served_entries() {
        let path = tmp("events");
        let (mut log, _) = AuditLog::open(&path).unwrap();
        log.append_batch(1, 0, &reqs(), &sha256(b"s0")).unwrap();
        log.append_events(
            2,
            &[
                AuditEventRecord {
                    kind: audit_kind::VIOLATION,
                    client_id: 4,
                    detail: vec![3, 1],
                },
                AuditEventRecord {
                    kind: audit_kind::QUARANTINE,
                    client_id: 4,
                    detail: vec![2],
                },
            ],
            &sha256(b"s1"),
        )
        .unwrap();
        let tip = log.tip();
        drop(log);

        let summary = verify_file(&path).unwrap();
        assert_eq!(summary.tip, tip);
        assert_eq!(summary.entries.len(), 4);
        assert_eq!(summary.entries[2].kind, audit_kind::VIOLATION);
        assert_eq!(summary.entries[2].client_id, 4);
        assert_eq!(summary.entries[2].detail, vec![3, 1]);
        assert_eq!(summary.entries[3].kind, audit_kind::QUARANTINE);
        assert_eq!(summary.entries[3].round, 2);
        assert_eq!(summary.entries[3].prev_hash, summary.entries[2].entry_hash);
        assert!(describe_entry(&summary.entries[3]).contains("QUARANTINED"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_byte_tamper_is_detected_everywhere() {
        let path = tmp("tamper");
        {
            let (mut log, _) = AuditLog::open(&path).unwrap();
            log.append_batch(1, 0, &reqs(), &sha256(b"s0")).unwrap();
            log.append_batch(2, 1, &[UnlearnRequest::new(1, vec![5])], &sha256(b"s1"))
                .unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        assert!(verify_file(&path).is_ok());
        // Flip every single byte past the header, one at a time; every
        // flip must be caught by some typed error.
        for i in AUDIT_HEADER_LEN as usize..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                verify_file(&path).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_and_header_skew_are_typed() {
        let path = tmp("trunc");
        {
            let (mut log, _) = AuditLog::open(&path).unwrap();
            log.append_batch(1, 0, &reqs(), &sha256(b"s0")).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();

        std::fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        assert!(matches!(
            verify_file(&path),
            Err(AuditError::Truncated { .. })
        ));

        let mut bad = clean.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            verify_file(&path),
            Err(AuditError::BadMagic { .. })
        ));

        let mut bad = clean.clone();
        bad[4] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(verify_file(&path), Err(AuditError::VersionSkew { got: 99 }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_to_restores_a_committed_point() {
        let path = tmp("truncate-to");
        let (mut log, _) = AuditLog::open(&path).unwrap();
        log.append_batch(1, 0, &reqs(), &sha256(b"s0")).unwrap();
        let committed = (log.entries(), log.bytes(), log.tip());
        log.append_batch(2, 1, &[UnlearnRequest::new(1, vec![9])], &sha256(b"s1"))
            .unwrap();
        drop(log);

        let (mut log, _) = AuditLog::open(&path).unwrap();
        log.truncate_to(committed.0, committed.1, &committed.2)
            .unwrap();
        assert_eq!(log.tip(), committed.2);
        drop(log);
        let summary = verify_file(&path).unwrap();
        assert_eq!(summary.entries.len(), committed.0 as usize);
        assert_eq!(summary.tip, committed.2);

        // A wrong expected tip fails closed.
        let (mut log, _) = AuditLog::open(&path).unwrap();
        assert_eq!(
            log.truncate_to(0, AUDIT_HEADER_LEN, &sha256(b"wrong")),
            Err(AuditError::TipMismatch)
        );
        let _ = std::fs::remove_file(&path);
    }
}
