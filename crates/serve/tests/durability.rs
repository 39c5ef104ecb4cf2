//! The corruption suite: every way a state directory can rot must
//! surface as a typed error or a clean fallback — never as a silently
//! wrong recovery.

use std::path::{Path, PathBuf};

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_fed::transport::RowOutOfRange;
use goldfish_serve::coordinator::{Coordinator, CoordinatorConfig, RecoveryError};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{DurabilityError, DurableStore, CHECKPOINT_MAGIC};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::{ShardPolicy, ShardTask};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};

fn spec() -> DemoSpec {
    DemoSpec {
        clients: 2,
        samples_per_client: 40,
        test_samples: 20,
        seed: 8,
    }
}

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

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goldfish-durab-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Runs two committed rounds so the directory holds the maximum kept
/// checkpoint generations, then returns the final round cursor.
fn populate(dir: &Path) -> usize {
    let spec = spec();
    let mut c = coordinator(&spec);
    let (store, recovered) = DurableStore::open(dir).unwrap();
    c.attach_durability(store, recovered).unwrap();
    c.submit_unlearn(UnlearnRequest::new(0, (0..4).collect()))
        .unwrap();
    c.run(2, 7).unwrap();
    c.next_round()
}

fn checkpoints(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "gfck"))
        .collect();
    // Name encodes the serial in zero-padded hex: lexicographic sort is
    // generation order, last = newest.
    found.sort();
    found
}

#[test]
fn truncated_newest_checkpoint_falls_back_one_generation() {
    let dir = tmp_dir("truncated");
    let rounds = populate(&dir);
    assert_eq!(rounds, 2);
    let files = checkpoints(&dir);
    assert!(files.len() >= 2, "expected two generations, got {files:?}");
    let newest = files.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let (_store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    assert!(
        recovered.fell_back,
        "must recover from the previous generation"
    );
    assert!(
        recovered.round_next < rounds,
        "fallback state must predate the torn checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checksum_falls_back_and_all_corrupt_fails_closed() {
    let dir = tmp_dir("checksum");
    populate(&dir);
    let files = checkpoints(&dir);
    assert!(files.len() >= 2);

    // Flip one byte in the newest body: checksum mismatch, fall back.
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest, &bytes).unwrap();
    let (_s, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed && recovered.fell_back);

    // Now corrupt every generation (at a fresh offset — the newest file
    // already has one flipped byte): recovery must refuse to guess.
    for f in &files {
        let mut b = std::fs::read(f).unwrap();
        let at = b.len() / 3;
        b[at] ^= 0x40;
        std::fs::write(f, &b).unwrap();
    }
    match DurableStore::open(&dir).map(|_| ()) {
        Err(DurabilityError::CheckpointChecksum { .. }) => {}
        other => panic!("expected CheckpointChecksum fail-closed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_and_bad_magic_are_typed() {
    let dir = tmp_dir("skew");
    populate(&dir);
    let files = checkpoints(&dir);
    let newest = files.last().unwrap().clone();
    let clean = std::fs::read(&newest).unwrap();

    // Patch the version field (bytes 4..8, checked before the
    // checksum): a future-format checkpoint is skew, not corruption.
    let mut skewed = clean.clone();
    skewed[4..8].copy_from_slice(&99u32.to_le_bytes());
    for f in &files {
        std::fs::write(f, &skewed).unwrap();
    }
    match DurableStore::open(&dir).map(|_| ()) {
        Err(DurabilityError::CheckpointVersionSkew { got: 99, .. }) => {}
        other => panic!("expected CheckpointVersionSkew, got {other:?}"),
    }

    // Wrong magic.
    let mut noise = clean.clone();
    noise[0..4].copy_from_slice(b"NOPE");
    assert_ne!(&noise[0..4], CHECKPOINT_MAGIC.as_slice());
    for f in &files {
        std::fs::write(f, &noise).unwrap();
    }
    match DurableStore::open(&dir).map(|_| ()) {
        Err(DurabilityError::CheckpointBadMagic { .. }) => {}
        other => panic!("expected CheckpointBadMagic, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_discarded_but_interior_corruption_fails_closed() {
    let dir = tmp_dir("wal");

    // Log two submits through the real coordinator path, noting the
    // WAL length after each so truncation points are exact.
    let wal = dir.join("queue.wal");
    let (clean, after_first) = {
        let spec = spec();
        let mut c = coordinator(&spec);
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1]))
            .unwrap();
        let after_first = std::fs::metadata(&wal).unwrap().len();
        c.submit_unlearn(UnlearnRequest::new(1, vec![2])).unwrap();
        (std::fs::read(&wal).unwrap(), after_first)
    };

    // Torn tail: the file ends inside the second record — that submit
    // was never acknowledged, so recovery silently drops it…
    std::fs::write(&wal, &clean[..clean.len() - 3]).unwrap();
    let (s, recovered) = DurableStore::open(&dir).unwrap();
    assert_eq!(recovered.replayed.len(), 1);
    assert_eq!(recovered.replayed[0].client_id, 0);
    drop(s);
    // …and truncates the file back to the last whole record so the
    // next append starts clean.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), after_first);

    // Interior corruption: a flipped byte in the *first* record is data
    // loss of an acknowledged submit — fail closed, typed.
    let mut bad = clean.clone();
    bad[12] ^= 0x01; // inside record 1's body
    std::fs::write(&wal, &bad).unwrap();
    match DurableStore::open(&dir).map(|_| ()) {
        Err(DurabilityError::WalCorrupt { .. }) => {}
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_truncated_at_every_byte_offset_never_panics() {
    // The exhaustive form of the torn-tail property: for EVERY possible
    // crash point — the file cut at every byte offset from empty to
    // whole — recovery either replays exactly the acknowledged prefix
    // (the submits whose records are wholly inside the cut) or fails
    // closed with a typed header error. It never panics and never
    // invents or reorders a request.
    let dir = tmp_dir("every-offset");
    let wal = dir.join("queue.wal");

    // Three submits with distinct payload sizes so record boundaries
    // land at irregular offsets; no rounds, so recovery replays all.
    let reqs = vec![
        UnlearnRequest::new(0, vec![0, 1]),
        UnlearnRequest::new(1, vec![2, 3, 4, 5, 6]),
        UnlearnRequest::new(0, vec![7]),
    ];
    let mut boundaries = Vec::new(); // file length after each ack
    let clean = {
        let spec = spec();
        let mut c = coordinator(&spec);
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        for r in &reqs {
            c.submit_unlearn(r.clone()).unwrap();
            boundaries.push(std::fs::metadata(&wal).unwrap().len());
        }
        std::fs::read(&wal).unwrap()
    };
    assert_eq!(boundaries.last().copied(), Some(clean.len() as u64));

    for cut in 0..=clean.len() {
        std::fs::write(&wal, &clean[..cut]).unwrap();
        match DurableStore::open(&dir) {
            Ok((_s, recovered)) => {
                // Either the 8-byte WAL header survived the cut, or the
                // file was empty — a crash before the header write lost
                // no acknowledged submit, so a fresh start is correct.
                assert!(cut == 0 || cut >= 8, "cut at {cut} parsed a partial header");
                let acked = boundaries.iter().filter(|&&b| b <= cut as u64).count();
                assert_eq!(
                    recovered.replayed,
                    reqs[..acked],
                    "cut at {cut}: wrong replay prefix"
                );
                assert!(!recovered.resumed, "no checkpoint exists");
                // The torn tail was trimmed back to the last whole
                // record, so the next append starts clean.
                let healed = std::fs::metadata(&wal).unwrap().len();
                let expect = boundaries
                    .iter()
                    .filter(|&&b| b <= cut as u64)
                    .max()
                    .copied()
                    .unwrap_or(8);
                assert_eq!(healed, expect, "cut at {cut}: tail not trimmed");
            }
            Err(DurabilityError::WalHeader { .. }) => {
                // Only a partially-written header fails closed.
                assert!((1..8).contains(&cut), "cut at {cut} must parse");
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_wal_truncated_at_every_byte_offset_never_panics() {
    // The every-offset property again, but over kind-2 (shard-task)
    // records: a shard-mode submit logs one record per affected shard
    // in a single write+fsync, so a cut can land *inside* a multi-record
    // batch. Recovery must replay exactly the whole records inside the
    // cut — never a partial task — and trim the tail to the last whole
    // record boundary.
    let dir = tmp_dir("shard-every-offset");
    let wal = dir.join("queue.wal");

    // τ = 4: rows route to shard `row % 4`. The middle submit touches
    // two shards, producing a two-record batch whose interior boundary
    // no submit-level ack ever observed.
    let submits = vec![
        UnlearnRequest::new(0, vec![0, 4]),    // shard 0 only
        UnlearnRequest::new(1, vec![1, 2, 6]), // shards 1 and 2
        UnlearnRequest::new(0, vec![3]),       // shard 3 only
    ];
    let tasks = [
        ShardTask::new(0, 0, vec![0, 4]),
        ShardTask::new(1, 1, vec![1]),
        ShardTask::new(1, 2, vec![2, 6]),
        ShardTask::new(0, 3, vec![3]),
    ];
    let clean = {
        let spec = spec();
        let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
        let cfg = CoordinatorConfig {
            train: spec.train_config(),
            init_seed: 1,
            threads: Some(2),
            ..CoordinatorConfig::default()
        }
        .with_shards(ShardPolicy {
            tau: 4,
            group: 2,
            deadline_ms: 0,
        });
        let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        for r in &submits {
            c.submit_unlearn(r.clone()).unwrap();
        }
        std::fs::read(&wal).unwrap()
    };

    // Reconstruct per-record boundaries from the length-prefix framing
    // (4-byte LE length, then body): boundaries[i] = file offset just
    // past record i.
    let mut boundaries = Vec::new();
    let mut off = 8usize; // WAL header
    while off < clean.len() {
        let len = u32::from_le_bytes(clean[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + len;
        boundaries.push(off as u64);
    }
    assert_eq!(boundaries.len(), tasks.len(), "one record per shard task");
    assert_eq!(boundaries.last().copied(), Some(clean.len() as u64));

    for cut in 0..=clean.len() {
        std::fs::write(&wal, &clean[..cut]).unwrap();
        match DurableStore::open(&dir) {
            Ok((_s, recovered)) => {
                assert!(cut == 0 || cut >= 8, "cut at {cut} parsed a partial header");
                let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count();
                assert_eq!(
                    recovered.replayed_shard,
                    tasks[..whole],
                    "cut at {cut}: wrong shard-task replay prefix"
                );
                assert!(
                    recovered.replayed.is_empty(),
                    "no whole-client records were ever logged"
                );
                assert!(!recovered.resumed, "no checkpoint exists");
                let healed = std::fs::metadata(&wal).unwrap().len();
                let expect = boundaries
                    .iter()
                    .filter(|&&b| b <= cut as u64)
                    .max()
                    .copied()
                    .unwrap_or(8);
                assert_eq!(healed, expect, "cut at {cut}: tail not trimmed");
            }
            Err(DurabilityError::WalHeader { .. }) => {
                assert!((1..8).contains(&cut), "cut at {cut} must parse");
            }
            Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_checkpoint_is_version_skew_not_corruption() {
    // CHECKPOINT_VERSION moved 1 → 2 when the shard section was added.
    // A v1 file must surface as typed skew (the version field is
    // checked before the checksum) — not be silently read without its
    // shard state, and not be misreported as corruption.
    let dir = tmp_dir("v1-skew");
    populate(&dir);
    let files = checkpoints(&dir);
    for f in &files {
        let mut bytes = std::fs::read(f).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(f, &bytes).unwrap();
    }
    match DurableStore::open(&dir).map(|_| ()) {
        Err(DurabilityError::CheckpointVersionSkew { got: 1, .. }) => {}
        other => panic!("expected CheckpointVersionSkew for v1, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_is_durable_before_acknowledgement() {
    let dir = tmp_dir("ack");
    let req = UnlearnRequest::new(1, vec![3, 4, 5]);
    {
        let spec = spec();
        let mut c = coordinator(&spec);
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c.submit_unlearn(req.clone()).unwrap();
        // Crash immediately: no round, no drain, no checkpoint.
    }
    let (_s, recovered) = DurableStore::open(&dir).unwrap();
    assert!(!recovered.resumed, "no checkpoint was ever written");
    assert_eq!(recovered.replayed, vec![req]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format freeze: a fixed schedule driven straight through
/// [`DurableStore`] — a whole-client submit, a shard-routed submit, a
/// round commit, a drain commit and a shard-drain commit over a tiny
/// snapshot — must leave byte-identical files. The hashes were recorded
/// at the commit before the state-dir codecs were merged into one
/// reader/writer pair; nothing in these files depends on time, so any
/// difference is a format change (and needs a version bump, not a new
/// constant).
#[test]
fn wal_checkpoint_and_audit_bytes_are_frozen() {
    use goldfish_serve::audit::{audit_kind, AuditEventRecord};
    use goldfish_serve::coordinator::DrainStats;
    use goldfish_serve::digest::{hex, sha256, state_digest};
    use goldfish_serve::shard::ShardMap;

    let dir = tmp_dir("freeze");
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    let global = [0.5f32, -1.25, 3.0];
    let policy = ShardPolicy {
        tau: 2,
        group: 2,
        deadline_ms: 7,
    };
    let mut map = ShardMap::new(policy, &[5, 4], &[0.25, -0.5, 1.0]);
    let stats = DrainStats {
        requests_served: 3,
        batches_served: 2,
        last_batch_requests: 1,
    };
    store
        .log_submit(&UnlearnRequest::new(1, vec![3, 0]))
        .unwrap();
    let tasks = [
        ShardTask::new(0, 1, vec![3, 1]),
        ShardTask::new(1, 0, vec![2]),
    ];
    store.log_submit_shard(&tasks).unwrap();
    let pending = [UnlearnRequest::new(1, vec![0, 3])];
    let snapshot = map.snapshot(&tasks);
    store
        .commit_round(1, &global, &pending, Some(&snapshot), DrainStats::default())
        .unwrap();
    let digest = state_digest(1, &global);
    store
        .commit_drain(1, 0, &pending, &digest, 1, &global, &[], stats)
        .unwrap();
    map.apply_retrain(0, 1, vec![1.5, 2.5, -3.5], &[1, 3]);
    let records = [
        AuditEventRecord {
            kind: audit_kind::DEGRADED_DRAIN,
            client_id: 0,
            detail: vec![1, 1],
        },
        AuditEventRecord {
            kind: audit_kind::UNLEARN_SERVED,
            client_id: 0,
            detail: vec![1, 1, 3],
        },
    ];
    let snapshot = map.snapshot(&tasks[1..]);
    store
        .commit_shard_drain(
            1, 1, &records, &digest, 1, &global, &pending, &snapshot, stats,
        )
        .unwrap();
    drop(store);

    let sha = |p: &Path| hex(&sha256(&std::fs::read(p).unwrap()));
    assert_eq!(
        sha(&dir.join("queue.wal")),
        "b0159ae017461eebcde86e54da25be7a09a1f080f8463d3c9e9c8fb3b64d6d82",
        "WAL bytes moved"
    );
    assert_eq!(
        sha(checkpoints(&dir).last().unwrap()),
        "6d6cce402a4781374ecd245f183fe482d2d3213309bbad0b69a33e39fff99b0b",
        "checkpoint bytes moved"
    );
    assert_eq!(
        sha(&goldfish_serve::durability::audit_path(&dir)),
        "cffb62f45717dee84e077e9d41c8a2414dd77d380cdeb1321a4b9cb0fcc64c69",
        "audit-log bytes moved"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit streams its checkpoint: the shard section is hashed and
/// written one shard state at a time. Over a map whose section spans
/// many spills (5 clients × τ = 4 states, tombstones, shard tasks and a
/// pending queue) the file must equal what the in-memory encoder writes,
/// recover bit for bit, and fail a flipped byte inside the section as a
/// typed checksum error.
#[test]
fn streamed_shard_checkpoint_recovers_bitwise_and_fails_a_flip_closed() {
    use goldfish_serve::coordinator::DrainStats;
    use goldfish_serve::digest::DIGEST_LEN;
    use goldfish_serve::durability::Checkpoint;
    use goldfish_serve::shard::ShardMap;

    let dir = tmp_dir("shard-stream");
    let state = |seed: usize| -> Vec<f32> {
        (0..300)
            .map(|i| ((i * 7 + seed * 13) % 101) as f32 * 0.37 - 11.0)
            .collect()
    };
    let policy = ShardPolicy {
        tau: 4,
        group: 2,
        deadline_ms: 250,
    };
    let mut map = ShardMap::new(policy, &[23, 17, 30, 9, 12], &state(0));
    map.apply_retrain(0, 1, state(1), &[1, 5, 9]);
    map.apply_retrain(2, 3, state(2), &[3, 27]);
    map.apply_retrain(4, 0, state(3), &[8, 0, 4]);
    let tasks = vec![
        ShardTask::new(1, 2, vec![6, 2]),
        ShardTask::new(3, 0, vec![4]),
    ];
    let pending = vec![
        UnlearnRequest::new(0, vec![11, 2]),
        UnlearnRequest::new(3, vec![1]),
    ];
    let global = state(9);
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    store
        .commit_round(
            5,
            &global,
            &pending,
            Some(&map.snapshot(&tasks)),
            DrainStats::default(),
        )
        .unwrap();
    drop(store);

    let path = checkpoints(&dir).pop().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let decoded = Checkpoint::from_bytes(&bytes, "streamed").unwrap();
    assert_eq!(
        decoded.to_bytes(),
        bytes,
        "file and in-memory encoder differ"
    );
    // Spill by spill, as a commit streams it: the pending queue, every
    // shard state on its own, the section's tail; the global rides last.
    let (mut buf, mut streamed, mut spills, mut largest) = (Vec::new(), Vec::new(), 0, 0);
    decoded
        .encode_with(&mut buf, &mut |b: &mut Vec<u8>| {
            spills += 1;
            largest = largest.max(b.len());
            streamed.extend_from_slice(b);
            b.clear();
            Ok::<(), ()>(())
        })
        .unwrap();
    streamed.extend_from_slice(&buf);
    assert_eq!(streamed, bytes[..bytes.len() - DIGEST_LEN]);
    assert_eq!(spills, 1 + 5 * policy.tau + 1);
    let state_bytes = 8 + 4 * global.len();
    assert!(largest < 2 * state_bytes, "a spill of {largest} B");
    // The section sits between the presence flag and the global state,
    // byte for byte what the snapshot's own encoder writes.
    let mut section = Vec::new();
    map.snapshot(&tasks).encode_into(&mut section);
    let end = bytes.len() - DIGEST_LEN - (8 + 4 * global.len());
    let start = end - section.len();
    assert_eq!(bytes[start - 1], 1, "shard presence flag");
    assert_eq!(&bytes[start..end], &section[..]);

    let (store, recovered) = DurableStore::open(&dir).unwrap();
    drop(store);
    assert_eq!(recovered.round_next, 5);
    assert_eq!(recovered.pending, pending);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&recovered.global), bits(&global));
    let mut snap = recovered.shard.expect("shard section");
    assert_eq!(std::mem::take(&mut snap.tasks), tasks);
    let restored = ShardMap::restore(snap);
    assert_eq!(restored.policy(), map.policy());
    assert_eq!(restored.num_clients(), map.num_clients());
    for id in 0..map.num_clients() {
        let (got, want) = (restored.client(id), map.client(id));
        assert_eq!(got.original_len, want.original_len, "client {id}");
        assert_eq!(got.removed, want.removed, "client {id} tombstones");
        assert_eq!(got.model.sizes(), want.model.sizes(), "client {id} sizes");
        for shard in 0..policy.tau {
            assert_eq!(
                bits(got.model.shard_state(shard)),
                bits(want.model.shard_state(shard)),
                "client {id} shard {shard}"
            );
        }
    }

    let mut flipped = bytes.clone();
    flipped[(start + end) / 2] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let err = DurableStore::open(&dir)
        .err()
        .expect("a flipped byte must not recover");
    assert!(
        matches!(err, DurabilityError::CheckpointChecksum { .. }),
        "{err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state dir whose committed deletions name rows the data does not hold
/// (a restart over smaller data) is a typed refusal naming the client,
/// the row and the size — never a panic — and nothing is applied.
#[test]
fn committed_deletion_past_the_data_is_typed() {
    let dir = tmp_dir("rows-past-data");
    populate(&dir); // client 0 deleted its rows 0..4 of 40
    let small = DemoSpec {
        samples_per_client: 3,
        ..spec()
    };
    let mut c = coordinator(&small);
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert_eq!(
        c.attach_durability(store, recovered),
        Err(RecoveryError::Removal(RowOutOfRange {
            client_id: 0,
            row: 3,
            len: 3
        }))
    );
    assert_eq!(c.next_round(), 0);
    assert_eq!(c.transport().client_sizes(), vec![3, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}
