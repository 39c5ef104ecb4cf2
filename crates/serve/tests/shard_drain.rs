//! Shard-isolated unlearning (DESIGN.md §16): the coordinator's shard
//! drain is pinned bitwise against the core shard primitives, a
//! scripted straggler's tasks commit degraded (parity reconstruction +
//! delegation) to the *same bits* as a healthy drain, deadline expiry
//! commits partial progress and re-enqueues the remainder, bounded
//! queues reject with the typed `QueueFull` in both modes, and a
//! coordinator killed mid-shard-drain recovers the exact stream from
//! its WAL.

use std::path::PathBuf;
use std::sync::Arc;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_serve::audit::{self, audit_kind};
use goldfish_serve::coordinator::{
    drain_seed, round_seed, Coordinator, CoordinatorConfig, SubmitError,
};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::{ShardMap, ShardPolicy};
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_telemetry::clock::Clock;
use goldfish_telemetry::events::Trace;

const SEED: u64 = 11;
const TAU: usize = 4;

fn spec() -> DemoSpec {
    DemoSpec {
        clients: 4,
        samples_per_client: 40,
        test_samples: 20,
        seed: 9,
    }
}

fn policy(deadline_ms: u64) -> ShardPolicy {
    ShardPolicy {
        tau: TAU,
        group: 2,
        deadline_ms,
    }
}

fn config(spec: &DemoSpec, deadline_ms: u64) -> CoordinatorConfig {
    CoordinatorConfig {
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
    }
    .with_shards(policy(deadline_ms))
}

fn coordinator(
    spec: &DemoSpec,
    plan: FaultPlan,
    cfg: CoordinatorConfig,
) -> Coordinator<FaultyTransport<LoopbackTransport>> {
    let inner = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
    Coordinator::new(
        spec.factory(),
        spec.test_set(),
        FaultyTransport::new(inner, plan),
        cfg,
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goldfish-shard-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what} diverges at param {i}");
    }
}

/// The drain's retrain + fold, recomputed in the test from the core
/// primitives ([`ShardMap`] arithmetic + `retrain_shard`): one deletion
/// confined to one shard, checked bitwise against the coordinator.
#[test]
fn shard_drain_matches_core_primitives_bitwise() {
    let spec = spec();
    let mut c = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    let before_drain = c.global_state().to_vec();
    // Rows 0 and 4 both live in shard 0 of client 1 (row % τ).
    c.submit_unlearn(UnlearnRequest::new(1, vec![0, 4]))
        .unwrap();
    let summary = c.drain_shard_tasks(drain_seed(SEED, 0)).unwrap().unwrap();
    assert_eq!(summary.completed, vec![(1, 0)]);
    assert!(summary.degraded.is_empty());
    assert_eq!(summary.requeued, 0);

    // Oracle: replicate from the primitives. The shard map is
    // deterministic in (policy, registry sizes, init seed).
    let factory = spec.factory();
    let init = (factory)(1).state_vector();
    let lens = vec![spec.samples_per_client; spec.clients];
    let mut map = ShardMap::new(policy(0), &lens, &init);
    let keep = map.keep_rows(1, 0, &[0, 4]);
    let ckpt = map.checkpoint_for(1, 0);
    let task_seed = drain_seed(SEED, 0).wrapping_add(1u64 << 32).wrapping_add(1);
    let state = goldfish_core::optimization::retrain_shard(
        &factory,
        &spec.train_config(),
        &ckpt,
        &spec.client_shard(1).subset(&keep),
        task_seed,
    );
    let before = map.client_aggregate(1);
    map.apply_retrain(1, 0, state, &[0, 4]);
    let after = map.client_aggregate(1);
    let total: usize = (0..spec.clients).map(|c| map.remaining(c)).sum();
    let w = map.remaining(1) as f32 / total as f32;
    let mut expect = before_drain;
    for ((e, &a), &b) in expect.iter_mut().zip(after.iter()).zip(before.iter()) {
        *e += w * (a - b);
    }
    assert_bits(c.global_state(), &expect, "oracle");

    // Tombstones stick: re-submitting the same rows routes to nothing
    // (idempotent no-op), and the datasets themselves never shrank.
    c.submit_unlearn(UnlearnRequest::new(1, vec![0, 4]))
        .unwrap();
    assert!(c.shard_tasks().is_empty());
    assert_eq!(
        c.transport().client_sizes(),
        vec![spec.samples_per_client; spec.clients]
    );
}

/// Splitting one deletion across several submits merges per
/// (client, shard) in the queue and drains to the same bits as the
/// whole request submitted at once.
#[test]
fn split_submits_merge_and_drain_to_the_same_bits() {
    let spec = spec();
    let rows: Vec<usize> = vec![0, 1, 2, 5, 9];

    let mut whole = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    whole.train_round(0, round_seed(SEED, 0)).unwrap();
    whole
        .submit_unlearn(UnlearnRequest::new(2, rows.clone()))
        .unwrap();
    whole
        .drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();

    let mut split = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    split.train_round(0, round_seed(SEED, 0)).unwrap();
    for chunk in rows.chunks(2) {
        split
            .submit_unlearn(UnlearnRequest::new(2, chunk.to_vec()))
            .unwrap();
    }
    // Rows {0,1,2,5,9} touch shards {0,1,2}; rows 1, 5 and 9 all merged
    // into the shard-1 task.
    assert_eq!(split.shard_tasks().len(), 3);
    // Those two merges reach the exported counter (it read 0 in shard
    // mode); submits stay one per request, not per routed task.
    let t = split.telemetry();
    assert_eq!(
        (
            t.unlearn_merged_total.get(),
            t.unlearn_submitted_total.get()
        ),
        (2, 3)
    );
    let summary = split
        .drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();
    assert_eq!(summary.completed.len(), 3);

    assert_bits(split.global_state(), whole.global_state(), "split vs whole");
}

/// A straggling owner past the deadline is bypassed: its shard states
/// reconstruct from XOR parity (bitwise exact) and a seeded healthy
/// group member retrains — the drain commits *identical bits* to the
/// healthy run, with the degraded verdict in the audit chain and the
/// reconstruction visible in the metric catalog.
#[test]
fn degraded_drain_commits_the_same_bits_as_a_healthy_one() {
    let spec = spec();
    let req = || UnlearnRequest::new(1, vec![0, 1, 6]);

    let mut healthy = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    healthy.train_round(0, round_seed(SEED, 0)).unwrap();
    healthy.submit_unlearn(req()).unwrap();
    let h = healthy
        .drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();
    assert!(h.degraded.is_empty());

    let dir = tmp_dir("degraded");
    let telemetry = Arc::new(ServeTelemetry::new(Clock::system(), Trace::disabled()));
    let plan = FaultPlan::new().byzantine(1, ByzantineScript::Straggle { ms: 500 });
    let mut lame = coordinator(
        &spec,
        plan,
        config(&spec, 400).with_telemetry(telemetry.clone()),
    );
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    lame.attach_durability(store, recovered).unwrap();
    lame.train_round(0, round_seed(SEED, 0)).unwrap();
    lame.submit_unlearn(req()).unwrap();
    let d = lame
        .drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();

    // Owner 1's group is {0, 1}; the seeded delegate can only be 0.
    assert_eq!(d.completed.len(), h.completed.len());
    assert_eq!(d.degraded.len(), d.completed.len());
    assert!(d
        .degraded
        .iter()
        .all(|&(owner, _, delegate)| { owner == 1 && delegate == 0 }));
    assert_bits(lame.global_state(), healthy.global_state(), "degraded");
    assert_eq!(
        telemetry.shard_reconstructions_total.get(),
        d.degraded.len() as u64
    );
    assert_eq!(
        telemetry.shard_degraded_drains_total.get(),
        d.degraded.len() as u64
    );

    // The audit chain carries one DEGRADED_DRAIN verdict per bypassed
    // task, detail = [shard, delegate].
    let summary = audit::verify_file(&audit_path(&dir)).unwrap();
    let verdicts: Vec<_> = summary
        .entries
        .iter()
        .filter(|e| e.kind == audit_kind::DEGRADED_DRAIN)
        .collect();
    assert_eq!(verdicts.len(), d.degraded.len());
    for v in verdicts {
        assert_eq!(v.client_id, 1);
        assert_eq!(v.detail[1], 0, "delegate in the verdict detail");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deadline too tight for the whole batch commits what fits and
/// re-enqueues the remainder at the *front*; the next drain finishes
/// it. Lateness below the bypass threshold is budgeted, not degraded.
#[test]
fn deadline_commits_partial_progress_and_requeues_the_rest() {
    let spec = spec();
    // Every executor is 400 ms late — under the 1000 ms bypass bar, so
    // owners run their own tasks, but only two fit the budget
    // (400 + 400 = 800; a third would reach 1200).
    let plan = FaultPlan::new().byzantine(3, ByzantineScript::Straggle { ms: 400 });
    let mut c = coordinator(&spec, plan, config(&spec, 1000));
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    // Rows 0..4 of client 3: one task per shard, four tasks.
    c.submit_unlearn(UnlearnRequest::new(3, vec![0, 1, 2, 3]))
        .unwrap();
    assert_eq!(c.shard_tasks().len(), 4);

    let first = c.drain_shard_tasks(drain_seed(SEED, 0)).unwrap().unwrap();
    assert_eq!(first.completed.len(), 2);
    assert!(first.degraded.is_empty());
    assert_eq!(first.requeued, 2);
    assert_eq!(c.shard_tasks().len(), 2);

    let second = c.drain_shard_tasks(drain_seed(SEED, 1)).unwrap().unwrap();
    assert_eq!(second.completed.len(), 2);
    assert_eq!(second.requeued, 0);
    assert!(c.shard_tasks().is_empty());

    // All four shards are tombstoned: the same rows route to nothing.
    c.submit_unlearn(UnlearnRequest::new(3, vec![0, 1, 2, 3]))
        .unwrap();
    assert!(c.shard_tasks().is_empty());
}

/// `--max-queue-depth` rejects with the typed `QueueFull` in both
/// modes — but never rejects a merge into an already-pending entry.
#[test]
fn queue_full_is_typed_and_never_rejects_merges() {
    let spec = spec();
    // Shard mode: depth counts pending shard tasks.
    let mut c = coordinator(
        &spec,
        FaultPlan::new(),
        config(&spec, 0).with_max_queue_depth(1),
    );
    c.submit_unlearn(UnlearnRequest::new(0, vec![0])).unwrap();
    assert_eq!(c.shard_tasks().len(), 1);
    // Row 4 lands in the same (client 0, shard 0) pending task: merge.
    c.submit_unlearn(UnlearnRequest::new(0, vec![4])).unwrap();
    assert_eq!(c.shard_tasks().len(), 1);
    // Row 1 would be a fresh task for shard 1: over the limit.
    match c.submit_unlearn(UnlearnRequest::new(0, vec![1])) {
        Err(SubmitError::QueueFull { depth: 1, limit: 1 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Plain mode: depth counts pending whole-client requests.
    let plain_cfg = CoordinatorConfig {
        train: spec.train_config(),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(2),
        ..CoordinatorConfig::default()
    }
    .with_max_queue_depth(1);
    let mut p = coordinator(&spec, FaultPlan::new(), plain_cfg);
    p.submit_unlearn(UnlearnRequest::new(0, vec![0])).unwrap();
    match p.submit_unlearn(UnlearnRequest::new(1, vec![0])) {
        Err(SubmitError::QueueFull { depth: 1, limit: 1 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Client 0 already has a pending entry: its resubmit merges.
    p.submit_unlearn(UnlearnRequest::new(0, vec![1])).unwrap();
}

/// A coordinator killed mid-shard-drain (some retrains done, nothing
/// committed) restarts from its state directory and replays the whole
/// batch from the WAL — final global bitwise identical to an
/// uninterrupted run, datasets untouched, queue drained.
#[test]
fn kill_mid_shard_drain_recovers_bitwise() {
    let spec = spec();
    let rows: Vec<usize> = vec![0, 1, 2, 3];

    // Uninterrupted reference (durability on, for the audit bytes).
    let base_dir = tmp_dir("base");
    let mut base = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    let (store, recovered) = DurableStore::open(&base_dir).unwrap();
    base.attach_durability(store, recovered).unwrap();
    base.submit_unlearn(UnlearnRequest::new(0, rows.clone()))
        .unwrap();
    base.run(2, SEED).unwrap();
    let base_global = base.global_state().to_vec();
    let base_audit = std::fs::read(audit_path(&base_dir)).unwrap();

    // Ops on the transport: 0 = train r0, 1..=4 = the four shard
    // retrains. Kill before op 3: two tasks retrained in memory, the
    // drain never committed.
    let dir = tmp_dir("kill");
    let mut doomed = coordinator(&spec, FaultPlan::new().kill_before_at(3), config(&spec, 0));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    doomed.attach_durability(store, recovered).unwrap();
    doomed
        .submit_unlearn(UnlearnRequest::new(0, rows.clone()))
        .unwrap();
    let err = doomed.run(2, SEED).unwrap_err();
    assert!(err.to_string().contains("fault injection"), "{err}");
    drop(doomed);

    let mut rec = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    // The accepted deletion survived the crash: pre-checkpoint tasks
    // ride in the checkpoint's shard section, post-checkpoint ones
    // replay from the WAL.
    let persisted =
        recovered.replayed_shard.len() + recovered.shard.as_ref().map_or(0, |s| s.tasks.len());
    assert_eq!(persisted, 4);
    rec.attach_durability(store, recovered).unwrap();
    assert!(rec.has_overdue_drain());
    assert_eq!(rec.shard_tasks().len(), 4);
    rec.run(2, SEED).unwrap();

    assert_bits(rec.global_state(), &base_global, "recovered");
    assert_eq!(std::fs::read(audit_path(&dir)).unwrap(), base_audit);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard submit is durable before it is acknowledged: a coordinator
/// that dies right after `submit_unlearn` — before any checkpoint ever
/// commits — replays the routed tasks from the WAL on restart.
#[test]
fn shard_submit_is_durable_before_any_checkpoint() {
    let spec = spec();
    let dir = tmp_dir("wal-only");
    let mut first = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    first.attach_durability(store, recovered).unwrap();
    first
        .submit_unlearn(UnlearnRequest::new(0, vec![0, 1, 2, 3]))
        .unwrap();
    drop(first); // dies before any round or drain commits

    let mut rec = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(!recovered.resumed, "nothing was ever committed");
    assert_eq!(recovered.replayed_shard.len(), 4);
    rec.attach_durability(store, recovered).unwrap();
    assert_eq!(rec.shard_tasks().len(), 4);

    // The replayed run equals one that never crashed at all.
    let mut base = coordinator(&spec, FaultPlan::new(), config(&spec, 0));
    base.submit_unlearn(UnlearnRequest::new(0, vec![0, 1, 2, 3]))
        .unwrap();
    base.run(1, SEED).unwrap();
    rec.run(1, SEED).unwrap();
    assert_bits(rec.global_state(), base.global_state(), "wal-only");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *between* a partial commit and the next drain resumes with
/// the re-queued remainder in the recovered checkpoint (the shard
/// section round-trips through GFCK v2) and finishes to the same bits
/// as a restart-free run.
#[test]
fn restart_after_partial_commit_resumes_the_requeued_remainder() {
    let spec = spec();
    let plan = || FaultPlan::new().byzantine(3, ByzantineScript::Straggle { ms: 400 });

    // Restart-free reference: two manual drains.
    let mut base = coordinator(&spec, plan(), config(&spec, 1000));
    base.train_round(0, round_seed(SEED, 0)).unwrap();
    base.submit_unlearn(UnlearnRequest::new(3, vec![0, 1, 2, 3]))
        .unwrap();
    base.drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();
    base.drain_shard_tasks(drain_seed(SEED, 1))
        .unwrap()
        .unwrap();

    // Durable run: partial drain commits (2 done, 2 re-queued), then
    // the process "dies" (dropped) before the second drain.
    let dir = tmp_dir("partial");
    let mut first = coordinator(&spec, plan(), config(&spec, 1000));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    first.attach_durability(store, recovered).unwrap();
    first.train_round(0, round_seed(SEED, 0)).unwrap();
    first
        .submit_unlearn(UnlearnRequest::new(3, vec![0, 1, 2, 3]))
        .unwrap();
    let partial = first
        .drain_shard_tasks(drain_seed(SEED, 0))
        .unwrap()
        .unwrap();
    assert_eq!(partial.requeued, 2);
    drop(first);

    let mut rec = coordinator(&spec, plan(), config(&spec, 1000));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    let snap = recovered.shard.as_ref().expect("shard section recovered");
    assert_eq!(snap.tasks.len(), 2, "re-queued remainder in the snapshot");
    rec.attach_durability(store, recovered).unwrap();
    assert_eq!(rec.shard_tasks().len(), 2);
    let second = rec.drain_shard_tasks(drain_seed(SEED, 1)).unwrap().unwrap();
    assert_eq!(second.completed.len(), 2);

    assert_bits(rec.global_state(), base.global_state(), "partial-resume");
    let _ = std::fs::remove_dir_all(&dir);
}
