//! Crash-kill-restart: a coordinator killed mid-run and restarted from
//! its state directory resumes the **exact** round stream — recovered
//! globals are bitwise identical to an uninterrupted run's, no accepted
//! unlearning request is ever lost, and the audit chain comes out
//! byte-identical.
//!
//! The kills are injected with [`FaultyTransport`] (seeded,
//! deterministic), both mid-round and mid-drain, over loopback and over
//! real TCP with workers that reconnect and resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_serve::audit;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::fault::{FaultPlan, FaultyTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::LoopbackTransport;
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::{serve_stream, WorkerRuntime};

const SEED: u64 = 7;
const ROUNDS: usize = 3;

fn spec() -> DemoSpec {
    DemoSpec {
        clients: 2,
        samples_per_client: 60,
        test_samples: 30,
        seed: 8,
    }
}

fn config(spec: &DemoSpec) -> CoordinatorConfig {
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
}

fn request() -> UnlearnRequest {
    UnlearnRequest::new(0, (0..6).collect())
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goldfish-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn loopback_coordinator(
    spec: &DemoSpec,
    plan: FaultPlan,
) -> Coordinator<FaultyTransport<LoopbackTransport>> {
    let inner = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
    Coordinator::new(
        spec.factory(),
        spec.test_set(),
        FaultyTransport::new(inner, plan),
        config(spec),
    )
}

/// The uninterrupted reference run (durability on, no faults): per-run
/// outputs every recovery scenario must reproduce bitwise.
struct Baseline {
    global: Vec<f32>,
    round_accuracies: Vec<f64>,
    unlearn_requests: Vec<Vec<UnlearnRequest>>,
    audit_bytes: Vec<u8>,
}

fn baseline(dir: &Path) -> Baseline {
    let spec = spec();
    let mut c = loopback_coordinator(&spec, FaultPlan::new());
    let (store, recovered) = DurableStore::open(dir).unwrap();
    assert!(!recovered.resumed);
    c.attach_durability(store, recovered).unwrap();
    c.submit_unlearn(request()).unwrap();
    let summary = c.run(ROUNDS, SEED).unwrap();
    Baseline {
        global: c.global_state().to_vec(),
        round_accuracies: summary.rounds.iter().map(|r| r.global_accuracy).collect(),
        unlearn_requests: summary
            .unlearns
            .iter()
            .map(|u| u.requests.clone())
            .collect(),
        audit_bytes: std::fs::read(audit_path(dir)).unwrap(),
    }
}

/// Bits, not approximate equality: the recovered stream must be the
/// same stream.
fn assert_global_bits(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "global diverges at param {i}");
    }
}

#[test]
fn durability_does_not_perturb_the_run() {
    let dir = tmp_dir("noop");
    let base = baseline(&dir);
    // The same schedule with no durability at all.
    let spec = spec();
    let mut plain = loopback_coordinator(&spec, FaultPlan::new());
    plain.submit_unlearn(request()).unwrap();
    let summary = plain.run(ROUNDS, SEED).unwrap();
    assert_global_bits(plain.global_state(), &base.global);
    assert_eq!(
        summary
            .rounds
            .iter()
            .map(|r| r.global_accuracy)
            .collect::<Vec<_>>(),
        base.round_accuracies
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One crash-kill-restart scenario over loopback: kill under `plan`,
/// recover into a fresh transport, finish the run, compare everything
/// bitwise against the uninterrupted baseline.
fn crash_and_recover(name: &str, plan: FaultPlan, expect_overdue_drain: bool) {
    let base_dir = tmp_dir(&format!("{name}-base"));
    let base = baseline(&base_dir);

    let dir = tmp_dir(name);
    let spec = spec();

    // --- the doomed run ---------------------------------------------------
    let mut doomed = loopback_coordinator(&spec, plan);
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    doomed.attach_durability(store, recovered).unwrap();
    doomed.submit_unlearn(request()).unwrap();
    let err = doomed.run(ROUNDS, SEED).unwrap_err();
    assert!(
        err.to_string().contains("fault injection"),
        "expected an injected kill, got: {err}"
    );
    assert!(doomed.transport().killed());
    drop(doomed); // the crash: in-memory state is gone

    // --- recovery ---------------------------------------------------------
    let mut recovered_c = loopback_coordinator(&spec, FaultPlan::new());
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    assert!(!recovered.fell_back);
    // No accepted request is ever lost: the submit is either already in
    // the audit chain (served) or still pending/replayed.
    let visible = recovered.pending.len() + recovered.replayed.len() + recovered.served.len();
    assert!(
        visible >= 1,
        "the accepted request vanished across the crash"
    );
    recovered_c.attach_durability(store, recovered).unwrap();
    assert_eq!(recovered_c.has_overdue_drain(), expect_overdue_drain);
    let resumed_summary = recovered_c.run(ROUNDS, SEED).unwrap();

    // --- bitwise comparison ----------------------------------------------
    assert_global_bits(recovered_c.global_state(), &base.global);
    // The resumed summary covers the tail of the stream; every entry it
    // has must match the baseline's corresponding slot exactly.
    let done_before = ROUNDS - resumed_summary.rounds.len();
    for (i, r) in resumed_summary.rounds.iter().enumerate() {
        assert_eq!(r.round, done_before + i);
        assert_eq!(r.global_accuracy, base.round_accuracies[done_before + i]);
    }
    let served: Vec<Vec<UnlearnRequest>> = resumed_summary
        .unlearns
        .iter()
        .map(|u| u.requests.clone())
        .collect();
    let base_tail: Vec<Vec<UnlearnRequest>> = base
        .unlearn_requests
        .iter()
        .skip(base.unlearn_requests.len() - served.len())
        .cloned()
        .collect();
    assert_eq!(served, base_tail);
    // The audit chain ends up byte-identical to the uninterrupted run's.
    assert_eq!(std::fs::read(audit_path(&dir)).unwrap(), base.audit_bytes);

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_mid_run_between_rounds_recovers_bitwise() {
    // Ops: 0 = train r0, 1 = begin_unlearn, 2 = distill, 3 = train r1.
    // Kill before op 3: the drain committed, round 1 never ran.
    crash_and_recover("mid-run", FaultPlan::new().kill_before_at(3), false);
}

#[test]
fn kill_mid_drain_recovers_bitwise() {
    // Kill before op 2 (the distill round): the batch was staged and
    // shipped but never committed — recovery must re-drain it at the
    // original seed slot.
    crash_and_recover("mid-drain", FaultPlan::new().kill_before_at(2), true);
}

#[test]
fn kill_right_after_begin_unlearn_recovers_bitwise() {
    // Kill *after* op 1 completes on the inner transport: deletions are
    // applied worker-side, the coordinator dies before any distill
    // round. The re-drain ships the same batch to the restarted
    // loopback, whose stores hold the registered rows again.
    crash_and_recover("post-stage", FaultPlan::new().kill_after_at(1), true);
}

#[test]
fn tampered_audit_chain_is_detected() {
    let dir = tmp_dir("tamper");
    let _ = baseline(&dir);
    let path = audit_path(&dir);
    let clean = std::fs::read(&path).unwrap();
    assert!(audit::verify_file(&path).is_ok());
    // Flip one byte past the header — exactly what --verify-audit must
    // catch.
    let mut bytes = clean.clone();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(audit::verify_file(&path).is_err());
    std::fs::write(&path, &clean).unwrap();
    assert!(audit::verify_file(&path).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full networked scenario: the coordinator process "dies" mid-drain
/// (transport dropped, sockets gone), workers outlive it, reconnect with
/// resume tokens, and the restarted coordinator finishes the run —
/// bitwise identical to an uninterrupted loopback run. The re-shipped
/// deletion batch removes nothing more worker-side: each worker's row
/// store still holds that drain's forget rows, because no training
/// round came between.
#[test]
fn tcp_crash_restart_with_worker_rejoin_resumes_bitwise() {
    let spec = DemoSpec {
        clients: 2,
        samples_per_client: 40,
        test_samples: 20,
        seed: 8,
    };
    let rounds = 2;
    let req = UnlearnRequest::new(0, (0..6).collect());

    // Uninterrupted loopback reference.
    let mut base = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2)),
        config(&spec),
    );
    base.submit_unlearn(req.clone()).unwrap();
    let base_summary = base.run(rounds, SEED).unwrap();
    let base_global = base.global_state().to_vec();

    let dir = tmp_dir("tcp");
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Workers that outlive the coordinator: serve a session, and when
    // the connection dies, rejoin (Hello then carries the resume token).
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let limits = FrameLimits::default();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(stream) = std::net::TcpStream::connect(&addr) {
                        let _ = serve_stream(stream, &mut rt, &limits);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                rt
            })
        })
        .collect();

    let state_len = (spec.factory())(0).state_len();
    let tcp_cfg = TcpConfig {
        read_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };

    // Incarnation 1: dies right after shipping the deletion batch
    // (killed after begin_unlearn completes — workers have already
    // applied the deletion and acked, nothing is committed).
    {
        let tcp = TcpTransport::accept(&listener, spec.clients, state_len, tcp_cfg).unwrap();
        let faulty = FaultyTransport::new(tcp, FaultPlan::new().kill_after_at(1));
        let mut c1 = Coordinator::new(spec.factory(), spec.test_set(), faulty, config(&spec));
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c1.attach_durability(store, recovered).unwrap();
        c1.train_round(0, round_seed(SEED, 0)).unwrap();
        c1.submit_unlearn(req.clone()).unwrap();
        let err = c1.drain_unlearning(drain_seed(SEED, 0)).unwrap_err();
        assert!(err.to_string().contains("fault injection"));
        // c1 drops here: every worker connection closes abruptly.
    }

    // Incarnation 2: fresh process, same state dir, same listener port.
    // Workers rejoin through the ordinary accept handshake.
    let tcp = TcpTransport::accept(&listener, spec.clients, state_len, tcp_cfg).unwrap();
    let mut c2 = Coordinator::new(spec.factory(), spec.test_set(), tcp, config(&spec));
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    assert_eq!(recovered.round_next, 1);
    assert_eq!(
        recovered.pending.len() + recovered.replayed.len(),
        1,
        "the accepted request must survive the crash"
    );
    c2.attach_durability(store, recovered).unwrap();
    assert!(c2.has_overdue_drain());
    let summary = c2.run(rounds, SEED).unwrap();

    // The resumed stream: the overdue drain (re-shipped; the workers'
    // stores remove nothing more and still hold its forget rows) and
    // round 1.
    assert_eq!(summary.unlearns.len(), 1);
    assert_eq!(
        summary.unlearns[0].requests,
        base_summary.unlearns[0].requests
    );
    assert_eq!(summary.rounds.len(), 1);
    assert_eq!(
        summary.rounds[0].global_accuracy,
        base_summary.rounds[1].global_accuracy
    );
    assert_global_bits(c2.global_state(), &base_global);
    assert!(audit::verify_file(&audit_path(&dir)).is_ok());

    stop.store(true, Ordering::Relaxed);
    drop(c2);
    drop(listener);
    for w in workers {
        let rt = w.join().unwrap();
        // Each worker reconnected at least once and carries a resume
        // token from its last answered round.
        assert!(rt.last_round().is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that answers a frame and then vanishes mid-frame must
/// surface as the typed `Disconnected`, not as a protocol error or a
/// clean shutdown (regression: mid-frame EOF used to be conflated with
/// the coordinator's shutdown signal).
#[test]
fn mid_frame_eof_is_a_typed_disconnect() {
    use goldfish_fed::transport::{RoundMode, RoundTransport, TrainAssign, TransportError};
    use goldfish_serve::wire::{encode_frame_into, read_frame, write_frame, Msg};
    use std::io::Write;

    let spec = spec();
    let state_len = (spec.factory())(0).state_len();
    let (listener, addr) = bind("127.0.0.1:0").unwrap();

    // A fake worker: completes the handshake, then answers the round
    // assignment with *half* an Update frame and dies.
    let half_frame = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let limits = FrameLimits::default();
        let hello = Msg::Hello {
            client_id: 0,
            state_len: state_len as u64,
            num_samples: 40,
            resume: None,
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        let _ = read_frame(&mut stream, &limits).unwrap(); // Capabilities
        let _ = read_frame(&mut stream, &limits).unwrap(); // RoundAssign
        let mut frame = Vec::new();
        encode_frame_into(
            &Msg::Update {
                round: 0,
                client_id: 0,
                weight: 40,
                nonce: 0,
                state: vec![0.0; state_len],
            },
            &mut frame,
            &limits,
        )
        .unwrap();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.flush().unwrap();
        // Drop: the other half never arrives.
    });

    let tcp_cfg = TcpConfig {
        read_timeout: Duration::from_secs(10),
        ..TcpConfig::default()
    };
    let mut tcp = TcpTransport::accept(&listener, 1, state_len, tcp_cfg).unwrap();
    let cfg = spec.train_config();
    let global = vec![0.0f32; state_len];
    let mut results = Vec::new();
    tcp.train_round(
        &TrainAssign {
            mode: RoundMode::Train,
            round: 0,
            seed: 1,
            nonce: goldfish_fed::transport::round_nonce(1, 0),
            global: &global,
            cfg: &cfg,
        },
        &[(0, 40)],
        &mut |_| Ok(()),
        &mut results,
    );
    assert_eq!(results.len(), 1);
    match &results[0] {
        Err(TransportError::Disconnected {
            client_id: 0,
            reason,
        }) => {
            assert!(
                reason.contains("mid-frame"),
                "disconnect reason should identify the torn frame, got: {reason}"
            );
        }
        other => panic!("expected a mid-frame Disconnected, got {other:?}"),
    }
    half_frame.join().unwrap();
}
