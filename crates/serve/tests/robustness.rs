//! The ISSUE-7 Byzantine-robustness suite (DESIGN.md §13).
//!
//! 1. **Zero-attacker identity**: every robust aggregation mode and the
//!    quorum path at 100% participation reproduce the plain streaming
//!    mean bitwise, at any thread count (fed's determinism proptests pin
//!    the arrival-order half of the claim at the accumulator level).
//! 2. **Typed duplicates**: a double-sent `Update` surfaces as the typed
//!    `DuplicateUpdate` verdict — never a panic, never silently folded
//!    twice — on both the loopback and the TCP transport.
//! 3. **Attack runs**: scripted Byzantine workers (scaled updates, stale
//!    nonces, replays) are struck and quarantined within the strike
//!    budget, the robust folds keep global drift bounded, and every
//!    verdict lands in the verified hash-chained audit log.
//! 4. **Drains**: distillation uploads pass the same admission layer —
//!    a violator sits out the round's re-round, and a drain nothing
//!    survives fails typed and keeps the teacher — while Byzantine
//!    scripts, which stand in for hostile training uploads, never touch
//!    a distillation round.

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::{GoldfishUnlearning, UnlearnServer};
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::transport::{RobustConfig, RobustnessEvent, RoundRuntime, UpdateViolation};
use goldfish_serve::audit::{self, audit_kind};
use goldfish_serve::coordinator::{round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::{run_worker, WorkerRuntime};

const SEED: u64 = 42;

fn demo(clients: usize) -> DemoSpec {
    DemoSpec {
        clients,
        samples_per_client: 24,
        test_samples: 20,
        seed: 19,
    }
}

fn config(spec: &DemoSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: spec.train_config(),
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 1,
            batch_size: 12,
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

fn coordinator(
    spec: &DemoSpec,
    cfg: CoordinatorConfig,
    plan: FaultPlan,
) -> Coordinator<FaultyTransport<LoopbackTransport>> {
    let transport = FaultyTransport::new(
        LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2)),
        plan,
    );
    Coordinator::new(spec.factory(), spec.test_set(), transport, cfg)
}

fn run_rounds<T: ServeTransport>(c: &mut Coordinator<T>, rounds: usize) {
    for r in 0..rounds {
        c.train_round_hot(r, round_seed(SEED, r)).unwrap();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn zero_attacker_robust_modes_match_mean_bitwise() {
    let spec = demo(5);
    let reference = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, 3);
        bits(c.global_state())
    };
    // Identity modes, the full-participation quorum path, and every
    // thread count reproduce the reference exactly.
    let variants: Vec<(&str, CoordinatorConfig)> = vec![
        (
            "trimmed:0",
            config(&spec).with_aggregation(AggregationMode::TrimmedMean { trim: 0 }),
        ),
        (
            "normclip (untriggered)",
            config(&spec).with_aggregation(AggregationMode::NormClipped { limit: 1e9 }),
        ),
        (
            "quorum 0.6 at full participation",
            config(&spec).with_quorum(0.6),
        ),
        (
            "strike budget armed, nobody lying",
            config(&spec).with_max_strikes(2),
        ),
    ];
    for (label, cfg) in variants {
        for threads in [1usize, 4] {
            let mut cfg = cfg.clone();
            cfg.threads = Some(threads);
            let mut c = coordinator(&spec, cfg, FaultPlan::new());
            run_rounds(&mut c, 3);
            assert_eq!(
                bits(c.global_state()),
                reference,
                "{label} with {threads} thread(s) diverged from the plain mean"
            );
            assert!(c.robustness_log().is_empty(), "{label}: phantom verdicts");
            assert!(!c.last_round_outcome().degraded, "{label}: phantom quorum");
        }
    }
}

#[test]
fn duplicate_update_is_typed_on_loopback() {
    let spec = demo(4);
    let plan = FaultPlan::new().byzantine(2, ByzantineScript::Duplicate);
    let mut c = coordinator(&spec, config(&spec), plan);
    // The round completes — the first frame folds; the duplicate is the
    // typed verdict, not a poison pill.
    run_rounds(&mut c, 1);
    assert_eq!(
        c.robustness_log(),
        &[RobustnessEvent::Violation {
            client_id: 2,
            violation: UpdateViolation::Duplicate,
            strikes: 1,
        }]
    );
    // The clean cohort's aggregate is unaffected by the extra frame.
    let clean = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, 1);
        bits(c.global_state())
    };
    assert_eq!(bits(c.global_state()), clean);
}

#[test]
fn duplicate_update_is_typed_on_tcp() {
    let spec = demo(2);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let spec = demo(2);
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let transport = FaultyTransport::new(
        tcp,
        FaultPlan::new().byzantine(1, ByzantineScript::Duplicate),
    );
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, config(&spec));
    run_rounds(&mut c, 1);
    assert_eq!(
        c.robustness_log(),
        &[RobustnessEvent::Violation {
            client_id: 1,
            violation: UpdateViolation::Duplicate,
            strikes: 1,
        }]
    );
    // A duplicate is an admission verdict, not a connection fault: the
    // worker stays registered and the next round succeeds too.
    c.train_round_hot(1, round_seed(SEED, 1)).unwrap();
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn scaled_attackers_are_quarantined_and_drift_stays_bounded() {
    // f = 2 attackers of n = 7 (f < n/3): client 0 ships 40x-scaled
    // updates, client 6 flips signs. Trim 2 discards both extremes per
    // coordinate; the delta-norm bound catches the scaler outright.
    let spec = demo(7);
    let attack = || {
        FaultPlan::new()
            .byzantine(0, ByzantineScript::Scale { factor: 40.0 })
            .byzantine(6, ByzantineScript::SignFlip)
    };
    let rounds = 4;

    // Clean reference: the same fleet, nobody lying, plain mean.
    let reference = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, rounds);
        c.global_state().to_vec()
    };
    // Undefended: the attack lands with full weight.
    let drift_mean = {
        let mut c = coordinator(&spec, config(&spec), attack());
        run_rounds(&mut c, rounds);
        l2(c.global_state(), &reference)
    };
    for mode in [
        AggregationMode::TrimmedMean { trim: 2 },
        AggregationMode::Median,
    ] {
        let mut c = coordinator(&spec, config(&spec).with_aggregation(mode), attack());
        run_rounds(&mut c, rounds);
        let drift = l2(c.global_state(), &reference);
        // The documented bound (DESIGN.md §13): with trim ≥ f the fold
        // stays inside the honest updates' coordinate-wise range, so the
        // drift from the all-honest mean is a small fraction of what the
        // unprotected mean absorbs.
        assert!(
            drift < drift_mean / 10.0,
            "{mode}: drift {drift} vs undefended {drift_mean}"
        );
    }

    // Admission + strikes: the delta-norm bound rejects the scaler each
    // round; two strikes quarantine it (round 0 strike, round 1 strike +
    // eviction). The sign-flipper preserves norms and must NOT be
    // evicted by the norm check — that's the trimmed fold's job.
    let mut c = coordinator(
        &spec,
        config(&spec)
            .with_aggregation(AggregationMode::TrimmedMean { trim: 2 })
            .with_max_delta_norm(5.0)
            .with_max_strikes(2),
        attack(),
    );
    run_rounds(&mut c, rounds);
    assert!(c.is_quarantined(0), "scaler not quarantined");
    assert!(
        !c.is_quarantined(6),
        "norm-preserving attacker wrongly evicted"
    );
    assert_eq!(c.client_strikes(0), 2);
    assert_eq!(c.quarantined_clients(), vec![0]);
    let quarantine_round = c
        .robustness_log()
        .iter()
        .filter(|e| matches!(e, RobustnessEvent::Quarantined { client_id: 0, .. }))
        .count();
    assert_eq!(quarantine_round, 1, "exactly one eviction event");
    // The loopback transport honoured the eviction: the quarantined
    // client no longer computes or counts.
    assert_eq!(c.transport().inner().quarantined_clients(), vec![0]);
}

#[test]
fn stale_and_replayed_frames_strike_over_tcp_and_ban_sticks() {
    // A replaying worker over real sockets: round 0 passes through (no
    // older frame to replay yet), every later round re-ships the
    // previous round's state under its old nonce — a StaleNonce
    // violation each time. max_strikes = 2 evicts it at its second
    // strike; the TCP transport bans the id so it cannot rejoin.
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let spec = demo(3);
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let transport =
        FaultyTransport::new(tcp, FaultPlan::new().byzantine(1, ByzantineScript::Replay));
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        config(&spec).with_max_strikes(2),
    );
    for r in 0..4 {
        c.train_round_hot(r, round_seed(SEED, r)).unwrap();
    }
    assert!(c.is_quarantined(1));
    let stale_strikes = c
        .robustness_log()
        .iter()
        .filter(|e| {
            matches!(
                e,
                RobustnessEvent::Violation {
                    client_id: 1,
                    violation: UpdateViolation::StaleNonce { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(stale_strikes, 2, "one strike per offending round");
    // The ban outlives the session: the transport refuses the id.
    assert!(!c.transport().inner().live_clients().contains(&1));
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        let _ = w.join();
    }
}

#[test]
fn quorum_round_finishes_degraded_and_is_recorded() {
    let spec = demo(4);
    // Client 3's reply is dropped at op 0 (the first streamed round).
    let plan = FaultPlan::new().drop_client_at(0, 3);
    let mut c = coordinator(&spec, config(&spec).with_quorum(0.5), plan);
    c.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    let outcome = c.last_round_outcome();
    assert!(outcome.degraded, "round should have finished on quorum");
    assert_eq!((outcome.reported, outcome.cohort), (3, 4));
    // Degraded ≠ struck: a timeout is not a violation.
    assert!(c.robustness_log().is_empty());
    // The next (full) round recovers to a non-degraded outcome.
    c.train_round_hot(1, round_seed(SEED, 1)).unwrap();
    assert!(!c.last_round_outcome().degraded);
}

#[test]
fn quarantine_verdicts_land_in_the_verified_audit_chain() {
    let dir = std::env::temp_dir().join(format!("goldfish-robust-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let spec = demo(5);
    let plan = FaultPlan::new().byzantine(4, ByzantineScript::StaleRound);
    {
        let mut c = coordinator(
            &spec,
            config(&spec)
                .with_aggregation(AggregationMode::TrimmedMean { trim: 1 })
                .with_max_strikes(2),
            plan,
        );
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c.submit_unlearn(UnlearnRequest::new(0, (0..4).collect()))
            .unwrap();
        c.run(3, SEED).unwrap();
        assert!(c.is_quarantined(4));
    }

    // The chain verifies end-to-end and holds all three entry kinds:
    // the served deletion, the stale-nonce violations, the eviction.
    let summary = audit::verify_file(&audit_path(&dir)).unwrap();
    let kinds: Vec<u8> = summary.entries.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&audit_kind::UNLEARN_SERVED));
    assert!(kinds.contains(&audit_kind::VIOLATION));
    assert!(kinds.contains(&audit_kind::QUARANTINE));
    let quarantine = summary
        .entries
        .iter()
        .find(|e| e.kind == audit_kind::QUARANTINE)
        .expect("quarantine entry");
    assert_eq!(quarantine.client_id, 4);
    assert_eq!(quarantine.detail, vec![2], "strike count at eviction");
    let violations: Vec<_> = summary
        .entries
        .iter()
        .filter(|e| e.kind == audit_kind::VIOLATION)
        .collect();
    assert_eq!(violations.len(), 2);
    assert!(violations.iter().all(|e| e.client_id == 4
        && e.detail[0] == UpdateViolation::StaleNonce { got: 0, want: 0 }.code()));

    // Recovery replays only the served deletion as a removal — the
    // robustness verdicts are evidence, not data mutations.
    let mut c2 = coordinator(&spec, config(&spec), FaultPlan::new());
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    c2.attach_durability(store, recovered).unwrap();
    let sizes = c2.transport().client_sizes();
    assert_eq!(sizes[0], spec.samples_per_client - 4);
    assert!(sizes[1..].iter().all(|&n| n == spec.samples_per_client));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The echoed-nonce check survived the move out of the TCP transport:
/// a worker answering a distillation round under a forged nonce is a
/// typed `StaleNonce` violation, logged once per distillation round. A
/// drain treats the violator like a straggler: its upload is rejected,
/// it sits out that round's re-round (so it is contacted exactly once
/// per round — no spin, although TCP keeps `Rejected` connections alive
/// and the live set never shrinks), and the drain commits over the
/// honest client.
#[test]
fn forged_distill_nonce_is_rejected_promptly_on_tcp() {
    use goldfish_fed::transport::round_nonce;
    use goldfish_serve::wire::{read_frame, write_frame, Msg};

    const FORGE: u64 = 0x0BAD_F00D;
    let spec = demo(2);
    let state_len = (spec.factory())(0).state_len();
    let (listener, addr) = bind("127.0.0.1:0").unwrap();

    let honest = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let spec = demo(2);
            let mut rt = WorkerRuntime::new(0, spec.factory(), spec.client_shard(0));
            let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
        })
    };
    // A raw-socket fake worker: acks the job, then echoes every
    // distillation assignment's global back under a forged nonce.
    // Returns how many distillation assignments it was sent.
    let forger = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let limits = FrameLimits::default();
        let hello = Msg::Hello {
            client_id: 1,
            state_len: state_len as u64,
            num_samples: 24,
            resume: None,
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        let mut distill_assigns = 0usize;
        while let Ok((msg, _)) = read_frame(&mut stream, &limits) {
            let reply = match msg {
                Msg::UnlearnAssign { .. } => Msg::UnlearnAck { num_samples: 24 },
                Msg::RoundAssign {
                    round,
                    nonce,
                    global,
                    ..
                } => {
                    distill_assigns += 1;
                    Msg::UnlearnResult {
                        round,
                        client_id: 1,
                        weight: 24,
                        nonce: nonce ^ FORGE,
                        state: global,
                    }
                }
                Msg::Shutdown => break,
                _ => continue, // Capabilities
            };
            write_frame(&mut stream, &reply, &limits).unwrap();
        }
        distill_assigns
    });

    const ROUNDS: usize = 2;
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let cfg = CoordinatorConfig {
        unlearn_rounds: ROUNDS,
        ..config(&spec)
    };
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), tcp, cfg);
    c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1]))
        .unwrap();
    let served = c.drain_unlearning(SEED).unwrap().unwrap();
    assert_eq!(served.round_accuracies.len(), ROUNDS);
    let stale: Vec<(usize, u64, u64)> = c
        .robustness_log()
        .iter()
        .map(|e| match e {
            RobustnessEvent::Violation {
                client_id,
                violation: UpdateViolation::StaleNonce { got, want },
                ..
            } => (*client_id, *got, *want),
            other => panic!("expected a stale-nonce violation, got {other:?}"),
        })
        .collect();
    let want: Vec<(usize, u64, u64)> = (0..ROUNDS)
        .map(|round| {
            let nonce = round_nonce(SEED, round);
            (1, nonce ^ FORGE, nonce)
        })
        .collect();
    assert_eq!(
        stale, want,
        "one stale-nonce verdict per distillation round"
    );
    assert_eq!(
        c.transport().live_clients(),
        vec![0, 1],
        "rejection keeps the connection"
    );

    c.transport_mut().shutdown();
    drop(c);
    honest.join().unwrap();
    assert_eq!(
        forger.join().unwrap(),
        ROUNDS,
        "the forger is contacted once per distillation round"
    );
}

/// A drain whose every upload diverges commits nothing: each upload is
/// rejected as `NonFinite`, nobody is left to re-round over, the drain
/// fails typed, and the coordinator keeps serving the teacher.
#[test]
fn all_non_finite_drain_fails_typed_and_keeps_the_teacher() {
    use goldfish_fed::transport::TransportError;

    let spec = demo(2);
    let mut cfg = config(&spec);
    // A step size no model survives: every distillation upload is
    // non-finite.
    cfg.method.local.lr = f32::INFINITY;
    let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);
    let teacher = bits(c.global_state());
    c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1]))
        .unwrap();
    assert_eq!(c.drain_unlearning(SEED), Err(TransportError::NoLiveClients));
    assert_eq!(bits(c.global_state()), teacher);
    let rejected: Vec<(usize, &UpdateViolation)> = c
        .robustness_log()
        .iter()
        .map(|e| match e {
            RobustnessEvent::Violation {
                client_id,
                violation,
                ..
            } => (*client_id, violation),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(
        rejected,
        vec![
            (0, &UpdateViolation::NonFinite),
            (1, &UpdateViolation::NonFinite)
        ]
    );
}

/// The fault harness tells a distillation round from a training round
/// by its assignment's mode, and scripts only the training uploads. A
/// 40×-scaling worker moves the training round's global; a drain from
/// the same teacher is bitwise the unfaulted drain, and its admission
/// bound — the one that strikes the scaled training upload — strikes
/// nobody.
#[test]
fn byzantine_scripts_never_touch_a_distillation_round() {
    const BOUND: f64 = 5.0;
    let spec = demo(4);
    let cfg = config(&spec).with_max_delta_norm(BOUND);
    let plan = FaultPlan::new().byzantine(1, ByzantineScript::Scale { factor: 40.0 });
    let mut faulted = coordinator(&spec, cfg.clone(), plan);
    let mut clean = coordinator(&spec, cfg.clone(), FaultPlan::new());
    run_rounds(&mut faulted, 1);
    run_rounds(&mut clean, 1);
    assert_eq!(faulted.client_strikes(1), 1, "the scaled upload passed");
    assert_eq!(clean.client_strikes(1), 0);
    assert_ne!(bits(faulted.global_state()), bits(clean.global_state()));

    let (factory, test) = (spec.factory(), spec.test_set());
    let teacher = faulted.global_state().to_vec();
    let server = UnlearnServer {
        factory: &factory,
        test: &test,
        original_global: &teacher,
        rounds: 2,
    };
    let drain = |transport: &mut FaultyTransport<LoopbackTransport>| {
        transport.stage_removals(&[UnlearnRequest::new(1, vec![0, 1, 2])]);
        let mut runtime = RoundRuntime::new(cfg.threads, 0);
        runtime.set_robustness(RobustConfig {
            max_delta_norm: Some(BOUND),
            ..RobustConfig::default()
        });
        let out = cfg
            .method
            .unlearn_over(&server, transport, &mut runtime, SEED)
            .unwrap();
        (bits(&out.global_state), runtime.drain_events())
    };
    let (got, strikes) = drain(faulted.transport_mut());
    let (want, clean_strikes) = drain(clean.transport_mut());
    assert!(clean_strikes.is_empty(), "{clean_strikes:?}");
    assert!(
        strikes.is_empty(),
        "a distillation upload was scripted: {strikes:?}"
    );
    assert_eq!(got, want);
}
