//! The serve-layer identity gates.
//!
//! 1. A loopback-backed `Coordinator` reproduces the library's own
//!    `Federation::train_rounds` / `GoldfishUnlearning::unlearn` bitwise
//!    (the in-process path *is* the `LoopbackTransport`).
//! 2. A real-TCP run (coordinator + worker threads over localhost
//!    sockets) reproduces the loopback run bitwise — a full federated
//!    round *and* a Goldfish unlearning request.
//! 3. Stragglers are dropped and the round re-runs over the survivors,
//!    deterministically.

use std::time::Duration;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::method::{ClientSplit, UnlearnSetup};
use goldfish_core::{GoldfishUnlearning, UnlearningMethod};
use goldfish_fed::federation::Federation;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::digest::state_digest;
use goldfish_serve::fleet::run_fleet;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::{run_worker, WorkerRuntime};

const SEED: u64 = 42;
const ROUNDS: usize = 2;
const REMOVED: usize = 8;

fn demo() -> DemoSpec {
    DemoSpec {
        clients: 2,
        samples_per_client: 60,
        test_samples: 30,
        seed: 19,
    }
}

fn method() -> GoldfishUnlearning {
    GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
        epochs: 1,
        batch_size: 20,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    })
}

fn coordinator_config(spec: &DemoSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: spec.train_config(),
        method: method(),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(2),
        ..CoordinatorConfig::default()
    }
}

/// The canonical schedule: ROUNDS training rounds with one unlearning
/// request (client 0 forgets its first REMOVED samples) queued before
/// round 1 drains it.
fn run_schedule<T: ServeTransport>(mut c: Coordinator<T>) -> (Vec<f32>, Coordinator<T>) {
    c.submit_unlearn(UnlearnRequest::new(0, (0..REMOVED).collect()))
        .unwrap();
    let summary = c.run(ROUNDS, SEED).unwrap();
    assert_eq!(summary.rounds.len(), ROUNDS);
    assert_eq!(summary.unlearns.len(), 1);
    (c.global_state().to_vec(), c)
}

fn loopback_coordinator(spec: &DemoSpec) -> Coordinator<LoopbackTransport> {
    let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
    Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(spec),
    )
}

#[test]
fn loopback_unlearning_is_permanent() {
    // Once a deletion request is served, the removed samples leave the
    // client's dataset: later training rounds and local evals run on
    // the shrunk shard (mirrored by the worker daemon's state machine).
    let spec = demo();
    let (_, c) = run_schedule(loopback_coordinator(&spec));
    assert_eq!(
        c.transport().client_sizes(),
        vec![spec.samples_per_client - REMOVED, spec.samples_per_client]
    );
}

#[test]
fn loopback_train_round_matches_federation() {
    let spec = demo();
    // Library path.
    let mut fed = Federation::builder(spec.factory(), spec.test_set())
        .clients(spec.client_shards())
        .train_config(spec.train_config())
        .threads(2)
        .init_seed(1)
        .build();
    fed.train_rounds(ROUNDS, SEED);

    // Serve path over loopback, no unlearning.
    let mut c = loopback_coordinator(&spec);
    for r in 0..ROUNDS {
        // round_seed matches Federation::train_rounds' derivation.
        c.train_round(r, round_seed(SEED, r)).unwrap();
    }
    assert_eq!(c.global_state(), fed.global_state(), "train loop diverged");
}

#[test]
fn loopback_unlearning_matches_library_method() {
    let spec = demo();
    // Serve path: one training round, then the request drains.
    let mut c = loopback_coordinator(&spec);
    c.submit_unlearn(UnlearnRequest::new(0, (0..REMOVED).collect()))
        .unwrap();
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    let teacher = c.global_state().to_vec();
    let unlearn_seed = drain_seed(SEED, 0);
    c.drain_unlearning(unlearn_seed).unwrap().unwrap();

    // Library path: same teacher, same splits, same seed.
    let shards = spec.client_shards();
    let removed: Vec<usize> = (0..REMOVED).collect();
    let setup = UnlearnSetup {
        factory: spec.factory(),
        clients: vec![
            ClientSplit::with_removed(&shards[0], &removed),
            ClientSplit::intact(shards[1].clone()),
        ],
        test: spec.test_set(),
        original_global: teacher,
        rounds: 1,
        train: spec.train_config(),
    };
    let outcome = method().unlearn(&setup, unlearn_seed);
    assert_eq!(
        c.global_state(),
        outcome.global_state.as_slice(),
        "unlearning loop diverged"
    );
}

/// Lanes, not per-client workers: whichever of the (at most `threads`)
/// lanes a client's task checks out — across thread counts, a sampled
/// cohort that changes between rounds and a quarantined client — every
/// upload equals an independent per-client loop bitwise (a fresh network
/// per client, set to the broadcast state and trained by
/// `train_local_ce`), and exactly the cohort is contacted, in id order.
#[test]
fn loopback_lanes_match_the_per_client_oracle_bitwise() {
    use goldfish_fed::trainer::train_local_ce;
    use goldfish_fed::transport::{
        client_seed, round_nonce, RoundMode, RoundTransport, StreamedUpdate, TrainAssign,
    };

    type Upload = (usize, usize, Vec<f32>);
    fn collect<T: RoundTransport>(
        t: &mut T,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
    ) -> Vec<Upload> {
        let mut uploads = Vec::new();
        let mut results = Vec::new();
        t.train_round(
            assign,
            cohort,
            &mut |u: StreamedUpdate<'_>| {
                uploads.push((u.client_id, u.num_samples, u.state.to_vec()));
                Ok(())
            },
            &mut results,
        );
        assert_eq!(results, vec![Ok(()); cohort.len()]);
        uploads
    }

    const QUARANTINED: usize = 3;
    for clients in [64usize, 5] {
        let spec = DemoSpec {
            clients,
            samples_per_client: 12,
            test_samples: 10,
            seed: 19,
        };
        let factory = spec.factory();
        let shards = spec.client_shards();
        let cfg = spec.train_config();
        for threads in [1usize, 2, 5] {
            let mut lanes = LoopbackTransport::new(factory.clone(), shards.clone(), Some(threads));
            assert!(lanes.quarantine(QUARANTINED));
            let mut live = Vec::new();
            lanes.cohort_into(&mut live);
            assert_eq!(live.len(), clients - 1);
            assert!(live.iter().all(|&(id, _)| id != QUARANTINED));

            let mut global = (factory)(1).state_vector();
            for round in 0..3 {
                // Round 0: everyone live. Then two different samples, so
                // a client changes position (and likely lane) between
                // rounds.
                let cohort: Vec<(usize, usize)> = match round {
                    0 => live.clone(),
                    r => live.iter().copied().skip(r - 1).step_by(2).collect(),
                };
                let seed = round_seed(SEED, round);
                let assign = TrainAssign {
                    mode: RoundMode::Train,
                    round,
                    seed,
                    nonce: round_nonce(seed, round),
                    global: &global,
                    cfg: &cfg,
                };
                let got = collect(&mut lanes, &assign, &cohort);
                let want: Vec<Upload> = cohort
                    .iter()
                    .map(|&(id, n)| {
                        let mut net = (factory)(0);
                        net.set_state_vector(&global);
                        train_local_ce(&mut net, &shards[id], &cfg, client_seed(seed, id, round));
                        (id, n, net.state_vector())
                    })
                    .collect();
                let contacted: Vec<(usize, usize)> =
                    got.iter().map(|(id, n, _)| (*id, *n)).collect();
                assert_eq!(contacted, cohort, "{clients} clients, {threads} threads");
                assert_eq!(
                    got, want,
                    "{clients} clients, {threads} threads, round {round}"
                );
                // Next round starts somewhere else: the first upload.
                global = got[0].2.clone();
            }
        }
    }
}

/// Spawns `spec.clients` worker threads against an ephemeral listener
/// and returns the accepted transport.
fn tcp_pair(spec: &DemoSpec) -> (TcpTransport, Vec<std::thread::JoinHandle<()>>) {
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let mut workers = Vec::new();
    for id in 0..spec.clients {
        let spec = *spec;
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut runtime = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
            run_worker(&addr, &mut runtime, &FrameLimits::default()).unwrap();
        }));
    }
    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    (transport, workers)
}

#[test]
fn tcp_run_is_bitwise_identical_to_loopback() {
    let spec = demo();
    let (loopback_global, mut lb) = run_schedule(loopback_coordinator(&spec));

    let (transport, workers) = tcp_pair(&spec);
    let c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    let (tcp_global, c) = run_schedule(c);
    assert_eq!(tcp_global, loopback_global, "TCP diverged from loopback");

    // The run moved real frames.
    let stats = c.transport().wire_stats();
    assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    // ...and exactly as many of them as before the per-client
    // `UnlearnAssign` buffers became one shared frame plus one frame per
    // requester (counts recorded at that commit's parent), less the
    // 8 bytes of shard fields each `Capabilities` lost in protocol v5,
    // and the 8-byte drain serial each of the drain's two
    // `UnlearnAssign` frames lost in protocol v6.
    assert_eq!((stats.bytes_sent, stats.bytes_received), (77788, 58246));

    // Local evaluation flows over the Eval exchange and matches the
    // loopback coordinator that served the same schedule exactly (both
    // sides evaluate on the post-deletion shards).
    let mut c = c;
    let global = c.global_state().to_vec();
    let tcp_evals: Vec<_> = c
        .transport_mut()
        .local_eval(ROUNDS, &global)
        .into_iter()
        .map(|e| e.unwrap())
        .collect();
    let lb_evals: Vec<_> = lb
        .transport_mut()
        .local_eval(ROUNDS, &global)
        .into_iter()
        .map(|e| e.unwrap())
        .collect();
    assert_eq!(tcp_evals, lb_evals);

    // A quarantined client is evaluated on neither side: TCP closed its
    // connection, loopback skips it.
    use goldfish_fed::transport::RoundTransport;
    assert!(c.transport_mut().quarantine(1) && lb.transport_mut().quarantine(1));
    let tcp_evals = c.transport_mut().local_eval(ROUNDS, &global);
    assert_eq!(tcp_evals, lb.transport_mut().local_eval(ROUNDS, &global));
    let ids: Vec<_> = tcp_evals.iter().flatten().map(|e| e.client_id).collect();
    assert_eq!(ids, [0]);

    // Nor does it take part in a distillation drain: the survivors alone
    // rebuild the global, to the same bits on both transports, and a
    // deletion *from* the evicted client is refused the same way.
    use goldfish_core::transport::DistillTransport;
    use goldfish_serve::coordinator::SubmitError;
    assert_eq!(DistillTransport::num_clients(lb.transport()), 1);
    assert_eq!(DistillTransport::num_clients(c.transport()), 1);
    let gone = Err(SubmitError::UnknownClient { client_id: 1 });
    assert_eq!(c.submit_unlearn(UnlearnRequest::new(1, vec![0])), gone);
    assert_eq!(lb.submit_unlearn(UnlearnRequest::new(1, vec![0])), gone);
    let seed = drain_seed(SEED, ROUNDS);
    c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1, 2]))
        .unwrap();
    lb.submit_unlearn(UnlearnRequest::new(0, vec![0, 1, 2]))
        .unwrap();
    c.drain_unlearning(seed).unwrap().unwrap();
    lb.drain_unlearning(seed).unwrap().unwrap();
    assert_eq!(
        c.global_state(),
        lb.global_state(),
        "post-quarantine drain diverged"
    );

    c.transport_mut().shutdown(); // graceful goodbye: workers exit Ok
    drop(c);
    for (id, w) in workers.into_iter().enumerate() {
        // ...all but the evicted one, whose typed `Err` frame ends its loop.
        assert_eq!(w.join().is_ok(), id != 1);
    }
}

/// The same schedule — a deletion drained by distillation rounds
/// included — with every worker hosted by one `run_fleet` thread: the
/// fleet carries `UnlearnAssign` and Distill frames over its sockets and
/// commits the loopback run's global, digest for digest.
#[test]
fn fleet_hosted_deletion_is_bitwise_identical_to_loopback() {
    let spec = demo();
    let (loopback_global, _) = run_schedule(loopback_coordinator(&spec));

    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (0..spec.clients)
            .map(|id| WorkerRuntime::new(id, spec.factory(), spec.client_shard(id)))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap()
    });
    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    let (fleet_global, mut c) = run_schedule(c);
    assert_eq!(
        state_digest(ROUNDS as u64, &fleet_global),
        state_digest(ROUNDS as u64, &loopback_global),
        "the fleet-hosted run diverged from loopback"
    );
    c.transport_mut().shutdown();
    let report = fleet.join().expect("the fleet thread panicked");
    assert_eq!((report.clean_shutdowns, report.dropped), (spec.clients, 0));
}

#[test]
fn window_overflow_keeps_healthy_tcp_workers_connected() {
    // An UpdateWindowExceeded from the aggregation sink is the
    // coordinator's capacity policy, not the worker's fault: the round
    // errors, but no connection may be dropped (otherwise a tight
    // --window would silently evict healthy workers and re-round over a
    // shrunken fleet).
    use goldfish_fed::transport::{RoundMode, RoundTransport, TrainAssign, TransportError};

    let spec = demo();
    let (mut transport, workers) = tcp_pair(&spec);
    let global = (spec.factory())(1).state_vector();
    let cfg = spec.train_config();
    let assign = TrainAssign {
        mode: RoundMode::Train,
        round: 0,
        seed: 3,
        nonce: goldfish_fed::transport::round_nonce(3, 0),
        global: &global,
        cfg: &cfg,
    };
    let mut cohort = Vec::new();
    transport.cohort_into(&mut cohort);
    let mut results = Vec::new();
    transport.train_round(
        &assign,
        &cohort,
        &mut |u| {
            Err(TransportError::UpdateWindowExceeded {
                limit: 0,
                client_id: u.client_id,
            })
        },
        &mut results,
    );
    assert_eq!(results.len(), 2);
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(TransportError::UpdateWindowExceeded { .. }))));
    // Both workers survive and the next (unconstrained) round succeeds.
    assert_eq!(transport.live_clients(), vec![0, 1]);
    transport.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
    assert_eq!(results, vec![Ok(()), Ok(())]);

    transport.shutdown(); // graceful goodbye: workers exit Ok
    drop(transport);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn straggler_is_dropped_and_round_rerun_deterministically() {
    let spec = demo();
    let (listener, addr) = bind("127.0.0.1:0").unwrap();

    // Client 0: a well-behaved worker.
    let good = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut runtime = WorkerRuntime::new(0, spec.factory(), spec.client_shard(0));
            // The coordinator closes the connection at drop; treat any
            // outcome as shutdown.
            let _ = run_worker(&addr, &mut runtime, &FrameLimits::default());
        })
    };
    // Client 1: says Hello, then goes silent (a straggler).
    let silent = std::thread::spawn(move || {
        use goldfish_serve::wire::{read_frame, write_frame, Msg};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let limits = FrameLimits::default();
        let hello = Msg::Hello {
            client_id: 1,
            state_len: (spec.factory())(0).state_len() as u64,
            num_samples: spec.samples_per_client as u64,
            resume: None,
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        let _ = read_frame(&mut stream, &limits).unwrap(); // Capabilities
                                                           // Swallow the round assignment and never answer.
        let _ = read_frame(&mut stream, &limits);
    });

    let state_len = (spec.factory())(0).state_len();
    let cfg = TcpConfig {
        read_timeout: Duration::from_millis(1500),
        ..TcpConfig::default()
    };
    let transport = TcpTransport::accept(&listener, spec.clients, state_len, cfg).unwrap();
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    let summary = c.train_round(0, round_seed(SEED, 0)).unwrap();
    // Only the survivor contributed.
    assert_eq!(summary.client_sizes, vec![spec.samples_per_client]);
    assert_eq!(c.transport().live_clients(), vec![0]);

    // Deterministic: the result equals a single-client loopback round
    // over the survivor's shard (FedAvg of one update is that update).
    let mut lb = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        LoopbackTransport::new(spec.factory(), vec![spec.client_shard(0)], Some(2)),
        coordinator_config(&spec),
    );
    lb.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(c.global_state(), lb.global_state());

    drop(c);
    good.join().unwrap();
    silent.join().unwrap();
}

/// A second deletion on the same client addresses the rows the first one
/// left: with row 1 gone, live row 5 is original row 6, and that row
/// alone is what the second drain forgets. Loopback and fleet-hosted TCP
/// commit the same two globals, bit for bit.
#[test]
fn a_second_deletion_on_one_client_forgets_original_row_6() {
    let spec = DemoSpec {
        samples_per_client: 40,
        ..demo()
    };
    /// Serves `[1]`, then `[5]`, on client 0; returns the global after
    /// each drain (the first is the second drain's teacher).
    fn serve_two<T: ServeTransport>(mut c: Coordinator<T>) -> [Vec<f32>; 2] {
        c.train_round(0, round_seed(SEED, 0)).unwrap();
        c.submit_unlearn(UnlearnRequest::new(0, vec![1])).unwrap();
        c.drain_unlearning(drain_seed(SEED, 0)).unwrap().unwrap();
        assert_eq!(c.transport().client_sizes(), [39, 40]);
        let first = c.global_state().to_vec();
        c.submit_unlearn(UnlearnRequest::new(0, vec![5])).unwrap();
        c.drain_unlearning(drain_seed(SEED, 1)).unwrap().unwrap();
        assert_eq!(c.transport().client_sizes(), [38, 40]);
        c.transport_mut().shutdown();
        [first, c.global_state().to_vec()]
    }
    let loopback = serve_two(loopback_coordinator(&spec));

    // The second drain is the library's unlearning with original row 6
    // as client 0's forget rows, bitwise; any other row gives other bits.
    let shards = spec.client_shards();
    let library = |row: usize| {
        let setup = UnlearnSetup {
            factory: spec.factory(),
            clients: vec![
                ClientSplit {
                    remaining: ClientSplit::with_removed(&shards[0], &[1, 6]).remaining,
                    forget: shards[0].subset(&[row]),
                },
                ClientSplit::intact(shards[1].clone()),
            ],
            test: spec.test_set(),
            original_global: loopback[0].clone(),
            rounds: 1,
            train: spec.train_config(),
        };
        method().unlearn(&setup, drain_seed(SEED, 1)).global_state
    };
    assert_eq!(
        loopback[1],
        library(6),
        "the second drain forgot another row"
    );
    assert_ne!(loopback[1], library(5));

    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (0..spec.clients)
            .map(|id| WorkerRuntime::new(id, spec.factory(), spec.client_shard(id)))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap()
    });
    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    let tcp = serve_two(c);
    assert_eq!(tcp, loopback, "TCP diverged from loopback");
    let report = fleet.join().expect("the fleet thread panicked");
    assert_eq!((report.clean_shutdowns, report.dropped), (spec.clients, 0));
}
