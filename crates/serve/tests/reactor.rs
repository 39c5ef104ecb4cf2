//! Reactor-era regression gates (DESIGN.md §14).
//!
//! * The two thread-per-connection panic paths are gone, pinned by
//!   typed-behaviour tests: a listener torn down mid-run makes
//!   `admit_reconnects` admit zero (it used to unwrap a `None`
//!   listener), and a reply handler that panics becomes a typed
//!   per-client `Rejected(HandlerPanic)` failure — the worker is
//!   dropped, the coordinator finishes the round (it used to abort on a
//!   poisoned channel).
//! * Seeded cohort sampling over real TCP is bitwise identical to the
//!   sampled loopback run.
//! * The single-threaded worker fleet host serves a federation and
//!   winds down clean on `Shutdown`; registering its workers builds one
//!   network, its lane's, not one per worker.
//! * A length prefix is honoured only up to what the protocol phase can
//!   carry: a 10-byte header announcing 200 MiB is a typed failure in
//!   the start-up handshake, as a round reply, and as a re-admitted
//!   worker's `Hello` or `Ack`, with no payload ever sent and no buffer
//!   ever sized for it.
//! * Round-boundary re-admission runs every queued handshake at once
//!   under one `read_timeout`: silent and trickling peers cannot delay a
//!   resuming worker, and a worker cut off mid-run by a proxy reconnects
//!   with its resume token, records the boundary's `Digest` and rejoins
//!   the next cohort.
//! * Frame buffers are leased per in-flight frame: the leased gauge is 0
//!   between rounds, its high-water follows frames concurrently in
//!   flight (not the fleet size), and every failure path returns its
//!   lease.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::sampling::{cohort_seed, sample_cohort_into};
use goldfish_fed::trainer::{TrainConfig, TrainLane};
use goldfish_fed::transport::{
    round_nonce, RobustnessEvent, RoundTransport, TrainAssign, TransportError, UpdateViolation,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::zoo;
use goldfish_serve::coordinator::{round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::digest::state_digest;
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::fleet::run_fleet;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::{
    encode_frame, kind, read_frame, write_frame, FrameLimits, Msg, RoundMode, WireError,
    HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
use goldfish_serve::worker::{
    run_worker, run_worker_resilient, serve_stream, Answer, ReconnectPolicy, WorkerRuntime,
};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

/// Tracks live heap bytes and their high-water mark, so a test can tell
/// whether a buffer was ever sized for a hostile length prefix.
struct PeakAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl PeakAlloc {
    fn grew(size: usize) {
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PeakAlloc::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PeakAlloc::grew(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// How far the live heap peaked above its level at the call while `f`
/// ran (other tests of this binary allocate meanwhile too, which only
/// ever adds to it).
fn heap_peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    let out = f();
    (
        PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(before),
        out,
    )
}

fn demo(clients: usize) -> DemoSpec {
    DemoSpec {
        clients,
        samples_per_client: 40,
        test_samples: 20,
        seed: 19,
    }
}

fn coordinator_config(spec: &DemoSpec) -> CoordinatorConfig {
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

/// Spawns `spec.clients` worker threads against an ephemeral listener
/// and returns the accepted transport plus the listener (for reconnect
/// wiring). Workers treat any disconnect as shutdown — some tests drop
/// them deliberately.
fn tcp_pair(
    spec: &DemoSpec,
) -> (
    TcpTransport,
    std::net::TcpListener,
    Vec<std::thread::JoinHandle<()>>,
) {
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers = (0..spec.clients)
        .map(|id| honest_worker(addr.clone(), *spec, id))
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    (transport, listener, workers)
}

/// Regression: `admit_reconnects` on a transport whose listener was torn
/// down mid-run. The thread-per-connection layer unwrapped the listener
/// option here and panicked the coordinator; the reactor admits zero and
/// keeps serving.
#[test]
fn listener_teardown_mid_run_admits_zero_instead_of_panicking() {
    let spec = demo(2);
    let (mut transport, listener, workers) = tcp_pair(&spec);
    let global = (spec.factory())(1).state_vector();

    // Reconnect enabled, then the listener is torn down between rounds
    // (operator action / fd pressure / test harness reuse).
    transport.enable_reconnect(listener);
    assert!(transport.disable_reconnect().is_some());
    assert!(transport.disable_reconnect().is_none(), "second teardown");

    // The panic path: admit with no listener. Typed result, no unwrap.
    assert_eq!(transport.admit_reconnects(1, &global), 0);

    // The coordinator keeps serving full rounds afterwards.
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    let summary = c.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(summary.client_sizes.len(), spec.clients);

    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        w.join().unwrap();
    }
}

/// Regression: a panic while the coordinator handles one client's reply
/// (scripted via `ByzantineScript::Panic`, unwinding out of the
/// aggregation sink exactly where a decode/fold bug would). The
/// thread-per-connection layer died on `rx.recv().expect(..)`; the
/// reactor contains it to a typed `Rejected(HandlerPanic)` for that
/// client, drops the connection, and finishes the round over the
/// survivors.
#[test]
fn reply_handler_panic_is_a_typed_per_client_failure() {
    let spec = demo(2);
    let (transport, _listener, workers) = tcp_pair(&spec);
    let transport = FaultyTransport::new(
        transport,
        FaultPlan::new().byzantine(1, ByzantineScript::Panic),
    );
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );

    // The round completes — over the survivor only.
    let summary = c.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(summary.client_sizes, vec![spec.samples_per_client]);
    assert_eq!(c.transport().inner().live_clients(), vec![0]);

    // The panic surfaced as the typed violation, on the audit channel.
    assert!(
        c.robustness_log().iter().any(|e| matches!(
            e,
            RobustnessEvent::Violation {
                client_id: 1,
                violation: UpdateViolation::HandlerPanic,
                ..
            }
        )),
        "expected a HandlerPanic violation for client 1, got {:?}",
        c.robustness_log()
    );

    // Deterministic survivor round: equals a single-client loopback run.
    let mut lb = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        LoopbackTransport::new(spec.factory(), vec![spec.client_shard(0)], Some(2)),
        coordinator_config(&spec),
    );
    lb.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(c.global_state(), lb.global_state());

    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        w.join().unwrap();
    }
}

/// Seeded cohort sampling over real TCP sockets is bitwise identical to
/// the sampled loopback reference — same draws, same aggregates, round
/// after round.
#[test]
fn sampled_tcp_rounds_match_sampled_loopback_bitwise() {
    let spec = demo(6);
    let fraction = 0.5;
    let rounds = 2;

    fn run<T: ServeTransport>(mut c: Coordinator<T>, rounds: usize) -> Vec<f32> {
        for r in 0..rounds {
            let summary = c.train_round(r, round_seed(SEED, r)).unwrap();
            // ceil(0.5 · 6) = 3 members per round, never the full fleet.
            assert_eq!(summary.client_sizes.len(), 3);
        }
        let global = c.global_state().to_vec();
        c.transport_mut().shutdown();
        global
    }

    let lb = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2)),
        coordinator_config(&spec).with_cohort_fraction(fraction),
    );
    let want = run(lb, rounds);

    let (transport, _listener, workers) = tcp_pair(&spec);
    let tcp = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec).with_cohort_fraction(fraction),
    );
    let got = run(tcp, rounds);
    assert_eq!(got, want, "sampled TCP diverged from sampled loopback");

    for w in workers {
        w.join().unwrap();
    }
}

/// The single-threaded fleet host: eight worker runtimes on one thread
/// serve a sampled federation and all retire clean on `Shutdown`.
#[test]
fn fleet_host_serves_rounds_and_shuts_down_clean() {
    let spec = demo(8);
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
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec).with_cohort_fraction(0.25),
    );
    for r in 0..2 {
        let summary = c.train_round(r, round_seed(SEED, r)).unwrap();
        assert_eq!(summary.client_sizes.len(), 2); // ceil(0.25 · 8)
    }
    c.transport_mut().shutdown();
    drop(c);

    let report = fleet.join().unwrap();
    assert_eq!(report.clean_shutdowns, spec.clients);
    assert_eq!(report.dropped, 0);
}

/// `spec`'s model factory, counting every network it builds in `built`.
fn counting_factory(spec: &DemoSpec, built: &Arc<AtomicUsize>) -> ModelFactory {
    let (inner, built) = (spec.factory(), Arc::clone(built));
    Arc::new(move |seed| {
        built.fetch_add(1, Ordering::SeqCst);
        inner(seed)
    })
}

/// A worker host learns the model's size from its one lane: registering
/// 64 runtimes that share a factory through `run_fleet` and serving a
/// round builds exactly one network — the lane's — where building one
/// per runtime at construction made 65; and a daemon's handshake builds
/// the network its lane then trains on, and no other.
#[test]
fn registration_builds_one_network_per_host() {
    const CLIENTS: usize = 64;
    let spec = demo(CLIENTS);
    let state_len = (spec.factory())(0).state_len();
    let limits = FrameLimits::default();

    let built = Arc::new(AtomicUsize::new(0));
    let factory = counting_factory(&spec, &built);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (spec.client_shards().into_iter())
            .enumerate()
            .map(|(id, shard)| WorkerRuntime::new(id, factory.clone(), shard))
            .collect();
        run_fleet(&addr, &mut runtimes, &limits).unwrap()
    });
    let transport =
        TcpTransport::accept(&listener, CLIENTS, state_len, TcpConfig::default()).unwrap();
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec).with_cohort_fraction(0.125),
    );
    let summary = c.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(summary.client_sizes.len(), 8);
    c.transport_mut().shutdown();
    drop(c);
    assert_eq!(fleet.join().unwrap().clean_shutdowns, CLIENTS);
    assert_eq!(
        built.load(Ordering::SeqCst),
        1,
        "networks built by the fleet"
    );

    // One daemon: the handshake, one training round, shutdown.
    let built = Arc::new(AtomicUsize::new(0));
    let mut runtime = WorkerRuntime::new(0, counting_factory(&spec, &built), spec.client_shard(0));
    assert_eq!(
        built.load(Ordering::SeqCst),
        0,
        "a runtime builds no network"
    );
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let daemon = std::thread::spawn(move || {
        serve_stream(TcpStream::connect(addr).unwrap(), &mut runtime, &limits)
    });
    let (mut sock, _) = listener.accept().unwrap();
    let (hello, _) = read_frame(&mut sock, &limits).unwrap();
    assert!(
        matches!(hello, Msg::Hello { state_len: n, .. } if n as usize == state_len),
        "got {hello:?}"
    );
    let caps = Msg::Capabilities {
        max_payload: limits.max_payload as u64,
        state_len: state_len as u64,
        agg_mode: 0,
        agg_param: 0,
    };
    write_frame(&mut sock, &caps, &limits).unwrap();
    let assign = Msg::RoundAssign {
        mode: RoundMode::Train,
        round: 0,
        seed: SEED,
        nonce: 1,
        cfg: spec.train_config(),
        global: (spec.factory())(1).state_vector(),
    };
    write_frame(&mut sock, &assign, &limits).unwrap();
    let (update, _) = read_frame(&mut sock, &limits).unwrap();
    assert!(matches!(update, Msg::Update { .. }), "got {update:?}");
    write_frame(&mut sock, &Msg::Shutdown, &limits).unwrap();
    daemon.join().unwrap().unwrap();
    assert_eq!(
        built.load(Ordering::SeqCst),
        1,
        "networks built by the daemon"
    );
}

/// Both worker hosts run one handshake check: a coordinator announcing
/// an aggregation mode they cannot decode is refused by the fleet host
/// exactly as by the daemon loop (the fleet host used to accept it).
#[test]
fn both_worker_hosts_refuse_an_undecodable_aggregation_mode() {
    let spec = demo(2);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let hosts = std::thread::spawn(move || {
        let limits = FrameLimits::default();
        let mut daemon = WorkerRuntime::new(0, spec.factory(), spec.client_shard(0));
        let mut hosted = [WorkerRuntime::new(1, spec.factory(), spec.client_shard(1))];
        (
            run_worker(&addr, &mut daemon, &limits),
            run_fleet(&addr, &mut hosted, &limits),
        )
    });
    let cfg = TcpConfig {
        agg_mode: 9,
        ..TcpConfig::default()
    };
    let state_len = (spec.factory())(0).state_len();
    let transport = TcpTransport::accept(&listener, spec.clients, state_len, cfg).unwrap();
    // Nothing more is sent: a host that *accepted* the session would
    // serve until this close retires it, and report `Ok`.
    drop(transport);
    let (daemon, fleet) = hosts.join().unwrap();
    assert!(matches!(daemon, Err(WireError::Malformed(_))), "{daemon:?}");
    assert!(matches!(fleet, Err(WireError::Malformed(_))), "{fleet:?}");
}

/// A valid GFWP header of `kind` announcing `len` payload bytes — and
/// nothing after it.
fn bare_header(kind: u8, len: u32) -> Vec<u8> {
    let mut h = MAGIC.to_vec();
    h.push(PROTOCOL_VERSION);
    h.push(kind);
    h.extend_from_slice(&len.to_le_bytes());
    h
}

/// A hand-driven worker: registers as `id`, waits for the first round
/// assignment, then hands the socket to `script`.
fn scripted_worker(
    addr: String,
    spec: DemoSpec,
    id: usize,
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let limits = FrameLimits::default();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let hello = Msg::Hello {
            client_id: id as u64,
            state_len: (spec.factory())(0).state_len() as u64,
            num_samples: spec.samples_per_client as u64,
            resume: None,
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        let (caps, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(matches!(caps, Msg::Capabilities { .. }), "got {caps:?}");
        let (assign, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(matches!(assign, Msg::RoundAssign { .. }), "got {assign:?}");
        script(&mut stream);
    })
}

/// Blocks until the peer closes `stream` (EOF or reset).
fn wait_for_close(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut sink = [0u8; 64];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
            Err(e) => panic!("peer never closed the connection: {e}"),
        }
    }
}

/// Regression: a 10-byte header used to make the coordinator zero-fill
/// whatever its length prefix said, up to the 256 MiB default limit,
/// before a single payload byte arrived. Each phase now bounds the prefix
/// by what it can legally carry — a constant for the not-yet-validated
/// handshake peer, `4·state_len` plus a fixed header for a reply.
#[test]
fn hostile_length_prefix_is_a_typed_failure_in_both_phases() {
    const HOSTILE_LEN: u32 = 200 << 20;
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();

    // Handshake phase: a peer announcing a 200 MiB `Hello`. The
    // coordinator hangs up on the header alone; no slot is consumed.
    let intruder = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .write_all(&bare_header(kind::HELLO, HOSTILE_LEN))
                .unwrap();
            wait_for_close(&mut stream);
        })
    };
    // Reply phase: client 2 registers properly, then answers its first
    // assignment with the same header and never sends a payload byte.
    let hostile = scripted_worker(addr.clone(), spec, 2, |stream| {
        stream
            .write_all(&bare_header(kind::UPDATE, HOSTILE_LEN))
            .unwrap();
        wait_for_close(stream);
    });
    let workers: Vec<_> = (0..2)
        .map(|id| honest_worker(addr.clone(), spec, id))
        .collect();

    let state_len = (spec.factory())(0).state_len();
    // The default 30 s reply deadline stays: the failure must be the
    // header's, not a timeout's.
    let mut transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    intruder.join().unwrap();
    assert_eq!(transport.live_clients(), vec![0, 1, 2], "a slot was lost");

    let global = (spec.factory())(1).state_vector();
    let cfg = spec.train_config();
    let assign = TrainAssign {
        mode: RoundMode::Train,
        round: 0,
        seed: 3,
        nonce: round_nonce(3, 0),
        global: &global,
        cfg: &cfg,
    };
    let mut cohort = Vec::new();
    transport.cohort_into(&mut cohort);
    let mut results = Vec::new();
    let mut delivered = Vec::new();
    let started = Instant::now();
    transport.train_round(
        &assign,
        &cohort,
        &mut |u| {
            delivered.push(u.client_id);
            Ok(())
        },
        &mut results,
    );
    assert!(started.elapsed() < Duration::from_secs(10), "waited it out");
    assert_eq!(results[..2], [Ok(()), Ok(())]);
    match &results[2] {
        Err(TransportError::Protocol {
            client_id: 2,
            reason,
        }) => assert!(reason.contains("exceeds"), "not the frame bound: {reason}"),
        other => panic!("expected a typed frame-bound failure, got {other:?}"),
    }
    delivered.sort_unstable();
    assert_eq!(delivered, vec![0, 1], "the round went on for the others");
    assert_eq!(transport.live_clients(), vec![0, 1]);

    // Re-admission phase, into client 2's vacated slot: one peer opens
    // with a resume `Hello` header announcing 200 MiB; another sends a
    // valid resume `Hello` and answers the `Digest` with an `Ack` header
    // announcing as much. Both are closed on the header alone, well
    // inside the 30 s deadline, and nothing is sized for either payload.
    transport.enable_reconnect(listener);
    let (queued, ready) = mpsc::channel();
    let hostile_hello = {
        let (addr, queued) = (addr.clone(), queued.clone());
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .write_all(&bare_header(kind::HELLO, HOSTILE_LEN))
                .unwrap();
            queued.send(()).unwrap();
            wait_for_close(&mut stream);
        })
    };
    let hostile_ack = std::thread::spawn(move || {
        let limits = FrameLimits::default();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let hello = Msg::Hello {
            client_id: 2,
            state_len: state_len as u64,
            num_samples: spec.samples_per_client as u64,
            resume: Some(0),
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        queued.send(()).unwrap();
        let (caps, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(matches!(caps, Msg::Capabilities { .. }), "got {caps:?}");
        let (digest, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(
            matches!(digest, Msg::Digest { round: 1, .. }),
            "got {digest:?}"
        );
        stream
            .write_all(&bare_header(kind::ACK, HOSTILE_LEN))
            .unwrap();
        wait_for_close(&mut stream);
    });
    for _ in 0..2 {
        ready.recv().unwrap();
    }
    let started = Instant::now();
    let (peak, admitted) = heap_peak_during(|| transport.admit_reconnects(1, &global));
    assert!(started.elapsed() < Duration::from_secs(10), "waited it out");
    assert_eq!(admitted, 0);
    assert!(
        peak < HOSTILE_LEN as usize / 2,
        "live heap peaked {peak} B above its level: a buffer was sized for the prefix"
    );
    hostile_hello.join().unwrap();
    hostile_ack.join().unwrap();
    assert_eq!(transport.live_clients(), vec![0, 1]);

    // The coordinator keeps serving: the next round goes to both.
    let assign = TrainAssign {
        mode: RoundMode::Train,
        round: 1,
        seed: 4,
        nonce: round_nonce(4, 1),
        global: &global,
        cfg: &cfg,
    };
    transport.cohort_into(&mut cohort);
    transport.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
    assert_eq!(results, [Ok(()), Ok(())]);

    transport.shutdown();
    drop(transport);
    hostile.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
}

/// Frame buffers follow frames in flight: over a 32-worker fleet the
/// coordinator's leased gauge reads 0 between rounds and its high-water
/// stays far below the fleet size, on both ends of the sockets.
#[test]
fn frame_buffer_leases_follow_frames_in_flight_not_the_fleet() {
    let seeds = [0, 1, 2].map(|r| round_seed(SEED, r));
    fleet_rounds(demo(32), 32, 32, &seeds);

    // A round costs what its cohort costs, not what the registry holds:
    // the same four members (round seeds whose 4-of-128 draw falls among
    // ids 0..32) out of a registry four times larger move the same bytes
    // and commit the same global.
    let registry: Vec<(usize, usize)> = (0..128).map(|id| (id, 0)).collect();
    let mut draws_low_ids = |seed: &u64| {
        let (mut drawn, mut scratch, s) = (Vec::new(), Vec::new(), cohort_seed(*seed));
        sample_cohort_into(s, 4.0 / 128.0, &registry, &mut drawn, &mut scratch);
        drawn.iter().all(|&(id, _)| id < 32)
    };
    let seeds = seeds.map(|s| (s..).find(&mut draws_low_ids).unwrap());
    let small = fleet_rounds(demo(128), 32, 4, &seeds);
    assert_eq!(fleet_rounds(demo(128), 128, 4, &seeds), small);
}

/// One round per seed over `cohort` members of a registry made of the
/// first `clients` of `spec`'s workers, hosted by one `run_fleet`: the
/// lease gauges stay within the cohort. Returns each round's wire bytes
/// and the final global.
fn fleet_rounds(
    spec: DemoSpec,
    clients: usize,
    cohort: usize,
    seeds: &[u64],
) -> (Vec<u64>, Vec<f32>) {
    let most = cohort.min(8);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let fleet = std::thread::spawn(move || {
        let factory = spec.factory();
        let mut runtimes: Vec<WorkerRuntime> = (spec.client_shards().into_iter().take(clients))
            .enumerate()
            .map(|(id, shard)| WorkerRuntime::new(id, factory.clone(), shard))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap()
    });

    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, clients, state_len, TcpConfig::default()).unwrap();
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec).with_cohort_fraction(cohort as f64 / clients as f64),
    );
    let mut wire = Vec::new();
    for (r, &seed) in seeds.iter().enumerate() {
        let before = c.transport().wire_stats().total();
        let summary = c.train_round(r, seed).unwrap();
        assert_eq!(summary.client_sizes.len(), cohort);
        assert_eq!(c.telemetry().frame_buffers_leased.get(), 0, "round {r}");
        wire.push(c.transport().wire_stats().total() - before);
    }
    let high_water = c.telemetry().frame_buffers_high_water.get();
    assert!(
        (1..=most as i64).contains(&high_water),
        "{high_water} buffers at once for {clients} workers"
    );
    // The gauges are on the exported catalog.
    let text = c.telemetry().prometheus_text();
    assert!(text.contains("goldfish_frame_buffers_leased 0"), "{text}");
    assert!(text.contains("goldfish_frame_buffers_high_water"), "{text}");

    let global = c.global_state().to_vec();
    c.transport_mut().shutdown();
    drop(c);
    let report = fleet.join().unwrap();
    assert_eq!(report.clean_shutdowns, clients);
    assert!(
        (1..=most).contains(&report.peak_frame_buffers),
        "fleet host held {} buffers at once",
        report.peak_frame_buffers
    );
    (wire, global)
}

/// Every way a reply can fail returns its lease: a frame that does not
/// decode, a connection that stalls mid-frame past the deadline, and a
/// reply whose handler panics.
#[test]
fn failed_replies_return_their_frame_buffer_lease() {
    let spec = demo(4);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    // Clients 0 and 3: honest workers (3's reply blows up its handler).
    let mut workers: Vec<_> = [0, 3]
        .map(|id| honest_worker(addr.clone(), spec, id))
        .into();
    // Client 1: a complete `Update` frame whose payload is too short to
    // decode.
    workers.push(scripted_worker(addr.clone(), spec, 1, |stream| {
        let mut frame = bare_header(kind::UPDATE, 16);
        frame.extend_from_slice(&[0xAB; 16]);
        stream.write_all(&frame).unwrap();
        wait_for_close(stream);
    }));
    // Client 2: starts a reply, then stalls mid-frame (lease held) until
    // the deadline passes.
    workers.push(scripted_worker(addr.clone(), spec, 2, |stream| {
        let mut frame = bare_header(kind::UPDATE, 1000);
        frame.extend_from_slice(&[0u8; 10]);
        stream.write_all(&frame).unwrap();
        wait_for_close(stream);
    }));

    let state_len = (spec.factory())(0).state_len();
    let cfg = TcpConfig {
        read_timeout: Duration::from_millis(1500),
        ..TcpConfig::default()
    };
    let transport = TcpTransport::accept(&listener, spec.clients, state_len, cfg).unwrap();
    let transport = FaultyTransport::new(
        transport,
        FaultPlan::new().byzantine(3, ByzantineScript::Panic),
    );
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );

    // The round completes over the one survivor.
    let summary = c.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(summary.client_sizes, vec![spec.samples_per_client]);
    assert_eq!(c.transport().inner().live_clients(), vec![0]);
    assert!(c.robustness_log().iter().any(|e| matches!(
        e,
        RobustnessEvent::Violation {
            client_id: 3,
            violation: UpdateViolation::HandlerPanic,
            ..
        }
    )));
    // Four replies were read (one only partly); none kept its buffer.
    assert_eq!(c.telemetry().frame_buffers_leased.get(), 0);
    assert!(c.telemetry().frame_buffers_high_water.get() >= 1);

    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        w.join().unwrap();
    }
}

/// The fan-out benchmark's model: a 784-128-10 MLP, whose updates ride
/// 407 KB frames — far more than a socket buffers, so a reply the
/// coordinator does not read blocks its worker mid-write.
fn wide_mlp() -> ModelFactory {
    Arc::new(|seed| zoo::mlp(784, &[128], 10, &mut StdRng::seed_from_u64(seed)))
}

/// Two samples per client, `clients` clients, and a small test set.
fn wide_shards(clients: usize) -> (Vec<Dataset>, Dataset) {
    let (train, test) = synthetic::generate(&SyntheticSpec::mnist(), 2 * clients, 8, 9);
    let shards = (0..clients)
        .map(|c| train.subset(&[2 * c, 2 * c + 1]))
        .collect();
    (shards, test)
}

fn wide_config() -> CoordinatorConfig {
    CoordinatorConfig {
        train: TrainConfig {
            local_epochs: 1,
            batch_size: 2,
            lr: 0.05,
            momentum: 0.9,
        },
        init_seed: 1,
        threads: Some(2),
        ..CoordinatorConfig::default()
    }
}

/// Answers `msg` as a worker host answers its frame: encoded, then
/// [`WorkerRuntime::answer`]ed into `reply`.
fn answer(
    runtime: &mut WorkerRuntime,
    msg: &Msg,
    lane: &mut TrainLane,
    reply: &mut Vec<u8>,
) -> Answer {
    let limits = FrameLimits::default();
    let frame = encode_frame(msg, &limits).unwrap();
    let (kind, payload) = (frame[5], &frame[HEADER_LEN..]);
    runtime.answer(kind, payload, lane, reply, &limits).unwrap()
}

/// A worker that answers every assignment like `run_worker` does, but
/// only after `delay` — a scripted arrival order.
fn delayed_worker(
    addr: String,
    id: usize,
    shard: Dataset,
    delay: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let limits = FrameLimits::default();
        let mut runtime = WorkerRuntime::new(id, wide_mlp(), shard);
        let mut lane = TrainLane::new();
        let mut stream = TcpStream::connect(&addr).unwrap();
        write_frame(&mut stream, &runtime.hello(&mut lane), &limits).unwrap();
        let (caps, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(matches!(caps, Msg::Capabilities { .. }), "got {caps:?}");
        let mut reply = Vec::new();
        while let Ok((msg, _)) = read_frame(&mut stream, &limits) {
            if answer(&mut runtime, &msg, &mut lane, &mut reply) == Answer::Shutdown {
                return;
            }
            std::thread::sleep(delay);
            if stream.write_all(&reply).is_err() {
                return;
            }
        }
    })
}

/// Replies are read in fold order: workers answering in *descending* id
/// order leave every reply but the frontier's waiting in its socket, so
/// no upload is ever parked beside the fold — where reading in arrival
/// order parked all but the last — and the round commits the bits of the
/// loopback round.
#[test]
fn arrival_order_does_not_set_resident_updates() {
    const CLIENTS: usize = 6;
    let (shards, test) = wide_shards(CLIENTS);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let delay = Duration::from_millis(60 * (CLIENTS - 1 - id) as u64);
            delayed_worker(addr.clone(), id, shards[id].clone(), delay)
        })
        .collect();
    let state_len = (wide_mlp())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, CLIENTS, state_len, TcpConfig::default()).unwrap();
    let mut tcp = Coordinator::new(wide_mlp(), test.clone(), transport, wide_config());
    tcp.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(tcp.peak_resident_updates(), 1);

    let loopback = LoopbackTransport::new(wide_mlp(), shards, Some(2));
    let mut lb = Coordinator::new(wide_mlp(), test, loopback, wide_config());
    lb.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(tcp.global_state(), lb.global_state());

    tcp.transport_mut().shutdown();
    drop(tcp);
    for w in workers {
        w.join().unwrap();
    }
}

/// Ordered reads must not cost a straggler's successors: with worker 0
/// silent past the deadline, every other reply — queued behind it in its
/// socket — is still read at the deadline, so only client 0 times out
/// and the quorum round commits the bits of the loopback quorum round
/// that drops client 0.
#[test]
fn a_silent_frontier_costs_only_itself() {
    const CLIENTS: usize = 6;
    let (shards, test) = wide_shards(CLIENTS);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let silent = {
        let addr = addr.clone();
        let samples = shards[0].len();
        std::thread::spawn(move || {
            let limits = FrameLimits::default();
            let mut stream = TcpStream::connect(&addr).unwrap();
            let hello = Msg::Hello {
                client_id: 0,
                state_len: (wide_mlp())(0).state_len() as u64,
                num_samples: samples as u64,
                resume: None,
            };
            write_frame(&mut stream, &hello, &limits).unwrap();
            let (caps, _) = read_frame(&mut stream, &limits).unwrap();
            assert!(matches!(caps, Msg::Capabilities { .. }), "got {caps:?}");
            let (assign, _) = read_frame(&mut stream, &limits).unwrap();
            assert!(matches!(assign, Msg::RoundAssign { .. }), "got {assign:?}");
            wait_for_close(&mut stream);
        })
    };
    let mut workers: Vec<_> = (1..CLIENTS)
        .map(|id| delayed_worker(addr.clone(), id, shards[id].clone(), Duration::ZERO))
        .collect();
    workers.push(silent);
    let state_len = (wide_mlp())(0).state_len();
    let cfg = TcpConfig {
        read_timeout: Duration::from_millis(400),
        ..TcpConfig::default()
    };
    let transport = TcpTransport::accept(&listener, CLIENTS, state_len, cfg).unwrap();
    let mut tcp = Coordinator::new(
        wide_mlp(),
        test.clone(),
        transport,
        wide_config().with_quorum(0.5),
    );
    tcp.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    let outcome = tcp.last_round_outcome();
    assert!(outcome.degraded);
    assert_eq!((outcome.reported, outcome.cohort), (CLIENTS - 1, CLIENTS));
    assert_eq!(
        tcp.transport().live_clients(),
        (1..CLIENTS).collect::<Vec<_>>()
    );

    let loopback = FaultyTransport::new(
        LoopbackTransport::new(wide_mlp(), shards, Some(2)),
        FaultPlan::new().drop_client_at(0, 0),
    );
    let mut lb = Coordinator::new(wide_mlp(), test, loopback, wide_config().with_quorum(0.5));
    lb.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    assert!(lb.last_round_outcome().degraded);
    assert_eq!(tcp.global_state(), lb.global_state());

    tcp.transport_mut().shutdown();
    drop(tcp);
    for w in workers {
        w.join().unwrap();
    }
}

/// `spec`'s honest worker `id`, served by `run_worker` on its own thread.
fn honest_worker(addr: String, spec: DemoSpec, id: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut runtime = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
        let _ = run_worker(&addr, &mut runtime, &FrameLimits::default());
    })
}

/// A worker that resumes into slot `id` mid-run: it opens with a resume
/// token, reports on `queued` once its `Hello` is on the wire, and then
/// serves like `run_worker` until `Shutdown`. Returns its runtime.
fn resuming_worker(
    addr: String,
    spec: DemoSpec,
    id: usize,
    queued: mpsc::Sender<()>,
) -> std::thread::JoinHandle<WorkerRuntime> {
    std::thread::spawn(move || {
        let limits = FrameLimits::default();
        let mut runtime = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
        let mut lane = TrainLane::new();
        let mut stream = TcpStream::connect(&addr).unwrap();
        let hello = Msg::Hello {
            client_id: id as u64,
            state_len: runtime.state_len(&mut lane) as u64,
            num_samples: spec.samples_per_client as u64,
            resume: Some(0),
        };
        write_frame(&mut stream, &hello, &limits).unwrap();
        queued.send(()).unwrap();
        let (caps, _) = read_frame(&mut stream, &limits).unwrap();
        assert!(matches!(caps, Msg::Capabilities { .. }), "got {caps:?}");
        let mut reply = Vec::new();
        loop {
            let (msg, _) = read_frame(&mut stream, &limits).unwrap();
            if answer(&mut runtime, &msg, &mut lane, &mut reply) == Answer::Shutdown {
                return runtime;
            }
            stream.write_all(&reply).unwrap();
        }
    })
}

/// A round boundary drives every queued handshake at once, under one
/// `read_timeout` T from the call: six silent peers and one trickling a
/// byte every T/2 cannot delay the resuming worker queued behind them,
/// which is admitted in the same call, and the call returns within 2T.
/// Handshaking one peer after another cost at least T per silent peer.
#[test]
fn one_boundary_admits_a_resuming_worker_queued_behind_silent_peers() {
    const SILENT: usize = 6;
    let t = Duration::from_millis(250);
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let mut workers: Vec<_> = (0..2)
        .map(|id| honest_worker(addr.clone(), spec, id))
        .collect();
    // Client 2 registers and vanishes: its slot is the one to resume.
    workers.push(scripted_worker(addr.clone(), spec, 2, |_| {}));
    let state_len = (spec.factory())(0).state_len();
    let mut transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    transport.enable_reconnect(listener);
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    assert_eq!(c.transport().live_clients(), vec![0, 1]);

    // Queued in this order: the silent peers, the trickler, the worker.
    let silent: Vec<TcpStream> = (0..SILENT)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    let (queued, ready) = mpsc::channel();
    let trickler = {
        let (addr, queued) = (addr.clone(), queued.clone());
        std::thread::spawn(move || {
            let hello = Msg::Hello {
                client_id: 1,
                state_len: state_len as u64,
                num_samples: spec.samples_per_client as u64,
                resume: Some(0),
            };
            let mut frame = Vec::new();
            write_frame(&mut frame, &hello, &FrameLimits::default()).unwrap();
            let mut stream = TcpStream::connect(&addr).unwrap();
            queued.send(()).unwrap();
            for byte in frame {
                if stream.write_all(&[byte]).is_err() {
                    return;
                }
                std::thread::sleep(t / 2);
            }
        })
    };
    ready.recv().unwrap();
    let resumer = resuming_worker(addr.clone(), spec, 2, queued);
    ready.recv().unwrap();

    let global = c.global_state().to_vec();
    c.transport_mut().set_read_timeout(t);
    let started = Instant::now();
    let admitted = c.transport_mut().admit_reconnects(1, &global);
    let took = started.elapsed();
    c.transport_mut()
        .set_read_timeout(TcpConfig::default().read_timeout);
    assert_eq!(admitted, 1);
    assert!(took < 2 * t, "the boundary took {took:?} for T = {t:?}");
    assert_eq!(c.transport().live_clients(), vec![0, 1, 2]);

    // The re-admitted worker serves the next round.
    let summary = c.train_round(1, round_seed(SEED, 1)).unwrap();
    assert_eq!(summary.client_sizes.len(), spec.clients);
    c.transport_mut().shutdown();
    drop(c);
    let runtime = resumer.join().unwrap();
    assert_eq!(runtime.resume_digest(), Some((1, state_digest(1, &global))));
    trickler.join().unwrap();
    drop(silent);
    for w in workers {
        w.join().unwrap();
    }
}

/// A TCP relay between one worker and the coordinator. The test cuts the
/// relayed connection, and the worker's next connection waits at the
/// relay until the test lets it through.
struct Proxy {
    addr: String,
    /// Both sockets of the connection being relayed.
    relayed: Arc<Mutex<Vec<TcpStream>>>,
    let_through: mpsc::Sender<()>,
    /// Reports each let-through connection, once it is queued on the
    /// coordinator's listener.
    reconnected: mpsc::Receiver<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Proxy {
    /// Relays up to `sessions` connections to `upstream`.
    fn spawn(upstream: String, sessions: usize) -> Proxy {
        let (listener, addr): (TcpListener, String) = bind("127.0.0.1:0").unwrap();
        let relayed = Arc::new(Mutex::new(Vec::new()));
        let (let_through, gate) = mpsc::channel::<()>();
        let (reconnect, reconnected) = mpsc::channel();
        let thread = {
            let relayed = Arc::clone(&relayed);
            std::thread::spawn(move || {
                for session in 0..sessions {
                    let (down, _) = listener.accept().unwrap();
                    if session > 0 {
                        gate.recv().unwrap();
                    }
                    let up = TcpStream::connect(&upstream).unwrap();
                    let mut sockets = relayed.lock().unwrap();
                    sockets.extend([down.try_clone().unwrap(), up.try_clone().unwrap()]);
                    for (mut from, mut to) in [
                        (down.try_clone().unwrap(), up.try_clone().unwrap()),
                        (up, down),
                    ] {
                        std::thread::spawn(move || {
                            let _ = std::io::copy(&mut from, &mut to);
                            let _ = to.shutdown(Shutdown::Write);
                        });
                    }
                    if session > 0 {
                        reconnect.send(()).unwrap();
                    }
                }
            })
        };
        Proxy {
            addr,
            relayed,
            let_through,
            reconnected,
            thread,
        }
    }

    /// Cuts the relayed connection at both ends.
    fn cut(&self) {
        for socket in self.relayed.lock().unwrap().drain(..) {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

/// Mid-run re-admission over real TCP: a proxy cuts one
/// `run_worker_resilient` worker off after round 1. The coordinator
/// drops it in round 2; the worker reconnects with its resume token and
/// is re-admitted at the next boundary (`admit_reconnects` returns 1),
/// records the `Digest` of the global the coordinator held there, and is
/// in round 3's cohort.
#[test]
fn a_worker_cut_off_mid_run_is_readmitted_at_a_later_boundary() {
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..2)
        .map(|id| honest_worker(addr.clone(), spec, id))
        .collect();
    let proxy = Proxy::spawn(addr, 2);
    let resilient = {
        let addr = proxy.addr.clone();
        std::thread::spawn(move || {
            let mut runtime = WorkerRuntime::new(2, spec.factory(), spec.client_shard(2));
            let policy = ReconnectPolicy {
                initial_delay: Duration::from_millis(20),
                jitter_seed: 2,
                ..ReconnectPolicy::default()
            };
            run_worker_resilient(&addr, &mut runtime, &FrameLimits::default(), policy).unwrap();
            runtime
        })
    };
    let state_len = (spec.factory())(0).state_len();
    let mut transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    transport.enable_reconnect(listener);
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    for r in 0..2 {
        let summary = c.train_round(r, round_seed(SEED, r)).unwrap();
        assert_eq!(summary.client_sizes.len(), spec.clients, "round {r}");
    }

    proxy.cut();
    let summary = c.train_round(2, round_seed(SEED, 2)).unwrap();
    assert_eq!(summary.client_sizes.len(), 2);
    assert_eq!(c.transport().live_clients(), vec![0, 1], "not dropped");

    proxy.let_through.send(()).unwrap();
    proxy
        .reconnected
        .recv_timeout(Duration::from_secs(20))
        .expect("the worker never reconnected");
    let global = c.global_state().to_vec();
    assert_eq!(c.transport_mut().admit_reconnects(3, &global), 1);
    assert_eq!(c.transport().live_clients(), vec![0, 1, 2]);
    let summary = c.train_round(3, round_seed(SEED, 3)).unwrap();
    assert_eq!(summary.client_sizes.len(), spec.clients);

    c.transport_mut().shutdown();
    drop(c);
    let runtime = resilient.join().unwrap();
    assert_eq!(runtime.resume_digest(), Some((3, state_digest(3, &global))));
    assert_eq!(runtime.last_round(), Some(3));
    proxy.thread.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
}

/// A worker that drops and reconnects before any fan-out to its slot has
/// noticed the drop: its old connection is still registered, but dead.
/// The round boundary sees the dead occupant, frees the slot and admits
/// the resume `Hello` into it, instead of refusing it as a duplicate —
/// which `run_worker_resilient` would take as final.
#[test]
fn a_quick_reconnect_takes_back_the_slot_of_its_dead_connection() {
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..2)
        .map(|id| honest_worker(addr.clone(), spec, id))
        .collect();
    let proxy = Proxy::spawn(addr, 2);
    let resilient = {
        let addr = proxy.addr.clone();
        std::thread::spawn(move || {
            let mut runtime = WorkerRuntime::new(2, spec.factory(), spec.client_shard(2));
            let policy = ReconnectPolicy {
                initial_delay: Duration::from_millis(20),
                jitter_seed: 2,
                ..ReconnectPolicy::default()
            };
            let outcome =
                run_worker_resilient(&addr, &mut runtime, &FrameLimits::default(), policy);
            (runtime, outcome)
        })
    };
    let state_len = (spec.factory())(0).state_len();
    let mut transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    transport.enable_reconnect(listener);
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        coordinator_config(&spec),
    );
    c.train_round(0, round_seed(SEED, 0)).unwrap();

    // Cut, and let the reconnect through at once: no fan-out runs between.
    proxy.cut();
    proxy.let_through.send(()).unwrap();
    proxy
        .reconnected
        .recv_timeout(Duration::from_secs(20))
        .expect("the worker never reconnected");
    assert_eq!(
        c.transport().live_clients(),
        vec![0, 1, 2],
        "still registered"
    );
    let global = c.global_state().to_vec();
    assert_eq!(c.transport_mut().admit_reconnects(1, &global), 1);
    assert_eq!(c.transport().live_clients(), vec![0, 1, 2]);
    let summary = c.train_round(1, round_seed(SEED, 1)).unwrap();
    assert_eq!(summary.client_sizes.len(), spec.clients);

    c.transport_mut().shutdown();
    drop(c);
    let (runtime, outcome) = resilient.join().unwrap();
    assert!(outcome.is_ok(), "the worker ended with {outcome:?}");
    assert_eq!(runtime.resume_digest(), Some((1, state_digest(1, &global))));
    assert_eq!(runtime.last_round(), Some(1));
    proxy.thread.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
}
