//! Scale-out serving benchmark: coordinator round throughput across
//! simulated fleet sizes, new streaming hot path vs a faithful replica
//! of the pre-change (PR 4) coordinator round. Writes `BENCH_scale.json`.
//!
//! The workload deliberately shrinks per-client compute (a handful of
//! samples per client, one mini-batch per round, over a wider-than-demo
//! MLP) so the numbers measure what ISSUE 5 rebuilt: per-client
//! encode/alloc overhead, collect-all-then-sort aggregation, and
//! frame-buffer churn — not local SGD.
//!
//! Per fleet size the binary:
//!
//! 1. **Identity gate** — drives several rounds through the pre-change
//!    replica (fresh per-round client networks, buffered
//!    collect→sort→`FedAvg` via the `collect_round` adapter) and
//!    through the new coordinator hot path, asserting the resulting
//!    globals are bitwise identical.
//! 2. Times the legacy round, the new hot round
//!    (`Coordinator::train_round_hot`), and — for TCP points — the
//!    networked round, reporting rounds/sec, updates/sec, wire
//!    bytes/round, **peak resident update count** (streaming-aggregation
//!    high-water mark) and **peak per-round heap bytes** (tracking
//!    allocator).
//!
//! Since the reactor rework (DESIGN.md §14) the binary also runs a
//! **high-fanout sampled sweep**: 1024/2048/4096 *registered*
//! connections (the TCP points hosted by a single-threaded
//! [`run_fleet`] reactor on the worker side), a fixed 64-client cohort
//! drawn per round by the seeded sampler. Each point is gated bitwise
//! against a first-principles oracle (direct `sample_cohort_into` →
//! per-client training → buffered `FedAvg`), and the full sweep asserts
//! rounds/sec stays within 10% growing the registered fleet 1k → 4k.
//!
//! Flags: `--quick` (8-client gates + the 1024-registered fanout point),
//! `--seed N`, `--out PATH` (default `BENCH_scale.json`).

use std::sync::Arc;

use goldfish_bench::args;
use goldfish_bench::report::{self, heap, PerfReport, Table};
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::aggregate::{ClientUpdate, FedAvg};
use goldfish_fed::sampling::{cohort_seed, sample_cohort_into};
use goldfish_fed::trainer::{train_local_ce, TrainConfig};
use goldfish_fed::transport::{
    client_seed, collect_round, round_nonce, round_seed, LoopbackClients, RoundTransport,
    TrainAssign,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::zoo;
use goldfish_serve::coordinator::{Coordinator, CoordinatorConfig};
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::fleet::run_fleet;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::{run_worker, WorkerRuntime};
use rand::{rngs::StdRng, SeedableRng};

#[global_allocator]
static ALLOC: heap::TrackingAlloc = heap::TrackingAlloc;

/// One small mini-batch of local SGD per round over a wider MLP than the
/// demo's: the per-round cost is dominated by what ISSUE 5 rebuilt
/// (per-client model materialisation, state shipping, aggregation), not
/// by the SGD step itself.
const SAMPLES_PER_CLIENT: usize = 4;
const HIDDEN: usize = 128;
const TEST_SAMPLES: usize = 40;
const GATE_ROUNDS: usize = 3;
/// Fixed per-round cohort of the high-fanout sweep. The sweep's fleet
/// sizes are powers of two, so `FANOUT_COHORT / n` round-trips through
/// `f64` exactly and `cohort_size` lands on precisely this many members.
const FANOUT_COHORT: usize = 64;

/// The scale workload: like `goldfish_serve::demo::DemoSpec` (every
/// process derives identical shards from `(seed, clients, samples)`) but
/// with the bench's own model width and shard size.
#[derive(Clone, Copy)]
struct ScaleSpec {
    clients: usize,
    seed: u64,
}

impl ScaleSpec {
    fn factory(&self) -> ModelFactory {
        Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            zoo::mlp(64, &[HIDDEN], 10, &mut rng)
        })
    }

    fn pool(&self) -> (Dataset, Dataset) {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        synthetic::generate(
            &spec,
            self.clients * SAMPLES_PER_CLIENT,
            TEST_SAMPLES,
            self.seed,
        )
    }

    fn client_shards(&self) -> Vec<Dataset> {
        let (train, _) = self.pool();
        (0..self.clients)
            .map(|id| Self::slice(&train, id))
            .collect()
    }

    fn client_shard(&self, id: usize) -> Dataset {
        Self::slice(&self.pool().0, id)
    }

    fn slice(train: &Dataset, id: usize) -> Dataset {
        let idx: Vec<usize> = (id * SAMPLES_PER_CLIENT..(id + 1) * SAMPLES_PER_CLIENT).collect();
        train.subset(&idx)
    }

    fn test_set(&self) -> Dataset {
        self.pool().1
    }
}

fn spec(clients: usize, seed: u64) -> ScaleSpec {
    ScaleSpec { clients, seed }
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        local_epochs: 1,
        batch_size: SAMPLES_PER_CLIENT,
        lr: 0.05,
        momentum: 0.9,
    }
}

fn coordinator_config(spec: &ScaleSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: train_cfg(),
        init_seed: spec.seed.wrapping_add(1),
        threads: None,
        ..CoordinatorConfig::default()
    }
}

/// The pre-change coordinator round, hot part: per-round fresh client
/// networks ([`LoopbackClients`]) and the buffered
/// collect-all → sort-by-client-id → `FedAvg` aggregation — exactly what
/// `Coordinator::train_round` executed before ISSUE 5 (minus the
/// per-round accuracy evaluation, which the new hot path also skips;
/// `legacy_round_full` measures the evaluating form).
fn legacy_round_hot(
    factory: &ModelFactory,
    clients: &[goldfish_data::Dataset],
    global: &[f32],
    round: usize,
    seed: u64,
    cfg: &TrainConfig,
) -> Vec<f32> {
    let mut transport = LoopbackClients::new(factory, clients, None);
    let assign = TrainAssign {
        round,
        seed,
        nonce: round_nonce(seed, round),
        global,
        cfg,
    };
    let mut cohort = Vec::new();
    let updates = collect_round(assign.nonce, |sink, results| {
        transport.cohort_into(&mut cohort);
        transport.train_round(&assign, &cohort, sink, results);
        transport.num_clients()
    })
    .expect("loopback clients never fail");
    goldfish_fed::aggregate::AggregationStrategy::aggregate(&FedAvg, &updates)
}

/// The faithful full pre-change round (the buffered round plus the
/// per-round global-accuracy evaluation the old API always performed).
fn legacy_round_full(
    factory: &ModelFactory,
    clients: &[goldfish_data::Dataset],
    test: &goldfish_data::Dataset,
    global: &[f32],
    round: usize,
    seed: u64,
    cfg: &TrainConfig,
) -> Vec<f32> {
    let global = legacy_round_hot(factory, clients, global, round, seed, cfg);
    let mut net = (factory)(0);
    net.set_state_vector(&global);
    std::hint::black_box(goldfish_fed::eval::accuracy(&mut net, test));
    global
}

/// The sampled-round oracle: re-derives `rounds` cohort rounds from
/// first principles — `sample_cohort_into` over the registry, one
/// freshly seeded client network per member
/// (`client_seed(round_seed, id, round)`), buffered `FedAvg` over the
/// cohort's updates — with none of the coordinator, transport, or
/// streaming-aggregation machinery in the loop. The high-fanout gate
/// asserts the reactor-served runs (loopback and TCP) match this
/// bitwise.
fn oracle_sampled_global(
    spec: &ScaleSpec,
    shards: &[goldfish_data::Dataset],
    fraction: f64,
    rounds: usize,
) -> Vec<f32> {
    let factory = spec.factory();
    let cfg = train_cfg();
    let registry: Vec<(usize, usize)> = shards
        .iter()
        .enumerate()
        .map(|(id, d)| (id, d.len()))
        .collect();
    let (mut cohort, mut scratch) = (Vec::new(), Vec::new());
    let mut global = (factory)(spec.seed.wrapping_add(1)).state_vector();
    for round in 0..rounds {
        let rs = round_seed(spec.seed, round);
        sample_cohort_into(
            cohort_seed(rs),
            fraction,
            &registry,
            &mut cohort,
            &mut scratch,
        );
        let updates: Vec<ClientUpdate> = cohort
            .iter()
            .map(|&(id, num_samples)| {
                let seed = client_seed(rs, id, round);
                let mut net = (factory)(seed);
                net.set_state_vector(&global);
                train_local_ce(&mut net, &shards[id], &cfg, seed);
                ClientUpdate {
                    client_id: id,
                    state: net.state_vector(),
                    num_samples,
                    server_mse: None,
                }
            })
            .collect();
        global = goldfish_fed::aggregate::AggregationStrategy::aggregate(&FedAvg, &updates);
    }
    global
}

/// Runs one full-fleet streamed round against `transport` with a
/// discard sink — untimed. The sampled sweep measures *steady-state*
/// rounds/sec vs registered-fleet size, and a client's first-ever round
/// pays one-time lazy-initialisation (gradient arenas, optimizer
/// velocity, first-touch page faults — milliseconds per client under
/// this VM's page provisioning). Rotating cohorts over a large registry
/// would smear that transient over every timed round and fake an O(n)
/// per-round cost, so the sweep pays it here, once, for everyone.
fn warm_full_fleet<T: RoundTransport>(
    transport: &mut T,
    global: &[f32],
    cfg: &TrainConfig,
    seed: u64,
) {
    let assign = TrainAssign {
        round: 0,
        seed,
        nonce: round_nonce(seed, 0),
        global,
        cfg,
    };
    let (mut cohort, mut results) = (Vec::new(), Vec::new());
    transport.cohort_into(&mut cohort);
    transport.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
    assert!(
        !results.is_empty() && results.iter().all(|r| r.is_ok()),
        "warm-up round failed"
    );
}

fn loopback_coordinator(spec: &ScaleSpec) -> Coordinator<LoopbackTransport> {
    Coordinator::new(
        spec.factory(),
        spec.test_set(),
        LoopbackTransport::new(spec.factory(), spec.client_shards(), None),
        coordinator_config(spec),
    )
}

fn tcp_coordinator(
    spec: &ScaleSpec,
) -> (Coordinator<TcpTransport>, Vec<std::thread::JoinHandle<()>>) {
    let (listener, addr) = bind("127.0.0.1:0").expect("bind");
    let mut workers = Vec::new();
    for id in 0..spec.clients {
        let spec = *spec;
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut runtime = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
            let _ = run_worker(&addr, &mut runtime, &FrameLimits::default());
        }));
    }
    let state_len = (spec.factory())(0).state_len();
    let transport = TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default())
        .expect("worker handshake");
    (
        Coordinator::new(
            spec.factory(),
            spec.test_set(),
            transport,
            coordinator_config(spec),
        ),
        workers,
    )
}

/// Bitwise identity gate at one fleet size: legacy replica vs the new
/// streaming hot path over GATE_ROUNDS rounds.
fn identity_gate(spec: &ScaleSpec) {
    let factory = spec.factory();
    let shards = spec.client_shards();
    let cfg = train_cfg();
    let mut legacy_global = (factory)(spec.seed.wrapping_add(1)).state_vector();
    let mut c = loopback_coordinator(spec);
    for r in 0..GATE_ROUNDS {
        legacy_global = legacy_round_hot(
            &factory,
            &shards,
            &legacy_global,
            r,
            round_seed(spec.seed, r),
            &cfg,
        );
        c.train_round_hot(r, round_seed(spec.seed, r))
            .expect("hot round");
    }
    assert_eq!(
        c.global_state()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        legacy_global
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "streaming coordinator diverged from the pre-change replica at {} clients",
        spec.clients
    );
    println!(
        "identity gate: {} clients — new hot path == pre-change replica bitwise ({} rounds, {} params)",
        spec.clients,
        GATE_ROUNDS,
        legacy_global.len()
    );
}

struct Point {
    clients: usize,
    /// Clients actually driven per round — equal to `clients` for the
    /// full-fleet sweeps, the cohort size for sampled points (so the
    /// updates/sec column reports delivered updates, not registrations).
    contacted: usize,
    transportlabel: &'static str,
    median_ns: f64,
    bytes_per_round: u64,
    peak_resident: usize,
    peak_heap_bytes: usize,
}

fn main() {
    let seed = args::seed();
    let quick = args::quick();
    let samples = if quick { 3 } else { 15 };
    let loopback_sizes: &[usize] = if quick { &[8] } else { &[8, 64, 256] };
    let tcp_sizes: &[usize] = if quick { &[8] } else { &[8, 64] };
    let mut rep = PerfReport::new("goldfish-scale-baseline-v1", seed);
    let mut points: Vec<Point> = Vec::new();

    report::heading("identity gates (pre-change replica vs streaming hot path)");
    for &n in loopback_sizes {
        identity_gate(&spec(n, seed));
    }

    report::heading("loopback fleet sweep");
    for &n in loopback_sizes {
        let s = spec(n, seed);
        let factory = s.factory();
        let shards = s.client_shards();
        let test = s.test_set();
        let cfg = train_cfg();
        let global = (factory)(s.seed.wrapping_add(1)).state_vector();

        // Legacy hot (apples-to-apples with the new hot path).
        let r_legacy = rep.time(&format!("round_loopback_{n}_legacy"), samples, || {
            std::hint::black_box(legacy_round_hot(
                &factory,
                &shards,
                &global,
                0,
                round_seed(seed, 0),
                &cfg,
            ));
        });
        // Legacy full (the old API's mandatory per-round evaluation).
        let r_legacy_full = rep.time(&format!("round_loopback_{n}_legacy_full"), samples, || {
            std::hint::black_box(legacy_round_full(
                &factory,
                &shards,
                &test,
                &global,
                0,
                round_seed(seed, 0),
                &cfg,
            ));
        });
        let base = heap::reset_peak();
        let _ = legacy_round_hot(&factory, &shards, &global, 0, round_seed(seed, 0), &cfg);
        let legacy_heap = heap::peak_delta_bytes(base);

        // New streaming hot path through a warm coordinator.
        let mut c = loopback_coordinator(&s);
        c.train_round_hot(0, round_seed(seed, 0)).expect("warm-up");
        let mut r = 1usize;
        let r_new = rep.time(&format!("round_loopback_{n}_hot"), samples, || {
            c.train_round_hot(r, round_seed(seed, r))
                .expect("hot round");
            r += 1;
        });
        let base = heap::reset_peak();
        c.train_round_hot(r, round_seed(seed, r))
            .expect("hot round");
        let new_heap = heap::peak_delta_bytes(base);

        points.push(Point {
            clients: n,
            contacted: n,
            transportlabel: "loopback legacy",
            median_ns: r_legacy.median_ns,
            bytes_per_round: 0,
            peak_resident: n, // buffered: every update resident at once
            peak_heap_bytes: legacy_heap,
        });
        points.push(Point {
            clients: n,
            contacted: n,
            transportlabel: "loopback hot",
            median_ns: r_new.median_ns,
            bytes_per_round: 0,
            peak_resident: c.peak_resident_updates(),
            peak_heap_bytes: new_heap,
        });
        let speedup = r_legacy.min_ns / r_new.min_ns;
        let speedup_full = r_legacy_full.min_ns / r_new.min_ns;
        println!(
            "{n} clients: legacy {:.3} ms (full {:.3} ms)  hot {:.3} ms  speedup {speedup:.2}x (vs full {speedup_full:.2}x)",
            r_legacy.median_ns / 1e6,
            r_legacy_full.median_ns / 1e6,
            r_new.median_ns / 1e6,
        );
        rep.speedup(
            &format!("rounds_per_sec_loopback_{n}_legacy"),
            1e9 / r_legacy.median_ns,
        );
        rep.speedup(
            &format!("rounds_per_sec_loopback_{n}_hot"),
            1e9 / r_new.median_ns,
        );
        rep.speedup(&format!("scale_speedup_{n}_loopback"), speedup);
        rep.speedup(&format!("scale_speedup_{n}_loopback_vs_full"), speedup_full);
        rep.speedup(
            &format!("peak_resident_updates_{n}_loopback"),
            c.peak_resident_updates() as f64,
        );
        rep.speedup(
            &format!("peak_round_heap_bytes_{n}_loopback_hot"),
            new_heap as f64,
        );
        rep.speedup(
            &format!("peak_round_heap_bytes_{n}_loopback_legacy"),
            legacy_heap as f64,
        );
    }

    report::heading("TCP fleet sweep");
    for &n in tcp_sizes {
        let s = spec(n, seed);
        let (mut c, workers) = tcp_coordinator(&s);
        c.train_round_hot(0, round_seed(seed, 0)).expect("warm-up");
        let before = c.transport().wire_stats();
        let mut r = 1usize;
        let base = heap::reset_peak();
        let r_tcp = rep.time(&format!("round_tcp_{n}_hot"), samples, || {
            c.train_round_hot(r, round_seed(seed, r))
                .expect("tcp round");
            r += 1;
        });
        let tcp_heap = heap::peak_delta_bytes(base);
        let after = c.transport().wire_stats();
        let rounds_moved = (samples + 1) as u64;
        let bytes_per_round = (after.total() - before.total()) / rounds_moved;
        points.push(Point {
            clients: n,
            contacted: n,
            transportlabel: "tcp hot",
            median_ns: r_tcp.median_ns,
            bytes_per_round,
            peak_resident: c.peak_resident_updates(),
            peak_heap_bytes: tcp_heap,
        });
        println!(
            "{n} clients over TCP: {:.3} ms/round, {} B/round, peak resident {}",
            r_tcp.median_ns / 1e6,
            bytes_per_round,
            c.peak_resident_updates()
        );
        rep.speedup(
            &format!("rounds_per_sec_tcp_{n}_hot"),
            1e9 / r_tcp.median_ns,
        );
        rep.speedup(
            &format!("wire_bytes_per_round_tcp_{n}"),
            bytes_per_round as f64,
        );
        rep.speedup(
            &format!("peak_resident_updates_{n}_tcp"),
            c.peak_resident_updates() as f64,
        );
        rep.speedup(&format!("peak_round_heap_bytes_{n}_tcp"), tcp_heap as f64);
        drop(c);
        for w in workers {
            w.join().expect("worker thread");
        }
    }

    // High-fanout sampled sweep (DESIGN.md §14): thousands of
    // *registered* connections, a fixed 64-client cohort per round. The
    // registered population grows 1k → 4k while per-round work stays
    // constant, so rounds/sec staying flat is exactly the reactor claim:
    // idle parked connections cost epoll registrations, not threads or
    // per-round scans. TCP points serve the whole fleet from one
    // `run_fleet` host thread — the 4096-connection point would need
    // 4096 worker threads under the retired thread-per-connection layer.
    report::heading("high-fanout sampled sweep (fixed 64-client cohort)");
    let fanout_sizes: &[usize] = if quick { &[1024] } else { &[1024, 2048, 4096] };
    let fanout_samples = 5; // best-of-5: the gate is flatness, not microseconds
    let mut fanout_rps: Vec<(usize, f64, f64)> = Vec::new(); // (n, loopback, tcp)
    for &n in fanout_sizes {
        let s = spec(n, seed);
        let fraction = FANOUT_COHORT as f64 / n as f64;
        let shards = s.client_shards();
        let oracle = oracle_sampled_global(&s, &shards, fraction, GATE_ROUNDS);
        let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let init_global = (s.factory())(s.seed.wrapping_add(1)).state_vector();
        let warm_seed = seed ^ 0x57A8_57A8;

        // Loopback: oracle gate over the first GATE_ROUNDS, then timing
        // on the warm coordinator.
        let mut lb_transport = LoopbackTransport::new(s.factory(), shards.clone(), None);
        warm_full_fleet(&mut lb_transport, &init_global, &train_cfg(), warm_seed);
        let mut c = Coordinator::new(
            s.factory(),
            s.test_set(),
            lb_transport,
            coordinator_config(&s).with_cohort_fraction(fraction),
        );
        for r in 0..GATE_ROUNDS {
            c.train_round_hot(r, round_seed(seed, r))
                .expect("sampled round");
        }
        assert_eq!(
            bits(c.global_state()),
            bits(&oracle),
            "sampled loopback run diverged from the first-principles oracle at {n} registered clients"
        );
        let mut r = GATE_ROUNDS;
        let base = heap::reset_peak();
        let r_lb = rep.time(
            &format!("round_fanout_{n}_loopback"),
            fanout_samples,
            || {
                c.train_round_hot(r, round_seed(seed, r))
                    .expect("sampled round");
                r += 1;
            },
        );
        let lb_heap = heap::peak_delta_bytes(base);
        points.push(Point {
            clients: n,
            contacted: FANOUT_COHORT,
            transportlabel: "loopback sampled",
            median_ns: r_lb.median_ns,
            bytes_per_round: 0,
            peak_resident: c.peak_resident_updates(),
            peak_heap_bytes: lb_heap,
        });
        drop(c);

        // TCP: the whole registered fleet lives on one reactor-hosted
        // thread; the coordinator's poller owns the other end.
        let (listener, addr) = bind("127.0.0.1:0").expect("bind");
        let fleet_shards = shards.clone();
        let factory = s.factory();
        let fleet = std::thread::spawn(move || {
            let mut runtimes: Vec<WorkerRuntime> = fleet_shards
                .into_iter()
                .enumerate()
                .map(|(id, shard)| WorkerRuntime::new(id, factory.clone(), shard))
                .collect();
            run_fleet(&addr, &mut runtimes, &FrameLimits::default()).expect("fleet host")
        });
        let state_len = (s.factory())(0).state_len();
        let mut transport = TcpTransport::accept(&listener, n, state_len, TcpConfig::default())
            .expect("fleet handshake");
        warm_full_fleet(&mut transport, &init_global, &train_cfg(), warm_seed);
        let mut c = Coordinator::new(
            s.factory(),
            s.test_set(),
            transport,
            coordinator_config(&s).with_cohort_fraction(fraction),
        );
        for r in 0..GATE_ROUNDS {
            c.train_round_hot(r, round_seed(seed, r))
                .expect("sampled round");
        }
        assert_eq!(
            bits(c.global_state()),
            bits(&oracle),
            "sampled TCP run diverged from the first-principles oracle at {n} registered clients"
        );
        let before = c.transport().wire_stats();
        let mut r = GATE_ROUNDS;
        let base = heap::reset_peak();
        let r_tcp = rep.time(&format!("round_fanout_{n}_tcp"), fanout_samples, || {
            c.train_round_hot(r, round_seed(seed, r))
                .expect("sampled round");
            r += 1;
        });
        let tcp_heap = heap::peak_delta_bytes(base);
        let after = c.transport().wire_stats();
        // `rep.time` runs one untimed warm call before its samples.
        let bytes_per_round = (after.total() - before.total()) / (fanout_samples + 1) as u64;
        points.push(Point {
            clients: n,
            contacted: FANOUT_COHORT,
            transportlabel: "tcp sampled",
            median_ns: r_tcp.median_ns,
            bytes_per_round,
            peak_resident: c.peak_resident_updates(),
            peak_heap_bytes: tcp_heap,
        });
        c.transport_mut().shutdown();
        drop(c);
        let report = fleet.join().expect("fleet thread");
        assert_eq!(
            (report.clean_shutdowns, report.dropped),
            (n, 0),
            "fleet wind-down at {n} registered clients"
        );

        let lb_rps = 1e9 / r_lb.min_ns;
        let tcp_rps = 1e9 / r_tcp.min_ns;
        println!(
            "{n} registered / {FANOUT_COHORT} sampled: loopback {:.3} ms/round ({lb_rps:.1} r/s)  tcp {:.3} ms/round ({tcp_rps:.1} r/s), {bytes_per_round} B/round",
            r_lb.median_ns / 1e6,
            r_tcp.median_ns / 1e6,
        );
        rep.speedup(&format!("rounds_per_sec_fanout_{n}_loopback"), lb_rps);
        rep.speedup(&format!("rounds_per_sec_fanout_{n}_tcp"), tcp_rps);
        rep.speedup(
            &format!("wire_bytes_per_round_fanout_{n}"),
            bytes_per_round as f64,
        );
        fanout_rps.push((n, lb_rps, tcp_rps));
    }
    // The scaling claim, enforced: at fixed cohort size, growing the
    // *registered* population 1k → 4k may not cost more than 10% in
    // rounds/sec (best-of-N, to keep a loaded CI box from failing the
    // gate on scheduler noise alone). Quick mode runs one size, so the
    // ratio only exists in the full sweep.
    {
        let (n0, lb0, tcp0) = fanout_rps[0];
        let (n1, lb1, tcp1) = *fanout_rps.last().expect("nonempty sweep");
        if n1 > n0 {
            let (lb_ratio, tcp_ratio) = (lb1 / lb0, tcp1 / tcp0);
            println!(
                "fanout flatness {n0} -> {n1}: loopback {lb_ratio:.3}x, tcp {tcp_ratio:.3}x (gate: >= 0.90)"
            );
            rep.speedup("fanout_flatness_loopback", lb_ratio);
            rep.speedup("fanout_flatness_tcp", tcp_ratio);
            assert!(
                lb_ratio >= 0.9 && tcp_ratio >= 0.9,
                "rounds/sec sagged more than 10% growing the registered fleet {n0} -> {n1} \
                 (loopback {lb_ratio:.3}x, tcp {tcp_ratio:.3}x)"
            );
        }
    }

    report::heading("adversarial sweep (mean vs trimmed mean under attack)");
    {
        let n = if quick { 8 } else { 32 };
        let rounds = 4usize;
        let s = spec(n, seed);

        // Clean reference: plain mean, nobody lying.
        let reference = {
            let mut c = loopback_coordinator(&s);
            for r in 0..rounds {
                c.train_round_hot(r, round_seed(seed, r)).expect("round");
            }
            c.global_state().to_vec()
        };

        let drift = |state: &[f32]| -> f64 {
            state
                .iter()
                .zip(&reference)
                .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };

        // Attacked runs: the first `f·n` clients ship 10x-scaled updates
        // (rounded up so a nonzero percentage always fields at least one
        // attacker, even on the --quick 8-client fleet).
        for pct in [0usize, 10, 25] {
            let attackers = (n * pct).div_ceil(100);
            let trim = attackers.max(1).min((n - 1) / 2);
            for (label, mode) in [
                ("mean", AggregationMode::Mean),
                ("trimmed", AggregationMode::TrimmedMean { trim }),
            ] {
                let mut plan = FaultPlan::new();
                for id in 0..attackers {
                    plan = plan.byzantine(id, ByzantineScript::Scale { factor: 10.0 });
                }
                let transport = FaultyTransport::new(
                    LoopbackTransport::new(s.factory(), s.client_shards(), None),
                    plan,
                );
                let cfg = coordinator_config(&s).with_aggregation(mode);
                let mut c = Coordinator::new(s.factory(), s.test_set(), transport, cfg);
                for r in 0..rounds {
                    c.train_round_hot(r, round_seed(seed, r)).expect("round");
                }
                let d = drift(c.global_state());
                println!("{pct:>2}% attackers, {label:>7}: drift from clean mean {d:.6}");
                rep.speedup(&format!("adv_drift_{pct}pct_{label}"), d);
            }
        }
        rep.meta(
            "adversarial_workload",
            format!("{n} clients, {rounds} rounds, scale:10 attackers at 0/10/25%"),
        );
    }

    report::heading("fleet summary");
    let mut table = Table::new(&[
        "clients",
        "path",
        "ms / round",
        "rounds/sec",
        "updates/sec",
        "wire B/round",
        "peak resident",
        "peak heap B",
    ]);
    for p in &points {
        table.row(vec![
            p.clients.to_string(),
            p.transportlabel.to_string(),
            report::num(p.median_ns / 1e6, 3),
            report::num(1e9 / p.median_ns, 1),
            report::num(1e9 / p.median_ns * p.contacted as f64, 0),
            p.bytes_per_round.to_string(),
            p.peak_resident.to_string(),
            p.peak_heap_bytes.to_string(),
        ]);
    }
    table.print();

    rep.meta("identity_gate", "pass");
    rep.meta(
        "workload",
        format!(
            "scale mlp 64->{HIDDEN}->10, {SAMPLES_PER_CLIENT} samples/client (1 batch/round), fleets {loopback_sizes:?} loopback / {tcp_sizes:?} tcp, fanout {fanout_sizes:?} registered at cohort {FANOUT_COHORT}"
        ),
    );
    rep.write("BENCH_scale.json");
}
