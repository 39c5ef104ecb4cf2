//! The coordinator daemon: listens for workers, runs the federated
//! schedule, drains unlearning requests between rounds.
//!
//! ```text
//! goldfish-coordinator [--listen 127.0.0.1:4771] [--clients 2]
//!                      [--samples 120] [--rounds 2] [--unlearn-rounds 1]
//!                      [--seed 42] [--unlearn AFTER:CLIENT:COUNT]
//!                      [--loopback] [--state-dir DIR] [--verify-audit]
//!                      [--kill-at OP] [--aggregation MODE] [--quorum F]
//!                      [--max-strikes K] [--max-delta-norm X]
//!                      [--byzantine CLIENT:SCRIPT] [--cohort-fraction F]
//!                      [--metrics-addr ADDR] [--trace-out PATH] [--status]
//!                      [--shards TAU] [--shard-group K]
//!                      [--drain-deadline-ms MS] [--max-queue-depth N]
//! ```
//!
//! The workload is the deterministic demo workload (`goldfish_serve::demo`):
//! workers derive their shards from the same `(seed, clients, samples)`
//! triple, so start every `goldfish-worker` with matching flags.
//! `--unlearn 0:0:12` queues "client 0 forgets its first 12 samples"
//! after training round 0. With `--loopback` no sockets are opened and
//! the same schedule runs in-process (useful as a smoke check).
//!
//! Durability (DESIGN.md §12): `--state-dir DIR` checkpoints the global
//! state after every round/drain, write-ahead-logs accepted unlearning
//! requests, and hash-chains served requests into `DIR/audit.log` — a
//! killed coordinator restarted with the same flags resumes the exact
//! round stream. `--verify-audit` (with `--state-dir`) re-walks the
//! audit chain and exits 0/1. `--kill-at OP` injects a coordinator
//! crash at transport operation `OP` (exit code 41), which is how the
//! CI crash-kill-restart demo produces a mid-run corpse to recover.
//!
//! Robustness (DESIGN.md §13): `--aggregation mean|trimmed:K|median|
//! normclip:C` selects the aggregation rule, `--quorum F` lets a round
//! finish degraded over `ceil(F·cohort)` reported updates, and
//! `--max-strikes K` / `--max-delta-norm X` configure the admission
//! layer's strike budget and relative-delta-norm bound. `--byzantine
//! CLIENT:SCRIPT` (e.g. `0:scale:10`, `1:signflip`, `2:replay`) makes
//! the fault-injection layer corrupt that client's uploads — the CI
//! Byzantine demo drives one scripted attacker into quarantine and
//! reads the verdict back out of the audit chain.
//!
//! Sampling (DESIGN.md §14): `--cohort-fraction F` (0 < F ≤ 1) draws a
//! seeded `ceil(F·registered)` cohort of the registered workers each
//! round instead of fanning out to everyone — deterministic in
//! `(round_seed, registry)`, so a crash-restarted coordinator re-samples
//! the identical cohort.
//!
//! Sharding (DESIGN.md §16): `--shards TAU` turns on shard-isolated
//! unlearning — each client's data is partitioned into `TAU` shards and
//! a deletion drains as retrain tasks over only the affected shards.
//! `--shard-group K` sets the XOR-parity redundancy-group width (a
//! scripted straggler's shard checkpoints are reconstructed from parity
//! and retrained by a seeded healthy delegate, recorded as a degraded
//! drain in the audit chain). `--drain-deadline-ms MS` bounds each
//! drain's declared-lateness budget: what doesn't fit commits partially
//! and the remainder re-queues for the next drain. `--max-queue-depth
//! N` rejects new deletion submits (typed, never merges) beyond `N`
//! pending entries — in either mode. `--byzantine C:straggle:MS`
//! declares client `C` late by `MS` milliseconds without corrupting its
//! updates.
//!
//! Observability (DESIGN.md §15): `--metrics-addr ADDR` serves the
//! coordinator's metric catalog on a read-only admin endpoint
//! (`/metrics` Prometheus text, `/json` snapshot, `/status` table) for
//! the whole run. `--trace-out PATH` keeps a bounded ring of structured
//! round events and writes them as JSONL on exit. `--status` is the
//! one-shot client: it fetches `/status` from a running coordinator's
//! `--metrics-addr` (default `127.0.0.1:4772`) and exits. Diagnostics
//! go through the `GOLDFISH_LOG`-leveled stderr logger; result lines
//! the CI greps stay on stdout.

use std::path::Path;
use std::sync::Arc;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_serve::admin::{self, AdminServer};
use goldfish_serve::audit;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardPolicy;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_telemetry::clock::Clock;
use goldfish_telemetry::events::Trace;
use goldfish_telemetry::{error, logger, warn};

/// Exit status of a fault-injected (`--kill-at`) crash, distinct from
/// real failures so the restart harness can tell them apart.
const EXIT_KILLED: i32 = 41;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn value_of(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn num<T: std::str::FromStr>(name: &str, default: T) -> T {
    value_of(name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} expects a number, got {v}"))
        })
        .unwrap_or(default)
}

/// Parsed `--unlearn AFTER:CLIENT:COUNT`.
struct UnlearnPlan {
    after_round: usize,
    client: usize,
    count: usize,
}

fn unlearn_plan() -> Option<UnlearnPlan> {
    let spec = value_of("--unlearn")?;
    let parts: Vec<&str> = spec.split(':').collect();
    assert_eq!(
        parts.len(),
        3,
        "--unlearn expects AFTER:CLIENT:COUNT, got {spec}"
    );
    Some(UnlearnPlan {
        after_round: parts[0].parse().expect("--unlearn AFTER"),
        client: parts[1].parse().expect("--unlearn CLIENT"),
        count: parts[2].parse().expect("--unlearn COUNT"),
    })
}

/// A failed round/drain: an injected kill exits with [`EXIT_KILLED`]
/// (the restart harness's cue), anything real panics as before.
fn die(context: &str, e: impl std::fmt::Display) -> ! {
    let text = e.to_string();
    if text.contains("fault injection") {
        error!("{context}: {text}");
        std::process::exit(EXIT_KILLED);
    }
    panic!("{context}: {text}");
}

/// `--status`: one-shot admin client against a running coordinator's
/// `--metrics-addr` endpoint.
fn status() -> ! {
    let addr = value_of("--metrics-addr").unwrap_or_else(|| "127.0.0.1:4772".to_string());
    match admin::fetch(addr.as_str(), "/status") {
        Ok(body) => {
            print!("{body}");
            std::process::exit(0);
        }
        Err(e) => {
            error!("status fetch from {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `--trace-out PATH`: flushes the bounded event ring as JSONL.
fn write_trace(telemetry: &ServeTelemetry, path: Option<&str>) {
    let Some(path) = path else {
        return;
    };
    match std::fs::File::create(path).and_then(|mut f| telemetry.trace.write_jsonl(&mut f)) {
        Ok(n) => {
            let dropped = telemetry.trace.dropped();
            if dropped > 0 {
                warn!("trace ring overflowed: {dropped} event(s) dropped");
            }
            println!("trace: {n} event(s) written to {path}");
        }
        Err(e) => error!("trace write to {path} failed: {e}"),
    }
}

/// Runs one drain slot in whichever mode the coordinator is configured
/// for, printing the result. Shard mode drains the shard task queue
/// (partial commits included); plain mode drains whole-client requests.
fn drain_slot<T: ServeTransport>(coordinator: &mut Coordinator<T>, slot: usize, seed: u64) {
    if coordinator.shard_mode() {
        match coordinator.drain_shard_tasks(drain_seed(seed, slot)) {
            Ok(Some(s)) => {
                println!(
                    "round {slot} shard drain: {} task(s) retrained, {} degraded, {} re-queued (accuracy {:.4})",
                    s.completed.len(),
                    s.degraded.len(),
                    s.requeued,
                    coordinator.global_accuracy(),
                );
                for &(owner, shard, delegate) in &s.degraded {
                    println!(
                        "degraded drain: client {owner} shard {shard} reconstructed from parity, retrained by client {delegate}"
                    );
                }
            }
            Ok(None) => {}
            Err(e) => die("shard drain failed", e),
        }
        return;
    }
    match coordinator.drain_unlearning(drain_seed(seed, slot)) {
        Ok(Some(u)) => {
            let stats = coordinator.drain_stats();
            println!(
                "round {slot} drain: served {} unlearning request(s) (post-unlearn accuracy {:.4}; {} served across {} drains so far)",
                u.requests.len(),
                u.round_accuracies.last().copied().unwrap_or(0.0),
                stats.requests_served,
                stats.batches_served,
            );
        }
        Ok(None) => {}
        Err(e) => die("unlearning failed", e),
    }
}

fn serve<T: ServeTransport>(
    mut coordinator: Coordinator<T>,
    rounds: usize,
    seed: u64,
    plan: Option<UnlearnPlan>,
) {
    println!(
        "initial test accuracy: {:.4}",
        coordinator.global_accuracy()
    );
    let start = coordinator.next_round();
    if start > 0 {
        println!("resuming at round {start} (recovered state)");
    }
    // A drain the crashed run accepted but never committed runs first,
    // at its original seed slot, before any new round.
    if coordinator.has_overdue_drain() {
        let slot = start - 1;
        if coordinator.shard_mode() {
            match coordinator.drain_shard_tasks(drain_seed(seed, slot)) {
                Ok(Some(s)) => println!(
                    "recovered shard drain (round {slot}): {} task(s) retrained, {} re-queued",
                    s.completed.len(),
                    s.requeued
                ),
                Ok(None) => {}
                Err(e) => die("recovered shard drain failed", e),
            }
        } else {
            match coordinator.drain_unlearning(drain_seed(seed, slot)) {
                Ok(Some(u)) => println!(
                    "recovered drain (round {slot}): served {} unlearning request(s)",
                    u.requests.len()
                ),
                Ok(None) => {}
                Err(e) => die("recovered drain failed", e),
            }
        }
    }
    for r in start..rounds {
        let summary = coordinator
            .train_round(r, round_seed(seed, r))
            .unwrap_or_else(|e| die(&format!("round {r} failed"), e));
        println!(
            "round {r}: accuracy {:.4} ({} clients)",
            summary.global_accuracy,
            summary.client_sizes.len()
        );
        if let Some(p) = plan.as_ref().filter(|p| p.after_round == r) {
            let req = UnlearnRequest::new(p.client, (0..p.count).collect());
            match coordinator.submit_unlearn(req) {
                Ok(()) => println!(
                    "queued unlearning request: client {} forgets {} samples",
                    p.client, p.count
                ),
                Err(e) => println!("rejected unlearning request: {e}"),
            }
        }
        drain_slot(&mut coordinator, r, seed);
    }
    let global = coordinator.global_state().to_vec();
    for e in coordinator.transport_mut().local_eval(rounds, &global) {
        match e {
            Ok(e) => println!(
                "client {} local eval: accuracy {:.4}, mse {:.5}",
                e.client_id, e.accuracy, e.mse
            ),
            Err(err) => println!("local eval failed: {err}"),
        }
    }
    for e in coordinator.robustness_log() {
        match e {
            goldfish_fed::transport::RobustnessEvent::Violation {
                client_id,
                violation,
                strikes,
            } => println!("violation: client {client_id} — {violation} (strikes {strikes})"),
            goldfish_fed::transport::RobustnessEvent::Quarantined { client_id, strikes } => {
                println!("QUARANTINED: client {client_id} after {strikes} strike(s)")
            }
        }
    }
    let outcome = coordinator.last_round_outcome();
    if outcome.degraded {
        println!(
            "last round degraded: {}/{} cohort members reported (quorum fold)",
            outcome.reported, outcome.cohort
        );
    }
    let stats = coordinator.transport().wire_stats();
    println!(
        "final accuracy {:.4}; wire: {} B sent, {} B received",
        coordinator.global_accuracy(),
        stats.bytes_sent,
        stats.bytes_received
    );
    // Graceful goodbye: without it, workers treat our exit as a crash
    // and (under --reconnect) wait for a coordinator that isn't coming.
    coordinator.transport_mut().shutdown();
}

/// Attaches `--state-dir` durability (checkpoint + WAL + audit) when
/// requested, applying whatever the store recovered.
fn attach_state_dir<T: ServeTransport>(coordinator: &mut Coordinator<T>) {
    let Some(dir) = value_of("--state-dir") else {
        return;
    };
    // A state dir that does not open (every checkpoint corrupt, say) is
    // the same typed exit as one that does not fit.
    let (store, recovered) = DurableStore::open(Path::new(&dir)).unwrap_or_else(|e| {
        error!("state dir {dir}: {e}");
        std::process::exit(2)
    });
    if recovered.fell_back {
        warn!("newest checkpoint unreadable, recovered from the previous one");
    }
    let resumed = recovered.resumed;
    let served = recovered.served.len();
    let replayed = recovered.replayed.len();
    if let Err(e) = coordinator.attach_durability(store, recovered) {
        error!("state dir {dir}: recovered state does not fit: {e}");
        std::process::exit(2);
    }
    if resumed {
        println!(
            "recovered from {dir}: round cursor {}, {} served request(s) in the audit chain, {} WAL request(s) replayed",
            coordinator.next_round(),
            served,
            replayed,
        );
    } else {
        println!("durability on: fresh state in {dir}");
    }
}

/// `--verify-audit`: re-walk the hash chain and report.
fn verify_audit() -> ! {
    let dir = value_of("--state-dir").expect("--verify-audit requires --state-dir DIR");
    let path = audit_path(Path::new(&dir));
    match audit::verify_file(&path) {
        Ok(summary) => {
            for e in &summary.entries {
                println!("{}", audit::describe_entry(e));
            }
            println!(
                "audit chain OK: {} entr{} over {} bytes, tip {}",
                summary.entries.len(),
                if summary.entries.len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                summary.bytes,
                &goldfish_serve::digest::hex(&summary.tip)[..16],
            );
            std::process::exit(0);
        }
        Err(e) => {
            error!("audit chain verification FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Applies `--aggregation`, `--quorum`, `--max-strikes` and
/// `--max-delta-norm` to the config.
fn apply_robustness_flags(mut cfg: CoordinatorConfig) -> CoordinatorConfig {
    if let Some(mode) = value_of("--aggregation") {
        let mode = AggregationMode::parse(&mode).unwrap_or_else(|| {
            panic!("--aggregation expects mean|trimmed:K|median|normclip:C, got {mode}")
        });
        cfg = cfg.with_aggregation(mode);
    }
    if let Some(q) = value_of("--quorum") {
        let q: f64 = q.parse().expect("--quorum expects a fraction in (0, 1]");
        assert!(
            (0.0..=1.0).contains(&q) && q > 0.0,
            "--quorum out of (0, 1]"
        );
        cfg = cfg.with_quorum(q);
    }
    if let Some(k) = value_of("--max-strikes") {
        cfg = cfg.with_max_strikes(k.parse().expect("--max-strikes expects a count"));
    }
    if let Some(x) = value_of("--max-delta-norm") {
        cfg = cfg.with_max_delta_norm(x.parse().expect("--max-delta-norm expects a bound"));
    }
    if let Some(f) = value_of("--cohort-fraction") {
        let f: f64 = f
            .parse()
            .expect("--cohort-fraction expects a fraction in (0, 1]");
        assert!(f > 0.0 && f <= 1.0, "--cohort-fraction out of (0, 1]");
        cfg = cfg.with_cohort_fraction(f);
    }
    cfg
}

/// Parsed `--byzantine CLIENT:SCRIPT` occurrences (repeatable), folded
/// into the fault plan.
fn apply_byzantine_flags(mut plan: FaultPlan) -> FaultPlan {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] != "--byzantine" {
            continue;
        }
        let spec = args
            .get(i + 1)
            .expect("--byzantine expects CLIENT:SCRIPT (e.g. 0:scale:10)");
        let (client, script) = spec
            .split_once(':')
            .expect("--byzantine expects CLIENT:SCRIPT (e.g. 0:scale:10)");
        let client: usize = client.parse().expect("--byzantine CLIENT");
        let script = ByzantineScript::parse(script)
            .unwrap_or_else(|| panic!("--byzantine: unknown script {script}"));
        plan = plan.byzantine(client, script);
    }
    plan
}

fn main() {
    let clock = Clock::system();
    logger::init(clock.clone());
    if flag("--status") {
        status();
    }
    if flag("--verify-audit") {
        verify_audit();
    }
    let trace_out = value_of("--trace-out");
    let trace = if trace_out.is_some() {
        // Bounded: a long run can only ever pin ~4096 events of memory;
        // overflow is counted, not allocated around.
        Trace::bounded(4096, clock.clone())
    } else {
        Trace::disabled()
    };
    let telemetry = Arc::new(ServeTelemetry::new(clock, trace));
    let spec = DemoSpec {
        clients: num("--clients", 2),
        samples_per_client: num("--samples", 120),
        test_samples: 60,
        seed: num("--seed", 42u64),
    };
    let rounds: usize = num("--rounds", 2);
    let mut cfg = CoordinatorConfig {
        train: spec.train_config(),
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 1,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }),
        unlearn_rounds: num("--unlearn-rounds", 1),
        init_seed: spec.seed.wrapping_add(1),
        threads: None,
        ..CoordinatorConfig::default()
    }
    .with_update_window(num("--window", 0usize))
    .with_telemetry(telemetry.clone());
    cfg = apply_robustness_flags(cfg);
    let shard_tau: usize = num("--shards", 0usize);
    let shard_group: usize = num("--shard-group", 2usize);
    if shard_tau > 0 {
        cfg = cfg.with_shards(ShardPolicy {
            tau: shard_tau,
            group: shard_group,
            deadline_ms: num("--drain-deadline-ms", 0u64),
        });
    }
    if let Some(limit) = value_of("--max-queue-depth") {
        cfg = cfg.with_max_queue_depth(limit.parse().expect("--max-queue-depth expects a count"));
    }
    // The reply deadline is the TCP reactor's (`TcpConfig`); loopback
    // has none. Parsed here so a bad value fails under either transport.
    let read_timeout = value_of("--read-timeout-ms").map(|ms| {
        let ms: u64 = ms.parse().expect("--read-timeout-ms expects milliseconds");
        std::time::Duration::from_millis(ms)
    });
    let state_len = (spec.factory())(0).state_len();
    println!(
        "goldfish-coordinator: {} clients x {} samples, {} rounds, {} params",
        spec.clients, spec.samples_per_client, rounds, state_len
    );
    let kill_at: Option<u64> = value_of("--kill-at").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--kill-at expects an operation index, got {v}"))
    });
    // The admin endpoint outlives the schedule (scrapes race the final
    // rounds in CI); its guard drops — and the thread stops — on exit.
    let _admin = value_of("--metrics-addr").map(|maddr| {
        let server = AdminServer::bind(&maddr, telemetry.clone())
            .unwrap_or_else(|e| panic!("--metrics-addr {maddr}: {e}"));
        println!("metrics listening on {}", server.local_addr());
        server
    });

    if flag("--loopback") {
        let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), None);
        let plan = match kill_at {
            Some(op) => FaultPlan::new().kill_before_at(op),
            None => FaultPlan::new(),
        };
        let transport = FaultyTransport::new(transport, apply_byzantine_flags(plan));
        let mut coordinator = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);
        attach_state_dir(&mut coordinator);
        serve(coordinator, rounds, spec.seed, unlearn_plan());
        write_trace(&telemetry, trace_out.as_deref());
        return;
    }

    if shard_tau > 0 {
        // Shard mode is loopback-only: no wire frame carries a shard
        // retrain, so this refusal is what keeps it off TCP (DESIGN.md
        // §16.6).
        error!("--shards currently requires --loopback (TCP shard dispatch is not wired yet)");
        std::process::exit(2);
    }
    let addr = value_of("--listen").unwrap_or_else(|| "127.0.0.1:4771".to_string());
    let (listener, local) = bind(&addr).expect("bind listener");
    println!(
        "listening on {local}, waiting for {} workers …",
        spec.clients
    );
    let (agg_mode, agg_param) = cfg.robust.mode.wire_code();
    let mut tcp_cfg = TcpConfig {
        agg_mode,
        agg_param,
        ..TcpConfig::default()
    };
    if let Some(timeout) = read_timeout {
        tcp_cfg.read_timeout = timeout;
    }
    let mut transport = TcpTransport::accept(&listener, spec.clients, state_len, tcp_cfg)
        .expect("worker handshake");
    // Keep the listener: dropped workers (or workers that outlived a
    // previous coordinator) are re-admitted at round boundaries.
    transport.enable_reconnect(listener);
    println!("all workers registered");
    let plan = match kill_at {
        Some(op) => FaultPlan::new().kill_before_at(op),
        None => FaultPlan::new(),
    };
    let transport = FaultyTransport::new(transport, apply_byzantine_flags(plan));
    let mut coordinator = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);
    attach_state_dir(&mut coordinator);
    serve(coordinator, rounds, spec.seed, unlearn_plan());
    write_trace(&telemetry, trace_out.as_deref());
}
