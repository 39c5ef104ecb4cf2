//! Sequential deletions leave nothing behind.
//!
//! Three deletions — two of them on one client, two drained back to
//! back — served over loopback and over fleet-hosted TCP, the TCP
//! coordinator restarted twice: once cleanly, once killed mid-drain. Each
//! drain commits the same global on both transports, and that global is
//! the library's unlearning with that drain's forget rows. A client's row
//! store is the one holder of those rows: it holds exactly the current
//! drain's rows while the drain runs, and after the next training round
//! no store — loopback or worker — holds any, nor a deleted row among its
//! live rows.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::method::{ClientSplit, UnlearnSetup};
use goldfish_core::{GoldfishUnlearning, UnlearningMethod};
use goldfish_data::Dataset;
use goldfish_fed::rows::ClientRows;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::digest::{hex, state_digest};
use goldfish_serve::durability::DurableStore;
use goldfish_serve::fault::{FaultPlan, FaultyTransport};
use goldfish_serve::fleet::run_fleet;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::WorkerRuntime;

const SEED: u64 = 7;

fn spec() -> DemoSpec {
    DemoSpec {
        clients: 2,
        samples_per_client: 40,
        test_samples: 20,
        seed: 8,
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

fn config(spec: &DemoSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: spec.train_config(),
        method: method(),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(2),
        ..CoordinatorConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("goldfish-seq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// One deletion: its client, the rows it names in the live view it is
/// submitted against, and the original rows those are.
struct Deletion {
    client: usize,
    live: &'static [usize],
    originals: &'static [usize],
}

/// Rows 1–3 of client 0; rows 0 and 4 of client 1; then client 0's live
/// rows 0 and 5 — with rows 1–3 gone, original rows 0 and 8.
const DELETIONS: [Deletion; 3] = [
    Deletion {
        client: 0,
        live: &[1, 2, 3],
        originals: &[1, 2, 3],
    },
    Deletion {
        client: 1,
        live: &[0, 4],
        originals: &[0, 4],
    },
    Deletion {
        client: 0,
        live: &[0, 5],
        originals: &[0, 8],
    },
];

fn request(k: usize) -> UnlearnRequest {
    let d = &DELETIONS[k];
    UnlearnRequest::new(d.client, d.live.to_vec())
}

/// Every original row of `client` the first `served` deletions took.
fn gone(client: usize, served: usize) -> Vec<usize> {
    let mut gone: Vec<usize> = DELETIONS[..served]
        .iter()
        .filter(|d| d.client == client)
        .flat_map(|d| d.originals.iter().copied())
        .collect();
    gone.sort_unstable();
    gone
}

/// The rows deletion `k` has `client` forget: its rows, or none.
fn forget_of(client: usize, k: usize) -> &'static [usize] {
    let d = &DELETIONS[k];
    if d.client == client {
        d.originals
    } else {
        &[]
    }
}

/// A dataset's row count, features digest and labels, for bitwise
/// equality.
fn bits(d: &Dataset) -> (usize, String, Vec<usize>) {
    let features = hex(&state_digest(0, d.features().as_slice()));
    (d.len(), features, d.labels().to_vec())
}

/// Every client's store once the first `served` deletions are gone:
/// exactly the rows they left live, and exactly `forget(client)`'s rows
/// held to forget.
fn assert_stores<'s>(
    what: &str,
    stores: impl IntoIterator<Item = &'s ClientRows<'static>>,
    served: usize,
    forget: impl Fn(usize) -> &'static [usize],
) {
    let shards = spec().client_shards();
    for (id, rows) in stores.into_iter().enumerate() {
        let split = ClientSplit::with_removed(&shards[id], &gone(id, served));
        assert_eq!(
            bits(rows.live()),
            bits(&split.remaining),
            "{what}: client {id}'s live rows"
        );
        assert_eq!(
            bits(rows.forget()),
            bits(&shards[id].subset(forget(id))),
            "{what}: client {id}'s forget rows"
        );
    }
}

fn nothing(_: usize) -> &'static [usize] {
    &[]
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(
        state_digest(0, got),
        state_digest(0, want),
        "{what} diverged"
    );
}

/// The library's unlearning of deletion `k` from `teacher`: every
/// client's rows without the first `k + 1` deletions', forgetting
/// deletion `k`'s.
fn library(k: usize, teacher: &[f32]) -> Vec<f32> {
    let spec = spec();
    let shards = spec.client_shards();
    let clients = (0..spec.clients)
        .map(|id| ClientSplit {
            remaining: ClientSplit::with_removed(&shards[id], &gone(id, k + 1)).remaining,
            forget: shards[id].subset(forget_of(id, k)),
        })
        .collect();
    let setup = UnlearnSetup {
        factory: spec.factory(),
        clients,
        test: spec.test_set(),
        original_global: teacher.to_vec(),
        rounds: 1,
        train: spec.train_config(),
    };
    method().unlearn(&setup, drain_seed(SEED, k)).global_state
}

/// The schedule over loopback, uninterrupted: round 0, deletion 0,
/// round 1, deletions 1 and 2 back to back, round 2. Checks the stores
/// after every step; returns each drain's teacher and global.
fn loopback_run() -> Vec<(Vec<f32>, Vec<f32>)> {
    let spec = spec();
    let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2));
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, config(&spec));
    let stores = |c: &Coordinator<LoopbackTransport>| {
        (0..spec.clients)
            .map(|id| c.transport().rows(id).unwrap().clone())
            .collect::<Vec<_>>()
    };
    let mut drains = Vec::new();
    let mut drain = |c: &mut Coordinator<LoopbackTransport>, k: usize| {
        let teacher = c.global_state().to_vec();
        c.submit_unlearn(request(k)).unwrap();
        c.drain_unlearning(drain_seed(SEED, k)).unwrap().unwrap();
        let what = format!("loopback, drain {k}");
        assert_stores(&what, &stores(c), k + 1, |id| forget_of(id, k));
        drains.push((teacher, c.global_state().to_vec()));
    };
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    drain(&mut c, 0);
    c.train_round(1, round_seed(SEED, 1)).unwrap();
    assert_stores("loopback, round 1", &stores(&c), 1, nothing);
    drain(&mut c, 1);
    drain(&mut c, 2);
    c.train_round(2, round_seed(SEED, 2)).unwrap();
    assert_stores("loopback, round 2", &stores(&c), 3, nothing);
    drains
}

/// The same schedule over fleet-hosted TCP, three coordinator
/// incarnations over one state directory: the first stops cleanly after
/// round 1; the second is killed right after shipping deletion 1 (the
/// workers removed its rows and acked, nothing is committed); the third
/// recovers, re-drains deletion 1, drains deletion 2 and runs round 2.
/// The fleet host lends its workers' stores out between incarnations.
/// Returns each drain's global.
fn tcp_run() -> Vec<Vec<f32>> {
    let spec = spec();
    let dir = tmp_dir("tcp");
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let (stores_tx, stores) = mpsc::channel();
    // Workers that outlive each incarnation: when every connection is
    // gone, the host lends out its stores and rejoins (each `Hello` then
    // carries its resume token).
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (0..spec.clients)
            .map(|id| WorkerRuntime::new(id, spec.factory(), spec.client_shard(id)))
            .collect();
        for _ in 0..3 {
            run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap();
            let rows: Vec<ClientRows<'static>> =
                runtimes.iter().map(|w| w.rows().clone()).collect();
            stores_tx.send(rows).unwrap();
        }
    });
    let state_len = (spec.factory())(0).state_len();
    let tcp_cfg = TcpConfig {
        read_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };
    let incarnation = |plan: FaultPlan| {
        let tcp = TcpTransport::accept(&listener, spec.clients, state_len, tcp_cfg).unwrap();
        let faulty = FaultyTransport::new(tcp, plan);
        let mut c = Coordinator::new(spec.factory(), spec.test_set(), faulty, config(&spec));
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c
    };
    let mut drains = Vec::new();

    let mut c = incarnation(FaultPlan::new());
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    c.submit_unlearn(request(0)).unwrap();
    c.drain_unlearning(drain_seed(SEED, 0)).unwrap().unwrap();
    drains.push(c.global_state().to_vec());
    c.train_round(1, round_seed(SEED, 1)).unwrap();
    c.transport_mut().shutdown();
    drop(c);
    assert_stores("workers, round 1", &stores.recv().unwrap(), 1, nothing);

    // Ops: 0 = begin_unlearn of deletion 1.
    let mut c = incarnation(FaultPlan::new().kill_after_at(0));
    c.submit_unlearn(request(1)).unwrap();
    let err = c.drain_unlearning(drain_seed(SEED, 1)).unwrap_err();
    assert!(err.to_string().contains("fault injection"), "{err}");
    drop(c); // the crash: every worker connection closes abruptly
    let held = |id| forget_of(id, 1);
    assert_stores("workers, killed drain 1", &stores.recv().unwrap(), 2, held);

    let mut c = incarnation(FaultPlan::new());
    assert!(c.has_overdue_drain());
    c.drain_unlearning(drain_seed(SEED, 1)).unwrap().unwrap();
    drains.push(c.global_state().to_vec());
    c.submit_unlearn(request(2)).unwrap();
    c.drain_unlearning(drain_seed(SEED, 2)).unwrap().unwrap();
    drains.push(c.global_state().to_vec());
    c.train_round(2, round_seed(SEED, 2)).unwrap();
    c.transport_mut().shutdown();
    drop(c);
    assert_stores("workers, round 2", &stores.recv().unwrap(), 3, nothing);

    fleet.join().expect("the fleet thread panicked");
    let _ = std::fs::remove_dir_all(&dir);
    drains
}

#[test]
fn sequential_deletions_leave_nothing_behind() {
    let loopback = loopback_run();
    let tcp = tcp_run();
    for (k, ((teacher, global), over_tcp)) in loopback.iter().zip(&tcp).enumerate() {
        assert_bits(over_tcp, global, &format!("drain {k} over TCP"));
        assert_bits(
            global,
            &library(k, teacher),
            &format!("drain {k} against the library"),
        );
    }
}

/// A drain that fails after its requester's worker acked — every
/// distillation round's replies are lost — then a training round, a
/// coordinator restart, and a deletion on the same client, named in
/// the live view. Returns the global and the client sizes before the
/// restart and after that deletion, digested.
fn failed_drain_then_restart<T: ServeTransport>(
    name: &str,
    mut incarnation: impl FnMut() -> T,
) -> [(String, Vec<usize>); 2] {
    let spec = spec();
    let dir = tmp_dir(name);
    let coordinator = |transport, plan| {
        let faulty = FaultyTransport::new(transport, plan);
        let mut c = Coordinator::new(spec.factory(), spec.test_set(), faulty, config(&spec));
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c
    };
    // Ops: 0 = train round 0, 1 = begin_unlearn, 2 = the distillation
    // round, whose every reply is dropped.
    let plan = FaultPlan::new().drop_client_at(2, 0).drop_client_at(2, 1);
    let mut c = coordinator(incarnation(), plan);
    c.train_round(0, round_seed(SEED, 0)).unwrap();
    c.submit_unlearn(UnlearnRequest::new(0, (0..6).collect()))
        .unwrap();
    assert!(c.drain_unlearning(drain_seed(SEED, 0)).is_err());
    // Over TCP the dropped replies closed both connections: wait until
    // both workers have rejoined.
    while c.transport().client_sizes().contains(&0) {
        std::thread::sleep(Duration::from_millis(10));
        let global = c.global_state().to_vec();
        c.transport_mut().admit_reconnects(1, &global);
    }
    c.train_round(1, round_seed(SEED, 1)).unwrap();
    let before = digest(&c);
    drop(c); // the crash

    let mut c = coordinator(incarnation(), FaultPlan::new());
    c.train_round(2, round_seed(SEED, 2)).unwrap();
    c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1]))
        .unwrap();
    c.drain_unlearning(drain_seed(SEED, 2)).unwrap().unwrap();
    let after = digest(&c);
    c.transport_mut().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    [before, after]
}

fn digest<T: ServeTransport>(c: &Coordinator<T>) -> (String, Vec<usize>) {
    let global = hex(&state_digest(0, c.global_state()));
    (global, c.transport().client_sizes())
}

/// What a failed drain leaves is not decided yet (ROADMAP items 31 and
/// 8(b)). The two transports agree until the restart. Then the
/// requester's worker still has the failed drain's rows removed, while
/// the restarted coordinator rebuilds its row index from the audit
/// alone and a loopback one re-reads the rows from the registered data.
/// So the next deletion's live rows 0 and 1 are original rows 0 and 1 on
/// both, which the worker no longer holds. Observed after that
/// deletion: TCP commits `state_digest(0, ·)` `c8a4de9c…` with client
/// sizes `[34, 40]` (it removed nothing), loopback `b2416fe0…` with
/// `[38, 40]`.
#[test]
#[ignore = "a failed drain's removed rows outlive a restart on TCP workers only"]
fn a_failed_drain_then_a_restart_matches_loopback() {
    let spec = spec();
    let loopback = failed_drain_then_restart("failed-loopback", || {
        LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2))
    });

    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (0..spec.clients)
            .map(|id| WorkerRuntime::new(id, spec.factory(), spec.client_shard(id)))
            .collect();
        for _ in 0..3 {
            run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap();
        }
    });
    let state_len = (spec.factory())(0).state_len();
    let tcp = failed_drain_then_restart("failed-tcp", || {
        let mut t =
            TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
        t.enable_reconnect(listener.try_clone().unwrap());
        t
    });
    fleet.join().expect("the fleet thread panicked");
    assert_eq!(
        tcp[0], loopback[0],
        "TCP diverged from loopback before the restart"
    );
    assert_eq!(
        tcp[1], loopback[1],
        "TCP diverged from loopback after the restart"
    );
}
