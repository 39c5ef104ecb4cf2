//! A drain builds no network per scored upload.
//!
//! Eq 12–13 scoring and the per-round accuracy run on lanes the process
//! already holds: the loopback transport's, which trained the clients,
//! or — over TCP, where no client trains in the coordinator — lanes the
//! drain's round runtime builds once. A factory that counts its calls,
//! shared by the coordinator and the transport (two `Arc`s of one
//! architecture, as in a deployment), shows how many networks each step
//! builds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_fed::ModelFactory;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::{run_worker, WorkerRuntime};

const THREADS: usize = 2;
const UNLEARN_ROUNDS: usize = 2;

fn demo(clients: usize) -> DemoSpec {
    DemoSpec {
        clients,
        samples_per_client: 30,
        test_samples: 40,
        seed: 23,
    }
}

/// `spec`'s factory behind a counter: each call adds one to `calls`.
fn counting(spec: &DemoSpec, calls: &Arc<AtomicUsize>) -> ModelFactory {
    let (inner, calls) = (spec.factory(), Arc::clone(calls));
    Arc::new(move |seed| {
        calls.fetch_add(1, Ordering::SeqCst);
        (inner)(seed)
    })
}

fn config(spec: &DemoSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: spec.train_config(),
        // The default method aggregates with Eq 12–13's adaptive weights.
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 1,
            batch_size: 10,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }),
        unlearn_rounds: UNLEARN_ROUNDS,
        init_seed: 1,
        threads: Some(THREADS),
        ..CoordinatorConfig::default()
    }
}

/// Factory calls made by `step`.
fn calls_during(calls: &AtomicUsize, step: impl FnOnce()) -> usize {
    let before = calls.load(Ordering::SeqCst);
    step();
    calls.load(Ordering::SeqCst) - before
}

/// Queues a deletion of client 0's first two live rows and drains it.
fn drain<T: ServeTransport>(c: &mut Coordinator<T>, round: usize) {
    c.submit_unlearn(UnlearnRequest::new(0, vec![0, 1]))
        .unwrap();
    let summary = c.drain_unlearning(drain_seed(5, round)).unwrap().unwrap();
    assert_eq!(summary.round_accuracies.len(), UNLEARN_ROUNDS);
}

#[test]
fn warm_loopback_drain_builds_only_the_reinit_network() {
    for clients in [2, 6] {
        let spec = demo(clients);
        let calls = Arc::new(AtomicUsize::new(0));
        let transport = LoopbackTransport::new(counting(&spec, &calls), spec.client_shards(), None);
        let mut c = Coordinator::new(
            counting(&spec, &calls),
            spec.test_set(),
            transport,
            config(&spec),
        );
        // Cold: the initial global, then each lane's network and teacher.
        c.train_round(0, round_seed(5, 0)).unwrap();
        drain(&mut c, 0);
        // Warm: Algorithm 1's re-initialisation is the one network a
        // drain builds, whatever the number of scored uploads.
        assert_eq!(
            calls_during(&calls, || drain(&mut c, 1)),
            1,
            "{clients} clients"
        );
        // A warm round's accuracy is scored on the same lanes.
        let built = calls_during(&calls, || {
            c.train_round(1, round_seed(5, 1)).unwrap();
        });
        assert_eq!(built, 0, "{clients} clients");
    }
}

#[test]
fn tcp_drain_builds_at_most_one_network_per_thread() {
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut runtime = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                run_worker(&addr, &mut runtime, &FrameLimits::default()).unwrap();
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let mut c = Coordinator::new(
        counting(&spec, &calls),
        spec.test_set(),
        transport,
        config(&spec),
    );
    c.train_round(0, round_seed(5, 0)).unwrap();
    for round in 0..2 {
        // The re-init, and the lanes of the drain's own round runtime:
        // one per thread, each built once for every round's scores.
        let built = calls_during(&calls, || drain(&mut c, round));
        assert!(built <= THREADS + 1, "drain {round} built {built}");
    }
    c.transport_mut().shutdown();
    for w in workers {
        w.join().unwrap();
    }
}
