//! Pins ISSUE 5's "zero heap allocations per steady-state loopback
//! round" guarantee on the serve hot path, with a counting global
//! allocator: encode-once assignment (borrowed straight from the
//! coordinator's global), persistent loopback training lanes
//! (network arenas + gather buffers + optimizer velocity reused),
//! streaming fixed-slot aggregation, and the global-buffer swap. Kept in
//! its own integration-test binary so no concurrent test can allocate
//! while the counter is armed (the two tests here take turns on a lock).
//!
//! The same allocator also tracks live bytes, which pins ISSUE 15's
//! memory shape: what a loopback federation keeps resident after warm-up
//! is one training lane per pool thread plus output states (one wave of
//! them; `tests/alloc_free.rs` pins that tighter bound) — not one full
//! worker per registered client.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use std::sync::{Arc, Mutex};

use goldfish::core::GoldfishUnlearning;
use goldfish::fed::aggregate::{AggregationMode, RoundAccumulator};
use goldfish::fed::pool;
use goldfish::fed::trainer::TrainLane;
use goldfish::fed::transport::round_seed;
use goldfish::serve::coordinator::{Coordinator, CoordinatorConfig};
use goldfish::serve::demo::DemoSpec;
use goldfish::serve::telemetry::ServeTelemetry;
use goldfish::serve::transport::LoopbackTransport;
use goldfish::telemetry::clock::Clock;
use goldfish::telemetry::events::Trace;

/// Counts allocations (and growth reallocations) while armed, and live
/// heap bytes always.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The tests of this binary run one at a time: both read process-wide
/// allocator state.
static TURN: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live heap bytes `f` left behind.
fn resident_after<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let out = f();
    let after = LIVE_BYTES.load(Ordering::SeqCst);
    (after.saturating_sub(before), out)
}

/// Resident round memory follows executing threads, not the registry:
/// after warm-up a 64-client loopback federation on a 2-thread pool holds
/// 2 lanes + at most 64 output states (plus the round runtime's few
/// state-sized buffers) — the per-client-worker layout it replaced held
/// 64 lanes + 64 states and fails this bound.
#[test]
fn loopback_resident_memory_follows_lanes_not_clients() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 64;
    const THREADS: usize = 2;
    let spec = DemoSpec {
        clients: CLIENTS,
        samples_per_client: 40,
        test_samples: 20,
        seed: 23,
    };
    let factory = spec.factory();
    let shards = spec.client_shards();
    let cfg = spec.train_config();
    let global = (factory)(1).state_vector();
    let state_bytes = global.len() * std::mem::size_of::<f32>();

    // What one warmed lane weighs, measured rather than assumed.
    let (lane_bytes, _lane) = resident_after(|| {
        let mut lane = TrainLane::new();
        let mut out = Vec::new();
        lane.train(&factory, &global, &shards[0], &cfg, 7, &mut out);
        lane
    });
    assert!(
        lane_bytes > state_bytes,
        "a lane holds at least its network"
    );

    let transport = LoopbackTransport::new(factory.clone(), shards, Some(THREADS));
    let mut c = Coordinator::new(
        factory,
        spec.test_set(),
        transport,
        CoordinatorConfig {
            train: cfg,
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(THREADS),
            ..CoordinatorConfig::default()
        },
    );
    let (resident, ()) = resident_after(|| {
        for r in 0..3 {
            c.train_round_hot(r, round_seed(7, r)).unwrap();
        }
    });
    let shape = THREADS * lane_bytes + CLIENTS * state_bytes;
    assert!(
        resident <= shape + shape / 2,
        "warm 64-client federation keeps {resident} B resident; \
         2 lanes + 64 output states is {shape} B (lane {lane_bytes} B, state {state_bytes} B)"
    );
    // The bound means something: one worker per client would not fit.
    assert!(
        CLIENTS * (lane_bytes + state_bytes) > 2 * shape,
        "bound too loose"
    );
}

#[test]
fn steady_state_loopback_round_is_allocation_free() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // The serving hot path at single-thread pool size (the parallel
    // scope of the vendored rayon allocates its task queue; with one
    // thread every stage runs inline, same bits — thread count is pinned
    // as a non-semantic knob by the fed determinism suite).
    let spec = DemoSpec {
        clients: 4,
        samples_per_client: 60,
        test_samples: 20,
        seed: 23,
    };
    let cfg = CoordinatorConfig {
        train: spec.train_config(),
        method: GoldfishUnlearning::default(),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(1),
        ..CoordinatorConfig::default()
    };
    let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);

    // Reference: the summary-producing round on a twin coordinator, to
    // prove the hot path computes the same global.
    let transport2 = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut reference = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport2,
        CoordinatorConfig {
            train: spec.train_config(),
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(1),
            ..CoordinatorConfig::default()
        },
    );

    // Warm-up: size every worker arena, state buffer, accumulator lane
    // and result vector.
    for r in 0..2 {
        c.train_round_hot(r, round_seed(7, r)).unwrap();
        reference.train_round(r, round_seed(7, r)).unwrap();
        assert_eq!(
            c.global_state(),
            reference.global_state(),
            "hot path diverged from the summary path at round {r}"
        );
    }

    // Armed: whole rounds must not touch the allocator.
    pool::install(Some(1), || {
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for r in 2..6 {
            c.train_round_hot(r, round_seed(7, r)).unwrap();
        }
        ARMED.store(false, Ordering::SeqCst);
    });
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state loopback rounds performed {n} allocations"
    );

    // And the armed rounds still computed the right thing.
    for r in 2..6 {
        reference.train_round(r, round_seed(7, r)).unwrap();
    }
    assert_eq!(c.global_state(), reference.global_state());
    assert_eq!(c.peak_resident_updates(), 1, "loopback feeds in id order");

    // ISSUE 9: the guarantee must survive full telemetry — registry
    // counters, span histograms, a manual clock and a bounded trace
    // ring all record on the hot path, and none of them may allocate
    // after registration (or perturb the numerics).
    let clock = Clock::manual();
    let telemetry = Arc::new(ServeTelemetry::new(
        clock.clone(),
        Trace::bounded(64, clock.clone()),
    ));
    let transport3 = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut instrumented = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport3,
        CoordinatorConfig {
            train: spec.train_config(),
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(1),
            telemetry: Some(Arc::clone(&telemetry)),
            ..CoordinatorConfig::default()
        },
    );
    for r in 0..2 {
        instrumented.train_round_hot(r, round_seed(7, r)).unwrap();
    }
    pool::install(Some(1), || {
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for r in 2..6 {
            clock.advance(1_000_000); // 1ms per round: nonzero spans
            instrumented.train_round_hot(r, round_seed(7, r)).unwrap();
        }
        ARMED.store(false, Ordering::SeqCst);
    });
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "telemetry-instrumented rounds performed {n} allocations"
    );

    // Telemetry on/off is bitwise invisible, and the registry agrees
    // with what actually ran.
    assert_eq!(instrumented.global_state(), c.global_state());
    assert_eq!(telemetry.round.rounds_total.get(), 6);
    assert_eq!(telemetry.round.updates_admitted_total.get(), 24);
    assert_eq!(telemetry.round.resident_peak.get(), 1);
    assert!(telemetry.round_seconds.count() >= 4);
    assert!(telemetry.trace.is_enabled());
    assert_eq!(telemetry.trace.dropped(), 0);
}

/// The streaming fold and its finish run on the calling thread at every
/// pool size, so the accumulator side of a round stays allocation-free
/// on a two-thread pool too — in-order and parked arrivals alike, on a
/// state the size of the benchmark MLP's (seven 16 Ki-element chunks).
/// (A whole loopback round at two threads still forks its training wave
/// through the vendored rayon scope, which allocates.)
#[test]
fn streaming_fold_allocates_nothing_on_a_two_thread_pool() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const LEN: usize = 101_770;
    let cohort: Vec<(usize, f64)> = (0..8).map(|id| (id, (id + 1) as f64)).collect();
    let states: Vec<Vec<f32>> = (0..8)
        .map(|id| {
            (0..LEN)
                .map(|j| ((id * 31 + j) % 97) as f32 * 0.01)
                .collect()
        })
        .collect();
    // Arrivals park up to two updates ahead of the fold frontier (three
    // resident with the one folding).
    let order = [2, 1, 0, 3, 5, 4, 7, 6];
    let round = |acc: &mut RoundAccumulator, out: &mut Vec<f32>| {
        acc.begin(AggregationMode::Mean, &cohort, LEN, cohort.len());
        for id in order {
            acc.offer(id, &states[id]).unwrap();
        }
        acc.finish_into(out).unwrap();
    };

    let mut serial = Vec::new();
    pool::install(Some(1), || round(&mut RoundAccumulator::new(), &mut serial));

    let (mut acc, mut out) = (RoundAccumulator::new(), Vec::new());
    pool::install(Some(2), || {
        round(&mut acc, &mut out);
        round(&mut acc, &mut out);
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        for _ in 0..4 {
            round(&mut acc, &mut out);
        }
        ARMED.store(false, Ordering::SeqCst);
    });
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "warm folds on a two-thread pool performed {n} allocations"
    );
    assert_eq!(acc.peak_resident(), 3);
    assert_eq!(out, serial, "pool size changed the aggregate");
}
