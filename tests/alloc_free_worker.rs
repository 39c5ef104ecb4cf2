//! Pins the worker side of a steady-state training round at zero heap
//! allocations, with a counting global allocator: once a host's lane and
//! reply buffer are warm, `WorkerRuntime::answer` reads a `RoundAssign`
//! frame in place, installs its floats straight into the lane's network,
//! trains, and encodes the `Update` straight from the network into the
//! reused reply buffer — no state vector is decoded or exported in
//! between. Kept in its own integration-test binary so no concurrent test
//! can allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use goldfish::fed::trainer::{TrainConfig, TrainLane};
use goldfish::fed::ModelFactory;
use goldfish::nn::zoo;
use goldfish::serve::demo::DemoSpec;
use goldfish::serve::wire::{self, FrameLimits, RoundMode, HEADER_LEN};
use goldfish::serve::worker::{Answer, WorkerRuntime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts allocations (and growth reallocations) while armed.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread's watch.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// After one warm-up assignment, each further training assignment is
/// answered without a heap allocation — at batch 2, where the first
/// layer's forward (`2×64×128`) runs the tiled per-strip `A·Bᵀ`, and with
/// a short last batch.
#[test]
fn a_warm_worker_answers_training_rounds_without_allocating() {
    let spec = DemoSpec {
        clients: 2,
        samples_per_client: 41,
        test_samples: 20,
        seed: 6,
    };
    let factory: ModelFactory =
        Arc::new(|seed| zoo::mlp(64, &[128], 10, &mut StdRng::seed_from_u64(seed)));
    let cfg = TrainConfig {
        batch_size: 2,
        ..spec.train_config()
    };
    let limits = FrameLimits::default();
    let frames: Vec<Vec<u8>> = (0..4u64)
        .map(|round| {
            let global = (factory)(round).state_vector();
            let mut frame = Vec::new();
            wire::encode_round_assign_into(
                &mut frame,
                RoundMode::Train,
                round,
                100 + round,
                round,
                &cfg,
                &global,
                &limits,
            )
            .unwrap();
            frame
        })
        .collect();
    let mut worker = WorkerRuntime::new(1, Arc::clone(&factory), spec.client_shard(1));
    let mut lane = TrainLane::new();
    let mut reply = Vec::new();
    let mut answer = |frame: &[u8], reply: &mut Vec<u8>| {
        let kind = frame[5];
        worker.answer(kind, &frame[HEADER_LEN..], &mut lane, reply, &limits)
    };

    let (warm_up, answered) = allocations(|| answer(&frames[0], &mut reply));
    assert_eq!(answered, Ok(Answer::Reply));
    assert!(warm_up > 0, "the counter saw no warm-up allocation");
    for (round, frame) in frames.iter().enumerate().skip(1) {
        let (allocs, answered) = allocations(|| answer(frame, &mut reply));
        assert_eq!(answered, Ok(Answer::Reply), "round {round}");
        assert_eq!(allocs, 0, "round {round} allocated {allocs} times");
    }
}
