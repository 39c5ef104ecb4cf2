//! Pins the "zero per-step heap allocations after warm-up" guarantee of
//! the training runtime — the dense path and the LeNet-5 convolution
//! path — using a counting global allocator. Kept in its own
//! integration-test binary so no concurrent test can allocate while the
//! counter is armed; the counter is armed per thread, so the test
//! harness's own bookkeeping (reporting a finished test, spawning the
//! next one) is not counted either.
//!
//! The same allocator keeps a live-heap high-water mark, which pins what
//! evaluation, a loopback round, a deletion drain and a shard-mode commit
//! hold at their peak: one evaluation chunk, one wave of lanes, one lane
//! per thread, one shard state — not the dataset, the cohort, the clients
//! or the shard map — and that a wire frame's announced list length
//! sizes nothing before its bytes are present.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Mutex;

use goldfish::core::basic_model::{clip_grad_norm, GoldfishLocalConfig, TeacherCache};
use goldfish::core::loss::{GoldfishBatch, GoldfishLoss, GoldfishLossBufs, LossWeights};
use goldfish::core::GoldfishUnlearning;
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::data::{BatchGather, Dataset};
use goldfish::fed::trainer::{TrainConfig, TrainLane};
use goldfish::fed::transport::{
    round_nonce, LoopbackClients, RoundMode, RoundTransport, TrainAssign,
};
use goldfish::fed::ModelFactory;
use goldfish::nn::loss::{CrossEntropy, Focal, HardLoss, Nll};
use goldfish::nn::optim::FusedSgd;
use goldfish::nn::{zoo, Network};
use goldfish::serve::audit::{audit_kind, AuditEventRecord};
use goldfish::serve::coordinator::{Coordinator, CoordinatorConfig, DrainStats};
use goldfish::serve::digest::state_digest;
use goldfish::serve::durability::DurableStore;
use goldfish::serve::queue::UnlearnRequest;
use goldfish::serve::shard::{ShardMap, ShardPolicy, ShardTask};
use goldfish::serve::transport::LoopbackTransport;
use goldfish::serve::wire::{self, FrameLimits, Msg, WireError};
use goldfish::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// The tests below share one allocation counter and one live-heap
/// high-water mark; this lock keeps them out of each other's
/// measurements.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts allocations (and growth reallocations) made by an armed
/// thread, and tracks live heap bytes and their high-water mark always.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. A step that spawned
    /// a worker would still be caught: the spawn allocates on the armed
    /// thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn grow_live(by: usize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        grow_live(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        if new_size >= layout.size() {
            grow_live(new_size - layout.size());
        } else {
            LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns how far live heap rose above its level at entry
/// at the highest point during `f`.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let out = f();
    (PEAK_BYTES.load(Ordering::SeqCst).saturating_sub(base), out)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn distillation_step_is_allocation_free_after_warm_up() {
    // The Goldfish unlearning step on the dense path: teacher logits
    // from the cache (bulk row gather for full batches, fallback
    // forward through the teacher's inference workspace for the short
    // tail), student forward through its arenas, the fused composite
    // loss (remaining + forget parts) into reused buffers, the
    // allocation-free gradient clip and the fused optimizer — under each
    // of Table XI's three hard losses.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let hard: [Arc<dyn HardLoss>; 3] = [
        Arc::new(CrossEntropy),
        Arc::new(Focal::default()),
        Arc::new(Nll),
    ];
    for hard in hard {
        assert_distillation_steps_allocate_nothing(hard);
    }
}

fn assert_distillation_steps_allocate_nothing(hard: Arc<dyn HardLoss>) {
    let name = hard.name();
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 76, 10, 9);
    let remaining = train.subset(&(12..76).collect::<Vec<usize>>()); // 64 rows
    let forget = train.subset(&(0..12).collect::<Vec<usize>>());
    let mut rng = StdRng::seed_from_u64(1);
    let mut student = zoo::mlp(64, &[32], 10, &mut rng);
    let teacher = zoo::mlp(64, &[32], 10, &mut rng);

    let loss = GoldfishLoss::new(hard, LossWeights::default());
    let mut cache = TeacherCache::build(teacher, &remaining, 20);
    let mut opt = FusedSgd::new(0.05, 0.9);
    let mut gather_r = BatchGather::new();
    let mut gather_f = BatchGather::new();
    let mut grad = Tensor::zeros(vec![1]);
    let mut bufs = GoldfishLossBufs::new();
    // 64 remaining rows at B = 20 → 20, 20, 20 and a short tail of 4
    // (exercising the cache's fallback forward); 12 forget rows spread
    // as slices of 3.
    let rem_batches: Vec<Vec<usize>> = (0..3).map(|b| (b * 20..(b + 1) * 20).collect()).collect();
    let tail: Vec<usize> = (60..64).collect();
    let fg_batches: Vec<Vec<usize>> = (0..4).map(|b| (b * 3..(b + 1) * 3).collect()).collect();

    let mut step = |gather_r: &mut BatchGather,
                    gather_f: &mut BatchGather,
                    grad: &mut Tensor,
                    bufs: &mut GoldfishLossBufs,
                    cache: &mut TeacherCache,
                    chunk: &[usize],
                    fchunk: &[usize]| {
        student.zero_grad();
        gather_r.gather(&remaining, chunk);
        {
            let teacher_logits = cache.logits_for(gather_r.features(), chunk);
            let student_logits = student.forward_ws(gather_r.features(), true);
            loss.loss_and_grad_into(
                GoldfishBatch::Remaining {
                    student_logits,
                    teacher_logits: Some(teacher_logits),
                    labels: gather_r.labels(),
                },
                grad,
                bufs,
            );
        }
        student.backward_train(grad);
        gather_f.gather(&forget, fchunk);
        {
            let student_logits = student.forward_ws(gather_f.features(), true);
            loss.loss_and_grad_into(
                GoldfishBatch::Forget {
                    student_logits,
                    labels: gather_f.labels(),
                    hard_scale: 0.1875,
                },
                grad,
                bufs,
            );
        }
        student.backward_train(grad);
        clip_grad_norm(&mut student, 5.0);
        opt.step(&mut student);
    };

    // Warm-up: size every arena, loss buffer, cache gather buffer and
    // the teacher's fallback workspace, full and short geometry.
    for (chunk, fchunk) in rem_batches.iter().zip(fg_batches.iter()) {
        step(
            &mut gather_r,
            &mut gather_f,
            &mut grad,
            &mut bufs,
            &mut cache,
            chunk,
            fchunk,
        );
    }
    step(
        &mut gather_r,
        &mut gather_f,
        &mut grad,
        &mut bufs,
        &mut cache,
        &tail,
        &fg_batches[3][..2],
    );

    // Armed: full batches, the short tail and short forget slices must
    // not touch the allocator.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    for _ in 0..3 {
        for (chunk, fchunk) in rem_batches.iter().zip(fg_batches.iter()) {
            step(
                &mut gather_r,
                &mut gather_f,
                &mut grad,
                &mut bufs,
                &mut cache,
                chunk,
                fchunk,
            );
        }
        step(
            &mut gather_r,
            &mut gather_f,
            &mut grad,
            &mut bufs,
            &mut cache,
            &tail,
            &fg_batches[2][..2],
        );
    }
    ARMED.set(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "{name} distillation steps performed {n} heap allocations"
    );
}

/// Warm-up over every full batch and one short one, then the same steps
/// armed: forward, fused loss, `backward_train` and the fused optimizer
/// must not touch the allocator.
fn assert_training_steps_allocate_nothing(mut net: Network, train: &Dataset, batch: usize) {
    let mut opt = FusedSgd::new(0.05, 0.9);
    let mut gather = BatchGather::new();
    let mut grad = Tensor::zeros(vec![1]);
    let batches: Vec<Vec<usize>> = (0..3)
        .map(|b| (b * batch..(b + 1) * batch).collect())
        .collect();

    let mut step = |gather: &mut BatchGather, grad: &mut Tensor, chunk: &[usize]| {
        gather.gather(train, chunk);
        {
            let logits = net.forward_ws(gather.features(), true);
            CrossEntropy.loss_and_grad_into(logits, gather.labels(), grad);
        }
        net.zero_grad();
        net.backward_train(grad);
        opt.step(&mut net);
    };

    // Warm-up: size every arena, scratch buffer and thread-local pack
    // buffer, including the short-batch geometry.
    for chunk in &batches {
        step(&mut gather, &mut grad, chunk);
    }
    step(&mut gather, &mut grad, &batches[0][..7]);

    // Armed: full and short batches must not touch the allocator.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    for _ in 0..3 {
        for chunk in &batches {
            step(&mut gather, &mut grad, chunk);
        }
        step(&mut gather, &mut grad, &batches[1][..7]);
    }
    ARMED.set(false);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "training steps performed {n} heap allocations");
}

#[test]
fn dense_training_step_is_allocation_free_after_warm_up() {
    // The paper-shaped MLP round workload at its reduced scale: 64
    // synthetic-MNIST features, one hidden layer, B = 20.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 60, 10, 9);
    let mut rng = StdRng::seed_from_u64(1);
    let net = zoo::mlp(64, &[32], 10, &mut rng);
    assert_training_steps_allocate_nothing(net, &train, 20);
}

#[test]
fn lenet_training_step_is_allocation_free_after_warm_up() {
    // The convolution path the benchmark's LeNet workloads run: LeNet-5 on
    // 1×28×28 at B = 25, so conv1 lowers in blocks of 6 + a short one and
    // conv2 in 10 + 10 + 5, and each layer's one column buffer alternates
    // between the forward (filter-major) and backward (position-major)
    // lowering. The short batch of 7 re-partitions both.
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (train, _) = synthetic::generate(&SyntheticSpec::mnist(), 75, 10, 9);
    let mut rng = StdRng::seed_from_u64(1);
    let net = zoo::lenet5(1, 28, 28, 10, &mut rng);
    assert_training_steps_allocate_nothing(net, &train, 25);
}

/// What a warm LeNet-5 training network holds at B = 25, on one thread:
/// its parameters and gradients, the arenas between layers (a conv
/// block's slot is its pooled output), each block's input and one-byte
/// routes, the dense layers' caches and the per-geometry conv scratch —
/// not the blocks' full-size convolution and ReLU outputs, their
/// gradients, ReLU masks or 8-byte pool argmaxes (2.0 of the 3.51 MiB it
/// held when each block was three layers).
#[test]
fn warm_lenet_training_network_holds_no_full_size_activations() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (train, _) = synthetic::generate(&SyntheticSpec::mnist(), 25, 10, 9);
    let batch: Vec<usize> = (0..25).collect();
    let mut gather = BatchGather::new();
    let mut grad = Tensor::zeros(vec![1]);
    let mut step = |net: &mut Network| {
        gather.gather(&train, &batch);
        let logits = net.forward_ws(gather.features(), true);
        CrossEntropy.loss_and_grad_into(logits, gather.labels(), &mut grad);
        net.zero_grad();
        net.backward_train(&grad);
    };
    let lenet = |seed| zoo::lenet5(1, 28, 28, 10, &mut StdRng::seed_from_u64(seed));
    let held = goldfish::fed::pool::install(Some(1), || {
        // Warm what the network does not own: the batch, the loss
        // gradient and the kernels' thread-local scratch.
        step(&mut lenet(0));
        let base = LIVE_BYTES.load(Ordering::SeqCst);
        let mut net = lenet(1);
        step(&mut net);
        step(&mut net);
        LIVE_BYTES.load(Ordering::SeqCst).saturating_sub(base)
    });
    // Measured 1.52 MiB; blocks that keep full-size activations hold
    // 3.51. The bound leaves 0.23 MiB for per-ISA table and scratch sizes.
    assert!(
        held < 7 << 18,
        "a warm LeNet-5 training network holds {held} B of live heap"
    );
}

/// `Coordinator::global_accuracy` streams the test set through the model
/// one evaluation chunk at a time: its peak is a fresh LeNet-5 plus one
/// chunk's input and activations, not 400 rows of every layer's
/// activations and backward caches (~17 MiB in 256-row batches).
#[test]
fn global_accuracy_peak_heap_is_one_chunk() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let factory: ModelFactory =
        Arc::new(|seed| zoo::lenet5(1, 28, 28, 10, &mut StdRng::seed_from_u64(seed)));
    let (train, test) = synthetic::generate(&SyntheticSpec::mnist(), 8, 400, 9);
    let transport = LoopbackTransport::new(factory.clone(), vec![train], Some(1));
    let coord = Coordinator::new(
        factory,
        test,
        transport,
        CoordinatorConfig {
            threads: Some(1),
            ..CoordinatorConfig::default()
        },
    );
    let (peak, acc) = peak_during(|| coord.global_accuracy());
    assert!((0.0..=1.0).contains(&acc));
    // Measured 0.89 MiB; conv blocks that keep full-size convolution and
    // ReLU outputs peak at 2.51. The bound leaves 0.36 MiB of margin.
    assert!(
        peak < 5 << 18,
        "global_accuracy over 400 rows peaked at {peak} B of live heap"
    );
}

/// A loopback round — the serve executor's and the library's alike —
/// trains in waves of one member per pool thread and feeds each wave
/// before the next: its peak is the lanes plus one wave of trained
/// states — not one 407 KB state per cohort member (64 of them are
/// 26 MB).
#[test]
fn loopback_round_peak_heap_is_one_wave() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 64;
    const THREADS: usize = 2;
    let factory: ModelFactory =
        Arc::new(|seed| zoo::mlp(784, &[128], 10, &mut StdRng::seed_from_u64(seed)));
    let (train, _) = synthetic::generate(&SyntheticSpec::mnist(), 2 * CLIENTS, 1, 9);
    let shards: Vec<Dataset> = (0..CLIENTS)
        .map(|c| train.subset(&[2 * c, 2 * c + 1]))
        .collect();
    let cfg = TrainConfig {
        local_epochs: 1,
        batch_size: 2,
        lr: 0.05,
        momentum: 0.9,
    };
    let global = (factory)(1).state_vector();
    let state_bytes = global.len() * std::mem::size_of::<f32>();

    // What one warm lane weighs, measured on a fresh thread so its kernel
    // scratch counts as it does on every pool worker.
    let lane_bytes = std::thread::scope(|s| {
        s.spawn(|| {
            let before = LIVE_BYTES.load(Ordering::SeqCst);
            let mut lane = TrainLane::new();
            let mut out = Vec::new();
            lane.train(&factory, &global, &shards[0], &cfg, 7, &mut out);
            drop(out);
            let bytes = LIVE_BYTES.load(Ordering::SeqCst) - before;
            drop(lane);
            bytes
        })
        .join()
        .unwrap()
    });

    let two_rounds = |transport: &mut dyn RoundTransport| {
        let mut cohort = Vec::new();
        transport.cohort_into(&mut cohort);
        let mut results = Vec::new();
        for round in 0..2 {
            let assign = TrainAssign {
                mode: RoundMode::Train,
                round,
                seed: 5,
                nonce: round_nonce(5, round),
                global: &global,
                cfg: &cfg,
            };
            transport.train_round(&assign, &cohort, &mut |_| Ok(()), &mut results);
            assert_eq!(results.len(), CLIENTS);
        }
    };
    let owned = shards.clone();
    let (serve_peak, ()) = peak_during(|| {
        two_rounds(&mut LoopbackTransport::new(
            factory.clone(),
            owned,
            Some(THREADS),
        ))
    });
    let (library_peak, ()) =
        peak_during(|| two_rounds(&mut LoopbackClients::new(&factory, &shards, Some(THREADS))));
    let wave = THREADS;
    // Slack: the scope's task boxes and thread handles, the cohort and
    // result vectors — bookkeeping, well under a state.
    let bound = THREADS * lane_bytes + wave * state_bytes + state_bytes / 4;
    for (executor, peak) in [
        ("LoopbackTransport", serve_peak),
        ("LoopbackClients", library_peak),
    ] {
        assert!(
            peak <= bound,
            "64-client {executor} round peaked at {peak} B; {THREADS} lanes \
             ({lane_bytes} B each) + {wave} states ({state_bytes} B each) is {bound} B"
        );
    }
    assert!(CLIENTS * state_bytes > 2 * bound, "bound too loose");
}

/// A deletion drains on the loopback executor's lanes: one student and
/// one teacher network per pool thread, lent to each client in turn,
/// while a client keeps only its teacher logits and borrows its data.
/// What the drain holds at its peak therefore follows the thread count:
/// eight clients peak where four do, not twice as high (the per-client
/// students, teachers and copied splits of a per-client design).
#[test]
fn distillation_drain_peak_heap_follows_threads_not_clients() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 2;
    const PER_CLIENT: usize = 40;
    let factory: ModelFactory =
        Arc::new(|seed| zoo::lenet5(1, 28, 28, 10, &mut StdRng::seed_from_u64(seed)));
    let local = GoldfishLocalConfig {
        epochs: 1,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    };
    let drain_peak = |clients: usize| {
        let (train, test) =
            synthetic::generate(&SyntheticSpec::mnist(), clients * PER_CLIENT, 32, 9);
        let shards: Vec<Dataset> = (0..clients)
            .map(|c| train.subset(&(c * PER_CLIENT..(c + 1) * PER_CLIENT).collect::<Vec<_>>()))
            .collect();
        let transport = LoopbackTransport::new(factory.clone(), shards, Some(THREADS));
        let mut coord = Coordinator::new(
            factory.clone(),
            test,
            transport,
            CoordinatorConfig {
                threads: Some(THREADS),
                method: GoldfishUnlearning::default().with_local(local),
                unlearn_rounds: 2,
                ..CoordinatorConfig::default()
            },
        );
        let (peak, ()) = peak_during(|| {
            coord
                .submit_unlearn(UnlearnRequest::new(0, vec![0, 1, 2]))
                .unwrap();
            coord.drain_unlearning(7).unwrap().unwrap();
        });
        peak
    };
    let four = drain_peak(4);
    let eight = drain_peak(8);
    assert!(
        eight * 10 <= four * 11,
        "an 8-client drain peaked at {eight} B of live heap, a 4-client one at {four} B"
    );
}

/// A shard-mode commit streams its checkpoint from the live map: the
/// snapshot borrows the map instead of cloning it, and the file is hashed
/// and written one shard state at a time through one state-sized buffer
/// instead of being built whole first. So neither shard-mode commit — a
/// round's or a shard drain's — raises live heap by more than about one
/// shard state, where a clone plus a whole-file buffer would be at least
/// twice the map.
#[test]
fn shard_commit_peak_heap_is_one_shard_state_not_the_map() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CLIENTS: usize = 8;
    const TAU: usize = 4;
    const STATE: usize = 8192;
    let policy = ShardPolicy {
        tau: TAU,
        group: 2,
        deadline_ms: 0,
    };
    let init: Vec<f32> = (0..STATE).map(|i| i as f32 * 1e-3).collect();
    let mut map = ShardMap::new(policy, &[64; CLIENTS], &init);
    map.apply_retrain(1, 2, vec![0.5; STATE], &[2, 6]);
    let map_bytes = CLIENTS * TAU * STATE * std::mem::size_of::<f32>();
    let tasks = [ShardTask::new(3, 1, vec![1, 5])];
    let pending = [UnlearnRequest::new(0, vec![4])];
    let global = vec![0.25f32; STATE];
    let digest = state_digest(1, &global);
    let served = [AuditEventRecord {
        kind: audit_kind::UNLEARN_SERVED,
        client_id: 3,
        detail: vec![1, 1, 5],
    }];

    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "goldfish-alloc-shard-commit-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    let round = |store: &mut DurableStore| {
        let snapshot = map.snapshot(&tasks);
        store
            .commit_round(1, &global, &pending, Some(&snapshot), DrainStats::default())
            .unwrap();
    };
    let drain = |store: &mut DurableStore, serial: u64| {
        let snapshot = map.snapshot(&tasks);
        store
            .commit_shard_drain(
                1,
                serial,
                &served,
                &digest,
                1,
                &global,
                &pending,
                &snapshot,
                DrainStats::default(),
            )
            .unwrap();
    };
    // Warm: the kept generations are on disk, so each measured commit
    // also prunes one.
    round(&mut store);
    drain(&mut store, 0);
    let (round_peak, ()) = peak_during(|| round(&mut store));
    let (drain_peak, ()) = peak_during(|| drain(&mut store, 1));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    for (commit, peak) in [
        ("commit_round", round_peak),
        ("commit_shard_drain", drain_peak),
    ] {
        assert!(
            peak < map_bytes / 2,
            "{commit} over a {map_bytes} B shard map raised live heap by {peak} B"
        );
    }
}

/// An `UnlearnAssign` whose `removed` list announces 2^20 indices but
/// carries none is a ~70-byte frame. Decoding it is a typed error that
/// allocates for the indices only once their bytes are present — not
/// 8 MiB up front.
#[test]
fn announced_removed_count_sizes_no_allocation() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let limits = FrameLimits::default();
    let mut frame = wire::encode_frame(
        &Msg::UnlearnAssign {
            job: goldfish::core::transport::UnlearnJob {
                local: GoldfishLocalConfig::default(),
                hard: Some(goldfish::nn::loss::HardLossSpec::CrossEntropy),
            },
            removed: Vec::new(),
            teacher: Vec::new(),
        },
        &limits,
    )
    .unwrap();
    // The payload ends with the removed count (u32) and the teacher's
    // float count (u64).
    let at = frame.len() - 12;
    frame[at..at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    let (peak, decoded) = peak_during(|| wire::decode_frame(&frame, &limits));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(
        peak < 64 << 10,
        "a {}-byte frame raised live heap by {peak} B",
        frame.len()
    );
}
