//! Per-layer metrics of a traced run.
//!
//! Three sources, none of which edits `crates/`:
//!
//! * **probe** — the harness times one layer's public function at the
//!   workload's own shapes (model, batch, client count), warm, median of
//!   ≥ 30 samples unless noted;
//! * **registry** — deltas of the production `ServeTelemetry` cells over
//!   the traced window (poll wait, frame read, checkpoint fsync, …);
//! * **window** — tails and ratios of the traced window's own ops.
//!
//! A metric that does not exist on a workload (conv kernels on the MLP,
//! shard-map calls outside shard mode, …) reads 0 there.
//!
//! The **ledger** stacks the probes into an op budget: each layer's share
//! is its *self* time — Σ(probe median × calls per op from the schedule's
//! arithmetic), client-parallel work divided over min(threads, clients),
//! with the time of probed callees subtracted — over the traced op p50.
//! Self time is what an optimisation of that layer alone can save.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use goldfish_core::baselines::RetrainFromScratch;
use goldfish_core::basic_model::{network_from_state, train_distill_cached, TeacherCache};
use goldfish_core::loss::{GoldfishBatch, GoldfishLoss, GoldfishLossBufs};
use goldfish_core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
use goldfish_core::optimization::retrain_shard;
use goldfish_core::GoldfishLocalConfig;
use goldfish_data::{BatchGather, Dataset};
use goldfish_fed::aggregate::StreamingMean;
use goldfish_fed::trainer::{train_local_hot, TrainWorkspace};
use goldfish_fed::transport::round_nonce;
use goldfish_fed::{eval, pool};
use goldfish_nn::loss::{CrossEntropy, HardLoss};
use goldfish_nn::optim::FusedSgd;
use goldfish_nn::Network;
use goldfish_serve::audit::{self, AuditLog};
use goldfish_serve::coordinator::{round_seed, Coordinator};
use goldfish_serve::digest;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardMap;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::{self, FrameLimits, Msg, RoundMode};
use goldfish_telemetry::registry::Registry;
use goldfish_tensor::conv::{self, Conv2dSpec, ConvWorkspace};
use goldfish_tensor::{engine, serialize, Tensor};

use crate::run::{Metric, Window};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::{Env, Fed, Kind, Model, Spec, PRETRAIN_ROUNDS, TAU};

/// Every per-layer metric, in print order, with its unit. This list is
/// `/BENCHMARK.json`'s `per_layer` (pinned by a test).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_us", "us"),
    ("tensor.gemm_at_b_us", "us"),
    ("tensor.gemm_a_bt_us", "us"),
    ("tensor.conv1_fwd_us", "us"),
    ("tensor.conv1_bwd_us", "us"),
    ("tensor.conv2_fwd_us", "us"),
    ("tensor.conv2_bwd_us", "us"),
    ("tensor.maxpool_us", "us"),
    ("tensor.params_codec_mib_per_s", "MiB/s"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.loss_us", "us"),
    ("nn.sgd_step_us", "us"),
    ("nn.state_import_us", "us"),
    ("nn.state_export_us", "us"),
    ("data.batch_gather_us", "us"),
    ("data.subset_us", "us"),
    ("fed.local_train_ms", "ms"),
    ("fed.pool_dispatch_us", "us"),
    ("fed.fold_offer_us", "us"),
    ("fed.fold_finish_us", "us"),
    ("fed.peak_resident_updates", "count"),
    ("fed.eval_ms", "ms"),
    ("fed.re_rounds", "count"),
    ("core.teacher_cache_ms", "ms"),
    ("core.distill_epoch_ms", "ms"),
    ("core.goldfish_loss_us", "us"),
    ("core.goldfish_vs_b1", "ratio"),
    ("core.shard_retrain_ms", "ms"),
    ("serve.wire.encode_assign_us", "us"),
    ("serve.wire.encode_update_us", "us"),
    ("serve.wire.decode_update_us", "us"),
    ("serve.tcp.poll_wait_ms_per_round", "ms"),
    ("serve.tcp.frame_read_ms_per_frame", "ms"),
    ("serve.tcp.broadcast_encode_us_per_round", "us"),
    ("serve.tcp.loopback_round_ms", "ms"),
    ("serve.tcp.transport_share", "fraction"),
    ("serve.tcp.dropped_clients", "count"),
    ("serve.tcp.accept_ms", "ms"),
    ("serve.coordinator.round_tail_ms", "ms"),
    ("serve.coordinator.round_tail_pct", "%"),
    ("serve.coordinator.deletion_tail_ms", "ms"),
    ("serve.coordinator.deletion_tail_pct", "%"),
    ("serve.coordinator.submit_us", "us"),
    ("serve.shard.route_us", "us"),
    ("serve.shard.checkpoint_for_us", "us"),
    ("serve.shard.apply_retrain_us", "us"),
    ("serve.shard.reconstruct_us", "us"),
    ("serve.shard.snapshot_encode_us", "us"),
    ("serve.shard.degraded_share", "fraction"),
    ("serve.shard.requeued", "count"),
    ("serve.queue.merge_share", "fraction"),
    ("serve.durability.submit_ack_us", "us"),
    ("serve.durability.wal_append_us", "us"),
    ("serve.durability.checkpoint_fsync_ms", "ms"),
    ("serve.durability.checkpoint_bytes", "B"),
    ("serve.durability.recover_ms", "ms"),
    ("serve.audit.append_us", "us"),
    ("serve.audit.verify_ms", "ms"),
    ("serve.digest.state_digest_us", "us"),
    ("serve.digest.sha256_mib_per_s", "MiB/s"),
    ("telemetry.histogram_observe_ns", "ns"),
    ("telemetry.overhead_share", "fraction"),
    ("ledger.tensor_share", "fraction"),
    ("ledger.nn_share", "fraction"),
    ("ledger.fed_share", "fraction"),
    ("ledger.core_share", "fraction"),
    ("ledger.serve_share", "fraction"),
    ("ledger.unattributed_share", "fraction"),
    ("ledger.durability_share_of_deletion", "fraction"),
    // The end-to-end timing and traffic metrics as read in the traced
    // window. `/BENCHMARK.json` cannot bound them (some exist on only some
    // workloads, and this host's speed swings too far for any bound it
    // allows); `--compare` does. Listed so the driver's record shows them.
    ("window.rounds_per_s", "1/s"),
    ("window.round_p50_ms", "ms"),
    ("window.round_p10_ms", "ms"),
    ("window.cycle_p10_ms", "ms"),
    ("window.deletions_per_s", "1/s"),
    ("window.deletion_p50_ms", "ms"),
    ("window.deletion_p10_ms", "ms"),
    ("window.cpu_ms_per_op", "ms"),
    ("window.wire_bytes_per_round", "B"),
];

/// Registry cells and queue counters at one instant.
pub struct Cells {
    poll_wait: (u64, u64),
    frame_read: (u64, u64),
    bcast_encode: (u64, u64),
    checkpoint: (u64, u64),
    wal_append: (u64, u64),
    re_rounds: u64,
    shard_tasks: u64,
    degraded: u64,
    requeued: u64,
    queue_submitted: usize,
    queue_merged: usize,
}

impl Cells {
    pub fn read<T: ServeTransport>(fed: &Fed<T>) -> Cells {
        let t = fed.coord.telemetry();
        let hist = |h: &goldfish_telemetry::registry::Histogram| (h.sum_nanos(), h.count());
        let (queue_submitted, queue_merged) = if fed.coord.shard_mode() {
            let q = fed.coord.shard_tasks();
            (q.submitted(), q.merged())
        } else {
            let q = fed.coord.queue();
            (q.submitted(), q.merged())
        };
        Cells {
            poll_wait: hist(&t.poll_wait_seconds),
            frame_read: hist(&t.frame_read_seconds),
            bcast_encode: hist(&t.broadcast_encode_seconds),
            checkpoint: hist(&t.checkpoint_fsync_seconds),
            wal_append: hist(&t.wal_append_seconds),
            re_rounds: t.round.reround_attempts_total.get(),
            shard_tasks: t.shard_tasks_total.get(),
            degraded: t.shard_degraded_drains_total.get(),
            requeued: t.shard_tasks_requeued_total.get(),
            queue_submitted,
            queue_merged,
        }
    }
}

/// What the production telemetry and the coordinator's accessors saw
/// over the window.
pub struct Observed {
    poll_wait_ms_per_round: f64,
    frame_read_ms_per_frame: f64,
    bcast_encode_us_per_round: f64,
    checkpoint_fsync_ms: f64,
    wal_append_us: f64,
    re_rounds: f64,
    degraded_share: f64,
    requeued: f64,
    merge_share: f64,
    peak_resident: f64,
}

impl Observed {
    /// The change of every cell between `before` and now.
    pub fn since<T: ServeTransport>(before: &Cells, fed: &Fed<T>, w: &Window) -> Observed {
        let (a, b) = (before, Cells::read(fed));
        let rounds = w.rec.round_ms.len().max(1) as f64;
        let sum_ms = |x: (u64, u64), y: (u64, u64)| (y.0 - x.0) as f64 / 1e6;
        let mean_ms = |x: (u64, u64), y: (u64, u64)| {
            let n = y.1 - x.1;
            if n == 0 {
                0.0
            } else {
                (y.0 - x.0) as f64 / 1e6 / n as f64
            }
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Observed {
            poll_wait_ms_per_round: sum_ms(a.poll_wait, b.poll_wait) / rounds,
            frame_read_ms_per_frame: mean_ms(a.frame_read, b.frame_read),
            bcast_encode_us_per_round: 1e3 * sum_ms(a.bcast_encode, b.bcast_encode) / rounds,
            checkpoint_fsync_ms: mean_ms(a.checkpoint, b.checkpoint),
            wal_append_us: 1e3 * mean_ms(a.wal_append, b.wal_append),
            re_rounds: (b.re_rounds - a.re_rounds) as f64,
            degraded_share: ratio(
                (b.degraded - a.degraded) as f64,
                (b.shard_tasks - a.shard_tasks) as f64,
            ),
            requeued: (b.requeued - a.requeued) as f64,
            merge_share: ratio(
                (b.queue_merged - a.queue_merged) as f64,
                (b.queue_submitted - a.queue_submitted) as f64,
            ),
            peak_resident: fed.coord.peak_resident_updates() as f64,
        }
    }
}

/// Times probes, recording a `probe.*` span around each one.
struct Prober<'a> {
    tr: &'a mut Tracer,
}

/// Untimed calls before a probe's samples.
const WARM: usize = 3;
/// Samples per probe unless noted.
const N: usize = 30;

impl Prober<'_> {
    /// Median nanoseconds of `samples` timed calls after the warm ones,
    /// on this thread — the context server-side code runs in. The
    /// closure times its own measured section (per-sample set-up stays
    /// outside) and returns the duration.
    fn ns(&mut self, name: &'static str, samples: usize, mut f: impl FnMut() -> Duration) -> f64 {
        let span = self.tr.begin(name, -1);
        for _ in 0..WARM.min(samples) {
            f();
        }
        let taken: Vec<f64> = (0..samples).map(|_| f().as_nanos() as f64).collect();
        self.tr.end(span);
        stats::median_of(&taken)
    }

    fn us(&mut self, name: &'static str, samples: usize, f: impl FnMut() -> Duration) -> f64 {
        self.ns(name, samples, f) / 1e3
    }

    fn ms(&mut self, name: &'static str, samples: usize, f: impl FnMut() -> Duration) -> f64 {
        self.ns(name, samples, f) / 1e6
    }

    /// Like [`Prober::ns`], but in the context client-side code runs in
    /// during a round: on the shared pool's workers, one concurrent copy
    /// per slot. There nested kernels stay serial (the vendored rayon
    /// runs a worker's inner scopes inline) and the sibling core is busy
    /// with another client's copy of the same work. One slot runs inline
    /// on this thread — the fleet host's situation over TCP.
    ///
    /// The pool spawns fresh OS threads per dispatch and a client's real
    /// work keeps a core busy for tens of milliseconds, so each dispatch
    /// repeats the call back to back for about `DISPATCH_NS` and drops
    /// its first, cold call. The median is over every copy's kept samples.
    fn ns_workers<S: Send>(
        &mut self,
        name: &'static str,
        slots: &mut [S],
        f: impl Fn(&mut S) -> Duration + Send + Sync,
    ) -> f64 {
        const DISPATCH_NS: u128 = 30_000_000;
        let span = self.tr.begin(name, -1);
        let mut cells: Vec<(&mut S, Vec<f64>)> =
            slots.iter_mut().map(|s| (s, Vec::new())).collect();
        let dispatch = |cells: &mut Vec<(&mut S, Vec<f64>)>, keep: bool| {
            pool::install(None, || {
                pool::for_each_slot(cells, |_, (s, kept)| {
                    let cold = f(s).as_nanos();
                    if cold >= DISPATCH_NS {
                        // Already a whole loop of its own: nothing to warm.
                        if keep {
                            kept.push(cold as f64);
                        }
                        return;
                    }
                    let start = Instant::now();
                    while start.elapsed().as_nanos() < DISPATCH_NS {
                        let d = f(s).as_nanos() as f64;
                        if keep {
                            kept.push(d);
                        }
                    }
                })
            });
        };
        dispatch(&mut cells, false);
        while cells.iter().map(|(_, kept)| kept.len()).min().unwrap_or(N) < N {
            dispatch(&mut cells, true);
        }
        self.tr.end(span);
        let taken: Vec<f64> = cells.into_iter().flat_map(|(_, kept)| kept).collect();
        stats::median_of(&taken)
    }

    fn us_workers<S: Send>(
        &mut self,
        name: &'static str,
        slots: &mut [S],
        f: impl Fn(&mut S) -> Duration + Send + Sync,
    ) -> f64 {
        self.ns_workers(name, slots, f) / 1e3
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// Concurrent copies of client-side work during a round.
fn client_copies(spec: &Spec) -> usize {
    if spec.tcp {
        1
    } else {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        threads.min(spec.clients)
    }
}

fn seeded(len: usize, salt: u32) -> Vec<f32> {
    // Cheap deterministic non-trivial values; kernels are data-oblivious.
    (0..len)
        .map(|i| {
            ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 8) as f32 / 1.7e7 - 0.5
        })
        .collect()
}

fn seeded_tensor(shape: Vec<usize>, salt: u32) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(shape, seeded(len, salt))
}

/// Named values, filled by the probe groups below.
#[derive(Default)]
struct Values(std::collections::BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One convolution of LeNet's trunk at the workload's batch size.
struct ConvProbe {
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    grad_out: Tensor,
    /// The first layer's input is the data batch: the nn runtime skips
    /// its input gradient.
    first: bool,
}

/// Private buffers of one concurrent copy of the kernel probes.
struct KernelSlot {
    x: Vec<f32>,
    wgt: Vec<f32>,
    g: Vec<f32>,
    out_bn: Vec<f32>,
    out_nk: Vec<f32>,
    out_bk: Vec<f32>,
    convs: Vec<ConvProbe>,
    pool_in: [Tensor; 2],
    ws: ConvWorkspace,
    out: Tensor,
    grads: (Tensor, Tensor, Tensor),
    idx: Vec<usize>,
}

/// `tensor`: the GEMM entry points at the model's widest dense layer and
/// (LeNet) both convolutions and pools, at the workload's batch size.
fn probe_tensor(p: &mut Prober<'_>, spec: &Spec, state_len: usize, v: &mut Values) {
    let b = spec.batch;
    let lenet = spec.model == Model::LeNet5;
    let (k, n) = if lenet { (256, 120) } else { (784, 128) };
    let empty = || Tensor::zeros(vec![0]);
    let mut slots: Vec<KernelSlot> = (0..client_copies(spec))
        .map(|_| KernelSlot {
            x: seeded(b * k, 1),
            wgt: seeded(n * k, 2),
            g: seeded(b * n, 3),
            out_bn: vec![0.0; b * n],
            out_nk: vec![0.0; n * k],
            out_bk: vec![0.0; b * k],
            convs: if lenet {
                vec![
                    ConvProbe {
                        input: seeded_tensor(vec![b, 1, 28, 28], 5),
                        weight: seeded_tensor(vec![6, 1, 5, 5], 6),
                        bias: seeded_tensor(vec![6], 7),
                        grad_out: seeded_tensor(vec![b, 6, 24, 24], 8),
                        first: true,
                    },
                    ConvProbe {
                        input: seeded_tensor(vec![b, 6, 12, 12], 9),
                        weight: seeded_tensor(vec![16, 6, 5, 5], 10),
                        bias: seeded_tensor(vec![16], 11),
                        grad_out: seeded_tensor(vec![b, 16, 8, 8], 12),
                        first: false,
                    },
                ]
            } else {
                Vec::new()
            },
            pool_in: [
                seeded_tensor(vec![b, 6, 24, 24], 13),
                seeded_tensor(vec![b, 16, 8, 8], 14),
            ],
            ws: ConvWorkspace::new(),
            out: empty(),
            grads: (empty(), empty(), empty()),
            idx: Vec::new(),
        })
        .collect();

    // Forward x·Wᵀ, weight gradient gᵀ·x, input gradient g·W.
    v.set(
        "tensor.gemm_a_bt_us",
        p.us_workers("probe.tensor.gemm_a_bt", &mut slots, |s| {
            timed(|| engine::gemm_a_bt(b, k, n, &s.x, &s.wgt, &mut s.out_bn))
        }),
    );
    v.set(
        "tensor.gemm_at_b_us",
        p.us_workers("probe.tensor.gemm_at_b", &mut slots, |s| {
            timed(|| engine::gemm_at_b(b, n, k, &s.g, &s.x, &mut s.out_nk))
        }),
    );
    v.set(
        "tensor.gemm_us",
        p.us_workers("probe.tensor.gemm", &mut slots, |s| {
            timed(|| engine::gemm(b, n, k, &s.g, &s.wgt, &mut s.out_bk))
        }),
    );
    if lenet {
        let conv_spec = Conv2dSpec::new(5, 5, 1, 0);
        let pool_spec = Conv2dSpec::new(2, 2, 2, 0);
        let names = [
            (
                "tensor.conv1_fwd_us",
                "probe.tensor.conv1_fwd",
                "tensor.conv1_bwd_us",
                "probe.tensor.conv1_bwd",
            ),
            (
                "tensor.conv2_fwd_us",
                "probe.tensor.conv2_fwd",
                "tensor.conv2_bwd_us",
                "probe.tensor.conv2_bwd",
            ),
        ];
        for (layer, (fwd, fwd_span, bwd, bwd_span)) in names.into_iter().enumerate() {
            v.set(
                fwd,
                p.us_workers(fwd_span, &mut slots, |s| {
                    let c = &s.convs[layer];
                    timed(|| {
                        conv::conv2d_forward_into(
                            &c.input, &c.weight, &c.bias, &conv_spec, &mut s.ws, &mut s.out,
                        )
                    })
                }),
            );
            v.set(
                bwd,
                p.us_workers(bwd_span, &mut slots, |s| {
                    let c = &s.convs[layer];
                    let (gi, gw, gb) = &mut s.grads;
                    timed(|| {
                        conv::conv2d_backward_into(
                            &c.grad_out,
                            &c.input,
                            &c.weight,
                            &conv_spec,
                            &mut s.ws,
                            if c.first { None } else { Some(gi) },
                            gw,
                            gb,
                        )
                    })
                }),
            );
        }
        // Both forward pools of one step.
        v.set(
            "tensor.maxpool_us",
            p.us_workers("probe.tensor.maxpool", &mut slots, |s| {
                timed(|| {
                    conv::maxpool2d_forward_into(&s.pool_in[0], &pool_spec, &mut s.out, &mut s.idx);
                    conv::maxpool2d_forward_into(&s.pool_in[1], &pool_spec, &mut s.out, &mut s.idx);
                })
            }),
        );
    }

    // The bulk f32 codec both ends of a socket run (this thread).
    let params = seeded(state_len, 4);
    let mut bytes = Vec::new();
    let mut back = vec![0.0f32; state_len];
    let codec_ns = p.ns("probe.tensor.params_codec", N, || {
        timed(|| {
            bytes.clear();
            serialize::params_write_into(&mut bytes, &params);
            serialize::params_read_into(&bytes, &mut back).expect("own encoding decodes")
        })
    });
    let mib = (2 * 4 * state_len) as f64 / (1024.0 * 1024.0);
    v.set("tensor.params_codec_mib_per_s", mib / (codec_ns / 1e9));
}

/// One concurrent copy of a client's training state.
struct TrainSlot {
    net: Network,
    gather: BatchGather,
    logits: Tensor,
    grad: Tensor,
    tiny_sgd: FusedSgd,
    sgd: FusedSgd,
    ws: TrainWorkspace,
    exported: Vec<f32>,
}

/// `nn`, `data`, `fed`: one training step, one client's local round and
/// the server-side fold, on the workload's first shard.
fn probe_training(
    p: &mut Prober<'_>,
    spec: &Spec,
    seed: u64,
    shard: &Dataset,
    test: &Dataset,
    v: &mut Values,
) {
    let factory = spec.factory();
    let cfg = spec.train_config();
    let state = factory(seed).state_vector();
    let rows: Vec<usize> = (0..spec.batch.min(shard.len())).collect();
    let mut slots: Vec<TrainSlot> = (0..client_copies(spec))
        .map(|_| {
            let mut net = factory(seed);
            let mut gather = BatchGather::new();
            gather.gather(shard, &rows);
            let logits = net.forward_ws(gather.features(), true).clone();
            let mut grad = Tensor::zeros(vec![0]);
            CrossEntropy.loss_and_grad_into(&logits, gather.labels(), &mut grad);
            TrainSlot {
                net,
                gather,
                logits,
                grad,
                // A tiny learning rate keeps the probed network finite over
                // repeated steps; a step's cost does not depend on it.
                tiny_sgd: FusedSgd::new(1e-6, cfg.momentum),
                sgd: FusedSgd::new(cfg.lr, cfg.momentum),
                ws: TrainWorkspace::new(),
                exported: Vec::new(),
            }
        })
        .collect();

    v.set(
        "data.batch_gather_us",
        p.us_workers("probe.data.batch_gather", &mut slots, |s| {
            timed(|| s.gather.gather(shard, &rows))
        }),
    );
    v.set(
        "nn.forward_us",
        p.us_workers("probe.nn.forward", &mut slots, |s| {
            timed(|| {
                s.net.forward_ws(s.gather.features(), true);
            })
        }),
    );
    v.set(
        "nn.loss_us",
        p.us_workers("probe.nn.loss", &mut slots, |s| {
            timed(|| CrossEntropy.loss_and_grad_into(&s.logits, s.gather.labels(), &mut s.grad))
        }),
    );
    v.set(
        "nn.backward_us",
        p.us_workers("probe.nn.backward", &mut slots, |s| {
            s.net.forward_ws(s.gather.features(), true);
            timed(|| {
                s.net.zero_grad();
                s.net.backward_train(&s.grad);
            })
        }),
    );
    v.set(
        "nn.sgd_step_us",
        p.us_workers("probe.nn.sgd_step", &mut slots, |s| {
            timed(|| s.tiny_sgd.step(&mut s.net))
        }),
    );
    v.set(
        "nn.state_import_us",
        p.us_workers("probe.nn.state_import", &mut slots, |s| {
            timed(|| s.net.set_state_vector(&state))
        }),
    );
    v.set(
        "nn.state_export_us",
        p.us_workers("probe.nn.state_export", &mut slots, |s| {
            timed(|| s.net.state_vector_into(&mut s.exported))
        }),
    );
    // One client's share of a round, as the loopback worker runs it:
    // install the global, train locally, export the update.
    v.set(
        "fed.local_train_ms",
        p.ns_workers("probe.fed.local_train", &mut slots, |s| {
            timed(|| {
                s.net.set_state_vector(&state);
                train_local_hot(
                    &mut s.net,
                    shard,
                    &cfg,
                    &CrossEntropy,
                    seed,
                    &mut s.ws,
                    &mut s.sgd,
                );
                s.net.state_vector_into(&mut s.exported);
            })
        }) / 1e6,
    );

    // Server side, on this thread and the daemons' default pool.
    let keep: Vec<usize> = (2..shard.len()).collect();
    v.set(
        "data.subset_us",
        p.us("probe.data.subset", N, || timed(|| shard.subset(&keep))),
    );
    let net = &mut slots[0].net;
    v.set(
        "fed.eval_ms",
        p.ms("probe.fed.eval", N, || {
            net.set_state_vector(&state);
            timed(|| eval::accuracy(net, test))
        }),
    );
    let mut counters = vec![0u64; spec.clients];
    v.set(
        "fed.pool_dispatch_us",
        p.us("probe.fed.pool_dispatch", N, || {
            pool::install(None, || {
                timed(|| pool::for_each_slot(&mut counters, |i, c| *c += i as u64))
            })
        }),
    );
    let cohort: Vec<(usize, f64)> = (0..spec.clients)
        .map(|id| (id, spec.per_client as f64))
        .collect();
    let mut mean = StreamingMean::new();
    let mut folded = Vec::new();
    let mut finish_ns = Vec::new();
    let offers_ns = p.ns("probe.fed.fold", N, || {
        pool::install(None, || {
            mean.begin(&cohort, state.len(), usize::MAX);
            let offers = timed(|| {
                for &(id, _) in &cohort {
                    mean.offer(id, &state).expect("in-order offer folds");
                }
            });
            let finish = timed(|| mean.finish_into(&mut folded).expect("full cohort"));
            finish_ns.push(finish.as_nanos() as f64);
            offers
        })
    });
    v.set("fed.fold_offer_us", offers_ns / 1e3 / spec.clients as f64);
    v.set(
        "fed.fold_finish_us",
        stats::median_of(&finish_ns[WARM..]) / 1e3,
    );
}

/// One concurrent copy of a client's distillation state.
struct DistillSlot {
    student: Network,
    cache: TeacherCache,
    gather: BatchGather,
    student_logits: Tensor,
    teacher_logits: Tensor,
    grad: Tensor,
    bufs: GoldfishLossBufs,
}

/// `core` on `unlearn_distill`: one client's teacher cache, one
/// distillation epoch, one composite-loss call, and the paper's headline
/// ratio against retraining from scratch.
fn probe_distill(
    p: &mut Prober<'_>,
    spec: &Spec,
    seed: u64,
    shards: &[Dataset],
    test: &Dataset,
    v: &mut Values,
) {
    let factory = spec.factory();
    let (method, unlearn_rounds) = spec.unlearn_method();
    let local = method.local;
    let teacher_state = factory(seed).state_vector();
    let split = ClientSplit::with_removed(&shards[0], &[0, 1]);
    let loss = GoldfishLoss::new(method.hard.clone(), local.weights);
    let one_epoch = GoldfishLocalConfig { epochs: 1, ..local };
    let start = factory(seed ^ 1).state_vector();
    let rows: Vec<usize> = (0..local.batch_size).collect();
    let build_cache = || {
        let teacher = network_from_state(&factory, &teacher_state, seed);
        TeacherCache::build(teacher, &split.remaining, local.batch_size)
    };
    let mut slots: Vec<DistillSlot> = (0..client_copies(spec))
        .map(|_| {
            let mut student = factory(seed ^ 1);
            let mut cache = build_cache();
            let mut gather = BatchGather::new();
            gather.gather(&split.remaining, &rows);
            let student_logits = student.forward_ws(gather.features(), true).clone();
            let teacher_logits = cache.logits_for(gather.features(), &rows).clone();
            DistillSlot {
                student,
                cache,
                gather,
                student_logits,
                teacher_logits,
                grad: Tensor::zeros(vec![0]),
                bufs: GoldfishLossBufs::new(),
            }
        })
        .collect();
    v.set(
        "core.teacher_cache_ms",
        p.ns_workers("probe.core.teacher_cache", &mut slots, |s| {
            let teacher = network_from_state(&factory, &teacher_state, seed);
            let t = Instant::now();
            let built = TeacherCache::build(teacher, &split.remaining, local.batch_size);
            let took = t.elapsed();
            s.cache = built;
            took
        }) / 1e6,
    );
    v.set(
        "core.distill_epoch_ms",
        p.ns_workers("probe.core.distill_epoch", &mut slots, |s| {
            s.student.set_state_vector(&start);
            timed(|| {
                train_distill_cached(
                    &mut s.student,
                    &mut s.cache,
                    &split.remaining,
                    &split.forget,
                    &loss,
                    &one_epoch,
                    None,
                    seed,
                )
            })
        }) / 1e6,
    );
    v.set(
        "core.goldfish_loss_us",
        p.us_workers("probe.core.goldfish_loss", &mut slots, |s| {
            timed(|| {
                loss.loss_and_grad_into(
                    GoldfishBatch::Remaining {
                        student_logits: &s.student_logits,
                        teacher_logits: Some(&s.teacher_logits),
                        labels: s.gather.labels(),
                    },
                    &mut s.grad,
                    &mut s.bufs,
                )
            })
        }),
    );
    drop(slots);

    // The same request served both ways through `UnlearningMethod`:
    // Goldfish at the workload's distillation settings, B1 retraining
    // from scratch for as many rounds as the set-up trained. Three
    // samples each — these are whole-federation passes.
    let mut clients = vec![split];
    clients.extend(shards[1..].iter().cloned().map(ClientSplit::intact));
    let mut setup = UnlearnSetup {
        factory: factory.clone(),
        clients,
        test: test.clone(),
        original_global: teacher_state,
        rounds: unlearn_rounds,
        train: spec.train_config(),
    };
    let goldfish_ms = p.ms("probe.core.goldfish_request", 3, || {
        timed(|| method.unlearn(&setup, seed))
    });
    setup.rounds = PRETRAIN_ROUNDS;
    let b1_ms = p.ms("probe.core.b1_request", 3, || {
        timed(|| RetrainFromScratch.unlearn(&setup, seed))
    });
    v.set("core.goldfish_vs_b1", b1_ms / goldfish_ms);
}

/// `core` + `serve.shard` on `unlearn_shard`: one shard retrain and the
/// shard-map calls a drain makes, on a map shaped like the workload's.
fn probe_shard(p: &mut Prober<'_>, spec: &Spec, seed: u64, shards: &[Dataset], v: &mut Values) {
    let factory = spec.factory();
    let init = factory(seed.wrapping_add(1)).state_vector();
    let lens: Vec<usize> = shards.iter().map(Dataset::len).collect();
    let mut map = ShardMap::new(spec.shard_policy(), &lens, &init);
    let straggler = spec.clients - 1;

    v.set(
        "serve.shard.route_us",
        p.us("probe.serve.shard.route", N, || {
            timed(|| map.route(0, &[1, 5, 9]))
        }),
    );
    v.set(
        "serve.shard.checkpoint_for_us",
        p.us("probe.serve.shard.checkpoint_for", N, || {
            timed(|| map.checkpoint_for(0, 1))
        }),
    );
    v.set(
        "serve.shard.reconstruct_us",
        p.us("probe.serve.shard.reconstruct", N, || {
            timed(|| map.reconstruct(straggler))
        }),
    );
    let checkpoint = map.checkpoint_for(0, 1);
    let keep = map.keep_rows(0, 1, &[1, 5, 9]);
    let survived = shards[0].subset(&keep);
    let cfg = spec.train_config();
    v.set(
        "core.shard_retrain_ms",
        p.ms("probe.core.shard_retrain", N, || {
            timed(|| retrain_shard(&factory, &cfg, &checkpoint, &survived, seed))
        }),
    );
    let retrained = retrain_shard(&factory, &cfg, &checkpoint, &survived, seed);
    v.set(
        "serve.shard.apply_retrain_us",
        p.us("probe.serve.shard.apply_retrain", N, || {
            let state = retrained.clone();
            timed(|| map.apply_retrain(0, 1, state, &[1, 5, 9]))
        }),
    );
    let mut encoded = Vec::new();
    v.set(
        "serve.shard.snapshot_encode_us",
        p.us("probe.serve.shard.snapshot_encode", N, || {
            timed(|| {
                encoded.clear();
                map.snapshot(&[]).encode_into(&mut encoded);
            })
        }),
    );
}

/// `serve.wire`, `serve.digest`, `telemetry`: frame codec and hashing at
/// the workload's state length.
fn probe_codec(p: &mut Prober<'_>, spec: &Spec, seed: u64, state: &[f32], v: &mut Values) {
    let limits = FrameLimits::default();
    let cfg = spec.train_config();
    let mut frame = Vec::new();
    v.set(
        "serve.wire.encode_assign_us",
        p.us("probe.serve.wire.encode_assign", N, || {
            timed(|| {
                wire::encode_round_assign_into(
                    &mut frame,
                    RoundMode::Train,
                    7,
                    seed,
                    round_nonce(seed, 7),
                    &cfg,
                    state,
                    &limits,
                )
                .expect("state fits a frame")
            })
        }),
    );
    let update = Msg::Update {
        round: 7,
        client_id: 0,
        weight: spec.per_client as u64,
        nonce: round_nonce(seed, 7),
        state: state.to_vec(),
    };
    v.set(
        "serve.wire.encode_update_us",
        p.us("probe.serve.wire.encode_update", N, || {
            timed(|| {
                wire::encode_frame_into(&update, &mut frame, &limits).expect("state fits a frame")
            })
        }),
    );
    let mut decoded = Vec::new();
    v.set(
        "serve.wire.decode_update_us",
        p.us("probe.serve.wire.decode_update", N, || {
            timed(|| {
                wire::decode_update_into(
                    wire::kind::UPDATE,
                    &frame[wire::HEADER_LEN..],
                    &mut decoded,
                )
                .expect("own frame decodes")
            })
        }),
    );

    v.set(
        "serve.digest.state_digest_us",
        p.us("probe.serve.digest.state_digest", N, || {
            timed(|| digest::state_digest(7, state))
        }),
    );
    let blob = vec![0xA5u8; 4 << 20];
    let sha_ns = p.ns("probe.serve.digest.sha256", N, || {
        timed(|| digest::sha256(&blob))
    });
    v.set("serve.digest.sha256_mib_per_s", 4.0 / (sha_ns / 1e9));

    let hist = Registry::new().histogram("probe_seconds", "probe");
    const INNER: u64 = 1000;
    let observe_ns = p.ns("probe.telemetry.histogram_observe", N, || {
        timed(|| {
            for i in 0..INNER {
                hist.observe_nanos(black_box(1_000 + i * 977));
            }
        })
    });
    v.set("telemetry.histogram_observe_ns", observe_ns / INNER as f64);
}

/// `serve.coordinator.submit_us` (store detached) and, on the store
/// workloads, the durability, audit and recovery paths — on scratch
/// copies, never on the window's own state directory.
fn probe_submit_and_store(
    p: &mut Prober<'_>,
    spec: &Spec,
    seed: u64,
    env: &Env,
    (shards, test): &(Vec<Dataset>, Dataset),
    state_dir: Option<&Path>,
    v: &mut Values,
) -> Result<(), String> {
    if spec.kind == Kind::Train {
        return Ok(());
    }
    let coordinator = || {
        Coordinator::new(
            spec.factory(),
            test.clone(),
            LoopbackTransport::new(spec.factory(), shards.to_vec(), None),
            spec.coordinator_config(seed, None),
        )
    };
    // Every submit names fresh rows of client 0 (three of one shard in
    // shard mode, so it routes to one task like the workload's).
    let mut next = 0usize;
    let mut request = move || {
        let rows = (0..3).map(|j| 1 + TAU * (next + j)).collect();
        next = (next + 3) % 40;
        UnlearnRequest::new(0, rows)
    };
    let mut detached = coordinator();
    v.set(
        "serve.coordinator.submit_us",
        p.us("probe.serve.coordinator.submit", N, || {
            let req = request();
            timed(|| detached.submit_unlearn(req).expect("valid request"))
        }),
    );
    drop(detached);

    let Some(state_dir) = state_dir else {
        return Ok(());
    };
    let scratch = env.fresh_state_dir();
    let (store, recovered) = DurableStore::open(&scratch.0).map_err(|e| e.to_string())?;
    let mut durable = coordinator();
    durable
        .attach_durability(store, recovered)
        .map_err(|e| e.to_string())?;
    v.set(
        "serve.durability.submit_ack_us",
        p.us("probe.serve.durability.submit_ack", N, || {
            let req = request();
            timed(|| durable.submit_unlearn(req).expect("valid request"))
        }),
    );
    drop(durable);
    drop(scratch);

    // Recovery and verification read a copy of what the window wrote.
    let copy = env.fresh_state_dir();
    std::fs::create_dir_all(&copy.0).map_err(|e| e.to_string())?;
    let mut newest_checkpoint = 0u64;
    for entry in std::fs::read_dir(state_dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let bytes = std::fs::copy(entry.path(), copy.0.join(entry.file_name()))
            .map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().ends_with(".gfck") {
            newest_checkpoint = newest_checkpoint.max(bytes);
        }
    }
    v.set(
        "serve.durability.checkpoint_bytes",
        newest_checkpoint as f64,
    );
    v.set(
        "serve.durability.recover_ms",
        p.ms("probe.serve.durability.recover", N, || {
            timed(|| DurableStore::open(&copy.0).expect("committed state recovers"))
        }),
    );
    let chain = audit_path(&copy.0);
    v.set(
        "serve.audit.verify_ms",
        p.ms("probe.serve.audit.verify", N, || {
            timed(|| audit::verify_file(&chain).expect("committed chain verifies"))
        }),
    );
    let (mut log, _) = AuditLog::open(&chain).map_err(|e| e.to_string())?;
    let served = [UnlearnRequest::new(0, vec![1, 5])];
    let tip_digest = digest::state_digest(7, &[0.0; 16]);
    let mut serial = 1 << 32;
    v.set(
        "serve.audit.append_us",
        p.us("probe.serve.audit.append", N, || {
            serial += 1;
            timed(|| {
                log.append_batch(7, serial, &served, &tip_digest)
                    .expect("append")
            })
        }),
    );
    Ok(())
}

/// Stacks the probes into the op budget described in the module docs.
fn ledger(spec: &Spec, w: &Window, observed: &Observed, v: &mut Values) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let us = |name: &str| v.get(name) / 1e3; // → ms
    let clients = spec.clients as f64;
    // Clients on the critical path of a client-parallel phase. Over TCP
    // one fleet thread hosts every worker, so they all serialise.
    let width = if spec.tcp {
        clients
    } else {
        (spec.clients as f64 / threads.min(spec.clients) as f64).ceil()
    };
    let steps = (spec.per_client as f64 / spec.batch as f64).ceil();
    let k_fwd = us("tensor.conv1_fwd_us")
        + us("tensor.conv2_fwd_us")
        + us("tensor.maxpool_us")
        + us("tensor.gemm_a_bt_us");
    let k_bwd = us("tensor.conv1_bwd_us")
        + us("tensor.conv2_bwd_us")
        + us("tensor.gemm_us")
        + us("tensor.gemm_at_b_us");
    let (fwd, bwd, sgd) = (
        us("nn.forward_us"),
        us("nn.backward_us"),
        us("nn.sgd_step_us"),
    );
    let nn_step = fwd + bwd + us("nn.loss_us") + sgd;
    let state_io = us("nn.state_import_us") + us("nn.state_export_us");
    let digest_ms = us("serve.digest.state_digest_us");

    // --- the training round -------------------------------------------
    // A self time is an inclusive time minus its probed callees; probes
    // taken seconds apart on a noisy box can cross, so it floors at 0.
    let own = |inclusive: f64, callees: f64| (inclusive - callees).max(0.0);
    let mut tensor = width * steps * (k_fwd + k_bwd);
    let mut nn = own(width * (steps * nn_step + state_io), tensor);
    let mut fed = width * own(v.get("fed.local_train_ms"), steps * nn_step + state_io)
        + clients * us("fed.fold_offer_us")
        + us("fed.fold_finish_us")
        + if spec.tcp {
            0.0
        } else {
            us("fed.pool_dispatch_us")
        };
    let mut core = 0.0;
    let mut serve = us("serve.wire.encode_assign_us");
    if spec.tcp {
        // Fleet side: decode the assignment, encode the update; the
        // coordinator decodes each update. Sockets, syscalls and the
        // poller stay unattributed.
        serve +=
            clients * (2.0 * us("serve.wire.decode_update_us") + us("serve.wire.encode_update_us"));
    }
    if spec.store {
        serve += observed.checkpoint_fsync_ms + digest_ms;
    }

    // --- the cycle's deletion(s) ----------------------------------------
    let commit = us("serve.audit.append_us") + observed.checkpoint_fsync_ms + digest_ms;
    let mut durability = 0.0;
    match spec.kind {
        Kind::Train => {}
        Kind::Distill => {
            let (method, rounds) = spec.unlearn_method();
            let epochs = (rounds * method.local.epochs) as f64;
            let rounds = rounds as f64;
            let core_incl =
                width * (v.get("core.teacher_cache_ms") + epochs * v.get("core.distill_epoch_ms"));
            let nn_incl = width * steps * (fwd + epochs * (fwd + bwd + sgd));
            let tensor_d = width * steps * (k_fwd + epochs * (k_fwd + k_bwd));
            tensor += tensor_d;
            nn += own(nn_incl, tensor_d) + width * rounds * state_io;
            core += own(core_incl, nn_incl);
            // Per distillation round the server scores every upload for
            // the adaptive weights (pool-parallel) and evaluates once;
            // staging the request re-materialises every client's split.
            fed += rounds * (width + 1.0) * v.get("fed.eval_ms") + clients * us("data.subset_us");
            durability = us("serve.durability.submit_ack_us") + commit;
            serve += durability;
        }
        Kind::Shard => {
            // The burst: four submits, three tasks (one merged), drained
            // one after another. A shard retrain is a short training loop
            // run on the coordinator's own thread, where the large kernels
            // fan out over the pool — a different context from the
            // worker-side step probes — so its time is split by the
            // training step's kernel share instead of by their medians.
            let (submits, tasks) = (4.0, 3.0);
            let retrains = tasks * v.get("core.shard_retrain_ms");
            let kernel_share = if nn_step > 0.0 {
                ((k_fwd + k_bwd) / nn_step).min(1.0)
            } else {
                0.0
            };
            tensor += retrains * kernel_share;
            nn += retrains * (1.0 - kernel_share);
            durability = submits * us("serve.durability.submit_ack_us") + commit;
            serve += durability
                + submits * us("serve.shard.route_us")
                + tasks
                    * (us("serve.shard.checkpoint_for_us") + us("serve.shard.apply_retrain_us"))
                + tasks * observed.degraded_share * us("serve.shard.reconstruct_us")
                + us("serve.shard.snapshot_encode_us");
        }
    }

    let op_ms = stats::median_of(&w.rec.cycle_ms);
    let share = |x: f64| if op_ms > 0.0 { x / op_ms } else { 0.0 };
    v.set("ledger.tensor_share", share(tensor));
    v.set("ledger.nn_share", share(nn));
    v.set("ledger.fed_share", share(fed));
    v.set("ledger.core_share", share(core));
    v.set("ledger.serve_share", share(serve));
    v.set(
        "ledger.unattributed_share",
        1.0 - share(tensor + nn + fed + core + serve),
    );
    let deletion_ms = stats::median_of(&w.rec.deletion_ms);
    v.set(
        "ledger.durability_share_of_deletion",
        if deletion_ms > 0.0 {
            durability / deletion_ms
        } else {
            0.0
        },
    );
}

/// Runs every probe that applies to the workload and assembles the full
/// per-layer list.
#[allow(clippy::too_many_arguments)]
pub fn collect<T: ServeTransport>(
    spec: &Spec,
    seed: u64,
    env: &Env,
    tr: &mut Tracer,
    w: &Window,
    untraced: &Window,
    observed: &Observed,
    fed: &mut Fed<T>,
    twin: Option<&mut Fed<LoopbackTransport>>,
) -> Result<Vec<Metric>, String> {
    let mut v = Values::default();
    let span = tr.begin("probes", -1);
    let data = spec.data(seed);
    let (shards, test) = &data;
    let state = (spec.factory())(seed).state_vector();
    {
        let mut p = Prober { tr };
        probe_tensor(&mut p, spec, state.len(), &mut v);
        probe_training(&mut p, spec, seed, &shards[0], test, &mut v);
        probe_codec(&mut p, spec, seed, &state, &mut v);
        match spec.kind {
            Kind::Train => {}
            Kind::Distill => probe_distill(&mut p, spec, seed, shards, test, &mut v),
            Kind::Shard => probe_shard(&mut p, spec, seed, shards, &mut v),
        }
        let state_dir = fed.state_dir.as_ref().map(|d| d.0.clone());
        probe_submit_and_store(&mut p, spec, seed, env, &data, state_dir.as_deref(), &mut v)?;

        // The same schedule on `LoopbackTransport`, round for round
        // beside the socket federation: what the sockets cost.
        if let Some(twin) = twin {
            let span = p.tr.begin("probe.serve.tcp.loopback_round", -1);
            let (mut tcp_ms, mut loopback_ms) = (Vec::new(), Vec::new());
            for _ in 0..N {
                let r = twin.round;
                twin.round += 1;
                let d = timed(|| twin.coord.train_round_hot(r, round_seed(seed, r)));
                loopback_ms.push(d.as_secs_f64() * 1e3);
                let r = fed.round;
                let t = Instant::now();
                fed.coord
                    .train_round_hot(r, round_seed(seed, r))
                    .map_err(|e| format!("paired TCP round {r}: {e}"))?;
                tcp_ms.push(t.elapsed().as_secs_f64() * 1e3);
                fed.round += 1;
            }
            p.tr.end(span);
            let (tcp, loopback) = (stats::median_of(&tcp_ms), stats::median_of(&loopback_ms));
            v.set("serve.tcp.loopback_round_ms", loopback);
            if tcp > 0.0 {
                v.set("serve.tcp.transport_share", 1.0 - loopback / tcp);
            }
        }
    }
    tr.end(span);

    let rounds = stats::sorted(w.rec.round_ms.clone());
    let deletions = stats::sorted(w.rec.deletion_ms.clone());
    let round_p50 = stats::median(&rounds);
    let (pct, tail) = stats::tail(&rounds);
    v.set("serve.coordinator.round_tail_ms", tail);
    v.set("serve.coordinator.round_tail_pct", pct);
    if !deletions.is_empty() {
        let (pct, tail) = stats::tail(&deletions);
        v.set("serve.coordinator.deletion_tail_ms", tail);
        v.set("serve.coordinator.deletion_tail_pct", pct);
    }
    v.set("window.rounds_per_s", rounds.len() as f64 / w.wall_s);
    v.set("window.round_p50_ms", round_p50);
    v.set("window.round_p10_ms", stats::quantile(&rounds, 0.10));
    v.set("window.cycle_p10_ms", stats::p10_of(&w.rec.cycle_ms));
    v.set("window.deletions_per_s", w.rec.committed as f64 / w.wall_s);
    v.set("window.deletion_p50_ms", stats::median(&deletions));
    v.set("window.deletion_p10_ms", stats::quantile(&deletions, 0.10));
    v.set(
        "window.cpu_ms_per_op",
        w.cpu_ms / w.rec.cycle_ms.len().max(1) as f64,
    );
    v.set(
        "window.wire_bytes_per_round",
        w.wire_bytes as f64 / rounds.len().max(1) as f64,
    );

    v.set(
        "serve.tcp.poll_wait_ms_per_round",
        observed.poll_wait_ms_per_round,
    );
    v.set(
        "serve.tcp.frame_read_ms_per_frame",
        observed.frame_read_ms_per_frame,
    );
    v.set(
        "serve.tcp.broadcast_encode_us_per_round",
        observed.bcast_encode_us_per_round,
    );
    let live = goldfish_core::DistillTransport::num_clients(fed.coord.transport());
    v.set("serve.tcp.dropped_clients", (spec.clients - live) as f64);
    v.set("serve.tcp.accept_ms", fed.accept_ms);
    v.set("fed.peak_resident_updates", observed.peak_resident);
    v.set("fed.re_rounds", observed.re_rounds);
    v.set("serve.shard.degraded_share", observed.degraded_share);
    v.set("serve.shard.requeued", observed.requeued);
    v.set("serve.queue.merge_share", observed.merge_share);
    v.set("serve.durability.wal_append_us", observed.wal_append_us);
    v.set(
        "serve.durability.checkpoint_fsync_ms",
        observed.checkpoint_fsync_ms,
    );
    // Traced and untraced federations alternated cycle by cycle.
    let untraced_p50 = stats::median_of(&untraced.rec.round_ms);
    if untraced_p50 > 0.0 {
        v.set(
            "telemetry.overhead_share",
            (round_p50 - untraced_p50) / untraced_p50,
        );
    }
    ledger(spec, w, observed, &mut v);

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: v.get(name),
            unit,
        })
        .collect())
}
