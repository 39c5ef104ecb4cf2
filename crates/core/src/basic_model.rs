//! The basic model: teacher/student knowledge-distillation retraining
//! (the `Goldfish` procedure of Algorithm 1, lines 24–35).
//!
//! The teacher `M_T` is the (old) global model — it knows both `D_r^c` and
//! `D_f^c`. The student `M_S` starts without knowledge of the client data
//! and learns **only** from the remaining data: knowledge transfer happens
//! exclusively on `D_r^c`, while the removed data `D_f^c` only ever enters
//! through the negative hard term and the confusion term of the composite
//! loss — preventing the student from acquiring the removed knowledge.
//!
//! [`train_distill`] runs on the allocation-free training runtime
//! (DESIGN.md §8–9): batches are gathered into persistent
//! [`BatchGather`] buffers, the frozen teacher's logits are
//! materialised **once** in a [`TeacherCache`] (built through the
//! teacher's own inference workspace, [`Network::forward_ws`]) and
//! bulk-gathered per batch instead of re-forwarded per epoch, the
//! student trains through its arenas ([`Network::forward_ws`] /
//! [`Network::backward_train`]), the fused composite loss
//! ([`GoldfishLoss::loss_and_grad_into`]) writes into a reused gradient
//! buffer, and the fused optimizer walks flat parameter slices. Every
//! piece is bitwise identical to the classic allocating pipeline
//! (`subset` → `forward` → `remaining_grad`/`forget_grad` → `backward`
//! → `Sgd`), pinned by `tests/unlearn_identity.rs`.

use goldfish_data::{BatchGather, Dataset};
use goldfish_fed::eval;
use goldfish_nn::optim::FusedSgd;
use goldfish_nn::Network;
use goldfish_tensor::Tensor;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::extension::AdaptiveTemperature;
use crate::loss::{GoldfishBatch, GoldfishLoss, GoldfishLossBufs, LossWeights};
use crate::optimization::EarlyTermination;

/// Configuration of one client's Goldfish local retraining.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoldfishLocalConfig {
    /// Maximum local epochs `n`.
    pub epochs: usize,
    /// Mini-batch size over the remaining data.
    pub batch_size: usize,
    /// Learning rate µ.
    pub lr: f32,
    /// SGD momentum β.
    pub momentum: f32,
    /// Composite-loss weights (µc, µd, T).
    pub weights: LossWeights,
    /// When set, Eq 11 overrides the fixed temperature per client.
    pub adaptive_temperature: Option<AdaptiveTemperature>,
    /// When set, Eq 7 early termination with this δ.
    pub early_termination: Option<f32>,
    /// Global gradient-norm clip applied before every SGD step. The
    /// composite loss contains a (gated) ascent term; clipping keeps a
    /// rough batch from destabilising the student. `None` disables.
    pub grad_clip: Option<f32>,
}

impl Default for GoldfishLocalConfig {
    /// The paper's experiment configuration (B = 100, η = 0.001, β = 0.9,
    /// T = 3, µd = 1.0, µc = 0.25; no adaptive temperature, no early
    /// termination).
    fn default() -> Self {
        GoldfishLocalConfig {
            epochs: 1,
            batch_size: 100,
            lr: 0.001,
            momentum: 0.9,
            weights: LossWeights::default(),
            adaptive_temperature: None,
            early_termination: None,
            grad_clip: Some(5.0),
        }
    }
}

/// Statistics of one Goldfish local run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldfishLocalStats {
    /// Mean composite loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// The distillation temperature actually used (after Eq 11).
    pub temperature: f32,
    /// Whether Eq 7 stopped training before `epochs` elapsed.
    pub early_terminated: bool,
}

/// Precomputed teacher logits over a client's remaining data — the
/// teacher side of the distillation term, materialised **once** and
/// reused across every epoch (and, via [`train_distill_cached`], every
/// round) of an unlearning request.
///
/// The teacher is frozen for the whole request (it is the pre-deletion
/// global model), so re-running its forward pass per batch per epoch —
/// what the pre-port pipeline did — recomputes identical numbers.
/// Bitwise fidelity to the per-batch pipeline is delicate, because a
/// logit row's *bits* depend on the size of the batch it was computed
/// in (kernel dispatch is by problem size), though never on its row
/// position or batch companions. The cache therefore computes **every
/// row at exactly the training batch size**: natural-order windows of
/// `B` rows, with one final *overlapping* window `[n−B, n)` covering
/// the remainder. Full-size training batches gather their rows from
/// the cache; a short tail batch falls back to a direct forward pass
/// through the teacher the cache holds (its dedicated inference
/// workspace), exactly as the per-batch pipeline would have computed
/// it. Pinned by `tests/unlearn_identity.rs`.
///
/// The teacher network is the cache's own when [`TeacherCache::build`]
/// made it; a cache from `TeacherCache::build_with` keeps only the
/// logits and is lent a teacher for each run, so many clients' caches
/// can share one network per executing thread.
#[derive(Debug)]
pub struct TeacherCache {
    /// The frozen teacher for short-batch fallback forwards: owned, or
    /// lent for one run.
    teacher: Option<Network>,
    /// `[n, classes]` logits in the dataset's natural row order, every
    /// row computed in a `rows_per_chunk`-sized forward.
    logits: Tensor,
    /// The batch size every cached row was computed at.
    rows_per_chunk: usize,
    /// Persistent per-batch gather buffer.
    gathered: Tensor,
}

impl TeacherCache {
    /// An empty cache (for loops whose loss has no distillation term).
    pub fn empty() -> Self {
        TeacherCache {
            teacher: None,
            logits: Tensor::zeros(vec![0]),
            rows_per_chunk: 0,
            gathered: Tensor::zeros(vec![0]),
        }
    }

    /// Forwards every sample of `data` through `teacher` (eval mode,
    /// via its inference workspace) in `batch_size`-row windows and
    /// stores the logits; the teacher is kept inside the cache for
    /// short-batch fallback forwards.
    pub fn build(mut teacher: Network, data: &Dataset, batch_size: usize) -> Self {
        let mut cache = TeacherCache::build_with(&mut teacher, data, batch_size);
        cache.teacher = Some(teacher);
        cache
    }

    /// [`TeacherCache::build`] through a borrowed teacher: the cache
    /// keeps only the logits, and a short-batch fallback needs a teacher
    /// [lent](TeacherCache::lend_teacher) to it first.
    pub(crate) fn build_with(teacher: &mut Network, data: &Dataset, batch_size: usize) -> Self {
        let n = data.len();
        let rows = batch_size.max(1).min(n.max(1));
        let mut cache = TeacherCache::empty();
        cache.rows_per_chunk = rows;
        if n > 0 {
            let mut gather = BatchGather::new();
            let indices: Vec<usize> = (0..n).collect();
            let full = n / rows;
            let mut write =
                |cache_logits: &mut Tensor, start: usize, window: &[usize], keep_from: usize| {
                    gather.gather(data, window);
                    let logits = teacher.forward_ws(gather.features(), false);
                    let (_, c) = logits.dims2();
                    if cache_logits.is_empty() {
                        cache_logits.resize(&[n, c]);
                    }
                    let kept = window.len() - keep_from;
                    cache_logits.as_mut_slice()[start * c..(start + kept) * c]
                        .copy_from_slice(&logits.as_slice()[keep_from * c..]);
                };
            for w in 0..full {
                write(
                    &mut cache.logits,
                    w * rows,
                    &indices[w * rows..(w + 1) * rows],
                    0,
                );
            }
            let rem = n - full * rows;
            if rem > 0 {
                // Overlapping final window: recompute the last `rows`
                // rows at full batch size, keep only the uncovered tail.
                write(&mut cache.logits, n - rem, &indices[n - rows..], rows - rem);
            }
        }
        cache
    }

    /// Lends `teacher` (a network holding the teacher's state) for the
    /// short-batch fallback forwards, until
    /// [`TeacherCache::take_teacher`] hands it back.
    pub(crate) fn lend_teacher(&mut self, teacher: Network) {
        self.teacher = Some(teacher);
    }

    /// Takes back the teacher the cache holds, if any.
    pub(crate) fn take_teacher(&mut self) -> Option<Network> {
        self.teacher.take()
    }

    /// Teacher logits for one training batch: a full-size batch gathers
    /// its cached rows (two bulk copies, no forward pass); a short
    /// (tail) batch forwards `features` through the cached teacher
    /// directly — in both cases bit-for-bit what a per-batch teacher
    /// forward would produce. Zero allocations after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or on a short batch when the
    /// cache holds no teacher.
    pub fn logits_for(&mut self, features: &Tensor, indices: &[usize]) -> &Tensor {
        if indices.len() != self.rows_per_chunk {
            let teacher = self
                .teacher
                .as_mut()
                .expect("short-batch fallback needs the cached teacher");
            return teacher.forward_ws(features, false);
        }
        let (n, c) = self.logits.dims2();
        self.gathered.resize(&[indices.len(), c]);
        let src = self.logits.as_slice();
        let dst = self.gathered.as_mut_slice();
        for (j, &i) in indices.iter().enumerate() {
            assert!(i < n, "cached teacher row {i} out of {n}");
            dst[j * c..(j + 1) * c].copy_from_slice(&src[i * c..(i + 1) * c]);
        }
        &self.gathered
    }
}

/// Runs the Goldfish distillation retraining for one client on the
/// allocation-free runtime (see the module docs for the buffer layout).
///
/// * `student` — trained in place; typically freshly (re)initialised.
/// * `teacher` — the old global model; only evaluated (never updated).
/// * `remaining` / `forget` — `D_r^c` and `D_f^c`. An empty `forget` set
///   reduces the procedure to distillation-assisted local training
///   (Algorithm 1, line 32).
/// * `reference_loss` — `L(ω^{t−1})` for Eq 7; pass the composite loss of
///   the previous global model on this client's data (ignored unless
///   `cfg.early_termination` is set).
///
/// Returns per-epoch statistics.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use goldfish_core::basic_model::{train_distill, GoldfishLocalConfig};
/// use goldfish_core::loss::{GoldfishLoss, LossWeights};
/// use goldfish_data::synthetic::{self, SyntheticSpec};
/// use goldfish_nn::loss::CrossEntropy;
/// use goldfish_nn::zoo;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
/// let (train, _) = synthetic::generate(&spec, 40, 10, 1);
/// let forget = train.subset(&[0, 1, 2]);
/// let remaining = train.subset(&(3..40).collect::<Vec<_>>());
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut student = zoo::mlp(64, &[16], 10, &mut rng);
/// let mut teacher = zoo::mlp(64, &[16], 10, &mut rng);
/// let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
/// let cfg = GoldfishLocalConfig { epochs: 1, batch_size: 10, ..Default::default() };
/// let stats = train_distill(
///     &mut student, &mut teacher, &remaining, &forget, &loss, &cfg, None, 7,
/// );
/// assert_eq!(stats.epoch_losses.len(), 1);
/// ```
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's parameter list
pub fn train_distill(
    student: &mut Network,
    teacher: &mut Network,
    remaining: &Dataset,
    forget: &Dataset,
    loss: &GoldfishLoss,
    cfg: &GoldfishLocalConfig,
    reference_loss: Option<f32>,
    seed: u64,
) -> GoldfishLocalStats {
    // The teacher is frozen: materialise its logits once and reuse them
    // across every epoch instead of re-forwarding per batch. The teacher
    // is lent to the cache for the duration of the call (it performs
    // the short-batch fallback forwards) and handed back afterwards.
    let mut cache = if loss.weights().mu_d > 0.0 {
        TeacherCache::build_with(teacher, remaining, cfg.batch_size)
    } else {
        TeacherCache::empty()
    };
    cache.lend_teacher(std::mem::replace(
        teacher,
        Network::new(goldfish_nn::Sequential::new()),
    ));
    let stats = train_distill_cached(
        student,
        &mut cache,
        remaining,
        forget,
        loss,
        cfg,
        reference_loss,
        seed,
    );
    *teacher = cache.take_teacher().expect("teacher returned from cache");
    stats
}

/// [`train_distill`] against a caller-built [`TeacherCache`] — the form
/// the unlearning round loop uses so one teacher-logit materialisation
/// serves **every round** of a request, not just every epoch.
///
/// The cache must have been built over `remaining` at `cfg.batch_size`
/// (and may be [`TeacherCache::empty`] when the loss has no
/// distillation term).
///
/// # Panics
///
/// Panics if the distillation term is active and the cache does not
/// cover `remaining`.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's parameter list
pub fn train_distill_cached(
    student: &mut Network,
    teacher_cache: &mut TeacherCache,
    remaining: &Dataset,
    forget: &Dataset,
    loss: &GoldfishLoss,
    cfg: &GoldfishLocalConfig,
    reference_loss: Option<f32>,
    seed: u64,
) -> GoldfishLocalStats {
    let mut sgd = FusedSgd::new(cfg.lr, cfg.momentum);
    let (mut gather_r, mut gather_f) = (BatchGather::new(), BatchGather::new());
    train_distill_hot(
        student,
        teacher_cache,
        remaining,
        forget,
        loss,
        cfg,
        reference_loss,
        seed,
        &mut sgd,
        [&mut gather_r, &mut gather_f],
    )
}

/// [`train_distill_cached`] on a caller's optimizer (re-armed here, so it
/// steps bitwise as a fresh one) and batch buffers — the remaining rows'
/// and the forget rows' — the form a lane-borrowing client runs, so
/// repeated runs allocate neither.
#[allow(clippy::too_many_arguments)] // as `train_distill_cached`, plus the lent buffers
pub(crate) fn train_distill_hot(
    student: &mut Network,
    teacher_cache: &mut TeacherCache,
    remaining: &Dataset,
    forget: &Dataset,
    loss: &GoldfishLoss,
    cfg: &GoldfishLocalConfig,
    reference_loss: Option<f32>,
    seed: u64,
    sgd: &mut FusedSgd,
    [gather_r, gather_f]: [&mut BatchGather; 2],
) -> GoldfishLocalStats {
    let temperature = match &cfg.adaptive_temperature {
        Some(at) => at.temperature(remaining.len(), forget.len()),
        None => cfg.weights.temperature,
    };
    let mut loss = loss.clone();
    loss.set_temperature(temperature);

    let mut stats = GoldfishLocalStats {
        epoch_losses: Vec::with_capacity(cfg.epochs),
        temperature,
        early_terminated: false,
    };
    if remaining.is_empty() && forget.is_empty() {
        return stats;
    }
    let mut early = match (cfg.early_termination, reference_loss) {
        (Some(delta), Some(reference)) => Some(EarlyTermination::new(delta, reference)),
        _ => None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    sgd.rearm(cfg.lr, cfg.momentum);
    // The paper's Eq 1 is sum-based over |D_r| ≫ |D_f|; on batch means the
    // equivalent ascent weight for the removed data is the size ratio.
    let forget_scale = if remaining.is_empty() {
        1.0
    } else {
        (forget.len() as f32 / remaining.len() as f32).min(1.0)
    };

    // Persistent step buffers, warm after the first epoch: the shared
    // gradient buffer and the fused-loss scratch (the two gather buffers
    // are the caller's: the remaining and forget slices have different
    // geometry).
    let mut grad = Tensor::zeros(vec![0]);
    let mut bufs = GoldfishLossBufs::new();
    let mut order: Vec<usize> = Vec::new();
    let mut forget_order: Vec<usize> = Vec::new();

    for epoch in 0..cfg.epochs {
        remaining.shuffled_indices_into(&mut rng, &mut order);
        forget.shuffled_indices_into(&mut rng, &mut forget_order);
        let n_steps = order.chunks(cfg.batch_size.max(1)).len().max(1);
        // Spread the (small) forget set across the epoch's steps so every
        // step sees a slice of removed data.
        let forget_chunk = forget_order.len().div_ceil(n_steps).max(1);
        let mut forget_batches = forget_order.chunks(forget_chunk);

        // The run's last possible step stores no velocity (an Eq 7 early
        // stop ends the run sooner, after a plain step).
        let last_epoch = epoch + 1 == cfg.epochs;

        let mut epoch_loss = 0.0f32;
        let mut steps = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut total = 0.0f32;
            student.zero_grad();
            gather_r.gather(remaining, chunk);
            let bd = {
                // The teacher's logits come out of the cache (one bulk
                // row gather, or a direct fallback forward for the tail
                // batch); the borrow stays live across the student's
                // training-mode forward.
                let teacher_logits = if loss.weights().mu_d > 0.0 {
                    Some(teacher_cache.logits_for(gather_r.features(), chunk))
                } else {
                    None
                };
                let student_logits = student.forward_ws(gather_r.features(), true);
                loss.loss_and_grad_into(
                    GoldfishBatch::Remaining {
                        student_logits,
                        teacher_logits,
                        labels: gather_r.labels(),
                    },
                    &mut grad,
                    &mut bufs,
                )
            };
            student.backward_train(&grad);
            total += bd.total(loss.weights());
            if let Some(fchunk) = forget_batches.next() {
                if !fchunk.is_empty() {
                    gather_f.gather(forget, fchunk);
                    let bd = {
                        let student_logits = student.forward_ws(gather_f.features(), true);
                        loss.loss_and_grad_into(
                            GoldfishBatch::Forget {
                                student_logits,
                                labels: gather_f.labels(),
                                hard_scale: forget_scale,
                            },
                            &mut grad,
                            &mut bufs,
                        )
                    };
                    student.backward_train(&grad);
                    total += bd.total(loss.weights());
                }
            }
            if let Some(max_norm) = cfg.grad_clip {
                clip_grad_norm(student, max_norm);
            }
            if last_epoch && steps + 1 == n_steps {
                sgd.final_step(student);
            } else {
                sgd.step(student);
            }
            epoch_loss += total;
            steps += 1;
        }
        let mean_loss = epoch_loss / steps.max(1) as f32;
        stats.epoch_losses.push(mean_loss);
        if let Some(et) = &mut early {
            if et.observe(mean_loss) {
                stats.early_terminated = true;
                break;
            }
        }
    }
    stats
}

/// Scales all parameter gradients down so the global gradient norm is at
/// most `max_norm`.
///
/// Walks the parameters through [`Network::visit_params_mut`] (no
/// materialised `Vec` of references), so a clip performs zero heap
/// allocations; the norm is accumulated in the same per-parameter order
/// the old `params()`-based form used, keeping results bitwise
/// identical.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(net: &mut Network, max_norm: f32) {
    assert!(max_norm > 0.0, "max_norm must be positive, got {max_norm}");
    let mut norm_sq = 0.0f32;
    net.visit_params_mut(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        net.visit_params_mut(&mut |p| p.grad.scale_mut(scale));
    } else if !norm.is_finite() {
        // A non-finite gradient would corrupt the momentum buffers; drop it.
        net.visit_params_mut(&mut |p| p.grad.zero_mut());
    }
}

/// Composite-loss value of a (fixed) model on a client's data — the Eq 7
/// reference `L(ω^{t−1})`.
///
/// Both sides of Eq 7 must be measured by the *same* loss function, so the
/// reference model is evaluated under the full composite loss with itself
/// as the teacher (the self-distillation term is then the softened
/// prediction entropy — exactly the floor the student's distillation term
/// approaches as it converges to the teacher).
pub(crate) fn reference_loss(
    model: &mut Network,
    remaining: &Dataset,
    forget: &Dataset,
    loss: &GoldfishLoss,
) -> f32 {
    // train_distill's per-step loss is "remaining-batch term + forget-slice
    // term", so the comparable reference is the sum of the two parts' means
    // over their rows. Each part runs through the one eval pass and the
    // fused loss; a chunk's loss is a mean over its rows, so weighting it
    // by its row count keeps the value independent of the chunk split.
    let forget_scale = if remaining.is_empty() {
        1.0
    } else {
        (forget.len() as f32 / remaining.len() as f32).min(1.0)
    };
    let mut grad = Tensor::zeros(vec![0]);
    let mut bufs = GoldfishLossBufs::new();
    let mut mean_over_rows = |data: &Dataset, forget: bool| {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        eval::for_each_chunk(model, data, |logits, labels| {
            let batch = if forget {
                GoldfishBatch::Forget {
                    student_logits: logits,
                    labels,
                    hard_scale: forget_scale,
                }
            } else {
                GoldfishBatch::Remaining {
                    student_logits: logits,
                    teacher_logits: Some(logits),
                    labels,
                }
            };
            let bd = loss.loss_and_grad_into(batch, &mut grad, &mut bufs);
            total += f64::from(bd.total(loss.weights())) * labels.len() as f64;
        });
        (total / data.len() as f64) as f32
    };
    mean_over_rows(remaining, false) + mean_over_rows(forget, true)
}

/// Convenience: a seeded copy of a network materialised from a factory and
/// a state vector.
pub fn network_from_state(
    factory: &goldfish_fed::ModelFactory,
    state: &[f32],
    seed: u64,
) -> Network {
    let mut net = (factory)(seed);
    net.set_state_vector(state);
    net
}

/// Draws a fresh initialisation seed from a base seed (used when Algorithm
/// 1 reinitialises the global model `ω0` on a deletion request).
pub fn reinit_seed(base: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(base ^ 0xD1B5_4A32_D192_ED03);
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_data::backdoor::BackdoorSpec;
    use goldfish_data::synthetic::{self, SyntheticSpec};
    use goldfish_nn::loss::CrossEntropy;
    use goldfish_nn::zoo;
    use std::sync::Arc;

    fn fixture() -> (Dataset, Dataset, Dataset) {
        // (remaining, forget(backdoored), test)
        let spec = SyntheticSpec::mnist().with_size(10, 10).with_shift(1);
        let (mut train, test) = synthetic::generate(&spec, 200, 80, 21);
        let backdoor = BackdoorSpec::new(0).with_patch(2);
        let poisoned: Vec<usize> = (0..20).collect();
        backdoor.poison(&mut train, &poisoned);
        let forget = train.subset(&poisoned);
        let keep: Vec<usize> = (20..200).collect();
        let remaining = train.subset(&keep);
        (remaining, forget, test)
    }

    fn mlp_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(100, &[32], 10, &mut rng)
    }

    fn train_teacher(remaining: &Dataset, forget: &Dataset) -> Network {
        let mut teacher = mlp_net(1);
        let all = remaining.concat(forget);
        let cfg = goldfish_fed::trainer::TrainConfig {
            local_epochs: 12,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
        };
        goldfish_fed::trainer::train_local_ce(&mut teacher, &all, &cfg, 3);
        teacher
    }

    fn local_cfg() -> GoldfishLocalConfig {
        GoldfishLocalConfig {
            epochs: 10,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }
    }

    #[test]
    fn student_learns_and_forgets() {
        let (remaining, forget, test) = fixture();
        let mut teacher = train_teacher(&remaining, &forget);
        let backdoor = BackdoorSpec::new(0).with_patch(2);
        let teacher_asr = goldfish_fed::eval::attack_success_rate(&mut teacher, &test, &backdoor);
        assert!(
            teacher_asr > 0.5,
            "teacher should be backdoored: {teacher_asr}"
        );

        let mut student = mlp_net(99);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let stats = train_distill(
            &mut student,
            &mut teacher,
            &remaining,
            &forget,
            &loss,
            &local_cfg(),
            None,
            7,
        );
        assert_eq!(stats.epoch_losses.len(), 10);
        let acc = goldfish_fed::eval::accuracy(&mut student, &test);
        let asr = goldfish_fed::eval::attack_success_rate(&mut student, &test, &backdoor);
        assert!(acc > 0.6, "student accuracy {acc}");
        assert!(asr < 0.3, "student should not retain the backdoor: {asr}");
    }

    #[test]
    fn empty_forget_reduces_to_distillation_training() {
        let (remaining, _, test) = fixture();
        let empty = Dataset::empty(remaining.sample_shape(), remaining.classes());
        let mut teacher = train_teacher(&remaining, &empty);
        let mut student = mlp_net(42);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let stats = train_distill(
            &mut student,
            &mut teacher,
            &remaining,
            &empty,
            &loss,
            &local_cfg(),
            None,
            0,
        );
        assert!(!stats.early_terminated);
        let acc = goldfish_fed::eval::accuracy(&mut student, &test);
        assert!(acc > 0.6, "distillation-only accuracy {acc}");
    }

    #[test]
    fn early_termination_cuts_epochs() {
        let (remaining, forget, _) = fixture();
        let mut teacher = train_teacher(&remaining, &forget);
        let gloss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let ref_loss = reference_loss(&mut teacher, &remaining, &forget, &gloss);
        let mut student = mlp_net(5);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let cfg = GoldfishLocalConfig {
            epochs: 50,
            early_termination: Some(1.0), // generous δ triggers quickly
            ..local_cfg()
        };
        let stats = train_distill(
            &mut student,
            &mut teacher,
            &remaining,
            &forget,
            &loss,
            &cfg,
            Some(ref_loss),
            0,
        );
        assert!(stats.early_terminated);
        assert!(stats.epoch_losses.len() < 50);
    }

    #[test]
    fn adaptive_temperature_is_applied() {
        let (remaining, forget, _) = fixture();
        let mut teacher = train_teacher(&remaining, &forget);
        let mut student = mlp_net(6);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let cfg = GoldfishLocalConfig {
            epochs: 1,
            adaptive_temperature: Some(AdaptiveTemperature::default()),
            ..local_cfg()
        };
        let stats = train_distill(
            &mut student,
            &mut teacher,
            &remaining,
            &forget,
            &loss,
            &cfg,
            None,
            0,
        );
        let expect = AdaptiveTemperature::default().temperature(remaining.len(), forget.len());
        assert!((stats.temperature - expect).abs() < 1e-6);
        assert!(stats.temperature > LossWeights::default().temperature * 0.9);
    }

    #[test]
    fn grad_clip_bounds_norm_and_drops_nonfinite() {
        let mut net = mlp_net(3);
        // Fill gradients with large values.
        net.visit_params_mut(&mut |p| p.grad.map_mut(|_| 100.0));
        clip_grad_norm(&mut net, 1.0);
        let mut norm_sq = 0.0f32;
        net.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
        let norm = norm_sq.sqrt();
        assert!((norm - 1.0).abs() < 1e-3, "clipped norm {norm}");

        net.visit_params_mut(&mut |p| p.grad.map_mut(|_| f32::NAN));
        clip_grad_norm(&mut net, 1.0);
        assert!(net.grad_vector().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn no_data_is_noop() {
        let mut student = mlp_net(0);
        let mut teacher = mlp_net(1);
        let before = student.state_vector();
        let empty = Dataset::empty(&[100], 10);
        let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let stats = train_distill(
            &mut student,
            &mut teacher,
            &empty,
            &empty,
            &loss,
            &local_cfg(),
            None,
            0,
        );
        assert!(stats.epoch_losses.is_empty());
        assert_eq!(student.state_vector(), before);
    }

    #[test]
    fn reference_loss_is_low_for_trained_model() {
        let (remaining, forget, _) = fixture();
        let mut teacher = train_teacher(&remaining, &forget);
        let gloss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let empty = Dataset::empty(remaining.sample_shape(), remaining.classes());
        let trained = reference_loss(&mut teacher, &remaining, &empty, &gloss);
        let mut fresh = mlp_net(1234);
        let untrained = reference_loss(&mut fresh, &remaining, &empty, &gloss);
        assert!(trained < untrained, "{trained} !< {untrained}");
    }

    #[test]
    fn reference_loss_is_the_mean_over_rows() {
        // 300 rows: a 256-row batching would leave a 44-row tail. A one-row
        // set has no split, so the mean of those is the per-row mean.
        let spec = SyntheticSpec::mnist().with_size(10, 10).with_shift(1);
        let (remaining, _) = synthetic::generate(&spec, 300, 10, 31);
        let empty = Dataset::empty(remaining.sample_shape(), remaining.classes());
        let mut model = mlp_net(5);
        let gloss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
        let want = (0..remaining.len())
            .map(|i| {
                f64::from(reference_loss(
                    &mut model,
                    &remaining.subset(&[i]),
                    &empty,
                    &gloss,
                ))
            })
            .sum::<f64>()
            / remaining.len() as f64;
        let got = f64::from(reference_loss(&mut model, &remaining, &empty, &gloss));
        assert!(
            (got - want).abs() <= 1e-6 * want.abs(),
            "reference {got} vs per-row mean {want}"
        );
    }
}
