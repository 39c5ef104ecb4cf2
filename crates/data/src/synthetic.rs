//! Seeded synthetic analogues of the paper's four vision datasets.
//!
//! Each class is a smooth random *prototype* image (a sum of random
//! Gaussian blobs, fixed by the dataset seed); a sample is the prototype
//! under a random global gain plus pixel noise, clamped to `[0, 1]`. The
//! class structure is therefore learnable by exactly the architectures the
//! paper uses, while the difficulty knobs (`noise_std`, `blobs_per_class`)
//! are tuned so the four datasets keep the paper's difficulty ordering
//! (MNIST easiest → CIFAR-100 hardest).

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use goldfish_tensor::Tensor;

use crate::Dataset;

/// Generation parameters for a synthetic vision dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Human-readable dataset name (appears in experiment reports).
    pub name: String,
    /// Image channels (1 for the MNIST family, 3 for CIFAR).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Per-pixel Gaussian noise σ — the main difficulty knob.
    pub noise_std: f32,
    /// Gaussian blobs per class prototype — texture complexity.
    pub blobs_per_class: usize,
    /// Maximum per-sample circular shift (pixels, each axis). Mimics the
    /// positional variation of real image data; without it, models
    /// memorise pixel positions instead of learning features.
    pub max_shift: usize,
    /// Seed for the class prototypes (fixed per dataset so train and test
    /// share structure).
    pub prototype_seed: u64,
}

impl SyntheticSpec {
    /// MNIST analogue: 1×28×28, 10 classes, easy.
    pub fn mnist() -> Self {
        SyntheticSpec {
            name: "mnist".into(),
            channels: 1,
            height: 28,
            width: 28,
            classes: 10,
            noise_std: 0.18,
            blobs_per_class: 4,
            max_shift: 3,
            prototype_seed: 1001,
        }
    }

    /// Fashion-MNIST analogue: 1×28×28, 10 classes, moderately hard.
    pub fn fashion_mnist() -> Self {
        SyntheticSpec {
            name: "fmnist".into(),
            channels: 1,
            height: 28,
            width: 28,
            classes: 10,
            noise_std: 0.30,
            blobs_per_class: 6,
            max_shift: 4,
            prototype_seed: 2002,
        }
    }

    /// CIFAR-10 analogue: 3×32×32, 10 classes, hard.
    pub fn cifar10() -> Self {
        SyntheticSpec {
            name: "cifar10".into(),
            channels: 3,
            height: 32,
            width: 32,
            classes: 10,
            noise_std: 0.38,
            blobs_per_class: 8,
            max_shift: 5,
            prototype_seed: 3003,
        }
    }

    /// CIFAR-100 analogue: 3×32×32, 100 classes, hardest.
    pub fn cifar100() -> Self {
        SyntheticSpec {
            name: "cifar100".into(),
            channels: 3,
            height: 32,
            width: 32,
            classes: 100,
            noise_std: 0.32,
            blobs_per_class: 8,
            max_shift: 4,
            prototype_seed: 4004,
        }
    }

    /// Overrides the image size — the experiment harness uses reduced
    /// resolutions to fit the CPU budget (see DESIGN.md §3).
    pub fn with_size(mut self, height: usize, width: usize) -> Self {
        self.height = height;
        self.width = width;
        self
    }

    /// Overrides the noise level.
    pub fn with_noise(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Overrides the per-sample shift range. Down-scaled images (e.g. test
    /// fixtures) should scale this down too — a ±3 px shift on a 10×10
    /// image is a far larger distortion than on 28×28.
    pub fn with_shift(mut self, max_shift: usize) -> Self {
        self.max_shift = max_shift;
        self
    }

    /// Per-sample feature count (`channels × height × width`).
    pub(crate) fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// One Gaussian blob of a class prototype.
struct Blob {
    cy: f32,
    cx: f32,
    sigma: f32,
    amplitude: f32,
    channel_weights: Vec<f32>,
}

/// Renders the class prototypes for a spec: `classes` images of
/// `channels × height × width`, each the sum of `blobs_per_class` blobs,
/// normalised to `[0, 1]`.
fn prototypes(spec: &SyntheticSpec) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(spec.prototype_seed);
    let (c, h, w) = (spec.channels, spec.height, spec.width);
    (0..spec.classes)
        .map(|_| {
            let blobs: Vec<Blob> = (0..spec.blobs_per_class)
                .map(|_| Blob {
                    cy: rng.gen_range(0.0..h as f32),
                    cx: rng.gen_range(0.0..w as f32),
                    sigma: rng.gen_range(0.12..0.35) * h.min(w) as f32,
                    amplitude: rng.gen_range(0.5..1.0),
                    channel_weights: (0..c).map(|_| rng.gen_range(0.2..1.0)).collect(),
                })
                .collect();
            let mut img = vec![0.0f32; c * h * w];
            for blob in &blobs {
                let inv2s2 = 1.0 / (2.0 * blob.sigma * blob.sigma);
                for ch in 0..c {
                    let weight = blob.amplitude * blob.channel_weights[ch];
                    for y in 0..h {
                        let dy = y as f32 - blob.cy;
                        for x in 0..w {
                            let dx = x as f32 - blob.cx;
                            img[(ch * h + y) * w + x] +=
                                weight * (-(dy * dy + dx * dx) * inv2s2).exp();
                        }
                    }
                }
            }
            // Normalise each prototype to [0, 1].
            let max = img.iter().cloned().fold(0.0f32, f32::max).max(1e-6);
            for v in &mut img {
                *v /= max;
            }
            img
        })
        .collect()
}

/// Generates `(train, test)` datasets with balanced class labels.
///
/// `seed` controls the *sampling* noise; the class prototypes are fixed by
/// `spec.prototype_seed`, so different seeds give fresh draws from the same
/// underlying distribution (train and test are generated with independent
/// streams).
///
/// # Panics
///
/// Panics if the spec has zero classes or zero-sized images.
pub fn generate(
    spec: &SyntheticSpec,
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> (Dataset, Dataset) {
    assert!(spec.classes > 0 && spec.sample_len() > 0, "degenerate spec");
    let protos = prototypes(spec);
    let mut train_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut test_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x85EB_CA6B).wrapping_add(2));
    (
        sample_split(spec, &protos, n_train, &mut train_rng),
        sample_split(spec, &protos, n_test, &mut test_rng),
    )
}

fn sample_split<R: Rng>(
    spec: &SyntheticSpec,
    protos: &[Vec<f32>],
    n: usize,
    rng: &mut R,
) -> Dataset {
    let (mut features, mut labels) = sample_rows(spec, protos, n, rng);
    // Shuffle samples so class order carries no information.
    let mut idx: Vec<usize> = (0..n).collect();
    use rand::seq::SliceRandom;
    idx.shuffle(rng);
    permute_rows(&mut features, &mut labels, spec.sample_len(), &mut idx);
    let shape = vec![n, spec.channels, spec.height, spec.width];
    Dataset::new(Tensor::from_vec(shape, features), labels, spec.classes)
}

/// `n` samples `[c·h·w]` each, flat, and their labels, in round-robin
/// label order.
fn sample_rows<R: Rng>(
    spec: &SyntheticSpec,
    protos: &[Vec<f32>],
    n: usize,
    rng: &mut R,
) -> (Vec<f32>, Vec<usize>) {
    let d = spec.sample_len();
    let (c, h, w) = (spec.channels, spec.height, spec.width);
    let mut features = Vec::with_capacity(n * d);
    let mut labels = Vec::with_capacity(n);
    let s = spec
        .max_shift
        .min(h.saturating_sub(1))
        .min(w.saturating_sub(1)) as isize;
    for i in 0..n {
        // Balanced labels in round-robin order, shuffled by the caller.
        let label = i % spec.classes;
        labels.push(label);
        let gain = rng.gen_range(0.75..1.15);
        // Per-sample circular shift: positional variation like real data.
        let (dy, dx) = if s > 0 {
            (rng.gen_range(-s..=s), rng.gen_range(-s..=s))
        } else {
            (0, 0)
        };
        let proto = &protos[label];
        for ch in 0..c {
            for y in 0..h {
                let sy = (y as isize + dy).rem_euclid(h as isize) as usize;
                for x in 0..w {
                    let sx = (x as isize + dx).rem_euclid(w as isize) as usize;
                    let p = proto[(ch * h + sy) * w + sx];
                    let noise = gaussian(rng) * spec.noise_std;
                    features.push((p * gain + noise).clamp(0.0, 1.0));
                }
            }
        }
    }
    (features, labels)
}

/// Puts row `idx[j]` of `features` (rows `d` long) and of `labels` at row
/// `j`, in place: each cycle of the permutation is followed once, its
/// first row held in one row of scratch, so no second copy of the split
/// exists. `idx` is left as the identity.
fn permute_rows(features: &mut [f32], labels: &mut [usize], d: usize, idx: &mut [usize]) {
    let mut held = vec![0.0f32; d];
    for start in 0..idx.len() {
        if idx[start] == start {
            continue;
        }
        held.copy_from_slice(&features[start * d..(start + 1) * d]);
        let held_label = labels[start];
        let mut k = start;
        loop {
            let src = std::mem::replace(&mut idx[k], k);
            if src == start {
                features[k * d..(k + 1) * d].copy_from_slice(&held);
                labels[k] = held_label;
                break;
            }
            features.copy_within(src * d..(src + 1) * d, k * d);
            labels[k] = labels[src];
            k = src;
        }
    }
}

/// One standard-normal draw via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes_and_shapes() {
        let spec = SyntheticSpec::mnist().with_size(14, 14).with_shift(1);
        let (train, test) = generate(&spec, 100, 40, 7);
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 40);
        assert_eq!(train.sample_shape(), &[1, 14, 14]);
        assert_eq!(train.classes(), 10);
    }

    #[test]
    fn labels_roughly_balanced() {
        let spec = SyntheticSpec::cifar10().with_size(8, 8).with_shift(1);
        let (train, _) = generate(&spec, 200, 10, 3);
        let hist = train.class_histogram();
        assert!(hist.iter().all(|&c| c == 20), "{hist:?}");
    }

    #[test]
    fn pixels_in_unit_interval() {
        let spec = SyntheticSpec::fashion_mnist()
            .with_size(10, 10)
            .with_shift(1);
        let (train, _) = generate(&spec, 50, 10, 11);
        assert!(train
            .features()
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (a, _) = generate(&spec, 30, 5, 42);
        let (b, _) = generate(&spec, 30, 5, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
        let (a, _) = generate(&spec, 30, 5, 1);
        let (b, _) = generate(&spec, 30, 5, 2);
        assert_ne!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity: a nearest-class-prototype classifier should beat chance
        // comfortably — otherwise nothing downstream can learn.
        let spec = SyntheticSpec::mnist().with_size(12, 12).with_shift(1);
        let protos = prototypes(&spec);
        let (_, test) = generate(&spec, 10, 200, 5);
        let d = spec.sample_len();
        let fv = test.features().as_slice();
        let mut correct = 0;
        for i in 0..test.len() {
            let x = &fv[i * d..(i + 1) * d];
            let best = protos
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da: f32 = a.iter().zip(x).map(|(p, v)| (p - v).powi(2)).sum();
                    let db: f32 = b.iter().zip(x).map(|(p, v)| (p - v).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .map(|(k, _)| k)
                .unwrap();
            if best == test.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.5, "nearest-prototype accuracy only {acc}");
    }

    #[test]
    fn generate_is_bitwise_the_copying_shuffle() {
        // The split as it was built before the in-place shuffle: rows
        // gathered through the permutation into a second buffer.
        fn copying(spec: &SyntheticSpec, n: usize, rng: &mut StdRng) -> Dataset {
            use rand::seq::SliceRandom;
            let (features, labels) = sample_rows(spec, &prototypes(spec), n, rng);
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            let d = spec.sample_len();
            let mut shuffled_features = Vec::with_capacity(n * d);
            let mut shuffled_labels = Vec::with_capacity(n);
            for &i in &idx {
                shuffled_features.extend_from_slice(&features[i * d..(i + 1) * d]);
                shuffled_labels.push(labels[i]);
            }
            let shape = vec![n, spec.channels, spec.height, spec.width];
            Dataset::new(
                Tensor::from_vec(shape, shuffled_features),
                shuffled_labels,
                spec.classes,
            )
        }
        let bits = |d: &Dataset| {
            let f = d.features().as_slice().iter().map(|x| x.to_bits());
            (f.collect::<Vec<_>>(), d.labels().to_vec())
        };
        for (spec, n_train, n_test, seed) in [
            (
                SyntheticSpec::mnist().with_size(8, 8).with_shift(1),
                97,
                31,
                3,
            ),
            (SyntheticSpec::cifar10().with_size(6, 5), 40, 1, 8),
            (SyntheticSpec::mnist(), 0, 2, 9),
        ] {
            let (train, test) = generate(&spec, n_train, n_test, seed);
            let mut train_rng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            let mut test_rng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x85EB_CA6B).wrapping_add(2));
            assert_eq!(bits(&train), bits(&copying(&spec, n_train, &mut train_rng)));
            assert_eq!(bits(&test), bits(&copying(&spec, n_test, &mut test_rng)));
        }
    }

    #[test]
    fn cifar100_has_100_classes() {
        let spec = SyntheticSpec::cifar100().with_size(8, 8).with_shift(1);
        let (train, _) = generate(&spec, 200, 10, 0);
        assert_eq!(train.classes(), 100);
    }
}
