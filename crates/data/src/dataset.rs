//! The in-memory labelled dataset type.

use goldfish_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset: a batch-first feature tensor (`[n, …]`) plus one
/// class label per sample.
///
/// `Dataset` has value semantics — client shards, removed subsets (`D_f^c`)
/// and remaining subsets (`D_r^c`) are all materialised copies, which keeps
/// the federated simulation simple and obviously correct.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimension of `features` disagrees with
    /// `labels.len()`, if `classes` is zero, or if any label is out of
    /// range.
    pub fn new(features: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert!(classes > 0, "dataset needs at least one class");
        assert_eq!(
            features.shape()[0],
            labels.len(),
            "feature batch {} != label count {}",
            features.shape()[0],
            labels.len()
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range (classes = {classes})"
        );
        Dataset {
            features,
            labels,
            classes,
        }
    }

    /// An empty dataset with the given per-sample shape.
    pub fn empty(sample_shape: &[usize], classes: usize) -> Self {
        let mut shape = vec![0];
        shape.extend_from_slice(sample_shape);
        Dataset {
            features: Tensor::from_vec(shape, Vec::new()),
            labels: Vec::new(),
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature tensor (`[n, …]`).
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Mutable feature tensor (used by backdoor stamping).
    pub(crate) fn features_mut(&mut self) -> &mut Tensor {
        &mut self.features
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Mutable labels (used by backdoor stamping).
    pub(crate) fn labels_mut(&mut self) -> &mut [usize] {
        &mut self.labels
    }

    /// Per-sample feature shape (without the batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.features.shape()[1..]
    }

    /// Flattened per-sample feature count.
    pub fn sample_len(&self) -> usize {
        self.sample_shape().iter().product()
    }

    /// Builds a new dataset from the given sample indices (copies).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let d = self.sample_len();
        let fv = self.features.as_slice();
        let mut out = vec![0.0f32; indices.len() * d];
        let mut labels = Vec::with_capacity(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            assert!(i < self.len(), "index {i} out of {}", self.len());
            out[j * d..(j + 1) * d].copy_from_slice(&fv[i * d..(i + 1) * d]);
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(self.sample_shape());
        Dataset {
            features: Tensor::from_vec(shape, out),
            labels,
            classes: self.classes,
        }
    }

    /// Concatenates two datasets with identical sample shapes and class
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics on shape or class mismatch.
    pub fn concat(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.classes, other.classes, "class count mismatch");
        assert_eq!(
            self.sample_shape(),
            other.sample_shape(),
            "sample shape mismatch"
        );
        let (a, b) = (self.features.as_slice(), other.features.as_slice());
        let mut data = vec![0.0f32; a.len() + b.len()];
        data[..a.len()].copy_from_slice(a);
        data[a.len()..].copy_from_slice(b);
        let mut labels = Vec::with_capacity(self.labels.len() + other.labels.len());
        labels.extend_from_slice(&self.labels);
        labels.extend_from_slice(&other.labels);
        let mut shape = vec![self.len() + other.len()];
        shape.extend_from_slice(self.sample_shape());
        Dataset {
            features: Tensor::from_vec(shape, data),
            labels,
            classes: self.classes,
        }
    }

    /// Splits into `(first, rest)` datasets at `at` samples.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_at(&self, at: usize) -> (Dataset, Dataset) {
        assert!(at <= self.len(), "split {at} beyond {}", self.len());
        let head: Vec<usize> = (0..at).collect();
        let tail: Vec<usize> = (at..self.len()).collect();
        (self.subset(&head), self.subset(&tail))
    }

    /// A shuffled copy of all indices.
    pub fn shuffled_indices<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut idx = Vec::new();
        self.shuffled_indices_into(rng, &mut idx);
        idx
    }

    /// Refills `order` with a shuffled copy of all indices — the
    /// buffer-reusing form of [`Dataset::shuffled_indices`], drawing the
    /// identical RNG stream and producing the identical permutation.
    pub fn shuffled_indices_into<R: Rng + ?Sized>(&self, rng: &mut R, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        order.shuffle(rng);
    }

    /// Iterates over mini-batches of at most `batch_size` samples in index
    /// order, yielding `(features, labels)` copies.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn batches(&self, batch_size: usize) -> Batches<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        Batches {
            dataset: self,
            batch_size,
            cursor: 0,
        }
    }

    /// Count of samples per class — used to assess partition skew.
    #[cfg(test)]
    pub(crate) fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

/// Iterator over `(features, labels)` mini-batches. Produced by
/// [`Dataset::batches`].
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.dataset.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.dataset.len());
        let idx: Vec<usize> = (self.cursor..end).collect();
        self.cursor = end;
        let sub = self.dataset.subset(&idx);
        Some((sub.features, sub.labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            Tensor::from_vec(vec![4, 2], vec![0., 1., 2., 3., 4., 5., 6., 7.]),
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn construction_and_accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.classes(), 2);
        assert_eq!(ds.sample_shape(), &[2]);
        assert_eq!(ds.sample_len(), 2);
        assert_eq!(ds.class_histogram(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(Tensor::zeros(vec![2, 2]), vec![0, 5], 2);
    }

    #[test]
    #[should_panic(expected = "feature batch")]
    fn rejects_mismatched_lengths() {
        let _ = Dataset::new(Tensor::zeros(vec![3, 2]), vec![0, 1], 2);
    }

    #[test]
    fn subset_copies_right_rows() {
        let ds = toy();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.features().as_slice(), &[4., 5., 0., 1.]);
        assert_eq!(sub.labels(), &[0, 0]);
    }

    #[test]
    fn concat_appends() {
        let ds = toy();
        let both = ds.concat(&ds);
        assert_eq!(both.len(), 8);
        assert_eq!(both.labels()[4..], ds.labels()[..]);
    }

    #[test]
    fn split_partitions_everything() {
        let ds = toy();
        let (a, b) = ds.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 3);
        assert_eq!(a.concat(&b), ds);
    }

    #[test]
    fn batches_cover_all_samples() {
        let ds = toy();
        let batches: Vec<_> = ds.batches(3).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].1.len(), 3);
        assert_eq!(batches[1].1.len(), 1);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::empty(&[1, 8, 8], 10);
        assert!(ds.is_empty());
        assert_eq!(ds.sample_shape(), &[1, 8, 8]);
        assert_eq!(ds.batches(4).count(), 0);
    }

    #[test]
    fn shuffled_indices_is_permutation() {
        use rand::{rngs::StdRng, SeedableRng};
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let mut idx = ds.shuffled_indices(&mut rng);
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
