//! Backdoor (trigger-patch) poisoning.
//!
//! The paper validates unlearning with backdoor attacks (following Wu et
//! al., arXiv:2201.09441): the data to be forgotten carries a trigger patch
//! and a flipped label, so a model that *retains* the deleted data keeps a
//! high attack success rate, while a properly unlearned model drops to
//! near zero. [`BackdoorSpec::poison`] plants the trigger and
//! [`BackdoorSpec::stamp_dataset`] builds the evaluation probe.

use serde::{Deserialize, Serialize};

use goldfish_tensor::Tensor;

use crate::Dataset;

/// Configuration of a trigger-patch backdoor.
///
/// The trigger is a **checkerboard** pattern (alternating `value` / 0) in
/// the bottom-right corner — the classic BadNets-style pixel pattern. A
/// high-frequency pattern is essential here: the synthetic datasets are
/// smooth blob images, so a *solid* bright patch is not distinguishable
/// from natural blob tails, while a checkerboard never occurs naturally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackdoorSpec {
    /// The label every triggered sample is steered towards.
    pub target_class: usize,
    /// Side length of the square trigger patch (bottom-right corner).
    pub patch: usize,
    /// Bright pixel value of the checkerboard (datasets are in `[0, 1]`).
    pub value: f32,
}

impl BackdoorSpec {
    /// A standard backdoor: 3×3 checkerboard steering to class 0.
    pub fn new(target_class: usize) -> Self {
        BackdoorSpec {
            target_class,
            patch: 3,
            value: 1.0,
        }
    }

    /// Overrides the patch size (small images want 2×2).
    pub fn with_patch(mut self, patch: usize) -> Self {
        self.patch = patch;
        self
    }

    /// Stamps the trigger onto sample `i` of a `[n, c, h, w]` feature
    /// tensor in place.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4, the index is out of bounds, or
    /// the patch is larger than the image.
    pub(crate) fn stamp_sample(&self, features: &mut Tensor, i: usize) {
        let (n, c, h, w) = features.dims4();
        assert!(i < n, "sample {i} out of {n}");
        assert!(
            self.patch <= h && self.patch <= w,
            "patch {} larger than image {h}x{w}",
            self.patch
        );
        let fv = features.as_mut_slice();
        for ch in 0..c {
            for y in h - self.patch..h {
                for x in w - self.patch..w {
                    let bright = (y + x) % 2 == 0;
                    fv[((i * c + ch) * h + y) * w + x] = if bright { self.value } else { 0.0 };
                }
            }
        }
    }

    /// Poisons the samples at `indices`: plants the trigger **and** flips
    /// the label to [`BackdoorSpec::target_class`]. This is the removed
    /// subset `D_f^c` in the paper's experiments.
    ///
    /// # Panics
    ///
    /// Panics if the target class is out of range or an index is out of
    /// bounds.
    pub fn poison(&self, dataset: &mut Dataset, indices: &[usize]) {
        assert!(
            self.target_class < dataset.classes(),
            "target class {} out of {}",
            self.target_class,
            dataset.classes()
        );
        for &i in indices {
            assert!(i < dataset.len(), "index {i} out of {}", dataset.len());
        }
        // Split borrows: stamp features first, then labels.
        for &i in indices {
            self.stamp_sample(dataset.features_mut(), i);
        }
        let labels = dataset.labels_mut();
        for &i in indices {
            labels[i] = self.target_class;
        }
    }

    /// Builds the attack-success probe from a clean dataset: every sample
    /// gets the trigger, labels are left as the *true* labels, and samples
    /// already belonging to the target class are dropped (they cannot
    /// witness a successful attack).
    pub fn stamp_dataset(&self, clean: &Dataset) -> Dataset {
        let keep: Vec<usize> = (0..clean.len())
            .filter(|&i| clean.labels()[i] != self.target_class)
            .collect();
        let mut probe = clean.subset(&keep);
        for i in 0..probe.len() {
            self.stamp_sample(probe.features_mut(), i);
        }
        probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_images() -> Dataset {
        Dataset::new(Tensor::zeros(vec![4, 1, 5, 5]), vec![0, 1, 2, 3], 4)
    }

    #[test]
    fn stamp_writes_bottom_right_patch() {
        let spec = BackdoorSpec::new(0).with_patch(2);
        let mut ds = toy_images();
        spec.stamp_sample(ds.features_mut(), 1);
        let fv = ds.features().as_slice();
        // sample 1, rows 3-4, cols 3-4 are 1.0; everything else untouched.
        let base = 25; // sample 1 offset
        assert_eq!(fv[base + 3 * 5 + 3], 1.0);
        assert_eq!(fv[base + 4 * 5 + 4], 1.0);
        assert_eq!(fv[base], 0.0);
        assert_eq!(fv[0], 0.0); // sample 0 untouched
    }

    #[test]
    fn poison_flips_labels() {
        let spec = BackdoorSpec::new(3).with_patch(2);
        let mut ds = toy_images();
        spec.poison(&mut ds, &[0, 2]);
        assert_eq!(ds.labels(), &[3, 1, 3, 3]);
    }

    #[test]
    fn probe_excludes_target_class_and_keeps_true_labels() {
        let spec = BackdoorSpec::new(1).with_patch(2);
        let ds = toy_images();
        let probe = spec.stamp_dataset(&ds);
        assert_eq!(probe.len(), 3);
        assert!(!probe.labels().contains(&1));
        // Every probe sample carries the trigger.
        let (n, c, h, w) = probe.features().dims4();
        let fv = probe.features().as_slice();
        for i in 0..n {
            assert_eq!(fv[((i * c) * h + (h - 1)) * w + (w - 1)], 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "patch 9 larger than image")]
    fn rejects_oversized_patch() {
        let spec = BackdoorSpec::new(0).with_patch(9);
        let mut ds = toy_images();
        spec.stamp_sample(ds.features_mut(), 0);
    }

    #[test]
    #[should_panic(expected = "target class 7 out of 4")]
    fn rejects_bad_target() {
        let spec = BackdoorSpec::new(7);
        let mut ds = toy_images();
        spec.poison(&mut ds, &[0]);
    }
}
