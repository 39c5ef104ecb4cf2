//! Allocation-free mini-batch assembly.

use goldfish_tensor::Tensor;

use crate::Dataset;

/// A reusable mini-batch buffer: selected dataset rows are scattered
/// directly into a persistent features tensor and label vector instead of
/// materialising a fresh [`Dataset`] per chunk (what `Dataset::subset`
/// does — correct, but one tensor allocation, one label allocation and a
/// full label re-validation per training step).
///
/// After warm-up (once the buffers have seen the largest batch of the
/// run) a [`BatchGather::gather`] performs zero heap allocations: it is
/// two bulk row copies into reused memory. The gathered rows are byte
/// for byte what `subset` would have produced, so training on gathered
/// batches is bitwise identical to training on subset copies.
///
/// # Example
///
/// ```
/// use goldfish_data::{BatchGather, Dataset};
/// use goldfish_tensor::Tensor;
///
/// let ds = Dataset::new(Tensor::zeros(vec![4, 3]), vec![0, 1, 0, 1], 2);
/// let mut batch = BatchGather::new();
/// batch.gather(&ds, &[2, 0]);
/// assert_eq!(batch.features().shape(), &[2, 3]);
/// assert_eq!(batch.labels(), &[0, 0]);
/// ```
#[derive(Debug, Default)]
pub struct BatchGather {
    features: Tensor,
    labels: Vec<usize>,
}

impl BatchGather {
    /// Creates an empty gather buffer (sized on first use).
    pub fn new() -> Self {
        BatchGather {
            features: Tensor::zeros(vec![0]),
            labels: Vec::new(),
        }
    }

    /// Scatters the rows `indices` of `data` into the persistent buffers.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&mut self, data: &Dataset, indices: &[usize]) {
        let d = data.sample_len();
        let fv = data.features().as_slice();
        // Shape the buffer as [batch, …sample_shape] like subset would.
        self.shape_scratch(indices.len(), data.sample_shape());
        let out = self.features.as_mut_slice();
        self.labels.clear();
        for (j, &i) in indices.iter().enumerate() {
            assert!(i < data.len(), "index {i} out of {}", data.len());
            out[j * d..(j + 1) * d].copy_from_slice(&fv[i * d..(i + 1) * d]);
            self.labels.push(data.labels()[i]);
        }
    }

    /// The gathered feature rows, shaped `[batch, …sample_shape]`.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The gathered labels (one per row).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Resizes the features buffer to `[rows, …sample_shape]` without a
    /// per-call shape allocation (the shape vector is reused too).
    fn shape_scratch(&mut self, rows: usize, sample_shape: &[usize]) {
        // Fast path: same sample shape as last gather, only the batch
        // dimension moves.
        let cur = self.features.shape();
        if cur.len() == sample_shape.len() + 1
            && sample_shape.len() < 8
            && cur[1..] == *sample_shape
        {
            if cur[0] != rows {
                let mut shape = [0usize; 8];
                shape[0] = rows;
                shape[1..=sample_shape.len()].copy_from_slice(sample_shape);
                self.features.resize(&shape[..=sample_shape.len()]);
            }
            return;
        }
        let mut shape = Vec::with_capacity(sample_shape.len() + 1);
        shape.push(rows);
        shape.extend_from_slice(sample_shape);
        self.features.resize(&shape);
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
    fn gather_matches_subset() {
        let ds = toy();
        let mut batch = BatchGather::new();
        for chunk in [&[2usize, 0][..], &[1], &[3, 2, 1, 0]] {
            batch.gather(&ds, chunk);
            let sub = ds.subset(chunk);
            assert_eq!(batch.features(), sub.features());
            assert_eq!(batch.labels(), sub.labels());
        }
    }

    #[test]
    fn gather_reuses_the_buffer() {
        let ds = toy();
        let mut batch = BatchGather::new();
        batch.gather(&ds, &[0, 1, 2, 3]);
        let ptr = batch.features().as_slice().as_ptr();
        batch.gather(&ds, &[1, 2]);
        assert_eq!(batch.labels().len(), 2);
        batch.gather(&ds, &[3, 0, 1]);
        assert_eq!(batch.features().as_slice().as_ptr(), ptr, "reallocated");
        assert_eq!(batch.features().as_slice(), &[6., 7., 0., 1., 2., 3.]);
    }

    #[test]
    fn gather_keeps_sample_rank() {
        let ds = Dataset::new(Tensor::zeros(vec![3, 1, 2, 2]), vec![0, 1, 2], 3);
        let mut batch = BatchGather::new();
        batch.gather(&ds, &[2, 1]);
        assert_eq!(batch.features().shape(), &[2, 1, 2, 2]);
        assert!(!batch.labels().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn gather_rejects_bad_index() {
        let ds = toy();
        BatchGather::new().gather(&ds, &[9]);
    }
}
