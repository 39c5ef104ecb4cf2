//! The owned ND tensor type.

use serde::{Deserialize, Serialize};

use crate::TensorError;

/// An owned, row-major, `f32` tensor with a dynamic shape.
///
/// `Tensor` is the single datum type used across the Goldfish stack:
/// mini-batches (`[N, D]` or `[N, C, H, W]`), parameters, gradients and
/// probability distributions are all `Tensor`s. It intentionally has value
/// semantics — cloning copies the buffer — because federated simulation
/// constantly snapshots parameter vectors.
///
/// # Example
///
/// ```
/// use goldfish_tensor::Tensor;
///
/// let t = Tensor::zeros(vec![2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn filled(shape: Vec<usize>, value: f32) -> Self {
        let mut t = Tensor::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Creates a tensor from a shape and a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the shape. Use
    /// `Tensor::try_from_vec` for a fallible variant.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        Tensor::try_from_vec(shape, data).expect("shape/data mismatch")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the buffer length is
    /// not the product of the shape dimensions.
    pub(crate) fn try_from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions (rank).
    pub(crate) fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Borrow the flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Interprets the tensor as a 2-D matrix, returning `(rows, cols)`.
    ///
    /// Rank-1 tensors are viewed as a single row. Higher-rank tensors are
    /// viewed as `[shape[0], rest]` — the standard "batch of flattened
    /// features" view.
    pub fn dims2(&self) -> (usize, usize) {
        match self.shape.len() {
            1 => (1, self.shape[0]),
            _ => (self.shape[0], self.shape[1..].iter().product()),
        }
    }

    /// Interprets the tensor as 4-D `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.shape.len(),
            4,
            "expected rank-4 tensor, got shape {:?}",
            self.shape
        );
        (self.shape[0], self.shape[1], self.shape[2], self.shape[3])
    }

    /// Reshapes the tensor **in place** to `shape`, growing or shrinking
    /// the buffer as needed and reusing its capacity.
    ///
    /// This is the workhorse of the allocation-free training runtime:
    /// arena tensors are `resize`d to each step's geometry, which after
    /// warm-up (once the buffer has seen its largest size) performs no
    /// heap allocation. Newly exposed elements are zero; existing element
    /// values are preserved only as an implementation detail — callers
    /// are expected to overwrite the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn resize(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let n = shape.iter().product();
        if self.shape != shape {
            self.shape.clear();
            self.shape.extend_from_slice(shape);
        }
        self.data.resize(n, 0.0);
    }

    /// Copies `src` into `self` (shape and data), reusing `self`'s buffer
    /// capacity — the allocation-free counterpart of `clone`.
    pub fn assign(&mut self, src: &Tensor) {
        self.resize(src.shape());
        self.data.copy_from_slice(src.as_slice());
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            expected,
            self.data.len(),
            "cannot reshape {:?} ({} elems) into {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            expected
        );
        self.shape = shape;
        self
    }

    /// Element of a 2-D tensor at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or if the tensor is not viewable as 2-D.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let (r, c) = self.dims2();
        assert!(row < r && col < c, "index ({row},{col}) out of ({r},{c})");
        self.data[row * c + col]
    }

    /// Borrow row `row` of the 2-D view of this tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        let (r, c) = self.dims2();
        assert!(row < r, "row {row} out of {r}");
        &self.data[row * c..(row + 1) * c]
    }

    /// Mutably borrow row `row` of the 2-D view of this tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let (r, c) = self.dims2();
        assert!(row < r, "row {row} out of {r}");
        &mut self.data[row * c..(row + 1) * c]
    }

    /// Elementwise sum with `other`, returning a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// In-place `self += alpha * other` (AXPY). This is the workhorse of
    /// SGD updates, FedAvg aggregation and shard checkpoint arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place multiply by a scalar.
    pub fn scale_mut(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Sets every element to zero (gradient reset between steps).
    pub fn zero_mut(&mut self) {
        self.data.fill(0.0);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_mut(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two equally-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of the flattened tensor.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// `true` when every element is finite (no NaN/inf) — used by tests and
    /// debug assertions around training loops.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    /// A scalar-shaped zero tensor.
    fn default() -> Self {
        Tensor::zeros(vec![1])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_len() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn try_from_vec_rejects_mismatch() {
        let err = Tensor::try_from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeDataMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_panics_on_mismatch() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0; 3]);
    }

    #[test]
    fn dims2_views() {
        assert_eq!(Tensor::zeros(vec![5]).dims2(), (1, 5));
        assert_eq!(Tensor::zeros(vec![4, 7]).dims2(), (4, 7));
        assert_eq!(Tensor::zeros(vec![2, 3, 4]).dims2(), (2, 12));
    }

    #[test]
    fn resize_reuses_capacity_and_zeroes_growth() {
        let mut t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        t.resize(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.as_slice(), &[1., 2., 3., 4.]);
        let cap_ptr = t.as_slice().as_ptr();
        t.resize(&[2, 3]);
        assert_eq!(t.as_slice().as_ptr(), cap_ptr, "shrink/grow reallocated");
        assert_eq!(t.as_slice()[4..], [0.0, 0.0]);
    }

    #[test]
    fn assign_copies_shape_and_data() {
        let src = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let mut dst = Tensor::zeros(vec![7]);
        dst.assign(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).reshape(vec![3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_panics_on_count_mismatch() {
        let _ = Tensor::zeros(vec![2, 3]).reshape(vec![4, 2]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(vec![2, 2], vec![10., 20., 30., 40.]);
        assert_eq!(a.add(&b).as_slice(), &[11., 22., 33., 44.]);
        assert_eq!(b.sub(&a).as_slice(), &[9., 18., 27., 36.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![3], vec![1., 1., 1.]);
        let b = Tensor::from_vec(vec![3], vec![2., 4., 6.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2., 3., 4.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1., 2., 3., 4.]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.norm_sq(), 30.0);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(vec![2, 2]);
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros(vec![100]);
        assert!(format!("{big}").contains("…"));
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::zeros(vec![2]);
        assert!(t.all_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.all_finite());
    }
}
