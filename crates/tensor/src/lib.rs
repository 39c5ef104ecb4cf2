//! Minimal ND tensor library (f32) powering the Goldfish federated-unlearning
//! reproduction.
//!
//! This crate is the numeric substrate for `goldfish-nn` and everything
//! above it. It deliberately implements only what the paper's models need,
//! but implements those pieces completely:
//!
//! * an owned, row-major, `f32` [`Tensor`] with shape tracking,
//! * elementwise and scalar arithmetic, AXPY-style updates,
//! * blocked matrix multiplication (plus transposed variants used by
//!   backpropagation),
//! * 2-D convolution (forward in place over each image where its bits
//!   allow, `im2col` lowered otherwise; `∂W` read from the images in
//!   place, `∂input` one L1-sized slab of `Wᵀ·G` rows at a time,
//!   scattered through a cached run table) and max-pooling kernels,
//! * numerically-stable softmax / log-softmax **with distillation
//!   temperature** (Eqs 3–4 of the paper),
//! * weight initialisation schemes (Kaiming / Xavier) over a seeded RNG,
//! * compact binary serialization of parameter vectors.
//!
//! # Example
//!
//! ```
//! use goldfish_tensor::{Tensor, ops};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let c = ops::matmul(&a, &b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod engine;
pub mod init;
pub mod ops;
pub mod serialize;
mod tensor;

pub use tensor::Tensor;

/// Errors returned by fallible tensor operations (serialization,
/// validated construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match the product of the shape.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A serialized blob was truncated or malformed.
    MalformedBytes(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape implies {expected} elements but buffer holds {actual}"
            ),
            TensorError::MalformedBytes(msg) => write!(f, "malformed tensor bytes: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
