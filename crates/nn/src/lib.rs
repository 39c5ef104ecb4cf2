//! Neural-network substrate for the Goldfish federated-unlearning
//! reproduction.
//!
//! The paper trains LeNet-5 / modified LeNet-5 / ResNet-style CNNs with
//! PyTorch; this crate provides the equivalent pieces in pure Rust:
//!
//! * a dyn-compatible [`Layer`] trait with explicit forward/backward passes,
//!   each in one allocation-free form,
//! * layers: [`Dense`], [`Conv2d`], [`MaxPool2d`], [`GlobalAvgPool`],
//!   [`Relu`], [`Flatten`], [`BatchNorm2d`], [`Residual`], [`Sequential`],
//!   and [`ConvReluPool`] — LeNet's Conv → ReLU → MaxPool block as one
//!   layer that keeps no full-size activation,
//! * the [`Network`] wrapper exposing **flattened state vectors** — the
//!   representation all federated aggregation and the paper's shard
//!   arithmetic (Eqs 8–10) operate on,
//! * hard losses ([`loss::CrossEntropy`], [`loss::Focal`], [`loss::Nll`])
//!   with analytic gradients w.r.t. logits,
//! * an SGD-with-momentum optimizer matching the paper's hyperparameters
//!   (η = 0.001, β = 0.9),
//! * a model zoo ([`zoo`]) with the paper's four architectures.
//!
//! # Example
//!
//! ```
//! use goldfish_nn::{loss::{CrossEntropy, HardLoss}, optim::FusedSgd, zoo};
//! use goldfish_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = zoo::mlp(4, &[8], 3, &mut rng);
//! let x = Tensor::from_vec(vec![2, 4], vec![0.1; 8]);
//! let labels = vec![0usize, 2];
//!
//! let mut sgd = FusedSgd::new(0.01, 0.9);
//! let mut grad = Tensor::zeros(vec![0]);
//! let logits = net.forward_ws(&x, true);
//! let loss = CrossEntropy.loss_and_grad_into(logits, &labels, &mut grad);
//! net.zero_grad();
//! net.backward_train(&grad);
//! sgd.step(&mut net);
//! assert!(loss.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batchnorm;
mod conv_layers;
mod dense;
mod layer;
pub mod loss;
mod network;
pub mod optim;
mod residual;
mod sequential;
pub mod zoo;

pub use batchnorm::BatchNorm2d;
pub use conv_layers::{Conv2d, ConvReluPool, GlobalAvgPool, MaxPool2d};
pub use dense::Dense;
pub use layer::{Flatten, Layer, Param, Relu};
pub use network::Network;
pub use residual::Residual;
pub use sequential::Sequential;
