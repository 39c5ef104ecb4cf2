//! **Goldfish** — an efficient federated unlearning framework.
//!
//! This is the facade crate of the reproduction of Wang, Zhu, Chen &
//! Esteves-Veríssimo, *"Goldfish: An Efficient Federated Unlearning
//! Framework"* (DSN 2024). It re-exports the full stack:
//!
//! * [`tensor`] — the f32 ND tensor substrate (matmul, conv2d,
//!   temperature softmax),
//! * [`nn`] — layers, backprop, optimizers, losses and the paper's model
//!   zoo (LeNet-5, modified LeNet-5, ResNet-mini),
//! * [`data`] — synthetic dataset analogues, backdoor poisoning,
//!   federated partitioning and sharding,
//! * [`metrics`] — accuracy, backdoor ASR, JSD/L2 divergence, Welch
//!   t-test,
//! * [`fed`] — the federated-learning simulator (clients, server,
//!   FedAvg),
//! * [`core`] — the Goldfish framework itself: the four modules (basic
//!   model, loss, optimization, extension), Algorithm 1, and the paper's
//!   baselines B1/B2/B3,
//! * [`serve`] — the networked federation layer: wire protocol,
//!   TCP/loopback transports, the coordinator with its unlearning
//!   request queue, and the `goldfish-coordinator`/`goldfish-worker`
//!   daemons (DESIGN.md §10),
//! * [`telemetry`] — the zero-allocation observability layer: metrics
//!   registry, structured event tracing, deterministic clocks and the
//!   daemons' leveled logger (DESIGN.md §15).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete federated unlearning run:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The experiment harness regenerating every table and figure of the paper
//! lives in `crates/bench` (one binary per table/figure). `DESIGN.md`
//! documents the crate layout and the blocked/parallel compute engine;
//! performance is measured by the `goldfish-benchmark` package under
//! `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use goldfish_core as core;
pub use goldfish_data as data;
pub use goldfish_fed as fed;
pub use goldfish_metrics as metrics;
pub use goldfish_nn as nn;
pub use goldfish_serve as serve;
pub use goldfish_telemetry as telemetry;
pub use goldfish_tensor as tensor;

/// Version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let t = crate::tensor::Tensor::zeros(vec![2, 2]);
        assert_eq!(t.len(), 4);
        assert!(!crate::VERSION.is_empty());
    }
}
