//! The [`Network`] wrapper: a model plus flattened-state-vector plumbing.

use goldfish_tensor::{serialize, Tensor};

use crate::layer::{Layer, Param};
use crate::sequential::Sequential;

/// A trainable network: a [`Sequential`] body plus the state-vector
/// operations every federated algorithm in this repository relies on.
///
/// The **state vector** is the concatenation of *all* parameters (trainable
/// weights *and* frozen tracked state such as BatchNorm running statistics)
/// in layer order. FedAvg (Eq 13), adaptive-weight aggregation (Eq 12) and
/// the shard checkpoint arithmetic (Eqs 8–10) are all linear operations
/// over this vector.
pub struct Network {
    body: Sequential,
    /// Persistent logits buffer of [`Network::forward_ws`].
    fwd_out: Tensor,
}

impl Network {
    /// Wraps a sequential body.
    pub fn new(body: Sequential) -> Self {
        Network {
            body,
            fwd_out: Tensor::zeros(vec![0]),
        }
    }

    /// Forward pass into the network's persistent logits buffer. `train`
    /// selects training-mode behaviour (batch statistics, gradient
    /// caching); after warm-up no heap allocation happens on the dense
    /// path (DESIGN.md §8).
    pub fn forward_ws(&mut self, x: &Tensor, train: bool) -> &Tensor {
        self.body.forward_into(x, train, &mut self.fwd_out);
        &self.fwd_out
    }

    /// Backward pass from a gradient w.r.t. the network output (logits):
    /// accumulates parameter gradients but never materialises ∂L/∂input —
    /// the first layer's input is the data batch, whose gradient nothing
    /// consumes, so its GEMM/`col2im` is skipped
    /// ([`Layer::backward_params_only`]).
    pub fn backward_train(&mut self, grad_logits: &Tensor) {
        self.body.backward_params_only(grad_logits);
    }

    /// Zeroes every parameter gradient (allocation-free).
    pub fn zero_grad(&mut self) {
        self.body.visit_params_mut(&mut |p| p.zero_grad());
    }

    /// Visits every parameter mutably in state-vector order without
    /// materialising a `Vec` of references — the per-step form used by
    /// the fused optimizer.
    pub fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params_mut(f);
    }

    /// Visits every parameter immutably in state-vector order without
    /// materialising a `Vec` of references — the per-round form used by
    /// state snapshots.
    pub fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.body.visit_params(f);
    }

    /// Total number of scalars in the state vector.
    pub fn state_len(&self) -> usize {
        let mut n = 0;
        self.body.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Number of *trainable* scalars (excludes frozen tracked state).
    pub(crate) fn trainable_len(&self) -> usize {
        let mut n = 0;
        self.body.visit_params(&mut |p| {
            if p.trainable {
                n += p.value.len();
            }
        });
        n
    }

    /// Flattens all parameters (trainable + frozen) into one vector.
    pub fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_len());
        self.state_vector_into(&mut out);
        out
    }

    /// [`Network::state_vector`] into a caller-owned vector (cleared and
    /// refilled) — allocation-free once the vector's capacity is warm,
    /// for workers that upload their state every round.
    pub fn state_vector_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.state_len());
        self.body
            .visit_params(&mut |p| out.extend_from_slice(p.value.as_slice()));
    }

    /// Restores all parameters from a flattened state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.state_len()`.
    pub fn set_state_vector(&mut self, state: &[f32]) {
        let expected = self.state_len();
        assert_eq!(
            state.len(),
            expected,
            "state vector length {} != model state length {expected}",
            state.len()
        );
        let mut offset = 0;
        self.body.visit_params_mut(&mut |p| {
            let n = p.value.len();
            p.value
                .as_mut_slice()
                .copy_from_slice(&state[offset..offset + n]);
            offset += n;
        });
    }

    /// Appends the state vector to `out` as little-endian bytes
    /// ([`goldfish_tensor::serialize::f32s_write_le`]), parameter by
    /// parameter — the bytes of [`Network::state_vector`] encoded, without
    /// the vector: a worker writes its upload straight into the reply frame.
    pub fn append_state_le(&self, out: &mut Vec<u8>) {
        out.reserve(4 * self.state_len());
        self.body
            .visit_params(&mut |p| serialize::f32s_write_le(out, p.value.as_slice()));
    }

    /// Restores all parameters from a state vector given as its
    /// little-endian bytes — [`Network::set_state_vector`] of the decoded
    /// floats, each parameter decoding its own run straight from `bytes`:
    /// a worker installs an assignment's global from the frame it arrived
    /// in.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != 4 * self.state_len()`.
    pub fn set_state_le(&mut self, bytes: &[u8]) {
        let expected = self.state_len();
        assert_eq!(
            bytes.len(),
            4 * expected,
            "state bytes {} != 4 × model state length {expected}",
            bytes.len()
        );
        let mut rest = bytes;
        self.body.visit_params_mut(&mut |p| {
            let (run, tail) = rest.split_at(4 * p.value.len());
            serialize::f32s_read_le(run, p.value.as_mut_slice());
            rest = tail;
        });
    }

    /// Flattens all parameter *gradients* into one vector (same layout as
    /// [`Network::state_vector`]). Frozen parameters contribute zeros.
    pub fn grad_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.state_len());
        self.body
            .visit_params(&mut |p| out.extend_from_slice(p.grad.as_slice()));
        out
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network({:?}, {} params)", self.body, self.state_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::testing::{backward, forward};
    use crate::layer::Relu;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            Sequential::new()
                .push(Dense::new(3, 5, &mut rng))
                .push(Relu::new())
                .push(Dense::new(5, 2, &mut rng)),
        )
    }

    #[test]
    fn state_vector_roundtrip() {
        let net = tiny_net(0);
        let mut net2 = tiny_net(99);
        let s = net.state_vector();
        assert_eq!(s.len(), net.state_len());
        net2.set_state_vector(&s);
        assert_eq!(net2.state_vector(), s);
    }

    #[test]
    fn same_state_same_outputs() {
        let mut a = tiny_net(0);
        let mut b = tiny_net(7);
        b.set_state_vector(&a.state_vector());
        let x = Tensor::from_vec(vec![2, 3], vec![0.3, -0.1, 0.8, 1.0, 0.0, -0.5]);
        assert_eq!(
            a.forward_ws(&x, false).as_slice(),
            b.forward_ws(&x, false).as_slice()
        );
    }

    #[test]
    fn state_bytes_are_the_state_vector_encoded() {
        let net = tiny_net(0);
        let s = net.state_vector();
        let mut bytes = vec![0xAB];
        net.append_state_le(&mut bytes);
        let mut want = vec![0xAB];
        serialize::f32s_write_le(&mut want, &s);
        assert_eq!(bytes, want);
        let mut net2 = tiny_net(99);
        net2.set_state_le(&bytes[1..]);
        assert_eq!(net2.state_vector(), s);
    }

    #[test]
    #[should_panic(expected = "state bytes")]
    fn set_state_le_rejects_wrong_length() {
        let mut net = tiny_net(0);
        net.set_state_le(&[0; 12]);
    }

    #[test]
    #[should_panic(expected = "state vector length")]
    fn set_state_rejects_wrong_length() {
        let mut net = tiny_net(0);
        net.set_state_vector(&[0.0; 3]);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut net = tiny_net(0);
        let x = Tensor::filled(vec![1, 3], 1.0);
        let shape = net.forward_ws(&x, true).shape().to_vec();
        net.backward_train(&Tensor::filled(shape, 1.0));
        assert!(net.grad_vector().iter().any(|&g| g != 0.0));
        net.zero_grad();
        assert!(net.grad_vector().iter().all(|&g| g == 0.0));
    }

    /// An eval-mode forward caches nothing for backward: a backward after
    /// it panics exactly like one before any forward, even when an
    /// earlier training forward had filled the caches.
    #[test]
    fn backward_after_eval_forward_panics() {
        use crate::conv_layers::{Conv2d, ConvReluPool, MaxPool2d};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = StdRng::seed_from_u64(3);
        let layers: Vec<(Box<dyn Layer>, Vec<usize>)> = vec![
            (Box::new(Dense::new(4, 3, &mut rng)), vec![2, 4]),
            (Box::new(Relu::new()), vec![2, 4]),
            (
                Box::new(Conv2d::new(1, 2, 3, 1, 0, &mut rng)),
                vec![2, 1, 5, 5],
            ),
            (Box::new(MaxPool2d::new(2, 2)), vec![2, 1, 4, 4]),
            (
                Box::new(ConvReluPool::new(Conv2d::new(1, 2, 3, 1, 0, &mut rng), 2)),
                vec![2, 1, 6, 6],
            ),
        ];
        for (mut layer, shape) in layers {
            let x = Tensor::filled(shape, 0.5);
            let y = forward(&mut *layer, &x, true);
            let g = Tensor::filled(y.shape().to_vec(), 1.0);
            let _ = backward(&mut *layer, &g);
            assert_eq!(forward(&mut *layer, &x, false), y, "{}", layer.name());
            let err = catch_unwind(AssertUnwindSafe(|| backward(&mut *layer, &g)))
                .expect_err("backward after an eval forward must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                msg.contains("backward before forward"),
                "{}: {msg}",
                layer.name()
            );
        }
    }

    #[test]
    fn trainable_len_excludes_frozen() {
        use crate::batchnorm::BatchNorm2d;
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(
            Sequential::new()
                .push(crate::conv_layers::Conv2d::new(1, 2, 3, 1, 1, &mut rng))
                .push(BatchNorm2d::new(2)),
        );
        // BN: gamma+beta trainable (4), running mean/var frozen (4).
        assert_eq!(net.state_len() - net.trainable_len(), 4);
    }
}
