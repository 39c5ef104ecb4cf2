//! Sequential composition of layers.

use goldfish_tensor::Tensor;

use crate::layer::{Layer, Param};

/// A sequence of layers applied in order. `Sequential` itself implements
/// [`Layer`], so it can be nested (the residual blocks use this).
///
/// The sequence owns the **activation and gradient arenas** of the
/// allocation-free runtime: one persistent tensor per inter-layer edge,
/// sized on the first batch and resized in place thereafter (see
/// DESIGN.md §8).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Activation arena: `acts[i]` holds the output of layer `i` (the
    /// input of layer `i + 1`). The last layer writes to the caller's
    /// output buffer instead.
    acts: Vec<Tensor>,
    /// Gradient arena: `grads[i]` holds ∂L/∂(input of layer `i + 1`)
    /// during the backward sweep. Layer 0's input gradient goes to the
    /// caller's buffer (or is skipped in the params-only sweep).
    grads: Vec<Tensor>,
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            acts: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Grows the arenas to one slot per inter-layer edge (no-op once
    /// warm). Slot *contents* are resized lazily by the layers.
    fn ensure_arenas(&mut self) {
        let edges = self.layers.len().saturating_sub(1);
        if self.acts.len() != edges {
            self.acts.resize_with(edges, || Tensor::zeros(vec![0]));
            self.grads.resize_with(edges, || Tensor::zeros(vec![0]));
        }
    }

    /// Backward sweep shared by [`Layer::backward_into`] and
    /// [`Layer::backward_params_only`]: propagates through every layer in
    /// reverse, writing layer 0's input gradient to `grad_in` when given
    /// and skipping its computation entirely otherwise.
    fn backward_sweep(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let n = self.layers.len();
        if n == 0 {
            if let Some(gi) = grad_in {
                gi.assign(grad_out);
            }
            return;
        }
        self.ensure_arenas();
        // Layers n-1 .. 1: read the successor's slot (or the caller's
        // gradient), write ∂L/∂input into slot i - 1.
        for i in (1..n).rev() {
            let (left, right) = self.grads.split_at_mut(i);
            let upstream: &Tensor = if i == n - 1 { grad_out } else { &right[0] };
            self.layers[i].backward_into(upstream, &mut left[i - 1]);
        }
        // Layer 0: its input is the network input.
        let upstream: &Tensor = if n == 1 { grad_out } else { &self.grads[0] };
        match grad_in {
            Some(gi) => self.layers[0].backward_into(upstream, gi),
            None => self.layers[0].backward_params_only(upstream),
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Sequential::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({names:?})")
    }
}

impl Layer for Sequential {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let n = self.layers.len();
        if n == 0 {
            out.assign(x);
            return;
        }
        self.ensure_arenas();
        // Layers 0 .. n-2 write into their arena slot; the last layer
        // writes into the caller's buffer.
        for i in 0..n - 1 {
            let (left, right) = self.acts.split_at_mut(i);
            let input: &Tensor = if i == 0 { x } else { &left[i - 1] };
            self.layers[i].forward_into(input, train, &mut right[0]);
        }
        let input: &Tensor = if n == 1 { x } else { &self.acts[n - 2] };
        self.layers[n - 1].forward_into(input, train, out);
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        self.backward_sweep(grad_out, Some(grad_in));
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        self.backward_sweep(grad_out, None);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::testing::{backward, forward, params};
    use crate::layer::Relu;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn chains_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng));
        let y = forward(&mut seq, &Tensor::zeros(vec![3, 4]), true);
        assert_eq!(y.shape(), &[3, 2]);
        let gx = backward(&mut seq, &Tensor::zeros(vec![3, 2]));
        assert_eq!(gx.shape(), &[3, 4]);
    }

    #[test]
    fn collects_params_from_all_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let seq = Sequential::new()
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, &mut rng));
        assert_eq!(params(&seq).len(), 4); // two dense layers × (W, b)
    }

    #[test]
    fn debug_lists_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let seq = Sequential::new()
            .push(Dense::new(2, 2, &mut rng))
            .push(Relu::new());
        let s = format!("{seq:?}");
        assert!(s.contains("dense") && s.contains("relu"));
    }
}
