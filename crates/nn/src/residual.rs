//! Residual blocks (the building unit of the paper's ResNet-style models).

use goldfish_tensor::Tensor;

use crate::layer::{Layer, Param};
use crate::sequential::Sequential;

/// A residual block: `y = relu(main(x) + shortcut(x))`.
///
/// When `shortcut` is `None` the skip connection is the identity (requires
/// `main` to preserve the shape). Stage transitions in ResNets use a
/// projection shortcut (1×1 strided convolution + BatchNorm) to match
/// shapes — pass it as `Some(projection)`.
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    /// Post-sum ReLU mask (persistent buffer; unready until forward).
    relu_mask: Vec<bool>,
    ready: bool,
    /// Persistent branch buffers for the `_into` plumbing.
    main_out: Tensor,
    skip_out: Tensor,
    gated: Tensor,
    g_main: Tensor,
    g_skip: Tensor,
}

impl Residual {
    /// Creates an identity-skip residual block.
    pub(crate) fn identity(main: Sequential) -> Self {
        Residual::build(main, None)
    }

    /// Creates a residual block with a projection shortcut.
    pub fn projected(main: Sequential, shortcut: Sequential) -> Self {
        Residual::build(main, Some(shortcut))
    }

    fn build(main: Sequential, shortcut: Option<Sequential>) -> Self {
        Residual {
            main,
            shortcut,
            relu_mask: Vec::new(),
            ready: false,
            main_out: Tensor::zeros(vec![0]),
            skip_out: Tensor::zeros(vec![0]),
            gated: Tensor::zeros(vec![0]),
            g_main: Tensor::zeros(vec![0]),
            g_skip: Tensor::zeros(vec![0]),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(main: {:?}, shortcut: {})",
            self.main,
            if self.shortcut.is_some() {
                "projection"
            } else {
                "identity"
            }
        )
    }
}

impl Layer for Residual {
    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        self.main.forward_into(x, train, &mut self.main_out);
        let skip: &Tensor = match &mut self.shortcut {
            Some(proj) => {
                proj.forward_into(x, train, &mut self.skip_out);
                &self.skip_out
            }
            None => x,
        };
        assert_eq!(
            self.main_out.shape(),
            skip.shape(),
            "residual branch shapes diverge: {:?} vs {:?}",
            self.main_out.shape(),
            skip.shape()
        );
        out.resize(skip.shape());
        self.relu_mask.clear();
        let mo = self.main_out.as_slice();
        for ((o, &a), &b) in out.as_mut_slice().iter_mut().zip(mo).zip(skip.as_slice()) {
            let sum = a + b;
            self.relu_mask.push(sum > 0.0);
            *o = goldfish_tensor::ops::relu(sum);
        }
        self.ready = true;
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        assert!(self.ready, "Residual::backward before forward");
        assert_eq!(
            self.relu_mask.len(),
            grad_out.len(),
            "residual grad shape changed"
        );
        self.gated.resize(grad_out.shape());
        for ((o, &g), &m) in self
            .gated
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(self.relu_mask.iter())
        {
            *o = if m { g } else { 0.0 };
        }
        self.main.backward_into(&self.gated, &mut self.g_main);
        if let Some(proj) = &mut self.shortcut {
            proj.backward_into(&self.gated, &mut self.g_skip);
        }
        let gs = if self.shortcut.is_some() {
            self.g_skip.as_slice()
        } else {
            self.gated.as_slice()
        };
        assert_eq!(
            self.g_main.len(),
            gs.len(),
            "residual branch gradients diverge"
        );
        grad_in.resize(self.g_main.shape());
        for ((o, &a), &b) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(self.g_main.as_slice())
            .zip(gs)
        {
            *o = a + b;
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params_mut(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.main.visit_params(f);
        if let Some(proj) = &self.shortcut {
            proj.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_layers::Conv2d;
    use crate::dense::Dense;
    use crate::layer::testing::{backward, forward};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_residual_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let main = Sequential::new().push(Dense::new(4, 4, &mut rng));
        let mut block = Residual::identity(main);
        let x = Tensor::filled(vec![2, 4], 0.5);
        let y = forward(&mut block, &x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let gx = backward(&mut block, &Tensor::filled(vec![2, 4], 1.0));
        assert_eq!(gx.shape(), &[2, 4]);
    }

    #[test]
    fn zero_main_branch_passes_input_through_relu() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut main = Sequential::new().push(Dense::new(3, 3, &mut rng));
        // Zero out the dense weights so main(x) == 0.
        main.visit_params_mut(&mut |p| p.value.zero_mut());
        let mut block = Residual::identity(main);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, -2.0, 3.0]);
        let y = forward(&mut block, &x, true);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]); // relu(x + 0)
    }

    #[test]
    fn negative_zero_sum_comes_out_as_relu_gives_it() {
        // An empty main branch is the identity, so each sum is `x + x`:
        // −0.0 + −0.0 = −0.0, which must leave as +0.0 like `Relu`'s.
        // Long enough to cover any vectorised body and its tail.
        let mut block = Residual::identity(Sequential::new());
        let x: Vec<f32> = (0..67).map(|i| [-0.0, -1.0, 2.0][i % 3]).collect();
        let x = Tensor::from_vec(vec![1, 67], x);
        let y = forward(&mut block, &x, true);
        let relu = forward(&mut crate::layer::Relu::new(), &x.add(&x), true);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&relu));
        assert!(y.as_slice().iter().step_by(3).all(|v| v.to_bits() == 0));
    }

    #[test]
    fn projected_residual_changes_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let main = Sequential::new().push(Conv2d::new(2, 4, 3, 2, 1, &mut rng));
        let proj = Sequential::new().push(Conv2d::new(2, 4, 1, 2, 0, &mut rng));
        let mut block = Residual::projected(main, proj);
        let x = Tensor::zeros(vec![1, 2, 8, 8]);
        let y = forward(&mut block, &x, true);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
        let gx = backward(&mut block, &Tensor::zeros(vec![1, 4, 4, 4]));
        assert_eq!(gx.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn gradient_flows_through_both_branches() {
        let mut rng = StdRng::seed_from_u64(3);
        let main = Sequential::new().push(Dense::new(2, 2, &mut rng));
        let mut block = Residual::identity(main);
        let x = Tensor::filled(vec![1, 2], 1.0);
        let y = forward(&mut block, &x, true);
        // All outputs positive with this seed? Force positive by large input.
        let g = Tensor::filled(y.shape().to_vec(), 1.0);
        let gx = backward(&mut block, &g);
        // Identity path alone would give gradient 1 where relu is active;
        // main path adds W^T g, so |gx| should differ from the pure identity.
        assert_eq!(gx.shape(), &[1, 2]);
        assert!(gx.all_finite());
    }
}
