//! Model zoo: the four architectures of the paper plus an MLP for fast
//! tests.
//!
//! | Paper model | Constructor | Used for |
//! |---|---|---|
//! | LeNet-5 (2 conv, 2 pool, 2 FC) | [`lenet5`] | MNIST, FMNIST |
//! | Modified LeNet-5 (2 conv, 2 pool, 3 FC) | [`lenet5_modified`] | CIFAR-10 |
//! | ResNet32 | [`resnet_mini`] (scaled residual net, see DESIGN.md §3) | CIFAR-10 |
//! | ResNet56 | [`resnet_mini`] with more blocks | CIFAR-100 |

use goldfish_tensor::conv::Conv2dSpec;
use rand::Rng;

use crate::batchnorm::BatchNorm2d;
use crate::conv_layers::{Conv2d, ConvReluPool, GlobalAvgPool};
use crate::dense::Dense;
use crate::layer::{Flatten, Relu};
use crate::network::Network;
use crate::residual::Residual;
use crate::sequential::Sequential;

/// A plain multilayer perceptron: `input → hidden… → classes` with ReLU
/// between dense layers. The fast substrate for unit/integration tests.
///
/// # Panics
///
/// Panics if `input_dim` or `classes` is zero.
pub fn mlp<R: Rng + ?Sized>(
    input_dim: usize,
    hidden: &[usize],
    classes: usize,
    rng: &mut R,
) -> Network {
    assert!(input_dim > 0 && classes > 0, "empty mlp");
    let mut seq = Sequential::new();
    let mut prev = input_dim;
    for &h in hidden {
        seq = seq.push(Dense::new(prev, h, rng)).push(Relu::new());
        prev = h;
    }
    seq = seq.push(Dense::new(prev, classes, rng));
    Network::new(seq)
}

/// Spatial size after the LeNet conv/pool trunk for an `h × w` input.
fn lenet_trunk_hw(h: usize, w: usize) -> (usize, usize) {
    let conv = Conv2dSpec::new(5, 5, 1, 0);
    let pool = Conv2dSpec::new(2, 2, 2, 0);
    let (h, w) = conv.output_hw(h, w);
    let (h, w) = pool.output_hw(h, w);
    let (h, w) = conv.output_hw(h, w);
    pool.output_hw(h, w)
}

/// Classic LeNet-5 as described by the paper for MNIST/FMNIST:
/// two 5×5 convolutions, two 2×2 max-pools, and **two** fully-connected
/// layers at the end.
///
/// # Panics
///
/// Panics if the input is too small for the 5×5/2×2 trunk.
pub fn lenet5<R: Rng + ?Sized>(
    in_channels: usize,
    h: usize,
    w: usize,
    classes: usize,
    rng: &mut R,
) -> Network {
    let (th, tw) = lenet_trunk_hw(h, w);
    let flat = 16 * th * tw;
    Network::new(
        Sequential::new()
            .push(ConvReluPool::new(
                Conv2d::new(in_channels, 6, 5, 1, 0, rng),
                2,
            ))
            .push(ConvReluPool::new(Conv2d::new(6, 16, 5, 1, 0, rng), 2))
            .push(Flatten::new())
            .push(Dense::new(flat, 120, rng))
            .push(Relu::new())
            .push(Dense::new(120, classes, rng)),
    )
}

/// Modified LeNet-5 as described by the paper for CIFAR-10: the same conv
/// trunk but **three** fully-connected layers at the end.
///
/// # Panics
///
/// Panics if the input is too small for the 5×5/2×2 trunk.
pub fn lenet5_modified<R: Rng + ?Sized>(
    in_channels: usize,
    h: usize,
    w: usize,
    classes: usize,
    rng: &mut R,
) -> Network {
    let (th, tw) = lenet_trunk_hw(h, w);
    let flat = 16 * th * tw;
    Network::new(
        Sequential::new()
            .push(ConvReluPool::new(
                Conv2d::new(in_channels, 6, 5, 1, 0, rng),
                2,
            ))
            .push(ConvReluPool::new(Conv2d::new(6, 16, 5, 1, 0, rng), 2))
            .push(Flatten::new())
            .push(Dense::new(flat, 120, rng))
            .push(Relu::new())
            .push(Dense::new(120, 84, rng))
            .push(Relu::new())
            .push(Dense::new(84, classes, rng)),
    )
}

/// One basic residual block `Conv-BN-ReLU-Conv-BN (+skip) → ReLU`.
fn basic_block<R: Rng + ?Sized>(
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    rng: &mut R,
) -> Residual {
    let main = Sequential::new()
        .push(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng))
        .push(BatchNorm2d::new(out_ch))
        .push(Relu::new())
        .push(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng))
        .push(BatchNorm2d::new(out_ch));
    if stride == 1 && in_ch == out_ch {
        Residual::identity(main)
    } else {
        let proj = Sequential::new()
            .push(Conv2d::new(in_ch, out_ch, 1, stride, 0, rng))
            .push(BatchNorm2d::new(out_ch));
        Residual::projected(main, proj)
    }
}

/// A CIFAR-style residual network with three stages (channel widths
/// `base`, `2·base`, `4·base`), `blocks_per_stage` basic blocks each, and a
/// global-average-pool + dense head.
///
/// The paper uses ResNet32 (5 blocks/stage, base 16) and ResNet56
/// (9 blocks/stage); this constructor reproduces the exact topology at any
/// scale — the CPU-sized defaults used by the experiment harness are
/// `blocks_per_stage = 1, base = 8` (see DESIGN.md §3 for the substitution
/// rationale).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn resnet_mini<R: Rng + ?Sized>(
    in_channels: usize,
    classes: usize,
    blocks_per_stage: usize,
    base: usize,
    rng: &mut R,
) -> Network {
    assert!(
        in_channels > 0 && classes > 0 && blocks_per_stage > 0 && base > 0,
        "resnet_mini arguments must be positive"
    );
    let mut seq = Sequential::new()
        .push(Conv2d::new(in_channels, base, 3, 1, 1, rng))
        .push(BatchNorm2d::new(base))
        .push(Relu::new());
    // Stage 1: base channels, stride 1.
    for _ in 0..blocks_per_stage {
        seq = seq.push(basic_block(base, base, 1, rng));
    }
    // Stage 2: 2·base channels, first block strided.
    seq = seq.push(basic_block(base, 2 * base, 2, rng));
    for _ in 1..blocks_per_stage {
        seq = seq.push(basic_block(2 * base, 2 * base, 1, rng));
    }
    // Stage 3: 4·base channels, first block strided.
    seq = seq.push(basic_block(2 * base, 4 * base, 2, rng));
    for _ in 1..blocks_per_stage {
        seq = seq.push(basic_block(4 * base, 4 * base, 1, rng));
    }
    seq = seq
        .push(GlobalAvgPool::new())
        .push(Dense::new(4 * base, classes, rng));
    Network::new(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_tensor::Tensor;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mlp(10, &[16, 8], 3, &mut rng);
        let y = net.forward_ws(&Tensor::zeros(vec![4, 10]), true);
        assert_eq!(y.shape(), &[4, 3]);
    }

    #[test]
    fn lenet5_on_mnist_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = lenet5(1, 28, 28, 10, &mut rng);
        let y = net.forward_ws(&Tensor::zeros(vec![2, 1, 28, 28]), true);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn lenet5_trunk_geometry_28() {
        // 28 → conv5 → 24 → pool → 12 → conv5 → 8 → pool → 4
        assert_eq!(lenet_trunk_hw(28, 28), (4, 4));
        // 32 → 28 → 14 → 10 → 5
        assert_eq!(lenet_trunk_hw(32, 32), (5, 5));
    }

    #[test]
    fn lenet5_modified_on_cifar_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = lenet5_modified(3, 32, 32, 10, &mut rng);
        let y = net.forward_ws(&Tensor::zeros(vec![2, 3, 32, 32]), true);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn lenet_variants_differ_in_fc_depth() {
        let mut rng = StdRng::seed_from_u64(0);
        let two_fc = lenet5(1, 28, 28, 10, &mut rng);
        let three_fc = lenet5_modified(1, 28, 28, 10, &mut rng);
        let count = |net: &Network| {
            let mut n = 0;
            net.visit_params(&mut |_| n += 1);
            n
        };
        // Modified has one extra Dense layer → two extra params (W, b).
        assert_eq!(count(&two_fc) + 2, count(&three_fc));
    }

    #[test]
    fn resnet_mini_forward_backward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = resnet_mini(3, 10, 1, 4, &mut rng);
        let x = goldfish_tensor::init::normal(&mut rng, vec![2, 3, 16, 16], 0.0, 1.0);
        let y = net.forward_ws(&x, true);
        assert_eq!(y.shape(), &[2, 10]);
        net.backward_train(&Tensor::filled(vec![2, 10], 0.1));
        let grads = net.grad_vector();
        assert_eq!(grads.len(), net.state_len());
        assert!(grads.iter().all(|g| g.is_finite()));
        assert!(grads.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn resnet_blocks_scale_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let small = resnet_mini(3, 10, 1, 4, &mut rng);
        let big = resnet_mini(3, 10, 2, 4, &mut rng);
        assert!(big.state_len() > small.state_len());
    }
}
