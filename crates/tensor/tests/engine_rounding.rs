//! The engine's rounding contract, pinned bit for bit.
//!
//! `engine_equivalence.rs` compares the kernels with the naive oracle
//! within a tolerance, which cannot see *how* an element was rounded. The
//! identity pins across the workspace (TCP ≡ loopback, runtime ≡ seed,
//! frozen digests) depend on exactly that, so this suite writes the
//! contract down as a scalar oracle and demands equal bit patterns from
//! `gemm`, `gemm_at_b` (and its accumulating form `gemm_at_b_add`, whose
//! finished chains are added to the output once) and `gemm_a_bt`:
//!
//! * below [`SMALL_FLOPS`] every element is a multiply, then an add
//!   (`acc + x·v`), from +0.0 in ascending `p`;
//! * at or above it, the columns of every full [`NR`]-wide strip — and
//!   every column of a narrower-than-`NR` output — run the `fma_acc`
//!   chain from +0.0: one fused multiply-add per step where the target
//!   has FMA, multiply-then-add where it does not;
//! * the `n % NR` trailing columns of a wider output multiply, then add,
//!   from +0.0.
//!
//! Shapes cross every dispatch edge: `n < NR` and `n = NR·j + r`, `k` on
//! both sides of [`KPACK`], every `m % MR` (and every `m` below [`MR`]
//! once the product leaves the small path), and the parallel row split at
//! [`PAR_FLOPS`] on one and on two pool threads.
//!
//! The convolution backward computes `∂W` without lowering its input, by a
//! sweep over the image itself whose rows are the lowered `gemm`'s
//! columns, so its contract is this one: each `∂W` element is the chain
//! column `j` of `gemm(f, x, c·kh·kw)` would form, per lowering block,
//! with the small path, the fused rows and the edge rows all reachable
//! (the `conv_weight_gradient_*` tests, at one and two threads).

use goldfish_tensor::conv::{self, Conv2dSpec, ConvWorkspace};
use goldfish_tensor::engine::{self, KPACK, MR, NR, PAR_FLOPS, SMALL_FLOPS};
use goldfish_tensor::Tensor;

/// One step of the tiled kernel's full-strip chain (`fma_acc`).
fn fused(acc: f32, x: f32, v: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        x.mul_add(v, acc)
    } else {
        acc + x * v
    }
}

/// One step of the small path and of the edge strip.
fn unfused(acc: f32, x: f32, v: f32) -> f32 {
    acc + x * v
}

/// The contract for `out[i, j] = Σ_p a(i, p) · b(p, j)` over an
/// `m×k×n` product, with the operands read through `a` and `b` so one
/// oracle serves all three orientations.
fn oracle(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let small = m * k * n < SMALL_FLOPS;
    let full = if n < NR { n } else { n / NR * NR };
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let step = if small || j >= full { unfused } else { fused };
            out[i * n + j] = (0..k).fold(0.0, |acc, p| step(acc, a(i, p), b(p, j)));
        }
    }
    out
}

/// Deterministic values in [-1, 1) with a spread of exponents, so a
/// changed rounding shows up in the low bits.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let unit = (s >> 40) as f32 / (1u64 << 24) as f32;
            (unit * 2.0 - 1.0) * [1.0, 0.37, 3.1][(s % 3) as usize]
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks all three entry points at one shape against [`oracle`].
fn check((m, k, n): (usize, usize, usize), seed: u64) {
    let what = format!("m={m} k={k} n={n} (MR={MR} NR={NR})");
    let a = values(m * k, seed);
    let b = values(k * n, seed + 1);

    let mut got = vec![f32::NAN; m * n];
    engine::gemm(m, k, n, &a, &b, &mut got);
    let want = oracle((m, k, n), |i, p| a[i * k + p], |p, j| b[p * n + j]);
    assert_eq!(bits(&got), bits(&want), "gemm: {what}");

    // The same numbers with A stored transposed, [k, m].
    let at = values(k * m, seed + 2);
    engine::gemm_at_b(k, m, n, &at, &b, &mut got);
    let want = oracle((m, k, n), |i, p| at[p * m + i], |p, j| b[p * n + j]);
    assert_eq!(bits(&got), bits(&want), "gemm_at_b: {what}");

    // Added into a gradient already holding values (a -0.0 among them):
    // each finished chain is added once, as a staged product and an
    // `axpy` with α = 1 would.
    let mut acc = values(m * n, seed + 4);
    acc[0] = -0.0;
    let want: Vec<f32> = acc.iter().zip(&want).map(|(&g, &d)| g + 1.0 * d).collect();
    engine::gemm_at_b_add(k, m, n, &at, &b, &mut acc);
    assert_eq!(bits(&acc), bits(&want), "gemm_at_b_add: {what}");

    // And with B stored transposed, [n, k].
    let bt = values(n * k, seed + 3);
    engine::gemm_a_bt(m, k, n, &a, &bt, &mut got);
    let want = oracle((m, k, n), |i, p| a[i * k + p], |p, j| bt[j * k + p]);
    assert_eq!(bits(&got), bits(&want), "gemm_a_bt: {what}");
}

/// The output widths every dispatch edge needs: narrower than one strip,
/// exactly one, and one or more strips plus each tail the models have.
fn widths() -> Vec<usize> {
    let mut n = vec![1, 10, NR - 1, NR];
    for j in 1..=2 {
        n.extend([1, 9, 22, 24].map(|r| NR * j + r));
    }
    n
}

#[test]
fn small_path_multiplies_then_adds() {
    for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (5, 40, 9), (7, 12, 40), (2, 70, 33)] {
        assert!(m * k * n < SMALL_FLOPS);
        check((m, k, n), (m * 1000 + k * 10 + n) as u64);
    }
}

#[test]
fn tiled_paths_follow_the_contract_at_every_edge() {
    for n in widths() {
        for k in [KPACK / 2 + 3, KPACK, KPACK * 2 + 5] {
            // Every leftover row count below a full register tile, and
            // enough rows that the product leaves the small path.
            let base = (SMALL_FLOPS / (k * n) + 1).div_ceil(MR) * MR;
            for m in base..base + MR {
                assert!(m * k * n >= SMALL_FLOPS);
                check((m, k, n), (m * 7919 + k * 31 + n) as u64);
            }
        }
    }
}

/// Fewer rows than one register tile — a `Dense` forward at batch 2 —
/// still take the tiled paths once the product leaves the small path, in
/// the 4-, 2- and 1-row tiles alone: the workloads' `A·Bᵀ` shapes, and
/// full strips plus an edge strip with `k` on both sides of [`KPACK`].
#[test]
fn tiled_paths_follow_the_contract_below_one_register_tile() {
    let mut tiled = 0;
    for (k, n) in [(784, 128), (256, 120), (120, 84)] {
        for m in 1..MR {
            tiled += usize::from(m * k * n >= SMALL_FLOPS);
            check((m, k, n), (m * 131 + k * 7 + n) as u64);
        }
    }
    for k in [KPACK - 1, KPACK, KPACK * 2 + 5] {
        for m in 1..MR {
            // The narrowest strips-plus-edge output above the small path.
            let n = SMALL_FLOPS.div_ceil(m * k).div_ceil(NR) * NR + 9;
            assert!(m * k * n >= SMALL_FLOPS && !n.is_multiple_of(NR));
            tiled += 1;
            check((m, k, n), (m * 977 + k * 13 + n) as u64);
        }
    }
    assert!(
        tiled >= 4 * (MR - 1),
        "only {tiled} shapes left the small path"
    );
}

#[test]
fn parallel_row_split_follows_the_contract_on_one_and_two_threads() {
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for n in [NR + 9, 2 * NR + 22, NR - 1] {
                let k = 3 * KPACK + 1;
                // Straddle PAR_FLOPS, with a ragged last row range.
                let edge = PAR_FLOPS.div_ceil(k * n);
                for m in [edge - 1, edge + MR + 1] {
                    check((m, k, n), (threads * 100 + m) as u64);
                }
            }
        });
    }
}

/// The convolution backward's lowering block size in elements
/// (`conv::COL_BLOCK_ELEMS`): `∂W` and `∂b` are summed per block and then
/// across blocks, so the partition is part of the contract below, and it
/// is frozen.
const COL_BLOCK_ELEMS: usize = 96 * 1024;

/// `∂W` and `∂b` of one convolution as the contract forms them: per image
/// block, `∂W[f, j]` is the chain over the block's positions `p` of
/// `g(f, p) · col(j, p)` from +0.0 — each step rounded as column `j` of the
/// lowered `gemm(f, x, c·kh·kw)` would be — and `∂b[f]` the plain sum of
/// `g(f, p)` from −0.0; each block's chain is then added to the total.
fn conv_grads_oracle(
    (n, c, h, w, f): (usize, usize, usize, usize, usize),
    spec: &Conv2dSpec,
    input: &[f32],
    grad_out: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let (oh, ow) = spec.output_hw(h, w);
    let (ckk, ohow) = (c * spec.kh * spec.kw, oh * ow);
    let step = (COL_BLOCK_ELEMS / (ckk * ohow)).clamp(1, n);
    let col = |s: usize, j: usize, q: usize| {
        let (ch, ky, kx) = (j / (spec.kh * spec.kw), j / spec.kw % spec.kh, j % spec.kw);
        let iy = (q / ow * spec.stride + ky) as isize - spec.padding as isize;
        let ix = (q % ow * spec.stride + kx) as isize - spec.padding as isize;
        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
            0.0
        } else {
            input[((s * c + ch) * h + iy as usize) * w + ix as usize]
        }
    };
    let g = |s: usize, fi: usize, q: usize| grad_out[(s * f + fi) * ohow + q];
    let (mut gw, mut gb) = (vec![0.0f32; f * ckk], vec![0.0f32; f]);
    for s0 in (0..n).step_by(step) {
        let images = s0..(s0 + step).min(n);
        let small = f * images.len() * ohow * ckk < SMALL_FLOPS;
        let full = if ckk < NR { ckk } else { ckk / NR * NR };
        let positions = || images.clone().flat_map(|s| (0..ohow).map(move |q| (s, q)));
        for fi in 0..f {
            for j in 0..ckk {
                let step = if small || j >= full { unfused } else { fused };
                let chain =
                    positions().fold(0.0, |acc, (s, q)| step(acc, g(s, fi, q), col(s, j, q)));
                gw[fi * ckk + j] += chain;
            }
            gb[fi] += positions().fold(-0.0, |acc, (s, q)| acc + g(s, fi, q));
        }
    }
    (gw, gb)
}

/// Checks `conv2d_backward_into`'s `∂W` and `∂b` against
/// [`conv_grads_oracle`], with and without `∂input`.
fn check_conv((n, c, h, w, f): (usize, usize, usize, usize, usize), spec: Conv2dSpec, seed: u64) {
    let what = format!("n={n} c={c} h={h} w={w} f={f} {spec:?} (NR={NR})");
    let (oh, ow) = spec.output_hw(h, w);
    let input = Tensor::from_vec(vec![n, c, h, w], values(n * c * h * w, seed));
    let weight = Tensor::from_vec(
        vec![f, c, spec.kh, spec.kw],
        values(f * c * spec.kh * spec.kw, seed + 1),
    );
    let grad_out = Tensor::from_vec(vec![n, f, oh, ow], values(n * f * oh * ow, seed + 2));
    let (want_w, want_b) = conv_grads_oracle(
        (n, c, h, w, f),
        &spec,
        input.as_slice(),
        grad_out.as_slice(),
    );
    let mut ws = ConvWorkspace::new();
    let (mut gi, mut gw, mut gb) = (
        Tensor::zeros(vec![0]),
        Tensor::zeros(vec![0]),
        Tensor::zeros(vec![0]),
    );
    for grad_in in [None, Some(&mut gi)] {
        conv::conv2d_backward_into(
            &grad_out, &input, &weight, &spec, &mut ws, grad_in, &mut gw, &mut gb,
        );
        assert_eq!(bits(gw.as_slice()), bits(&want_w), "∂W: {what}");
        assert_eq!(bits(gb.as_slice()), bits(&want_b), "∂b: {what}");
    }
}

#[test]
fn conv_weight_gradient_rounds_each_row_as_the_lowered_gemm_column() {
    let lenet = Conv2dSpec::new(5, 5, 1, 0);
    let one = Conv2dSpec::new(1, 1, 1, 0);
    // Both LeNet-5 layers: `c·kh·kw` = 25 (narrow at NR = 32, an edge at
    // 16 and 8) and 150 (an edge at every tier), over several blocks.
    check_conv((25, 1, 28, 28, 6), lenet, 1);
    check_conv((25, 6, 12, 12, 16), lenet, 2);
    // 1×1 kernels put `c·kh·kw` on every side of the strip width:
    // narrower, exactly one, and one or two strips plus an edge; filter
    // counts in one and in several lane groups.
    for (i, ckk) in [NR - 1, NR, NR + 9, 2 * NR + 22].into_iter().enumerate() {
        for f in [3, 16, 21] {
            check_conv((3, ckk, 9, 7, f), one, 10 + i as u64 * 10 + f as u64);
        }
    }
    // Stride and padding: the sweep reads strided runs of a staged image.
    check_conv((7, 3, 11, 13, 10), Conv2dSpec::new(3, 4, 2, 1), 5);
}

#[test]
fn conv_weight_gradient_on_the_small_path_multiplies_then_adds() {
    // One 1-image block small enough for the small path, after large
    // ones: the last block of 1 image is `1·25·(10·10)·f < SMALL_FLOPS`.
    let spec = Conv2dSpec::new(5, 5, 1, 0);
    let step = COL_BLOCK_ELEMS / (25 * 100);
    for f in [1, 6] {
        assert!(f * 25 * 100 < SMALL_FLOPS);
        check_conv((step + 1, 1, 14, 14, f), spec, 60 + f as u64);
    }
    check_conv((2, 2, 6, 5, 3), Conv2dSpec::new(2, 3, 1, 1), 70);
}

#[test]
fn conv_weight_gradient_follows_the_contract_on_one_and_two_threads() {
    // One image per block, each a product past PAR_FLOPS, so the rows are
    // split across the pool; 40 filters make three lane groups.
    let spec = Conv2dSpec::new(3, 3, 1, 1);
    const { assert!(16 * 9 * 32 * 32 * 16 >= PAR_FLOPS) };
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            check_conv((2, 16, 32, 32, 16), spec, 80 + threads as u64);
            check_conv((2, 16, 32, 32, 40), spec, 90 + threads as u64);
        });
    }
}
