//! The engine's rounding contract, pinned bit for bit.
//!
//! `engine_equivalence.rs` compares the kernels with the naive oracle
//! within a tolerance, which cannot see *how* an element was rounded. The
//! identity pins across the workspace (TCP ≡ loopback, runtime ≡ seed,
//! frozen digests) depend on exactly that, so this suite writes the
//! contract down as a scalar oracle and demands equal bit patterns from
//! `gemm`, `gemm_at_b` and `gemm_a_bt`:
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
//! both sides of [`KPACK`], every `m % MR`, and the parallel row split at
//! [`PAR_FLOPS`] on one and on two pool threads.

use goldfish_tensor::engine::{self, KPACK, MR, NR, PAR_FLOPS, SMALL_FLOPS};

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
