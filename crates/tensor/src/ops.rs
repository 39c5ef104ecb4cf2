//! Dense linear algebra and probabilistic transforms.
//!
//! The matmul family comes in the three orientations backpropagation needs
//! (`A·B`, `Aᵀ·B`, `A·Bᵀ`); softmax / log-softmax accept a *distillation
//! temperature* `T` implementing Eqs 3–4 of the Goldfish paper.
//!
//! The matmuls are thin wrappers over [`crate::engine`], which dispatches
//! by problem size between a reference-order loop (small operands; bitwise
//! identical to [`mod@reference`]) and a register-tiled kernel (large
//! operands; [`crate::engine::gemm`] also splits its rows across the rayon
//! pool at [`crate::engine::PAR_FLOPS`]). The original naive implementations live on in
//! [`mod@reference`] as the testing oracle, and [`matmul_sparse`] keeps the
//! old skip-zero-rows behaviour for explicitly sparse operands.

use crate::{engine, Tensor};

/// ReLU of one value: `v` if it is above zero, else `+0.0` — for `−0.0`
/// and NaN too. Written as a compare and a select rather than
/// `v.max(0.0)`: `f32::max` leaves the sign of a zero result open, and
/// LLVM lowers it differently in a vectorised loop and a scalar one (the
/// fused convolution epilogue returned `−0.0` for `−0.0` where the
/// vectorised `Relu` loop returned `+0.0`). One definition keeps the
/// `Relu` layer and [`crate::conv::conv2d_relu_pool_forward_into`] equal
/// bit for bit.
#[inline(always)]
pub fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Matrix product `A · B` for 2-D tensors.
///
/// Dispatches by size between the reference-order loop and the blocked
/// parallel kernel (see [`crate::engine`]).
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use goldfish_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1, 2], vec![1., 2.]);
/// let b = Tensor::from_vec(vec![2, 1], vec![3., 4.]);
/// assert_eq!(ops::matmul(&a, &b).as_slice(), &[11.]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.dims2();
    let (k2, n) = b.dims2();
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    engine::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// Matrix product `Aᵀ · B` without materialising the transpose.
///
/// # Panics
///
/// Panics if the row counts of `A` and `B` disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.dims2();
    let (k2, n) = b.dims2();
    assert_eq!(k, k2, "matmul_at_b leading dims: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    engine::gemm_at_b(k, m, n, a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// Matrix product `A · Bᵀ` without materialising the transpose.
///
/// # Panics
///
/// Panics if the column counts of `A` and `B` disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.dims2();
    let (n, k2) = b.dims2();
    assert_eq!(k, k2, "matmul_a_bt trailing dims: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    engine::gemm_a_bt(m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// Matrix product `A · B` that skips zero elements of `A`.
///
/// This is the old dense-path behaviour, preserved as an explicit entry
/// point: the per-element `== 0.0` branch pessimizes dense operands (it
/// blocks vectorization of the inner loop), but wins when `A` is known to
/// be mostly zeros — e.g. one-hot label matrices or heavily pruned
/// weights. Accumulation order matches [`matmul`]'s small path, so for
/// operands without `NaN`/`∞` the results are identical.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn matmul_sparse(a: &Tensor, b: &Tensor) -> Tensor {
    reference::matmul(a, b)
}

pub mod reference {
    //! The original naive kernels, kept verbatim as the equivalence oracle
    //! for [`crate::engine`] (and as the sparse-aware implementation
    //! behind [`super::matmul_sparse`]). Property tests assert the engine
    //! agrees with these within accumulation tolerance; do not "optimize"
    //! them.

    use crate::Tensor;

    /// Reference `A · B`: ikj loop order, skipping zero `A` elements.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (k2, n) = b.dims2();
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let av = a.as_slice();
        let bv = b.as_slice();
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &apk) in arow.iter().enumerate() {
                if apk == 0.0 {
                    continue;
                }
                let brow = &bv[p * n..(p + 1) * n];
                for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                    *o += apk * bpn;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// Reference `Aᵀ · B` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `A` and `B` disagree.
    pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = a.dims2();
        let (k2, n) = b.dims2();
        assert_eq!(k, k2, "matmul_at_b leading dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let av = a.as_slice();
        let bv = b.as_slice();
        for p in 0..k {
            let arow = &av[p * m..(p + 1) * m];
            let brow = &bv[p * n..(p + 1) * n];
            for (i, &api) in arow.iter().enumerate() {
                if api == 0.0 {
                    continue;
                }
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                    *o += api * bpn;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }

    /// Reference `A · Bᵀ` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the column counts of `A` and `B` disagree.
    pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.dims2();
        let (n, k2) = b.dims2();
        assert_eq!(k, k2, "matmul_a_bt trailing dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let av = a.as_slice();
        let bv = b.as_slice();
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &bv[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        Tensor::from_vec(vec![m, n], out)
    }
}

/// Explicit 2-D transpose.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = a.dims2();
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(vec![n, m], out)
}

/// Row-wise softmax with distillation temperature `t` (Eq 3/4 of the paper):
/// `softmax(z / t)` computed stably by subtracting the row max.
///
/// `t = 1` is the ordinary softmax; `t > 1` smooths the distribution
/// (soft labels), `t ≤ 1` sharpens towards hard labels.
///
/// # Panics
///
/// Panics if `t <= 0`.
pub fn softmax_t(logits: &Tensor, t: f32) -> Tensor {
    let mut out = Tensor::zeros(vec![0]);
    softmax_t_into(logits, t, &mut out);
    out
}

/// [`softmax_t`] writing into a caller-owned tensor (resized in place,
/// previous contents discarded) — the buffer-reusing form distillation
/// training calls every step. Values are bitwise identical to the
/// allocating form; after warm-up no heap allocation happens.
///
/// # Panics
///
/// Panics if `t <= 0`.
pub fn softmax_t_into(logits: &Tensor, t: f32, out: &mut Tensor) {
    assert!(t > 0.0, "temperature must be positive, got {t}");
    let (rows, cols) = logits.dims2();
    let lv = logits.as_slice();
    out.resize(&[rows, cols]);
    let ov = out.as_mut_slice();
    for r in 0..rows {
        let row = &lv[r * cols..(r + 1) * cols];
        let orow = &mut ov[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Exponentiate in a standalone elementwise pass (no loop-carried
        // accumulator, so the compiler can vectorize the exp), then sum
        // in the same ascending order the fused loop used — values are
        // bit-for-bit what the single-pass form produced.
        for (o, &z) in orow.iter_mut().zip(row.iter()) {
            *o = ((z - max) / t).exp();
        }
        let denom: f32 = orow.iter().sum();
        for o in orow.iter_mut() {
            *o /= denom;
        }
    }
}

/// Ordinary row-wise softmax (`softmax_t` at temperature 1).
pub fn softmax(logits: &Tensor) -> Tensor {
    softmax_t(logits, 1.0)
}

/// Row-wise log-softmax with temperature `t`, computed stably via the
/// log-sum-exp trick.
///
/// # Panics
///
/// Panics if `t <= 0`.
pub fn log_softmax_t(logits: &Tensor, t: f32) -> Tensor {
    let mut out = Tensor::zeros(vec![0]);
    log_softmax_t_into(logits, t, &mut out);
    out
}

/// [`log_softmax_t`] writing into a caller-owned tensor (resized in
/// place, previous contents discarded) — the buffer-reusing form the
/// fused distillation loss calls every step. Values are bitwise
/// identical to the allocating form; after warm-up no heap allocation
/// happens.
///
/// # Panics
///
/// Panics if `t <= 0`.
pub fn log_softmax_t_into(logits: &Tensor, t: f32, out: &mut Tensor) {
    assert!(t > 0.0, "temperature must be positive, got {t}");
    let (rows, cols) = logits.dims2();
    let lv = logits.as_slice();
    out.resize(&[rows, cols]);
    let ov = out.as_mut_slice();
    for r in 0..rows {
        let row = &lv[r * cols..(r + 1) * cols];
        let orow = &mut ov[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Stage the exponentials in the output row first: the standalone
        // elementwise pass vectorizes, and summing the staged values in
        // ascending order reproduces the fused `map(exp).sum()` bitwise.
        for (o, &z) in orow.iter_mut().zip(row.iter()) {
            *o = ((z - max) / t).exp();
        }
        let lse = orow.iter().sum::<f32>().ln();
        for (o, &z) in orow.iter_mut().zip(row.iter()) {
            *o = (z - max) / t - lse;
        }
    }
}

/// Index of the maximum entry of each row of the 2-D view.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    let (rows, cols) = t.dims2();
    let tv = t.as_slice();
    (0..rows)
        .map(|r| argmax_row(&tv[r * cols..(r + 1) * cols]))
        .collect()
}

/// Index of the maximum entry of `row` (the last one on ties, 0 for an
/// empty row) — the per-row rule of [`argmax_rows`].
pub fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Sum over rows: reduces an `[N, D]` tensor to `[D]`. Used for bias
/// gradients.
pub fn sum_rows(t: &Tensor) -> Tensor {
    let (rows, cols) = t.dims2();
    let tv = t.as_slice();
    let mut out = vec![0.0f32; cols];
    for r in 0..rows {
        for (o, &v) in out.iter_mut().zip(tv[r * cols..(r + 1) * cols].iter()) {
            *o += v;
        }
    }
    Tensor::from_vec(vec![cols], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, eps: f32) {
        assert!((a - b).abs() < eps, "{a} !≈ {b}");
    }

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let id = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &id).as_slice(), a.as_slice());
        assert_eq!(matmul(&id, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|v| v as f32).collect());
        let via_t = matmul(&transpose(&a), &b);
        let direct = matmul_at_b(&a, &b);
        assert_eq!(via_t.as_slice(), direct.as_slice());
        assert_eq!(direct.shape(), &[2, 4]);
    }

    #[test]
    fn matmul_a_bt_agrees() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![4, 3], (0..12).map(|v| v as f32).collect());
        let direct = matmul_a_bt(&a, &b);
        let via_t = matmul(&a, &transpose(&b));
        assert_eq!(direct.as_slice(), via_t.as_slice());
        assert_eq!(direct.shape(), &[2, 4]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let p = softmax(&t);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert_close(s, 1.0, 1e-6);
        }
    }

    #[test]
    fn softmax_temperature_smooths() {
        let t = Tensor::from_vec(vec![1, 3], vec![1., 2., 3.]);
        let sharp = softmax_t(&t, 0.5);
        let smooth = softmax_t(&t, 5.0);
        // Higher temperature → flatter distribution → lower max prob.
        let max_sharp = sharp.as_slice().iter().cloned().fold(0.0f32, f32::max);
        let max_smooth = smooth.as_slice().iter().cloned().fold(0.0f32, f32::max);
        assert!(max_sharp > max_smooth);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1, 3], vec![1000., 1001., 1002.]);
        let p = softmax(&t);
        assert!(p.all_finite());
        assert_close(p.as_slice().iter().sum::<f32>(), 1.0, 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![2, 4], vec![0.3, -1.2, 2.0, 0.7, 1.1, 0.0, -0.5, 0.2]);
        let lp = log_softmax_t(&t, 3.0);
        let p = softmax_t(&t, 3.0);
        for (l, v) in lp.as_slice().iter().zip(p.as_slice()) {
            assert_close(*l, v.ln(), 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn softmax_rejects_nonpositive_temperature() {
        let _ = softmax_t(&Tensor::zeros(vec![1, 2]), 0.0);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn sum_rows_reduces() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 10., 20., 30.]);
        assert_eq!(sum_rows(&t).as_slice(), &[11., 22., 33.]);
    }
}
