//! Convolution and pooling kernels.
//!
//! Convolution is implemented as *batched* `im2col` + GEMM: the minibatch
//! is lowered in cache-sized image blocks into a `[c·kh·kw, blk·oh·ow]`
//! column matrix held in a reusable [`ConvWorkspace`], so forward is one
//! call into [`crate::engine`] per block (instead of one allocation +
//! matmul per image) and backward is two batched GEMMs plus a `col2im`
//! scatter. The lowering moves whole row runs, never single elements, and
//! no GEMM operand is transposed after it has been lowered.

use crate::engine;
use crate::Tensor;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty or the stride is zero.
    pub fn new(kh: usize, kw: usize, stride: usize, padding: usize) -> Self {
        assert!(kh > 0 && kw > 0, "kernel must be non-empty");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec {
            kh,
            kw,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit into the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            ph,
            pw
        );
        (
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        )
    }
}

/// Number of `f32` elements the blocked column matrix may occupy
/// (~384 KB): the minibatch is lowered in image blocks sized so the
/// column matrix, the staging matrix and the outputs stay cache-resident.
/// One-GEMM-per-whole-batch sounds attractive but streams multi-megabyte
/// intermediates through DRAM; block-wise batching keeps the GEMM batched
/// across images *and* the working set in cache.
const COL_BLOCK_ELEMS: usize = 96 * 1024;

/// Reusable scratch buffers for the im2col convolution lowering.
///
/// The lowering is batched over image blocks (see `COL_BLOCK_ELEMS`) —
/// one GEMM per block instead of one per image — and the buffers are
/// reused across blocks, steps and epochs: the conv hot path performs no
/// per-image allocations. A `Conv2d` layer owns one workspace; the free
/// functions below also accept an external one.
#[derive(Debug, Default, Clone)]
pub struct ConvWorkspace {
    /// Lowered input of the current block: `[c·kh·kw, blk·oh·ow]` in the
    /// forward pass, its transpose `[blk·oh·ow, c·kh·kw]` in the backward
    /// pass — rows padded to the GEMM's register-tile width when
    /// `c·kh·kw` is narrower than one tile (one buffer for both).
    col: Vec<f32>,
    /// Filter-major staging matrix `[f, blk·oh·ow]` (forward GEMM output;
    /// backward gather of `grad_out`).
    fmat: Vec<f32>,
    /// Backward scratch: `∂L/∂col` for the current block.
    gcol: Vec<f32>,
    /// Backward scratch: per-block `∂L/∂W` before accumulation.
    gw_block: Vec<f32>,
}

impl ConvWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        ConvWorkspace::default()
    }
}

/// Images per lowering block for the given per-image column size.
fn block_images(ckk: usize, ohow: usize, n: usize) -> usize {
    (COL_BLOCK_ELEMS / (ckk * ohow).max(1)).clamp(1, n.max(1))
}

/// Returns the first `len` elements of `buf`, growing it if it is shorter.
/// Nothing is zeroed beyond what growth adds: every user below overwrites
/// its whole slice, and keeping the high-water length means a short last
/// block does not make the next call refill the buffer.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// The outputs `[lo, hi)` along one axis whose input coordinate
/// `o·stride + k − padding` falls inside `[0, len)`, for kernel offset `k`
/// and `out` outputs; everything outside reads padding. `lo == hi` when the
/// offset is clipped entirely (possible once `padding ≥` the kernel edge).
fn valid_outputs(k: usize, len: usize, out: usize, spec: &Conv2dSpec) -> (usize, usize) {
    let lo = spec.padding.saturating_sub(k).div_ceil(spec.stride);
    let hi = (len + spec.padding)
        .saturating_sub(k)
        .div_ceil(spec.stride)
        .min(out);
    (lo.min(hi), hi)
}

/// Lowers the image block `[blk, c, h, w]` into the column matrix
/// `[c·kh·kw, blk·oh·ow]` (column index `s·oh·ow + oy·ow + ox` with `s`
/// relative to the block), overwriting all of `col`.
///
/// The valid output ranges are computed once per `(c, ky, kx)`; inside
/// them every `(.., oy)` row is one contiguous run of the input at stride 1
/// (a single [`copy_run`]) and one strided gather otherwise. The clipped
/// margins — the padding contribution — are written as zeros here, so the
/// caller never pre-fills the buffer.
fn im2col_block(
    input: &[f32],
    (blk, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
    (oh, ow): (usize, usize),
    col: &mut [f32],
) {
    let cols = blk * oh * ow;
    let (stride, pad) = (spec.stride, spec.padding);
    for s in 0..blk {
        let img = &input[s * c * h * w..(s + 1) * c * h * w];
        for ch in 0..c {
            for ky in 0..spec.kh {
                let (oy0, oy1) = valid_outputs(ky, h, oh, spec);
                for kx in 0..spec.kw {
                    let (ox0, ox1) = valid_outputs(kx, w, ow, spec);
                    let krow = (ch * spec.kh + ky) * spec.kw + kx;
                    let orow = &mut col[krow * cols + s * oh * ow..krow * cols + (s + 1) * oh * ow];
                    if ox0 == ox1 {
                        orow.fill(0.0);
                        continue;
                    }
                    orow[..oy0 * ow].fill(0.0);
                    orow[oy1 * ow..].fill(0.0);
                    for (oy, dst) in orow.chunks_exact_mut(ow).enumerate().take(oy1).skip(oy0) {
                        let iy = oy * stride + ky - pad;
                        let src = &img[(ch * h + iy) * w + ox0 * stride + kx - pad..];
                        dst[..ox0].fill(0.0);
                        dst[ox1..].fill(0.0);
                        let dst = &mut dst[ox0..ox1];
                        if stride == 1 {
                            copy_run(dst, src);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lowers the image block **position-major**: the transpose of
/// [`im2col_block`]'s matrix, `[blk·oh·ow, c·kh·kw]`, at row stride
/// `ld ≥ c·kh·kw`, overwriting all of `col` (lanes `c·kh·kw..ld` of every
/// row are zeroed). Row `s·oh·ow + oy·ow + ox` is that output position's
/// receptive field, and each of its `(c, ky)` segments is a run of `kw`
/// adjacent input elements at any stride (clipped to zeros at the
/// padding), so the buffer is filled in short contiguous copies, one
/// output row's worth of rows at a time. This is the `B` operand of
/// `∂W = G · colᵀ`: lowering it directly replaces a transpose of the whole
/// column block, and lowering it at the engine's stride
/// ([`engine::b_stride`]) replaces the narrow path's pad copy.
fn im2row_block(
    input: &[f32],
    (blk, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
    (oh, ow): (usize, usize),
    ld: usize,
    col: &mut [f32],
) {
    let (kh, kw, stride, pad) = (spec.kh, spec.kw, spec.stride, spec.padding);
    let ckk = c * kh * kw;
    // Output columns [in0, in1) see a whole kernel row inside the image —
    // the unclipped, branch-free bulk; the few outside are clipped.
    let in0 = pad.div_ceil(stride).min(ow);
    let in1 = ((w + pad + stride).saturating_sub(kw) / stride).clamp(in0, ow);
    for s in 0..blk {
        let img = &input[s * c * h * w..(s + 1) * c * h * w];
        for oy in 0..oh {
            // The `ow` rows of this output row, filled one `(c, ky)`
            // segment column at a time so each source row is sliced once.
            let band = &mut col[(s * oh + oy) * ow * ld..(s * oh + oy + 1) * ow * ld];
            // Pad lanes are zeroed with the whole band in one fill, not
            // row by row: a fill call per 28-byte pad measured 10–25 % of
            // conv1's lowering.
            if ld > ckk {
                band.fill(0.0);
            }
            for ch in 0..c {
                for ky in 0..kh {
                    let off = (ch * kh + ky) * kw;
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h {
                        for row in band.chunks_exact_mut(ld) {
                            row[off..off + kw].fill(0.0);
                        }
                        continue;
                    }
                    let src = &img[(ch * h + iy - pad) * w..(ch * h + iy - pad + 1) * w];
                    for (ox, row) in band.chunks_exact_mut(ld).enumerate().take(in1).skip(in0) {
                        copy_run(&mut row[off..off + kw], &src[ox * stride - pad..]);
                    }
                    for ox in (0..in0).chain(in1..ow) {
                        // Kernel columns [kx0, kx1) land inside the image row.
                        let kx0 = pad.saturating_sub(ox * stride).min(kw);
                        let kx1 = (w + pad).saturating_sub(ox * stride).clamp(kx0, kw);
                        let seg = &mut band[ox * ld + off..ox * ld + off + kw];
                        seg[..kx0].fill(0.0);
                        seg[kx1..].fill(0.0);
                        if kx0 < kx1 {
                            copy_run(&mut seg[kx0..kx1], &src[ox * stride + kx0 - pad..]);
                        }
                    }
                }
            }
        }
    }
}

/// Copies the `dst.len()`-long run at the head of `src`. Runs here are one
/// kernel row or one output row — tens of bytes — where a `memcpy` call
/// costs more than the move itself (measured: half the position-major
/// lowering, a third of the LeNet conv2 `im2col`). The kernel widths the
/// model zoo uses move as one fixed-size array; any other length as blocks
/// of eight plus an element-wise tail.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    fn fixed<const N: usize>(dst: &mut [f32], src: &[f32]) {
        let dst: &mut [f32; N] = dst.try_into().expect("dst is N long");
        *dst = *src.first_chunk().expect("src holds the run");
    }
    match dst.len() {
        1 => fixed::<1>(dst, src),
        3 => fixed::<3>(dst, src),
        5 => fixed::<5>(dst, src),
        n => {
            let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src[..n].chunks_exact(8));
            for (d, s) in d8.by_ref().zip(s8.by_ref()) {
                fixed::<8>(d, s);
            }
            for (d, &v) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
                *d = v;
            }
        }
    }
}

/// Inverse of [`im2col_block`]: scatters the block's column matrix back
/// onto images, **accumulating** overlapping contributions (as backprop
/// requires) in ascending `(ky, kx)` order per input element. `img_out`
/// covers the same block and must be zeroed by the caller. Same row runs
/// as the lowering: one slice add per `(.., oy)` row at stride 1.
fn col2im_block(
    col: &[f32],
    (blk, c, h, w): (usize, usize, usize, usize),
    spec: &Conv2dSpec,
    (oh, ow): (usize, usize),
    img_out: &mut [f32],
) {
    let cols = blk * oh * ow;
    let (stride, pad) = (spec.stride, spec.padding);
    for s in 0..blk {
        let img = &mut img_out[s * c * h * w..(s + 1) * c * h * w];
        for ch in 0..c {
            for ky in 0..spec.kh {
                let (oy0, oy1) = valid_outputs(ky, h, oh, spec);
                for kx in 0..spec.kw {
                    let (ox0, ox1) = valid_outputs(kx, w, ow, spec);
                    if ox0 == ox1 {
                        continue;
                    }
                    let krow = (ch * spec.kh + ky) * spec.kw + kx;
                    let crow = &col[krow * cols + s * oh * ow..krow * cols + (s + 1) * oh * ow];
                    for (oy, src) in crow.chunks_exact(ow).enumerate().take(oy1).skip(oy0) {
                        let iy = oy * stride + ky - pad;
                        let dst = &mut img[(ch * h + iy) * w + ox0 * stride + kx - pad..];
                        let src = &src[ox0..ox1];
                        if stride == 1 {
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution over a reusable workspace, writing into a
/// caller-owned output tensor (resized in place) — the allocation-free
/// training-runtime entry point.
///
/// * `input`: `[n, c, h, w]`
/// * `weight`: `[f, c, kh, kw]`
/// * `bias`: `[f]`
///
/// The minibatch is lowered block-wise (one GEMM per cache-sized image
/// block, zero per-image allocations) into `out`: `[n, f, oh, ow]`.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    out: &mut Tensor,
) {
    let (n, c, h, w) = input.dims4();
    let (f, wc, kh, kw) = weight.dims4();
    assert_eq!(c, wc, "conv channel mismatch: input {c} vs weight {wc}");
    assert_eq!((kh, kw), (spec.kh, spec.kw), "weight does not match spec");
    assert_eq!(bias.len(), f, "bias length {} != filters {f}", bias.len());
    let (oh, ow) = spec.output_hw(h, w);
    let ckk = c * kh * kw;
    let ohow = oh * ow;
    let iv = input.as_slice();
    let bv = bias.as_slice();
    out.resize(&[n, f, oh, ow]);
    let ov = out.as_mut_slice();
    let step = block_images(ckk, ohow, n);
    let mut s0 = 0;
    while s0 < n {
        let blk = step.min(n - s0);
        let x = blk * ohow;
        let col = grown(&mut ws.col, ckk * x);
        let images = &iv[s0 * c * h * w..(s0 + blk) * c * h * w];
        im2col_block(images, (blk, c, h, w), spec, (oh, ow), col);
        // [f, ckk] · [ckk, blk·oh·ow] → [f, blk·oh·ow]; the row-major
        // `[f, c, kh, kw]` weight buffer *is* the `[f, ckk]` matrix.
        let fmat = grown(&mut ws.fmat, f * x);
        engine::gemm(f, ckk, x, weight.as_slice(), col, fmat);
        // Scatter filter-major `[f, blk·oh·ow]` into batch-major
        // `[blk, f, oh·ow]`, adding the bias.
        for s in 0..blk {
            for fi in 0..f {
                let srcr = &fmat[fi * x + s * ohow..fi * x + (s + 1) * ohow];
                let dst = &mut ov[((s0 + s) * f + fi) * ohow..((s0 + s) * f + fi + 1) * ohow];
                let bias_fi = bv[fi];
                for (o, &v) in dst.iter_mut().zip(srcr) {
                    *o = v + bias_fi;
                }
            }
        }
        s0 += blk;
    }
}

/// Backward 2-D convolution over a reusable workspace, writing into
/// caller-owned gradient tensors (each resized in place and overwritten) —
/// the allocation-free training-runtime entry point.
///
/// Given `grad_out = ∂L/∂output` of shape `[n, f, oh, ow]`, the original
/// `input` and the layer `weight`, computes `∂L/∂input`, `∂L/∂W` and
/// `∂L/∂b`. Runs block-wise like the forward pass, re-lowering each image
/// block (recomputing the lowering is far cheaper than keeping — and
/// streaming — a whole-batch column matrix), with `G` the filter-major
/// gather of the block's `grad_out`:
///
/// * `∂L/∂W += G · colᵀ` — the block is re-lowered **position-major**
///   (`colᵀ: [blk·oh·ow, c·kh·kw]`, into the forward pass's column
///   buffer), so this is [`engine::gemm`]'s product and the column block
///   is never transposed. A `c·kh·kw` narrower than the register tile
///   ([`engine::NR`]) is lowered straight into the zero-padded panel the
///   GEMM sweeps, so it is not copied again. The per-block partial
///   products are summed in block order, which makes the block partition
///   part of the reduction order.
/// * `∂L/∂col = Wᵀ · G`, scattered back onto the images by `col2im`.
///
/// Pass `grad_in: None` to skip the `∂L/∂input` half entirely (the
/// `Wᵀ·G` GEMM and the `col2im` scatter): the parameter gradients do not
/// depend on it, so a network's *first* layer — whose input is the data
/// batch — backpropagates strictly cheaper this way with bitwise
/// identical `∂L/∂W` / `∂L/∂b`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[allow(clippy::too_many_arguments)] // convolution geometry + outputs; crate-internal callers wrap it
pub fn conv2d_backward_into(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    mut grad_in: Option<&mut Tensor>,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
) {
    let (n, c, h, w) = input.dims4();
    let (gn, f, oh, ow) = grad_out.dims4();
    assert_eq!(gn, n, "grad batch {gn} != input batch {n}");
    let ckk = c * spec.kh * spec.kw;
    let ohow = oh * ow;
    let iv = input.as_slice();
    let gv = grad_out.as_slice();
    grad_w.resize(&[f, c, spec.kh, spec.kw]);
    grad_w.zero_mut();
    let gwv = grad_w.as_mut_slice();
    // No zeroing: the per-block GEMM overwrites gw_block completely.
    let gw_block = grown(&mut ws.gw_block, f * ckk);
    grad_b.resize(&[f]);
    grad_b.zero_mut();
    let gbv = grad_b.as_mut_slice();
    if let Some(gi) = grad_in.as_deref_mut() {
        gi.resize(&[n, c, h, w]);
        gi.zero_mut();
    }
    let step = block_images(ckk, ohow, n);
    let mut s0 = 0;
    while s0 < n {
        let blk = step.min(n - s0);
        let x = blk * ohow;
        // Gather grad_out [blk, f, oh·ow] into filter-major G [f, blk·oh·ow].
        let fmat = grown(&mut ws.fmat, f * x);
        for s in 0..blk {
            for fi in 0..f {
                let srcr = &gv[((s0 + s) * f + fi) * ohow..((s0 + s) * f + fi + 1) * ohow];
                fmat[fi * x + s * ohow..fi * x + (s + 1) * ohow].copy_from_slice(srcr);
            }
        }
        add_row_sums(gbv, fmat, x);
        // Re-lower this block position-major, at the row stride the
        // engine sweeps it at, and accumulate
        // ∂L/∂W += G · colᵀ ([f, x] · [x, ckk] → [f, ckk]).
        let ld = engine::b_stride(f, x, ckk);
        let col_t = grown(&mut ws.col, x * ld);
        let images = s0 * c * h * w..(s0 + blk) * c * h * w;
        let block = &iv[images.clone()];
        im2row_block(block, (blk, c, h, w), spec, (oh, ow), ld, col_t);
        engine::gemm_strided(f, x, ckk, fmat, col_t, ld, gw_block);
        for (acc, &v) in gwv.iter_mut().zip(gw_block.iter()) {
            *acc += v;
        }
        // ∂L/∂col = Wᵀ · G ([ckk, f] · [f, x] → [ckk, x]), then scatter.
        if let Some(gi) = grad_in.as_deref_mut() {
            let gcol = grown(&mut ws.gcol, ckk * x);
            engine::gemm_at_b(f, ckk, x, weight.as_slice(), fmat, gcol);
            let grad_images = &mut gi.as_mut_slice()[images];
            col2im_block(gcol, (blk, c, h, w), spec, (oh, ow), grad_images);
        }
        s0 += blk;
    }
}

/// `∂L/∂b += ` the row sums of `G: [f, x]`: `sums[r]` gains row `r`'s sum
/// exactly as `Iterator::sum` forms it — one serial chain in ascending
/// order from −0.0 — but up to eight rows run side by side, so each
/// chain's add latency overlaps the others' instead of adding up. Summed
/// one row after another, conv1's six rows were a fifth of its `∂W`-only
/// block; side by side they cost a third as much.
fn add_row_sums(sums: &mut [f32], g: &[f32], x: usize) {
    const ROWS: usize = 8;
    for (sums, g) in sums.chunks_mut(ROWS).zip(g.chunks(ROWS * x)) {
        // Slots past the group's last row re-read its first, and their
        // sums are dropped. Every row is resliced to exactly `x` so the
        // column loop needs no bounds checks.
        let rows: [&[f32]; ROWS] =
            std::array::from_fn(|r| &g.get(r * x..(r + 1) * x).unwrap_or(g)[..x]);
        let mut acc = [-0.0f32; ROWS];
        for j in 0..x {
            for (a, row) in acc.iter_mut().zip(rows) {
                *a += row[j];
            }
        }
        for (s, a) in sums.iter_mut().zip(acc) {
            *s += a;
        }
    }
}

/// Forward max-pooling over `[n, c, h, w]` into caller-owned buffers
/// (resized in place): the pooled tensor and the flat argmax index (into
/// the input buffer) of every output element, which
/// [`maxpool2d_backward_into`] uses to route gradients.
///
/// # Panics
///
/// Panics if the window does not fit.
pub fn maxpool2d_forward_into(
    input: &Tensor,
    spec: &Conv2dSpec,
    out: &mut Tensor,
    idx: &mut Vec<usize>,
) {
    // No zeroing: the pooling loop writes every index slot.
    idx.resize(maxpool_shape(input, spec).iter().product(), 0);
    maxpool_core::<true>(input, spec, out, idx);
}

/// [`maxpool2d_forward_into`] without the argmax routing — the
/// inference form: the same pooled values, and no index buffer (8 bytes
/// per output) to write or keep.
///
/// # Panics
///
/// Panics if the window does not fit.
pub fn maxpool2d_forward_eval_into(input: &Tensor, spec: &Conv2dSpec, out: &mut Tensor) {
    maxpool_core::<false>(input, spec, out, &mut []);
}

/// The pooled `[n, c, oh, ow]` shape of `input`.
fn maxpool_shape(input: &Tensor, spec: &Conv2dSpec) -> [usize; 4] {
    let (n, c, h, w) = input.dims4();
    assert_eq!(spec.padding, 0, "maxpool does not support padding");
    let (oh, ow) = spec.output_hw(h, w);
    [n, c, oh, ow]
}

/// The pooling loop shared by both forward forms: writes every output
/// and, with `ARGMAX`, each output's winning flat input index into `idx`.
///
/// Each output row is pooled from the band of `kh` input rows under it,
/// sliced once, by [`pool_row_2x2`] for the 2×2 / stride-2 window every
/// model in the zoo uses and by [`pool_row`] for any other.
fn maxpool_core<const ARGMAX: bool>(
    input: &Tensor,
    spec: &Conv2dSpec,
    out: &mut Tensor,
    idx: &mut [usize],
) {
    let [n, c, oh, ow] = maxpool_shape(input, spec);
    let (_, _, h, w) = input.dims4();
    out.resize(&[n, c, oh, ow]);
    let out = out.as_mut_slice();
    let two_by_two = (spec.kh, spec.kw, spec.stride) == (2, 2, 2);
    for (plane, src) in input.as_slice().chunks_exact(h * w).enumerate() {
        for oy in 0..oh {
            let top = oy * spec.stride * w;
            let band = &src[top..top + spec.kh * w];
            let at0 = plane * h * w + top;
            let row = (plane * oh + oy) * ow..(plane * oh + oy + 1) * ow;
            let idx = if ARGMAX {
                &mut idx[row.clone()]
            } else {
                &mut []
            };
            if two_by_two {
                pool_row_2x2::<ARGMAX>(band, w, at0, &mut out[row], idx);
            } else {
                pool_row::<ARGMAX>(band, w, spec, at0, &mut out[row], idx);
            }
        }
    }
}

/// Pools one output row from its `band` of input rows (`band[0]` is flat
/// input index `at0`). Each window reads one `kw`-long run per band row,
/// its elements compared in `(ky, kx)` order: the first strictly greater
/// one wins. The running maximum starts at −∞ and the argmax at the
/// window's first element, so a window with nothing above −∞ (all −∞ or
/// NaN) pools to −∞ and routes its gradient to its own first element.
fn pool_row<const ARGMAX: bool>(
    band: &[f32],
    w: usize,
    spec: &Conv2dSpec,
    at0: usize,
    out: &mut [f32],
    idx: &mut [usize],
) {
    for (ox, o) in out.iter_mut().enumerate() {
        let x0 = ox * spec.stride;
        let (mut best, mut arg) = (f32::NEG_INFINITY, x0);
        for r in (x0..).step_by(w).take(spec.kh) {
            for (i, &v) in (r..).zip(&band[r..r + spec.kw]) {
                if v > best {
                    best = v;
                    arg = i;
                }
            }
        }
        *o = best;
        if ARGMAX {
            idx[ox] = at0 + arg;
        }
    }
}

/// [`pool_row`] for 2×2 windows at stride 2: the two band rows are walked
/// in pairs side by side and each window is four straight-line compares
/// in the same order, with the same seeds — five to six times faster than
/// the general loop's nested runs at this size.
fn pool_row_2x2<const ARGMAX: bool>(
    band: &[f32],
    w: usize,
    at0: usize,
    out: &mut [f32],
    idx: &mut [usize],
) {
    let (top, bottom) = band.split_at(w);
    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
    for (ox, (o, (t, b))) in out.iter_mut().zip(windows).enumerate() {
        let at = at0 + 2 * ox;
        let (mut best, mut arg) = (f32::NEG_INFINITY, at);
        for (v, i) in [
            (t[0], at),
            (t[1], at + 1),
            (b[0], at + w),
            (b[1], at + w + 1),
        ] {
            if v > best {
                best = v;
                arg = i;
            }
        }
        *o = best;
        if ARGMAX {
            idx[ox] = arg;
        }
    }
}

/// Backward max-pooling: routes each output gradient to the input element
/// that won the forward max, into a caller-owned tensor (resized in place
/// and overwritten).
pub fn maxpool2d_backward_into(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: (usize, usize, usize, usize),
    grad_in: &mut Tensor,
) {
    let (n, c, h, w) = input_shape;
    grad_in.resize(&[n, c, h, w]);
    grad_in.zero_mut();
    let gi = grad_in.as_mut_slice();
    for (g, &i) in grad_out.as_slice().iter().zip(argmax.iter()) {
        gi[i] += g;
    }
}

/// Global average pooling, `[n, c, h, w] → [n, c]`, into a caller-owned
/// tensor (resized in place and overwritten).
pub fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) {
    let (n, c, h, w) = input.dims4();
    let iv = input.as_slice();
    out.resize(&[n, c]);
    let out = out.as_mut_slice();
    let hw = (h * w) as f32;
    for s in 0..n {
        for ch in 0..c {
            let base = (s * c + ch) * h * w;
            out[s * c + ch] = iv[base..base + h * w].iter().sum::<f32>() / hw;
        }
    }
}

/// Backward of [`global_avg_pool_into`]: spreads each channel gradient
/// uniformly over the spatial positions, into a caller-owned tensor
/// (resized in place and overwritten).
pub fn global_avg_pool_backward_into(
    grad_out: &Tensor,
    input_shape: (usize, usize, usize, usize),
    grad_in: &mut Tensor,
) {
    let (n, c, h, w) = input_shape;
    let gv = grad_out.as_slice();
    let hw = (h * w) as f32;
    grad_in.resize(&[n, c, h, w]);
    let gi = grad_in.as_mut_slice();
    for s in 0..n {
        for ch in 0..c {
            let g = gv[s * c + ch] / hw;
            let base = (s * c + ch) * h * w;
            for v in &mut gi[base..base + h * w] {
                *v = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forward(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let mut out = Tensor::zeros(vec![0]);
        conv2d_forward_into(
            input,
            weight,
            bias,
            spec,
            &mut ConvWorkspace::new(),
            &mut out,
        );
        out
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::new(3, 3, 1, 0);
        assert_eq!(spec.output_hw(5, 5), (3, 3));
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        assert_eq!(spec.output_hw(5, 5), (5, 5));
        let spec = Conv2dSpec::new(2, 2, 2, 0);
        assert_eq!(spec.output_hw(4, 4), (2, 2));
    }

    #[test]
    fn conv_identity_kernel() {
        // A 1x1 kernel with weight 1 reproduces the input.
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let weight = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]);
        let bias = Tensor::zeros(vec![1]);
        let spec = Conv2dSpec::new(1, 1, 1, 0);
        let out = forward(&input, &weight, &bias, &spec);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_hand_computed() {
        // 3x3 input, 2x2 kernel of ones => sliding window sums.
        let input = Tensor::from_vec(vec![1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.; 4]);
        let bias = Tensor::from_vec(vec![1], vec![0.5]);
        let spec = Conv2dSpec::new(2, 2, 1, 0);
        let out = forward(&input, &weight, &bias, &spec);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn conv_padding_zeroes_border() {
        let input = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.0]);
        let weight = Tensor::from_vec(vec![1, 1, 3, 3], vec![1.; 9]);
        let bias = Tensor::zeros(vec![1]);
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        let out = forward(&input, &weight, &bias, &spec);
        // Every output position sees the single input pixel exactly once.
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice(), &[2.0]);
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let (n, c, h, w, f) = (2, 2, 4, 4, 3);
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        let input = Tensor::from_vec(
            vec![n, c, h, w],
            (0..n * c * h * w)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let weight = Tensor::from_vec(
            vec![f, c, 3, 3],
            (0..f * c * 9).map(|_| rng.gen_range(-0.5..0.5)).collect(),
        );
        let bias = Tensor::from_vec(vec![f], (0..f).map(|_| rng.gen_range(-0.1..0.1)).collect());

        // Scalar loss = sum of outputs, so dL/dout = ones.
        let out = forward(&input, &weight, &bias, &spec);
        let gout = Tensor::filled(out.shape().to_vec(), 1.0);
        let (mut gin, mut gw, mut gb) = (
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
        );
        let ws = &mut ConvWorkspace::new();
        conv2d_backward_into(
            &gout,
            &input,
            &weight,
            &spec,
            ws,
            Some(&mut gin),
            &mut gw,
            &mut gb,
        );

        let eps = 1e-2;
        // Check a few weight coordinates by central differences.
        for &wi in &[0usize, 5, 17, f * c * 9 - 1] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[wi] += eps;
            let op = forward(&input, &wp, &bias, &spec);
            let mut wm = weight.clone();
            wm.as_mut_slice()[wi] -= eps;
            let om = forward(&input, &wm, &bias, &spec);
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = gw.as_slice()[wi];
            assert!((fd - an).abs() < 2e-2, "weight[{wi}]: fd {fd} vs an {an}");
        }
        // Check input coordinates.
        for &ii in &[0usize, 13, n * c * h * w - 1] {
            let mut ip = input.clone();
            ip.as_mut_slice()[ii] += eps;
            let op = forward(&ip, &weight, &bias, &spec);
            let mut im = input.clone();
            im.as_mut_slice()[ii] -= eps;
            let om = forward(&im, &weight, &bias, &spec);
            let fd = (op.sum() - om.sum()) / (2.0 * eps);
            let an = gin.as_slice()[ii];
            assert!((fd - an).abs() < 2e-2, "input[{ii}]: fd {fd} vs an {an}");
        }
        // Bias gradient: each filter touches n*oh*ow outputs once.
        let (_, _, oh, ow) = out.dims4();
        for b in gb.as_slice() {
            assert!((b - (n * oh * ow) as f32).abs() < 1e-3);
        }
    }

    /// The element-wise lowering this module shipped before the row-run
    /// rewrite, kept verbatim as the independent oracle.
    #[allow(clippy::too_many_arguments)]
    fn im2col_oracle(
        input: &[f32],
        blk: usize,
        c: usize,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
        oh: usize,
        ow: usize,
        col: &mut Vec<f32>,
    ) {
        let krows = c * spec.kh * spec.kw;
        let cols = blk * oh * ow;
        col.clear();
        col.resize(krows * cols, 0.0);
        let pad = spec.padding as isize;
        for s in 0..blk {
            let img = &input[s * c * h * w..(s + 1) * c * h * w];
            for ch in 0..c {
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        let krow = (ch * spec.kh + ky) * spec.kw + kx;
                        let orow =
                            &mut col[krow * cols + s * oh * ow..krow * cols + (s + 1) * oh * ow];
                        for oy in 0..oh {
                            let iy = (oy * spec.stride) as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = (ox * spec.stride) as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                orow[oy * ow + ox] = img[(ch * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Element-wise inverse of [`im2col_oracle`], verbatim likewise.
    #[allow(clippy::too_many_arguments)]
    fn col2im_oracle(
        col: &[f32],
        blk: usize,
        c: usize,
        h: usize,
        w: usize,
        spec: &Conv2dSpec,
        oh: usize,
        ow: usize,
        img_out: &mut [f32],
    ) {
        let cols = blk * oh * ow;
        let pad = spec.padding as isize;
        for s in 0..blk {
            let img = &mut img_out[s * c * h * w..(s + 1) * c * h * w];
            for ch in 0..c {
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        let krow = (ch * spec.kh + ky) * spec.kw + kx;
                        let crow = &col[krow * cols + s * oh * ow..krow * cols + (s + 1) * oh * ow];
                        for oy in 0..oh {
                            let iy = (oy * spec.stride) as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for ox in 0..ow {
                                let ix = (ox * spec.stride) as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                img[(ch * h + iy as usize) * w + ix as usize] += crow[oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Forward and backward of one convolution the way this module computed
    /// them before the rewrite: element-wise lowering, then the `ops`
    /// matmuls (`∂W` through `A·Bᵀ` on the filter-major column block), with
    /// the same image blocks and per-block accumulation. Returns
    /// `(out, grad_in, grad_w, grad_b)`.
    fn conv_oracle(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        grad_out: &Tensor,
        spec: &Conv2dSpec,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        use crate::ops;
        let (n, c, h, w) = input.dims4();
        let f = weight.dims4().0;
        let (oh, ow) = spec.output_hw(h, w);
        let (ckk, ohow) = (c * spec.kh * spec.kw, oh * ow);
        let wmat = weight.clone().reshape(vec![f, ckk]);
        let (iv, gv) = (input.as_slice(), grad_out.as_slice());
        let mut out = vec![0.0f32; n * f * ohow];
        let mut grad_in = vec![0.0f32; n * c * h * w];
        let mut grad_w = vec![0.0f32; f * ckk];
        let mut grad_b = vec![0.0f32; f];
        let mut col = Vec::new();
        let step = block_images(ckk, ohow, n);
        let mut s0 = 0;
        while s0 < n {
            let blk = step.min(n - s0);
            let x = blk * ohow;
            let block = s0 * c * h * w..(s0 + blk) * c * h * w;
            im2col_oracle(&iv[block.clone()], blk, c, h, w, spec, oh, ow, &mut col);
            let colm = Tensor::from_vec(vec![ckk, x], col.clone());
            let fmat = ops::matmul(&wmat, &colm);
            let mut g = vec![0.0f32; f * x];
            for s in 0..blk {
                for fi in 0..f {
                    let at = ((s0 + s) * f + fi) * ohow;
                    let frow = &fmat.as_slice()[fi * x + s * ohow..fi * x + (s + 1) * ohow];
                    for (o, &v) in out[at..at + ohow].iter_mut().zip(frow) {
                        *o = v + bias.as_slice()[fi];
                    }
                    g[fi * x + s * ohow..fi * x + (s + 1) * ohow]
                        .copy_from_slice(&gv[at..at + ohow]);
                }
            }
            for (gb, grow) in grad_b.iter_mut().zip(g.chunks_exact(x)) {
                *gb += grow.iter().sum::<f32>();
            }
            let g = Tensor::from_vec(vec![f, x], g);
            for (acc, &v) in grad_w
                .iter_mut()
                .zip(ops::matmul_a_bt(&g, &colm).as_slice())
            {
                *acc += v;
            }
            let gcol = ops::matmul_at_b(&wmat, &g);
            col2im_oracle(
                gcol.as_slice(),
                blk,
                c,
                h,
                w,
                spec,
                oh,
                ow,
                &mut grad_in[block],
            );
            s0 += blk;
        }
        (out, grad_in, grad_w, grad_b)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the production entry points (one workspace across forward and
    /// both backward forms, as a layer does) against [`conv_oracle`] and
    /// demands equal bit patterns.
    fn assert_bitwise_equal_to_oracle(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
        seed: u64,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut random = |shape: Vec<usize>| {
            let len = shape.iter().product();
            Tensor::from_vec(
                shape,
                (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            )
        };
        let (oh, ow) = spec.output_hw(h, w);
        let input = random(vec![n, c, h, w]);
        let weight = random(vec![f, c, spec.kh, spec.kw]);
        let bias = random(vec![f]);
        let grad_out = random(vec![n, f, oh, ow]);
        let (out, grad_in, grad_w, grad_b) = conv_oracle(&input, &weight, &bias, &grad_out, spec);

        let what = format!("n={n} c={c} h={h} w={w} f={f} {spec:?}");
        let mut ws = ConvWorkspace::new();
        let mut got = Tensor::zeros(vec![0]);
        conv2d_forward_into(&input, &weight, &bias, spec, &mut ws, &mut got);
        assert_eq!(bits(got.as_slice()), bits(&out), "forward: {what}");
        let (mut gi, mut gw, mut gb) = (
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
        );
        conv2d_backward_into(
            &grad_out, &input, &weight, spec, &mut ws, None, &mut gw, &mut gb,
        );
        assert_eq!(bits(gw.as_slice()), bits(&grad_w), "∂W (no ∂input): {what}");
        assert_eq!(bits(gb.as_slice()), bits(&grad_b), "∂b (no ∂input): {what}");
        conv2d_backward_into(
            &grad_out,
            &input,
            &weight,
            spec,
            &mut ws,
            Some(&mut gi),
            &mut gw,
            &mut gb,
        );
        assert_eq!(bits(gi.as_slice()), bits(&grad_in), "∂input: {what}");
        assert_eq!(bits(gw.as_slice()), bits(&grad_w), "∂W: {what}");
        assert_eq!(bits(gb.as_slice()), bits(&grad_b), "∂b: {what}");
        // The forward layout again, after the buffer held the transpose.
        conv2d_forward_into(&input, &weight, &bias, spec, &mut ws, &mut got);
        assert_eq!(
            bits(got.as_slice()),
            bits(&out),
            "forward after backward: {what}"
        );
    }

    #[test]
    fn conv_is_bitwise_equal_to_elementwise_lowering_on_generated_geometry() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..48 {
            let (kh, kw) = loop {
                let k = (rng.gen_range(1..=5usize), rng.gen_range(1..=5usize));
                if k.0 != k.1 {
                    break k;
                }
            };
            let spec = Conv2dSpec::new(kh, kw, rng.gen_range(1..=3), rng.gen_range(0..=2));
            let (c, f) = (rng.gen_range(1..=3usize), rng.gen_range(1..=7usize));
            let (mut h, mut w) = (rng.gen_range(5..=14usize), rng.gen_range(5..=14usize));
            if h == w {
                w += 1;
            }
            // Grow the image until a lowering block holds few enough images
            // that the batch can span several of them cheaply.
            let step = loop {
                let (oh, ow) = spec.output_hw(h, w);
                let step = block_images(c * kh * kw, oh * ow, usize::MAX);
                if step <= 24 {
                    break step;
                }
                h += 7;
                w += 5;
            };
            // Two or three blocks, the last one short.
            let n = step * rng.gen_range(1..=2usize) + rng.gen_range(1..=step.max(2) - 1);
            assert_bitwise_equal_to_oracle((n, c, h, w, f), &spec, 1000 + case);
        }
    }

    #[test]
    fn conv_is_bitwise_equal_to_elementwise_lowering_at_clipped_edges() {
        // Padding at or beyond the kernel edge, images narrower than the
        // stride: whole kernel rows / columns read nothing but padding.
        for (case, &(h, w, kh, kw, stride, padding)) in [
            (1, 2, 1, 2, 3, 2),
            (2, 1, 2, 1, 3, 2),
            (1, 1, 3, 2, 1, 2),
            (3, 2, 1, 1, 2, 2),
            (2, 5, 5, 4, 3, 2),
            (4, 3, 2, 5, 1, 1),
            (6, 7, 1, 1, 2, 0),
        ]
        .iter()
        .enumerate()
        {
            let spec = Conv2dSpec::new(kh, kw, stride, padding);
            assert_bitwise_equal_to_oracle((3, 2, h, w, 3), &spec, 2000 + case as u64);
        }
    }

    #[test]
    fn conv_is_bitwise_equal_to_elementwise_lowering_at_lenet_shapes() {
        let spec = Conv2dSpec::new(5, 5, 1, 0);
        assert_bitwise_equal_to_oracle((25, 1, 28, 28, 6), &spec, 1);
        assert_bitwise_equal_to_oracle((25, 6, 12, 12, 16), &spec, 2);
    }

    #[test]
    fn conv_is_bitwise_equal_to_elementwise_lowering_across_bias_row_groups() {
        // ∂b sums eight filter rows side by side: one full group plus a
        // partial one, and a partial one alone, over multi-block batches.
        let spec = Conv2dSpec::new(3, 3, 1, 1);
        assert_bitwise_equal_to_oracle((20, 2, 24, 24, 11), &spec, 3);
        assert_bitwise_equal_to_oracle((12, 1, 40, 30, 20), &spec, 4);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let input = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 3., 4., //
                5., 6., 7., 8., //
                9., 10., 11., 12., //
                13., 14., 15., 16.,
            ],
        );
        let spec = Conv2dSpec::new(2, 2, 2, 0);
        let (mut out, mut idx) = (Tensor::zeros(vec![0]), Vec::new());
        maxpool2d_forward_into(&input, &spec, &mut out, &mut idx);
        assert_eq!(out.as_slice(), &[6., 8., 14., 16.]);
        let gout = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let mut gin = Tensor::zeros(vec![0]);
        maxpool2d_backward_into(&gout, &idx, (1, 1, 4, 4), &mut gin);
        assert_eq!(gin.at(5), 1.0);
        assert_eq!(gin.at(7), 2.0);
        assert_eq!(gin.at(13), 3.0);
        assert_eq!(gin.at(15), 4.0);
        assert_eq!(gin.sum(), 10.0);

        let mut eval_out = Tensor::zeros(vec![0]);
        maxpool2d_forward_eval_into(&input, &spec, &mut eval_out);
        assert_eq!(eval_out, out);
    }

    /// The element-indexed pooling loop this module shipped before the
    /// band rewrite, kept as the oracle, with one change: the argmax is
    /// seeded at the window's first element (it was the plane origin, so a
    /// window with nothing above −∞ routed outside itself). Returns
    /// `(pooled, argmax)`.
    fn maxpool_oracle(input: &Tensor, spec: &Conv2dSpec) -> (Vec<f32>, Vec<usize>) {
        let (n, c, h, w) = input.dims4();
        let (oh, ow) = spec.output_hw(h, w);
        let iv = input.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut idx = vec![0usize; n * c * oh * ow];
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = base + oy * spec.stride * w + ox * spec.stride;
                        for ky in 0..spec.kh {
                            for kx in 0..spec.kw {
                                let iy = oy * spec.stride + ky;
                                let ix = ox * spec.stride + kx;
                                let i = base + iy * w + ix;
                                if iv[i] > best {
                                    best = iv[i];
                                    best_i = i;
                                }
                            }
                        }
                        let o = ((s * c + ch) * oh + oy) * ow + ox;
                        out[o] = best;
                        idx[o] = best_i;
                    }
                }
            }
        }
        (out, idx)
    }

    /// Both forward forms against [`maxpool_oracle`], bit for bit and
    /// index for index.
    fn assert_pool_matches_oracle(input: &Tensor, spec: &Conv2dSpec) {
        let what = format!("{:?} {spec:?}", input.shape());
        let (want, want_idx) = maxpool_oracle(input, spec);
        let (mut out, mut idx) = (Tensor::zeros(vec![0]), vec![usize::MAX; 3]);
        maxpool2d_forward_into(input, spec, &mut out, &mut idx);
        assert_eq!(bits(out.as_slice()), bits(&want), "values: {what}");
        assert_eq!(idx, want_idx, "argmax: {what}");
        maxpool2d_forward_eval_into(input, spec, &mut out);
        assert_eq!(bits(out.as_slice()), bits(&want), "eval values: {what}");
    }

    #[test]
    fn maxpool_is_bitwise_equal_to_the_element_indexed_loop() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        // Five levels make ties common; NaN and −∞ make whole windows
        // with nothing above −∞ at the sparser end.
        let mut value = |special: f64| {
            if rng.gen_bool(special) {
                if rng.gen_bool(0.5) {
                    f32::NAN
                } else {
                    f32::NEG_INFINITY
                }
            } else {
                rng.gen_range(-2i32..=2) as f32 * 0.5
            }
        };
        let geometries = [
            (2, 2, 2),
            (3, 3, 1),
            (3, 2, 2),
            (2, 3, 3),
            (1, 1, 1),
            (3, 3, 3),
        ];
        for (case, &(kh, kw, stride)) in geometries.iter().enumerate() {
            let spec = Conv2dSpec::new(kh, kw, stride, 0);
            for &(n, c, h, w) in &[(1, 1, 4, 4), (1, 3, 7, 5), (25, 6, 24, 24), (25, 2, 9, 11)] {
                for special in [0.0, 0.3, 0.9] {
                    let len = n * c * h * w;
                    let data = (0..len).map(|_| value(special)).collect();
                    assert_pool_matches_oracle(&Tensor::from_vec(vec![n, c, h, w], data), &spec);
                }
            }
            // A ramp: every window's maximum sits at its last element.
            let ramp = (0..2 * 13 * 13).map(|i| (i + case) as f32).collect();
            assert_pool_matches_oracle(&Tensor::from_vec(vec![1, 2, 13, 13], ramp), &spec);
        }
    }

    #[test]
    fn maxpool_routes_a_window_without_a_maximum_to_its_own_first_element() {
        let spec = Conv2dSpec::new(2, 2, 2, 0);
        let mut data = vec![1.0f32; 2 * 4 * 6];
        // Window (oy 1, ox 2) of plane 1 is all NaN; window (0, 1) of
        // plane 0 is all −∞.
        for (plane, oy, ox, v) in [(1, 1, 2, f32::NAN), (0, 0, 1, f32::NEG_INFINITY)] {
            for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                data[plane * 24 + (2 * oy + dy) * 6 + 2 * ox + dx] = v;
            }
        }
        let input = Tensor::from_vec(vec![1, 2, 4, 6], data);
        let (mut out, mut idx) = (Tensor::zeros(vec![0]), Vec::new());
        maxpool2d_forward_into(&input, &spec, &mut out, &mut idx);
        let window = |plane: usize, oy: usize, ox: usize| (plane * 2 + oy) * 3 + ox;
        let (nan_window, inf_window) = (window(1, 1, 2), window(0, 0, 1));
        assert_eq!(out.as_slice()[nan_window], f32::NEG_INFINITY);
        assert_eq!(out.as_slice()[inf_window], f32::NEG_INFINITY);
        // The window's own top-left element, not the plane's.
        assert_eq!(idx[nan_window], 24 + 2 * 6 + 4);
        assert_eq!(idx[inf_window], 2);

        let mut grad_out = Tensor::zeros(vec![1, 2, 2, 3]);
        grad_out.as_mut_slice()[nan_window] = 3.0;
        grad_out.as_mut_slice()[inf_window] = 5.0;
        let mut grad_in = Tensor::zeros(vec![0]);
        maxpool2d_backward_into(&grad_out, &idx, (1, 2, 4, 6), &mut grad_in);
        assert_eq!(grad_in.at(24 + 2 * 6 + 4), 3.0);
        assert_eq!(grad_in.at(2), 5.0);
        assert_eq!(grad_in.sum(), 8.0);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let input = Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let mut out = Tensor::zeros(vec![0]);
        global_avg_pool_into(&input, &mut out);
        assert_eq!(out.as_slice(), &[2.5, 25.0]);
        let gout = Tensor::from_vec(vec![1, 2], vec![4.0, 8.0]);
        let mut gin = Tensor::zeros(vec![0]);
        global_avg_pool_backward_into(&gout, (1, 2, 2, 2), &mut gin);
        assert_eq!(gin.as_slice(), &[1., 1., 1., 1., 2., 2., 2., 2.]);
    }
}
