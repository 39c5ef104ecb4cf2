//! Convolution and pooling kernels.
//!
//! The forward pass runs **in place** wherever that reproduces the
//! lowering's bits (see `in_place`): each image is one GEMM over the image
//! itself, viewed as an `oh × (w + 2·pad)` grid whose `(c, ky, kx)` rows
//! start at fixed offsets, storing only the valid output positions plus
//! the bias straight into the output — no `im2col`, no staging matrix, no
//! scatter. Everywhere else (stride > 1, outputs that are not whole
//! register strips, blocks on the small path) it is *batched* `im2col` +
//! GEMM: the minibatch is lowered in cache-sized image blocks into a
//! `[c·kh·kw, blk·oh·ow]` column matrix held in a reusable
//! [`ConvWorkspace`], one call into [`crate::engine`] per block.
//!
//! The backward pass runs over the same image blocks at every geometry.
//! `∂W` never lowers its input: one sweep per block reads each
//! `(c, ky, kx)` row of the column matrix out of the images where they
//! lie, against the block's `grad_out` gathered position-major, rounding
//! every step as the lowered GEMM did. `∂input` computes the block's
//! column gradient `Wᵀ·G` a cache-sized slab of rows at a time, each slab
//! added onto the images through a run table cached per geometry, so the
//! block's whole column gradient never exists.
//!
//! A Conv → ReLU → max-pool block runs as one pair of passes
//! ([`conv2d_relu_pool_forward_into`], [`conv2d_relu_pool_backward_into`]):
//! ReLU and the pool read each image's convolution from one image's
//! scratch as it completes, and the backward writes the pooled gradient
//! straight into the buffers the convolution's backward reads, so the
//! block's full-size convolution output and its gradient never exist.

use crate::ops::relu;
use crate::{engine, Tensor};
use std::ops::Range;

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

/// Number of `f32` elements a `∂input` slab aims at (32 KiB, inside L1):
/// the rows of a block's column gradient computed and scattered at once.
const SLAB_ELEMS: usize = 8 * 1024;

/// Reusable scratch buffers for the convolution kernels.
///
/// The lowering is batched over image blocks (see `COL_BLOCK_ELEMS`) —
/// one GEMM per block instead of one per image — and the buffers are
/// reused across blocks, steps and epochs: the conv hot path performs no
/// per-image allocations. A forward that runs in place and every backward
/// use only the small per-geometry tables, the staged images, the
/// `grad_out` gathers and `∂input`'s slab, so no network grows the column
/// matrix at such shapes. A `Conv2d` layer owns one workspace; the free
/// functions below also accept an external one.
#[derive(Debug, Default, Clone)]
pub struct ConvWorkspace {
    /// Lowered input of the current block, `[c·kh·kw, blk·oh·ow]`: only a
    /// lowered forward pass grows it.
    col: Vec<f32>,
    /// Filter-major staging matrix `[f, blk·oh·ow]`: the lowered forward
    /// GEMM's output, and the backward's gather of `grad_out` for
    /// `∂input`. Only a backward that computes `∂input` grows it where the
    /// forward runs in place.
    fmat: Vec<f32>,
    /// Backward scratch: one slab of rows of `∂L/∂col` for the current
    /// block, `[rows, blk·oh·ow]` (see [`slab_rows`]).
    slab: Vec<f32>,
    /// Backward scratch: one lane group of the block's `grad_out`,
    /// position-major, `[blk·oh·ow, lanes]` with the pad lanes zero.
    gt: Vec<f32>,
    /// Backward scratch: one lane group's `∂Wᵀ` for the current block,
    /// `[c·kh·kw, lanes]`, before accumulation.
    wt: Vec<f32>,
    /// In-place forward: where each `(c, ky, kx)` row of the image grid
    /// starts, and which lanes of each strip are output positions (built
    /// with `taps`, read only where `in_place` holds).
    grid: engine::OffsetLayout,
    /// Backward: where each `(c, ky, kx)` tap and each output row start
    /// in a (padded) image.
    taps: engine::TapLayout,
    /// Backward: where each row of `∂L/∂col` adds onto an image. Built by
    /// the first backward that computes `∂input` at this geometry, so a
    /// forward-only or first layer never holds it.
    scatter: ScatterRuns,
    /// The `(c, h, w, spec)` that `grid`, `taps`, `scatter` and `img` are
    /// built for.
    geometry: Option<(usize, usize, usize, Conv2dSpec)>,
    /// Staged images, `[c, h + 2·pad, w + 2·pad]` each, zero outside the
    /// image: one (plus the `kw − 1` elements its sweep over-reads) for
    /// the in-place forward, a block of them for a padded backward.
    img: Vec<f32>,
    /// One image's convolution, `[f, oh·ow]`, before a fused ReLU and
    /// max-pool read it: only [`conv2d_relu_pool_forward_into`] grows it.
    conv: Vec<f32>,
}

impl ConvWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        ConvWorkspace::default()
    }

    /// Builds the tables and the staged-image buffer for `(c, h, w,
    /// spec)`, unless they already are: once per geometry, so the passes
    /// allocate nothing after warm-up. Row `(c, ky, kx)` of the lowering
    /// starts at `(c·hp + ky)·wp + kx` in the padded image `[c, hp, wp]`,
    /// and output row `oy` at `oy·stride·wp`.
    fn fit(&mut self, (c, h, w): (usize, usize, usize), spec: &Conv2dSpec) {
        let key = (c, h, w, *spec);
        if self.geometry == Some(key) {
            return;
        }
        let (oh, ow) = spec.output_hw(h, w);
        let (kh, kw, pad) = (spec.kh, spec.kw, spec.padding);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let taps = (0..c * kh * kw).map(|p| {
            let (ch, ky, kx) = (p / (kh * kw), p / kw % kh, p % kw);
            (ch * hp + ky) * wp + kx
        });
        let dst = |q: usize| (q % wp < ow).then(|| q / wp * ow + q % wp);
        self.grid.rebuild(taps.clone(), oh * wp / engine::NR, dst);
        let rows = (0..oh).map(|oy| oy * spec.stride * wp);
        self.taps
            .rebuild(taps, rows, (ow, spec.stride, c * hp * wp));
        self.img.clear();
        self.img.resize(c * hp * wp + kw - 1, 0.0);
        self.scatter.clear();
        self.geometry = Some(key);
    }
}

/// Images per lowering block for the given per-image column size.
fn block_images(ckk: usize, ohow: usize, n: usize) -> usize {
    (COL_BLOCK_ELEMS / (ckk * ohow).max(1)).clamp(1, n.max(1))
}

/// Rows of a block's `[ckk, x]` column gradient per `∂input` slab: as many
/// whole [`engine::MR`]-row tiles as fit [`SLAB_ELEMS`], at least one (a
/// thinner slab would re-stream `G` once per short tile), at most `ckk`.
fn slab_rows(ckk: usize, x: usize) -> usize {
    let tiles = SLAB_ELEMS / x.max(1) / engine::MR;
    (tiles.max(1) * engine::MR).min(ckk)
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

/// Copies the `dst.len()`-long run at the head of `src`. Runs here are one
/// output row — tens of bytes — where a `memcpy` call costs more than the
/// move itself (measured: a third of the LeNet conv2 `im2col`). Widths 1,
/// 3 and 5 move as one fixed-size array; any other length as blocks of
/// eight plus an element-wise tail.
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
/// as the lowering: one add per `(.., oy)` row, into a destination sliced
/// to exactly the run's elements. The backward's two-level `∂input`
/// before the slab loop ([`ScatterRuns`]), kept as its test oracle.
#[cfg(test)]
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
                    let len = (ox1 - ox0 - 1) * stride + 1;
                    for (oy, src) in crow.chunks_exact(ow).enumerate().take(oy1).skip(oy0) {
                        let iy = oy * stride + ky - pad;
                        let at = (ch * h + iy) * w + ox0 * stride + kx - pad;
                        let dst = &mut img[at..at + len];
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
/// Writes `out`: `[n, f, oh, ow]`, sweeping each image in place where
/// that reproduces the lowering's bits (`in_place`) and lowering the
/// minibatch block-wise otherwise (one GEMM per cache-sized image block).
/// Both make zero per-image allocations, and their bits are the same
/// wherever both could run.
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
    let (n, f, oh, ow) = forward_shape(input, weight, bias, spec);
    out.resize(&[n, f, oh, ow]);
    let len = f * oh * ow;
    let mut whole = Whole(out.as_mut_slice(), len);
    forward(input, weight, bias, spec, ws, &mut whole);
}

/// The `[n, f, oh, ow]` a forward pass produces, after checking that the
/// operands agree.
fn forward_shape(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> (usize, usize, usize, usize) {
    let (n, c, h, w) = input.dims4();
    let (f, wc, kh, kw) = weight.dims4();
    assert_eq!(c, wc, "conv channel mismatch: input {c} vs weight {wc}");
    assert_eq!((kh, kw), (spec.kh, spec.kw), "weight does not match spec");
    assert_eq!(bias.len(), f, "bias length {} != filters {f}", bias.len());
    let (oh, ow) = spec.output_hw(h, w);
    (n, f, oh, ow)
}

/// Where the forward pass puts each image's `[f, oh·ow]` convolution.
trait Images {
    /// The buffer image `s`'s convolution goes into, `f·oh·ow` long.
    fn conv(&mut self, s: usize) -> &mut [f32];
    /// Called once image `s`'s convolution is complete in that buffer.
    fn done(&mut self, s: usize);
}

/// Each image's convolution straight into its `len`-long slot of
/// `[n, f, oh, ow]`.
struct Whole<'a>(&'a mut [f32], usize);

impl Images for Whole<'_> {
    fn conv(&mut self, s: usize) -> &mut [f32] {
        &mut self.0[s * self.1..(s + 1) * self.1]
    }

    fn done(&mut self, _: usize) {}
}

/// The forward pass into `images`: in place where that reproduces the
/// lowering's bits (`in_place`), lowered block-wise otherwise.
fn forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    images: &mut impl Images,
) {
    let (n, c, h, w) = input.dims4();
    if in_place(spec, (n, c, h, w), weight.dims4().0) {
        forward_in_place(input, weight, bias, spec, ws, images);
    } else {
        forward_lowered(input, weight, bias, spec, ws, images);
    }
}

/// Whether [`conv2d_forward_into`] sweeps the images in place
/// ([`forward_in_place`]) instead of lowering them
/// ([`forward_lowered`]): when the lowering would compute every output as
/// a whole fused strip's chain and the in-place grid is whole strips too,
/// so the in-place sweep, which computes nothing else, reproduces its
/// bits. Each clause rules out one other way either GEMM could round:
///
/// * stride 1 — the image is only a GEMM operand as is at stride 1;
/// * `oh·ow % NR == 0` — every lowering block is a whole number of
///   strips, so no output lands on the (multiply-then-add) edge strip;
/// * the smallest block [`block_images`] forms is at least
///   [`engine::SMALL_FLOPS`] — no block takes the small path;
/// * `oh·(w + 2·padding) % NR == 0` — the in-place grid is a whole number
///   of strips too, so the sweep has no edge strip of its own.
fn in_place(spec: &Conv2dSpec, (n, c, h, w): (usize, usize, usize, usize), f: usize) -> bool {
    let (oh, ow) = spec.output_hw(h, w);
    let (ckk, ohow) = (c * spec.kh * spec.kw, oh * ow);
    let step = block_images(ckk, ohow, n);
    let smallest = match n % step {
        0 => step,
        short => short,
    };
    let work = f.saturating_mul(ckk).saturating_mul(smallest * ohow);
    spec.stride == 1
        && ohow.is_multiple_of(engine::NR)
        && work >= engine::SMALL_FLOPS
        && (oh * (w + 2 * spec.padding)).is_multiple_of(engine::NR)
}

/// The forward pass as one GEMM per image over the image itself.
///
/// At stride 1 the padded image `[c, hp, wp]` (`hp = h + 2·pad`,
/// `wp = w + 2·pad`) viewed as an `oh × wp` grid is the lowering's `B` in all but
/// layout: the `(c, ky, kx)` row of `B` is the image from flat offset
/// `(c·hp + ky)·wp + kx` on, and its column `oy·wp + ox` is the output
/// position `(oy, ox)` for `ox < ow`. The `wp − ow` columns past each
/// output row are garbage — they read into the next row, and past the
/// image by at most `kw − 1` elements — and the GEMM
/// ([`engine::gemm_offsets`]) never stores them: it writes the valid runs
/// plus the bias straight into `out`. The row offsets and each strip's
/// runs are cached in the workspace per geometry. An image is read where
/// it lies when it is unpadded and that over-read stays inside the batch
/// — every image but the last, unless `kw = 1`; any other is first staged
/// into the workspace's zero-padded image buffer.
fn forward_in_place(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    images: &mut impl Images,
) {
    let (n, c, h, w) = input.dims4();
    let f = weight.dims4().0;
    let (oh, ow) = spec.output_hw(h, w);
    let (kw, pad) = (spec.kw, spec.padding);
    ws.fit((c, h, w), spec);
    let (iv, wv, bv) = (input.as_slice(), weight.as_slice(), bias.as_slice());
    let chw = c * h * w;
    for s in 0..n {
        let image = &iv[s * chw..];
        let b = if pad == 0 && chw + kw - 1 <= image.len() {
            image
        } else {
            stage(&image[..chw], (h, w), pad, &mut ws.img);
            &ws.img
        };
        engine::gemm_offsets(f, oh * ow, wv, b, &ws.grid, bv, images.conv(s));
        images.done(s);
    }
}

/// Copies `img: [c, h, w]` into the interior of the zero-padded `grid:
/// [c, h + 2·pad, w + 2·pad, ..]`, whose border is left as it is: zero
/// from when the buffer was sized, since only interiors are ever staged.
fn stage(img: &[f32], (h, w): (usize, usize), pad: usize, grid: &mut [f32]) {
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    for (ch, plane) in img.chunks_exact(h * w).enumerate() {
        for (y, row) in plane.chunks_exact(w).enumerate() {
            let at = (ch * hp + y + pad) * wp + pad;
            grid[at..at + w].copy_from_slice(row);
        }
    }
}

/// The forward pass lowered block-wise: `im2col` of each cache-sized image
/// block, one GEMM into the filter-major staging matrix `ws.fmat`, then a
/// scatter into each image's buffer that adds the bias.
fn forward_lowered(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    images: &mut impl Images,
) {
    let (n, c, h, w) = input.dims4();
    let f = weight.dims4().0;
    let (oh, ow) = spec.output_hw(h, w);
    let ckk = c * spec.kh * spec.kw;
    let ohow = oh * ow;
    let iv = input.as_slice();
    let bv = bias.as_slice();
    let step = block_images(ckk, ohow, n);
    let mut s0 = 0;
    while s0 < n {
        let blk = step.min(n - s0);
        let x = blk * ohow;
        let col = grown(&mut ws.col, ckk * x);
        let block = &iv[s0 * c * h * w..(s0 + blk) * c * h * w];
        im2col_block(block, (blk, c, h, w), spec, (oh, ow), col);
        // [f, ckk] · [ckk, blk·oh·ow] → [f, blk·oh·ow]; the row-major
        // `[f, c, kh, kw]` weight buffer *is* the `[f, ckk]` matrix.
        let fmat = grown(&mut ws.fmat, f * x);
        engine::gemm(f, ckk, x, weight.as_slice(), col, fmat);
        // Scatter filter-major `[f, blk·oh·ow]` into each image's
        // `[f, oh·ow]`, adding the bias.
        for s in 0..blk {
            let image = images.conv(s0 + s);
            for (fi, dst) in image.chunks_exact_mut(ohow).enumerate() {
                let srcr = &fmat[fi * x + s * ohow..fi * x + (s + 1) * ohow];
                let bias_fi = bv[fi];
                for (o, &v) in dst.iter_mut().zip(srcr) {
                    *o = v + bias_fi;
                }
            }
            images.done(s0 + s);
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
/// `∂L/∂b`. Runs over the same cache-sized image blocks as the lowered
/// forward pass; per block:
///
/// * `∂L/∂Wᵀ += col · Gᵀ`, with `Gᵀ` the block's `grad_out` gathered
///   position-major, 8 filters at a time up to 8 and 16 above, and `col`
///   never laid out: the engine's tap sweep reads each `(c, ky, kx)` row
///   of it out of the images themselves (a padded layer stages the block
///   zero-padded first). Every element is the chain the lowered
///   `G · colᵀ` computed, and the per-block partial products are summed
///   in block order, which makes the block partition part of the
///   reduction order.
/// * `∂L/∂b +=` each filter's ascending sum of `Gᵀ` from −0.0, formed
///   during the gather, every lane of a group side by side.
/// * `∂L/∂col = Wᵀ · G` over the filter-major gather of `grad_out`, one
///   L1-sized slab of rows at a time, each slab added onto the images
///   through the workspace's run table before the next is computed: the
///   same elements, added in the same ascending `(c, ky, kx)` order per
///   input element, as a whole column gradient scattered by `col2im`.
///
/// Pass `grad_in: None` to skip the `∂L/∂input` half entirely (the
/// filter-major gather, the `Wᵀ·G` GEMM and the scatter): the
/// parameter gradients do not depend on it, so a network's *first* layer
/// — whose input is the data batch — backpropagates strictly cheaper this
/// way with bitwise identical `∂L/∂W` / `∂L/∂b`.
///
/// # Panics
///
/// Panics if the weight does not match the input's channels or the spec's
/// kernel (as in [`conv2d_forward_into`]), or `grad_out` is not the
/// `[n, f, oh, ow]` the forward pass produces.
#[allow(clippy::too_many_arguments)] // convolution geometry + outputs; crate-internal callers wrap it
pub fn conv2d_backward_into(
    grad_out: &Tensor,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    grad_in: Option<&mut Tensor>,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
) {
    let (n, f, oh, ow) = backward_shape(input, weight, spec);
    let (gn, gf, goh, gow) = grad_out.dims4();
    assert_eq!(gn, n, "grad batch {gn} != input batch {n}");
    assert_eq!(gf, f, "grad filters {gf} != weight filters {f}");
    assert_eq!(
        (goh, gow),
        (oh, ow),
        "grad_out spatial size does not match the output"
    );
    let grads = OutGrad::Dense(grad_out.as_slice());
    backward(grads, input, weight, spec, ws, grad_in, grad_w, grad_b);
}

/// The `[n, f, oh, ow]` output a backward pass's gradient belongs to,
/// after checking the weight against the input and the spec.
fn backward_shape(
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
) -> (usize, usize, usize, usize) {
    let (n, c, h, w) = input.dims4();
    let (f, wc, kh, kw) = weight.dims4();
    assert_eq!(c, wc, "conv channel mismatch: input {c} vs weight {wc}");
    assert_eq!((kh, kw), (spec.kh, spec.kw), "weight does not match spec");
    let (oh, ow) = spec.output_hw(h, w);
    (n, f, oh, ow)
}

/// The backward pass of [`conv2d_backward_into`] and
/// [`conv2d_relu_pool_backward_into`] over checked operands, reading the
/// output gradient through `grads`.
#[allow(clippy::too_many_arguments)] // as `conv2d_backward_into`
fn backward(
    grads: OutGrad<'_>,
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    mut grad_in: Option<&mut Tensor>,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
) {
    let (n, c, h, w) = input.dims4();
    let (f, _, kh, kw) = weight.dims4();
    let (oh, ow) = spec.output_hw(h, w);
    let ckk = c * kh * kw;
    let ohow = oh * ow;
    let chw = c * h * w;
    let pad = spec.padding;
    let pitch = c * (h + 2 * pad) * (w + 2 * pad);
    ws.fit((c, h, w), spec);
    let iv = input.as_slice();
    grad_w.resize(&[f, c, kh, kw]);
    grad_w.zero_mut();
    let gwv = grad_w.as_mut_slice();
    grad_b.resize(&[f]);
    grad_b.zero_mut();
    let gbv = grad_b.as_mut_slice();
    if let Some(gi) = grad_in.as_deref_mut() {
        gi.resize(&[n, c, h, w]);
        gi.zero_mut();
    }
    let lanes = engine::tap_lanes(f);
    let step = block_images(ckk, ohow, n);
    let mut s0 = 0;
    while s0 < n {
        let blk = step.min(n - s0);
        let x = blk * ohow;
        let block = s0 * chw..(s0 + blk) * chw;
        let in_block = s0..s0 + blk;
        // An unpadded block is read where it lies; a padded one is staged
        // image by image into the zero-bordered buffer.
        let images = if pad == 0 {
            &iv[block.clone()]
        } else {
            if ws.img.len() < blk * pitch {
                ws.img.resize(blk * pitch, 0.0);
            }
            for (image, staged) in iv[block.clone()]
                .chunks_exact(chw)
                .zip(ws.img.chunks_mut(pitch))
            {
                stage(image, (h, w), pad, staged);
            }
            &ws.img[..blk * pitch]
        };
        // ∂Wᵀ = col · Gᵀ ([ckk, x] · [x, lanes] → [ckk, lanes]), one lane
        // group at a time, each step rounded as `gemm(f, x, ckk)` would.
        let fused = engine::fused_columns(f, x, ckk);
        for g0 in (0..f).step_by(lanes) {
            let nl = lanes.min(f - g0);
            let gt = grown(&mut ws.gt, x * lanes);
            let sums = &mut gbv[g0..g0 + nl];
            match lanes {
                8 => grads.lanes::<8>(in_block.clone(), (f, ohow), g0..g0 + nl, gt, sums),
                _ => grads.lanes::<16>(in_block.clone(), (f, ohow), g0..g0 + nl, gt, sums),
            }
            let wt = grown(&mut ws.wt, ckk * lanes);
            engine::gemm_taps(images, &ws.taps, gt, lanes, fused, wt);
            for (l, gw) in gwv[g0 * ckk..(g0 + nl) * ckk]
                .chunks_exact_mut(ckk)
                .enumerate()
            {
                for (acc, row) in gw.iter_mut().zip(wt.chunks_exact(lanes)) {
                    *acc += row[l];
                }
            }
        }
        // ∂L/∂col = Wᵀ · G ([ckk, f] · [f, x] → [ckk, x]), one slab of
        // rows at a time, each added onto the images before the next: rows
        // ascend, so every input element still takes its contributions in
        // ascending (c, ky, kx), as col2im added them.
        if let Some(gi) = grad_in.as_deref_mut() {
            let fmat = grown(&mut ws.fmat, f * x);
            grads.filter_major(in_block, (f, ohow), fmat);
            if ws.scatter.is_empty() {
                ws.scatter.rebuild((c, h, w), spec);
            }
            let grad_images = &mut gi.as_mut_slice()[block];
            // Sized by a full block, so a short last one fits the same slab.
            let rows = slab_rows(ckk, step * ohow);
            let slab = grown(&mut ws.slab, rows * x);
            for j0 in (0..ckk).step_by(rows) {
                let js = j0..(j0 + rows).min(ckk);
                let slab = &mut slab[..js.len() * x];
                engine::gemm_at_b_rows(f, ckk, x, weight.as_slice(), fmat, js.clone(), slab);
                ws.scatter.add(slab, js, grad_images);
            }
        }
        s0 += blk;
    }
}

/// Where `∂input`'s column gradient lands: row `j = (c, ky, kx)` of a
/// block's `∂L/∂col` adds, in every image, the runs
/// `runs[starts[j]..starts[j + 1]]`, each `(src, dst)` — its first column
/// among the image's `oh·ow` and its first element in the image
/// `[c, h, w]` — `lens[j]` columns long, landing `stride` elements apart.
/// These are `col2im`'s row runs, clipped by `valid_outputs` once per
/// geometry instead of once per row per block.
#[derive(Debug, Default, Clone)]
struct ScatterRuns {
    starts: Vec<usize>,
    lens: Vec<usize>,
    runs: Vec<(usize, usize)>,
    /// `oh·ow`, `c·h·w` and the convolution's stride.
    ohow: usize,
    chw: usize,
    stride: usize,
}

impl ScatterRuns {
    /// Whether the table is unbuilt (every geometry has at least one row).
    fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Drops the table, keeping its capacity, when the geometry changes.
    fn clear(&mut self) {
        self.starts.clear();
        self.lens.clear();
        self.runs.clear();
    }

    /// Builds the table for images `[c, h, w]` under `spec`.
    fn rebuild(&mut self, (c, h, w): (usize, usize, usize), spec: &Conv2dSpec) {
        let (oh, ow) = spec.output_hw(h, w);
        let (stride, pad) = (spec.stride, spec.padding);
        self.clear();
        self.starts.push(0);
        for ch in 0..c {
            for ky in 0..spec.kh {
                let (oy0, oy1) = valid_outputs(ky, h, oh, spec);
                for kx in 0..spec.kw {
                    let (ox0, ox1) = valid_outputs(kx, w, ow, spec);
                    if ox0 < ox1 {
                        self.runs.extend((oy0..oy1).map(|oy| {
                            let iy = oy * stride + ky - pad;
                            (oy * ow + ox0, (ch * h + iy) * w + ox0 * stride + kx - pad)
                        }));
                    }
                    self.lens.push(ox1 - ox0);
                    self.starts.push(self.runs.len());
                }
            }
        }
        (self.ohow, self.chw, self.stride) = (oh * ow, c * h * w, stride);
    }

    /// Adds rows `rows` of a block's `∂L/∂col`, `slab: [rows.len(),
    /// blk·oh·ow]`, onto the block's `grad: [blk, c, h, w]`, row by row in
    /// ascending order.
    fn add(&self, slab: &[f32], rows: Range<usize>, grad: &mut [f32]) {
        let x = slab.len() / rows.len().max(1);
        for (j, row) in rows.zip(slab.chunks_exact(x)) {
            let (runs, len) = (&self.runs[self.starts[j]..self.starts[j + 1]], self.lens[j]);
            for (image, cols) in grad
                .chunks_exact_mut(self.chw)
                .zip(row.chunks_exact(self.ohow))
            {
                match (self.stride, len) {
                    (1, 8) => add_runs_8(image, cols, runs),
                    (1, _) => {
                        for &(src, dst) in runs {
                            add_run(&mut image[dst..dst + len], &cols[src..src + len]);
                        }
                    }
                    (stride, _) => {
                        for &(src, dst) in runs {
                            let dst = image[dst..].iter_mut().step_by(stride);
                            for (d, &v) in dst.zip(&cols[src..src + len]) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Adds each 8-long run `(src, dst)` of `cols` onto `image` at stride 1,
/// as one fixed-size array: a run is an output row, tens of bytes, where
/// a loop of unknown trip count costs more than the adds (measured: a
/// seventh of LeNet conv2's `∂input`, whose rows are 8 wide, against
/// [`add_run`]'s blocks of eight).
#[inline(always)]
fn add_runs_8(image: &mut [f32], cols: &[f32], runs: &[(usize, usize)]) {
    for &(src, dst) in runs {
        let d: &mut [f32; 8] = image[dst..].first_chunk_mut().expect("run in the image");
        let s: &[f32; 8] = cols[src..].first_chunk().expect("run in the slab row");
        for (d, &v) in d.iter_mut().zip(s) {
            *d += v;
        }
    }
}

/// `dst += src` over one run of any other length, in blocks of eight as
/// one fixed-size array each, then an element-wise tail.
#[inline(always)]
fn add_run(dst: &mut [f32], src: &[f32]) {
    let (mut d8, mut s8) = (dst.chunks_exact_mut(8), src.chunks_exact(8));
    for (d, s) in d8.by_ref().zip(s8.by_ref()) {
        let d: &mut [f32; 8] = d.try_into().expect("eight long");
        let s: &[f32; 8] = s.try_into().expect("eight long");
        for (d, &v) in d.iter_mut().zip(s) {
            *d += v;
        }
    }
    for (d, &v) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d += v;
    }
}

/// The gradient w.r.t. a convolution's `[n, f, oh·ow]` output, as the
/// backward pass reads it one image block at a time.
#[derive(Clone, Copy)]
enum OutGrad<'a> {
    /// The gradient itself.
    Dense(&'a [f32]),
    /// Routed back through a fused ReLU and max-pool.
    Pooled(Routes<'a>),
}

impl OutGrad<'_> {
    /// Writes filters `lanes` of the gradient of `images` position-major
    /// into `gt: [blk·oh·ow, L]`, lanes past them zero, and adds each
    /// filter's sum to its slot of `sums` (see [`gather_lanes`]).
    fn lanes<const L: usize>(
        &self,
        images: Range<usize>,
        (f, ohow): (usize, usize),
        lanes: Range<usize>,
        gt: &mut [f32],
        sums: &mut [f32],
    ) {
        match self {
            OutGrad::Dense(grads) => {
                let block = &grads[images.start * f * ohow..images.end * f * ohow];
                gather_lanes::<L>(block, (f, ohow), lanes, gt, sums);
            }
            OutGrad::Pooled(routes) => {
                gt.fill(0.0);
                let g0 = lanes.start;
                routes.each(images, lanes, f, |s, fi, q, g| {
                    gt[(s * ohow + q) * L + fi - g0] = g;
                });
                // The sums `gather_lanes` forms: every element, zeros too.
                let mut acc = [-0.0f32; L];
                for row in gt.chunks_exact(L) {
                    for (a, &d) in acc.iter_mut().zip(row) {
                        *a += d;
                    }
                }
                for (s, a) in sums.iter_mut().zip(acc) {
                    *s += a;
                }
            }
        }
    }

    /// Writes the gradient of `images` filter-major into `fmat: [f,
    /// blk·oh·ow]`.
    fn filter_major(&self, images: Range<usize>, (f, ohow): (usize, usize), fmat: &mut [f32]) {
        let x = images.len() * ohow;
        match self {
            OutGrad::Dense(grads) => {
                let block = &grads[images.start * f * ohow..images.end * f * ohow];
                for (s, image) in block.chunks_exact(f * ohow).enumerate() {
                    for (fi, src) in image.chunks_exact(ohow).enumerate() {
                        fmat[fi * x + s * ohow..fi * x + (s + 1) * ohow].copy_from_slice(src);
                    }
                }
            }
            OutGrad::Pooled(routes) => {
                fmat.fill(0.0);
                routes.each(images, 0..f, f, |s, fi, q, g| {
                    fmat[fi * x + s * ohow + q] = g;
                });
            }
        }
    }
}

/// Gathers filters `lanes` of a block's `grads: [blk, f, oh·ow]`
/// position-major into `gt: [blk·oh·ow, L]`, lanes past them zero, and
/// adds each filter's sum to its slot of `sums` — one serial chain in
/// ascending position order from −0.0, exactly as `Iterator::sum` forms
/// it, but all `L` side by side, so each chain's add latency overlaps the
/// others' instead of adding up.
fn gather_lanes<const L: usize>(
    grads: &[f32],
    (f, ohow): (usize, usize),
    lanes: Range<usize>,
    gt: &mut [f32],
    sums: &mut [f32],
) {
    let nl = lanes.len();
    let mut acc = [-0.0f32; L];
    for (image, dst) in grads
        .chunks_exact(f * ohow)
        .zip(gt.chunks_exact_mut(ohow * L))
    {
        // Lanes past the group's last filter re-read its first, and are
        // stored as zero.
        let rows: [&[f32]; L] = std::array::from_fn(|l| {
            let fi = lanes.start + if l < nl { l } else { 0 };
            &image[fi * ohow..(fi + 1) * ohow]
        });
        for (q, dst) in dst.chunks_exact_mut(L).enumerate() {
            for (l, (d, a)) in dst.iter_mut().zip(&mut acc).enumerate() {
                *d = if l < nl { rows[l][q] } else { 0.0 };
                *a += *d;
            }
        }
    }
    for (s, a) in sums.iter_mut().zip(acc) {
        *s += a;
    }
}

/// The route of a window whose pooled value is not above zero: its
/// gradient is zero everywhere, as ReLU's mask makes it. Any other route
/// is the winner's place in the window, `ky << 4 | kx`.
const CLOSED: u8 = u8::MAX;

/// Forward convolution, ReLU and max-pool as one pass — the LeNet block —
/// writing only the pooled `out: [n, f, ph, pw]` (resized in place) and,
/// when `route` is given (training), one byte per pooled element that
/// [`conv2d_relu_pool_backward_into`] reads.
///
/// Each image's convolution goes into one image's scratch in the
/// workspace, computed exactly as [`conv2d_forward_into`] computes it;
/// ReLU and the pool run from there with what `Relu` and
/// [`maxpool2d_forward_into`] apply, in the same order: [`relu`], then
/// the first strictly greater value from −∞. The pooled values are
/// theirs bit for bit, and no `[n, f, oh, ow]` tensor is written.
///
/// # Panics
///
/// Panics as [`conv2d_forward_into`] does, or if `pool` has padding,
/// windows that overlap or leave gaps (`stride ≠ kh` or `≠ kw`), or an
/// edge longer than 15.
#[allow(clippy::too_many_arguments)] // convolution and pool geometry + outputs
pub fn conv2d_relu_pool_forward_into(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    pool: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    out: &mut Tensor,
    route: Option<&mut Vec<u8>>,
) {
    let (n, f, oh, ow) = forward_shape(input, weight, bias, spec);
    let (ph, pw) = pooled_hw(pool, (oh, ow));
    out.resize(&[n, f, ph, pw]);
    // No zeroing: the pool writes every route.
    let route = route.map(|r| {
        r.resize(n * f * ph * pw, 0);
        r.as_mut_slice()
    });
    let mut conv = std::mem::take(&mut ws.conv);
    let mut images = ReluPool {
        conv: grown(&mut conv, f * oh * ow),
        dims: (f, oh, ow),
        pooled: (ph, pw),
        pool,
        out: out.as_mut_slice(),
        route,
    };
    forward(input, weight, bias, spec, ws, &mut images);
    ws.conv = conv;
}

/// The pooled size of an `oh × ow` convolution output under `pool`, after
/// checking that the fused block supports `pool`.
fn pooled_hw(pool: &Conv2dSpec, (oh, ow): (usize, usize)) -> (usize, usize) {
    assert_eq!(pool.padding, 0, "maxpool does not support padding");
    assert!(
        pool.kh == pool.stride && pool.kw == pool.stride,
        "a fused pool needs stride = kernel, got {pool:?}"
    );
    assert!(pool.kh < 16, "a fused pool window is at most 15×15");
    pool.output_hw(oh, ow)
}

/// ReLU and a non-overlapping max-pool over each image's convolution,
/// into that image's `[f, ph, pw]` of `out` and, when training, of
/// `route`.
struct ReluPool<'a> {
    /// One image's convolution, `[f, oh, ow]`.
    conv: &'a mut [f32],
    /// `(f, oh, ow)` and `(ph, pw)`.
    dims: (usize, usize, usize),
    pooled: (usize, usize),
    pool: &'a Conv2dSpec,
    out: &'a mut [f32],
    route: Option<&'a mut [u8]>,
}

impl Images for ReluPool<'_> {
    fn conv(&mut self, _: usize) -> &mut [f32] {
        self.conv
    }

    fn done(&mut self, s: usize) {
        let ((f, oh, ow), (ph, pw), k) = (self.dims, self.pooled, self.pool.kh);
        let at = s * f * ph * pw..(s + 1) * f * ph * pw;
        let out = &mut self.out[at.clone()];
        let mut route = self.route.as_deref_mut().map(|r| &mut r[at]);
        for (fi, plane) in self.conv.chunks_exact(oh * ow).enumerate() {
            for py in 0..ph {
                let band = &plane[py * k * ow..(py + 1) * k * ow];
                let row = (fi * ph + py) * pw..(fi * ph + py + 1) * pw;
                let out = &mut out[row.clone()];
                match route.as_deref_mut() {
                    Some(route) => {
                        let route = &mut route[row];
                        pool_band(band, ow, self.pool, relu, out, |ox, best, _, (ky, kx)| {
                            route[ox] = if best > 0.0 {
                                (ky << 4 | kx) as u8
                            } else {
                                CLOSED
                            };
                        });
                    }
                    None => pool_band(band, ow, self.pool, relu, out, |_, _, _, _| {}),
                }
            }
        }
    }
}

/// Backward of [`conv2d_relu_pool_forward_into`]: given `grad_out =
/// ∂L/∂pooled` of shape `[n, f, ph, pw]` and the `route` the training
/// forward kept, computes `∂L/∂input`, `∂L/∂W` and `∂L/∂b` exactly as
/// [`conv2d_backward_into`] does from the gradient the unfused `MaxPool2d`
/// and `Relu` backward passes would hand it — bit for bit, with no
/// `[n, f, oh, ow]` tensor in between.
///
/// That gradient is `+0.0` except at each window's winner whose pooled
/// value is above zero (ReLU's mask there), where it is `0.0 + g` (the
/// pool's add into a zeroed buffer). Each block writes those values
/// straight into the buffers the convolution's backward reads: the
/// position-major lane groups for `∂W` and `∂b`, and the filter-major
/// matrix for `∂input`. `grad_in: None` skips `∂input`, as there.
///
/// # Panics
///
/// Panics as [`conv2d_backward_into`] does, if `pool` is not one the
/// forward accepts, or if `grad_out` is not the pooled shape or `route`
/// not one byte per element of it.
#[allow(clippy::too_many_arguments)] // convolution and pool geometry + outputs
pub fn conv2d_relu_pool_backward_into(
    grad_out: &Tensor,
    route: &[u8],
    input: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    pool: &Conv2dSpec,
    ws: &mut ConvWorkspace,
    grad_in: Option<&mut Tensor>,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
) {
    let (n, f, oh, ow) = backward_shape(input, weight, spec);
    let (ph, pw) = pooled_hw(pool, (oh, ow));
    assert_eq!(
        grad_out.shape(),
        [n, f, ph, pw],
        "grad_out is not the pooled output's shape"
    );
    assert_eq!(
        route.len(),
        grad_out.len(),
        "route length != pooled outputs"
    );
    let grads = OutGrad::Pooled(Routes {
        grad: grad_out.as_slice(),
        route,
        k: pool.kh,
        ow,
        pooled: (ph, pw),
    });
    backward(grads, input, weight, spec, ws, grad_in, grad_w, grad_b);
}

/// A fused block's pooled gradient and routes, as the backward reads them.
#[derive(Clone, Copy)]
struct Routes<'a> {
    /// `[n, f, ph, pw]` gradient and route.
    grad: &'a [f32],
    route: &'a [u8],
    /// The pool's window edge (= its stride) and the convolution's output
    /// width.
    k: usize,
    ow: usize,
    pooled: (usize, usize),
}

impl Routes<'_> {
    /// Calls `put(s, fi, q, 0.0 + g)` for every window of `images` and
    /// `filters` whose route is open: `s` counts from `images.start`, and
    /// `q` is the winner's position in its `[oh, ow]` plane.
    fn each(
        &self,
        images: Range<usize>,
        filters: Range<usize>,
        f: usize,
        mut put: impl FnMut(usize, usize, usize, f32),
    ) {
        let (ph, pw) = self.pooled;
        let (k, ow) = (self.k, self.ow);
        for s in images.clone() {
            for fi in filters.clone() {
                let at = (s * f + fi) * ph * pw;
                let grad = self.grad[at..at + ph * pw].chunks_exact(pw);
                let route = self.route[at..at + ph * pw].chunks_exact(pw);
                for (py, (grad, route)) in grad.zip(route).enumerate() {
                    for (px, (&g, &r)) in grad.iter().zip(route).enumerate() {
                        if r != CLOSED {
                            let (ky, kx) = (usize::from(r >> 4), usize::from(r & 15));
                            let q = (py * k + ky) * ow + px * k + kx;
                            put(s - images.start, fi, q, 0.0 + g);
                        }
                    }
                }
            }
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
    for (plane, src) in input.as_slice().chunks_exact(h * w).enumerate() {
        for oy in 0..oh {
            let top = oy * spec.stride * w;
            let band = &src[top..top + spec.kh * w];
            let at0 = plane * h * w + top;
            let row = (plane * oh + oy) * ow..(plane * oh + oy + 1) * ow;
            let idx = &mut idx[if ARGMAX { row.clone() } else { 0..0 }];
            pool_band(
                band,
                w,
                spec,
                |v| v,
                &mut out[row],
                |ox, _, at, _| {
                    if ARGMAX {
                        idx[ox] = at0 + at;
                    }
                },
            );
        }
    }
}

/// Pools one output row from the `band` of `kh` input rows, `w` wide,
/// under it: by [`pool_row_2x2`] for the 2×2 / stride-2 window every
/// model in the zoo uses and by [`pool_row`] for any other. Each element
/// is mapped by `value` before it is compared — the identity, or a fused
/// ReLU. `winner(ox, best, at, (ky, kx))` hears each window's maximum,
/// the offset `at` into the band where it won and its place in the
/// window.
#[inline(always)]
fn pool_band(
    band: &[f32],
    w: usize,
    spec: &Conv2dSpec,
    value: impl Fn(f32) -> f32,
    out: &mut [f32],
    winner: impl FnMut(usize, f32, usize, (usize, usize)),
) {
    if (spec.kh, spec.kw, spec.stride) == (2, 2, 2) {
        pool_row_2x2(band, w, value, out, winner);
    } else {
        pool_row(band, w, spec, value, out, winner);
    }
}

/// Pools one output row from its `band` of input rows. Each window reads
/// one `kw`-long run per band row, its elements compared in `(ky, kx)`
/// order: the first strictly greater one wins. The running maximum starts
/// at −∞ and the winner at the window's first element, so a window with
/// nothing above −∞ (all −∞ or NaN) pools to −∞ and routes its gradient
/// to its own first element.
#[inline(always)]
fn pool_row(
    band: &[f32],
    w: usize,
    spec: &Conv2dSpec,
    value: impl Fn(f32) -> f32,
    out: &mut [f32],
    mut winner: impl FnMut(usize, f32, usize, (usize, usize)),
) {
    for (ox, o) in out.iter_mut().enumerate() {
        let x0 = ox * spec.stride;
        let (mut best, mut arg, mut place) = (f32::NEG_INFINITY, x0, (0, 0));
        for (ky, r) in (x0..).step_by(w).take(spec.kh).enumerate() {
            for (kx, (i, &v)) in (r..).zip(&band[r..r + spec.kw]).enumerate() {
                let v = value(v);
                if v > best {
                    best = v;
                    arg = i;
                    place = (ky, kx);
                }
            }
        }
        *o = best;
        winner(ox, best, arg, place);
    }
}

/// [`pool_row`] for 2×2 windows at stride 2: the two band rows are walked
/// in pairs side by side and each window is four straight-line compares
/// in the same order, with the same seeds — five to six times faster than
/// the general loop's nested runs at this size.
#[inline(always)]
fn pool_row_2x2(
    band: &[f32],
    w: usize,
    value: impl Fn(f32) -> f32,
    out: &mut [f32],
    mut winner: impl FnMut(usize, f32, usize, (usize, usize)),
) {
    let (top, bottom) = band.split_at(w);
    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
    for (ox, (o, (t, b))) in out.iter_mut().zip(windows).enumerate() {
        let at = 2 * ox;
        let (mut best, mut arg, mut place) = (f32::NEG_INFINITY, at, (0, 0));
        for (v, i, p) in [
            (t[0], at, (0, 0)),
            (t[1], at + 1, (0, 1)),
            (b[0], at + w, (1, 0)),
            (b[1], at + w + 1, (1, 1)),
        ] {
            let v = value(v);
            if v > best {
                best = v;
                arg = i;
                place = p;
            }
        }
        *o = best;
        winner(ox, best, arg, place);
    }
}

/// Backward max-pooling: routes each output gradient to the input element
/// that won the forward max, into a caller-owned tensor (resized in place
/// and overwritten).
///
/// # Panics
///
/// Panics if `argmax` does not hold one index per element of `grad_out`,
/// or `grad_out` is not the shape `spec` pools `input_shape` to.
pub fn maxpool2d_backward_into(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: (usize, usize, usize, usize),
    spec: &Conv2dSpec,
    grad_in: &mut Tensor,
) {
    let (n, c, h, w) = input_shape;
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "maxpool grad_out has {} elements for {} argmax entries",
        grad_out.len(),
        argmax.len()
    );
    let (oh, ow) = spec.output_hw(h, w);
    assert_eq!(
        grad_out.shape(),
        [n, c, oh, ow],
        "maxpool grad_out is not the pooled shape of {input_shape:?}"
    );
    grad_in.resize(&[n, c, h, w]);
    grad_in.zero_mut();
    let gi = grad_in.as_mut_slice();
    for (g, &i) in grad_out.as_slice().iter().zip(argmax) {
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

    /// Random `(input, weight, bias, grad_out)` for one convolution.
    fn operands(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
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
        (
            random(vec![n, c, h, w]),
            random(vec![f, c, spec.kh, spec.kw]),
            random(vec![f]),
            random(vec![n, f, oh, ow]),
        )
    }

    /// Runs the production entry points (one workspace across forward and
    /// both backward forms, as a layer does) against [`conv_oracle`] and
    /// demands equal bit patterns.
    fn assert_bitwise_equal_to_oracle(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
        seed: u64,
    ) {
        let (input, weight, bias, grad_out) = operands((n, c, h, w, f), spec, seed);
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
        // How many cases put `∂W` rows on the edge strip's
        // multiply-then-add, and how many blocks on the small path.
        let (mut edge, mut small) = (0, 0);
        for case in 0..48 {
            let (kh, kw) = loop {
                let k = (rng.gen_range(1..=5usize), rng.gen_range(1..=5usize));
                if k.0 != k.1 {
                    break k;
                }
            };
            let spec = Conv2dSpec::new(kh, kw, rng.gen_range(1..=3), rng.gen_range(0..=2));
            // Filters in one lane group and in several.
            let (c, mut f) = (rng.gen_range(1..=3usize), rng.gen_range(1..=40usize));
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
            // Two or three blocks, the last one short — every eighth case
            // one image of one filter, below SMALL_FLOPS.
            let mut short = rng.gen_range(1..=step.max(2) - 1);
            if case % 8 == 0 {
                (f, short) = (1, 1);
            }
            let n = step * rng.gen_range(1..=2usize) + short;
            let (oh, ow) = spec.output_hw(h, w);
            let ckk = c * kh * kw;
            edge += usize::from(ckk > engine::NR && !ckk.is_multiple_of(engine::NR));
            small += usize::from(f * ckk * (n % step).max(1) * oh * ow < engine::SMALL_FLOPS);
            assert_bitwise_equal_to_oracle((n, c, h, w, f), &spec, 1000 + case);
        }
        assert!(edge > 0 && small > 0, "edge {edge}, small {small}");
    }

    /// `∂input` the two-level way the backward formed it before the slab
    /// loop: per image block, the filter-major `G`, the whole column
    /// gradient through `engine::gemm_at_b`, then [`col2im_block`].
    fn grad_in_two_level(
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: &Conv2dSpec,
    ) -> Vec<f32> {
        let (n, c, h, w) = input.dims4();
        let f = weight.dims4().0;
        let (oh, ow) = spec.output_hw(h, w);
        let (ckk, ohow, chw) = (c * spec.kh * spec.kw, oh * ow, c * h * w);
        let grads = OutGrad::Dense(grad_out.as_slice());
        let mut grad_in = vec![0.0f32; n * chw];
        let step = block_images(ckk, ohow, n);
        let mut s0 = 0;
        while s0 < n {
            let blk = step.min(n - s0);
            let x = blk * ohow;
            let mut fmat = vec![f32::NAN; f * x];
            grads.filter_major(s0..s0 + blk, (f, ohow), &mut fmat);
            let mut gcol = vec![f32::NAN; ckk * x];
            engine::gemm_at_b(f, ckk, x, weight.as_slice(), &fmat, &mut gcol);
            let images = &mut grad_in[s0 * chw..(s0 + blk) * chw];
            col2im_block(&gcol, (blk, c, h, w), spec, (oh, ow), images);
            s0 += blk;
        }
        grad_in
    }

    /// Which engine path a block's `Wᵀ·G` takes, and whether `∂input`
    /// splits it into several slabs: `(small, narrow, edge, slabs)`.
    fn grad_in_paths(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
    ) -> [bool; 4] {
        let (oh, ow) = spec.output_hw(h, w);
        let ckk = c * spec.kh * spec.kw;
        let step = block_images(ckk, oh * ow, n);
        // Every block but a short last one has `step` images.
        let x = step * oh * ow;
        let small = engine::fused_columns(ckk, f, x) == 0;
        [
            small || engine::fused_columns(ckk, f, (n % step).max(1) * oh * ow) == 0,
            !small && x < engine::NR,
            !small && x > engine::NR && !x.is_multiple_of(engine::NR),
            ckk > slab_rows(ckk, x),
        ]
    }

    /// The backward's `∂input` against [`grad_in_two_level`], bit for bit,
    /// on a pool of one thread and of two.
    fn assert_slab_grad_in_is_two_level(
        (n, c, h, w, f): (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
        seed: u64,
    ) {
        let (input, weight, _, grad_out) = operands((n, c, h, w, f), spec, seed);
        let want = grad_in_two_level(&input, &weight, &grad_out, spec);
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| {
                let (mut gi, mut gw, mut gb) = (
                    Tensor::zeros(vec![0]),
                    Tensor::zeros(vec![0]),
                    Tensor::zeros(vec![0]),
                );
                let ws = &mut ConvWorkspace::new();
                let gi_ref = Some(&mut gi);
                conv2d_backward_into(
                    &grad_out, &input, &weight, spec, ws, gi_ref, &mut gw, &mut gb,
                );
                gi
            });
            let what = format!("n={n} c={c} h={h} w={w} f={f} {spec:?}, {threads} threads");
            assert_eq!(bits(got.as_slice()), bits(&want), "∂input: {what}");
        }
    }

    #[test]
    fn slab_grad_in_is_bitwise_the_two_level_form_at_named_shapes() {
        let resnet = Conv2dSpec::new(3, 3, 1, 1);
        for (dims, spec) in [
            // ResNet-mini: 3×3 stride 2 pad 1, its 1×1 stride-2 shortcut,
            // and a 3×3 stride 1 pad 1 body convolution.
            ((25, 8, 16, 16, 16), Conv2dSpec::new(3, 3, 2, 1)),
            ((25, 8, 16, 16, 16), Conv2dSpec::new(1, 1, 2, 0)),
            ((25, 16, 8, 8, 16), resnet),
            // LeNet-5's conv2, at the training batch and at distillation's
            // forget batch of one.
            ((25, 6, 12, 12, 16), Conv2dSpec::new(5, 5, 1, 0)),
            ((1, 6, 12, 12, 16), Conv2dSpec::new(5, 5, 1, 0)),
            // 7·7 outputs: an edge strip inside every block.
            ((25, 6, 11, 11, 16), Conv2dSpec::new(5, 5, 1, 0)),
            // One image of one filter: the small path.
            ((1, 1, 5, 5, 1), resnet),
            // 2·2 outputs of one image under many filters: a narrow
            // product (`blk·oh·ow < NR`) above SMALL_FLOPS.
            ((1, 16, 4, 4, 64), Conv2dSpec::new(3, 3, 1, 0)),
        ] {
            assert_slab_grad_in_is_two_level(dims, &spec, 3000 + dims.4 as u64);
        }
        let [small, narrow, _, slabs] = grad_in_paths((1, 1, 5, 5, 1), &resnet);
        assert!(small && !narrow && !slabs);
        let [small, narrow, ..] = grad_in_paths((1, 16, 4, 4, 64), &Conv2dSpec::new(3, 3, 1, 0));
        assert!(!small && narrow);
    }

    #[test]
    fn slab_grad_in_is_bitwise_the_two_level_form_on_generated_geometry() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        // Cases per path: small, narrow, edge strip, several slabs. Narrow
        // products are rare here at every tier but the widest; the named
        // shapes cover one at each.
        let mut seen = [0usize; 4];
        for case in 0..40 {
            let spec = Conv2dSpec::new(
                rng.gen_range(1..=5),
                rng.gen_range(1..=5),
                rng.gen_range(1..=3),
                rng.gen_range(0..=2),
            );
            let (c, f) = (rng.gen_range(1..=8usize), rng.gen_range(1..=40usize));
            let (h, w) = (rng.gen_range(5..=18usize), rng.gen_range(5..=18usize));
            // Every fourth case one image: distillation's forget batch.
            let n = if case % 4 == 0 {
                1
            } else {
                rng.gen_range(1..=30)
            };
            let dims = (n, c, h, w, f);
            for (count, hit) in seen.iter_mut().zip(grad_in_paths(dims, &spec)) {
                *count += usize::from(hit);
            }
            assert_slab_grad_in_is_two_level(dims, &spec, 4000 + case);
        }
        let [small, _, edge, slabs] = seen;
        assert!(
            small > 0 && edge > 0 && slabs > 0,
            "small, narrow, edge, slabs: {seen:?}"
        );
    }

    /// Runs the backward (`∂W` only) over a `[2, 1, 28, 28]` input with
    /// the given weight and `grad_out` shapes.
    fn backward_with(weight: Vec<usize>, grad_out: Vec<usize>) {
        let spec = Conv2dSpec::new(5, 5, 1, 0);
        let input = Tensor::zeros(vec![2, 1, 28, 28]);
        let (weight, grad_out) = (Tensor::zeros(weight), Tensor::zeros(grad_out));
        let (mut gw, mut gb) = (Tensor::zeros(vec![0]), Tensor::zeros(vec![0]));
        let ws = &mut ConvWorkspace::new();
        conv2d_backward_into(
            &grad_out, &input, &weight, &spec, ws, None, &mut gw, &mut gb,
        );
    }

    #[test]
    #[should_panic(expected = "conv channel mismatch")]
    fn backward_rejects_a_weight_over_other_channels() {
        backward_with(vec![6, 2, 5, 5], vec![2, 6, 24, 24]);
    }

    #[test]
    #[should_panic(expected = "weight does not match spec")]
    fn backward_rejects_a_weight_of_another_kernel() {
        backward_with(vec![6, 1, 3, 5], vec![2, 6, 24, 24]);
    }

    #[test]
    #[should_panic(expected = "grad filters 4 != weight filters 6")]
    fn backward_rejects_grad_out_of_other_filters() {
        backward_with(vec![6, 1, 5, 5], vec![2, 4, 24, 24]);
    }

    #[test]
    #[should_panic(expected = "grad_out spatial size does not match the output")]
    fn backward_rejects_grad_out_of_another_output_size() {
        backward_with(vec![6, 1, 5, 5], vec![2, 6, 23, 24]);
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

    /// A batch and stride-1 spec that [`in_place`] accepts, built from
    /// proptest draws. `oh` is a multiple of `NR / g` and `ow` of `g`, for
    /// `g` the largest power of two up to `2^e` dividing both `NR` and
    /// `kw − 1`, so `oh·ow` and `oh·(ow + kw − 1)` are whole strips. The
    /// image widens until a lowering block holds at most 24 images, and
    /// the batch is `blocks` full blocks plus a short one wherever one
    /// clears `SMALL_FLOPS` (`short` picks its size).
    fn eligible_geometry(
        (kh, kw, pad): (usize, usize, usize),
        (c, f, t, u, e): (usize, usize, usize, usize, usize),
        (blocks, short): (usize, f64),
    ) -> ((usize, usize, usize, usize, usize), Conv2dSpec) {
        use engine::{NR, SMALL_FLOPS};
        let spec = Conv2dSpec::new(kh, kw, 1, pad);
        let mut g = 1 << e;
        while !(kw - 1).is_multiple_of(g) || !NR.is_multiple_of(g) {
            g /= 2;
        }
        let mut oh = NR / g * t;
        while oh + kh < 2 * pad + 2 {
            oh += NR / g;
        }
        let ckk = c * kh * kw;
        let mut ow = g * u;
        while ow + kw < 2 * pad + 2 || block_images(ckk, oh * ow, usize::MAX) > 24 {
            ow += g;
        }
        let (h, w) = (oh + kh - 1 - 2 * pad, ow + kw - 1 - 2 * pad);
        let step = block_images(ckk, oh * ow, usize::MAX);
        let least = SMALL_FLOPS.div_ceil(f * ckk * oh * ow);
        let n = if least < step {
            step * blocks + least + ((step - least) as f64 * short) as usize
        } else {
            step * (blocks + 1)
        };
        ((n, c, h, w, f), spec)
    }

    /// The forward of a geometry [`in_place`] accepts, against the
    /// lowering and against [`conv_oracle`], bit for bit, with neither
    /// column buffer touched.
    fn assert_in_place_equals_lowering(
        dims: (usize, usize, usize, usize, usize),
        spec: &Conv2dSpec,
        seed: u64,
    ) {
        let (n, c, h, w, f) = dims;
        let what = format!("n={n} c={c} h={h} w={w} f={f} {spec:?}");
        assert!(
            in_place(spec, (n, c, h, w), f),
            "takes the lowering: {what}"
        );
        let (input, weight, bias, grad_out) = operands(dims, spec, seed);
        let mut ws = ConvWorkspace::new();
        let mut got = Tensor::zeros(vec![0]);
        conv2d_forward_into(&input, &weight, &bias, spec, &mut ws, &mut got);
        assert!(ws.col.is_empty() && ws.fmat.is_empty(), "lowered: {what}");
        let mut lowered = vec![f32::NAN; got.len()];
        let mut lowering_ws = ConvWorkspace::new();
        let whole = &mut Whole(&mut lowered, got.len() / n);
        forward_lowered(&input, &weight, &bias, spec, &mut lowering_ws, whole);
        assert_eq!(bits(got.as_slice()), bits(&lowered), "vs lowering: {what}");
        let (out, ..) = conv_oracle(&input, &weight, &bias, &grad_out, spec);
        assert_eq!(bits(got.as_slice()), bits(&out), "vs oracle: {what}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn in_place_forward_is_bitwise_equal_to_the_lowering_on_generated_geometry(
            (kh, dk, pad) in (1usize..6, 1usize..5, 0usize..3),
            draws in (1usize..4, 1usize..8, 1usize..3, 1usize..4, 0usize..4),
            (blocks, short, seed) in (1usize..3, 0.0f64..1.0, 0u64..1_000_000),
        ) {
            // kh ≠ kw: a transposed kernel shows.
            let kw = (kh + dk - 1) % 5 + 1;
            let (dims, spec) = eligible_geometry((kh, kw, pad), draws, (blocks, short));
            assert_in_place_equals_lowering(dims, &spec, seed);
        }

        #[test]
        fn in_place_forward_is_batch_invariant(
            (kh, dk, pad) in (1usize..6, 1usize..5, 0usize..3),
            draws in (1usize..4, 1usize..8, 1usize..3, 1usize..4, 0usize..4),
            seed in 0u64..1_000_000,
        ) {
            // Each image is its own sweep, so a batch is the concatenation
            // of its images' outputs. Enough filters that one image alone
            // clears SMALL_FLOPS and is swept in place too.
            let kw = (kh + dk - 1) % 5 + 1;
            let ((n, c, h, w, f), spec) = eligible_geometry((kh, kw, pad), draws, (1, 0.5));
            let (oh, ow) = spec.output_hw(h, w);
            let f = f.max(engine::SMALL_FLOPS.div_ceil(c * kh * kw * oh * ow));
            assert!(in_place(&spec, (n, c, h, w), f) && in_place(&spec, (1, c, h, w), f));
            let (input, weight, bias, _) = operands((n, c, h, w, f), &spec, seed);
            let mut ws = ConvWorkspace::new();
            let mut batched = Tensor::zeros(vec![0]);
            conv2d_forward_into(&input, &weight, &bias, &spec, &mut ws, &mut batched);
            let mut single = Tensor::zeros(vec![0]);
            let mut concat = Vec::with_capacity(batched.len());
            for image in input.as_slice().chunks_exact(c * h * w) {
                let image = Tensor::from_vec(vec![1, c, h, w], image.to_vec());
                conv2d_forward_into(&image, &weight, &bias, &spec, &mut ws, &mut single);
                concat.extend_from_slice(single.as_slice());
            }
            assert_eq!(bits(batched.as_slice()), bits(&concat), "n={n} c={c} h={h} w={w} f={f} {spec:?}");
        }
    }

    #[test]
    fn in_place_forward_is_bitwise_equal_to_the_lowering_at_lenet_shapes() {
        // conv1 and conv2 of LeNet-5 at 28×28 are in place at every tile
        // width, at the training batches and `eval`'s 48-row first chunk.
        let spec = Conv2dSpec::new(5, 5, 1, 0);
        for n in [1, 23, 25, 32, 48] {
            assert_in_place_equals_lowering((n, 1, 28, 28, 6), &spec, 10 + n as u64);
            assert_in_place_equals_lowering((n, 6, 12, 12, 16), &spec, 20 + n as u64);
        }
    }

    #[test]
    fn in_place_forward_is_bitwise_equal_to_the_lowering_across_threads() {
        // One image's GEMM clears PAR_FLOPS (48 × 45 × 32·36 ≈ 2.5M), the
        // size at which a row split would fork: the pool must not move a
        // bit.
        let spec = Conv2dSpec::new(5, 3, 1, 1);
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| assert_in_place_equals_lowering((3, 3, 34, 34, 48), &spec, 5));
        }
    }

    #[test]
    fn ineligible_geometries_take_the_lowering() {
        let lenet = Conv2dSpec::new(5, 5, 1, 0);
        // Stride 2, as in ResNet-mini's downsampling blocks.
        assert!(!in_place(&Conv2dSpec::new(3, 3, 2, 1), (25, 8, 32, 32), 16));
        // One filter over one image is under SMALL_FLOPS (its batch of
        // 25 is not).
        assert!(!in_place(&lenet, (1, 6, 12, 12), 1));
        assert!(in_place(&lenet, (25, 6, 12, 12), 1));
        // 7·7 outputs are never whole strips.
        assert!(!in_place(&lenet, (25, 6, 11, 11), 16));
        // `NR` outputs in one row are a whole strip, but the `NR + 1`-wide
        // grid row they are swept from is not.
        let row = Conv2dSpec::new(1, 2, 1, 0);
        assert!(!in_place(&row, (1, 1, 1, engine::NR + 1), 2048));
        assert!(in_place(&row, (1, 1, engine::NR, engine::NR + 1), 2048));
    }

    #[test]
    fn in_place_forward_holds_no_column_buffers() {
        // A forward-only layer (eval, `ServerMse` scoring, a teacher) at
        // LeNet-5's shapes: `Conv2d::forward` is this call, over the
        // layer's own workspace. The column matrix and the staging matrix
        // are never grown, and a training step's backward, which reads
        // the images in place, leaves the column matrix unallocated too.
        let spec = Conv2dSpec::new(5, 5, 1, 0);
        for (c, hw, f) in [(1, 28, 6), (6, 12, 16)] {
            let mut ws = ConvWorkspace::new();
            let mut out = Tensor::zeros(vec![0]);
            for (round, n) in [25, 48, 32, 7, 25].into_iter().enumerate() {
                let (input, weight, bias, _) = operands((n, c, hw, hw, f), &spec, round as u64);
                conv2d_forward_into(&input, &weight, &bias, &spec, &mut ws, &mut out);
            }
            assert_eq!((ws.col.capacity(), ws.fmat.capacity()), (0, 0), "c={c}");
            let (input, weight, _, grad_out) = operands((25, c, hw, hw, f), &spec, 9);
            let (mut gi, mut gw, mut gb) = (
                Tensor::zeros(vec![0]),
                Tensor::zeros(vec![0]),
                Tensor::zeros(vec![0]),
            );
            let gi = Some(&mut gi);
            conv2d_backward_into(
                &grad_out, &input, &weight, &spec, &mut ws, gi, &mut gw, &mut gb,
            );
            assert_eq!(ws.col.capacity(), 0, "c={c}");
        }
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
        maxpool2d_backward_into(&gout, &idx, (1, 1, 4, 4), &spec, &mut gin);
        assert_eq!(gin.as_slice()[5], 1.0);
        assert_eq!(gin.as_slice()[7], 2.0);
        assert_eq!(gin.as_slice()[13], 3.0);
        assert_eq!(gin.as_slice()[15], 4.0);
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
        maxpool2d_backward_into(&grad_out, &idx, (1, 2, 4, 6), &spec, &mut grad_in);
        assert_eq!(grad_in.as_slice()[24 + 2 * 6 + 4], 3.0);
        assert_eq!(grad_in.as_slice()[2], 5.0);
        assert_eq!(grad_in.sum(), 8.0);
    }

    /// Runs the backward of a 2×2 pool over `[1, 1, 4, 4]` with the given
    /// `grad_out` shape and argmax length.
    fn pool_backward_with(grad_out: Vec<usize>, argmax: usize) {
        let spec = Conv2dSpec::new(2, 2, 2, 0);
        let mut grad_in = Tensor::zeros(vec![0]);
        let grad_out = Tensor::filled(grad_out, 1.0);
        maxpool2d_backward_into(
            &grad_out,
            &vec![0; argmax],
            (1, 1, 4, 4),
            &spec,
            &mut grad_in,
        );
    }

    #[test]
    #[should_panic(expected = "maxpool grad_out has 3 elements for 4 argmax entries")]
    fn maxpool_backward_rejects_a_gradient_shorter_than_the_argmax() {
        pool_backward_with(vec![1, 1, 1, 3], 4);
    }

    #[test]
    #[should_panic(expected = "maxpool grad_out is not the pooled shape of (1, 1, 4, 4)")]
    fn maxpool_backward_rejects_a_gradient_of_another_shape() {
        pool_backward_with(vec![1, 1, 2, 3], 6);
    }

    /// The fused epilogue on hand-made convolution outputs, against ReLU
    /// then [`maxpool_oracle`]: the same pooled bits, and a route to the
    /// oracle's winner exactly where the pooled value is above zero.
    #[test]
    fn relu_pool_epilogue_is_relu_then_maxpool() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        let specials = [0.0, -0.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY];
        for (k, (f, oh, ow)) in [
            (2, (3, 9, 7)),
            (3, (2, 7, 10)),
            (1, (2, 3, 3)),
            (2, (1, 2, 2)),
        ] {
            let pool = Conv2dSpec::new(k, k, k, 0);
            let (ph, pw) = pooled_hw(&pool, (oh, ow));
            for case in 0..20 {
                // Five levels for ties; signed zeros, NaN and ±∞; whole
                // windows of one special value.
                let mut conv: Vec<f32> = (0..f * oh * ow)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => specials[rng.gen_range(0..specials.len())],
                        _ => rng.gen_range(-2i32..=2) as f32 * 0.5,
                    })
                    .collect();
                let v = specials[case % specials.len()];
                conv[..k * ow].fill(v);
                let relu_input =
                    Tensor::from_vec(vec![1, f, oh, ow], conv.iter().map(|&v| relu(v)).collect());
                let (want, want_idx) = maxpool_oracle(&relu_input, &pool);
                let (mut out, mut route) = (vec![f32::NAN; f * ph * pw], vec![7u8; f * ph * pw]);
                let mut images = ReluPool {
                    conv: &mut conv,
                    dims: (f, oh, ow),
                    pooled: (ph, pw),
                    pool: &pool,
                    out: &mut out,
                    route: Some(&mut route),
                };
                images.done(0);
                assert_eq!(bits(&out), bits(&want), "k={k} case {case}");
                for (o, ((&r, &i), &p)) in route.iter().zip(&want_idx).zip(&want).enumerate() {
                    let (py, px) = (o % (ph * pw) / pw, o % pw);
                    let winner = |ky: usize, kx: usize| {
                        (o / (ph * pw) * oh + py * k + ky) * ow + px * k + kx
                    };
                    assert_eq!(r != CLOSED, p > 0.0, "route {r} at {o}: k={k} case {case}");
                    if r != CLOSED {
                        assert_eq!(winner(usize::from(r >> 4), usize::from(r & 15)), i);
                    }
                }
                // Eval keeps no route and pools the same.
                let mut eval = vec![f32::NAN; f * ph * pw];
                let mut images = ReluPool {
                    conv: &mut conv,
                    dims: (f, oh, ow),
                    pooled: (ph, pw),
                    pool: &pool,
                    out: &mut eval,
                    route: None,
                };
                images.done(0);
                assert_eq!(bits(&eval), bits(&want), "eval k={k} case {case}");
            }
        }
    }

    #[test]
    fn relu_pool_block_keeps_one_image_of_convolution() {
        // Both LeNet-5 blocks, train forward and both backward forms: the
        // workspace grows exactly what the convolution's own passes grow
        // plus one image's `[f, oh, ow]`, and nothing of the batch's
        // `[n, f, oh, ow]` is written — the output and the route are the
        // pooled shape.
        let (spec, pool) = (Conv2dSpec::new(5, 5, 1, 0), Conv2dSpec::new(2, 2, 2, 0));
        let capacities = |ws: &ConvWorkspace| {
            [&ws.col, &ws.fmat, &ws.slab, &ws.gt, &ws.wt, &ws.img].map(|b| b.capacity())
        };
        for (c, hw, f) in [(1, 28, 6), (6, 12, 16)] {
            let (input, weight, bias, _) = operands((25, c, hw, hw, f), &spec, 3);
            let (oh, ow) = spec.output_hw(hw, hw);
            let (ph, pw) = pool.output_hw(oh, ow);
            let (mut gi, mut gw, mut gb) = (
                Tensor::zeros(vec![0]),
                Tensor::zeros(vec![0]),
                Tensor::zeros(vec![0]),
            );
            let (mut fused, mut plain) = (ConvWorkspace::new(), ConvWorkspace::new());
            let (mut out, mut route) = (Tensor::zeros(vec![0]), Vec::new());
            conv2d_relu_pool_forward_into(
                &input,
                &weight,
                &bias,
                &spec,
                &pool,
                &mut fused,
                &mut out,
                Some(&mut route),
            );
            assert_eq!(out.shape(), [25, f, ph, pw]);
            assert_eq!(route.len(), out.len());
            // The pooled output stands in for its own gradient.
            for gi in [None, Some(&mut gi)] {
                conv2d_relu_pool_backward_into(
                    &out, &route, &input, &weight, &spec, &pool, &mut fused, gi, &mut gw, &mut gb,
                );
            }
            let mut full = Tensor::zeros(vec![0]);
            conv2d_forward_into(&input, &weight, &bias, &spec, &mut plain, &mut full);
            for gi in [None, Some(&mut gi)] {
                conv2d_backward_into(
                    &full, &input, &weight, &spec, &mut plain, gi, &mut gw, &mut gb,
                );
            }
            assert_eq!(capacities(&fused), capacities(&plain), "c={c}");
            // No `∂input` buffer is a block's column gradient, or scales
            // with one: the slab is whole register tiles of rows.
            let x = block_images(c * 25, oh * ow, 25) * oh * ow;
            assert!(
                capacities(&fused).iter().all(|&cap| cap < c * 25 * x),
                "c={c}: {:?} against {} × {x}",
                capacities(&fused),
                c * 25
            );
            // Grown once, by the first block: the short last one fits.
            assert_eq!(fused.slab.capacity(), slab_rows(c * 25, x) * x, "c={c}");
            assert_eq!(
                (fused.conv.len(), plain.conv.capacity()),
                (f * oh * ow, 0),
                "c={c}"
            );
        }
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
