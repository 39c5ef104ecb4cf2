//! The blocked, parallel matrix-multiply engine.
//!
//! This module owns the flops of the whole stack: dense layers, the
//! im2col-lowered convolutions and every backward pass funnel into the
//! three GEMM orientations here (`A·B`, `Aᵀ·B`, `A·Bᵀ`), operating on raw
//! row-major `f32` slices so callers (e.g. batched conv) can avoid
//! intermediate `Tensor` allocations.
//!
//! # Dispatch
//!
//! Each entry point picks between two implementations by problem size
//! (`m·k·n` multiply-accumulates):
//!
//! * **small** (< [`SMALL_FLOPS`]): a straightforward loop in the same
//!   per-element accumulation order as [`crate::ops::reference`], so small
//!   results are *bitwise identical* to the reference oracle (several unit
//!   tests across the workspace rely on exact equality at toy sizes);
//! * **large**: a register-tiled kernel computing [`MR`]`×`[`NR`] output
//!   tiles whose accumulators stay in vector registers across the entire
//!   reduction — one store per output element instead of a load+store per
//!   reduction step, each `B` load reused across [`MR`] rows, and (with
//!   the per-element `== 0.0` branch of the old implementation removed)
//!   fixed-width inner loops that LLVM fully vectorizes. At or above
//!   [`PAR_FLOPS`], output rows are split into contiguous ranges processed
//!   in parallel on the current rayon pool.
//!
//! Floating-point note: the tiled path accumulates each output element in
//! ascending-`p` order — the reference association — but uses hardware
//! fused multiply-add where available (one rounding per step instead of
//! two), so large-path results can differ from the reference by normal
//! `k · ε` accumulation rounding (the equivalence proptests pin it under
//! `1e-4` for workspace-scale values). Results never depend on the thread
//! count: row ranges are disjoint and each output element is accumulated
//! in a fixed order.

use std::cell::Cell;
use std::ops::Range;

/// Below this many multiply-accumulates the reference-order loop wins
/// (tile bookkeeping costs more than it saves) and bitwise compatibility
/// with the oracle is preserved.
pub const SMALL_FLOPS: usize = 16 * 1024;

/// At or above this many multiply-accumulates the row range is split
/// across the rayon pool (when it has more than one thread).
pub const PAR_FLOPS: usize = 1 << 21;

/// Minimum reduction depth for B-panel packing to amortize; shallower
/// reductions read B in place.
pub const KPACK: usize = 64;

/// Register-tile height (output rows per tile) of the `A·B` / `Aᵀ·B`
/// kernels. Sized with [`NR`] so an `MR×NR` accumulator block fits the
/// vector register file of the compiled-for ISA (see `.cargo/config.toml`,
/// which enables the build machine's full ISA): oversized tiles spill to
/// the stack every iteration and run far slower than the naive loop.
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 6;
/// Register-tile height (output rows per tile); 256-bit-vector variant.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub const MR: usize = 6;
/// Register-tile height (output rows per tile); 128-bit-vector variant.
#[cfg(not(target_feature = "avx"))]
pub const MR: usize = 2;

/// Register-tile width (output columns per tile): accumulators for an
/// `MR×NR` tile stay in vector registers across the whole reduction.
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 32;
/// Register-tile width (output columns per tile); 256-bit-vector variant.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub const NR: usize = 16;
/// Register-tile width (output columns per tile); 128-bit-vector variant.
#[cfg(not(target_feature = "avx"))]
pub const NR: usize = 8;

/// `*acc += x * v`, fused into a single FMA when the target has hardware
/// FMA (one rounding step, double the port throughput of mul+add — rustc
/// never fuses plain `a += b * c` itself because that would change
/// rounding). Without hardware FMA, `mul_add` would lower to a libm call,
/// so fall back to the plain expression.
#[inline(always)]
fn fma_acc(acc: &mut f32, x: f32, v: f32) {
    #[cfg(target_feature = "fma")]
    {
        *acc = x.mul_add(v, *acc);
    }
    #[cfg(not(target_feature = "fma"))]
    {
        *acc += x * v;
    }
}

fn flops(m: usize, k: usize, n: usize) -> usize {
    m.saturating_mul(k).saturating_mul(n)
}

thread_local! {
    /// Per-thread scratch for the packed `B` panel of the tiled kernel.
    static PANEL_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the transposed `A` block of `Aᵀ·B`.
    static AT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the `Bᵀ` that `A·Bᵀ` gathers on every
    /// large call (see [`transpose_into`]).
    static BT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the zero-padded `B` panel of the
    /// narrow-output kernel.
    static NARROW_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the padded output of the narrow-output
    /// kernel.
    static NARROW_OUT: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on a per-thread scratch vector resized to `len`.
///
/// The vector is *taken* out of the thread-local cell for the duration of
/// `f` (so an unexpected reentrant use would fall back to a fresh
/// allocation instead of panicking) and put back afterwards, buffer
/// capacity intact. This is what makes the training hot path
/// allocation-free after warm-up: GEMM pack scratch is reused across
/// every step on each thread instead of being reallocated per call.
/// Newly exposed elements are zeroed; all three pack sites overwrite
/// their scratch completely before reading it.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut v = cell.with(Cell::take);
    v.resize(len, 0.0);
    let out = f(&mut v[..len]);
    cell.with(|c| c.set(v));
    out
}

/// Splits `out` into per-task row ranges and runs `kernel` over them on
/// the current pool. `kernel(rows, chunk)` must fill `chunk` (the output
/// rows `rows`) completely.
fn parallel_rows<F>(m: usize, n: usize, out: &mut [f32], kernel: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let threads = rayon::current_num_threads();
    // Aim for a few tasks per thread so uneven row costs balance out.
    let rows_per = m.div_ceil(threads * 2).max(1);
    let kernel = &kernel;
    rayon::scope(|s| {
        for (ci, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let r0 = ci * rows_per;
            s.spawn(move |_| kernel(r0..r0 + chunk.len() / n, chunk));
        }
    });
}

// ---------------------------------------------------------------------------
// out = A · B
// ---------------------------------------------------------------------------

/// `out = A · B` with `A: [m, k]`, `B: [k, n]`, `out: [m, n]` (overwritten).
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(out.len(), m * n, "gemm: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        out.fill(0.0);
        gemm_rows_small(0..m, k, n, a, b, out);
    } else if n < NR {
        // Narrow outputs have no full register strip; run the tiled
        // kernel over a zero-padded panel instead.
        gemm_narrow_tiled(m, k, n, a, b, out);
    } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
        parallel_rows(m, n, out, |rows, chunk| {
            gemm_rows_tiled(rows, k, n, a, b, chunk);
        });
    } else {
        gemm_rows_tiled(0..m, k, n, a, b, out);
    }
}

/// Register-tiled kernel for **narrow outputs** (`n <` [`NR`]): zero-pads
/// `B` to one full `NR`-column panel, runs the tiled kernel over it and
/// copies the `n` real columns back out.
///
/// Narrow outputs — classifier heads, thin dense layers — previously fell
/// back to the reference-order loop, whose `n`-wide inner loop neither
/// tiles nor vectorizes well; on the training hot path the head GEMM
/// cost more than the 6×-larger hidden-layer GEMM. The padding columns
/// are dead lanes (zeros in, discarded out); each real element still
/// accumulates in the tiled kernel's ascending-`p` FMA order, so this is
/// a large-path kernel like any other: deterministic at every thread
/// count, equivalent to the oracle within accumulation rounding.
fn gemm_narrow_tiled(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(n < NR && n > 0);
    with_scratch(&NARROW_B, k * NR, |bp| {
        for (dst, src) in bp.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..n].copy_from_slice(src);
            dst[n..].fill(0.0);
        }
        with_scratch(&NARROW_OUT, m * NR, |op| {
            gemm_rows_tiled(0..m, k, NR, a, bp, op);
            for (orow, prow) in out.chunks_exact_mut(n).zip(op.chunks_exact(NR)) {
                orow.copy_from_slice(&prow[..n]);
            }
        });
    });
}

/// Reference-order accumulation (`i`/`p`/`j`) for output rows `rows`.
fn gemm_rows_small(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        let arow = &a[i * k..(i + 1) * k];
        for (p, &apk) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                *o += apk * bpn;
            }
        }
    }
}

/// Register-tiled kernel for output rows `rows`.
///
/// The output is processed in [`MR`]-row × [`NR`]-column register tiles:
/// each tile's accumulators live in registers across the *entire* `k`
/// reduction (one store per output element instead of a load+store per
/// reduction step) and every packed `B` load is reused across [`MR`]
/// rows. The loop nest is strip-major: each `NR`-column panel of `B` is
/// packed contiguously once ([`pack_panel`]) and then swept by every row
/// group, so the hot loop reads two dense streams with no strided access
/// and no per-step bounds checks. Per output element the accumulation
/// visits `p` in ascending order one term at a time — the same
/// association as the reference oracle.
fn gemm_rows_tiled(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    // Packing a B panel pays off only when it is swept many times (deep
    // reductions). For short reductions (e.g. conv lowerings with tiny
    // c·kh·kw) the pack would cost as much as the tile compute, so read B
    // in place instead.
    let pack = k >= KPACK;
    with_scratch(&PANEL_SCRATCH, if pack { k * NR } else { 0 }, |bpack| {
        gemm_rows_tiled_with(rows, k, n, a, b, out, pack, bpack);
    });
}

/// Body of [`gemm_rows_tiled`] over caller-provided panel scratch.
#[allow(clippy::too_many_arguments)] // GEMM geometry + scratch; crate-internal
fn gemm_rows_tiled_with(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    pack: bool,
    bpack: &mut [f32],
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        if pack {
            pack_panel(bpack, b, n, j0);
        }
        let mut orows = out.chunks_exact_mut(MR * n);
        let mut i = rows.start;
        for ogroup in orows.by_ref() {
            let arows = &a[i * k..(i + MR) * k];
            if pack {
                tile_group::<MR>(ogroup, arows, bpack, k, n, j0);
            } else {
                tile_group_direct::<MR>(ogroup, arows, b, k, n, j0);
            }
            i += MR;
        }
        // The `< MR` leftover rows take the largest of the 4-, 2- and
        // 1-row tiles that fits: every tile re-streams the whole panel, so
        // five leftover rows cost two sweeps, not five. A row's result does
        // not depend on which tile height computed it.
        let mut rest = orows.into_remainder();
        while !rest.is_empty() {
            let left = rest.len() / n;
            let r = if MR > 4 && left >= 4 {
                4
            } else if MR > 2 && left >= 2 {
                2
            } else {
                1
            };
            let (ogroup, tail) = rest.split_at_mut(r * n);
            let arows = &a[i * k..(i + r) * k];
            match (r, pack) {
                (4, true) => tile_group::<4>(ogroup, arows, bpack, k, n, j0),
                (4, false) => tile_group_direct::<4>(ogroup, arows, b, k, n, j0),
                (2, true) => tile_group::<2>(ogroup, arows, bpack, k, n, j0),
                (2, false) => tile_group_direct::<2>(ogroup, arows, b, k, n, j0),
                (_, true) => tile_group::<1>(ogroup, arows, bpack, k, n, j0),
                (_, false) => tile_group_direct::<1>(ogroup, arows, b, k, n, j0),
            }
            i += r;
            rest = tail;
        }
        j0 += NR;
    }
    if j0 < n {
        for (r, orow) in out.chunks_exact_mut(n).enumerate() {
            let tail = &mut orow[j0..];
            tail.fill(0.0);
            edge_cols(
                tail,
                &a[(rows.start + r) * k..(rows.start + r + 1) * k],
                b,
                n,
                j0,
            );
        }
    }
}

/// Variant of [`tile_group`] reading the `B` panel in place (unpacked):
/// used for short reductions where packing cannot amortize.
fn tile_group_direct<const R: usize>(
    ogroup: &mut [f32],
    a_rows: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, brow) in b.chunks_exact(n).take(k).enumerate() {
        let bseg: &[f32; NR] = brow[j0..].first_chunk().expect("strip width");
        for (accr, arow) in acc.iter_mut().zip(a) {
            let x = arow[p];
            for (av, &bv) in accr.iter_mut().zip(bseg) {
                fma_acc(av, x, bv);
            }
        }
    }
    for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
        orow[j0..j0 + NR].copy_from_slice(&accr);
    }
}

/// Packs the `NR`-wide column panel of `B` starting at column `j0` into
/// `k` contiguous rows.
fn pack_panel(bpack: &mut [f32], b: &[f32], n: usize, j0: usize) {
    for (prow, brow) in bpack.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
        prow.copy_from_slice(&brow[j0..j0 + NR]);
    }
}

/// Computes the `R×NR` tile at rows `ogroup` (R concatenated output
/// rows), columns `j0..j0+NR`, from the `R` concatenated A rows and the
/// packed B panel.
///
/// Note the A scalars are deliberately loaded one `arow[p]` at a time
/// from `R` separate row slices: funnelling them through a contiguous
/// `[f32; R]` (packed-A layouts) makes LLVM lower the tile to
/// insert/extract shuffles instead of broadcasts and runs ~15× slower.
fn tile_group<const R: usize>(
    ogroup: &mut [f32],
    a_rows: &[f32],
    bpack: &[f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, bseg) in bpack.chunks_exact(NR).take(k).enumerate() {
        let bseg: &[f32; NR] = bseg.try_into().expect("panel width");
        for (accr, arow) in acc.iter_mut().zip(a) {
            let x = arow[p];
            for (av, &bv) in accr.iter_mut().zip(bseg) {
                fma_acc(av, x, bv);
            }
        }
    }
    for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
        orow[j0..j0 + NR].copy_from_slice(&accr);
    }
}

/// Reference-order fallback for the `n % NR` trailing columns of one row:
/// `o_tail += arow · B[:, j0..]` where `o_tail` starts at column `j0`.
fn edge_cols(o_tail: &mut [f32], arow: &[f32], b: &[f32], n: usize, j0: usize) {
    for (p, &x) in arow.iter().enumerate() {
        let btail = &b[p * n + j0..(p + 1) * n];
        for (o, &v) in o_tail.iter_mut().zip(btail) {
            *o += x * v;
        }
    }
}

// ---------------------------------------------------------------------------
// out = Aᵀ · B
// ---------------------------------------------------------------------------

/// `out = Aᵀ · B` with `A: [k, m]`, `B: [k, n]`, `out: [m, n]`
/// (overwritten), without materialising the transpose.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_at_b(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_at_b: A length");
    assert_eq!(b.len(), k * n, "gemm_at_b: B length");
    assert_eq!(out.len(), m * n, "gemm_at_b: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        out.fill(0.0);
        at_b_rows_small(0..m, k, m, n, a, b, out);
    } else if n < NR {
        // Narrow outputs: transpose A into row-major scratch once, then
        // run the padded-panel narrow kernel.
        with_scratch(&AT_SCRATCH, m * k, |packed| {
            for (c, prow) in packed.chunks_exact_mut(k).enumerate() {
                for (p, dst) in prow.iter_mut().enumerate() {
                    *dst = a[p * m + c];
                }
            }
            gemm_narrow_tiled(m, k, n, packed, b, out);
        });
    } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
        parallel_rows(m, n, out, |rows, chunk| {
            at_b_rows_tiled(rows, k, m, n, a, b, chunk);
        });
    } else {
        at_b_rows_tiled(0..m, k, m, n, a, b, out);
    }
}

/// Reference-order accumulation for `Aᵀ·B` restricted to output rows
/// `rows`. For one output row the reference (`p` outer) and this (`i`
/// outer, `p` inner) visit `p` in the same ascending order per element, so
/// results are bitwise identical to the oracle.
fn at_b_rows_small(
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        for p in 0..k {
            let api = a[p * m + i];
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                *o += api * bpn;
            }
        }
    }
}

/// Register-tiled `Aᵀ·B` for output rows `rows`.
///
/// Each group of [`MR`] output rows corresponds to [`MR`] *columns* of
/// `A`; those are packed (transposed) into a contiguous row-major scratch
/// block first, after which the shared [`tile_rows`] kernel runs
/// unchanged. The pack touches `A` once per group (`m·k` elements total —
/// noise next to the `m·k·n` reduction) and keeps the hot loop free of
/// strided loads, which LLVM otherwise lowers catastrophically at wider
/// tile shapes.
fn at_b_rows_tiled(
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    // Transpose this row range's column block of A into row-major form,
    // then run the shared row-major kernel. m·k moves, noise next to the
    // m·k·n reduction.
    with_scratch(&AT_SCRATCH, rows.len() * k, |packed| {
        for (c, prow) in packed.chunks_exact_mut(k).enumerate() {
            for (p, dst) in prow.iter_mut().enumerate() {
                *dst = a[p * m + rows.start + c];
            }
        }
        // The packed block holds exactly these rows, so index it from 0.
        gemm_rows_tiled(0..rows.len(), k, n, packed, b, out);
    });
}

// ---------------------------------------------------------------------------
// out = A · Bᵀ
// ---------------------------------------------------------------------------

/// `out = A · Bᵀ` with `A: [m, k]`, `B: [n, k]`, `out: [m, n]`
/// (overwritten), without materialising the transpose on the small path.
///
/// The large path gathers `Bᵀ` into scratch on every call
/// (`transpose_into`) and reuses the packed-panel tiled kernel, which
/// beats any dot-product formulation by a wide margin: row dot products
/// carry a serial FMA dependency chain, while the tiled kernel keeps
/// [`MR`]`·`[`NR`] independent accumulators in flight. The gather is `n·k`
/// moves against an `m·k·n` reduction, so its share is `1/m` of the
/// elements touched and far more of the time when `m` is small: this is
/// the `Dense` forward pass (`x·Wᵀ`, `m` = the batch), where at `m = 2`
/// the gather is most of the call. A caller that can produce `Bᵀ` directly
/// should call [`gemm`] instead, as the convolution backward pass does.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_a_bt: A length");
    assert_eq!(b.len(), n * k, "gemm_a_bt: B length");
    assert_eq!(out.len(), m * n, "gemm_a_bt: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        a_bt_rows_small(0..m, k, n, a, b, out);
        return;
    }
    with_scratch(&BT_SCRATCH, k * n, |bt| {
        transpose_into(bt, b, n, k);
        if n < NR {
            // Narrow outputs (e.g. classifier heads): padded-panel tiled
            // kernel over the transposed B.
            gemm_narrow_tiled(m, k, n, a, bt, out);
        } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
            let bt = &*bt;
            parallel_rows(m, n, out, |rows, chunk| {
                gemm_rows_tiled(rows, k, n, a, bt, chunk);
            });
        } else {
            gemm_rows_tiled(0..m, k, n, a, bt, out);
        }
    });
}

/// Source rows of `B` gathered per pass of [`transpose_into`]: one
/// 64-byte line of every `Bᵀ` row.
const BT_ROWS: usize = 16;

/// Writes `bt = Bᵀ` for `b: [n, k]`, `bt: [k, n]`, overwriting all of `bt`.
///
/// [`BT_ROWS`] source rows are read side by side, so each `bt` row receives
/// [`BT_ROWS`] adjacent elements at a time: the writes are contiguous runs
/// and the reads are a handful of sequential streams. Walking one source
/// row at a time instead writes a single element per `n`-strided line,
/// which at 128×784 costs ten times as much as this.
fn transpose_into(bt: &mut [f32], b: &[f32], n: usize, k: usize) {
    let mut blocks = b.chunks_exact(BT_ROWS * k);
    let mut j0 = 0;
    for block in blocks.by_ref() {
        let rows: [&[f32]; BT_ROWS] = std::array::from_fn(|r| &block[r * k..(r + 1) * k]);
        for (p, btrow) in bt.chunks_exact_mut(n).enumerate() {
            for (dst, row) in btrow[j0..j0 + BT_ROWS].iter_mut().zip(rows) {
                *dst = row[p];
            }
        }
        j0 += BT_ROWS;
    }
    for (j, brow) in blocks.remainder().chunks_exact(k).enumerate() {
        for (btrow, &v) in bt.chunks_exact_mut(n).zip(brow) {
            btrow[j0 + j] = v;
        }
    }
}

/// Reference-order dot products for output rows `rows`.
fn a_bt_rows_small(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i % 17) as f32 - 8.0) * scale).collect()
    }

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn gemm_matches_naive_across_sizes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (17, 33, 9), (64, 64, 64)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut out = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &a, &b));
        }
    }

    #[test]
    fn at_b_matches_transposed_naive() {
        for &(k, m, n) in &[(3, 2, 4), (16, 5, 9), (48, 33, 20)] {
            let a = seq(k * m, 0.25);
            let b = seq(k * n, 0.5);
            // A^T as an explicit matrix, then plain gemm.
            let mut at = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    at[i * k + p] = a[p * m + i];
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_at_b(k, m, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &at, &b));
        }
    }

    #[test]
    fn a_bt_matches_transposed_naive() {
        for &(m, k, n) in &[(2, 3, 4), (7, 16, 5), (21, 40, 33)] {
            let a = seq(m * k, 0.25);
            let b = seq(n * k, 0.5);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_a_bt(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &a, &bt));
        }
    }

    #[test]
    fn a_bt_is_bitwise_gemm_over_the_explicit_transpose() {
        // The blocked gather is pure data movement: at the conv and dense
        // shapes of both benchmark models (and widths on either side of
        // `BT_ROWS` / `NR`), `A·Bᵀ` must equal `gemm` over a transpose
        // written out element by element, bit for bit.
        for &n in &[10usize, 16, 25, 120, 128, 150] {
            for &k in &[84usize, 640, 784, 3456] {
                let b = seq(n * k, 0.03);
                let mut bt = vec![0.0f32; k * n];
                for j in 0..n {
                    for p in 0..k {
                        bt[p * n + j] = b[j * k + p];
                    }
                }
                for &m in &[2usize, 6, 25] {
                    let a = seq(m * k, 0.07);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_a_bt(m, k, n, &a, &b, &mut got);
                    let mut want = vec![f32::NAN; m * n];
                    gemm(m, k, n, &a, &bt, &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn large_path_engages_and_agrees() {
        // 40×40×40 = 64000 flops: above SMALL_FLOPS, exercises the tiled
        // kernel including odd-row/odd-k remainders at 41.
        for &d in &[40usize, 41] {
            let a = seq(d * d, 0.1);
            let b = seq(d * d, 0.2);
            let mut out = vec![f32::NAN; d * d];
            gemm(d, d, d, &a, &b, &mut out);
            assert_close(&out, &naive(d, d, d, &a, &b));
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let d = 160; // above PAR_FLOPS
        let a = seq(d * d, 0.01);
        let b = seq(d * d, 0.02);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut out = vec![0.0f32; d * d];
                gemm(d, d, d, &a, &b, &mut out);
                let mut out2 = vec![0.0f32; d * d];
                gemm_at_b(d, d, d, &a, &b, &mut out2);
                let mut out3 = vec![0.0f32; d * d];
                gemm_a_bt(d, d, d, &a, &b, &mut out3);
                (out, out2, out3)
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(7));
    }
}
