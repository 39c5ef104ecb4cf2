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
//!   fixed-width inner loops that LLVM fully vectorizes. `B` is swept one
//!   `NR`-column strip at a time; an output narrower than `NR` is one
//!   zero-padded strip, and the `n % NR` columns past the last full strip
//!   of a wider one are the **edge strip**, packed zero-padded and swept by
//!   the same tiles. At or above [`PAR_FLOPS`], output rows are split into
//!   contiguous ranges processed in parallel on the current rayon pool.
//!
//! # Rounding contract
//!
//! Every output element accumulates its `k` products in ascending-`p`
//! order from +0.0 — the reference association. Only the rounding of a
//! step depends on the path, and only through the column:
//!
//! * small path and edge strip: multiply, then add (two roundings);
//! * full strips and narrow outputs: hardware fused multiply-add where
//!   the target has FMA (one rounding), multiply-then-add where it does
//!   not.
//!
//! So large-path results can differ from the reference by normal `k · ε`
//! accumulation rounding (the equivalence proptests pin it under `1e-4`
//! for workspace-scale values), and `tests/engine_rounding.rs` pins the
//! contract itself bit for bit. Results never depend on the thread count
//! or on which tile height computed a row: row ranges are disjoint and
//! each output element is accumulated in a fixed order.

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
    /// Per-thread scratch for the `[k, NR]` panel a strip is swept from:
    /// a packed full strip, the zero-padded edge strip, or a narrow
    /// output's zero-padded `B`.
    static PANEL_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the transposed `A` block of `Aᵀ·B`.
    static AT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the `Bᵀ` that `A·Bᵀ` gathers on every
    /// large call (see [`transpose_into`]).
    static BT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the first `len` elements of a per-thread scratch vector.
///
/// The vector is *taken* out of the thread-local cell for the duration of
/// `f` (so an unexpected reentrant use would fall back to a fresh
/// allocation instead of panicking) and put back afterwards, buffer
/// intact. This is what makes the training hot path allocation-free after
/// warm-up: GEMM pack scratch is reused across every step on each thread
/// instead of being reallocated per call. The vector keeps its high-water
/// length, so a smaller call does not make the next larger one re-zero
/// it; every pack site overwrites its slice completely before reading it.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut v = cell.with(Cell::take);
    if v.len() < len {
        v.resize(len, 0.0);
    }
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
        // Narrow outputs have no full register strip: sweep one
        // zero-padded strip instead.
        with_scratch(&PANEL_SCRATCH, k * NR, |panel| {
            pack_panel(panel, b, n, 0, n);
            gemm_narrow_panel(k, n, a, panel, out);
        });
    } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
        parallel_rows(m, n, out, |rows, chunk| {
            gemm_rows_tiled(rows, k, n, a, b, chunk);
        });
    } else {
        gemm_rows_tiled(0..m, k, n, a, b, out);
    }
}

/// The row stride at which [`gemm_strided`] wants the `B: [k, n]` of an
/// `m×k×n` product: [`NR`] when the product is large and narrower than one
/// strip — the narrow tiled path, which sweeps `B` as one zero-padded
/// `[k, NR]` panel — and `n` otherwise.
pub(crate) fn b_stride(m: usize, k: usize, n: usize) -> usize {
    if n < NR && flops(m, k, n) >= SMALL_FLOPS {
        NR
    } else {
        n
    }
}

/// [`gemm`] over a `B` its producer wrote at row stride
/// `ldb = b_stride(m, k, n)`, lanes `n..ldb` of every row zero.
///
/// At `ldb == n` this *is* `gemm`. At `ldb == NR` the panel is swept as
/// is: the convolution backward pass lowers `colᵀ` straight into it
/// instead of handing `gemm` a `[k, n]` operand to pad into scratch. The
/// bits are `gemm`'s either way — the same fused chain over the same
/// operand values.
///
/// # Panics
///
/// Panics if `ldb` is not `b_stride(m, k, n)` or a slice length disagrees
/// with its dimensions.
pub(crate) fn gemm_strided(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
) {
    assert_eq!(ldb, b_stride(m, k, n), "gemm_strided: B row stride");
    if ldb == n {
        return gemm(m, k, n, a, b, out);
    }
    assert_eq!(a.len(), m * k, "gemm_strided: A length");
    assert_eq!(b.len(), k * NR, "gemm_strided: B length");
    assert_eq!(out.len(), m * n, "gemm_strided: out length");
    gemm_narrow_panel(k, n, a, b, out);
}

/// `out = A · B` for a narrow output (`n <` [`NR`]) from `B` laid out as
/// one `[k, NR]` panel whose lanes `n..NR` are zero: a single fused strip
/// stored `n` columns wide.
///
/// Narrow outputs — classifier heads, thin dense layers, conv1's `∂W` —
/// would neither tile nor vectorize in an `n`-wide loop. The padding lanes
/// are dead (zeros in, never stored); each real element accumulates in the
/// tiled kernel's ascending-`p` FMA order, so this is a large-path kernel
/// like any other.
fn gemm_narrow_panel(k: usize, n: usize, a: &[f32], panel: &[f32], out: &mut [f32]) {
    debug_assert!(n < NR && n > 0);
    let strip = Strip {
        b: panel,
        ld: NR,
        c0: 0,
        j0: 0,
        width: n,
    };
    sweep::<true>(0, k, n, a, out, strip);
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

/// Register-tiled kernel for output rows `rows` of an output at least
/// [`NR`] wide.
///
/// The loop nest is strip-major: each `NR`-column strip of `B` is swept by
/// every row group ([`sweep`]). For deep reductions (`k ≥` [`KPACK`]) a
/// full strip is packed contiguously once ([`pack_panel`]) so the hot
/// loop reads two dense streams; for short ones (e.g. conv lowerings with
/// tiny `c·kh·kw`) the pack would cost as much as the tile compute, so `B`
/// is read in place. The `n % NR` trailing columns are always packed, into
/// a zero-padded panel, and swept as the edge strip.
fn gemm_rows_tiled(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let pack = k >= KPACK;
    let tail = n % NR;
    let scratch = if pack || tail > 0 { k * NR } else { 0 };
    with_scratch(&PANEL_SCRATCH, scratch, |panel| {
        for j0 in (0..n - tail).step_by(NR) {
            let strip = if pack {
                pack_panel(panel, b, n, j0, NR);
                Strip {
                    b: panel,
                    ld: NR,
                    c0: 0,
                    j0,
                    width: NR,
                }
            } else {
                Strip {
                    b,
                    ld: n,
                    c0: j0,
                    j0,
                    width: NR,
                }
            };
            sweep::<true>(rows.start, k, n, a, out, strip);
        }
        if tail > 0 {
            let j0 = n - tail;
            pack_panel(panel, b, n, j0, tail);
            let strip = Strip {
                b: panel,
                ld: NR,
                c0: 0,
                j0,
                width: tail,
            };
            sweep::<false>(rows.start, k, n, a, out, strip);
        }
    });
}

/// Packs columns `j0..j0 + width` of `B: [k, n]` into the `[k, NR]`
/// panel, zeroing lanes `width..NR` of every row (in one fill of the
/// whole panel: a fill call per short pad measured slower).
fn pack_panel(panel: &mut [f32], b: &[f32], n: usize, j0: usize, width: usize) {
    if width < NR {
        panel.fill(0.0);
    }
    for (prow, brow) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
        prow[..width].copy_from_slice(&brow[j0..j0 + width]);
    }
}

/// One `NR`-wide column strip of `B` as the register tiles read it: row
/// `p` is `b[p·ld + c0..][..NR]`, and its first `width` lanes are the
/// output columns `j0..j0 + width` (the rest are padding, never stored).
#[derive(Clone, Copy)]
struct Strip<'a> {
    b: &'a [f32],
    ld: usize,
    c0: usize,
    j0: usize,
    width: usize,
}

/// Sweeps one strip over every row of `out` (the output rows from `i0`
/// on, `n` wide): [`MR`]-row tiles, then the `< MR` leftover rows in the
/// largest of the 4-, 2- and 1-row tiles that fits — every tile
/// re-streams the whole strip, so five leftover rows cost two sweeps, not
/// five. A row's result does not depend on which tile height computed it.
/// `FUSED` picks the step: `fma_acc` for full and narrow strips,
/// multiply-then-add for the edge strip. Inlined into each caller: a call
/// per strip measured ~10 % slower on conv1's forward GEMM (`k = 25`).
#[inline(always)]
fn sweep<const FUSED: bool>(
    i0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    strip: Strip<'_>,
) {
    let mut orows = out.chunks_exact_mut(MR * n);
    let mut i = i0;
    for ogroup in orows.by_ref() {
        tile::<MR, FUSED>(ogroup, &a[i * k..(i + MR) * k], k, n, strip);
        i += MR;
    }
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
        match r {
            4 => tile::<4, FUSED>(ogroup, arows, k, n, strip),
            2 => tile::<2, FUSED>(ogroup, arows, k, n, strip),
            _ => tile::<1, FUSED>(ogroup, arows, k, n, strip),
        }
        i += r;
        rest = tail;
    }
}

/// Computes the `R×NR` tile of one strip at the `R` concatenated output
/// rows `ogroup` from the `R` concatenated `A` rows, and stores the
/// strip's `width` real columns.
///
/// A full fused strip accumulates and stores in place. A partial one — a
/// narrow output or the edge strip — accumulates behind a call boundary
/// ([`accumulate_outlined`]): LLVM keeps a tile's accumulators in vector
/// registers only while every access to them has a constant width, and
/// the `width`-long store would otherwise pin them to the stack (measured
/// 5–20× slower). Behind the call the store reads a returned copy. At
/// `k = 25` the call and the copy cost up to half a tile, so full strips
/// — every short reduction's bulk — do not pay them. The tile itself is
/// never inlined: inside the sweep, LLVM scalarizes even the full strips'
/// accumulators (measured ~16× slower at conv1's forward shape).
#[inline(never)]
fn tile<const R: usize, const FUSED: bool>(
    ogroup: &mut [f32],
    a_rows: &[f32],
    k: usize,
    n: usize,
    strip: Strip<'_>,
) {
    let j0 = strip.j0;
    if FUSED && strip.width == NR {
        let acc = accumulate::<R, FUSED>(a_rows, k, strip);
        for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
            orow[j0..j0 + NR].copy_from_slice(&accr);
        }
    } else {
        let acc = accumulate_outlined::<R, FUSED>(a_rows, k, strip);
        for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
            orow[j0..j0 + strip.width].copy_from_slice(&accr[..strip.width]);
        }
    }
}

/// [`accumulate`] behind a call boundary (see [`tile`]).
#[inline(never)]
fn accumulate_outlined<const R: usize, const FUSED: bool>(
    a_rows: &[f32],
    k: usize,
    strip: Strip<'_>,
) -> [[f32; NR]; R] {
    accumulate::<R, FUSED>(a_rows, k, strip)
}

/// The `R×NR` accumulators of one tile over the whole reduction, each
/// lane from +0.0 in ascending `p`: `fma_acc` steps when `FUSED`,
/// multiply-then-add otherwise.
///
/// Note the A scalars are deliberately loaded one `arow[p]` at a time
/// from `R` separate row slices: funnelling them through a contiguous
/// `[f32; R]` (packed-A layouts) makes LLVM lower the tile to
/// insert/extract shuffles instead of broadcasts and runs ~15× slower.
#[inline(always)]
fn accumulate<const R: usize, const FUSED: bool>(
    a_rows: &[f32],
    k: usize,
    strip: Strip<'_>,
) -> [[f32; NR]; R] {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, brow) in strip.b.chunks_exact(strip.ld).take(k).enumerate() {
        let bseg: &[f32; NR] = brow[strip.c0..].first_chunk().expect("strip width");
        for (accr, arow) in acc.iter_mut().zip(a) {
            let x = arow[p];
            for (av, &bv) in accr.iter_mut().zip(bseg) {
                if FUSED {
                    fma_acc(av, x, bv);
                } else {
                    *av += x * bv;
                }
            }
        }
    }
    acc
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
        // run the narrow path over it.
        with_scratch(&AT_SCRATCH, m * k, |packed| {
            for (c, prow) in packed.chunks_exact_mut(k).enumerate() {
                for (p, dst) in prow.iter_mut().enumerate() {
                    *dst = a[p * m + c];
                }
            }
            gemm(m, k, n, packed, b, out);
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
/// block first, after which the shared [`gemm_rows_tiled`] kernel runs
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
/// (`transpose_into`) and hands it to [`gemm`]'s large path, which beats
/// any dot-product formulation by a wide margin: row dot products carry a
/// serial FMA dependency chain, while the tiled kernel keeps
/// [`MR`]`·`[`NR`] independent accumulators in flight. A narrow `Bᵀ` is
/// gathered straight into the zero-padded panel the narrow path sweeps.
/// The gather is `n·k` moves against an `m·k·n` reduction, so its share is
/// `1/m` of the elements touched and far more of the time when `m` is
/// small: this is the `Dense` forward pass (`x·Wᵀ`, `m` = the batch),
/// where at `m = 2` the gather is most of the call. A caller that can
/// produce `Bᵀ` directly should call [`gemm`] instead, as the convolution
/// backward pass does.
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
    if flops(m, k, n) < SMALL_FLOPS {
        a_bt_rows_small(0..m, k, n, a, b, out);
        return;
    }
    let ldb = b_stride(m, k, n);
    with_scratch(&BT_SCRATCH, k * ldb, |bt| {
        transpose_into(bt, b, n, k, ldb);
        gemm_strided(m, k, n, a, bt, ldb, out);
    });
}

/// Source rows of `B` gathered per pass of [`transpose_into`]: one
/// 64-byte line of every `Bᵀ` row.
const BT_ROWS: usize = 16;

/// Writes `Bᵀ` for `b: [n, k]` into `bt: [k, ldb]` at row stride
/// `ldb ≥ n`, zeroing lanes `n..ldb`, so all of `bt` is overwritten.
///
/// [`BT_ROWS`] source rows are read side by side, so each `bt` row receives
/// [`BT_ROWS`] adjacent elements at a time: the writes are contiguous runs
/// and the reads are a handful of sequential streams. Walking one source
/// row at a time instead writes a single element per `n`-strided line,
/// which at 128×784 costs ten times as much as this.
fn transpose_into(bt: &mut [f32], b: &[f32], n: usize, k: usize, ldb: usize) {
    if ldb > n {
        bt.fill(0.0);
    }
    let mut blocks = b.chunks_exact(BT_ROWS * k);
    let mut j0 = 0;
    for block in blocks.by_ref() {
        let rows: [&[f32]; BT_ROWS] = std::array::from_fn(|r| &block[r * k..(r + 1) * k]);
        for (p, btrow) in bt.chunks_exact_mut(ldb).enumerate() {
            for (dst, row) in btrow[j0..j0 + BT_ROWS].iter_mut().zip(rows) {
                *dst = row[p];
            }
        }
        j0 += BT_ROWS;
    }
    for (j, brow) in blocks.remainder().chunks_exact(k).enumerate() {
        for (btrow, &v) in bt.chunks_exact_mut(ldb).zip(brow) {
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
