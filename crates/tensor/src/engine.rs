//! The blocked, parallel matrix-multiply engine.
//!
//! This module owns the flops of the whole stack: dense layers, the
//! convolutions and every backward pass funnel into the three GEMM
//! orientations here (`A·B`, `Aᵀ·B`, `A·Bᵀ`), operating on raw row-major
//! `f32` slices so callers (e.g. batched conv) can avoid intermediate
//! `Tensor` allocations. `Aᵀ·B` also has an accumulating form,
//! [`gemm_at_b_add`], whose stores add each finished element to the
//! output — a layer's weight gradient — instead of overwriting it, and a
//! crate-private row-range form, `gemm_at_b_rows`, that computes a slab
//! of the output's rows with the whole product's bits. Two more,
//! crate-private forms read an operand that is never laid out out of the
//! convolution's images: `gemm_offsets`
//! sweeps the forward's `B` — the image, its rows at fixed offsets —
//! through the same tiles, and stores only the columns it is told to,
//! plus a bias; `gemm_taps` sweeps the backward's `A` — one row per
//! kernel tap, read at a per-tap offset from each output row of each
//! image — against a narrow `G` of 8 or 16 lanes.
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
//!   the same tiles.
//!
//! # Parallelism
//!
//! Only [`gemm`] forks: at or above [`PAR_FLOPS`] it splits its output
//! rows into contiguous ranges processed in parallel on the current rayon
//! pool. Every other entry point sweeps its rows on the calling thread.
//! Training already runs one client per pool thread, so a kernel split
//! only pays off where one large product runs alone, and at the shapes the
//! workloads run that is one product: the MLP's first `Dense` forward
//! over a whole evaluation chunk, through `gemm`. A fork-counting run of
//! the four benchmark workloads at two threads saw `gemm_offsets`,
//! `gemm_taps` and `gemm_at_b` never split their rows, so they carry no
//! split.
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
//!   not. `gemm_offsets` sweeps full strips only.
//!
//! `fused_columns` states which columns of a product are which, and
//! [`gemm`] dispatches on it. `gemm_taps` reproduces the columns of a
//! `gemm` it never runs — the lowered convolution `∂W = G · colᵀ` — as its
//! rows, so it takes each row's step from the same rule: fused for the
//! rows `fused_columns` names, multiply-then-add for the rest.
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

/// At or above this many multiply-accumulates [`gemm`] splits its row
/// range across the rayon pool (when it has more than one thread).
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
    /// Per-thread scratch for the `[k, NR]` panel `A·Bᵀ` transposes one
    /// strip of `B` into (see [`transpose_into`]) — or, on a call that
    /// splits its rows across the pool, the whole `Bᵀ` its tasks share.
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
    match fused_columns(m, k, n) {
        0 => {
            out.fill(0.0);
            gemm_rows_small(0..m, k, n, a, b, out);
        }
        fused if fused < NR => gemm_narrow::<false>(k, n, a, b, out),
        _ if flops(m, k, n) >= PAR_FLOPS && rayon::current_num_threads() > 1 => {
            parallel_rows(m, n, out, |rows, chunk| {
                gemm_rows_tiled::<false>(rows, k, n, a, b, chunk);
            });
        }
        _ => gemm_rows_tiled::<false>(0..m, k, n, a, b, out),
    }
}

/// How many leading output columns of an `m×k×n` product [`gemm`]
/// accumulates with `fma_acc` steps: none on the small path, every column
/// of a narrow output (`n <` [`NR`]), and the whole strips of a wider one.
/// The other columns — all of a small product, the `n % NR` edge strip
/// of a large one — multiply, then add.
///
/// This is the rounding contract's one statement of which step a column
/// takes: [`gemm`] dispatches on it, and [`gemm_taps`], which reproduces
/// `gemm`'s columns as its rows, splits its sweep at it.
pub(crate) fn fused_columns(m: usize, k: usize, n: usize) -> usize {
    if flops(m, k, n) < SMALL_FLOPS {
        0
    } else if n < NR {
        n
    } else {
        n - n % NR
    }
}

/// `out = A · B` (`out += A · B` when `ADD`) for a narrow output
/// (`n <` [`NR`]): `B` is packed into one zero-padded strip
/// ([`gemm_narrow_panel`]). Narrow outputs have no full register strip.
fn gemm_narrow<const ADD: bool>(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    with_scratch(&PANEL_SCRATCH, k * NR, |panel| {
        pack_panel(panel, b, n, 0, n);
        gemm_narrow_panel::<ADD>(k, n, a, panel, out);
    });
}

/// `out = A · B` (`out += A · B` when `ADD`) for a narrow output
/// (`n <` [`NR`]) from `B` laid out as one `[k, NR]` panel whose lanes
/// `n..NR` are zero: a single fused strip stored `n` columns wide.
///
/// Narrow outputs — classifier heads, thin dense layers —
/// would neither tile nor vectorize in an `n`-wide loop. The padding lanes
/// are dead (zeros in, never stored); each real element accumulates in the
/// tiled kernel's ascending-`p` FMA order, so this is a large-path kernel
/// like any other.
fn gemm_narrow_panel<const ADD: bool>(
    k: usize,
    n: usize,
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
) {
    debug_assert!(n < NR && n > 0);
    let strip = Dense::<ADD> {
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
/// [`NR`] wide, overwriting them (adding to them when `ADD`).
///
/// The loop nest is strip-major: each `NR`-column strip of `B` is swept by
/// every row group ([`sweep`]). For deep reductions (`k ≥` [`KPACK`]) a
/// full strip is packed contiguously once ([`pack_panel`]) so the hot
/// loop reads two dense streams; for short ones (e.g. conv lowerings with
/// tiny `c·kh·kw`) the pack would cost as much as the tile compute, so `B`
/// is read in place. The `n % NR` trailing columns are always packed, into
/// a zero-padded panel, and swept as the edge strip.
fn gemm_rows_tiled<const ADD: bool>(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let pack = k >= KPACK;
    let tail = n % NR;
    let scratch = if pack || tail > 0 { k * NR } else { 0 };
    with_scratch(&PANEL_SCRATCH, scratch, |panel| {
        for j0 in (0..n - tail).step_by(NR) {
            let strip = if pack {
                pack_panel(panel, b, n, j0, NR);
                Dense::<ADD> {
                    b: panel,
                    ld: NR,
                    c0: 0,
                    j0,
                    width: NR,
                }
            } else {
                Dense::<ADD> {
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
            let strip = Dense::<ADD> {
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

/// How the register tiles read one `NR`-wide column strip of `B` and
/// store what they computed: where each row's `NR` lanes start, and where
/// an output row's finished lanes go. Every layout is swept by the same
/// [`sweep`] / [`tile`] / [`accumulate`], so the rounding contract has one
/// implementation.
trait Strip<'a>: Copy {
    /// The strip's `NR` lanes of `B` rows `0..k`, in ascending order.
    fn rows(self, k: usize) -> impl Iterator<Item = &'a [f32; NR]>;
    /// `Some(j0)` when all `NR` lanes are stored as is, at output columns
    /// `j0..j0 + NR`: the one store a tile can make without a copy of its
    /// accumulators (see [`tile`]).
    fn whole(self) -> Option<usize>;
    /// Stores output row `i`'s finished lanes `acc` into its row `orow`.
    fn store(self, orow: &mut [f32], i: usize, acc: &[f32; NR]);
}

/// A strip of a laid-out `B`: row `p` is `b[p·ld + c0..][..NR]`, and its
/// first `width` lanes are the output columns `j0..j0 + width` (the rest
/// are padding, never stored). With `ADD` each finished lane is added to
/// its output element — one add of the whole dot product, so the result
/// is bit for bit the overwriting product followed by `out += product`.
#[derive(Clone, Copy)]
struct Dense<'a, const ADD: bool> {
    b: &'a [f32],
    ld: usize,
    c0: usize,
    j0: usize,
    width: usize,
}

impl<'a, const ADD: bool> Strip<'a> for Dense<'a, ADD> {
    fn rows(self, k: usize) -> impl Iterator<Item = &'a [f32; NR]> {
        let rows = self.b.chunks_exact(self.ld).take(k);
        rows.map(move |brow| brow[self.c0..].first_chunk().expect("strip width"))
    }

    /// An adding strip is never whole: adding to the output in the tile
    /// itself pins its accumulators to the stack (see [`tile`]), so its
    /// lanes are added by [`Strip::store`] behind the call boundary.
    fn whole(self) -> Option<usize> {
        (self.width == NR && !ADD).then_some(self.j0)
    }

    fn store(self, orow: &mut [f32], _: usize, acc: &[f32; NR]) {
        let (dst, acc) = (&mut orow[self.j0..self.j0 + self.width], &acc[..self.width]);
        if ADD {
            for (o, &v) in dst.iter_mut().zip(acc) {
                *o += v;
            }
        } else {
            dst.copy_from_slice(acc);
        }
    }
}

/// A strip of a `B` that is never laid out ([`gemm_offsets`]): row `p` is
/// `b[offs[p] + c0..][..NR]`, and the lanes `runs` name are stored plus
/// the output row's `bias`.
#[derive(Clone, Copy)]
struct Offset<'a> {
    b: &'a [f32],
    offs: &'a [usize],
    c0: usize,
    runs: &'a [Run],
    bias: &'a [f32],
}

impl<'a> Strip<'a> for Offset<'a> {
    fn rows(self, k: usize) -> impl Iterator<Item = &'a [f32; NR]> {
        let rows = self.offs[..k].iter();
        rows.map(move |&o| {
            self.b[o + self.c0..]
                .first_chunk()
                .expect("row holds the strip")
        })
    }

    fn whole(self) -> Option<usize> {
        None
    }

    fn store(self, orow: &mut [f32], i: usize, acc: &[f32; NR]) {
        let bias = self.bias[i];
        for run in self.runs {
            let lanes = &acc[run.lane..run.lane + run.len];
            for (o, &v) in orow[run.dst..run.dst + run.len].iter_mut().zip(lanes) {
                *o = v + bias;
            }
        }
    }
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
fn sweep<'a, const FUSED: bool>(
    i0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    out: &mut [f32],
    strip: impl Strip<'a>,
) {
    let mut orows = out.chunks_exact_mut(MR * n);
    let mut i = i0;
    for ogroup in orows.by_ref() {
        tile::<MR, FUSED>(ogroup, &a[i * k..(i + MR) * k], k, n, i, strip);
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
            4 => tile::<4, FUSED>(ogroup, arows, k, n, i, strip),
            2 => tile::<2, FUSED>(ogroup, arows, k, n, i, strip),
            _ => tile::<1, FUSED>(ogroup, arows, k, n, i, strip),
        }
        i += r;
        rest = tail;
    }
}

/// Computes the `R×NR` tile of one strip at the `R` concatenated output
/// rows `ogroup` (output rows `i..i + R`) from the `R` concatenated `A`
/// rows, and stores it.
///
/// A whole fused strip accumulates and stores in place. Any other — a
/// narrow output, the edge strip, an offset strip's runs, a strip that
/// adds to the output — accumulates
/// behind a call boundary ([`accumulate_outlined`]): LLVM keeps a tile's
/// accumulators in vector registers only while every access to them has
/// a constant width, and a `width`-long store would otherwise pin them to
/// the stack (measured 5–20× slower). Behind the call the store reads a
/// returned copy. At `k = 25` the call and the copy cost up to half a
/// tile, so whole strips — every short reduction's bulk — do not pay
/// them. The tile itself is never inlined: inside the sweep, LLVM
/// scalarizes even the whole strips' accumulators (measured ~16× slower
/// at conv1's forward shape).
#[inline(never)]
fn tile<'a, const R: usize, const FUSED: bool>(
    ogroup: &mut [f32],
    a_rows: &[f32],
    k: usize,
    n: usize,
    i: usize,
    strip: impl Strip<'a>,
) {
    match strip.whole() {
        Some(j0) if FUSED => {
            let acc = accumulate::<R, FUSED>(a_rows, k, strip);
            for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
                orow[j0..j0 + NR].copy_from_slice(&accr);
            }
        }
        _ => {
            let acc = accumulate_outlined::<R, FUSED>(a_rows, k, strip);
            for ((orow, accr), i) in ogroup.chunks_exact_mut(n).zip(&acc).zip(i..) {
                strip.store(orow, i, accr);
            }
        }
    }
}

/// [`accumulate`] behind a call boundary (see [`tile`]).
#[inline(never)]
fn accumulate_outlined<'a, const R: usize, const FUSED: bool>(
    a_rows: &[f32],
    k: usize,
    strip: impl Strip<'a>,
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
fn accumulate<'a, const R: usize, const FUSED: bool>(
    a_rows: &[f32],
    k: usize,
    strip: impl Strip<'a>,
) -> [[f32; NR]; R] {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, bseg) in strip.rows(k).enumerate() {
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
// out = A · B + bias over an offset-addressed B
// ---------------------------------------------------------------------------

/// One run of stored lanes in an offset strip: lanes `lane..lane + len`
/// are output columns `dst..dst + len`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    lane: usize,
    len: usize,
    dst: usize,
}

/// How [`gemm_offsets`] addresses its `B` and stores its output: row `p`
/// of `B` starts at `offs[p]` in the slice it is given, and `B` is
/// `strips` whole [`NR`]-column strips wide, strip `j` storing the runs
/// `runs[starts[j]..starts[j + 1]]`. Rebuilt in place, so a caller that
/// keeps one allocates only while the tables grow.
#[derive(Debug, Default, Clone)]
pub(crate) struct OffsetLayout {
    offs: Vec<usize>,
    runs: Vec<Run>,
    starts: Vec<usize>,
}

impl OffsetLayout {
    /// Rebuilds the tables for row starts `offs` and `strips` strips, in
    /// which column `q` is stored at output column `dst(q)`, or dropped
    /// where that is `None`. Adjacent columns stored side by side share
    /// one run.
    pub(crate) fn rebuild(
        &mut self,
        offs: impl Iterator<Item = usize>,
        strips: usize,
        dst: impl Fn(usize) -> Option<usize>,
    ) {
        self.offs.clear();
        self.offs.extend(offs);
        self.runs.clear();
        self.starts.clear();
        self.starts.push(0);
        for j0 in (0..strips * NR).step_by(NR) {
            let first = self.runs.len();
            for lane in 0..NR {
                let Some(d) = dst(j0 + lane) else { continue };
                match self.runs[first..].last_mut() {
                    Some(run) if run.lane + run.len == lane && run.dst + run.len == d => {
                        run.len += 1
                    }
                    _ => self.runs.push(Run {
                        lane,
                        len: 1,
                        dst: d,
                    }),
                }
            }
            self.starts.push(self.runs.len());
        }
    }
}

/// `out[i, ·] = A[i, ·] · B + bias[i]` over a `B` that is never laid out:
/// `A: [m, k]` with `k` the number of row starts in `layout`, `out: [m, n]`,
/// row `p` of `B` is `b[offs[p]..]`, and only the lanes the layout's runs
/// name are stored (see [`OffsetLayout`]). The others are computed and
/// dropped, so they may read anything — the next image, the pad lanes of
/// a row — as long as every strip row lies inside `b`.
///
/// This is the convolution forward's GEMM over the image itself
/// (`conv`): every strip is whole and fused, so each stored element is
/// the ascending-`p` `fma_acc` chain from +0.0 that [`gemm`]'s large path
/// computes for a column of a full strip, then one add of its bias — the
/// bits of `gemm` into a staging matrix followed by a bias pass.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or a strip row
/// leaves `b`.
pub(crate) fn gemm_offsets(
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    layout: &OffsetLayout,
    bias: &[f32],
    out: &mut [f32],
) {
    let k = layout.offs.len();
    assert_eq!(a.len(), m * k, "gemm_offsets: A length");
    assert_eq!(bias.len(), m, "gemm_offsets: bias length");
    assert_eq!(out.len(), m * n, "gemm_offsets: out length");
    if m == 0 || n == 0 {
        return;
    }
    for (j, runs) in layout.starts.windows(2).enumerate() {
        let strip = Offset {
            b,
            offs: &layout.offs,
            c0: j * NR,
            runs: &layout.runs[runs[0]..runs[1]],
            bias,
        };
        sweep::<true>(0, k, n, a, out, strip);
    }
}

// ---------------------------------------------------------------------------
// out = A · G over a tap-addressed A
// ---------------------------------------------------------------------------

/// Output lanes of a [`gemm_taps`] tile for an `n`-column `G`: 8 up to 8
/// columns, else 16 per lane group. The width follows `n`, not [`NR`]:
/// the convolution `∂W` this serves has 6 or 16 filters, and every lane
/// past them is a padding lane computed for nothing (conv1's backward ran
/// at about twice the time at 32 lanes as at 8).
pub(crate) fn tap_lanes(n: usize) -> usize {
    if n <= 8 {
        8
    } else {
        16
    }
}

/// Rows of an `R×8` [`gemm_taps`] tile. Sized, like [`MR`]`×`[`NR`], so
/// the `R·L` accumulators, a row of `G` and a broadcast fit the
/// compiled-for ISA's vector registers (12 + 2 of AVX-512's 32 at `L = 8`,
/// 16 + 3 at `L = 16`: LLVM keeps 256-bit vectors here). Fewer rows
/// re-stream `G` more often; on AVX-512 a 4- or 6-row 8-lane tile is also
/// paired into 512-bit shuffles instead of broadcasts, and 24 rows spill.
#[cfg(target_feature = "avx512f")]
const TAP_ROWS_8: usize = 12;
/// Rows of an `R×16` [`gemm_taps`] tile.
#[cfg(target_feature = "avx512f")]
const TAP_ROWS_16: usize = 8;
/// Rows of an `R×8` [`gemm_taps`] tile; 256-bit-vector variant (16
/// registers).
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
const TAP_ROWS_8: usize = 12;
/// Rows of an `R×16` [`gemm_taps`] tile; 256-bit-vector variant.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
const TAP_ROWS_16: usize = 6;
/// Rows of an `R×8` [`gemm_taps`] tile; 128-bit-vector variant (16
/// registers).
#[cfg(not(target_feature = "avx"))]
const TAP_ROWS_8: usize = 4;
/// Rows of an `R×16` [`gemm_taps`] tile; 128-bit-vector variant.
#[cfg(not(target_feature = "avx"))]
const TAP_ROWS_16: usize = 2;

/// How [`gemm_taps`] reads its `A` out of a batch of images it never lays
/// out: row `j` at reduction step `p = (s, oy, ox)` is
/// `images[s·pitch + rows[oy] + taps[j] + ox·stride]`, for `ox < ow`.
/// Rebuilt in place, so a caller that keeps one allocates only while the
/// tables grow.
#[derive(Debug, Default, Clone)]
pub(crate) struct TapLayout {
    taps: Vec<usize>,
    rows: Vec<usize>,
    ow: usize,
    stride: usize,
    pitch: usize,
}

impl TapLayout {
    /// Rebuilds the layout for row starts `taps`, output-row starts
    /// `rows`, `ow` positions per output row `stride` apart, and images
    /// `pitch` elements apart.
    pub(crate) fn rebuild(
        &mut self,
        taps: impl Iterator<Item = usize>,
        rows: impl Iterator<Item = usize>,
        (ow, stride, pitch): (usize, usize, usize),
    ) {
        self.taps.clear();
        self.taps.extend(taps);
        self.rows.clear();
        self.rows.extend(rows);
        (self.ow, self.stride, self.pitch) = (ow, stride, pitch);
    }
}

/// `out[j, ·] = Σ_p A[j, p] · G[p, ·]` with `A` read out of `images`
/// through `layout` (`k` rows, one per tap, and one step `p` per image
/// and output position), `G: [P, lanes]` and `out: [k, lanes]`
/// (overwritten), for `lanes` 8 or 16 (see [`tap_lanes`]).
///
/// This is the convolution's `∂Wᵀ = col · Gᵀ` over the image itself
/// (`conv`), and it reproduces `gemm(m, P, k)` — the lowered
/// `∂W = G · colᵀ` — bit for bit: each element is the ascending-`p` chain
/// from +0.0 that `gemm` computes for column `j`, rows `j < fused`
/// stepping with `fma_acc` and the others multiplying, then adding, for
/// `fused = `[`fused_columns`]`(m, P, k)` (the product commutes, so
/// `x·g` rounds as `g·x`). Each [`TAP_ROWS_8`] / [`TAP_ROWS_16`]-row tile
/// keeps its accumulators in registers across the whole reduction.
///
/// # Panics
///
/// Panics if `lanes` is not 8 or 16, `fused > k`, or a slice length
/// disagrees with the layout.
pub(crate) fn gemm_taps(
    images: &[f32],
    layout: &TapLayout,
    g: &[f32],
    lanes: usize,
    fused: usize,
    out: &mut [f32],
) {
    let k = layout.taps.len();
    let per_image = layout.rows.len() * layout.ow;
    assert!(
        images.len().is_multiple_of(layout.pitch.max(1)),
        "gemm_taps: images length"
    );
    let p = images.len() / layout.pitch.max(1) * per_image;
    assert_eq!(g.len(), p * lanes, "gemm_taps: G length");
    assert_eq!(out.len(), k * lanes, "gemm_taps: out length");
    assert!(fused <= k, "gemm_taps: fused rows");
    let (fused_rows, plain_rows): (TapRows, TapRows) = match lanes {
        8 => (
            taps_rows::<8, TAP_ROWS_8, true>,
            taps_rows::<8, TAP_ROWS_8, false>,
        ),
        16 => (
            taps_rows::<16, TAP_ROWS_16, true>,
            taps_rows::<16, TAP_ROWS_16, false>,
        ),
        _ => panic!("gemm_taps: {lanes} lanes"),
    };
    let (head, edge) = out.split_at_mut(fused * lanes);
    fused_rows(0..fused, images, layout, g, head);
    plain_rows(fused..k, images, layout, g, edge);
}

/// One instance of [`taps_rows`].
type TapRows = fn(Range<usize>, &[f32], &TapLayout, &[f32], &mut [f32]);

/// Sweeps rows `rows` of a [`gemm_taps`] product into `out` (those rows,
/// `L` wide) in `R`-row tiles, then the `< R` leftover rows in the largest
/// of the 4-, 2- and 1-row tiles that fits; `FUSED` picks every row's step.
fn taps_rows<const L: usize, const R: usize, const FUSED: bool>(
    rows: Range<usize>,
    images: &[f32],
    layout: &TapLayout,
    g: &[f32],
    out: &mut [f32],
) {
    let mut j = rows.start;
    let mut out = out;
    while j < rows.end {
        let left = rows.end - j;
        let r = if left >= R {
            R
        } else if left >= 4 {
            4
        } else if left >= 2 {
            2
        } else {
            1
        };
        let (tile, rest) = out.split_at_mut(r * L);
        let taps = &layout.taps[j..j + r];
        match r {
            _ if r == R => taps_tile::<R, L, FUSED>(images, layout, taps, g, tile),
            4 => taps_tile::<4, L, FUSED>(images, layout, taps, g, tile),
            2 => taps_tile::<2, L, FUSED>(images, layout, taps, g, tile),
            _ => taps_tile::<1, L, FUSED>(images, layout, taps, g, tile),
        }
        out = rest;
        j += r;
    }
}

/// Computes and stores the `R×L` tile of rows `taps` (`out`: `R` rows of
/// `L`), one accumulator per element from +0.0 over every step `p` in
/// ascending order: `fma_acc` steps when `FUSED`, multiply-then-add
/// otherwise. Each image's output row reads `R` runs of the image, one
/// per tap, each scalar broadcast across the `L` lanes of `G`'s row `p`.
/// Never inlined, like [`tile`], so LLVM keeps the accumulators in
/// registers.
#[inline(never)]
fn taps_tile<const R: usize, const L: usize, const FUSED: bool>(
    images: &[f32],
    layout: &TapLayout,
    taps: &[usize],
    g: &[f32],
    out: &mut [f32],
) {
    let taps: [usize; R] = std::array::from_fn(|r| taps[r]);
    let (ow, stride) = (layout.ow, layout.stride);
    let span = (ow - 1) * stride + 1;
    let mut acc = [[0.0f32; L]; R];
    let mut grows = g.chunks_exact(ow * L);
    for image in images.chunks_exact(layout.pitch) {
        for (&row, grow) in layout.rows.iter().zip(grows.by_ref()) {
            let a = std::array::from_fn(|r| &image[row + taps[r]..][..span]);
            acc = if stride == 1 {
                taps_run::<R, L, FUSED, true>(acc, a, grow, 1)
            } else {
                taps_run::<R, L, FUSED, false>(acc, a, grow, stride)
            };
        }
    }
    for (o, accr) in out.chunks_exact_mut(L).zip(&acc) {
        o.copy_from_slice(accr);
    }
}

/// One output row of a [`taps_tile`]: `acc[r]` steps through the row's
/// positions, `a[r]` being tap `r`'s run of the image under it. With
/// `UNIT` (stride 1) each run is exactly as long as the row, which lets
/// LLVM drop the bounds checks.
#[inline(always)]
fn taps_run<const R: usize, const L: usize, const FUSED: bool, const UNIT: bool>(
    mut acc: [[f32; L]; R],
    a: [&[f32]; R],
    g: &[f32],
    stride: usize,
) -> [[f32; L]; R] {
    for (ox, grow) in g.chunks_exact(L).enumerate() {
        for r in 0..R {
            let x = if UNIT { a[r][ox] } else { a[r][ox * stride] };
            for l in 0..L {
                if FUSED {
                    fma_acc(&mut acc[r][l], x, grow[l]);
                } else {
                    acc[r][l] += x * grow[l];
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
    at_b::<false>(k, m, n, a, b, 0..m, out);
}

/// `out += Aᵀ · B` with `A: [k, m]`, `B: [k, n]`, `out: [m, n]`: each
/// element's dot product is finished — on [`gemm_at_b`]'s path, in its
/// rounding — and then added to the element once. Bit for bit
/// `gemm_at_b` into a staging matrix followed by `out[j] += staged[j]`
/// (an `axpy` with α = 1, since `1·x == x`), without the staging matrix:
/// the form a layer uses to accumulate a weight gradient.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_at_b_add(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    at_b::<true>(k, m, n, a, b, 0..m, out);
}

/// Rows `rows` of [`gemm_at_b`]'s `[m, n]` output, into `out: [rows.len(),
/// n]` (overwritten), each bit for bit the row the whole call writes: the
/// path (small, narrow or tiled) and so every step's rounding follow the
/// whole `m×k×n` product, never the row range, and a row's result does
/// not depend on which tile computed it. The convolution's `∂input` runs
/// its `Wᵀ·G` this way, a cache-sized slab of rows at a time.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions or `rows`
/// leaves `0..m`.
pub(crate) fn gemm_at_b_rows(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    out: &mut [f32],
) {
    at_b::<false>(k, m, n, a, b, rows, out);
}

/// Rows `rows` of [`gemm_at_b`] (`ADD = false`) and [`gemm_at_b_add`].
fn at_b<const ADD: bool>(
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), k * m, "gemm_at_b: A length");
    assert_eq!(b.len(), k * n, "gemm_at_b: B length");
    assert!(rows.start <= rows.end && rows.end <= m, "gemm_at_b: rows");
    assert_eq!(out.len(), rows.len() * n, "gemm_at_b: out length");
    if rows.is_empty() || n == 0 {
        return;
    }
    if k == 0 {
        // The empty sum is +0.0, and adding it still turns a -0.0 into +0.0.
        for o in out.iter_mut() {
            *o = if ADD { *o + 0.0 } else { 0.0 };
        }
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        at_b_rows_small::<ADD>(m, n, a, b, rows, out);
    } else {
        // Transpose the rows' A into row-major scratch once (k moves per
        // row, noise next to the row's k·n reduction, and it keeps the hot
        // loop free of strided loads, which LLVM lowers catastrophically
        // at wider tile shapes), then run gemm's large-path kernels over
        // it.
        let len = rows.len();
        with_scratch(&AT_SCRATCH, len * k, |packed| {
            for (c, prow) in rows.zip(packed.chunks_exact_mut(k)) {
                for (p, dst) in prow.iter_mut().enumerate() {
                    *dst = a[p * m + c];
                }
            }
            if n < NR {
                gemm_narrow::<ADD>(k, n, packed, b, out);
            } else {
                gemm_rows_tiled::<ADD>(0..len, k, n, packed, b, out);
            }
        });
    }
}

/// Output columns the small `Aᵀ·B` path sums at once, in a stack row
/// (1 KiB). Narrower chunks measured up to twice as slow on a 10×128
/// output (per-chunk overhead at `k = 2`).
const SMALL_ROW: usize = 256;

/// Reference-order accumulation for `Aᵀ·B`: every element is a multiply,
/// then an add, from +0.0 in ascending `p` — the oracle's order — and is
/// then written (added when `ADD`), for output rows `rows`. A row is swept
/// [`SMALL_ROW`] columns at a time into stack accumulators, so the
/// finished sums need no staging buffer.
fn at_b_rows_small<const ADD: bool>(
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    out: &mut [f32],
) {
    for (i, orow) in rows.zip(out.chunks_exact_mut(n)) {
        for (c, ochunk) in orow.chunks_mut(SMALL_ROW).enumerate() {
            let (j0, w) = (c * SMALL_ROW, ochunk.len());
            let mut acc = [0.0f32; SMALL_ROW];
            for (&api, brow) in a[i..].iter().step_by(m).zip(b.chunks_exact(n)) {
                for (s, &bpn) in acc[..w].iter_mut().zip(&brow[j0..j0 + w]) {
                    *s += api * bpn;
                }
            }
            for (o, &v) in ochunk.iter_mut().zip(&acc) {
                *o = if ADD { *o + v } else { v };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// out = A · Bᵀ
// ---------------------------------------------------------------------------

/// `out = A · Bᵀ` with `A: [m, k]`, `B: [n, k]`, `out: [m, n]`
/// (overwritten), without materialising the transpose on the small path.
///
/// The large path runs [`gemm`]'s register tiles, which beat any
/// dot-product formulation by a wide margin: row dot products carry a
/// serial FMA dependency chain, while the tiled kernel keeps
/// [`MR`]`·`[`NR`] independent accumulators in flight. The tiles sweep
/// `Bᵀ` one `[k, NR]` panel at a time, and on the calling thread each
/// panel is transposed straight out of `NR` rows of `B` — the edge strip
/// and a narrow output's one strip zero-padded — so no whole `Bᵀ` is
/// written and the panel scratch is `k·NR` floats. This is the `Dense`
/// forward pass (`x·Wᵀ`, `m` = the batch), where at small `m` the
/// transpose is most of the call: gathering the whole `Bᵀ` first and then
/// packing each strip of it again moves every weight twice. Only a call
/// at or above [`PAR_FLOPS`] on a pool of more than one thread gathers the
/// whole `Bᵀ` once and hands it to [`gemm`]'s row split, whose tasks share
/// it. Either way each element sees the same values in the same
/// ascending-`p` order, so the layout never changes a bit.
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
    match fused_columns(m, k, n) {
        0 => a_bt_rows_small(0..m, k, n, a, b, out),
        fused if fused < NR => with_scratch(&BT_SCRATCH, k * NR, |panel| {
            transpose_into(panel, b, n, k, NR);
            gemm_narrow_panel::<false>(k, n, a, panel, out);
        }),
        _ if flops(m, k, n) >= PAR_FLOPS && rayon::current_num_threads() > 1 => {
            with_scratch(&BT_SCRATCH, k * n, |bt| {
                transpose_into(bt, b, n, k, n);
                gemm(m, k, n, a, bt, out);
            })
        }
        _ => a_bt_rows_tiled(k, n, a, b, out),
    }
}

/// The tiled `A·Bᵀ` for an output at least [`NR`] wide, on the calling
/// thread: each full strip's `NR` rows of `B` are transposed into the
/// `[k, NR]` panel and swept fused, then the `n % NR` trailing rows into
/// the zero-padded panel of the edge strip, swept multiply-then-add —
/// [`gemm_rows_tiled`] over a packed `Bᵀ`, strip for strip.
fn a_bt_rows_tiled(k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let tail = n % NR;
    with_scratch(&BT_SCRATCH, k * NR, |panel| {
        for j0 in (0..n - tail).step_by(NR) {
            transpose_into(panel, &b[j0 * k..(j0 + NR) * k], NR, k, NR);
            let strip = Dense::<false> {
                b: panel,
                ld: NR,
                c0: 0,
                j0,
                width: NR,
            };
            sweep::<true>(0, k, n, a, out, strip);
        }
        if tail > 0 {
            let j0 = n - tail;
            transpose_into(panel, &b[j0 * k..], tail, k, NR);
            let strip = Dense::<false> {
                b: panel,
                ld: NR,
                c0: 0,
                j0,
                width: tail,
            };
            sweep::<false>(0, k, n, a, out, strip);
        }
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
    fn at_b_rows_are_bitwise_the_rows_of_the_whole_product() {
        // Small path, a narrow output, full strips plus an edge strip, and
        // reductions on both sides of `KPACK`: any row range, cut at any
        // tile height, is the whole call's rows bit for bit.
        for &(k, m, n) in &[
            (3, 10, 20),
            (16, 150, 5),
            (16, 150, 640),
            (6, 150, 3 * NR + 5),
            (70, 40, 2 * NR + 3),
        ] {
            let a = seq(k * m, 0.03);
            let b = seq(k * n, 0.07);
            let mut whole = vec![f32::NAN; m * n];
            gemm_at_b(k, m, n, &a, &b, &mut whole);
            for rows in [
                0..m,
                0..1,
                5..m,
                1..MR + 2,
                m / 2..(m / 2 + 7).min(m),
                m - 1..m,
            ] {
                let mut got = vec![f32::NAN; rows.len() * n];
                gemm_at_b_rows(k, m, n, &a, &b, rows.clone(), &mut got);
                let want = &whole[rows.start * n..rows.end * n];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(want), "k={k} m={m} n={n} rows {rows:?}");
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
