//! Register-blocked, row-partitioned matmul microkernels.
//!
//! Each kernel partitions its *output rows* across a [`Pool`] — every
//! output row is owned by exactly one thread — and computes fixed-width
//! register tiles (`MR` output rows × `NR` output columns of `f32`
//! accumulators held in a stack array) with scalar tail loops for the
//! row/column remainders, one `TK`-deep k-block at a time, spilling the
//! accumulators to the output between blocks. `nn` and `tn` share one
//! tile that differs only in how it strides through `a`. The tile loops
//! have compile-time trip counts over contiguous slices, which is the
//! shape LLVM auto-vectorizes into packed SIMD without any `unsafe` (the
//! workspace forbids intrinsics): 8-lane AVX2 registers under the
//! workspace's x86-64-v3 build, 4-lane SSE2 ones on baseline x86-64,
//! with the same bits either way.
//!
//! Both the partitioning and the tiling preserve the per-element
//! accumulation order of the scalar reference kernels in
//! [`Tensor`](crate::Tensor) (`k` ascending for `nn`/`tn`, whose
//! skip-on-zero the tile drops only where it cannot change a bit — see
//! `tiled_cols` — and the same single left-to-right dot for `nt`), so
//! the results are **bit-identical** to the scalar kernels at every
//! thread count and at every tile and k-block boundary. The
//! bit-equality tests in `tests/parallel_kernels.rs` and the
//! `#[cfg(test)]` bit-identity harness below pin this down shape by
//! shape.
//!
//! The dispatching entry points take a *concat product* `[a ‖ b] · w`
//! ([`ConcatDims`]): `a` and `b` are read in place, side by side, and a
//! plain product is the case of an empty `b`. Forward, weight gradient
//! and input gradients are each one fork-join whose chunk loop walks both
//! operand segments, and each stays bit-identical to the same layout over
//! the materialized concatenation (see [`concat_matmul_into`]).

use std::ops::Range;

use splpg_par::Pool;

/// Flop count (`2·n·k·m`) below which [`Tensor`](crate::Tensor) stays on
/// the scalar kernels: under ~100us of work, thread spawn dominates.
pub const PAR_FLOP_THRESHOLD: usize = 2_000_000;

/// Flop count below which even the single-thread microkernel is not
/// engaged: for tiny products the tile setup costs more than it saves.
pub(crate) const MICRO_FLOP_THRESHOLD: usize = 16_384;

/// Minimum flops per chunk handed to a worker thread.
const MIN_CHUNK_FLOPS: usize = 500_000;

/// Output columns per register tile: two 8-lane `f32` vectors.
const NR: usize = 16;

/// Output rows per register tile.
const MR: usize = 4;

/// Depth of one k-block in all three kernels. For `nn`/`tn` it keeps a
/// block's `TK x m` slice of `b` cache-resident while every row strip
/// reuses it; for `nt` it bounds the packed transposed `b` panel to
/// `TK * NR * 4` bytes (8 KiB) of stack.
const TK: usize = 128;

/// Minimum output rows per chunk so each spawn amortizes.
fn min_rows_per_chunk(k: usize, m: usize) -> usize {
    (MIN_CHUNK_FLOPS / (2 * k * m).max(1)).max(1)
}

/// Worker count the cost model picks for an `[rows,k] x [k,m]` product:
/// `1` means "stay single-threaded" (the caller may still use the
/// microkernel inline). Parallelism engages only when the product clears
/// [`PAR_FLOP_THRESHOLD`] and more than one worker can *actually* run
/// concurrently ([`splpg_par::effective_threads`], which clamps the
/// configured pool width by the hardware — an oversubscribed pool on a
/// 1-CPU container pays fork-join overhead serially for zero overlap).
/// Rather than collapsing to scalar when the output cannot feed every
/// worker a minimum-rows chunk, the model falls back to however many
/// workers the projected per-thread work *can* keep profitable. The
/// scalar and microkernel paths are bit-identical, so this choice
/// affects time only, never results.
pub(crate) fn par_parts(rows: usize, k: usize, m: usize) -> usize {
    par_parts_with(splpg_par::effective_threads(), rows, k, m)
}

/// [`par_parts`] with an explicit worker count (unit-testable).
fn par_parts_with(threads: usize, rows: usize, k: usize, m: usize) -> usize {
    let flops = 2 * rows * k * m;
    if flops < PAR_FLOP_THRESHOLD || threads <= 1 {
        return 1;
    }
    let by_rows = rows / min_rows_per_chunk(k, m);
    let by_flops = flops / MIN_CHUNK_FLOPS;
    threads.min(by_rows).min(by_flops).max(1)
}

/// How a product with `rows` output rows, depth `k` and `m` output
/// columns runs: on the microkernels over `Some(pool)` — as many workers
/// as [`par_parts`] picks, a one-worker pool running them inline — or,
/// for a product under [`MICRO_FLOP_THRESHOLD`], on the scalar reference
/// loops (`None`). Every path gives the same bits.
fn plan(rows: usize, k: usize, m: usize) -> Option<Pool> {
    let parts = par_parts(rows, k, m);
    if parts > 1 || 2 * rows * k * m >= MICRO_FLOP_THRESHOLD {
        Some(Pool::new(parts))
    } else {
        None
    }
}

/// Shape of a concat product `[a ‖ b] · w`: `a` and `b` are `[n, ka]`
/// and `[n, kb]`, `w` is `[ka + kb, m]`. A plain product is the case
/// `kb = 0` with an empty `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcatDims {
    /// Rows of `a`, `b` and the forward output.
    pub n: usize,
    /// Columns of `a` (the first `ka` rows of `w`).
    pub ka: usize,
    /// Columns of `b` (the last `kb` rows of `w`).
    pub kb: usize,
    /// Columns of `w` and of the forward output.
    pub m: usize,
}

impl ConcatDims {
    /// `[n, k] x [k, m]`: the plain product, with no `b`.
    pub(crate) fn plain(n: usize, k: usize, m: usize) -> Self {
        ConcatDims { n, ka: k, kb: 0, m }
    }
}

/// `out = [a ‖ b] · w (+ bias)` into a caller-provided **zero-filled**
/// `[n, m]` buffer, without building the concatenation, on the path
/// `plan` picks for the whole `[n, ka + kb] x [ka + kb, m]` product.
///
/// Bit-identical to the product of the materialized concatenation: each
/// worker's chunk runs the `k`-blocked tile over `a`'s depths and then
/// over `b`'s, and since the tile reloads its accumulators from `out`
/// between k-blocks, every element sees one add chain over `k`
/// ascending, split at the seam exactly as it is split at a block edge.
/// The `[m]` bias is then added to each finished row of the chunk: one
/// rounded add per element, as a separate broadcast add makes it.
///
/// # Panics
///
/// Panics if a buffer length disagrees with `d`.
pub fn concat_matmul_into(
    a: &[f32],
    b: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: ConcatDims,
    out: &mut [f32],
) {
    let ConcatDims { n, ka, kb, m } = d;
    check_operands(a, b, w, d);
    assert_eq!(out.len(), n * m, "matmul output shape");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "bias width");
    }
    match plan(n, ka + kb, m) {
        Some(pool) => concat_nn(a, b, w, bias, d, &pool, out),
        None => {
            let (wa, wb) = w.split_at(ka * m);
            nn_scalar_into(a, wa, n, ka, m, out);
            nn_scalar_into(b, wb, n, kb, m, out);
            add_rows(out, bias);
        }
    }
}

/// `row += bias` for every `bias`-wide row of `out`.
fn add_rows(out: &mut [f32], bias: Option<&[f32]>) {
    if let Some(bias) = bias.filter(|b| !b.is_empty()) {
        for row in out.chunks_exact_mut(bias.len()) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

/// `dw = [a ‖ b]ᵀ · g` into a caller-provided **zero-filled**
/// `[ka + kb, m]` buffer (`g` is `[n, m]`): the weight gradient of
/// [`concat_matmul_into`]. Output rows `0..ka` come from `a`, the rest
/// from `b`; one fork-join covers both, a worker's row range split at the
/// seam. Bit-identical to the `tn` product of the concatenation, whose
/// output rows are independent.
///
/// # Panics
///
/// Panics if a buffer length disagrees with `d`.
pub fn concat_matmul_tn_into(a: &[f32], b: &[f32], g: &[f32], d: ConcatDims, dw: &mut [f32]) {
    let ConcatDims { n, ka, kb, m } = d;
    assert_eq!((a.len(), b.len()), (n * ka, n * kb), "concat operand shapes");
    assert_eq!(g.len(), n * m, "matmul_tn gradient shape");
    assert_eq!(dw.len(), (ka + kb) * m, "matmul output shape");
    match plan(ka + kb, n, m) {
        Some(pool) => concat_tn(a, b, g, d, &pool, dw),
        None => {
            let (top, bottom) = dw.split_at_mut(ka * m);
            tn_scalar_into(a, g, n, ka, m, top);
            tn_scalar_into(b, g, n, kb, m, bottom);
        }
    }
}

/// `[da ‖ db] = g · wᵀ` (`g` is `[n, m]`) into caller-provided `[n, ka]`
/// and `[n, kb]` buffers, every element of which is overwritten: the
/// input gradients of [`concat_matmul_into`]. One fork-join over `g`'s
/// rows fills both blocks; each element is the same single left-to-right
/// dot as in the `nt` product of the concatenation, so the bits match.
///
/// # Panics
///
/// Panics if a buffer length disagrees with `d`.
pub fn concat_matmul_nt_into(g: &[f32], w: &[f32], d: ConcatDims, da: &mut [f32], db: &mut [f32]) {
    let ConcatDims { n, ka, kb, m } = d;
    assert_eq!(g.len(), n * m, "matmul_nt gradient shape");
    assert_eq!(w.len(), (ka + kb) * m, "concat weight shape");
    assert_eq!((da.len(), db.len()), (n * ka, n * kb), "matmul output shape");
    match plan(n, m, ka + kb) {
        Some(pool) => concat_nt(g, w, d, &pool, da, db),
        None => {
            let (wa, wb) = w.split_at(ka * m);
            nt_scalar_into(g, wa, n, m, ka, da);
            nt_scalar_into(g, wb, n, m, kb, db);
        }
    }
}

fn check_operands(a: &[f32], b: &[f32], w: &[f32], d: ConcatDims) {
    let ConcatDims { n, ka, kb, m } = d;
    assert_eq!((a.len(), b.len()), (n * ka, n * kb), "concat operand shapes");
    assert_eq!(w.len(), (ka + kb) * m, "concat weight shape");
}

/// `a[n,k] @ b[k,m]`, row-major, into a fresh `[n,m]` buffer.
///
/// Row-partitioned over `pool`; register-tiled and k-blocked (see
/// `nn_tn_chunk`). Accumulation per output element runs over `k`
/// ascending, so the result is bit-identical to
/// [`Tensor::matmul_scalar`](crate::Tensor::matmul_scalar), skip-on-zero
/// and all.
pub fn matmul_nn(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, pool: &Pool) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    matmul_nn_into(a, b, n, k, m, pool, &mut out);
    out
}

/// [`matmul_nn`] writing into a caller-provided **zero-filled** `[n,m]`
/// buffer (the tape arena's pooled storage).
///
/// # Panics
///
/// Panics if `out.len() != n * m`.
pub(crate) fn matmul_nn_into(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    let d = ConcatDims::plain(n, k, m);
    check_operands(a, &[], b, d);
    assert_eq!(out.len(), n * m, "matmul output shape");
    concat_nn(a, &[], b, None, d, pool, out);
}

/// The `nn` chunk loop of [`concat_matmul_into`] over `pool`.
fn concat_nn(
    a: &[f32],
    b: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    d: ConcatDims,
    pool: &Pool,
    out: &mut [f32],
) {
    let ConcatDims { n, ka, kb, m } = d;
    if n == 0 || m == 0 {
        return;
    }
    let (wa, wb) = w.split_at(ka * m);
    let (ja, jb) = (tiled_cols(wa, m), tiled_cols(wb, m));
    pool.parallel_for_mut(out, m, min_rows_per_chunk(ka + kb, m), |row0, chunk| {
        nn_tn_chunk(a, wa, ka, m, (ka, 1), ja, row0, chunk);
        nn_tn_chunk(b, wb, kb, m, (kb, 1), jb, row0, chunk);
        add_rows(chunk, bias);
    });
}

/// `a[k,n]^T @ b[k,m]` into a fresh `[n,m]` buffer, without
/// materializing the transpose.
///
/// Output rows (columns of `a`) are partitioned over `pool` and computed
/// by the same k-blocked tile as [`matmul_nn`], with `a` read down its
/// columns. The shared `k` dimension streams in ascending order for
/// every element, matching
/// [`Tensor::matmul_tn_scalar`](crate::Tensor::matmul_tn_scalar)
/// bit for bit.
pub fn matmul_tn(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, pool: &Pool) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    matmul_tn_into(a, b, k, n, m, pool, &mut out);
    out
}

/// [`matmul_tn`] writing into a caller-provided **zero-filled** `[n,m]`
/// buffer.
///
/// # Panics
///
/// Panics if `out.len() != n * m`.
pub(crate) fn matmul_tn_into(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    concat_tn(a, &[], b, ConcatDims::plain(k, n, m), pool, out);
}

/// The `tn` chunk loop of [`concat_matmul_tn_into`] over `pool`: output
/// rows below `ka` read `a` down its columns, the rest read `b`.
fn concat_tn(a: &[f32], b: &[f32], g: &[f32], d: ConcatDims, pool: &Pool, dw: &mut [f32]) {
    let ConcatDims { n, ka, kb, m } = d;
    if n == 0 || m == 0 || ka + kb == 0 {
        return;
    }
    let jm = tiled_cols(g, m);
    pool.parallel_for_mut(dw, m, min_rows_per_chunk(n, m), |row0, chunk| {
        let split = ka.saturating_sub(row0).min(chunk.len() / m);
        let (top, bottom) = chunk.split_at_mut(split * m);
        if !top.is_empty() {
            nn_tn_chunk(a, g, n, m, (1, ka), jm, row0, top);
        }
        if !bottom.is_empty() {
            nn_tn_chunk(b, g, n, m, (1, kb), jm, row0 + split - ka, bottom);
        }
    });
}

/// Output columns `0..jm` of an `nn`/`tn` product that the register
/// [`tile`] computes: every whole `NR`-wide tile when `b` is finite,
/// none otherwise.
///
/// The tile adds `a * b` even where `a` is zero, which the scalar
/// reference skips. The two agree bit for bit whenever `b` is finite: a
/// zero of `a` times a finite `b` is `±0.0`, and adding `±0.0` leaves
/// an accumulator unchanged, because one that starts at `+0.0` never
/// becomes `-0.0` under round-to-nearest. A `0 * inf` or `0 * NaN` term
/// would be NaN instead, so a `b` holding a non-finite value goes
/// through [`cols_tail`], which keeps the skip, for every column.
fn tiled_cols(b: &[f32], m: usize) -> usize {
    if b.iter().all(|x| x.is_finite()) {
        m - m % NR
    } else {
        0
    }
}

/// One chunk of `nn` or `tn` output rows: [`tile`] on columns `0..jm`
/// (see [`tiled_cols`]), [`cols_tail`] on the rest. `a` is addressed
/// through `(row_stride, k_stride)`: output row `i` at depth `kk` reads
/// `a[i * row_stride + kk * k_stride]`, which is `(k, 1)` for `nn` and
/// `(1, n)` for `tn`.
///
/// The `k` loop is blocked `TK` deep and outermost; inside a block each
/// `MR`-row strip sweeps every `NR`-column tile, so the block's `TK x m`
/// panel of `b` and the strip's `TK x MR` slice of `a` stay in cache
/// while they are reused. The accumulators are reloaded from the
/// zero-filled output at the start of each block and stored back at its
/// end — exact `f32` round trips — so every element still sees the
/// scalar reference's add chain, `k` ascending.
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn nn_tn_chunk(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    a_strides: (usize, usize),
    jm: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / m;
    let mut kb = 0;
    while kb < k {
        let ks = kb..(kb + TK).min(k);
        let mut r = 0;
        while r + MR <= rows {
            let mut jb = 0;
            while jb < jm {
                tile::<MR>(a, b, m, a_strides, ks.clone(), row0 + r, jb, r, chunk);
                jb += NR;
            }
            cols_tail(a, b, m, a_strides, ks.clone(), row0 + r, MR, jm, r, chunk);
            r += MR;
        }
        while r < rows {
            let mut jb = 0;
            while jb < jm {
                tile::<1>(a, b, m, a_strides, ks.clone(), row0 + r, jb, r, chunk);
                jb += NR;
            }
            cols_tail(a, b, m, a_strides, ks.clone(), row0 + r, 1, jm, r, chunk);
            r += 1;
        }
        kb = ks.end;
    }
}

/// `R x NR` register tile of an `nn`/`tn` product over the depths `ks`,
/// at output rows `ar0..ar0+R`, columns `jb..jb+NR`. The accumulator
/// array lives in registers between the reload and the store. Zeros of
/// `a` are not skipped: no branch in the inner loop (see
/// [`tiled_cols`] for why the bits still match).
#[inline]
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    (row_stride, k_stride): (usize, usize),
    ks: Range<usize>,
    ar0: usize,
    jb: usize,
    cr0: usize,
    chunk: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR]);
    }
    for kk in ks {
        let b_seg = &b[kk * m + jb..kk * m + jb + NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[(ar0 + r) * row_stride + kk * k_stride];
            for (al, &bv) in acc_row.iter_mut().zip(b_seg) {
                *al += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR].copy_from_slice(acc_row);
    }
}

/// Scalar column tail (`jm..m`) of [`tile`] for `rows` rows, in the
/// scalar reference's exact per-element order, skip-on-zero included.
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn cols_tail(
    a: &[f32],
    b: &[f32],
    m: usize,
    (row_stride, k_stride): (usize, usize),
    ks: Range<usize>,
    ar0: usize,
    rows: usize,
    jm: usize,
    cr0: usize,
    chunk: &mut [f32],
) {
    if jm == m {
        return;
    }
    for r in 0..rows {
        let o_row = &mut chunk[(cr0 + r) * m + jm..(cr0 + r) * m + m];
        for kk in ks.clone() {
            let av = a[(ar0 + r) * row_stride + kk * k_stride];
            if av == 0.0 {
                continue;
            }
            let b_seg = &b[kk * m + jm..kk * m + m];
            for (o, &bv) in o_row.iter_mut().zip(b_seg) {
                *o += av * bv;
            }
        }
    }
}

/// `a[n,k] @ b[m,k]^T` into a fresh `[n,m]` buffer, without
/// materializing the transpose.
///
/// Row-partitioned over `pool`. A `TK x NR` panel of `b` is packed
/// (transposed) into a stack buffer per j-tile so the inner loop reads
/// both operands contiguously; accumulators are spilled to the output
/// between k-tiles, which is bitwise lossless, so each output element is
/// still the scalar reference's single left-to-right dot product,
/// identical to
/// [`Tensor::matmul_nt_scalar`](crate::Tensor::matmul_nt_scalar).
pub fn matmul_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, pool: &Pool) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    matmul_nt_into(a, b, n, k, m, pool, &mut out);
    out
}

/// [`matmul_nt`] writing into a caller-provided `[n,m]` buffer (every
/// element is overwritten).
///
/// # Panics
///
/// Panics if `out.len() != n * m`.
pub(crate) fn matmul_nt_into(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    concat_nt(a, b, ConcatDims { n, ka: m, kb: 0, m: k }, pool, out, &mut []);
}

/// The `nt` chunk loop of [`concat_matmul_nt_into`] over `pool`: `g`'s
/// rows are partitioned as `parallel_for_mut` would partition one
/// output, and each worker fills its rows of `da` and of `db`.
fn concat_nt(g: &[f32], w: &[f32], d: ConcatDims, pool: &Pool, da: &mut [f32], db: &mut [f32]) {
    let ConcatDims { n, ka, kb, m } = d;
    if n == 0 || ka + kb == 0 {
        return;
    }
    let (wa, wb) = w.split_at(ka * m);
    let rows = |row0: usize, ca: &mut [f32], cb: &mut [f32]| {
        nt_block(g, wa, m, ka, row0, ca);
        nt_block(g, wb, m, kb, row0, cb);
    };
    let parts = (n / min_rows_per_chunk(m, ka + kb)).clamp(1, pool.threads());
    if parts == 1 {
        return rows(0, da, db);
    }
    let (mut rest_a, mut rest_b) = (da, db);
    let mut pieces = Vec::with_capacity(parts);
    for r in splpg_par::partition_items(n, parts) {
        let (ca, ta) = std::mem::take(&mut rest_a).split_at_mut(r.len() * ka);
        let (cb, tb) = std::mem::take(&mut rest_b).split_at_mut(r.len() * kb);
        (rest_a, rest_b) = (ta, tb);
        pieces.push((r.start, ca, cb));
    }
    pool.parallel_for_mut(&mut pieces, 1, 1, |_, piece| {
        for (row0, ca, cb) in piece {
            rows(*row0, ca, cb);
        }
    });
}

/// Rows `row0..` of `a @ b^T` (`b` is `[width, k]`) into `chunk`, which
/// holds whole `width`-wide rows.
fn nt_block(a: &[f32], b: &[f32], k: usize, width: usize, row0: usize, chunk: &mut [f32]) {
    if width == 0 {
        return;
    }
    if k == 0 {
        chunk.fill(0.0);
        return;
    }
    nt_chunk(a, b, k, width, row0, chunk);
}

/// One chunk of `nt` output rows: packed `b` panels, `MR x NR` register
/// tiles, scalar dot tails.
fn nt_chunk(a: &[f32], b: &[f32], k: usize, m: usize, row0: usize, chunk: &mut [f32]) {
    let rows = chunk.len() / m;
    let jm = m - m % NR;
    let mut pk = [0.0f32; TK * NR];
    let mut jb = 0;
    while jb < jm {
        let mut kb = 0;
        while kb < k {
            let tk = TK.min(k - kb);
            // Pack the transposed panel: pk[kk][l] = b[jb+l][kb+kk].
            for l in 0..NR {
                let b_row = &b[(jb + l) * k + kb..(jb + l) * k + kb + tk];
                for (kk, &bv) in b_row.iter().enumerate() {
                    pk[kk * NR + l] = bv;
                }
            }
            let first = kb == 0;
            let mut r = 0;
            while r + MR <= rows {
                nt_tile::<MR>(a, &pk, k, m, kb, tk, row0 + r, jb, r, first, chunk);
                r += MR;
            }
            while r < rows {
                nt_tile::<1>(a, &pk, k, m, kb, tk, row0 + r, jb, r, first, chunk);
                r += 1;
            }
            kb += tk;
        }
        jb += NR;
    }
    // Scalar column tail: plain left-to-right dots.
    for r in 0..rows {
        let a_row = &a[(row0 + r) * k..(row0 + r + 1) * k];
        for j in jm..m {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            chunk[r * m + j] = acc;
        }
    }
}

/// `R x NR` register tile of `out = a @ b^T` over one packed k-tile.
/// `first` selects zero-init vs reload of the running accumulators; the
/// spill between k-tiles stores exact `f32` values, so the per-element
/// add chain is the same single left-to-right dot as the scalar kernel.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nt_tile<const R: usize>(
    a: &[f32],
    pk: &[f32],
    k: usize,
    m: usize,
    kb: usize,
    tk: usize,
    ar0: usize,
    jb: usize,
    cr0: usize,
    first: bool,
    chunk: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; R];
    if !first {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR]);
        }
    }
    for kk in 0..tk {
        let p_seg = &pk[kk * NR..kk * NR + NR];
        for r in 0..R {
            let av = a[(ar0 + r) * k + kb + kk];
            for (al, &bv) in acc[r].iter_mut().zip(p_seg) {
                *al += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR].copy_from_slice(acc_row);
    }
}

/// Scalar ikj matmul into a zero-filled `[n,m]` buffer: the bit-exact
/// reference the parallel kernel is held to.
pub(crate) fn nn_scalar_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * m..(i + 1) * m];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * m..(kk + 1) * m];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Scalar `a^T b` into a zero-filled `[n,m]` buffer (`a` is `[k,n]`).
pub(crate) fn tn_scalar_into(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for kk in 0..k {
        let a_row = &a[kk * n..(kk + 1) * n];
        let b_row = &b[kk * m..(kk + 1) * m];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o_row = &mut out[i * m..(i + 1) * m];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Scalar `a b^T` into a `[n,m]` buffer (`b` is `[m,k]`); every element
/// is overwritten by a single left-to-right dot product.
pub(crate) fn nt_scalar_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..m {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * m + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_require_real_concurrency_and_profitable_chunks() {
        // Big product, healthy pool: all workers engage.
        assert_eq!(par_parts_with(4, 4096, 256, 256), 4);
        // One effective worker (oversubscribed 1-CPU container after the
        // hardware clamp): single-threaded, no matter how big the product.
        assert_eq!(par_parts_with(1, 4096, 256, 256), 1);
        // Below the flop threshold: single-threaded.
        assert_eq!(par_parts_with(4, 16, 16, 16), 1);
        // Tall enough to clear the flop threshold but too few rows to
        // feed eight workers: falls back to fewer workers, not scalar.
        assert_eq!(par_parts_with(8, 4, 512, 512), 4);
        assert_eq!(par_parts_with(8, 5, 512, 512), 5);
        // Projected per-chunk work caps the worker count too.
        assert_eq!(par_parts_with(8, 16, 256, 256), 4);
    }

    // ---- bit-identity harness: microkernels vs the scalar references ----

    fn fill(v: &mut [f32], seed: u32) {
        // Deterministic pseudo-values with exact zeros sprinkled in so the
        // skip-on-zero paths are exercised.
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for x in v.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *x = if s.is_multiple_of(7) { 0.0 } else { ((s >> 8) as f32 / 8388608.0) - 1.0 };
        }
    }

    fn scalar_nn(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        nn_scalar_into(a, b, n, k, m, &mut out);
        out
    }

    fn scalar_tn(a: &[f32], b: &[f32], k: usize, n: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        tn_scalar_into(a, b, k, n, m, &mut out);
        out
    }

    fn scalar_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        nt_scalar_into(a, b, n, k, m, &mut out);
        out
    }

    /// Shapes chosen to straddle every tile boundary: row tails
    /// (`n % MR`), column tails (`m % NR`), k-block tails (`k % TK`),
    /// products spanning several k-blocks, and degenerate sizes.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (1, 3, 17),
            (3, 5, 15),
            (4, 7, 16),
            (5, 129, 33),
            (5, 600, 70),
            (7, 64, 48),
            (8, 130, 16),
            (9, 2, 31),
            (9, 3100, 64),
            (13, 257, 19),
            (17, 128, 35),
            (33, 1, 16),
        ]
    }

    /// Raw bits, with every NaN folded to one pattern: IEEE 754 fixes
    /// *that* a NaN comes out but not its sign or payload, which may
    /// follow the operand order the compiler picks. Everything else,
    /// the sign of zero included, must match exactly.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Writes `-0.0` into all of output row 0 of `a` and makes `b`'s
    /// output column 0 non-negative, so every term of output (0, 0) is
    /// `-0.0` and the scalar reference leaves it at `+0.0`. With `inf`,
    /// also writes signed zeros into `a`'s depth `kk0` and `±inf` into
    /// `b`'s: skip-on-zero (`nn`/`tn`) keeps them out of every output,
    /// while the `nt` dot has no skip and `0 * inf` makes it NaN.
    /// `a_at(i, kk)` and `b_at(kk, j)` map logical indices to storage.
    fn specials(
        a: &mut [f32],
        b: &mut [f32],
        (n, k, m): (usize, usize, usize),
        inf: bool,
        a_at: impl Fn(usize, usize) -> usize,
        b_at: impl Fn(usize, usize) -> usize,
    ) {
        for kk in 0..k {
            a[a_at(0, kk)] = -0.0;
            b[b_at(kk, 0)] = b[b_at(kk, 0)].abs();
        }
        if inf {
            let kk0 = k / 2;
            for i in 0..n {
                a[a_at(i, kk0)] = if i.is_multiple_of(2) { 0.0 } else { -0.0 };
            }
            for j in 0..m {
                b[b_at(kk0, j)] = if j.is_multiple_of(2) { f32::INFINITY } else { f32::NEG_INFINITY };
            }
        }
    }

    #[test]
    fn microkernels_bit_identical_to_scalar_references() {
        for &(n, k, m) in &shapes() {
            for special in [None, Some(false), Some(true)] {
                let mut a = vec![0.0f32; n * k];
                let mut b_nn = vec![0.0f32; k * m];
                let mut a_tn = vec![0.0f32; k * n];
                let mut b_nt = vec![0.0f32; m * k];
                fill(&mut a, (n * 31 + k * 7 + m) as u32);
                fill(&mut b_nn, (n * 13 + k * 3 + m) as u32);
                fill(&mut a_tn, (n * 5 + k * 11 + m) as u32);
                fill(&mut b_nt, (n * 17 + k + m * 3) as u32);
                let dims = (n, k, m);
                if let Some(inf) = special {
                    specials(&mut a, &mut b_nn, dims, inf, |i, kk| i * k + kk, |kk, j| kk * m + j);
                    specials(&mut a_tn, &mut b_nt, dims, inf, |i, kk| kk * n + i, |kk, j| j * k + kk);
                }
                let nn_ref = scalar_nn(&a, &b_nn, n, k, m);
                let tn_ref = scalar_tn(&a_tn, &b_nn, k, n, m);
                let nt_ref = scalar_nt(&a, &b_nt, n, k, m);
                // The specials must bite: output (0, 0) of `nn`/`tn` is
                // `+0.0` from `-0.0` terms; skipped infinities leave
                // `nn`/`tn` finite, unskipped ones make all of `nt` NaN.
                if special.is_some() {
                    assert_eq!((nn_ref[0].to_bits(), tn_ref[0].to_bits()), (0, 0), "{n}x{k}x{m}");
                }
                if special == Some(true) {
                    assert!(nn_ref.iter().chain(&tn_ref).all(|x| x.is_finite()), "{n}x{k}x{m}");
                    assert!(nt_ref.iter().all(|x| x.is_nan()), "{n}x{k}x{m}");
                }
                let (nn_ref, tn_ref, nt_ref) = (bits(&nn_ref), bits(&tn_ref), bits(&nt_ref));
                let tag = format!("{n}x{k}x{m} specials={special:?}");
                for threads in [1usize, 3, 8] {
                    let pool = Pool::new(threads);
                    let got = matmul_nn(&a, &b_nn, n, k, m, &pool);
                    assert_eq!(bits(&got), nn_ref, "nn {tag} t{threads}");
                    let got = matmul_tn(&a_tn, &b_nn, k, n, m, &pool);
                    assert_eq!(bits(&got), tn_ref, "tn {tag} t{threads}");
                    let got = matmul_nt(&a, &b_nt, n, k, m, &pool);
                    assert_eq!(bits(&got), nt_ref, "nt {tag} t{threads}");
                }
            }
        }
    }

    #[test]
    fn nt_overwrites_dirty_buffers() {
        let (n, k, m) = (5, 3, 17);
        let mut a = vec![0.0f32; n * k];
        let mut b = vec![0.0f32; m * k];
        fill(&mut a, 1);
        fill(&mut b, 2);
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(&a, &b, n, k, m, &Pool::new(1), &mut out);
        assert_eq!(bits(&out), bits(&scalar_nt(&a, &b, n, k, m)));
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(&a, &b, n, 0, m, &Pool::new(1), &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "k=0 must still overwrite");
    }
}
