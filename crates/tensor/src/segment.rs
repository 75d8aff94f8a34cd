//! Parallel segment/gather and row-wise elementwise kernels for the
//! aggregation hot path.
//!
//! These back [`Tape`](crate::Tape)'s message-passing ops (the fused
//! `aggregate`, and the `gather_rows`, `segment_sum`, `segment_softmax`,
//! row-scaling primitives attention layers compose) and the row-wise
//! elementwise activations, forward *and* backward. Each kernel
//! partitions a contiguous range of **destination rows or segments** per
//! thread over a [`Pool`] — never interleaving by thread id — and every
//! accumulator runs over its contributions in ascending input order, so
//! outputs are **bit-identical** to the scalar reference at any thread
//! count. Kernels follow the matmul scalar-fallback policy: below
//! [`crate::kernels::PAR_FLOP_THRESHOLD`] estimated
//! flops (or on a one-thread pool) the scalar loop runs inline.
//!
//! Scratch buffers (`segment_softmax`'s max/denominator, the backward
//! pass's per-segment dot products) are caller-provided so the tape arena
//! can pool them; kernels never allocate.

use splpg_par::Pool;

use crate::kernels::PAR_FLOP_THRESHOLD;

/// Minimum estimated flops per chunk handed to a worker thread (same
/// amortization floor as the matmul kernels).
const MIN_CHUNK_FLOPS: usize = 500_000;

/// Minimum rows per chunk for a kernel doing ~`per_row` flops per row.
fn min_rows(per_row: usize) -> usize {
    (MIN_CHUNK_FLOPS / per_row.max(1)).max(1)
}

/// f32 lanes per register block in the row microkernels below: one
/// 8-lane vector. The blocked loops have compile-time trip counts over
/// `chunks_exact` slices, the shape LLVM auto-vectorizes without
/// `unsafe`.
const LANES: usize = 8;

/// Whether `work` estimated flops justify fan-out on `pool`. Clamps the
/// configured pool width by [`splpg_par::hardware_threads`]: an
/// oversubscribed pool (e.g. `SPLPG_NUM_THREADS=8` on a 1-CPU
/// container) pays fork-join overhead serially for zero overlap, so it
/// stays on the inline path. Bit-identical either way — only time is
/// affected.
fn par(work: usize, pool: &Pool) -> bool {
    work >= PAR_FLOP_THRESHOLD && pool.threads().min(splpg_par::hardware_threads()) > 1
}

/// Gate for the scatter kernels ([`gather_rows_grad`], [`segment_sum`]):
/// every worker scans the whole index array to find the rows it owns, an
/// `O(n)` overhead per chunk, so fan-out only pays when the `m`-wide
/// accumulate dominates the scan. Narrow rows stay inline.
fn par_scatter(n: usize, m: usize, pool: &Pool) -> bool {
    m >= LANES && par(2 * n * m, pool)
}

/// `o[j] += x[j]` over one row: fixed-width `LANES` blocks plus a scalar
/// tail. Each element still receives exactly one add, so the blocked
/// form is bit-identical to the plain zip loop it replaces.
#[inline]
fn row_add(o: &mut [f32], x: &[f32]) {
    debug_assert_eq!(o.len(), x.len(), "row_add shape");
    let blocks = o.len() / LANES * LANES;
    let (oh, ot) = o.split_at_mut(blocks);
    for (ob, xb) in oh.chunks_exact_mut(LANES).zip(x[..blocks].chunks_exact(LANES)) {
        for j in 0..LANES {
            ob[j] += xb[j];
        }
    }
    for (ov, &xv) in ot.iter_mut().zip(&x[blocks..]) {
        *ov += xv;
    }
}

/// `o[j] = x[j] * f` over one row, lane-blocked like [`row_add`].
#[inline]
fn row_scale_one(o: &mut [f32], x: &[f32], f: f32) {
    debug_assert_eq!(o.len(), x.len(), "row_scale shape");
    let blocks = o.len() / LANES * LANES;
    let (oh, ot) = o.split_at_mut(blocks);
    for (ob, xb) in oh.chunks_exact_mut(LANES).zip(x[..blocks].chunks_exact(LANES)) {
        for j in 0..LANES {
            ob[j] = xb[j] * f;
        }
    }
    for (ov, &xv) in ot.iter_mut().zip(&x[blocks..]) {
        *ov = xv * f;
    }
}

/// `o[j] += x[j] * f` over one row, lane-blocked like [`row_add`]. The
/// product is rounded before the add (Rust never contracts the pair into
/// a fused multiply-add), so one call is bit-identical to
/// [`row_scale_one`] into a temporary row followed by [`row_add`].
#[inline]
fn row_axpy(o: &mut [f32], x: &[f32], f: f32) {
    debug_assert_eq!(o.len(), x.len(), "row_axpy shape");
    let blocks = o.len() / LANES * LANES;
    let (oh, ot) = o.split_at_mut(blocks);
    for (ob, xb) in oh.chunks_exact_mut(LANES).zip(x[..blocks].chunks_exact(LANES)) {
        for j in 0..LANES {
            ob[j] += xb[j] * f;
        }
    }
    for (ov, &xv) in ot.iter_mut().zip(&x[blocks..]) {
        *ov += xv * f;
    }
}

/// Dot product with `LANES` independent accumulators, reduced in a fixed
/// lane order, plus a scalar tail. Deterministic and identical on the
/// inline and fan-out paths (both call this), though its rounding
/// differs from a single left-to-right chain — acceptable here because
/// [`row_dot`] *is* the reference for itself at every thread count.
#[inline]
fn row_dot_one(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "row_dot shape");
    let blocks = a.len() / LANES * LANES;
    let mut lanes = [0.0f32; LANES];
    for (ab, bb) in a[..blocks].chunks_exact(LANES).zip(b[..blocks].chunks_exact(LANES)) {
        for j in 0..LANES {
            lanes[j] += ab[j] * bb[j];
        }
    }
    let mut acc = 0.0f32;
    for &l in &lanes {
        acc += l;
    }
    for (&x, &y) in a[blocks..].iter().zip(&b[blocks..]) {
        acc += x * y;
    }
    acc
}

/// Row sum with `LANES` accumulators, mirroring [`row_dot_one`].
#[inline]
fn row_sum_one(a: &[f32]) -> f32 {
    let blocks = a.len() / LANES * LANES;
    let mut lanes = [0.0f32; LANES];
    for ab in a[..blocks].chunks_exact(LANES) {
        for j in 0..LANES {
            lanes[j] += ab[j];
        }
    }
    let mut acc = 0.0f32;
    for &l in &lanes {
        acc += l;
    }
    for &x in &a[blocks..] {
        acc += x;
    }
    acc
}

/// Row gather: `out` row `i` is `a`'s row `idx[i]` (`m` columns).
///
/// Output rows are partitioned across the pool; each is a plain copy, so
/// any partition is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if an index is out of range or the buffer lengths disagree.
pub fn gather_rows(a: &[f32], m: usize, idx: &[u32], out: &mut [f32], pool: &Pool) {
    let n = a.len().checked_div(m).unwrap_or(0);
    assert_eq!(out.len(), idx.len() * m, "gather output shape");
    if m == 0 {
        return;
    }
    for &src in idx {
        assert!((src as usize) < n, "gather index {src} out of range {n}");
    }
    let run = |row0: usize, chunk: &mut [f32]| {
        for (i, o_row) in chunk.chunks_mut(m).enumerate() {
            let src = idx[row0 + i] as usize;
            o_row.copy_from_slice(&a[src * m..(src + 1) * m]);
        }
    };
    if par(idx.len() * m, pool) {
        pool.parallel_for_mut(out, m, min_rows(m), run);
    } else {
        run(0, out);
    }
}

/// Backward of [`gather_rows`]: scatter-adds `grad` row `i` into `da` row
/// `idx[i]`.
///
/// `da` (`n x m`, zero-initialized by the caller) is partitioned by
/// destination row; each thread scans `idx` in ascending order and
/// accumulates only the rows it owns, reproducing the scalar
/// accumulation order exactly.
///
/// # Panics
///
/// Panics if buffer lengths disagree.
pub(crate) fn gather_rows_grad(grad: &[f32], m: usize, idx: &[u32], da: &mut [f32], pool: &Pool) {
    assert_eq!(grad.len(), idx.len() * m, "gather grad shape");
    if m == 0 || da.is_empty() {
        return;
    }
    assert_eq!(da.len() % m, 0, "da must hold whole rows");
    let run = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / m;
        for (i, &src) in idx.iter().enumerate() {
            let src = src as usize;
            if src >= row0 && src < row0 + rows {
                row_add(
                    &mut chunk[(src - row0) * m..(src - row0 + 1) * m],
                    &grad[i * m..(i + 1) * m],
                );
            }
        }
    };
    if par_scatter(idx.len(), m, pool) {
        pool.parallel_for_mut(da, m, min_rows(2 * m), run);
    } else {
        run(0, da);
    }
}

/// Segment sum: `out` row `s` is the sum of `a` rows `i` with
/// `seg[i] == s` (the neighborhood-aggregation primitive).
///
/// `out` (`num_segments x m`, zero-initialized by the caller) is
/// partitioned by destination segment; each thread scans `seg` ascending
/// and accumulates only its own segments — the scalar order per segment.
///
/// # Panics
///
/// Panics if a segment id is out of range or buffer lengths disagree.
pub fn segment_sum(a: &[f32], m: usize, seg: &[u32], out: &mut [f32], pool: &Pool) {
    assert_eq!(a.len(), seg.len() * m, "segment input shape");
    if m == 0 {
        return;
    }
    if out.is_empty() {
        assert!(seg.is_empty(), "segment id out of range");
        return;
    }
    assert_eq!(out.len() % m, 0, "out must hold whole rows");
    let num_segments = out.len() / m;
    for &s in seg {
        assert!((s as usize) < num_segments, "segment id {s} out of range");
    }
    let run = |seg0: usize, chunk: &mut [f32]| {
        let segs = chunk.len() / m;
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            if s >= seg0 && s < seg0 + segs {
                row_add(&mut chunk[(s - seg0) * m..(s - seg0 + 1) * m], &a[i * m..(i + 1) * m]);
            }
        }
    };
    if par_scatter(seg.len(), m, pool) {
        pool.parallel_for_mut(out, m, min_rows(2 * m), run);
    } else {
        run(0, out);
    }
}

/// Fused weighted aggregation: `out[to[e]] += coeff[e] * x[from[e]]` for
/// every edge `e` in ascending order — [`gather_rows`], `row_scale` and
/// [`segment_sum`] in one pass that never materializes a per-edge row —
/// then, with `scale`, each output row `d` multiplied by `scale[d]` once
/// its sum is complete (GraphSAGE's `1/Σw` mean).
///
/// With `(from, to) = (edge_src, edge_dst)` this is the forward
/// neighborhood sum; with the two swapped and `x` the output gradient it
/// is the backward scatter into the source rows. Per element the product
/// is formed, rounded, then added, in edge order, and the scale is one
/// rounded multiply of the finished sum, so the result is bit-identical
/// to the three-kernel composition followed by `row_scale`. `out`
/// (zero-initialized by the caller) is partitioned by destination row
/// exactly like [`segment_sum`]: each thread scans the edge list
/// ascending and accumulates only the rows it owns.
///
/// # Panics
///
/// Panics if an index is out of range or buffer lengths disagree.
#[allow(clippy::too_many_arguments)] // flat kernel params, like the tape op they back
pub fn aggregate(
    x: &[f32],
    m: usize,
    from: &[u32],
    to: &[u32],
    coeff: &[f32],
    scale: Option<&[f32]>,
    out: &mut [f32],
    pool: &Pool,
) {
    assert_eq!(from.len(), to.len(), "edge arrays must be parallel");
    assert_eq!(from.len(), coeff.len(), "one coefficient per edge");
    if m == 0 {
        return;
    }
    assert_eq!(x.len() % m, 0, "input must hold whole rows");
    assert_eq!(out.len() % m, 0, "out must hold whole rows");
    let (n_in, n_out) = (x.len() / m, out.len() / m);
    if let Some(f) = scale {
        assert_eq!(f.len(), n_out, "one scale factor per output row");
    }
    for (&s, &d) in from.iter().zip(to) {
        assert!((s as usize) < n_in, "aggregate source {s} out of range {n_in}");
        assert!((d as usize) < n_out, "aggregate destination {d} out of range {n_out}");
    }
    let run = |row0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / m;
        for ((&s, &d), &c) in from.iter().zip(to).zip(coeff) {
            let (s, d) = (s as usize, d as usize);
            if d >= row0 && d < row0 + rows {
                row_axpy(&mut chunk[(d - row0) * m..(d - row0 + 1) * m], &x[s * m..(s + 1) * m], c);
            }
        }
        if let Some(f) = scale {
            scale_rows_in_place(chunk, m, &f[row0..row0 + rows]);
        }
    };
    if par_scatter(from.len(), m, pool) {
        pool.parallel_for_mut(out, m, min_rows(2 * m), run);
    } else {
        run(0, out);
    }
}

/// Backward of [`segment_sum`]: `da` row `i` is `grad` row `seg[i]`.
///
/// Rows of `da` are independent copies, partitioned across the pool.
///
/// # Panics
///
/// Panics if buffer lengths disagree.
pub(crate) fn segment_sum_grad(grad: &[f32], m: usize, seg: &[u32], da: &mut [f32], pool: &Pool) {
    assert_eq!(da.len(), seg.len() * m, "segment grad shape");
    if m == 0 {
        return;
    }
    let run = |row0: usize, chunk: &mut [f32]| {
        for (i, o_row) in chunk.chunks_mut(m).enumerate() {
            let s = seg[row0 + i] as usize;
            o_row.copy_from_slice(&grad[s * m..(s + 1) * m]);
        }
    };
    if par(seg.len() * m, pool) {
        pool.parallel_for_mut(da, m, min_rows(m), run);
    } else {
        run(0, da);
    }
}

/// Numerically-stable softmax over segments of the column `x`.
///
/// `max` (init `f32::NEG_INFINITY`) and `denom` (init `0.0`) are
/// caller-provided per-segment scratch of length `num_segments`. The
/// per-row passes (exp, normalize) partition `out` across the pool; the
/// 1-wide per-segment scans (max, denominator) always run inline, in
/// ascending row order, matching the scalar reference element for
/// element. Segments no row maps to keep their initial scratch values
/// (`-inf` max, `0.0` denominator) and produce no output rows.
///
/// # Panics
///
/// Panics if a segment id is out of range or lengths disagree.
pub fn segment_softmax(
    x: &[f32],
    seg: &[u32],
    max: &mut [f32],
    denom: &mut [f32],
    out: &mut [f32],
    pool: &Pool,
) {
    let n = x.len();
    assert_eq!(seg.len(), n, "segment ids must cover every row");
    assert_eq!(out.len(), n, "softmax output shape");
    assert_eq!(max.len(), denom.len(), "scratch lengths");
    let num_segments = max.len();
    for &s in seg {
        assert!((s as usize) < num_segments, "segment id {s} out of range");
    }
    if n == 0 {
        return;
    }
    let wide = par(8 * n, pool);
    // Pass 1: per-segment max. Always inline: a fan-out worker would
    // re-scan all of `seg` (the whole cost of this 1-wide pass) just to
    // find its own segments, so parallelism cannot win here.
    for (i, &s) in seg.iter().enumerate() {
        let s = s as usize;
        max[s] = max[s].max(x[i]);
    }
    // Pass 2: exponentials, shifted by the segment max.
    let maxes = &*max;
    let exp_run = |i0: usize, chunk: &mut [f32]| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = (x[i0 + i] - maxes[seg[i0 + i] as usize]).exp();
        }
    };
    if wide {
        pool.parallel_for_mut(out, 1, MIN_CHUNK_FLOPS / 8, exp_run);
    } else {
        exp_run(0, out);
    }
    // Pass 3: per-segment denominators, accumulated in ascending row
    // order exactly like the scalar reference. Inline for the same
    // reason as pass 1: the scan is the whole cost of a 1-wide pass.
    for (i, &s) in seg.iter().enumerate() {
        denom[s as usize] += out[i];
    }
    // Pass 4: normalize.
    let div_run = |i0: usize, chunk: &mut [f32]| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o /= denom[seg[i0 + i] as usize].max(f32::MIN_POSITIVE);
        }
    };
    if wide {
        pool.parallel_for_mut(out, 1, MIN_CHUNK_FLOPS / 8, div_run);
    } else {
        div_run(0, out);
    }
}

/// Backward of [`segment_softmax`]:
/// `da_i = y_i (g_i - sum_{j in segment(i)} y_j g_j)`.
///
/// `seg_dot` (init `0.0`) is caller-provided per-segment scratch; the
/// dot pass runs inline (ascending scan), the output pass partitions
/// rows across the pool.
///
/// # Panics
///
/// Panics if a segment id is out of range or lengths disagree.
pub(crate) fn segment_softmax_grad(
    y: &[f32],
    g: &[f32],
    seg: &[u32],
    seg_dot: &mut [f32],
    da: &mut [f32],
    pool: &Pool,
) {
    let n = y.len();
    assert_eq!(g.len(), n, "grad shape");
    assert_eq!(seg.len(), n, "segment ids must cover every row");
    assert_eq!(da.len(), n, "output shape");
    let num_segments = seg_dot.len();
    for &s in seg {
        assert!((s as usize) < num_segments, "segment id {s} out of range");
    }
    if n == 0 {
        return;
    }
    let wide = par(6 * n, pool);
    // Per-segment dots stay inline (1-wide scan pass; see
    // [`segment_softmax`] pass 1).
    for (i, &s) in seg.iter().enumerate() {
        seg_dot[s as usize] += y[i] * g[i];
    }
    let dots = &*seg_dot;
    let out_run = |i0: usize, chunk: &mut [f32]| {
        for (i, o) in chunk.iter_mut().enumerate() {
            let at = i0 + i;
            *o = y[at] * (g[at] - dots[seg[at] as usize]);
        }
    };
    if wide {
        pool.parallel_for_mut(da, 1, MIN_CHUNK_FLOPS / 6, out_run);
    } else {
        out_run(0, da);
    }
}

/// Elementwise `out[i] = f(a[i])`, partitioned across the pool.
///
/// # Panics
///
/// Panics if lengths disagree.
pub(crate) fn unary_map<F>(a: &[f32], out: &mut [f32], f: F, pool: &Pool)
where
    F: Fn(f32) -> f32 + Sync,
{
    assert_eq!(a.len(), out.len(), "unary map shape");
    let run = |i0: usize, chunk: &mut [f32]| {
        let src = &a[i0..i0 + chunk.len()];
        for (o, &x) in chunk.iter_mut().zip(src) {
            *o = f(x);
        }
    };
    if par(2 * a.len(), pool) {
        pool.parallel_for_mut(out, 1, MIN_CHUNK_FLOPS / 2, run);
    } else {
        run(0, out);
    }
}

/// Elementwise `out[i] = f(a[i], b[i])`, partitioned across the pool.
///
/// # Panics
///
/// Panics if lengths disagree.
pub(crate) fn binary_map<F>(a: &[f32], b: &[f32], out: &mut [f32], f: F, pool: &Pool)
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    assert_eq!(a.len(), b.len(), "binary map shape");
    assert_eq!(a.len(), out.len(), "binary map shape");
    let run = |i0: usize, chunk: &mut [f32]| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(a[i0 + i], b[i0 + i]);
        }
    };
    if par(2 * a.len(), pool) {
        pool.parallel_for_mut(out, 1, MIN_CHUNK_FLOPS / 2, run);
    } else {
        run(0, out);
    }
}

/// Row scaling: `out` row `r` is `a` row `r` times `factors[r]`
/// (GCN normalization, attention weighting, and their backward passes).
///
/// # Panics
///
/// Panics if lengths disagree.
pub(crate) fn row_scale(a: &[f32], m: usize, factors: &[f32], out: &mut [f32], pool: &Pool) {
    assert_eq!(a.len(), out.len(), "row scale shape");
    if m == 0 {
        return;
    }
    assert_eq!(a.len(), factors.len() * m, "one factor per row");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o_row) in chunk.chunks_mut(m).enumerate() {
            row_scale_one(o_row, &a[(row0 + r) * m..(row0 + r + 1) * m], factors[row0 + r]);
        }
    };
    if par(2 * a.len(), pool) {
        pool.parallel_for_mut(out, m, min_rows(2 * m), run);
    } else {
        run(0, out);
    }
}

/// `x` row `r` multiplied by `factors[r]` in place: one rounded multiply
/// per element, the same bits as [`row_scale`] into a second buffer.
fn scale_rows_in_place(x: &mut [f32], m: usize, factors: &[f32]) {
    for (row, &f) in x.chunks_exact_mut(m).zip(factors) {
        for v in row {
            *v *= f;
        }
    }
}

/// [`row_scale`] in place: row `r` of `x` (`m` wide) multiplied by
/// `factors[r]`.
///
/// # Panics
///
/// Panics if `x` does not hold one `m`-wide row per factor.
pub(crate) fn row_scale_in_place(x: &mut [f32], m: usize, factors: &[f32], pool: &Pool) {
    if m == 0 {
        return;
    }
    assert_eq!(x.len(), factors.len() * m, "one factor per row");
    if par(x.len(), pool) {
        pool.parallel_for_mut(x, m, min_rows(m), |row0, chunk| {
            scale_rows_in_place(chunk, m, &factors[row0..row0 + chunk.len() / m]);
        });
    } else {
        scale_rows_in_place(x, m, factors);
    }
}

/// Per-row dot products `out[r] = a_row_r . b_row_r` (the attention
/// column's backward pass).
///
/// # Panics
///
/// Panics if lengths disagree.
pub(crate) fn row_dot(a: &[f32], b: &[f32], m: usize, out: &mut [f32], pool: &Pool) {
    assert_eq!(a.len(), b.len(), "row dot shape");
    if m == 0 {
        for o in out.iter_mut() {
            *o = 0.0;
        }
        return;
    }
    assert_eq!(a.len(), out.len() * m, "row dot output shape");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o) in chunk.iter_mut().enumerate() {
            let at = (row0 + r) * m;
            *o = row_dot_one(&a[at..at + m], &b[at..at + m]);
        }
    };
    if par(2 * a.len(), pool) {
        pool.parallel_for_mut(out, 1, min_rows(2 * m).max(1), run);
    } else {
        run(0, out);
    }
}

/// Broadcast row addition `out = a + bias` with `bias` of length `m`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn add_bias(a: &[f32], bias: &[f32], out: &mut [f32], pool: &Pool) {
    let m = bias.len();
    assert_eq!(a.len(), out.len(), "add bias shape");
    if m == 0 {
        return;
    }
    assert_eq!(a.len() % m, 0, "rows must match bias width");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o_row) in chunk.chunks_mut(m).enumerate() {
            let a_row = &a[(row0 + r) * m..(row0 + r + 1) * m];
            for ((o, &x), &b) in o_row.iter_mut().zip(a_row).zip(bias) {
                *o = x + b;
            }
        }
    };
    if par(2 * a.len(), pool) {
        pool.parallel_for_mut(out, m, min_rows(2 * m), run);
    } else {
        run(0, out);
    }
}

/// Fills each `m`-wide row `r` of `out` with `col[r]` (row-sum backward).
///
/// # Panics
///
/// Panics if lengths disagree.
pub(crate) fn rows_from_col(col: &[f32], m: usize, out: &mut [f32], pool: &Pool) {
    if m == 0 {
        return;
    }
    assert_eq!(out.len(), col.len() * m, "broadcast shape");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o_row) in chunk.chunks_mut(m).enumerate() {
            o_row.fill(col[row0 + r]);
        }
    };
    if par(out.len(), pool) {
        pool.parallel_for_mut(out, m, min_rows(m), run);
    } else {
        run(0, out);
    }
}

/// Row-wise sums `out[r] = sum(a row r)`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn row_sums(a: &[f32], m: usize, out: &mut [f32], pool: &Pool) {
    if m == 0 {
        for o in out.iter_mut() {
            *o = 0.0;
        }
        return;
    }
    assert_eq!(a.len(), out.len() * m, "row sums shape");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o) in chunk.iter_mut().enumerate() {
            let at = (row0 + r) * m;
            *o = row_sum_one(&a[at..at + m]);
        }
    };
    if par(a.len(), pool) {
        pool.parallel_for_mut(out, 1, min_rows(m).max(1), run);
    } else {
        run(0, out);
    }
}

/// Column concatenation: `out` row `r` is `a` row `r` (`ma` wide)
/// followed by `b` row `r` (`mb` wide).
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn concat_cols(a: &[f32], ma: usize, b: &[f32], mb: usize, out: &mut [f32], pool: &Pool) {
    let m = ma + mb;
    if m == 0 {
        return;
    }
    assert_eq!(out.len() % m, 0, "out must hold whole rows");
    let n = out.len() / m;
    assert_eq!(a.len(), n * ma, "left operand shape");
    assert_eq!(b.len(), n * mb, "right operand shape");
    let run = |row0: usize, chunk: &mut [f32]| {
        for (r, o_row) in chunk.chunks_mut(m).enumerate() {
            let at = row0 + r;
            o_row[..ma].copy_from_slice(&a[at * ma..(at + 1) * ma]);
            o_row[ma..].copy_from_slice(&b[at * mb..(at + 1) * mb]);
        }
    };
    if par(out.len(), pool) {
        pool.parallel_for_mut(out, m, min_rows(m), run);
    } else {
        run(0, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::{Rng, SeedableRng};

    const THREADS: [usize; 4] = [1, 2, 3, 8];

    fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(seed)
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut r = rng(seed);
        (0..len).map(|_| r.gen_range(-2.0f32..2.0)).collect()
    }

    fn rand_idx(len: usize, n: usize, seed: u64) -> Vec<u32> {
        let mut r = rng(seed);
        (0..len).map(|_| r.gen_range(0..n) as u32).collect()
    }

    // Shapes large enough that `par()` takes the fan-out path on
    // multi-thread pools, so 1-vs-N compares scalar vs parallel.
    const EDGES: usize = 300_000;
    const NODES: usize = 50_000;
    const SEGS: usize = 40_000;
    const DIM: usize = 8;

    #[test]
    fn gather_rows_bit_identical_across_threads() {
        let a = rand_vec(NODES * DIM, 1);
        let idx = rand_idx(EDGES, NODES, 2);
        let mut reference = vec![0.0; EDGES * DIM];
        gather_rows(&a, DIM, &idx, &mut reference, &Pool::new(1));
        for t in THREADS {
            let mut out = vec![0.0; EDGES * DIM];
            gather_rows(&a, DIM, &idx, &mut out, &Pool::new(t));
            assert_eq!(out, reference, "gather_rows at {t} threads");
        }
    }

    #[test]
    fn gather_rows_grad_bit_identical_across_threads() {
        let grad = rand_vec(EDGES * DIM, 3);
        let idx = rand_idx(EDGES, NODES, 4);
        let mut reference = vec![0.0; NODES * DIM];
        gather_rows_grad(&grad, DIM, &idx, &mut reference, &Pool::new(1));
        for t in THREADS {
            let mut da = vec![0.0; NODES * DIM];
            gather_rows_grad(&grad, DIM, &idx, &mut da, &Pool::new(t));
            assert_eq!(da, reference, "gather_rows_grad at {t} threads");
        }
    }

    #[test]
    fn segment_sum_bit_identical_across_threads() {
        let a = rand_vec(EDGES * DIM, 5);
        let seg = rand_idx(EDGES, SEGS, 6);
        let mut reference = vec![0.0; SEGS * DIM];
        segment_sum(&a, DIM, &seg, &mut reference, &Pool::new(1));
        for t in THREADS {
            let mut out = vec![0.0; SEGS * DIM];
            segment_sum(&a, DIM, &seg, &mut out, &Pool::new(t));
            assert_eq!(out, reference, "segment_sum at {t} threads");
        }
    }

    #[test]
    fn aggregate_bit_identical_across_threads_and_to_the_unfused_chain() {
        let x = rand_vec(NODES * DIM, 21);
        let from = rand_idx(EDGES, NODES, 22);
        let to = rand_idx(EDGES, SEGS, 23);
        let coeff = rand_vec(EDGES, 24);
        let one = Pool::new(1);
        // Oracle: gather -> row scale -> segment sum, per-edge rows and all.
        let mut msgs = vec![0.0; EDGES * DIM];
        gather_rows(&x, DIM, &from, &mut msgs, &one);
        let mut weighted = vec![0.0; EDGES * DIM];
        row_scale(&msgs, DIM, &coeff, &mut weighted, &one);
        let mut reference = vec![0.0; SEGS * DIM];
        segment_sum(&weighted, DIM, &to, &mut reference, &one);
        for t in THREADS {
            let mut out = vec![0.0; SEGS * DIM];
            aggregate(&x, DIM, &from, &to, &coeff, None, &mut out, &Pool::new(t));
            let same = out.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "aggregate at {t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn aggregate_checks_bounds() {
        let mut out = vec![0.0; 2];
        aggregate(&[0.0; 4], 2, &[0], &[1], &[1.0], None, &mut out, &Pool::new(1));
    }

    #[test]
    fn segment_sum_grad_bit_identical_across_threads() {
        let grad = rand_vec(SEGS * DIM, 7);
        let seg = rand_idx(EDGES, SEGS, 8);
        let mut reference = vec![0.0; EDGES * DIM];
        segment_sum_grad(&grad, DIM, &seg, &mut reference, &Pool::new(1));
        for t in THREADS {
            let mut da = vec![0.0; EDGES * DIM];
            segment_sum_grad(&grad, DIM, &seg, &mut da, &Pool::new(t));
            assert_eq!(da, reference, "segment_sum_grad at {t} threads");
        }
    }

    #[test]
    fn segment_softmax_bit_identical_across_threads_and_matches_fused_scalar() {
        let n = 400_000;
        let segs = 30_000;
        let x = rand_vec(n, 9);
        let seg = rand_idx(n, segs, 10);
        // Fused scalar reference (the pre-parallel tape implementation).
        let mut fmax = vec![f32::NEG_INFINITY; segs];
        for (i, &s) in seg.iter().enumerate() {
            fmax[s as usize] = fmax[s as usize].max(x[i]);
        }
        let mut fden = vec![0.0f32; segs];
        let mut fused = vec![0.0f32; n];
        for (i, &s) in seg.iter().enumerate() {
            let e = (x[i] - fmax[s as usize]).exp();
            fused[i] = e;
            fden[s as usize] += e;
        }
        for (i, &s) in seg.iter().enumerate() {
            fused[i] /= fden[s as usize].max(f32::MIN_POSITIVE);
        }
        for t in THREADS {
            let mut max = vec![f32::NEG_INFINITY; segs];
            let mut denom = vec![0.0; segs];
            let mut out = vec![0.0; n];
            segment_softmax(&x, &seg, &mut max, &mut denom, &mut out, &Pool::new(t));
            assert_eq!(out, fused, "segment_softmax at {t} threads");
        }
    }

    #[test]
    fn segment_softmax_grad_bit_identical_across_threads() {
        let n = 400_000;
        let segs = 30_000;
        let y = rand_vec(n, 11);
        let g = rand_vec(n, 12);
        let seg = rand_idx(n, segs, 13);
        let mut ref_dot = vec![0.0; segs];
        let mut reference = vec![0.0; n];
        segment_softmax_grad(&y, &g, &seg, &mut ref_dot, &mut reference, &Pool::new(1));
        for t in THREADS {
            let mut dot = vec![0.0; segs];
            let mut da = vec![0.0; n];
            segment_softmax_grad(&y, &g, &seg, &mut dot, &mut da, &Pool::new(t));
            assert_eq!(da, reference, "segment_softmax_grad at {t} threads");
            assert_eq!(dot, ref_dot, "seg_dot at {t} threads");
        }
    }

    #[test]
    fn elementwise_and_row_kernels_bit_identical_across_threads() {
        let n = 300_000;
        let m = 8;
        let a = rand_vec(n * m, 14);
        let b = rand_vec(n * m, 15);
        let factors = rand_vec(n, 16);
        let bias = rand_vec(m, 17);
        for t in THREADS {
            let pool = Pool::new(t);
            let one = Pool::new(1);
            let mut x = vec![0.0; n * m];
            let mut y = vec![0.0; n * m];
            unary_map(&a, &mut x, |v| v.max(0.0), &pool);
            unary_map(&a, &mut y, |v| v.max(0.0), &one);
            assert_eq!(x, y, "unary at {t}");
            binary_map(&a, &b, &mut x, |u, v| u * v, &pool);
            binary_map(&a, &b, &mut y, |u, v| u * v, &one);
            assert_eq!(x, y, "binary at {t}");
            row_scale(&a, m, &factors, &mut x, &pool);
            row_scale(&a, m, &factors, &mut y, &one);
            assert_eq!(x, y, "row_scale at {t}");
            add_bias(&a, &bias, &mut x, &pool);
            add_bias(&a, &bias, &mut y, &one);
            assert_eq!(x, y, "add_bias at {t}");
            let mut cx = vec![0.0; n];
            let mut cy = vec![0.0; n];
            row_dot(&a, &b, m, &mut cx, &pool);
            row_dot(&a, &b, m, &mut cy, &one);
            assert_eq!(cx, cy, "row_dot at {t}");
            row_sums(&a, m, &mut cx, &pool);
            row_sums(&a, m, &mut cy, &one);
            assert_eq!(cx, cy, "row_sums at {t}");
            rows_from_col(&factors, m, &mut x, &pool);
            rows_from_col(&factors, m, &mut y, &one);
            assert_eq!(x, y, "rows_from_col at {t}");
        }
    }

    #[test]
    fn concat_cols_matches_scalar_layout() {
        let a = rand_vec(5 * 2, 18);
        let b = rand_vec(5 * 3, 19);
        let mut out = vec![0.0; 5 * 5];
        concat_cols(&a, 2, &b, 3, &mut out, &Pool::new(4));
        for r in 0..5 {
            assert_eq!(&out[r * 5..r * 5 + 2], &a[r * 2..(r + 1) * 2]);
            assert_eq!(&out[r * 5 + 2..r * 5 + 5], &b[r * 3..(r + 1) * 3]);
        }
    }

    #[test]
    fn small_shapes_stay_on_the_scalar_path() {
        // Below the flop threshold the pool must not be consulted: a
        // panicking closure inside Pool would fire if fan-out happened.
        let a = rand_vec(6 * 2, 20);
        let idx = vec![0u32, 3, 5, 1];
        let mut out = vec![0.0; 4 * 2];
        gather_rows(&a, 2, &idx, &mut out, &Pool::new(8));
        for (i, &src) in idx.iter().enumerate() {
            assert_eq!(&out[i * 2..(i + 1) * 2], &a[src as usize * 2..(src as usize + 1) * 2]);
        }
    }

    #[test]
    fn segment_sum_empty_segments_stay_zero_forward_and_backward() {
        // 4 segments, rows mapping only to segments 1 and 3: segments 0
        // and 2 are empty and must keep their zero-initialized rows.
        let a = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0];
        let seg = vec![1u32, 3, 1];
        let mut out = vec![0.0; 4 * 2];
        segment_sum(&a, 2, &seg, &mut out, &Pool::new(4));
        assert_eq!(out, vec![0.0, 0.0, 11.0, 22.0, 0.0, 0.0, 3.0, 4.0]);
        // Backward: da row i is grad row seg[i]; empty segments simply
        // never appear.
        let grad = vec![0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let mut da = vec![0.0; 3 * 2];
        segment_sum_grad(&grad, 2, &seg, &mut da, &Pool::new(4));
        assert_eq!(da, vec![1.0, 1.0, 3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn segment_sum_with_no_rows_leaves_output_zero() {
        let a: Vec<f32> = Vec::new();
        let seg: Vec<u32> = Vec::new();
        let mut out = vec![0.0; 3 * 2];
        segment_sum(&a, 2, &seg, &mut out, &Pool::new(2));
        assert!(out.iter().all(|&v| v == 0.0));
        let mut da: Vec<f32> = Vec::new();
        segment_sum_grad(&[0.0; 6], 2, &seg, &mut da, &Pool::new(2));
        assert!(da.is_empty());
    }

    #[test]
    fn segment_softmax_single_row_segment_forward_and_backward() {
        // Segment 0 has one row (softmax == 1.0), segment 1 has two,
        // segment 2 is empty.
        let x = vec![3.0, 0.0, 0.0];
        let seg = vec![0u32, 1, 1];
        let mut max = vec![f32::NEG_INFINITY; 3];
        let mut denom = vec![0.0; 3];
        let mut out = vec![0.0; 3];
        segment_softmax(&x, &seg, &mut max, &mut denom, &mut out, &Pool::new(4));
        assert_eq!(out[0], 1.0, "single-row segment normalizes to 1");
        assert!((out[1] - 0.5).abs() < 1e-6 && (out[2] - 0.5).abs() < 1e-6);
        // The empty segment keeps its init scratch and contributes no rows.
        assert_eq!(max[2], f32::NEG_INFINITY);
        assert_eq!(denom[2], 0.0);
        // Backward: a single-row segment's softmax is constant, so its
        // gradient must vanish exactly.
        let g = vec![0.7, 1.0, -1.0];
        let mut seg_dot = vec![0.0; 3];
        let mut da = vec![0.0; 3];
        segment_softmax_grad(&out, &g, &seg, &mut seg_dot, &mut da, &Pool::new(4));
        assert_eq!(da[0], 0.0, "constant output => zero gradient");
        assert!((da[1] - 0.5).abs() < 1e-6 && (da[2] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_empty_input_is_a_no_op() {
        let mut max = vec![f32::NEG_INFINITY; 2];
        let mut denom = vec![0.0; 2];
        let mut out: Vec<f32> = Vec::new();
        segment_softmax(&[], &[], &mut max, &mut denom, &mut out, &Pool::new(4));
        assert_eq!(max, vec![f32::NEG_INFINITY; 2]);
        assert_eq!(denom, vec![0.0; 2]);
        let mut seg_dot = vec![0.0; 2];
        let mut da: Vec<f32> = Vec::new();
        segment_softmax_grad(&[], &[], &[], &mut seg_dot, &mut da, &Pool::new(4));
        assert_eq!(seg_dot, vec![0.0; 2]);
    }

    #[test]
    fn single_row_input_round_trips_all_segment_kernels() {
        let a = vec![2.0, -1.0];
        let seg = vec![0u32];
        let mut out = vec![0.0; 2];
        segment_sum(&a, 2, &seg, &mut out, &Pool::new(8));
        assert_eq!(out, a);
        let mut da = vec![0.0; 2];
        segment_sum_grad(&out, 2, &seg, &mut da, &Pool::new(8));
        assert_eq!(da, a);
        let mut max = vec![f32::NEG_INFINITY];
        let mut denom = vec![0.0];
        let mut soft = vec![0.0];
        segment_softmax(&[5.0], &seg, &mut max, &mut denom, &mut soft, &Pool::new(8));
        assert_eq!(soft, vec![1.0]);
        assert_eq!(max, vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_checks_bounds() {
        let a = vec![0.0; 4];
        let mut out = vec![0.0; 2];
        gather_rows(&a, 2, &[7], &mut out, &Pool::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_sum_checks_bounds() {
        let a = vec![0.0; 4];
        let mut out = vec![0.0; 2];
        segment_sum(&a, 2, &[0, 3], &mut out, &Pool::new(1));
    }
}
