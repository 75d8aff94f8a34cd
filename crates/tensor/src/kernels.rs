//! Register-blocked, row-partitioned matmul microkernels.
//!
//! Each kernel partitions its *output rows* across a [`Pool`] — every
//! output row is owned by exactly one thread — and computes fixed-width
//! register tiles (`MR` output rows × `NR` output columns of `f32`
//! accumulators held in a stack array) with scalar tail loops for the
//! row/column remainders. The tile loops have compile-time trip counts
//! over contiguous slices, which is the shape LLVM auto-vectorizes into
//! packed SIMD without any `unsafe` (the workspace forbids intrinsics):
//! 8-lane AVX2 registers under the workspace's x86-64-v3 build, 4-lane
//! SSE2 ones on baseline x86-64, with the same bits either way.
//!
//! Both the partitioning and the tiling preserve the per-element
//! accumulation order of the scalar reference kernels in
//! [`Tensor`](crate::Tensor) (`k` ascending, with the same
//! skip-on-zero for `nn`/`tn` and the same single left-to-right dot for
//! `nt`), so the results are **bit-identical** to the scalar kernels at
//! every thread count and at every tile boundary. The equality tests in
//! `tests/parallel_kernels.rs` and the `#[cfg(test)]` bit-identity
//! harness below pin this down shape by shape.

use splpg_par::Pool;

/// Flop count (`2·n·k·m`) below which [`Tensor`](crate::Tensor) stays on
/// the scalar kernels: under ~100us of work, thread spawn dominates.
pub const PAR_FLOP_THRESHOLD: usize = 2_000_000;

/// Flop count below which even the single-thread microkernel is not
/// engaged: for tiny products the tile setup costs more than it saves.
pub const MICRO_FLOP_THRESHOLD: usize = 16_384;

/// Minimum flops per chunk handed to a worker thread.
const MIN_CHUNK_FLOPS: usize = 500_000;

/// Output columns per register tile: two 8-lane `f32` vectors.
const NR: usize = 16;

/// Output rows per register tile.
const MR: usize = 4;

/// Depth per packed k-tile in the `nt` kernel: bounds the transposed
/// `b` panel to `TK * NR * 4` bytes (8 KiB) of stack.
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
pub fn par_parts(rows: usize, k: usize, m: usize) -> usize {
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

/// Dispatch gate shared by [`Tensor`](crate::Tensor)'s matmul paths:
/// true when the cost model picks more than one worker.
pub fn par_dispatch(rows: usize, k: usize, m: usize) -> bool {
    par_parts(rows, k, m) > 1
}

/// `a[n,k] @ b[k,m]`, row-major, into a fresh `[n,m]` buffer.
///
/// Row-partitioned over `pool`; register-tiled. Accumulation per output
/// element runs over `k` ascending with the scalar kernel's
/// skip-on-zero, so the result is bit-identical to
/// [`Tensor::matmul_scalar`](crate::Tensor::matmul_scalar).
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
pub fn matmul_nn_into(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    if n == 0 || m == 0 || k == 0 {
        return;
    }
    pool.parallel_for_mut(out, m, min_rows_per_chunk(k, m), |row0, chunk| {
        nn_chunk(a, b, k, m, row0, chunk);
    });
}

/// One chunk of `nn` output rows: `MR x NR` register tiles with scalar
/// tails. Per output element the adds run over `k` ascending with
/// skip-on-zero, exactly like the scalar reference.
fn nn_chunk(a: &[f32], b: &[f32], k: usize, m: usize, row0: usize, chunk: &mut [f32]) {
    let rows = chunk.len() / m;
    let jm = m - m % NR;
    let mut r = 0;
    while r + MR <= rows {
        let mut jb = 0;
        while jb < jm {
            nn_tile::<MR>(a, b, k, m, row0 + r, jb, r, chunk);
            jb += NR;
        }
        nn_cols_tail(a, b, k, m, row0 + r, MR, jm, r, chunk);
        r += MR;
    }
    while r < rows {
        let mut jb = 0;
        while jb < jm {
            nn_tile::<1>(a, b, k, m, row0 + r, jb, r, chunk);
            jb += NR;
        }
        nn_cols_tail(a, b, k, m, row0 + r, 1, jm, r, chunk);
        r += 1;
    }
}

/// `R x NR` register tile of `out = a @ b` at rows `ar0..ar0+R`, columns
/// `jb..jb+NR`. The accumulator array lives in registers; `k` streams
/// ascending with the scalar skip-on-zero per row.
#[inline]
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn nn_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    ar0: usize,
    jb: usize,
    cr0: usize,
    chunk: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; R];
    for kk in 0..k {
        let b_seg = &b[kk * m + jb..kk * m + jb + NR];
        for r in 0..R {
            let av = a[(ar0 + r) * k + kk];
            if av == 0.0 {
                continue;
            }
            for (al, &bv) in acc[r].iter_mut().zip(b_seg) {
                *al += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR].copy_from_slice(acc_row);
    }
}

/// Scalar column tail (`jm..m`) for `rows` rows of the `nn` kernel, in
/// the scalar reference's exact per-element order.
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn nn_cols_tail(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
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
        let a_row = &a[(ar0 + r) * k..(ar0 + r + 1) * k];
        let o_row = &mut chunk[(cr0 + r) * m + jm..(cr0 + r) * m + m];
        for (kk, &av) in a_row.iter().enumerate() {
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

/// `a[k,n]^T @ b[k,m]` into a fresh `[n,m]` buffer, without
/// materializing the transpose.
///
/// Output rows (columns of `a`) are partitioned over `pool`; the shared
/// `k` dimension streams in ascending order for every element, matching
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
pub fn matmul_tn_into(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    if n == 0 || m == 0 || k == 0 {
        return;
    }
    pool.parallel_for_mut(out, m, min_rows_per_chunk(k, m), |row0, chunk| {
        tn_chunk(a, b, k, n, m, row0, chunk);
    });
}

/// One chunk of `tn` output rows (columns of `a`): same tiling as
/// [`nn_chunk`], with `a` read down its columns.
fn tn_chunk(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, row0: usize, chunk: &mut [f32]) {
    let rows = chunk.len() / m;
    let jm = m - m % NR;
    let mut r = 0;
    while r + MR <= rows {
        let mut jb = 0;
        while jb < jm {
            tn_tile::<MR>(a, b, k, n, m, row0 + r, jb, r, chunk);
            jb += NR;
        }
        tn_cols_tail(a, b, k, n, m, row0 + r, MR, jm, r, chunk);
        r += MR;
    }
    while r < rows {
        let mut jb = 0;
        while jb < jm {
            tn_tile::<1>(a, b, k, n, m, row0 + r, jb, r, chunk);
            jb += NR;
        }
        tn_cols_tail(a, b, k, n, m, row0 + r, 1, jm, r, chunk);
        r += 1;
    }
}

/// `R x NR` register tile of `out = a^T @ b` at output rows
/// `ar0..ar0+R` (columns of `a`), columns `jb..jb+NR`.
#[inline]
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn tn_tile<const R: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    m: usize,
    ar0: usize,
    jb: usize,
    cr0: usize,
    chunk: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; R];
    for kk in 0..k {
        let b_seg = &b[kk * m + jb..kk * m + jb + NR];
        for r in 0..R {
            let av = a[kk * n + ar0 + r];
            if av == 0.0 {
                continue;
            }
            for (al, &bv) in acc[r].iter_mut().zip(b_seg) {
                *al += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[(cr0 + r) * m + jb..(cr0 + r) * m + jb + NR].copy_from_slice(acc_row);
    }
}

/// Scalar column tail for the `tn` kernel.
#[allow(clippy::too_many_arguments)] // flat kernel params mirror the BLAS-style signature
fn tn_cols_tail(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    m: usize,
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
        for kk in 0..k {
            let av = a[kk * n + ar0 + r];
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
pub fn matmul_nt_into(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    pool: &Pool,
    out: &mut [f32],
) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    pool.parallel_for_mut(out, m, min_rows_per_chunk(k, m), |row0, chunk| {
        nt_chunk(a, b, k, m, row0, chunk);
    });
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

    #[test]
    fn dispatch_matches_parts() {
        assert_eq!(par_dispatch(4096, 256, 256), par_parts(4096, 256, 256) > 1);
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
        for i in 0..n {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i * m + j] += av * b[kk * m + j];
                }
            }
        }
        out
    }

    fn scalar_tn(a: &[f32], b: &[f32], k: usize, n: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for kk in 0..k {
            for i in 0..n {
                let av = a[kk * n + i];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i * m + j] += av * b[kk * m + j];
                }
            }
        }
        out
    }

    fn scalar_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                out[i * m + j] = acc;
            }
        }
        out
    }

    /// Shapes chosen to straddle every tile boundary: row tails
    /// (`n % MR`), column tails (`m % NR`), k-tile tails (`k % TK`), and
    /// degenerate sizes.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (1, 3, 17),
            (3, 5, 15),
            (4, 7, 16),
            (5, 129, 33),
            (7, 64, 48),
            (8, 130, 16),
            (9, 2, 31),
            (13, 257, 19),
            (17, 128, 35),
            (33, 1, 16),
        ]
    }

    #[test]
    fn microkernels_bit_identical_to_scalar_references() {
        for &(n, k, m) in &shapes() {
            let mut a = vec![0.0f32; n * k];
            let mut b_nn = vec![0.0f32; k * m];
            let mut a_tn = vec![0.0f32; k * n];
            let mut b_nt = vec![0.0f32; m * k];
            fill(&mut a, (n * 31 + k * 7 + m) as u32);
            fill(&mut b_nn, (n * 13 + k * 3 + m) as u32);
            fill(&mut a_tn, (n * 5 + k * 11 + m) as u32);
            fill(&mut b_nt, (n * 17 + k + m * 3) as u32);
            for threads in [1usize, 3] {
                let pool = Pool::new(threads);
                let got = matmul_nn(&a, &b_nn, n, k, m, &pool);
                assert_eq!(got, scalar_nn(&a, &b_nn, n, k, m), "nn {n}x{k}x{m} t{threads}");
                let got = matmul_tn(&a_tn, &b_nn, k, n, m, &pool);
                assert_eq!(got, scalar_tn(&a_tn, &b_nn, k, n, m), "tn {n}x{k}x{m} t{threads}");
                let got = matmul_nt(&a, &b_nt, n, k, m, &pool);
                assert_eq!(got, scalar_nt(&a, &b_nt, n, k, m), "nt {n}x{k}x{m} t{threads}");
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
        assert_eq!(out, scalar_nt(&a, &b, n, k, m));
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(&a, &b, n, 0, m, &Pool::new(1), &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "k=0 must still overwrite");
    }
}
