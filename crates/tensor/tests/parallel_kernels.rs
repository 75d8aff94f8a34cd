//! Bit-for-bit equality of the cache-blocked parallel matmul kernels
//! against the scalar references, across odd shapes and thread counts.
//!
//! Equal raw bits of the f32 buffers — not `==`, which lets `-0.0` pass
//! for `+0.0`, and not approximate comparison — is the contract:
//! blocking and row partitioning must not change the per-element
//! accumulation order.

use splpg_par::Pool;
use splpg_rng::{Rng, SeedableRng};
use splpg_tensor::{kernels, Tensor};

const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// Odd shapes: degenerate, single-row, prime dims, rows < threads,
/// sizes straddling the tile boundaries (64/128), and depths spanning
/// several k-blocks.
const SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (1, 17, 1),
    (1, 64, 9),
    (7, 13, 17),
    (2, 128, 130),
    (3, 1, 3),
    (5, 5, 5),
    (31, 67, 129),
    (64, 64, 64),
    (97, 128, 65),
    (5, 600, 70),
    (9, 3100, 64),
];

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
    // Sprinkle exact zeros of both signs so the skip-on-zero path is
    // exercised.
    Tensor::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(0.15) {
            if rng.gen_bool(0.5) {
                0.0
            } else {
                -0.0
            }
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

/// Raw bits, every NaN folded to one pattern (IEEE 754 leaves a NaN's
/// sign and payload open; everything else, signed zeros included, must
/// match).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// `x` with column `col` set to `value(row)`.
fn with_col(x: &Tensor, col: usize, value: impl Fn(usize) -> f32) -> Tensor {
    Tensor::from_fn(x.rows(), x.cols(), |r, c| if c == col { value(r) } else { x.get(r, c) })
}

/// `x` with row `row` set to `value(col)`.
fn with_row(x: &Tensor, row: usize, value: impl Fn(usize) -> f32) -> Tensor {
    Tensor::from_fn(x.rows(), x.cols(), |r, c| if r == row { value(c) } else { x.get(r, c) })
}

fn signed_zero(i: usize) -> f32 {
    if i.is_multiple_of(2) {
        0.0
    } else {
        -0.0
    }
}

fn signed_inf(i: usize) -> f32 {
    if i.is_multiple_of(2) {
        f32::INFINITY
    } else {
        f32::NEG_INFINITY
    }
}

/// `kernel` at every pool size against the scalar `reference`, in bits.
fn check(what: &str, reference: &Tensor, kernel: impl Fn(&Pool) -> Vec<f32>) {
    for threads in THREAD_COUNTS {
        assert_eq!(
            bits(&kernel(&Pool::new(threads))),
            bits(reference.data()),
            "{what} differs at {threads} threads"
        );
    }
}

#[test]
fn matmul_nn_bit_identical_across_threads() {
    for (case, &(n, k, m)) in SHAPES.iter().enumerate() {
        let a = rand_matrix(n, k, case as u64);
        let b = rand_matrix(k, m, 100 + case as u64);
        let what = format!("nn [{n},{k}]x[{k},{m}]");
        check(&what, &a.matmul_scalar(&b), |pool| {
            kernels::matmul_nn(a.data(), b.data(), n, k, m, pool)
        });
        // Row 0 of `a` all `-0.0` against a non-negative column 0 of `b`:
        // every term of output (0, 0) is `-0.0`, and it must come out as
        // the scalar kernel's untouched `+0.0`.
        let a0 = with_row(&a, 0, |_| -0.0);
        let b0 = with_col(&b, 0, |kk| b.get(kk, 0).abs());
        let reference = a0.matmul_scalar(&b0);
        assert_eq!(reference.get(0, 0).to_bits(), 0, "{what}");
        check(&format!("{what} with -0.0"), &reference, |pool| {
            kernels::matmul_nn(a0.data(), b0.data(), n, k, m, pool)
        });
        // Zeros of `a` facing infinities of `b` are skipped: finite.
        let a = with_col(&a, k / 2, signed_zero);
        let b = with_row(&b, k / 2, signed_inf);
        let reference = a.matmul_scalar(&b);
        assert!(reference.data().iter().all(|x| x.is_finite()), "{what}");
        check(&format!("{what} with inf"), &reference, |pool| {
            kernels::matmul_nn(a.data(), b.data(), n, k, m, pool)
        });
    }
}

#[test]
fn matmul_tn_bit_identical_across_threads() {
    for (case, &(n, k, m)) in SHAPES.iter().enumerate() {
        // tn computes a[k,n]^T @ b[k,m].
        let a = rand_matrix(k, n, 200 + case as u64);
        let b = rand_matrix(k, m, 300 + case as u64);
        let what = format!("tn [{k},{n}]^T x [{k},{m}]");
        check(&what, &a.matmul_tn_scalar(&b), |pool| {
            kernels::matmul_tn(a.data(), b.data(), k, n, m, pool)
        });
        let a0 = with_col(&a, 0, |_| -0.0);
        let b0 = with_col(&b, 0, |kk| b.get(kk, 0).abs());
        let reference = a0.matmul_tn_scalar(&b0);
        assert_eq!(reference.get(0, 0).to_bits(), 0, "{what}");
        check(&format!("{what} with -0.0"), &reference, |pool| {
            kernels::matmul_tn(a0.data(), b0.data(), k, n, m, pool)
        });
        let a = with_row(&a, k / 2, signed_zero);
        let b = with_row(&b, k / 2, signed_inf);
        let reference = a.matmul_tn_scalar(&b);
        assert!(reference.data().iter().all(|x| x.is_finite()), "{what}");
        check(&format!("{what} with inf"), &reference, |pool| {
            kernels::matmul_tn(a.data(), b.data(), k, n, m, pool)
        });
    }
}

#[test]
fn matmul_nt_bit_identical_across_threads() {
    for (case, &(n, k, m)) in SHAPES.iter().enumerate() {
        // nt computes a[n,k] @ b[m,k]^T.
        let a = rand_matrix(n, k, 400 + case as u64);
        let b = rand_matrix(m, k, 500 + case as u64);
        let what = format!("nt [{n},{k}] x [{m},{k}]^T");
        check(&what, &a.matmul_nt_scalar(&b), |pool| {
            kernels::matmul_nt(a.data(), b.data(), n, k, m, pool)
        });
        // The nt dot has no skip-on-zero: `0 * inf` makes every entry NaN.
        let a = with_col(&a, k / 2, signed_zero);
        let b = with_col(&b, k / 2, signed_inf);
        let reference = a.matmul_nt_scalar(&b);
        assert!(reference.data().iter().all(|x| x.is_nan()), "{what}");
        check(&format!("{what} with inf"), &reference, |pool| {
            kernels::matmul_nt(a.data(), b.data(), n, k, m, pool)
        });
    }
}

#[test]
fn dispatching_entry_points_match_scalar_above_threshold() {
    // [160, 80] x [80, 90] = 2.3M flops: above PAR_FLOP_THRESHOLD, so
    // the public methods take the parallel path.
    let (n, k, m) = (160, 80, 90);
    assert!(2 * n * k * m >= kernels::PAR_FLOP_THRESHOLD);
    let a = rand_matrix(n, k, 600);
    let b = rand_matrix(k, m, 601);
    let bt = b.transpose();
    let at = a.transpose();
    for threads in THREAD_COUNTS {
        splpg_par::set_num_threads(threads);
        assert_eq!(
            bits(a.matmul(&b).data()),
            bits(a.matmul_scalar(&b).data()),
            "matmul at {threads} threads"
        );
        assert_eq!(
            bits(at.matmul_tn(&b).data()),
            bits(at.matmul_tn_scalar(&b).data()),
            "matmul_tn at {threads} threads"
        );
        assert_eq!(
            bits(a.matmul_nt(&bt).data()),
            bits(a.matmul_nt_scalar(&bt).data()),
            "matmul_nt at {threads} threads"
        );
    }
    splpg_par::set_num_threads(0);
}

#[test]
fn transposed_kernels_agree_with_explicit_transpose() {
    let (n, k, m) = (23, 31, 29);
    let a = rand_matrix(n, k, 700);
    let b = rand_matrix(k, m, 701);
    let pool = Pool::new(3);
    let nn = kernels::matmul_nn(a.data(), b.data(), n, k, m, &pool);
    let tn = kernels::matmul_tn(a.transpose().data(), b.data(), k, n, m, &pool);
    let nt = kernels::matmul_nt(a.data(), b.transpose().data(), n, k, m, &pool);
    // Same math through three loop orders: approximate agreement (the
    // accumulation orders legitimately differ between variants).
    for ((&x, &y), &z) in nn.iter().zip(&tn).zip(&nt) {
        assert!((x - y).abs() < 1e-3, "nn vs tn: {x} vs {y}");
        assert!((x - z).abs() < 1e-3, "nn vs nt: {x} vs {z}");
    }
}
