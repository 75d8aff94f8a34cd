//! Bit-for-bit equality of the cache-blocked parallel matmul kernels
//! against the scalar references, across odd shapes and thread counts,
//! and of the tape's affine ops (`concat_linear`, `linear`) and mean
//! aggregation against the unfused op chains they replace.
//!
//! Equal raw bits of the f32 buffers — not `==`, which lets `-0.0` pass
//! for `+0.0`, and not approximate comparison — is the contract:
//! blocking and row partitioning must not change the per-element
//! accumulation order.

use splpg_par::Pool;
use splpg_rng::{Rng, SeedableRng};
use splpg_tensor::{kernels, Tape, Tensor, Var};

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

// ---- the affine ops and mean aggregation on the tape, against the
// unfused chains they replace ----

/// Pool sizes the tape-level batteries run at (the global pool).
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Bits of one recorded product and of its input gradients.
#[derive(Debug, PartialEq)]
struct Recorded {
    value: Vec<u32>,
    grads: Vec<Vec<u32>>,
}

/// Records `product(tape, leaves)` over parameter leaves holding
/// `inputs`, backpropagates the upstream gradient `upstream` into it
/// (`loss = Σ product ⊙ upstream`, so the product's gradient is
/// `upstream` bit for bit), and returns the bits of the product and of
/// every leaf's gradient. The step runs twice on one tape and the second
/// is returned; the first also records two NaN-filled constants shaped
/// like each input, so a buffer an op takes un-zeroed in the second step
/// may hold NaN.
fn record(
    inputs: &[&Tensor],
    upstream: &Tensor,
    product: impl Fn(&mut Tape, &[Var]) -> Var,
) -> Recorded {
    let mut tape = Tape::new();
    let mut step = |poison: bool| {
        tape.reset();
        for x in inputs.iter().filter(|_| poison).flat_map(|x| [x, x]) {
            tape.leaf_with(x.rows(), x.cols(), |buf| buf.resize(x.len(), f32::NAN));
        }
        let leaves: Vec<Var> = inputs.iter().map(|x| tape.leaf_copy(x)).collect();
        let y = product(&mut tape, &leaves);
        assert_eq!(tape.value(y).shape(), upstream.shape(), "upstream gradient shape");
        let g = tape.leaf_with(upstream.rows(), upstream.cols(), |buf| {
            buf.extend_from_slice(upstream.data());
        });
        let weighted = tape.mul(y, g);
        let loss = tape.sum_all(weighted);
        let value = bits(tape.value(y).data());
        let grads = tape.backward(loss);
        let bits_of = |v: Var| bits(grads.get(v).expect("leaf gradient").data());
        let recorded = Recorded { value, grads: leaves.iter().map(|&v| bits_of(v)).collect() };
        tape.recycle_gradients(grads);
        recorded
    };
    step(true);
    step(false)
}

/// `[rows, cols]` upstream gradient whose rows `0, 3, 6, …` are all
/// `-0.0`, with further `-0.0` entries sprinkled over the rest.
fn upstream_with_negative_zeros(rows: usize, cols: usize, seed: u64) -> Tensor {
    let g = rand_matrix(rows, cols, seed);
    Tensor::from_fn(rows, cols, |r, c| if r % 3 == 0 { -0.0 } else { g.get(r, c) })
}

/// One concat-linear case: `a` is `[rows_a, ka]`, `b` is `[n, kb]`, `w`
/// is `[ka + kb, m]`, the bias `[1, m]`. `inf[0]` puts `±inf` in a row
/// of `w`'s `a` half, `inf[1]` `NaN`s in a row of its `b` half, each
/// facing a column of exact zeros of its operand.
struct ConcatCase {
    rows_a: usize,
    n: usize,
    ka: usize,
    kb: usize,
    m: usize,
    inf: [bool; 2],
}

impl ConcatCase {
    fn operands(&self, seed: u64) -> [Tensor; 5] {
        let ConcatCase { rows_a, n, ka, kb, m, inf } = *self;
        let mut a = rand_matrix(rows_a, ka, seed);
        let mut b = rand_matrix(n, kb, seed + 1);
        let mut w = rand_matrix(ka + kb, m, seed + 2);
        if inf[0] {
            a = with_col(&a, ka / 2, signed_zero);
            w = with_row(&w, ka / 2, signed_inf);
        }
        if inf[1] {
            b = with_col(&b, kb / 2, signed_zero);
            w = with_row(&w, ka + kb / 2, |j| if j % 2 == 0 { f32::NAN } else { 1.0 });
        }
        let bias = rand_matrix(1, m, seed + 4);
        [a, b, w, bias, upstream_with_negative_zeros(n, m, seed + 3)]
    }
}

/// Which dispatch path a `[n, k] x [k, m]` product takes at two or more
/// effective workers: 0 scalar, 1 the inline microkernel, 2 parallel.
fn path(n: usize, k: usize, m: usize) -> usize {
    let flops = 2 * n * k * m;
    usize::from(flops >= 16_384) + usize::from(flops >= kernels::PAR_FLOP_THRESHOLD)
}

/// `add_bias(matmul(x, w), bias)` over leaves `[x, w, bias]`.
fn unfused_affine(tape: &mut Tape, x: Var, v: &[Var]) -> Var {
    let xw = tape.matmul(x, v[v.len() - 2]);
    tape.add_bias(xw, v[v.len() - 1])
}

#[test]
fn concat_linear_bit_identical_to_prefix_concat_matmul_bias() {
    let (finite, both) = ([false; 2], [true; 2]);
    let cases = [
        // Scalar path; a prefix of 3 rows out of 5.
        ConcatCase { rows_a: 5, n: 3, ka: 2, kb: 3, m: 4, inf: finite },
        // Microkernel path; ka, kb and m off every NR/TK multiple.
        ConcatCase { rows_a: 41, n: 30, ka: 19, kb: 17, m: 35, inf: finite },
        ConcatCase { rows_a: 41, n: 30, ka: 19, kb: 17, m: 35, inf: [true, false] },
        ConcatCase { rows_a: 41, n: 30, ka: 19, kb: 17, m: 35, inf: [false, true] },
        // Parallel path; ka over one TK block, kb under, m with a tail.
        ConcatCase { rows_a: 310, n: 260, ka: 130, kb: 70, m: 33, inf: finite },
        ConcatCase { rows_a: 310, n: 260, ka: 130, kb: 70, m: 33, inf: [false, true] },
        ConcatCase { rows_a: 310, n: 260, ka: 130, kb: 70, m: 33, inf: both },
        // The prefix is all of `a`.
        ConcatCase { rows_a: 200, n: 200, ka: 64, kb: 64, m: 48, inf: finite },
        ConcatCase { rows_a: 7, n: 7, ka: 5, kb: 9, m: 3, inf: both },
    ];
    let mut paths = [false; 3];
    for (i, case) in cases.iter().enumerate() {
        let ConcatCase { rows_a, n, ka, kb, m, inf } = *case;
        paths[path(n, ka + kb, m)] = true;
        let [a, b, w, bias, g] = case.operands(800 + 10 * i as u64);
        let what = format!("[{rows_a}x{ka}][..{n}] ‖ [{n}x{kb}] x [{}x{m}] inf={inf:?}", ka + kb);
        let leaves = [&a, &b, &w, &bias];
        let reference = record(&leaves, &g, |tape, v| {
            let prefix = tape.gather_rows(v[0], &(0..n as u32).collect::<Vec<_>>());
            let cat = tape.concat_cols(prefix, v[1]);
            unfused_affine(tape, cat, v)
        });
        // The cases bite: `-0.0` upstream rows give `+0.0` input
        // gradients, and rows of `a` below the prefix get `+0.0`.
        let da = &reference.grads[0];
        assert!(inf[0] || da[..ka].iter().all(|&x| x == 0), "{what}: -0.0 row of g");
        assert!(da[n * ka..].iter().all(|&x| x == 0), "{what}: rows below the prefix");
        // Skip-on-zero keeps the non-finite rows of `w` out of the
        // product; the `nt` input gradients have no skip and turn NaN.
        let all_finite = |v: &[u32]| v.iter().all(|&x| f32::from_bits(x).is_finite());
        assert!(all_finite(&reference.value), "{what}: the skips must bite");
        for (grad, nonfinite) in reference.grads[..2].iter().zip(inf) {
            assert_eq!(all_finite(grad), !nonfinite, "{what}: the non-finite w must bite");
        }
        for threads in POOL_SIZES {
            splpg_par::set_num_threads(threads);
            let fused = record(&leaves, &g, |tape, v| tape.concat_linear(v[0], v[1], v[2], v[3]));
            assert_eq!(fused, reference, "{what} at {threads} threads");
        }
    }
    splpg_par::set_num_threads(0);
    assert_eq!(paths, [true; 3], "every dispatch path covered");
}

#[test]
fn concat_linear_bit_identical_to_the_scorer_concat() {
    // The MLP scorer's `[h_u ‖ h_v] · W + b`: no prefix, `rows(a) ==
    // rows(b)`. The plain `linear` of `a` alone rides along.
    for (i, &(n, k, m, inf)) in
        [(6, 4, 5, false), (64, 32, 32, true), (512, 64, 64, false), (512, 64, 64, true)]
            .iter()
            .enumerate()
    {
        let inf = [inf; 2];
        let case = ConcatCase { rows_a: n, n, ka: k, kb: k, m, inf };
        let [a, b, w, bias, g] = case.operands(900 + 10 * i as u64);
        let leaves = [&a, &b, &w, &bias];
        let reference = record(&leaves, &g, |tape, v| {
            let cat = tape.concat_cols(v[0], v[1]);
            unfused_affine(tape, cat, v)
        });
        let w_a = Tensor::from_fn(k, m, |r, c| w.get(r, c));
        let plain_leaves = [&a, &w_a, &bias];
        let plain_reference = record(&plain_leaves, &g, |tape, v| unfused_affine(tape, v[0], v));
        for threads in POOL_SIZES {
            splpg_par::set_num_threads(threads);
            let what = format!("[{n}x{k}] pair x [{}x{m}] at {threads} threads", 2 * k);
            let fused = record(&leaves, &g, |tape, v| tape.concat_linear(v[0], v[1], v[2], v[3]));
            assert_eq!(fused, reference, "scorer {what}");
            let fused = record(&plain_leaves, &g, |tape, v| tape.linear(v[0], v[1], v[2]));
            assert_eq!(fused, plain_reference, "plain linear {what}");
        }
    }
    splpg_par::set_num_threads(0);
}

#[test]
fn aggregate_mean_bit_identical_to_scaled_aggregate() {
    // Sizes on the inline and on the fan-out side of the scatter gate;
    // destination 1 never receives an edge, destination 2 only zero
    // weight, so both hit the `1/Σw = 0` branch.
    for (i, &(num_src, num_dst, edges, dim)) in
        [(9, 5, 20, 3), (5_000, 3_000, 40_000, 64)].iter().enumerate()
    {
        let seed = 1_000 + 10 * i as u64;
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
        let mut src: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..num_src as u32)).collect();
        let mut dst: Vec<u32> = (0..edges).map(|_| rng.gen_range(3..num_dst as u32)).collect();
        let mut weight: Vec<f32> = (0..edges).map(|_| rng.gen_range(0.0f32..2.0)).collect();
        (src[0], dst[0], weight[0]) = (0, 2, 0.0);
        (src[1], dst[1], weight[1]) = (1, 0, 1.0);
        let h = rand_matrix(num_src, dim, seed + 1);
        let g = upstream_with_negative_zeros(num_dst, dim, seed + 2);
        let reference = record(&[&h], &g, |tape, v| {
            let summed = tape.aggregate(v[0], &src, &dst, &weight, num_dst);
            tape.scale_rows_with(summed, |inv| {
                inv.resize(num_dst, 0.0);
                for (&d, &w) in dst.iter().zip(&weight) {
                    inv[d as usize] += w;
                }
                for s in inv.iter_mut() {
                    *s = if *s > 0.0 { 1.0 / *s } else { 0.0 };
                }
            })
        });
        for threads in POOL_SIZES {
            splpg_par::set_num_threads(threads);
            let fused = record(&[&h], &g, |tape, v| {
                tape.aggregate_mean(v[0], &src, &dst, &weight, num_dst)
            });
            assert_eq!(fused, reference, "{num_dst} destinations x {dim} at {threads} threads");
        }
    }
    splpg_par::set_num_threads(0);
}
