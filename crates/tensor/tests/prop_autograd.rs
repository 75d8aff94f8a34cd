//! Property-style gradient checks, run as seeded loops: random shapes,
//! random data, random op chains must all match central finite differences.
//!
//! Each case draws its inputs from a `splpg_rng` generator seeded by the
//! loop index, so failures reproduce exactly from the printed case number.

use splpg_rng::{Rng, SeedableRng};
use splpg_tensor::{grad_check, Tape, Tensor};

const CASES: u64 = 24;

fn rng(seed: u64) -> splpg_rng::rngs::StdRng {
    splpg_rng::rngs::StdRng::seed_from_u64(seed)
}

/// Random tensor with 1..=max_rows rows, 1..=max_cols cols, data in [-2, 2).
fn rand_tensor(r: &mut splpg_rng::rngs::StdRng, max_rows: usize, max_cols: usize) -> Tensor {
    let rows = r.gen_range(1..=max_rows);
    let cols = r.gen_range(1..=max_cols);
    Tensor::from_fn(rows, cols, |_, _| r.gen_range(-2.0f32..2.0))
}

#[test]
fn add_mul_scale_rows_grad() {
    for case in 0..CASES {
        let mut r = rng(1000 + case);
        let x = rand_tensor(&mut r, 4, 4);
        let c = r.gen_range(-3.0f32..3.0);
        let report = grad_check(&x, 1e-3, |tape, v| {
            let a = tape.scale_rows_with(v, |f| f.resize(x.rows(), c)); // c x
            let b = tape.mul(v, a); // c x^2
            let e = tape.add(b, v); // c x^2 + x
            tape.sum_all(e)
        });
        assert!(report.passes(8e-2), "case {case}: {report:?}");
    }
}

#[test]
fn segment_pipeline_grad() {
    for case in 0..CASES {
        let mut r = rng(2000 + case);
        let x = rand_tensor(&mut r, 6, 3);
        let n = x.rows();
        let idx: Vec<u32> = (0..8).map(|_| r.gen_range(0..n) as u32).collect();
        let seg: Vec<u32> = (0..8).map(|_| r.gen_range(0..3u32)).collect();
        let report = grad_check(&x, 1e-3, |tape, v| {
            let g = tape.gather_rows(v, &idx);
            let s = tape.segment_sum(g, &seg, 3);
            let t = tape.leaky_relu(s, 0.2);
            tape.sum_all(t)
        });
        assert!(report.passes(8e-2), "case {case}: {report:?}");
    }
}

#[test]
fn bce_grad() {
    for case in 0..CASES {
        let mut r = rng(3000 + case);
        let x = rand_tensor(&mut r, 8, 1);
        let targets: Vec<f32> = (0..x.rows()).map(|_| f32::from(r.gen::<bool>())).collect();
        let report = grad_check(&x, 1e-3, |tape, v| tape.bce_with_logits(v, &targets));
        assert!(report.passes(8e-2), "case {case}: {report:?}");
    }
}

#[test]
fn matmul_shapes_compose() {
    for case in 0..CASES {
        let mut r = rng(4000 + case);
        let a = rand_tensor(&mut r, 4, 3);
        let b = Tensor::from_fn(a.cols(), 5, |_, _| r.gen::<f32>() - 0.5);
        // Forward identity: (A B)^T == B^T A^T
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        for (x, y) in ab_t.data().iter().zip(bt_at.data()) {
            assert!((x - y).abs() < 1e-4, "case {case}");
        }
    }
}

#[test]
fn col_row_sums_agree_with_manual() {
    for case in 0..CASES {
        let mut r = rng(5000 + case);
        let x = rand_tensor(&mut r, 5, 5);
        let total: f32 = x.data().iter().sum();
        assert!((x.col_sums().sum() - total).abs() < 1e-3, "case {case}");
        assert!((x.row_sums().sum() - total).abs() < 1e-3, "case {case}");
    }
}

/// One random block: `num_src` rows of width `dim`, `edges` weighted edges
/// into the first `num_dst` rows (the dst-prefix convention).
struct AggCase {
    h: Tensor,
    w: Tensor,
    src: Vec<u32>,
    dst: Vec<u32>,
    coeff: Vec<f32>,
    num_dst: usize,
}

fn agg_case(seed: u64, dim: usize, num_src: usize, num_dst: usize, edges: usize) -> AggCase {
    let mut r = rng(seed);
    // Every third destination receives no edge (zero in-degree); sources
    // repeat freely, and so do whole (src, dst) pairs.
    let fed: Vec<u32> = (0..num_dst as u32).filter(|d| d % 3 != 1).collect();
    let mut src: Vec<u32> = (0..edges).map(|_| r.gen_range(0..num_src) as u32).collect();
    let mut dst: Vec<u32> = (0..edges).map(|_| fed[r.gen_range(0..fed.len())]).collect();
    (src[1], dst[1]) = (src[0], dst[0]);
    AggCase {
        h: Tensor::from_fn(num_src, dim, |_, _| r.gen_range(-2.0f32..2.0)),
        w: Tensor::from_fn(dim, 3, |_, _| r.gen::<f32>() - 0.5),
        coeff: (0..edges).map(|_| r.gen_range(-1.5f32..1.5)).collect(),
        src,
        dst,
        num_dst,
    }
}

/// Forward value of the aggregation and the gradients of both leaves, as
/// bit patterns, through the fused op or the three-op composition it
/// replaced (kept here as the oracle). `h` has a second consumer so its
/// gradient is an accumulation, not a single hand-over.
fn agg_bits(case: &AggCase, fused: bool, threads: usize) -> [Vec<u32>; 3] {
    splpg_par::set_num_threads(threads);
    let mut tape = Tape::new();
    let h = tape.leaf_copy(&case.h);
    let w = tape.leaf_copy(&case.w);
    let agg = if fused {
        tape.aggregate(h, &case.src, &case.dst, &case.coeff, case.num_dst)
    } else {
        let msgs = tape.gather_rows(h, &case.src);
        let scaled = tape.scale_rows_with(msgs, |f| f.extend_from_slice(&case.coeff));
        tape.segment_sum(scaled, &case.dst, case.num_dst)
    };
    let prefix: Vec<u32> = (0..case.num_dst as u32).collect();
    let own = tape.gather_rows(h, &prefix);
    let mixed = tape.add(own, agg);
    let y = tape.matmul(mixed, w);
    let t = tape.leaky_relu(y, 0.2);
    let loss = tape.sum_all(t);
    let grads = tape.backward(loss);
    splpg_par::set_num_threads(0);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    [
        bits(tape.value(agg)),
        bits(grads.get(h).expect("h gradient")),
        bits(grads.get(w).expect("w gradient")),
    ]
}

#[test]
fn aggregate_bit_equal_to_gather_scale_segment_sum() {
    for (i, &dim) in [1usize, 7, 8, 64].iter().enumerate() {
        for case in 0..6 {
            let c = agg_case(6000 + 10 * i as u64 + case, dim, 40, 17, 90);
            let oracle = agg_bits(&c, false, 1);
            let unfed = &oracle[0][dim..2 * dim];
            assert!(unfed.iter().all(|&b| b == 0), "destination 1 receives no edge");
            for threads in [1, 4] {
                assert_eq!(agg_bits(&c, true, threads), oracle, "dim {dim} case {case} t{threads}");
            }
        }
    }
    // Wide enough (2 * edges * dim >= 2M flops) that a 4-thread pool takes
    // the destination-partitioned path on a multi-core host.
    let big = agg_case(6100, 64, 6_000, 2_500, 20_000);
    let oracle = agg_bits(&big, false, 1);
    for threads in [1, 4] {
        assert_eq!(agg_bits(&big, true, threads), oracle, "wide block t{threads}");
    }
}
