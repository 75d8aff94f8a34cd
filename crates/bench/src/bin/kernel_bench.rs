//! Thread-scaling bench for the parallel compute layer.
//!
//! Times the three kernels the pool accelerates — dense matmul, fan-out
//! neighbor sampling, and exact effective-resistance sparsification —
//! at 1/2/4/8 threads (via [`splpg_par::set_num_threads`]) plus the
//! scalar matmul reference, the JL resistance sketch of a
//! partition-local graph at its derived tolerance and at 1e-8 (1 and 2
//! threads), then the `nn`/`tn`/`nt` products of one
//! GraphSAGE layer at the `ma-seq` workload's shape and the concat
//! matmul `[self ‖ mean] · W` of its layer 0, forward and backward, at 1
//! and 2 threads against their own scalar references, prints a table,
//! and writes
//! `BENCH_kernels.json` to the repo root (except under
//! `--assert-speedup`, below). Each row carries the thread
//! count, ns/iter, speedup vs the single-threaded scalar baseline, a
//! throughput figure (GFLOP/s for matmul, Medges/s for sampling,
//! edges/s for sparsification), the host's hardware thread count and the
//! target features the binary was compiled with, so results from
//! different machines and builds are comparable. A final
//! `fanout_dedup` row records how many neighbor-list expansions the
//! cooperative (deduplicated) batch build performs versus a naive
//! per-seed-block build of the same mini-batch.
//!
//! `SPLPG_BENCH_MS` shrinks the per-measurement budget for smoke runs.
//! `--assert-speedup` is the gate: it checks and prints but writes no
//! file, and exits non-zero if the best multi-threaded matmul or
//! sampling run is slower than its scalar baseline; on single-core hosts
//! (where no speedup is measurable) the assertion is skipped.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a binary prints what the libraries return")]

use std::fmt::Write as _;

use splpg_bench::timing;
use splpg_rng::{Rng, SeedableRng};
use splpg_datasets::{generate_community_graph, CommunityGraphParams};
use splpg::linalg::{CgOptions, ResistanceEstimator};
use splpg_gnn::{FullGraphAccess, NeighborSampler, SamplerScratch};
use splpg_partition::{MetisLike, Partitioner};
use splpg_sparsify::ExactSparsifier;
use splpg_tensor::kernels::{self, ConcatDims};
use splpg_tensor::Tensor;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Naive-build block count for the dedup comparison: the frontier is
/// split into this many per-seed blocks, each expanded independently.
const DEDUP_BLOCKS: usize = 8;

struct Record {
    op: &'static str,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
    /// Scalar-baseline time over this row's time (1.0 for the baseline
    /// row itself; >1 means faster than scalar).
    speedup_vs_scalar: f64,
    throughput: f64,
    throughput_unit: &'static str,
}

/// Cooperative-vs-naive expansion counts for the sampling bench graph.
struct DedupSummary {
    shape: String,
    expansions_cooperative: u64,
    expansions_naive: u64,
}

impl DedupSummary {
    fn ratio(&self) -> f64 {
        self.expansions_naive as f64 / self.expansions_cooperative.max(1) as f64
    }
}

/// Best (lowest) multi-threaded time vs its scalar baseline, for the
/// `--assert-speedup` gate.
struct SpeedupCheck {
    op: &'static str,
    scalar_ns: f64,
    best_parallel_ns: f64,
}

fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn community(nodes: usize, edges: usize, seed: u64) -> splpg_graph::Graph {
    let params = CommunityGraphParams { nodes, edges, ..Default::default() };
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
    generate_community_graph(&params, &mut rng).expect("valid params").0
}

fn bench_matmul(records: &mut Vec<Record>) -> SpeedupCheck {
    // The acceptance shape: [4096,256] x [256,256].
    let (n, k, m) = (4096usize, 256usize, 256usize);
    let shape = format!("[{n},{k}]x[{k},{m}]");
    let flops = 2.0 * n as f64 * k as f64 * m as f64;
    let a = rand_tensor(n, k, 1);
    let b = rand_tensor(k, m, 2);
    timing::section(&format!("matmul {shape}"));
    let scalar = timing::bench("matmul_scalar", || a.matmul_scalar(&b));
    records.push(Record {
        op: "matmul_scalar",
        shape: shape.clone(),
        threads: 1,
        ns_per_iter: scalar.ns_per_iter,
        speedup_vs_scalar: 1.0,
        throughput: flops / scalar.ns_per_iter,
        throughput_unit: "GFLOP/s",
    });
    let mut best = f64::INFINITY;
    for threads in THREAD_SWEEP {
        splpg_par::set_num_threads(threads);
        let r = timing::bench(&format!("matmul_par_t{threads}"), || a.matmul(&b));
        best = best.min(r.ns_per_iter);
        records.push(Record {
            op: "matmul",
            shape: shape.clone(),
            threads,
            ns_per_iter: r.ns_per_iter,
            speedup_vs_scalar: scalar.ns_per_iter / r.ns_per_iter,
            throughput: flops / r.ns_per_iter,
            throughput_unit: "GFLOP/s",
        });
    }
    splpg_par::set_num_threads(0);
    println!(
        "matmul best parallel speedup vs scalar: {:.2}x ({:.1} GFLOP/s)",
        scalar.ns_per_iter / best,
        flops / best
    );
    SpeedupCheck { op: "matmul", scalar_ns: scalar.ns_per_iter, best_parallel_ns: best }
}

/// The three layouts at one GraphSAGE layer's training shape, `ma-seq`'s
/// layer 0 (`[3072,256]` inputs, 64 hidden): forward `X·W` (`nn`),
/// weight gradient `Xᵀ·G` (`tn`) and input gradient `G·Wᵀ` (`nt`).
fn bench_layer_matmuls(records: &mut Vec<Record>) {
    let (rows, d_in, d_out) = (3072usize, 256usize, 64usize);
    let macs = rows * d_in * d_out;
    let x = rand_tensor(rows, d_in, 7);
    let w = rand_tensor(d_in, d_out, 8);
    let g = rand_tensor(rows, d_out, 9);
    let shape = format!("[{rows},{d_in}]x[{d_in},{d_out}]");
    let ops = ("matmul_nn", "matmul_nn_scalar");
    bench_layout(records, ops, shape, macs, || x.matmul(&w), || x.matmul_scalar(&w));
    let shape = format!("[{rows},{d_in}]^Tx[{rows},{d_out}]");
    let ops = ("matmul_tn", "matmul_tn_scalar");
    bench_layout(records, ops, shape, macs, || x.matmul_tn(&g), || x.matmul_tn_scalar(&g));
    let shape = format!("[{rows},{d_out}]x[{d_in},{d_out}]^T");
    let ops = ("matmul_nt", "matmul_nt_scalar");
    bench_layout(records, ops, shape, macs, || g.matmul_nt(&w), || g.matmul_nt_scalar(&w));
}

/// GraphSAGE's `[self ‖ mean] · W` at `ma-seq`'s layer 0
/// (`[2704,128] ‖ [2704,128]` times `[256,64]`) through the concat
/// kernels, which never build the `[2704,256]` concatenation: the
/// forward product, and the backward pass's `dW` (two `tn` halves) with
/// the `nt` input gradients of both operands. The scalar references run
/// on the materialized concatenation.
fn bench_concat_matmul(records: &mut Vec<Record>) {
    let (rows, half, d_out) = (2704usize, 128usize, 64usize);
    let d = ConcatDims { n: rows, ka: half, kb: half, m: d_out };
    let macs = rows * 2 * half * d_out;
    let (own, mean) = (rand_tensor(rows, half, 10), rand_tensor(rows, half, 11));
    let w = rand_tensor(2 * half, d_out, 12);
    let g = rand_tensor(rows, d_out, 13);
    let cat = Tensor::from_fn(rows, 2 * half, |r, c| {
        if c < half {
            own.get(r, c)
        } else {
            mean.get(r, c - half)
        }
    });
    let forward = || {
        let mut out = vec![0.0f32; rows * d_out];
        kernels::concat_matmul_into(own.data(), mean.data(), w.data(), None, d, &mut out);
        Tensor::from_vec(rows, d_out, out).expect("output shape")
    };
    let shape = format!("[{rows},{half}]|[{rows},{half}]x[{},{d_out}]", 2 * half);
    let ops = ("concat_matmul", "concat_matmul_scalar");
    bench_layout(records, ops, shape.clone(), macs, forward, || cat.matmul_scalar(&w));
    let backward = || {
        let mut dw = vec![0.0f32; 2 * half * d_out];
        kernels::concat_matmul_tn_into(own.data(), mean.data(), g.data(), d, &mut dw);
        let (mut d_own, mut d_mean) = (vec![0.0f32; rows * half], vec![0.0f32; rows * half]);
        kernels::concat_matmul_nt_into(g.data(), w.data(), d, &mut d_own, &mut d_mean);
        std::hint::black_box((d_own, d_mean));
        Tensor::from_vec(2 * half, d_out, dw).expect("gradient shape")
    };
    let backward_scalar = || {
        std::hint::black_box(g.matmul_nt_scalar(&w));
        cat.matmul_tn_scalar(&g)
    };
    let ops = ("concat_matmul_backward", "concat_matmul_backward_scalar");
    bench_layout(records, ops, shape, 2 * macs, backward, backward_scalar);
}

/// One layout's rows: its scalar reference, then the dispatching entry
/// point at 1 and 2 threads. `macs` is `n·k·m`.
fn bench_layout(
    records: &mut Vec<Record>,
    (op, scalar_op): (&'static str, &'static str),
    shape: String,
    macs: usize,
    kernel: impl Fn() -> Tensor,
    scalar: impl Fn() -> Tensor,
) {
    let flops = 2.0 * macs as f64;
    timing::section(&format!("{op} {shape}"));
    let base = timing::bench(scalar_op, &scalar);
    records.push(Record {
        op: scalar_op,
        shape: shape.clone(),
        threads: 1,
        ns_per_iter: base.ns_per_iter,
        speedup_vs_scalar: 1.0,
        throughput: flops / base.ns_per_iter,
        throughput_unit: "GFLOP/s",
    });
    for threads in [1, 2] {
        splpg_par::set_num_threads(threads);
        let r = timing::bench(&format!("{op}_t{threads}"), &kernel);
        records.push(Record {
            op,
            shape: shape.clone(),
            threads,
            ns_per_iter: r.ns_per_iter,
            speedup_vs_scalar: base.ns_per_iter / r.ns_per_iter,
            throughput: flops / r.ns_per_iter,
            throughput_unit: "GFLOP/s",
        });
    }
    splpg_par::set_num_threads(0);
}

fn bench_fanout_sampling(
    records: &mut Vec<Record>,
) -> (SpeedupCheck, DedupSummary) {
    let (nodes, edges) = (20_000usize, 120_000usize);
    let shape = format!("{nodes}n/{edges}e, 2048 seeds, fanout 25/10/5");
    let g = community(nodes, edges, 3);
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(4);
    let seeds: Vec<u32> = (0..2048).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let sampler = NeighborSampler::paper_sage();
    let access = FullGraphAccess::new(&g);
    // Edge volume per batch build (deterministic given graph + seeds):
    // drives the Medges/s figure for every thread count.
    let mut scratch = SamplerScratch::new();
    let mut stats_rng = splpg_rng::rngs::StdRng::seed_from_u64(5);
    let (_, coop_stats) =
        sampler.sample_with_stats(&access, &seeds, &mut stats_rng, &mut scratch);
    let edges_per_iter = coop_stats.sampled_edges as f64;
    timing::section(&format!("fanout sampling {shape}"));
    let mut scalar_ns = f64::NAN;
    let mut best = f64::INFINITY;
    for threads in THREAD_SWEEP {
        splpg_par::set_num_threads(threads);
        let mut r = splpg_rng::rngs::StdRng::seed_from_u64(5);
        let rec = timing::bench(&format!("sample_t{threads}"), || {
            sampler.sample_with(&access, &seeds, &mut r, &mut scratch)
        });
        if threads == 1 {
            scalar_ns = rec.ns_per_iter;
        } else {
            best = best.min(rec.ns_per_iter);
        }
        records.push(Record {
            op: "fanout_sampling",
            shape: shape.clone(),
            threads,
            ns_per_iter: rec.ns_per_iter,
            speedup_vs_scalar: scalar_ns / rec.ns_per_iter,
            // sampled edges per second, in millions.
            throughput: edges_per_iter / rec.ns_per_iter * 1e3,
            throughput_unit: "Medges/s",
        });
    }
    splpg_par::set_num_threads(0);
    // Cooperative dedup vs naive per-seed-block expansion of the SAME
    // batch: both count one expansion per frontier node they visit.
    let mut naive_rng = splpg_rng::rngs::StdRng::seed_from_u64(5);
    let (_, naive_stats) =
        sampler.sample_per_seed_blocks(&access, &seeds, &mut naive_rng, DEDUP_BLOCKS);
    let dedup = DedupSummary {
        shape: shape.clone(),
        expansions_cooperative: coop_stats.expansions,
        expansions_naive: naive_stats.expansions,
    };
    println!(
        "cooperative dedup: {} expansions vs {} naive ({} blocks) — {:.2}x fewer",
        dedup.expansions_cooperative,
        dedup.expansions_naive,
        DEDUP_BLOCKS,
        dedup.ratio()
    );
    (
        SpeedupCheck { op: "fanout_sampling", scalar_ns, best_parallel_ns: best },
        dedup,
    )
}

fn bench_er_sparsify(records: &mut Vec<Record>) {
    let (nodes, edges) = (200usize, 800usize);
    let shape = format!("{nodes}n/{edges}e exact resistances");
    let g = community(nodes, edges, 6);
    timing::section(&format!("ER sparsification {shape}"));
    let mut scalar_ns = f64::NAN;
    for threads in THREAD_SWEEP {
        splpg_par::set_num_threads(threads);
        let rec = timing::bench(&format!("resistances_t{threads}"), || {
            ExactSparsifier::resistances(&g).expect("connected community graph")
        });
        if threads == 1 {
            scalar_ns = rec.ns_per_iter;
        }
        records.push(Record {
            op: "er_resistances",
            shape: shape.clone(),
            threads,
            ns_per_iter: rec.ns_per_iter,
            speedup_vs_scalar: scalar_ns / rec.ns_per_iter,
            throughput: edges as f64 / rec.ns_per_iter * 1e9,
            throughput_unit: "edges/s",
        });
    }
    splpg_par::set_num_threads(0);
}

/// The JL resistance sketch the `Jl` sparsifier builds at setup: 64
/// projections on partition 0's halo graph of a p = 4 partition of a
/// community graph (global ids, so most nodes are isolated), at the
/// tolerance derived from `k` and at the 1e-8 default, on 1 and 2
/// threads. Speedups are against the 1-thread 1e-8 row.
fn bench_jl_sketch(records: &mut Vec<Record>) {
    const K: usize = 64;
    let g = community(10_000, 40_000, 8);
    let partition = MetisLike::default()
        .partition(&g, 4, &mut splpg_rng::rngs::StdRng::seed_from_u64(17))
        .expect("partition");
    let halo: Vec<(u32, u32)> = g
        .edges()
        .iter()
        .filter(|e| partition.part_of(e.src) == 0 || partition.part_of(e.dst) == 0)
        .map(|e| (e.src, e.dst))
        .collect();
    let local = splpg_graph::Graph::from_edges(g.num_nodes(), &halo).expect("halo graph");
    let edges = local.num_edges();
    let mut baseline_ns = f64::NAN;
    for (label, options) in
        [("1e-8", CgOptions::default()), ("derived", ResistanceEstimator::sketch_options(K))]
    {
        let shape = format!(
            "{}n/{edges}e partition-local, k={K}, tol {:e} ({label})",
            local.num_nodes(),
            options.tolerance
        );
        timing::section(&format!("JL sketch {shape}"));
        for threads in [1usize, 2] {
            splpg_par::set_num_threads(threads);
            let rec = timing::bench(&format!("jl_sketch_{label}_t{threads}"), || {
                let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(3);
                ResistanceEstimator::build(&local, K, options, &mut rng).expect("sketch")
            });
            if baseline_ns.is_nan() {
                baseline_ns = rec.ns_per_iter;
            }
            records.push(Record {
                op: "jl_sketch",
                shape: shape.clone(),
                threads,
                ns_per_iter: rec.ns_per_iter,
                speedup_vs_scalar: baseline_ns / rec.ns_per_iter,
                throughput: edges as f64 / rec.ns_per_iter * 1e9,
                throughput_unit: "edges/s",
            });
        }
    }
    splpg_par::set_num_threads(0);
}

/// Repo root: two levels above the bench crate when run via cargo,
/// else the current directory.
fn repo_root() -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    }
}

/// The compiled-in target features that set the kernels' vector width,
/// as a JSON array. Reported only: no kernel branches on them.
fn target_features() -> String {
    let compiled = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ];
    let names: Vec<String> =
        compiled.iter().filter(|(_, on)| *on).map(|(name, _)| format!("\"{name}\"")).collect();
    format!("[{}]", names.join(", "))
}

fn write_json(records: &[Record], dedup: &DedupSummary, hardware_threads: usize) {
    let features = target_features();
    let mut out = String::from("[\n");
    for r in records {
        let _ = writeln!(
            out,
            "  {{\"op\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \
             \"ns_per_iter\": {:.1}, \"speedup_vs_scalar\": {:.3}, \
             \"throughput\": {:.3}, \"throughput_unit\": \"{}\", \
             \"hardware_threads\": {}, \"target_features\": {}}},",
            r.op,
            r.shape,
            r.threads,
            r.ns_per_iter,
            r.speedup_vs_scalar,
            r.throughput,
            r.throughput_unit,
            hardware_threads,
            features
        );
    }
    let _ = writeln!(
        out,
        "  {{\"op\": \"fanout_dedup\", \"shape\": \"{}\", \
         \"expansions_cooperative\": {}, \"expansions_naive\": {}, \
         \"naive_blocks\": {}, \"dedup_ratio\": {:.3}, \
         \"hardware_threads\": {}, \"target_features\": {}}}",
        dedup.shape,
        dedup.expansions_cooperative,
        dedup.expansions_naive,
        DEDUP_BLOCKS,
        dedup.ratio(),
        hardware_threads,
        features
    );
    out.push_str("]\n");
    let path = repo_root().join("BENCH_kernels.json");
    std::fs::write(&path, out).expect("write BENCH_kernels.json");
    println!("\nwrote {}", path.display());
}

/// `--assert-speedup`: false (fail) if any multi-threaded kernel lost
/// to its scalar baseline. Meaningless on a single-core host, where the
/// pool degrades to inline execution by design — skip, reporting pass.
fn assert_speedups(checks: &[SpeedupCheck], dedup: &DedupSummary, hardware_threads: usize) -> bool {
    if hardware_threads < 2 {
        println!(
            "--assert-speedup: skipped (hardware_threads = {hardware_threads}, \
             no parallel speedup is measurable on this host)"
        );
        return true;
    }
    let mut failed = false;
    for c in checks {
        let speedup = c.scalar_ns / c.best_parallel_ns;
        if speedup < 1.0 {
            eprintln!(
                "--assert-speedup FAILED: {} best parallel {:.0} ns/iter is \
                 slower than scalar {:.0} ns/iter ({speedup:.2}x)",
                c.op, c.best_parallel_ns, c.scalar_ns
            );
            failed = true;
        } else {
            println!("--assert-speedup: {} ok ({speedup:.2}x)", c.op);
        }
    }
    if dedup.expansions_cooperative >= dedup.expansions_naive {
        eprintln!(
            "--assert-speedup FAILED: cooperative build expanded {} frontier \
             nodes, naive per-seed blocks only {}",
            dedup.expansions_cooperative, dedup.expansions_naive
        );
        failed = true;
    } else {
        println!("--assert-speedup: fanout_dedup ok ({:.2}x fewer expansions)", dedup.ratio());
    }
    !failed
}

fn main() {
    let assert_speedup = std::env::args().any(|a| a == "--assert-speedup");
    let hardware_threads = splpg_par::hardware_threads();
    let mut records = Vec::new();
    let mut checks = Vec::new();
    checks.push(bench_matmul(&mut records));
    bench_layer_matmuls(&mut records);
    bench_concat_matmul(&mut records);
    let (sample_check, dedup) = bench_fanout_sampling(&mut records);
    checks.push(sample_check);
    bench_er_sparsify(&mut records);
    bench_jl_sketch(&mut records);
    if !assert_speedup {
        write_json(&records, &dedup, hardware_threads);
    } else if !assert_speedups(&checks, &dedup, hardware_threads) {
        std::process::exit(1);
    }
}
