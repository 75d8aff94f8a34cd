//! Training-step bench for the zero-realloc tape arena.
//!
//! Runs repeated GNN link-prediction training steps (sample → gather →
//! forward → backward → Adam) on one long-lived [`Tape`] at 1/2/4/8
//! threads, and measures what the arena is for: per-step wall time, the
//! peak tape backing capacity, and an allocations-per-step proxy (arena
//! buffers created or grown, which is zero once the arena has warmed up).
//! A cold-start column rebuilds the tape from scratch every step for
//! contrast. Writes `BENCH_train_step.json` to the repo root and exits
//! nonzero if a steady-state step allocates or the tape backs more than
//! half of what it did with per-edge tensors on it.
//!
//! `SPLPG_BENCH_MS` shrinks the measured step count for smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use splpg_rng::SeedableRng;
use splpg_datasets::{generate_community_graph, CommunityGraphParams};
use splpg_gnn::trainer::{batch_grads, ModelKind, TrainConfig};
use splpg_gnn::{FullFeatureAccess, FullGraphAccess, PerSourceNegativeSampler, SamplerScratch};
use splpg_graph::{Edge, FeatureMatrix, Graph};
use splpg_nn::{Adam, Optimizer, ParamSet};
use splpg_tensor::Tape;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Steps run before measuring: step 1 grows the arena to the working-set
/// high-water mark, step 2 proves it stays there.
const WARMUP_STEPS: usize = 2;
/// `peak_tape_bytes` of the reused tape on this shape before the fused
/// `aggregate` op and gradient-need pruning (per-edge gather/scale
/// tensors recorded, every interior gradient held to the end of
/// `backward`). The gate below fails the bench above half of it.
const UNFUSED_PEAK_TAPE_BYTES: usize = 13_927_168;

struct Record {
    mode: &'static str,
    threads: usize,
    ns_per_step: f64,
    peak_tape_bytes: usize,
    allocs_per_step: f64,
}

fn fixture() -> (Graph, FeatureMatrix) {
    let params =
        CommunityGraphParams { nodes: 3_000, edges: 12_000, ..Default::default() };
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(7);
    let (g, f, _) = generate_community_graph(&params, &mut rng).expect("valid params");
    (g, f)
}

fn measured_steps() -> usize {
    // Reuse the bench-budget knob: the default 100 ms budget maps to 24
    // measured steps; a smoke run (SPLPG_BENCH_MS=5 or less) does 3.
    let ms: u64 = std::env::var("SPLPG_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    if ms <= 5 {
        3
    } else {
        24
    }
}

/// Runs `steps` training steps on `tape` and `scratch` (resetting, not
/// rebuilding) and returns total wall nanoseconds.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    steps: usize,
    tape: &mut Tape,
    scratch: &mut SamplerScratch,
    config: &TrainConfig,
    model: &splpg_gnn::LinkPredictor,
    params: &mut ParamSet,
    opt: &mut Adam,
    graph: &Graph,
    features: &FeatureMatrix,
    batch: &[Edge],
) -> u128 {
    let sampler = config.sampler();
    let negative_sampler = PerSourceNegativeSampler::global(graph.num_nodes());
    let start = Instant::now();
    for _step in 0..steps {
        // One fixed batch, sampling reseeded identically per step: every
        // step touches tensors of identical shapes — the steady state the
        // arena targets (and the regime the zero-alloc claim is about).
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1_000);
        let ga = FullGraphAccess::new(graph);
        let mut fa = FullFeatureAccess::new(features);
        let (_, grads) = batch_grads(
            model,
            params,
            &ga,
            &mut fa,
            &sampler,
            &negative_sampler,
            batch,
            &mut rng,
            tape,
            scratch,
        )
        .expect("training step");
        opt.step(params, &grads);
        for g in grads {
            tape.recycle(g);
        }
    }
    start.elapsed().as_nanos()
}

fn bench_mode(
    mode: &'static str,
    threads: usize,
    graph: &Graph,
    features: &FeatureMatrix,
    records: &mut Vec<Record>,
) {
    let config = TrainConfig {
        layers: 2,
        hidden: 32,
        fanouts: vec![Some(10), Some(5)],
        seed: 17,
        ..TrainConfig::default()
    };
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(config.seed);
    let mut params = ParamSet::new();
    let model = config.build_model(ModelKind::Gcn, features.dim(), &mut params, &mut rng);
    let mut opt = Adam::new(config.learning_rate);
    let batch: Vec<Edge> = graph.edges()[..config.batch_size.min(graph.num_edges())].to_vec();

    let steps = measured_steps();
    let mut tape = Tape::new();
    let mut scratch = SamplerScratch::new();
    let (elapsed, allocs, peak) = if mode == "reused" {
        run_steps(
            WARMUP_STEPS, &mut tape, &mut scratch, &config, &model, &mut params, &mut opt,
            graph, features, &batch,
        );
        let warm = tape.arena_stats().allocations();
        let elapsed = run_steps(
            steps, &mut tape, &mut scratch, &config, &model, &mut params, &mut opt, graph,
            features, &batch,
        );
        (elapsed, tape.arena_stats().allocations() - warm, tape.backing_bytes())
    } else {
        // Cold start: a fresh tape + scratch every step, the pattern the
        // arena (and the tape-in-loop lint) exists to eliminate.
        let mut elapsed = 0u128;
        let mut peak = 0usize;
        for _ in 0..steps {
            let mut cold = Tape::new();
            let mut cold_scratch = SamplerScratch::new();
            elapsed += run_steps(
                1, &mut cold, &mut cold_scratch, &config, &model, &mut params, &mut opt,
                graph, features, &batch,
            );
            peak = peak.max(cold.backing_bytes());
        }
        (elapsed, u64::MAX, peak)
    };
    let ns_per_step = elapsed as f64 / steps as f64;
    let allocs_per_step =
        if allocs == u64::MAX { f64::NAN } else { allocs as f64 / steps as f64 };
    println!(
        "{mode:<10} t{threads}: {:>9.2} ms/step  peak tape {:>9} bytes  arena allocs/step {}",
        ns_per_step / 1e6,
        peak,
        if allocs_per_step.is_nan() { "n/a".to_string() } else { format!("{allocs_per_step:.2}") },
    );
    records.push(Record { mode, threads, ns_per_step, peak_tape_bytes: peak, allocs_per_step });
}

fn repo_root() -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    }
}

fn write_json(records: &[Record]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let allocs = if r.allocs_per_step.is_nan() {
            "null".to_string()
        } else {
            format!("{:.2}", r.allocs_per_step)
        };
        let _ = writeln!(
            out,
            "  {{\"mode\": \"{}\", \"threads\": {}, \"ns_per_step\": {:.1}, \
             \"peak_tape_bytes\": {}, \"allocs_per_step\": {allocs}}}{comma}",
            r.mode, r.threads, r.ns_per_step, r.peak_tape_bytes
        );
    }
    out.push_str("]\n");
    let path = repo_root().join("BENCH_train_step.json");
    std::fs::write(&path, out).expect("write BENCH_train_step.json");
    println!("\nwrote {}", path.display());
}

fn main() {
    let (graph, features) = fixture();
    println!(
        "train-step bench: {} nodes / {} edges, GCN 2x32, batch 256",
        graph.num_nodes(),
        graph.num_edges()
    );
    let mut records = Vec::new();
    for threads in THREAD_SWEEP {
        splpg_par::set_num_threads(threads);
        bench_mode("reused", threads, &graph, &features, &mut records);
    }
    splpg_par::set_num_threads(1);
    bench_mode("cold", 1, &graph, &features, &mut records);
    splpg_par::set_num_threads(0);
    write_json(&records);

    let steady = records.iter().filter(|r| r.mode == "reused").all(|r| r.allocs_per_step == 0.0);
    println!(
        "steady-state arena allocations per step: {}",
        if steady { "0 (zero-realloc)" } else { "NONZERO — arena reuse regressed" }
    );
    let peak = records.iter().map(|r| r.peak_tape_bytes).max().unwrap_or(0);
    let lean = 2 * peak <= UNFUSED_PEAK_TAPE_BYTES;
    println!(
        "peak tape bytes: {peak} ({:.0} % of the unfused tape's {UNFUSED_PEAK_TAPE_BYTES}){}",
        100.0 * peak as f64 / UNFUSED_PEAK_TAPE_BYTES as f64,
        if lean { "" } else { " — ABOVE the 50 % gate" }
    );
    if !steady || !lean {
        std::process::exit(1);
    }
}
