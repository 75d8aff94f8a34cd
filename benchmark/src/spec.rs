//! Names, units, directions and regression bounds of every metric — the
//! single list `BENCHMARK.json`, the report, and `bench compare` share.
//! README.md defines each metric; later changes must use these names.

use crate::json::Json;
use crate::workload;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// An end-to-end metric and its two regression bounds.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `BENCHMARK.json`'s bound: the share of the parent's median by which
    /// the median over ten *different* seeds may worsen. It has to leave
    /// room for the seed-to-seed spread.
    pub across_seeds: f64,
    /// `bench compare`'s bound, for two result files of the *same* seed:
    /// the metric may worsen by `rel` of the base or by `abs`, whichever
    /// is larger. Zero for both means the value must repeat exactly.
    pub rel: f64,
    pub abs: f64,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    across_seeds: f64,
    rel: f64,
    abs: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        across_seeds,
        rel,
        abs,
    }
}

/// The across-seeds bounds are two to three times the widest quartile
/// spread any workload showed over ten seeds (README, "Seed results"):
/// 9 % (25 % across a change of the host's speed) for `epoch_s`, 13 % for
/// `setup_s`, 7.0 % for `peak_rss_mb`, 9.3 % for `comm_bytes_per_epoch`
/// (`ga-tcp`, 11 KB per epoch; at most 0.5 % elsewhere) and 6.1 % for
/// `test_hits`. The two timings are limited by the host, the other three
/// by what the training seed decides.
pub const END_TO_END: [EndToEnd; 5] = [
    e("epoch_s", "s", "lower", 0.25, 0.08, 0.0),
    e("setup_s", "s", "lower", 0.25, 0.10, 0.1),
    e("peak_rss_mb", "MiB", "lower", 0.20, 0.05, 0.0),
    e("comm_bytes_per_epoch", "B", "lower", 0.15, 0.0, 0.0),
    e("test_hits", "hits_at_k", "higher", 0.15, 0.0, 0.03),
];

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const PER_LAYER: [Metric; 45] = [
    m("datasets.generate_s", "s", "lower"),
    m("partition.metis_s", "s", "lower"),
    m("partition.edge_cut_frac", "ratio", "lower"),
    m("sparsify.degree_s", "s", "lower"),
    m("sparsify.jl_s", "s", "lower"),
    m("sparsify.kept_edge_frac", "ratio", "lower"),
    m("linalg.pcg_iters", "count", "lower"),
    m("dist.setup_build_s", "s", "lower"),
    m("gnn.neg_sample_s_per_batch", "s", "lower"),
    m("gnn.sample_s_per_batch", "s", "lower"),
    m("gnn.sampled_nodes_per_batch", "count", "lower"),
    m("gnn.eval_s", "s", "lower"),
    m("dist.view.neighbors_s_per_batch", "s", "lower"),
    m("dist.view.neighbors_calls_per_batch", "count", "lower"),
    m("dist.view.gather_s_per_batch", "s", "lower"),
    m("dist.view.gather_rows_per_batch", "count", "lower"),
    m("dist.view.remote_row_frac", "ratio", "lower"),
    m("tensor.forward_s_per_batch", "s", "lower"),
    m("tensor.backward_s_per_batch", "s", "lower"),
    m("tensor.arena_allocs_per_step", "count", "lower"),
    m("tensor.peak_tape_mb", "MiB", "lower"),
    m("tensor.matmul_gflops", "GFLOP/s", "higher"),
    m("nn.adam_step_s_per_batch", "s", "lower"),
    m("nn.param_count", "count", "lower"),
    m("net.codec.encode_s_per_frame", "s", "lower"),
    m("net.codec.decode_s_per_frame", "s", "lower"),
    m("net.codec.mb_per_s", "MB/s", "higher"),
    m("net.channel.roundtrip_s_per_frame", "s", "lower"),
    m("net.tcp.roundtrip_s_per_frame", "s", "lower"),
    m("net.tcp.mb_per_s", "MB/s", "higher"),
    m("net.frames_per_epoch", "count", "lower"),
    m("net.wire_bytes_per_epoch", "B", "lower"),
    m("net.retries", "count", "lower"),
    m("dist.sync_s_per_round", "s", "lower"),
    m("dist.sync_rounds_per_epoch", "count", "lower"),
    m("dist.speedup_vs_seq", "ratio", "higher"),
    m("trace.coverage", "ratio", "higher"),
    m("trace.overhead_frac", "ratio", "lower"),
    // Shares of the traced epoch by layer (self time), so the
    // "moves / flat on" predictions can be read off one run.
    m("share.gnn", "ratio", "lower"),
    m("share.dist.view", "ratio", "lower"),
    m("share.tensor", "ratio", "lower"),
    m("share.nn", "ratio", "lower"),
    m("share.net", "ratio", "lower"),
    m("share.dist.sync", "ratio", "lower"),
    m("share.harness", "ratio", "lower"),
];

/// How long one run measures; `--seconds` of the contract.
pub const RUN_SECONDS: u64 = 22;

/// The contents of `BENCHMARK.json`, from the lists above.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: &str, bound: Option<f64>| {
        let mut pairs = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
        ];
        if let Some(b) = bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workload::all()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.across_seeds)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&committed).unwrap(),
            manifest(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let all = workload::all();
        names.extend(all.iter().map(|w| w.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
