//! The paper's experiment suite (Section V) — every figure and table,
//! plus the sparsifier ablation — run in-process from one table.
//!
//! ```sh
//! cargo run -p splpg-bench --bin repro --release -- --quick        # all of them
//! cargo run -p splpg-bench --bin repro --release -- fig03 table3   # a subset
//! ```
//!
//! Experiments are chosen by name as positional arguments; no names runs
//! all of them in table order. The flags (see the crate docs) apply to
//! every experiment. A failing experiment is reported on stderr, the rest
//! still run, and the exit code is 1.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a binary prints what the libraries return")]

use std::error::Error;
use std::sync::Arc;

use splpg::dist::ClusterSetup;
use splpg::linalg::quadratic_form;
use splpg::prelude::*;
use splpg::sparsify::DegreeSparsifier;
use splpg_bench::{pct_improvement, pct_saving, print_header, print_row, ExpOptions};
use splpg_gnn::trainer::train_centralized;
use splpg_partition::{RandomTma, SuperTma};
use splpg_rng::{Rng, SeedableRng};

type Res<T> = Result<T, Box<dyn Error>>;

/// One experiment: prints its tables to stdout.
type Experiment = fn(&ExpOptions) -> Res<()>;

/// Every experiment, in suite order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table2", table2),
    ("table3", table3),
    ("ablation_sparsifier", ablation_sparsifier),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = ExpOptions::parse(&args);
    let known: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("unknown experiment {unknown}; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let mut failures = Vec::new();
    for &(name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        println!("\n==================== {name} ====================");
        // A panicking experiment is a failed experiment, not a dead suite.
        let failure = match std::panic::catch_unwind(|| run(&opts)) {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e.to_string(),
            Err(_) => "panicked".to_string(),
        };
        eprintln!("{name} failed: {failure}");
        failures.push(name);
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}

/// One training run of a grid: `(strategy, workers)`.
type Run = (Strategy, usize);

/// GraphSAGE at α = 0.15 on every accuracy dataset: the dataset name and
/// one outcome per run — the grid Figures 3, 4 and 12 tabulate.
fn sage_grid(o: &ExpOptions, runs: &[Run]) -> Res<Vec<(String, Vec<DistOutcome>)>> {
    let mut grid = Vec::new();
    for spec in o.accuracy_specs() {
        let data = o.generate(&spec)?;
        let outs = runs
            .iter()
            .map(|&(s, p)| o.run_strategy(&data, s, ModelKind::GraphSage, p, 0.15, o.epochs))
            .collect::<Res<Vec<_>>>()?;
        grid.push((data.name.clone(), outs));
    }
    Ok(grid)
}

/// `dataset` followed by one column per run's strategy.
fn grid_columns(runs: &[Run]) -> Vec<&'static str> {
    std::iter::once("dataset").chain(runs.iter().map(|(s, _)| s.name())).collect()
}

/// A table row: `first` then `cells`.
fn row(first: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(cells).collect()
}

fn hits_cells(outs: &[DistOutcome]) -> impl Iterator<Item = String> + '_ {
    outs.iter().map(|out| format!("{:.3}", out.test_hits))
}

/// Mean MB per epoch a run moved master → workers.
fn mb(out: &DistOutcome) -> f64 {
    out.comm.mean_epoch_bytes() as f64 / 1e6
}

/// Mean bytes per epoch of a `comm_epochs` communication run.
fn comm(o: &ExpOptions, d: &Dataset, s: Strategy, m: ModelKind, p: usize, a: f64) -> Res<f64> {
    Ok(o.run_strategy(d, s, m, p, a, o.comm_epochs)?.comm.mean_epoch_bytes() as f64)
}

/// Test Hits@K of an `epochs` accuracy run.
fn hits(o: &ExpOptions, d: &Dataset, s: Strategy, m: ModelKind, p: usize, a: f64) -> Res<f64> {
    Ok(o.run_strategy(d, s, m, p, a, o.epochs)?.test_hits)
}

/// Figure 3: accuracy of the state-of-the-art methods (GraphSAGE, p = 4);
/// every vanilla distributed method should fall clearly below centralized.
fn fig03(o: &ExpOptions) -> Res<()> {
    use Strategy::*;
    let runs = [Centralized, PsgdPa, RandomTma, SuperTma, Llcg].map(|s| (s, 4));
    print_header(
        &format!("Figure 3 — accuracy of SOTA methods (GraphSAGE, p = 4, {})", o.hits_label()),
        &grid_columns(&runs),
    );
    for (name, outs) in sage_grid(o, &runs)? {
        print_row(&row(&name, hits_cells(&outs)));
    }
    println!("\nshape check: every distributed column should be well below Centralized.");
    Ok(())
}

/// Figure 4: accuracy and communication cost of complete data sharing
/// (GraphSAGE, p = 4); centralized-level accuracy at a huge transfer volume.
fn fig04(o: &ExpOptions) -> Res<()> {
    use Strategy::*;
    let runs = [Centralized, PsgdPaPlus, RandomTmaPlus, SuperTmaPlus].map(|s| (s, 4));
    let grid = sage_grid(o, &runs)?;
    print_header(
        &format!(
            "Figure 4a — accuracy with complete data sharing (GraphSAGE, p = 4, {})",
            o.hits_label()
        ),
        &grid_columns(&runs),
    );
    for (name, outs) in &grid {
        print_row(&row(name, hits_cells(outs)));
    }
    print_header(
        "Figure 4b — communication cost (MB transferred master->workers per epoch)",
        &grid_columns(&runs),
    );
    for (name, outs) in &grid {
        print_row(&row(name, outs.iter().map(|out| format!("{:.2}", mb(out)))));
    }
    println!(
        "\nshape check: '+' accuracies track Centralized; their comm columns are\n\
         orders of magnitude above Centralized's zero."
    );
    Ok(())
}

/// Figure 5 (an illustration in the paper, quantified here): the share of
/// the negative sample space a worker drawing only *local* negatives reaches.
fn fig05(o: &ExpOptions) -> Res<()> {
    print_header(
        "Figure 5 — fraction of the negative sample space reachable with local-only sampling",
        &["dataset", "partitioner", "p", "edge cut %", "local pair space %"],
    );
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(o.seed);
    for spec in o.comm_specs() {
        let data = o.generate(&spec)?;
        let g = data.train_graph();
        let n = g.num_nodes() as u64;
        let all_pairs = n * (n - 1) / 2;
        for p in o.partition_counts() {
            for (name, partition) in [
                ("METIS", MetisLike::default().partition(&g, p, &mut rng)?),
                ("RandomTMA", RandomTma.partition(&g, p, &mut rng)?),
                ("SuperTMA", SuperTma::default().partition(&g, p, &mut rng)?),
            ] {
                let local_pairs: u64 = partition
                    .part_sizes()
                    .iter()
                    .map(|&s| (s as u64) * (s as u64).saturating_sub(1) / 2)
                    .sum();
                print_row(&[
                    data.name.clone(),
                    name.to_string(),
                    p.to_string(),
                    format!("{:.1}", 100.0 * partition.edge_cut(&g) as f64 / g.num_edges() as f64),
                    format!("{:.2}", 100.0 * local_pairs as f64 / all_pairs as f64),
                ]);
            }
        }
    }
    println!(
        "\nshape check: local pair space collapses to ~100/p % — the sample space\n\
         for negatives shrinks by ~p, regardless of partitioner."
    );
    Ok(())
}

/// Figure 6: centralized accuracy with and without whole-graph
/// sparsification, which removes most positive samples and collapses accuracy
/// — why SpLPG sparsifies only for *negative* sampling.
fn fig06(o: &ExpOptions) -> Res<()> {
    print_header(
        &format!(
            "Figure 6 — centralized accuracy w/ and w/o sparsification (alpha = 0.15, {})",
            o.hits_label()
        ),
        &["dataset", "model", "w/o sparsify", "w/ sparsify", "drop %"],
    );
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(o.seed);
    for spec in o.accuracy_specs() {
        let data = o.generate(&spec)?;
        // Train on the sparsified structure, evaluate on the original held-out edges.
        let sparse_graph = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.15))
            .sparsify(&data.train_graph(), &mut rng)?;
        let sparse_split = EdgeSplit { train: sparse_graph.edges().to_vec(), ..data.split.clone() };
        for model in [ModelKind::Gcn, ModelKind::GraphSage] {
            let mut cfg = o.train_config(model, o.epochs);
            cfg.hits_k = o.hits_for(&data);
            let plain = train_centralized(model, &data.graph, &data.features, &data.split, &cfg)?;
            let sparse =
                train_centralized(model, &data.graph, &data.features, &sparse_split, &cfg)?;
            let drop = 100.0 * (plain.test_hits - sparse.test_hits) / plain.test_hits.max(1e-9);
            print_row(&[
                data.name.clone(),
                model.name().to_string(),
                format!("{:.3}", plain.test_hits),
                format!("{:.3}", sparse.test_hits),
                format!("{:.0}", drop),
            ]);
        }
    }
    println!("\nshape check: the 'w/ sparsify' column collapses relative to 'w/o'.");
    Ok(())
}

/// Figure 8: SpLPG's communication saving over the complete-sharing
/// baselines, GCN and GraphSAGE, p ∈ {4, 8, 16}; roughly 60–80 % everywhere.
fn fig08(o: &ExpOptions) -> Res<()> {
    use Strategy::*;
    for model in [ModelKind::Gcn, ModelKind::GraphSage] {
        print_header(
            &format!("Figure 8 — SpLPG communication saving vs '+' baselines ({model})"),
            &["dataset", "p", "vs PSGD-PA+ %", "vs RandomTMA+ %", "vs SuperTMA+ %"],
        );
        for spec in o.comm_specs() {
            let data = o.generate(&spec)?;
            for p in o.partition_counts() {
                let splpg = comm(o, &data, SpLpg, model, p, 0.15)?;
                let mut cells = vec![data.name.clone(), p.to_string()];
                for base in [PsgdPaPlus, RandomTmaPlus, SuperTmaPlus] {
                    let base = comm(o, &data, base, model, p, 0.15)?;
                    cells.push(format!("{:.1}", pct_saving(base, splpg)));
                }
                print_row(&cells);
            }
        }
    }
    println!("\nshape check: savings in the 60-80% band across datasets and p.");
    Ok(())
}

/// Figure 9: SpLPG's saving over SpLPG+ (same partitions, complete sharing),
/// GraphSAGE — the contribution of sparsification alone; 60–80 %.
fn fig09(o: &ExpOptions) -> Res<()> {
    print_header(
        "Figure 9 — SpLPG communication saving over SpLPG+ (GraphSAGE)",
        &["dataset", "p", "SpLPG MB/epoch", "SpLPG+ MB/epoch", "saving %"],
    );
    for spec in o.comm_specs() {
        let data = o.generate(&spec)?;
        for p in o.partition_counts() {
            let splpg = comm(o, &data, Strategy::SpLpg, ModelKind::GraphSage, p, 0.15)?;
            let plus = comm(o, &data, Strategy::SpLpgPlus, ModelKind::GraphSage, p, 0.15)?;
            print_row(&[
                data.name.clone(),
                p.to_string(),
                format!("{:.2}", splpg / 1e6),
                format!("{:.2}", plus / 1e6),
                format!("{:.1}", pct_saving(plus, splpg)),
            ]);
        }
    }
    println!("\nshape check: sparsification alone saves ~60-80% of SpLPG+'s transfer.");
    Ok(())
}

/// Figure 10: SpLPG's accuracy improvement over the vanilla baselines, GCN
/// and GraphSAGE, p ∈ {4, 8, 16}; large, and growing with p.
fn fig10(o: &ExpOptions) -> Res<()> {
    for model in [ModelKind::Gcn, ModelKind::GraphSage] {
        print_header(
            &format!("Figure 10 — SpLPG accuracy improvement vs vanilla baselines ({model})"),
            &["dataset", "p", "SpLPG", "vs PSGD-PA %", "vs RandomTMA %", "vs SuperTMA %"],
        );
        for spec in o.accuracy_specs() {
            let data = o.generate(&spec)?;
            for p in o.partition_counts() {
                let splpg = hits(o, &data, Strategy::SpLpg, model, p, 0.15)?;
                let mut cells = vec![data.name.clone(), p.to_string(), format!("{splpg:.3}")];
                for base in [Strategy::PsgdPa, Strategy::RandomTma, Strategy::SuperTma] {
                    let base = hits(o, &data, base, model, p, 0.15)?;
                    cells.push(format!("{:+.0}", pct_improvement(base, splpg)));
                }
                print_row(&cells);
            }
        }
    }
    println!("\nshape check: all improvement columns strongly positive, larger at high p.");
    Ok(())
}

/// Figure 11: SpLPG vs centralized accuracy, GCN and GraphSAGE, p ∈ {4, 8,
/// 16}; SpLPG recovers most of it (GCN on small graphs a bit less).
fn fig11(o: &ExpOptions) -> Res<()> {
    for model in [ModelKind::Gcn, ModelKind::GraphSage] {
        print_header(
            &format!("Figure 11 — SpLPG vs centralized accuracy ({model}, {})", o.hits_label()),
            &["dataset", "Centralized", "SpLPG p=4", "SpLPG p=8", "SpLPG p=16"],
        );
        for spec in o.accuracy_specs() {
            let data = o.generate(&spec)?;
            let central = hits(o, &data, Strategy::Centralized, model, 1, 0.15)?;
            let mut cells = vec![data.name.clone(), format!("{central:.3}")];
            for p in o.partition_counts() {
                cells.push(format!("{:.3}", hits(o, &data, Strategy::SpLpg, model, p, 0.15)?));
            }
            // Pad when --quick restricts the p grid.
            cells.resize(5, "-".to_string());
            print_row(&cells);
        }
    }
    println!("\nshape check: SpLPG columns approach Centralized; GraphSAGE > GCN mostly.");
    Ok(())
}

/// Figure 12: the ablation ladder SpLPG-- → SpLPG- → SpLPG → SpLPG+
/// (GraphSAGE, p = 4): halo retention, global negatives, complete sharing;
/// accuracy should rise monotonically.
fn fig12(o: &ExpOptions) -> Res<()> {
    use Strategy::*;
    let mut runs = [SpLpgMinusMinus, SpLpgMinus, SpLpg, SpLpgPlus].map(|s| (s, 4)).to_vec();
    runs.push((Centralized, 1));
    let k = o.hits_label();
    print_header(
        &format!("Figure 12 — ablation of SpLPG components (GraphSAGE, p = 4, {k})"),
        &grid_columns(&runs),
    );
    for (name, outs) in sage_grid(o, &runs)? {
        print_row(&row(&name, hits_cells(&outs)));
    }
    println!(
        "\nshape check: SpLPG-- < SpLPG- < SpLPG ~= SpLPG+ ~= Centralized —\n\
         both halo retention and global negatives are load-bearing."
    );
    Ok(())
}

/// Figure 13: batch-size impact on SpLPG (GraphSAGE, Cora, p = 4); comm
/// per epoch falls with batch size, accuracy is flat until very large ones.
fn fig13(o: &ExpOptions) -> Res<()> {
    let data = o.generate(&DatasetSpec::cora())?;
    let batch_sizes: &[usize] =
        if o.quick { &[64, 256] } else { &[32, 64, 128, 256, 512, 1024, 2048] };
    print_header(
        &format!("Figure 13 — batch-size impact on SpLPG (GraphSAGE, {}, p = 4)", data.name),
        &["batch size", "comm MB/epoch", &o.hits_label()],
    );
    for &bs in batch_sizes {
        // SpLPG, model averaging, p = 4, α = 0.15, eval every epoch.
        let dist = DistConfig { setup_seed: o.seed, ..DistConfig::default() };
        let mut train = o.train_config(ModelKind::GraphSage, o.epochs);
        train.hits_k = o.hits_for(&data);
        train.batch_size = bs;
        let out = DistTrainer::new(dist, train).run(ModelKind::GraphSage, &data)?;
        print_row(&[bs.to_string(), format!("{:.3}", mb(&out)), format!("{:.3}", out.test_hits)]);
    }
    println!(
        "\nshape check: comm column strictly decreasing in batch size; accuracy\n\
         roughly flat until the largest batches."
    );
    Ok(())
}

/// Figure 14: validation Hits@K per epoch of four models under SpLPG vs
/// the baselines, p = 4; SpLPG tracks centralized, PSGD-PA plateaus below.
fn fig14(o: &ExpOptions) -> Res<()> {
    let num_specs = if o.quick || o.datasets < 2 { 1 } else { 2 };
    let models: &[ModelKind] = if o.quick {
        &[ModelKind::GraphSage]
    } else {
        &[ModelKind::Gcn, ModelKind::GraphSage, ModelKind::Gat, ModelKind::GatV2]
    };
    for spec in [DatasetSpec::cora(), DatasetSpec::pubmed()].iter().take(num_specs) {
        let data = o.generate(spec)?;
        for &model in models {
            print_header(
                &format!(
                    "Figure 14 — convergence on {} ({model}, p = 4): valid {} per epoch",
                    data.name,
                    o.hits_label()
                ),
                &["strategy", "curve (epoch: hits)", "final test"],
            );
            for strategy in [Strategy::Centralized, Strategy::PsgdPa, Strategy::SpLpg] {
                let out = o.run_strategy(&data, strategy, model, 4, 0.15, o.epochs)?;
                let curve: Vec<String> = out
                    .epochs
                    .iter()
                    .filter_map(|e| e.valid_hits.map(|h| (e.epoch, h)))
                    .step_by((out.epochs.len() / 8).max(1))
                    .map(|(e, h)| format!("{e}:{h:.2}"))
                    .collect();
                print_row(&[
                    strategy.name().to_string(),
                    curve.join(" "),
                    format!("{:.3}", out.test_hits),
                ]);
            }
        }
    }
    println!("\nshape check: SpLPG's curve tracks Centralized; PSGD-PA flattens early.");
    Ok(())
}

/// Table II: seconds of SpLPG's effective-resistance sparsification per
/// dataset, p ∈ {4, 8, 16}; roughly linear in |E|, nearly flat in p.
fn table2(o: &ExpOptions) -> Res<()> {
    let specs = if o.quick { vec![DatasetSpec::cora()] } else { DatasetSpec::table1() };
    print_header(
        "Table II — sparsification running time (seconds, alpha = 0.15)",
        &["dataset", "nodes", "edges", "p=4", "p=8", "p=16"],
    );
    for spec in specs {
        let data = o.generate(&spec)?;
        let graph = Arc::new(data.train_graph());
        let features = Arc::new(data.features.clone());
        let mut cells =
            vec![data.name.clone(), graph.num_nodes().to_string(), graph.num_edges().to_string()];
        for p in o.partition_counts() {
            // Sparsification alone is timed, not partition subgraph construction.
            let setup =
                ClusterSetup::build(&graph, &features, Strategy::SpLpg.spec(), p, 0.15, o.seed)?;
            cells.push(format!("{:.3}", setup.sparsify_time.as_secs_f64()));
        }
        // Pad when --quick restricts the p grid.
        cells.resize(6, "-".to_string());
        print_row(&cells);
    }
    println!(
        "\nshape check: time grows with |E| (PPA >> Collab >> rest) and is\n\
         nearly independent of p, matching Table II."
    );
    Ok(())
}

/// Table III: saving vs SpLPG+ and accuracy across the sparsification
/// level α (GraphSAGE, Cora); α = 0.15 balances the two.
fn table3(o: &ExpOptions) -> Res<()> {
    let data = o.generate(&DatasetSpec::cora())?;
    let ps = o.partition_counts();
    let sage = ModelKind::GraphSage;
    let plus_comm = ps
        .iter()
        .map(|&p| comm(o, &data, Strategy::SpLpgPlus, sage, p, 0.15))
        .collect::<Res<Vec<_>>>()?;
    let mut header = vec!["alpha".to_string()];
    header.extend(ps.iter().map(|p| format!("saving p={p} %")));
    header.extend(ps.iter().map(|p| format!("accuracy p={p}")));
    print_header(
        &format!(
            "Table III — sparsification level on {} (GraphSAGE, {})",
            data.name,
            o.hits_label()
        ),
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for alpha in [0.05, 0.10, 0.15, 0.20] {
        let mut savings = Vec::new();
        let mut accs = Vec::new();
        for (&p, &plus) in ps.iter().zip(&plus_comm) {
            let splpg = comm(o, &data, Strategy::SpLpg, sage, p, alpha)?;
            savings.push(format!("{:.1}", pct_saving(plus, splpg)));
            accs.push(format!("{:.3}", hits(o, &data, Strategy::SpLpg, sage, p, alpha)?));
        }
        print_row(&row(&format!("{alpha:.2}"), savings.into_iter().chain(accs)));
    }
    println!(
        "\nshape check: saving decreases and accuracy increases with alpha;\n\
         alpha = 0.15 sits at the knee, as in Table III."
    );
    Ok(())
}

/// Worst relative quadratic-form error `|x^T L~ x / x^T L x - 1|` of
/// `sparse` against `graph`, over 16 random vectors with entries uniform
/// in `[-1, 1)` from a fixed seed.
fn quadratic_form_error(graph: &Graph, sparse: &Graph) -> Res<f64> {
    let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(16);
    let mut worst = 0.0f64;
    for _ in 0..16 {
        let x: Vec<f64> = (0..graph.num_nodes()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let exact = quadratic_form(graph, &x)?;
        worst = worst.max((quadratic_form(sparse, &x)? / exact - 1.0).abs());
    }
    Ok(worst)
}

/// Beyond the paper: SpLPG's remote copies built by other sparsifiers at
/// the same edge budget, against effective-resistance sampling.
fn ablation_sparsifier(o: &ExpOptions) -> Res<()> {
    let data = o.generate(&DatasetSpec::cora())?;
    print_header(
        &format!(
            "Ablation — sparsifier choice inside SpLPG ({}, GraphSAGE, p = 4, alpha = 0.15)",
            data.name
        ),
        &["sparsifier", &o.hits_label(), "comm MB/epoch", "quad-form err, part 0"],
    );
    let train_graph = Arc::new(data.split.train_graph(data.graph.num_nodes())?);
    let features = Arc::new(data.features.clone());
    for (label, kind) in [
        ("effective-resistance (paper)", SparsifierKind::Degree),
        ("uniform", SparsifierKind::Uniform),
        ("spanning-forest", SparsifierKind::SpanningForest),
        ("exact ER (per-node engine)", SparsifierKind::Exact),
        ("JL sketch (64 proj)", SparsifierKind::Jl),
    ] {
        let splpg = SpLpg::builder()
            .workers(4)
            .strategy(Strategy::SpLpg)
            .sparsifier(kind)
            .sparsification_alpha(0.15)
            .epochs(o.epochs)
            .hidden(o.hidden)
            .layers(o.layers)
            .fanouts(vec![Some(10), Some(5)])
            .hits_k(o.hits_for(&data))
            .eval_every(3)
            .seed(o.seed)
            .build();
        let out = splpg.run(ModelKind::GraphSage, &data)?;
        // The run's own setup, rebuilt: partition 0's local graph and the
        // sparsified copy of it that remote fetches read.
        let dist = splpg.dist_config();
        let setup = ClusterSetup::build_with_sparsifier(
            &train_graph,
            &features,
            dist.strategy.spec(),
            dist.num_workers,
            dist.alpha,
            dist.setup_seed,
            kind,
        )?;
        let local_edges: Vec<(NodeId, NodeId)> =
            setup.workers[0].positives.iter().map(|e| (e.src, e.dst)).collect();
        let local = Graph::from_edges(train_graph.num_nodes(), &local_edges)?;
        let copies = setup.sparsified.ok_or("SpLPG shares sparsified copies")?;
        print_row(&[
            label.into(),
            format!("{:.3}", out.test_hits),
            format!("{:.3}", mb(&out)),
            format!("{:.3}", quadratic_form_error(&local, &copies[0])?),
        ]);
    }
    println!(
        "\nshape check: effective-resistance sampling should match or beat the\n\
         baselines at equal budget (it keeps structurally important edges).\n\
         quad-form err is max |x'L~x / x'Lx - 1| over 16 fixed-seed random\n\
         vectors on partition 0 (Theorem 1's epsilon, measured on one draw of\n\
         each copy; the JL sketch is solved to its derived tolerance)."
    );
    Ok(())
}
