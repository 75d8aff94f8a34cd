//! Cross-crate component integration: partition + sparsify + linalg
//! interact correctly on generated datasets.

use splpg_rng::SeedableRng;
use splpg::linalg::{quadratic_form, CgOptions};
use splpg::prelude::*;
use splpg::sparsify::DegreeSparsifier;

fn rng() -> splpg_rng::rngs::StdRng {
    splpg_rng::rngs::StdRng::seed_from_u64(13)
}

#[test]
fn partition_then_sparsify_preserves_node_universe() {
    let data = DatasetSpec::cora().generate(Scale::tiny(), 2).expect("generate");
    let g = data.train_graph();
    let partition = MetisLike::default().partition(&g, 4, &mut rng()).expect("partition");
    let sparsifier = DegreeSparsifier::new(SparsifyConfig::with_alpha(0.15));
    for p in 0..4u32 {
        // Build the partition's halo subgraph in global id space (what the
        // cluster setup does) and sparsify it.
        let mut edges = Vec::new();
        for e in g.edges() {
            if partition.part_of(e.src) == p || partition.part_of(e.dst) == p {
                edges.push((e.src, e.dst));
            }
        }
        let sub = Graph::from_edges(g.num_nodes(), &edges).expect("subgraph");
        let sparse = sparsifier.sparsify(&sub, &mut rng()).expect("sparsify");
        // The sparsified copy keeps the full node universe (SpLPG requires
        // every node addressable for negative sampling).
        assert_eq!(sparse.num_nodes(), g.num_nodes());
        // And samples only edges of the partition subgraph.
        for e in sparse.edges() {
            assert!(sub.has_edge(e.src, e.dst));
        }
    }
}

#[test]
fn sparsified_partition_preserves_quadratic_form_roughly() {
    // Theorem 1 in the cross-crate setting: sparsify a partition subgraph
    // with a generous budget and check the Laplacian quadratic form.
    let data = DatasetSpec::cora().generate(Scale::new(0.05, 8), 4).expect("generate");
    let g = data.train_graph();
    let sparsifier = DegreeSparsifier::new(SparsifyConfig::with_samples(6 * g.num_edges()));
    let sparse = sparsifier.sparsify(&g, &mut rng()).expect("sparsify");
    let mut r = rng();
    use splpg_rng::Rng;
    let mut total_ratio = 0.0;
    let trials = 10;
    for _ in 0..trials {
        let x: Vec<f64> = (0..g.num_nodes()).map(|_| r.gen::<f64>() - 0.5).collect();
        let qf = quadratic_form(&g, &x).expect("qf");
        let qs = quadratic_form(&sparse, &x).expect("qf sparse");
        total_ratio += qs / qf;
    }
    let mean_ratio = total_ratio / trials as f64;
    assert!(
        (mean_ratio - 1.0).abs() < 0.25,
        "mean quadratic-form ratio {mean_ratio} drifted from 1"
    );
}

#[test]
fn exact_resistance_on_generated_graph_respects_bounds() {
    let data = DatasetSpec::cora().generate(Scale::new(0.03, 8), 6).expect("generate");
    let g = data.train_graph();
    let (_, components) = splpg::graph::connected_components(&g);
    if components != 1 {
        // Train graphs can be disconnected after edge removal; exact ER is
        // per-component then, so skip (the property is tested on connected
        // graphs in splpg-linalg).
        return;
    }
    for e in g.edges().iter().take(10) {
        let r = splpg::linalg::effective_resistance(&g, e.src, e.dst, CgOptions::default())
            .expect("resistance");
        let base = 1.0 / g.degree(e.src) as f64 + 1.0 / g.degree(e.dst) as f64;
        assert!(r >= base / 2.0 - 1e-9, "Lovász lower bound violated");
        assert!(r <= 1.0 + 1e-9, "edge resistance cannot exceed 1");
    }
}

#[test]
fn dataset_split_feeds_training_pipeline() {
    let data = DatasetSpec::chameleon().generate(Scale::tiny(), 8).expect("generate");
    // Evaluation negatives were drawn against the *full* graph, so none of
    // them may be a training edge either.
    let g = &data.graph;
    for e in &data.split.test_neg {
        assert!(!g.has_edge(e.src, e.dst));
    }
    // Training graph is a subgraph of the full graph.
    let tg = data.train_graph();
    for e in tg.edges() {
        assert!(g.has_edge(e.src, e.dst));
    }
}

#[test]
fn graph_io_round_trips_generated_dataset() {
    let data = DatasetSpec::actor().generate(Scale::new(0.05, 8), 10).expect("generate");
    let mut buf = Vec::new();
    splpg::graph::write_graph(&mut buf, &data.graph).expect("write");
    let g2 = splpg::graph::read_graph(buf.as_slice()).expect("read");
    assert_eq!(data.graph, g2);
    let mut fbuf = Vec::new();
    splpg::graph::write_features(&mut fbuf, &data.features).expect("write features");
    let f2 = splpg::graph::read_features(fbuf.as_slice()).expect("read features");
    assert_eq!(data.features, f2);
}

#[test]
fn train_step_tape_is_under_half_the_unfused_footprint() {
    // The `train_step` bench shape (3000 nodes / 12000 edges, GCN 2x32,
    // fanouts 10/5, batch 256). With per-edge gather/scale tensors on the
    // tape and every interior gradient held until `backward` returned,
    // the warmed-up tape backed 13 927 168 bytes on this shape
    // (BENCH_train_step.json before the fused `aggregate` op).
    use splpg::datasets::{generate_community_graph, CommunityGraphParams};
    use splpg::gnn::trainer::batch_grads;
    use splpg::gnn::{
        FullFeatureAccess, FullGraphAccess, PerSourceNegativeSampler, SamplerScratch,
    };
    const UNFUSED_TAPE_BYTES: usize = 13_927_168;

    let shape = CommunityGraphParams { nodes: 3_000, edges: 12_000, ..Default::default() };
    let mut r = splpg_rng::rngs::StdRng::seed_from_u64(7);
    let (graph, features, _) = generate_community_graph(&shape, &mut r).expect("valid params");
    let config = TrainConfig {
        layers: 2,
        hidden: 32,
        fanouts: vec![Some(10), Some(5)],
        seed: 17,
        ..TrainConfig::default()
    };
    let mut params = splpg::nn::ParamSet::new();
    let mut init = splpg_rng::rngs::StdRng::seed_from_u64(config.seed);
    let model = config.build_model(ModelKind::Gcn, features.dim(), &mut params, &mut init);
    let batch = &graph.edges()[..config.batch_size];
    let negatives = PerSourceNegativeSampler::global(graph.num_nodes());
    let mut tape = splpg::tensor::Tape::new();
    let mut scratch = SamplerScratch::new();
    for _ in 0..3 {
        let mut step_rng = splpg_rng::rngs::StdRng::seed_from_u64(1_000);
        let (_, grads) = batch_grads(
            &model,
            &params,
            &FullGraphAccess::new(&graph),
            &mut FullFeatureAccess::new(&features),
            &config.sampler(),
            &negatives,
            batch,
            &mut step_rng,
            &mut tape,
            &mut scratch,
        )
        .expect("training step");
        grads.into_iter().for_each(|g| tape.recycle(g));
    }
    let bytes = tape.backing_bytes();
    assert!(2 * bytes <= UNFUSED_TAPE_BYTES, "tape backs {bytes} B after backward");
}
