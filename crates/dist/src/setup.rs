use std::sync::Arc;
use std::time::{Duration, Instant};

use splpg_rng::rngs::StdRng;
use splpg_rng::{Rng, SeedableRng};
use splpg_graph::{Edge, FeatureMatrix, Graph, NodeId};
use splpg_partition::{MetisLike, Partition, Partitioner, RandomTma, SuperTma};
use splpg_sparsify::{
    DegreeSparsifier, ExactSparsifier, JlSparsifier, SpanningForestSparsifier, SparsifyConfig,
    Sparsifier, UniformSparsifier,
};

use crate::{
    CommMeter, DistError, NegativeSpace, PartitionerKind, RemoteKind, RemoteMode, StrategySpec,
    WorkerView,
};

/// Which sparsification algorithm SpLPG's shared remote copies use.
///
/// The paper uses the degree-based effective-resistance approximation;
/// the alternatives quantify that choice (the `ablation_sparsifier`
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparsifierKind {
    /// Degree-based effective-resistance scores (the paper, Theorem 2).
    #[default]
    Degree,
    /// Uniform edge sampling (no importance weighting).
    Uniform,
    /// BFS spanning forest + uniform remainder (connectivity preserving).
    SpanningForest,
    /// Exact effective resistances through the preconditioned multi-RHS
    /// solver engine with per-node reuse (one solve per distinct edge
    /// endpoint). Partition-local graphs are disconnected in the global
    /// id space; the engine solves per component, so this works
    /// unchanged here.
    Exact,
    /// Johnson–Lindenstrauss resistance sketch
    /// ([`SparsifierKind::JL_PROJECTIONS`] blocked solves per partition)
    /// — the middle ground between [`SparsifierKind::Exact`] and
    /// [`SparsifierKind::Degree`] in the ablation.
    Jl,
}

impl SparsifierKind {
    /// Random projections used by [`SparsifierKind::Jl`]: enough for a
    /// stable sampling distribution on the partition sizes the ablation
    /// runs at, small enough to stay cheap.
    pub const JL_PROJECTIONS: usize = 64;
}

/// One worker's training inputs.
#[derive(Debug, Clone)]
pub struct WorkerData {
    /// Worker index (= partition index).
    pub worker_id: usize,
    /// Metered data-plane view.
    pub view: WorkerView,
    /// Positive training edges this worker draws batches from (its
    /// partitioned subgraph's edges; cross-partition edges appear on both
    /// sides under halo retention, per Algorithm 1).
    pub positives: Vec<Edge>,
    /// Node set that per-source negative destinations are drawn from.
    pub negative_space: Vec<NodeId>,
}

/// A fully-prepared cluster: per-worker data views plus preprocessing
/// timings (Table II reports the sparsification time).
#[derive(Debug)]
pub struct ClusterSetup {
    /// Per-worker inputs.
    pub workers: Vec<WorkerData>,
    /// Per-worker communication meters (summing accessors give the
    /// cluster-wide view).
    pub tracker: CommMeter,
    /// The node→partition assignment used.
    pub partition: Partition,
    /// Wall-clock time of graph partitioning.
    pub partition_time: Duration,
    /// Wall-clock time of the effective-resistance sparsification of all
    /// partitions (zero when the strategy doesn't sparsify).
    pub sparsify_time: Duration,
    /// The sparsified copy of every partition's local graph, in the
    /// global id space, that remote fetches read (`None` when the
    /// strategy doesn't sparsify).
    pub sparsified: Option<Arc<Vec<Graph>>>,
}

impl ClusterSetup {
    /// Partitions `graph` (the training message-passing graph) and builds
    /// every worker's view per `spec`.
    ///
    /// `alpha` is the sparsification level `L^i = alpha |E^i|` (paper
    /// default 0.15); ignored unless the strategy shares sparsified
    /// partitions.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and sparsification failures.
    pub fn build(
        graph: &Arc<Graph>,
        features: &Arc<FeatureMatrix>,
        spec: StrategySpec,
        num_workers: usize,
        alpha: f64,
        seed: u64,
    ) -> Result<Self, DistError> {
        Self::build_with_sparsifier(graph, features, spec, num_workers, alpha, seed, SparsifierKind::Degree)
    }

    /// Like [`ClusterSetup::build`] but with an explicit sparsifier choice
    /// for the shared remote copies.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and sparsification failures.
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::disallowed_methods,
        reason = "Table II reports preprocessing wall-clock: partition_time and sparsify_time are part of the result, never an input to training"
    )]
    pub fn build_with_sparsifier(
        graph: &Arc<Graph>,
        features: &Arc<FeatureMatrix>,
        spec: StrategySpec,
        num_workers: usize,
        alpha: f64,
        seed: u64,
        sparsifier_kind: SparsifierKind,
    ) -> Result<Self, DistError> {
        let n = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let partition = match spec.partitioner {
            PartitionerKind::Metis => MetisLike::default().partition(graph, num_workers, &mut rng),
            PartitionerKind::Random => {
                RandomTma.partition(graph, num_workers, &mut rng)
            }
            PartitionerKind::Super => SuperTma::default().partition(graph, num_workers, &mut rng),
        }
        .map_err(|e| DistError::Partition(e.to_string()))?;
        let partition_time = t0.elapsed();

        // Per-partition local structures in the global id space.
        let mut local_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); num_workers];
        for e in graph.edges() {
            let pu = partition.part_of(e.src) as usize;
            let pv = partition.part_of(e.dst) as usize;
            if spec.halo {
                // Cross-partition edges are kept in both partitions so the
                // full-neighbor list of every owned node is preserved.
                local_edges[pu].push((e.src, e.dst));
                if pv != pu {
                    local_edges[pv].push((e.src, e.dst));
                }
            } else if pu == pv {
                local_edges[pu].push((e.src, e.dst));
            }
        }

        let tracker = CommMeter::new(num_workers);
        // Per-partition CSR builds are independent: fan out one per pool
        // slot (partitions are few but heavy, so min 1 item per thread).
        let pool = splpg_par::global();
        let locals: Vec<Arc<Graph>> = pool
            .parallel_map_chunks(&local_edges, 1, |_, edges| {
                Graph::from_edges(n, edges).map(Arc::new)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| DistError::Partition(e.to_string()))?;

        // Sparsified copies (SpLPG): one per partition, timed for Table
        // II. Each partition sparsifies with its own RNG stream derived
        // from a single draw on the setup RNG, so the result depends only
        // on the seed, never on the thread count.
        let mut sparsify_time = Duration::ZERO;
        let sparsified: Option<Arc<Vec<Graph>>> = if spec.remote == RemoteKind::Sparsified {
            let config = SparsifyConfig::with_alpha(alpha);
            let sparsify_seed: u64 = rng.gen();
            let t1 = Instant::now();
            let parts = pool
                .parallel_map_chunks(&locals, 1, |i, g| {
                    let mut part_rng = splpg_rng::derive_stream(sparsify_seed, i as u64);
                    match sparsifier_kind {
                        SparsifierKind::Degree => {
                            DegreeSparsifier::new(config).sparsify(g, &mut part_rng)
                        }
                        SparsifierKind::Uniform => {
                            UniformSparsifier::new(config).sparsify(g, &mut part_rng)
                        }
                        SparsifierKind::SpanningForest => {
                            SpanningForestSparsifier::new(config).sparsify(g, &mut part_rng)
                        }
                        SparsifierKind::Exact => {
                            ExactSparsifier::new(config).sparsify(g, &mut part_rng)
                        }
                        SparsifierKind::Jl => {
                            JlSparsifier::new(config, SparsifierKind::JL_PROJECTIONS)
                                .sparsify(g, &mut part_rng)
                        }
                    }
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| DistError::Sparsify(e.to_string()))?;
            sparsify_time = t1.elapsed();
            Some(Arc::new(parts))
        } else {
            None
        };
        let owner: Arc<Vec<u32>> = Arc::new(partition.assignments().to_vec());

        // Per-worker view assembly (halo bitmaps, positive-edge copies)
        // reads only shared state: one worker per pool slot.
        let worker_ids: Vec<usize> = (0..num_workers).collect();
        let partition_ref = &partition;
        let sparsified_ref = &sparsified;
        // Every edge a worker can see is an edge of `graph`, so a space of
        // more than `max_degree + 1` nodes always holds a valid negative.
        let max_degree = graph.max_degree();
        let workers = pool.parallel_map_chunks(&worker_ids, 1, |_, &w| {
            let core: Vec<NodeId> = partition_ref.part_nodes(w as u32);
            let mut structure_local = vec![false; n];
            let mut feature_local = vec![false; n];
            for &v in &core {
                structure_local[v as usize] = true;
                feature_local[v as usize] = true;
            }
            if spec.halo {
                // Halo nodes: partial adjacency + features stored locally.
                for &v in &core {
                    for &u in graph.neighbors(v) {
                        structure_local[u as usize] = true;
                        feature_local[u as usize] = true;
                    }
                }
            }
            let remote = match spec.remote {
                RemoteKind::None => RemoteMode::None,
                RemoteKind::Full => RemoteMode::Full { graph: Arc::clone(graph) },
                RemoteKind::Sparsified => RemoteMode::Sparsified {
                    parts: Arc::clone(sparsified_ref.as_ref().expect("built above")),
                    owner: Arc::clone(&owner),
                },
            };
            let positives = locals[w].edges().to_vec();
            let negative_space = match spec.negatives {
                NegativeSpace::Local => core.clone(),
                NegativeSpace::Global => (0..n as NodeId).collect(),
            };
            if negative_space.len() <= max_degree + 1 {
                // Per-source sampling rejects the source itself and every
                // edge the worker sees: a source adjacent to the whole
                // space would fail mid-run, so fail here instead. Only a
                // source of degree >= |space| - 1 can be one.
                let space = negative_space.len();
                let mut sources: Vec<NodeId> = positives
                    .iter()
                    .map(|e| e.src)
                    .filter(|&s| graph.degree(s) + 1 >= space)
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                let visible = |u, v| locals[w].has_edge(u, v) || remote.has_edge(u, v);
                for source in sources {
                    if negative_space.iter().all(|&d| d == source || visible(source, d)) {
                        return Err(DistError::InvalidConfig(format!(
                            "worker {w}: no valid negative destination for source {source} \
                             in space of {space}"
                        )));
                    }
                }
            }
            let view = WorkerView::new(
                Arc::clone(&locals[w]),
                Arc::new(structure_local),
                Arc::new(feature_local),
                Arc::clone(features),
                remote,
                tracker.worker(w).clone(),
            );
            Ok(WorkerData { worker_id: w, view, positives, negative_space })
        });
        let workers = workers.into_iter().collect::<Result<Vec<_>, DistError>>()?;
        Ok(ClusterSetup { workers, tracker, partition, partition_time, sparsify_time, sparsified })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use splpg_gnn::GraphAccess;

    fn fixture() -> (Arc<Graph>, Arc<FeatureMatrix>) {
        // Two cliques of 8 joined by one bridge, each less the matching
        // {2k, 2k + 1}: every node keeps a non-neighbor in its own
        // clique, so a local negative space is valid.
        let mut b = splpg_graph::GraphBuilder::new(16);
        for base in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    if j != (i | 1) {
                        b.add_edge(base + i, base + j).unwrap();
                    }
                }
            }
        }
        b.add_edge(0, 8).unwrap();
        let g = Arc::new(b.build());
        let f = Arc::new(FeatureMatrix::zeros(16, 4));
        (g, f)
    }

    #[test]
    fn psgd_pa_drops_cross_edges() {
        let (g, f) = fixture();
        let setup =
            ClusterSetup::build(&g, &f, Strategy::PsgdPa.spec(), 2, 0.15, 1).unwrap();
        let total: usize = setup.workers.iter().map(|w| w.positives.len()).sum();
        assert_eq!(total, g.num_edges() - setup.partition.edge_cut(&g));
        // Negative space is local.
        for w in &setup.workers {
            assert_eq!(w.negative_space.len(), 8);
        }
    }

    #[test]
    fn splpg_keeps_cross_edges_on_both_sides() {
        let (g, f) = fixture();
        let setup =
            ClusterSetup::build(&g, &f, Strategy::SpLpg.spec(), 2, 0.15, 1).unwrap();
        let total: usize = setup.workers.iter().map(|w| w.positives.len()).sum();
        assert_eq!(total, g.num_edges() + setup.partition.edge_cut(&g));
        for w in &setup.workers {
            assert_eq!(w.negative_space.len(), 16, "global negative space");
        }
        assert!(setup.sparsify_time > Duration::ZERO);
    }

    #[test]
    fn splpg_core_nodes_have_full_degree() {
        let (g, f) = fixture();
        let setup =
            ClusterSetup::build(&g, &f, Strategy::SpLpg.spec(), 2, 0.15, 1).unwrap();
        for w in &setup.workers {
            let view = w.view.clone();
            for &v in setup.partition.part_nodes(w.worker_id as u32).iter() {
                assert_eq!(
                    view.neighbors(v).len(),
                    g.degree(v),
                    "core node {v} of worker {} lost neighbors",
                    w.worker_id
                );
            }
        }
        // No metering happened: all those reads were local.
        assert_eq!(setup.tracker.total_bytes(), 0);
    }

    #[test]
    fn full_sharing_gives_global_negative_space() {
        let (g, f) = fixture();
        let setup =
            ClusterSetup::build(&g, &f, Strategy::PsgdPaPlus.spec(), 2, 0.15, 1).unwrap();
        for w in &setup.workers {
            assert_eq!(w.negative_space.len(), 16);
        }
        assert_eq!(setup.sparsify_time, Duration::ZERO);
    }

    #[test]
    fn sparsified_remote_has_fewer_edges() {
        let (g, f) = fixture();
        let setup =
            ClusterSetup::build(&g, &f, Strategy::SpLpg.spec(), 2, 0.15, 1).unwrap();
        // Fetch a remote node's neighbors; sparsified copy must be small.
        let w0 = setup.workers[0].view.clone();
        let remote_node = setup.partition.part_nodes(1)[3];
        let sparse_deg = w0.neighbors(remote_node).len();
        assert!(
            sparse_deg < g.degree(remote_node),
            "sparsified degree {sparse_deg} not below {}",
            g.degree(remote_node)
        );
    }

    #[test]
    fn setup_identical_across_thread_counts() {
        let (g, f) = fixture();
        let run = |threads: usize| {
            splpg_par::set_num_threads(threads);
            let s = ClusterSetup::build(&g, &f, Strategy::SpLpg.spec(), 4, 0.15, 7).unwrap();
            splpg_par::set_num_threads(0);
            s
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.partition.assignments(), eight.partition.assignments());
        for (wa, wb) in one.workers.iter().zip(&eight.workers) {
            assert_eq!(wa.positives, wb.positives, "worker {}", wa.worker_id);
            assert_eq!(wa.negative_space, wb.negative_space, "worker {}", wa.worker_id);
            // Sparsified remote copies must match too: fetch a node owned
            // by another worker through both views.
            let other = (wa.worker_id + 1) % one.workers.len();
            let remote = one.partition.part_nodes(other as u32)[0];
            let va = wa.view.clone();
            let vb = wb.view.clone();
            assert_eq!(va.neighbors(remote), vb.neighbors(remote), "worker {}", wa.worker_id);
        }
    }

    #[test]
    fn solver_backed_sparsifiers_handle_partition_locals() {
        // Partition-local graphs keep all global node ids, so they are
        // disconnected by construction — the exact and JL kinds must
        // sparsify them via per-component solves, deterministically
        // across thread counts: every edge and weight bit of every
        // partition's copy is the same at every pool size.
        let (g, f) = fixture();
        let copies = |kind: SparsifierKind, threads: usize| {
            splpg_par::set_num_threads(threads);
            let s = ClusterSetup::build_with_sparsifier(
                &g,
                &f,
                Strategy::SpLpg.spec(),
                2,
                0.3,
                11,
                kind,
            )
            .unwrap();
            splpg_par::set_num_threads(0);
            let parts = s.sparsified.expect("SpLPG shares sparsified copies");
            let bits: Vec<Vec<(NodeId, NodeId, u32)>> = parts
                .iter()
                .map(|p| {
                    p.edges()
                        .iter()
                        .map(|e| (e.src, e.dst, p.edge_weight(e.src, e.dst).unwrap().to_bits()))
                        .collect()
                })
                .collect();
            (s.partition, bits)
        };
        for kind in [SparsifierKind::Exact, SparsifierKind::Jl] {
            let (partition, one) = copies(kind, 1);
            // Remote sparsified copies exist and lost edges.
            for (p, edges) in one.iter().enumerate() {
                let local = g
                    .edges()
                    .iter()
                    .filter(|e| {
                        partition.part_of(e.src) as usize == p
                            || partition.part_of(e.dst) as usize == p
                    })
                    .count();
                assert!(!edges.is_empty(), "{kind:?}: partition {p} copy is empty");
                assert!(
                    edges.iter().all(|&(u, v, _)| g.has_edge(u, v)),
                    "{kind:?}: partition {p} copy grew an edge"
                );
                assert!(edges.len() < local, "{kind:?}: partition {p} copy kept every edge");
            }
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    copies(kind, threads).1,
                    one,
                    "{kind:?}: sparsified copies diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn a_source_adjacent_to_its_whole_negative_space_fails_setup() {
        // Two 4-cliques joined by one bridge: each local space of 4 nodes
        // is one clique, and each of its sources is adjacent to the rest.
        let mut b = splpg_graph::GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j).unwrap();
                }
            }
        }
        b.add_edge(0, 4).unwrap();
        let (g, f) = (Arc::new(b.build()), Arc::new(FeatureMatrix::zeros(8, 4)));
        let err = ClusterSetup::build(&g, &f, Strategy::PsgdPa.spec(), 2, 0.15, 1).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, DistError::InvalidConfig(_)), "{msg}");
        assert!(msg.contains("worker 0: no valid negative destination for source "), "{msg}");
        assert!(msg.ends_with(" in space of 4"), "{msg}");
        // The global space (8 > max degree + 1) takes the O(1) path.
        assert!(ClusterSetup::build(&g, &f, Strategy::SpLpg.spec(), 2, 0.15, 1).is_ok());
    }

    #[test]
    fn random_tma_partitions_differently() {
        let (g, f) = fixture();
        let metis =
            ClusterSetup::build(&g, &f, Strategy::PsgdPa.spec(), 2, 0.15, 1).unwrap();
        let random =
            ClusterSetup::build(&g, &f, Strategy::RandomTma.spec(), 2, 0.15, 1).unwrap();
        assert!(random.partition.edge_cut(&g) > metis.partition.edge_cut(&g));
    }
}
