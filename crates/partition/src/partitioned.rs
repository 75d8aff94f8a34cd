use splpg_graph::{Graph, InducedSubgraph};

use crate::Partition;

/// Materialized per-worker subgraphs for a [`Partition`].
///
/// `with_halo = true` reproduces SpLPG's partitioning strategy (paper
/// Section IV-B): "the cross-partition edges are maintained in both
/// partitions. That is, the full-neighbor list of each node is fully
/// preserved in a partitioned subgraph." Each part then contains its owned
/// (core) nodes plus one-hop halo nodes, and every edge incident to a core
/// node.
///
/// `with_halo = false` reproduces the vanilla baselines (PSGD-PA,
/// RandomTMA, SuperTMA): node-induced subgraphs in which cross-partition
/// edges are dropped.
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_graph::Graph;
/// use splpg_partition::{MetisLike, PartitionedGraph, Partitioner};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(60, &(0..59).map(|i| (i, i + 1)).collect::<Vec<_>>())?;
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(9);
/// let p = MetisLike::default().partition(&g, 4, &mut rng)?;
/// let halo = PartitionedGraph::build(&g, &p, true);
/// let cut = PartitionedGraph::build(&g, &p, false);
/// assert!(halo.total_edges() >= cut.total_edges());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionedGraph {
    parts: Vec<InducedSubgraph>,
}

impl PartitionedGraph {
    /// Extracts one subgraph per part from `graph` according to `partition`.
    pub fn build(graph: &Graph, partition: &Partition, with_halo: bool) -> Self {
        let parts = (0..partition.num_parts() as u32)
            .map(|p| {
                let nodes = partition.part_nodes(p);
                if with_halo {
                    InducedSubgraph::extract_with_halo(graph, &nodes)
                } else {
                    InducedSubgraph::extract(graph, &nodes)
                }
            })
            .collect();
        PartitionedGraph { parts }
    }

    /// All per-part subgraphs.
    pub fn parts(&self) -> &[InducedSubgraph] {
        &self.parts
    }

    /// Total edges across all part subgraphs (cross-partition edges are
    /// counted once per side under halo retention).
    pub fn total_edges(&self) -> usize {
        self.parts.iter().map(|p| p.graph.num_edges()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetisLike, Partitioner};
    use splpg_rng::SeedableRng;
    use splpg_graph::{GraphBuilder, NodeId};

    fn grid(w: usize, h: usize) -> Graph {
        let mut b = GraphBuilder::new(w * h);
        let id = |x: usize, y: usize| (y * w + x) as NodeId;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_edge(id(x, y), id(x + 1, y)).unwrap();
                }
                if y + 1 < h {
                    b.add_edge(id(x, y), id(x, y + 1)).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn halo_parts_preserve_core_degrees() {
        let g = grid(8, 8);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(11);
        let p = MetisLike::default().partition(&g, 4, &mut rng).unwrap();
        let pg = PartitionedGraph::build(&g, &p, true);
        for part in pg.parts() {
            for &core_local in &part.core {
                let global = part.mapping.to_global(core_local);
                assert_eq!(
                    part.graph.degree(core_local),
                    g.degree(global),
                    "core node {global} lost neighbors"
                );
            }
        }
    }

    #[test]
    fn cut_parts_lose_cross_edges() {
        let g = grid(6, 6);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(12);
        let p = MetisLike::default().partition(&g, 4, &mut rng).unwrap();
        let pg = PartitionedGraph::build(&g, &p, false);
        assert_eq!(pg.total_edges() + p.edge_cut(&g), g.num_edges());
    }

    #[test]
    fn halo_double_counts_cut_edges() {
        let g = grid(6, 6);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(13);
        let p = MetisLike::default().partition(&g, 2, &mut rng).unwrap();
        let pg = PartitionedGraph::build(&g, &p, true);
        // Each cut edge appears in both incident parts.
        assert_eq!(pg.total_edges(), g.num_edges() + p.edge_cut(&g));
    }

    #[test]
    fn owner_lookup_matches_partition() {
        let g = grid(4, 4);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(14);
        let p = MetisLike::default().partition(&g, 2, &mut rng).unwrap();
        let pg = PartitionedGraph::build(&g, &p, true);
        // Every part's core nodes are exactly the nodes the partition
        // assigns to it.
        for (w, part) in pg.parts().iter().enumerate() {
            let mut owned: Vec<NodeId> =
                part.core.iter().map(|&l| part.mapping.to_global(l)).collect();
            owned.sort_unstable();
            assert_eq!(owned, p.part_nodes(w as u32), "part {w}");
        }
        assert_eq!(pg.parts().len(), 2);
    }
}
