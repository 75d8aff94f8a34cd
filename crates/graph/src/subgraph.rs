use std::collections::BTreeMap;

use crate::{Graph, GraphBuilder, NodeId};

/// Bidirectional mapping between the node ids of a subgraph (local) and the
/// parent graph (global).
///
/// # Examples
///
/// ```
/// use splpg_graph::{Graph, InducedSubgraph};
/// # fn main() -> Result<(), splpg_graph::GraphError> {
/// let g = Graph::from_edges(11, &[(4, 7), (7, 10)])?;
/// let m = InducedSubgraph::extract(&g, &[10, 4, 7]).mapping;
/// assert_eq!(m.to_global(0), 4);
/// assert_eq!(m.to_local(10), Some(2));
/// assert_eq!(m.to_local(3), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMapping {
    globals: Vec<NodeId>,
    locals: BTreeMap<NodeId, NodeId>,
}

impl NodeMapping {
    /// Builds a mapping where local id `i` corresponds to `globals[i]`.
    pub(crate) fn from_globals(globals: Vec<NodeId>) -> Self {
        let locals = globals
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as NodeId))
            .collect();
        NodeMapping { globals, locals }
    }

    /// Number of mapped nodes.
    pub(crate) fn len(&self) -> usize {
        self.globals.len()
    }

    /// Global id of local node `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.globals[local as usize]
    }

    /// Local id of global node `global`, if mapped.
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.locals.get(&global).copied()
    }
}

/// A node-induced subgraph together with its [`NodeMapping`].
///
/// Used by the partitioners: `RandomTMA` forms partitions as node-induced
/// subgraphs, and `extract` with `keep_halo` retains cross-partition edges
/// so that "the full-neighbor list of each node is fully preserved in a
/// partitioned subgraph" (paper, Section IV-B).
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The extracted subgraph in local ids.
    pub graph: Graph,
    /// Local/global id mapping.
    pub mapping: NodeMapping,
    /// For halo extraction: local ids of nodes that belong to the core set
    /// (non-halo). Without halo, this is all nodes.
    pub core: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Extracts the subgraph induced by `nodes` (edges with both endpoints
    /// in the set). `nodes` may be unsorted; duplicates are collapsed.
    pub fn extract(parent: &Graph, nodes: &[NodeId]) -> Self {
        let mut globals: Vec<NodeId> = nodes.to_vec();
        globals.sort_unstable();
        globals.dedup();
        let mapping = NodeMapping::from_globals(globals);
        let mut b = GraphBuilder::new(mapping.len());
        for local in 0..mapping.len() as NodeId {
            let g = mapping.to_global(local);
            for &nb in parent.neighbors(g) {
                if let Some(local_nb) = mapping.to_local(nb) {
                    if local < local_nb {
                        let w = parent.edge_weight(g, nb).unwrap_or(1.0);
                        if parent.is_weighted() {
                            b.add_weighted_edge(local, local_nb, w)
                                .expect("validated locals");
                        } else {
                            b.add_edge(local, local_nb).expect("validated locals");
                        }
                    }
                }
            }
        }
        let core = (0..mapping.len() as NodeId).collect();
        InducedSubgraph { graph: b.build(), mapping, core }
    }

    /// Extracts the subgraph on `core` nodes *plus their one-hop halo*: every
    /// neighbor of a core node is included as a halo node, and every edge
    /// incident to a core node is kept. Halo-halo edges are dropped, matching
    /// the paper's strategy of preserving full-neighbor lists of owned nodes
    /// without replicating the rest of the graph.
    pub fn extract_with_halo(parent: &Graph, core_nodes: &[NodeId]) -> Self {
        let mut core_sorted: Vec<NodeId> = core_nodes.to_vec();
        core_sorted.sort_unstable();
        core_sorted.dedup();
        // `core_sorted` is sorted and deduplicated: membership via binary
        // search, no hash container needed.
        let in_core = |n: NodeId| core_sorted.binary_search(&n).is_ok();
        let mut globals = core_sorted.clone();
        for &c in &core_sorted {
            for &nb in parent.neighbors(c) {
                if !in_core(nb) {
                    globals.push(nb);
                }
            }
        }
        // Core nodes first (stable local ids 0..core.len()), then halo sorted.
        let core_len = core_sorted.len();
        globals[core_len..].sort_unstable();
        globals.dedup(); // halo duplicates are adjacent after sort; core ids unique & disjoint
        let mapping = NodeMapping::from_globals(globals);
        let mut b = GraphBuilder::new(mapping.len());
        for (local_idx, &g) in core_sorted.iter().enumerate() {
            let local = local_idx as NodeId;
            for &nb in parent.neighbors(g) {
                let local_nb = mapping.to_local(nb).expect("halo includes all neighbors");
                // Add each core-core edge once; core-halo edges keyed by core side.
                if in_core(nb) && local > local_nb {
                    continue;
                }
                let w = parent.edge_weight(g, nb).unwrap_or(1.0);
                if parent.is_weighted() {
                    b.add_weighted_edge(local, local_nb, w).expect("validated locals");
                } else {
                    b.add_edge(local, local_nb).expect("validated locals");
                }
            }
        }
        let core = (0..core_len as NodeId).collect();
        InducedSubgraph { graph: b.build(), mapping, core }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parent() -> Graph {
        // Triangle 0-1-2 plus pendant 3 on node 2 and edge 3-4.
        Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = parent();
        let sub = InducedSubgraph::extract(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 3); // the triangle
        assert_eq!(sub.mapping.to_global(0), 0);
    }

    #[test]
    fn induced_drops_cross_edges() {
        let g = parent();
        let sub = InducedSubgraph::extract(&g, &[3, 0, 1]);
        // Only edge 0-1 has both endpoints inside.
        assert_eq!(sub.graph.num_edges(), 1);
    }

    #[test]
    fn induced_dedups_nodes() {
        let g = parent();
        let sub = InducedSubgraph::extract(&g, &[1, 1, 0]);
        assert_eq!(sub.graph.num_nodes(), 2);
    }

    #[test]
    fn halo_preserves_full_neighbor_lists() {
        let g = parent();
        let sub = InducedSubgraph::extract_with_halo(&g, &[2, 3]);
        // Core {2,3}; halo must include 0, 1 (nbrs of 2) and 4 (nbr of 3).
        assert_eq!(sub.core.len(), 2);
        assert_eq!(sub.graph.num_nodes(), 5);
        // Full degree of core nodes is preserved.
        let local2 = sub.mapping.to_local(2).unwrap();
        let local3 = sub.mapping.to_local(3).unwrap();
        assert_eq!(sub.graph.degree(local2), g.degree(2));
        assert_eq!(sub.graph.degree(local3), g.degree(3));
        assert!(sub.core.contains(&local2));
    }

    #[test]
    fn halo_drops_halo_halo_edges() {
        let g = parent();
        // Core {3}: halo {2, 4}. Edge 2-4 doesn't exist; edges 0-2,1-2 are
        // halo-halo relative to core and must be dropped.
        let sub = InducedSubgraph::extract_with_halo(&g, &[3]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 2); // 3-2 and 3-4 only
        let local0 = sub.mapping.to_local(0);
        assert_eq!(local0, None); // 0 not adjacent to core
    }

    #[test]
    fn mapping_round_trips() {
        let m = NodeMapping::from_globals(vec![9, 5, 6]);
        for local in 0..3 as NodeId {
            assert_eq!(m.to_local(m.to_global(local)), Some(local));
        }
        assert_eq!(m.len(), 3);
    }
}
