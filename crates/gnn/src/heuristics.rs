//! Classical link-prediction heuristics (paper Section II-A): similarity
//! scores computed directly from graph structure, no learning.
//!
//! These are the pre-GNN baselines the literature compares against —
//! common neighbors, Jaccard, preferential attachment, Adamic–Adar — and
//! they calibrate the synthetic datasets: a dataset where GNNs cannot beat
//! common neighbors is too easy or too hard to be informative.

use splpg_graph::{Edge, Graph, NodeId};

/// A structural similarity score for node pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// `|N(u) ∩ N(v)|`.
    CommonNeighbors,
    /// `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`.
    Jaccard,
    /// `d_u * d_v`.
    PreferentialAttachment,
    /// `Σ_{w ∈ N(u) ∩ N(v)} 1 / ln d_w`.
    AdamicAdar,
}

impl Heuristic {
    /// All heuristics, in the order the survey literature lists them.
    pub const ALL: [Heuristic; 4] = [
        Heuristic::CommonNeighbors,
        Heuristic::Jaccard,
        Heuristic::PreferentialAttachment,
        Heuristic::AdamicAdar,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Heuristic::CommonNeighbors => "common-neighbors",
            Heuristic::Jaccard => "jaccard",
            Heuristic::PreferentialAttachment => "preferential-attachment",
            Heuristic::AdamicAdar => "adamic-adar",
        }
    }

    /// Scores the pair `(u, v)` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub(crate) fn score(&self, graph: &Graph, u: NodeId, v: NodeId) -> f64 {
        match self {
            Heuristic::CommonNeighbors => common_neighbors(graph, u, v).len() as f64,
            Heuristic::Jaccard => {
                let common = common_neighbors(graph, u, v).len() as f64;
                let union =
                    (graph.degree(u) + graph.degree(v)) as f64 - common;
                if union == 0.0 {
                    0.0
                } else {
                    common / union
                }
            }
            Heuristic::PreferentialAttachment => {
                (graph.degree(u) as f64) * (graph.degree(v) as f64)
            }
            Heuristic::AdamicAdar => common_neighbors(graph, u, v)
                .into_iter()
                .map(|w| {
                    let d = graph.degree(w) as f64;
                    if d > 1.0 {
                        1.0 / d.ln()
                    } else {
                        0.0
                    }
                })
                .sum(),
        }
    }

    /// Scores a list of edges.
    pub fn score_edges(&self, graph: &Graph, edges: &[Edge]) -> Vec<f32> {
        edges.iter().map(|e| self.score(graph, e.src, e.dst) as f32).collect()
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sorted intersection of two neighbor lists.
fn common_neighbors(graph: &Graph, u: NodeId, v: NodeId) -> Vec<NodeId> {
    let a = graph.neighbors(u);
    let b = graph.neighbors(v);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_graph::Graph;

    /// 0 and 1 share neighbors {2, 3}; 4 is pendant on 0.
    fn graph() -> Graph {
        Graph::from_edges(5, &[(0, 2), (0, 3), (1, 2), (1, 3), (0, 4)]).unwrap()
    }

    #[test]
    fn common_neighbors_count() {
        let g = graph();
        assert_eq!(Heuristic::CommonNeighbors.score(&g, 0, 1), 2.0);
        assert_eq!(Heuristic::CommonNeighbors.score(&g, 2, 4), 1.0); // share 0
        assert_eq!(Heuristic::CommonNeighbors.score(&g, 3, 4), 1.0);
    }

    #[test]
    fn jaccard_normalizes() {
        let g = graph();
        // N(0) = {2,3,4}, N(1) = {2,3}: common 2, union 3.
        assert!((Heuristic::Jaccard.score(&g, 0, 1) - 2.0 / 3.0).abs() < 1e-12);
        // Isolated-ish pair with no neighbors in common and zero union is 0.
        let g2 = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(Heuristic::Jaccard.score(&g2, 2, 2), 0.0);
    }

    #[test]
    fn preferential_attachment_is_degree_product() {
        let g = graph();
        assert_eq!(Heuristic::PreferentialAttachment.score(&g, 0, 1), 6.0);
    }

    #[test]
    fn adamic_adar_weights_rare_neighbors() {
        let g = graph();
        // Common neighbors of (0,1) are 2 and 3, both degree 2.
        let expect = 2.0 / 2.0f64.ln();
        assert!((Heuristic::AdamicAdar.score(&g, 0, 1) - expect).abs() < 1e-12);
        // Degree-1 common neighbors contribute 0 (ln 1 = 0 guard).
        let chain = Graph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let aa = Heuristic::AdamicAdar.score(&chain, 0, 1);
        assert!((aa - 1.0 / 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn heuristics_separate_planted_structure() {
        // On a two-community graph, intra pairs should outscore cross
        // pairs on average for neighborhood-based heuristics.
        let mut edges = Vec::new();
        for c in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((c + i, c + j));
                }
            }
        }
        edges.push((0, 8));
        let g = Graph::from_edges(16, &edges).unwrap();
        for h in [Heuristic::CommonNeighbors, Heuristic::Jaccard, Heuristic::AdamicAdar] {
            let intra = h.score(&g, 1, 2);
            let cross = h.score(&g, 1, 9);
            assert!(intra > cross, "{h} failed: intra {intra} <= cross {cross}");
        }
    }

    #[test]
    fn score_edges_vectorized() {
        let g = graph();
        let edges = vec![Edge::new(0, 1), Edge::new(2, 3)];
        let scores = Heuristic::CommonNeighbors.score_edges(&g, &edges);
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0], 2.0);
        assert_eq!(scores[1], 2.0); // 2 and 3 share {0, 1}
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Heuristic::ALL.len(), 4);
        assert_eq!(Heuristic::Jaccard.to_string(), "jaccard");
    }
}
