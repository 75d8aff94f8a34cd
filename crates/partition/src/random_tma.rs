use splpg_rng::Rng;
use splpg_graph::Graph;

use crate::{check_part_count, Partition, PartitionError, Partitioner};

/// RandomTMA (Zhu et al.): every node is assigned independently and
/// uniformly at random to one of the partitions, and a node-induced subgraph
/// forms each partition.
///
/// The randomized assignment makes all partitions share the same data
/// distribution (resolving the discrepancy issue the TMA paper targets) but
/// destroys connectivity — the neighbors of each node become fragmented
/// across partitions, which is exactly the information loss SpLPG
/// identifies as a root cause of the accuracy drop.
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_graph::Graph;
/// use splpg_partition::{Partitioner, RandomTma};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(100, &(0..99).map(|i| (i, i + 1)).collect::<Vec<_>>())?;
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
/// let p = RandomTma::default().partition(&g, 4, &mut rng)?;
/// assert_eq!(p.num_parts(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomTma;

impl Partitioner for RandomTma {
    fn partition<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        num_parts: usize,
        rng: &mut R,
    ) -> Result<Partition, PartitionError> {
        check_part_count(graph, num_parts)?;
        let assignments = (0..graph.num_nodes())
            .map(|_| rng.gen_range(0..num_parts) as u32)
            .collect();
        Partition::new(assignments, num_parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::NodeId;

    #[test]
    fn covers_all_nodes() {
        let g = Graph::empty(1000);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
        let p = RandomTma.partition(&g, 4, &mut rng).unwrap();
        assert_eq!(p.assignments().len(), 1000);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 1000);
    }

    #[test]
    fn roughly_balanced() {
        let g = Graph::empty(4000);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(2);
        let p = RandomTma.partition(&g, 4, &mut rng).unwrap();
        for &s in &p.part_sizes() {
            assert!((800..1200).contains(&s), "size {s} far from 1000");
        }
    }

    #[test]
    fn destroys_locality_on_community_graph() {
        // Edge locality under random assignment into p parts is ~1/p.
        let n = 1000usize;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(3);
        let p = RandomTma.partition(&g, 4, &mut rng).unwrap();
        let local = p.local_edge_fraction(&g);
        assert!((local - 0.25).abs() < 0.08, "local fraction {local} not ~0.25");
    }

    #[test]
    fn rejects_zero_parts() {
        let g = Graph::empty(10);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(4);
        assert!(RandomTma.partition(&g, 0, &mut rng).is_err());
    }
}
