use splpg_rng::Rng;
use splpg_graph::Graph;

use crate::{check_part_count, MetisLike, Partition, PartitionError, Partitioner};

/// SuperTMA (Zhu et al.): METIS first partitions the graph into many small
/// *mini-clusters*; each mini-cluster is then treated as a super-node and
/// assigned uniformly at random to one of the `p` partitions.
///
/// Compared to [`crate::RandomTma`] this keeps small neighborhoods intact
/// (within a mini-cluster) while still randomizing the per-partition data
/// distribution. The number of mini-clusters is `cluster_factor * p`.
#[derive(Debug, Clone)]
pub struct SuperTma {
    metis: MetisLike,
    cluster_factor: usize,
}

impl SuperTma {
    /// Creates a SuperTMA partitioner producing `cluster_factor * p`
    /// mini-clusters (the TMA paper uses a large factor; 16 is our default).
    ///
    /// # Panics
    ///
    /// Panics if `cluster_factor == 0`.
    pub(crate) fn new(cluster_factor: usize) -> Self {
        assert!(cluster_factor > 0, "cluster_factor must be positive");
        SuperTma { metis: MetisLike::default(), cluster_factor }
    }
}

impl Default for SuperTma {
    fn default() -> Self {
        SuperTma::new(16)
    }
}

impl Partitioner for SuperTma {
    fn partition<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        num_parts: usize,
        rng: &mut R,
    ) -> Result<Partition, PartitionError> {
        check_part_count(graph, num_parts)?;
        let clusters = (self.cluster_factor * num_parts).min(graph.num_nodes()).max(num_parts);
        let mini = self.metis.partition(graph, clusters, rng)?;
        // Random super-node assignment; force coverage of all p parts so no
        // worker ends up empty (retry a bounded number of times, then patch).
        let mut cluster_part: Vec<u32> =
            (0..clusters).map(|_| rng.gen_range(0..num_parts) as u32).collect();
        let mut seen = vec![false; num_parts];
        for &cp in &cluster_part {
            seen[cp as usize] = true;
        }
        let mut missing: Vec<u32> = (0..num_parts as u32)
            .filter(|&p| !seen[p as usize])
            .collect();
        let mut idx = 0usize;
        while let Some(part) = missing.pop() {
            // Reassign an arbitrary distinct cluster to the missing part.
            cluster_part[idx % clusters] = part;
            idx += 1;
        }
        let assignments = mini
            .assignments()
            .iter()
            .map(|&c| cluster_part[c as usize])
            .collect();
        Partition::new(assignments, num_parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::{GraphBuilder, NodeId};

    fn community_graph(communities: usize, size: usize) -> Graph {
        let mut b = GraphBuilder::new(communities * size);
        for c in 0..communities {
            let base = (c * size) as NodeId;
            for i in 0..size as NodeId {
                for j in (i + 1)..size as NodeId {
                    b.add_edge(base + i, base + j).unwrap();
                }
            }
            // Chain communities together.
            if c + 1 < communities {
                b.add_edge(base, base + size as NodeId).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn all_parts_nonempty() {
        let g = community_graph(16, 8);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(5);
        let p = SuperTma::default().partition(&g, 4, &mut rng).unwrap();
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn keeps_more_locality_than_random_tma() {
        let g = community_graph(32, 8);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(6);
        let sup = SuperTma::default().partition(&g, 4, &mut rng).unwrap();
        let rand_p = crate::RandomTma.partition(&g, 4, &mut rng).unwrap();
        assert!(
            sup.local_edge_fraction(&g) > rand_p.local_edge_fraction(&g),
            "super {} <= random {}",
            sup.local_edge_fraction(&g),
            rand_p.local_edge_fraction(&g)
        );
    }

    #[test]
    #[should_panic(expected = "cluster_factor")]
    fn zero_factor_panics() {
        let _ = SuperTma::new(0);
    }

    #[test]
    fn tiny_graph_still_partitions() {
        let g = community_graph(2, 3);
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(7);
        let p = SuperTma::default().partition(&g, 2, &mut rng).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 6);
    }
}
