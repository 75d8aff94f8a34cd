use splpg_graph::NodeId;

/// A bipartite message-flow block for one GNN layer (DGL's "MFG").
///
/// Destination nodes are a **prefix** of the source nodes (every dst also
/// appears as a src at the same index), which lets models read the previous
/// layer's self-embedding as the first `num_dst` rows of the source
/// embedding matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Global ids of source (input) rows; the first `num_dst` entries equal
    /// `dst_ids`.
    pub src_ids: Vec<NodeId>,
    /// Number of destination (output) rows.
    pub num_dst: usize,
    /// Per-edge index into `src_ids` (message sender).
    pub edge_src: Vec<u32>,
    /// Per-edge index into the dst prefix (message receiver).
    pub edge_dst: Vec<u32>,
    /// Per-edge weight (1.0 for unweighted graphs; sparsified subgraphs
    /// carry Spielman–Srivastava weights).
    pub edge_weight: Vec<f32>,
    /// Global (full-graph) degree of each source node, used by GCN's
    /// symmetric normalization.
    pub src_degree: Vec<f32>,
}

impl Block {
    /// Destination global ids (the prefix of `src_ids`).
    pub(crate) fn dst_ids(&self) -> &[NodeId] {
        &self.src_ids[..self.num_dst]
    }

    /// Number of source rows.
    pub(crate) fn num_src(&self) -> usize {
        self.src_ids.len()
    }

    /// Number of edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Checks internal consistency (prefix property, index ranges).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_dst > self.src_ids.len() {
            return Err(format!(
                "num_dst {} exceeds src count {}",
                self.num_dst,
                self.src_ids.len()
            ));
        }
        if self.edge_src.len() != self.edge_dst.len()
            || self.edge_src.len() != self.edge_weight.len()
        {
            return Err("edge arrays must be parallel".to_string());
        }
        if self.src_degree.len() != self.src_ids.len() {
            return Err("one degree per source node required".to_string());
        }
        for &s in &self.edge_src {
            if (s as usize) >= self.src_ids.len() {
                return Err(format!("edge src index {s} out of range"));
            }
        }
        for &d in &self.edge_dst {
            if (d as usize) >= self.num_dst {
                return Err(format!("edge dst index {d} out of range"));
            }
        }
        Ok(())
    }
}

/// A sampled mini-batch: one [`Block`] per GNN layer.
///
/// `blocks[0]` is the outermost (input-side) block whose `src_ids` are the
/// nodes whose raw features must be materialized; `blocks.last()`'s dst
/// prefix equals the seed nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniBatch {
    /// Per-layer blocks, input side first.
    pub blocks: Vec<Block>,
    /// Seed (output) nodes, equal to the last block's dst prefix.
    pub seeds: Vec<NodeId>,
}

impl MiniBatch {
    /// Global ids whose input features feed the first layer.
    pub fn input_nodes(&self) -> &[NodeId] {
        match self.blocks.first() {
            Some(b) => &b.src_ids,
            None => &self.seeds,
        }
    }

    /// Validates every block and the seed/prefix correspondence.
    pub fn validate(&self) -> Result<(), String> {
        for (i, b) in self.blocks.iter().enumerate() {
            b.validate().map_err(|e| format!("block {i}: {e}"))?;
        }
        if let Some(last) = self.blocks.last() {
            if last.dst_ids() != self.seeds.as_slice() {
                return Err("last block dst prefix must equal seeds".to_string());
            }
        }
        for w in self.blocks.windows(2) {
            // The next block consumes exactly the previous block's outputs.
            if w[1].src_ids != w[0].src_ids[..w[0].num_dst] {
                return Err("consecutive blocks must chain src -> prior dst".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        Block {
            src_ids: vec![7, 9, 3],
            num_dst: 2,
            edge_src: vec![2, 1],
            edge_dst: vec![0, 1],
            edge_weight: vec![1.0, 0.5],
            src_degree: vec![3.0, 2.0, 1.0],
        }
    }

    #[test]
    fn accessors() {
        let b = block();
        assert_eq!(b.dst_ids(), &[7, 9]);
        assert_eq!(b.num_src(), 3);
        assert_eq!(b.num_edges(), 2);
        b.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_indices() {
        let mut b = block();
        b.edge_dst[0] = 5;
        assert!(b.validate().is_err());
        let mut b2 = block();
        b2.edge_src[0] = 9;
        assert!(b2.validate().is_err());
        let mut b3 = block();
        b3.num_dst = 10;
        assert!(b3.validate().is_err());
    }

    #[test]
    fn minibatch_input_nodes() {
        let b = block();
        let mb = MiniBatch { seeds: vec![7, 9], blocks: vec![b] };
        assert_eq!(mb.input_nodes(), &[7, 9, 3]);
        assert_eq!(mb.blocks[0].num_edges(), 2);
        mb.validate().unwrap();
    }

    #[test]
    fn minibatch_seed_mismatch_detected() {
        let b = block();
        let mb = MiniBatch { seeds: vec![7, 3], blocks: vec![b] };
        assert!(mb.validate().is_err());
    }
}
