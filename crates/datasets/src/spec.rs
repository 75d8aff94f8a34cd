use splpg_graph::{EdgeSplit, FeatureMatrix, Graph, SplitFractions};

use crate::generator::{generate_community_graph, CommunityGraphParams};
use crate::DatasetError;

/// Size profile applied to a [`DatasetSpec`] before generation.
///
/// `factor` scales node and edge counts; `feature_cap` truncates feature
/// dimensionality (Co-Physics has 8,415 features — at full width the
/// feature matrix alone is >1 GB, far beyond what CPU experiments need to
/// show the paper's *relative* behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier on node and edge counts (1.0 = Table I sizes).
    pub factor: f64,
    /// Maximum feature dimensionality (`usize::MAX` = Table I widths).
    pub feature_cap: usize,
}

impl Scale {
    /// Default experiment profile: 20% of nodes/edges, features <= 128.
    pub fn small() -> Self {
        Scale { factor: 0.2, feature_cap: 128 }
    }

    /// Smoke-test profile: 10% of nodes/edges, features <= 32.
    pub fn tiny() -> Self {
        Scale { factor: 0.1, feature_cap: 32 }
    }

    /// Custom profile.
    pub fn new(factor: f64, feature_cap: usize) -> Self {
        Scale { factor, feature_cap }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

/// Static description of one of the paper's nine datasets (Table I) plus
/// the per-dataset hyperparameters of Section V-A.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    /// Table I node count.
    pub nodes: usize,
    /// Table I edge count.
    pub edges: usize,
    /// Table I feature dimensionality.
    pub features: usize,
    /// Planted communities used by the synthetic stand-in (heuristic:
    /// roughly `sqrt(nodes)/2`, floor 4).
    pub communities: usize,
    /// Paper batch size (256 for DGL datasets, 10240 Collab, 51200 PPA).
    pub batch_size: usize,
}

impl DatasetSpec {
    /// Citeseer: 3,327 nodes / 9,228 edges / 3,703 features.
    pub fn citeseer() -> Self {
        Self::new("Citeseer", 3_327, 9_228, 3_703, 256)
    }

    /// Cora: 2,708 / 10,556 / 1,433.
    pub fn cora() -> Self {
        Self::new("Cora", 2_708, 10_556, 1_433, 256)
    }

    /// Actor: 7,600 / 53,411 / 932.
    pub fn actor() -> Self {
        Self::new("Actor", 7_600, 53_411, 932, 256)
    }

    /// Chameleon: 2,227 / 62,792 / 2,325.
    pub fn chameleon() -> Self {
        Self::new("Chameleon", 2_227, 62_792, 2_325, 256)
    }

    /// Pubmed: 19,717 / 88,651 / 500.
    pub fn pubmed() -> Self {
        Self::new("Pubmed", 19_717, 88_651, 500, 256)
    }

    /// Co-CS: 18,333 / 163,788 / 6,805.
    pub fn co_cs() -> Self {
        Self::new("Co-CS", 18_333, 163_788, 6_805, 256)
    }

    /// Co-Physics: 34,493 / 495,924 / 8,415.
    pub(crate) fn co_physics() -> Self {
        Self::new("Co-Physics", 34_493, 495_924, 8_415, 256)
    }

    /// OGB-Collab: 235,868 / 1,285,465 / 128.
    pub(crate) fn collab() -> Self {
        Self::new("Collab", 235_868, 1_285_465, 128, 10_240)
    }

    /// OGB-PPA: 576,289 / 30,326,273 / 58.
    pub(crate) fn ppa() -> Self {
        Self::new("PPA", 576_289, 30_326_273, 58, 51_200)
    }

    fn new(
        name: &'static str,
        nodes: usize,
        edges: usize,
        features: usize,
        batch_size: usize,
    ) -> Self {
        let communities = (((nodes as f64).sqrt() / 2.0) as usize).max(4);
        DatasetSpec { name, nodes, edges, features, communities, batch_size }
    }

    /// All nine datasets in Table I order.
    pub fn table1() -> Vec<DatasetSpec> {
        vec![
            Self::citeseer(),
            Self::cora(),
            Self::actor(),
            Self::chameleon(),
            Self::pubmed(),
            Self::co_cs(),
            Self::co_physics(),
            Self::collab(),
            Self::ppa(),
        ]
    }

    /// Generates the synthetic stand-in at the given scale, including the
    /// paper's 80/10/10 split with 3x evaluation negatives.
    ///
    /// # Errors
    ///
    /// Propagates generation and split failures.
    pub fn generate(&self, scale: Scale, seed: u64) -> Result<Dataset, DatasetError> {
        let nodes = ((self.nodes as f64 * scale.factor) as usize).max(64);
        // Keep density bounded so tiny profiles of dense graphs (Chameleon,
        // PPA) stay splittable.
        let max_edges = nodes * (nodes - 1) / 4;
        let edges = ((self.edges as f64 * scale.factor) as usize)
            .max(2 * nodes)
            .min(max_edges);
        let feature_dim = self.features.min(scale.feature_cap);
        let params = CommunityGraphParams {
            nodes,
            edges,
            communities: self.communities.min(nodes / 8).max(2),
            intra_fraction: 0.92,
            degree_skew: 0.7,
            feature_dim,
            // Calibrated so link prediction is learnable from features +
            // structure but features alone do not saturate it — the regime
            // where the paper's accuracy gaps between training strategies
            // are visible (see EXPERIMENTS.md).
            feature_signal: 0.5,
        };
        let mut rng = splpg_rng::derive_stream(seed, fxhash(self.name));
        let (graph, features, communities) = generate_community_graph(&params, &mut rng)?;
        let split =
            EdgeSplit::random(&graph, SplitFractions::paper_default(), 3, &mut rng)
                .map_err(|e| DatasetError::Graph(e.to_string()))?;
        Ok(Dataset { name: self.name.to_string(), graph, features, split, communities })
    }
}

/// A generated dataset: graph + features + link-prediction split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// The full graph (message passing uses `split.train_graph`).
    pub graph: Graph,
    /// Node features.
    pub features: FeatureMatrix,
    /// Train/valid/test edge split with evaluation negatives.
    pub split: EdgeSplit,
    /// Ground-truth planted community per node (for diagnostics).
    pub communities: Vec<u32>,
}

impl Dataset {
    /// Convenience: the training message-passing graph.
    ///
    /// # Panics
    ///
    /// Never panics for datasets produced by [`DatasetSpec::generate`].
    pub fn train_graph(&self) -> Graph {
        self.split
            .train_graph(self.graph.num_nodes())
            .expect("invariant: split edges were drawn from this graph's node range")
    }
}

/// Tiny deterministic string hash to decorrelate per-dataset seeds.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_counts() {
        let specs = DatasetSpec::table1();
        assert_eq!(specs.len(), 9);
        assert_eq!(specs[0].nodes, 3_327);
        assert_eq!(specs[4].name, "Pubmed");
        assert_eq!(specs[8].edges, 30_326_273);
        assert_eq!(specs[7].batch_size, 10_240);
    }

    #[test]
    fn tiny_generation_works_for_all_dgl_datasets() {
        for spec in DatasetSpec::table1().into_iter().take(7) {
            let d = spec.generate(Scale::tiny(), 3).unwrap();
            assert!(d.graph.num_nodes() >= 64, "{} too small", d.name);
            assert_eq!(d.features.num_rows(), d.graph.num_nodes());
            assert!(d.split.train.len() > d.split.test.len());
            d.graph.validate().unwrap();
        }
    }

    #[test]
    fn ogb_datasets_generate_at_tiny_scale() {
        for spec in [DatasetSpec::collab(), DatasetSpec::ppa()] {
            let scaled = Scale::new(0.005, 32);
            let d = spec.generate(scaled, 3).unwrap();
            assert!(d.graph.num_nodes() > 500, "{}", d.name);
        }
    }

    #[test]
    fn full_scale_keeps_table1_counts() {
        // Generate the smallest dataset at full scale and verify exact
        // counts.
        let d = DatasetSpec::cora().generate(Scale::new(1.0, usize::MAX), 5).unwrap();
        assert_eq!(d.graph.num_nodes(), 2_708);
        assert_eq!(d.graph.num_edges(), 10_556);
        assert_eq!(d.features.dim(), 1_433);
    }

    #[test]
    fn different_datasets_different_graphs() {
        let a = DatasetSpec::citeseer().generate(Scale::tiny(), 7).unwrap();
        let b = DatasetSpec::cora().generate(Scale::tiny(), 7).unwrap();
        assert_ne!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetSpec::cora().generate(Scale::tiny(), 9).unwrap();
        let b = DatasetSpec::cora().generate(Scale::tiny(), 9).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.split.train, b.split.train);
    }

    #[test]
    fn train_graph_excludes_heldout_edges() {
        let d = DatasetSpec::cora().generate(Scale::tiny(), 1).unwrap();
        let tg = d.train_graph();
        assert_eq!(tg.num_edges(), d.split.train.len());
    }
}
