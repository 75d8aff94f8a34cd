use splpg_rng::Rng;
use splpg_graph::NodeId;

use crate::{Block, GraphAccess, MiniBatch};

/// Minimum frontier nodes per sampling worker: a per-node fetch +
/// shuffle costs ~100ns, so smaller shares cannot amortize a thread
/// spawn.
const PAR_FRONTIER_THRESHOLD: usize = 512;

/// Sentinel for "node never stamped" in the dense first-touch map.
const UNSTAMPED: u64 = 0;

/// Per-batch counters of how much neighbor expansion a mini-batch build
/// performed.
///
/// `expansions` counts neighbor-list fetches, i.e. one per **distinct**
/// frontier node per hop in the cooperative build — the quantity the
/// GSplit-style shared-frontier dedup minimizes. Comparing against the
/// same counter from [`NeighborSampler::sample_per_seed_blocks`] (where
/// each seed block expands its own frontier and cross-block duplicates
/// are fetched once *per block*) measures exactly what cooperation
/// saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Neighbor-list fetches summed over hops.
    pub expansions: u64,
    /// Edges kept after fan-out subsampling, summed over hops.
    pub sampled_edges: u64,
}

/// Reusable scratch for [`NeighborSampler::sample_with`]: per-worker
/// neighbor buffers and the dense first-touch index map. Hold one per
/// thread of execution, next to its tape arena, and lend it to every
/// sampler that runs there, so steady-state sampling performs no
/// allocations beyond the output blocks themselves. Nothing it keeps is
/// read before it is written (stamps are checked against a fresh epoch),
/// so the graphs and batches it served before change no output.
#[derive(Debug, Default)]
pub struct SamplerScratch {
    /// One scratch per sampling worker; grown to the worker count in use.
    workers: Vec<WorkerScratch>,
    /// `node_pos[v]` = block-local index of global node `v`, valid only
    /// when `node_stamp[v]` equals the current epoch.
    node_pos: Vec<u32>,
    /// Epoch stamps validating `node_pos` (0 = never stamped).
    node_stamp: Vec<u64>,
    /// Monotone epoch counter; bumping it invalidates the whole map in
    /// O(1) instead of clearing `num_nodes` entries per hop.
    epoch: u64,
}

/// One worker's flattened fetch results for a hop: neighbor entries back
/// to back in `nbrs`, with `segs[i] = (start, kept)` delimiting the
/// (fan-out-subsampled prefix of the) `i`-th owned frontier node's list.
#[derive(Debug, Default)]
struct WorkerScratch {
    nbrs: Vec<(NodeId, f32)>,
    segs: Vec<(usize, usize)>,
}

impl SamplerScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new first-touch epoch sized for `num_nodes`.
    fn begin_epoch(&mut self, num_nodes: usize) -> u64 {
        if self.node_pos.len() < num_nodes {
            self.node_pos.resize(num_nodes, 0);
            self.node_stamp.resize(num_nodes, UNSTAMPED);
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Multi-layer neighbor sampler producing message-flow [`Block`]s.
///
/// `fanouts[h]` caps the neighbors drawn at hop `h + 1` from the seeds
/// (`None` = full neighborhood). The paper's GraphSAGE setting samples
/// 25/10/5 nodes from the first/second/third hop, i.e. `[Some(25),
/// Some(10), Some(5)]`; its GCN uses full neighborhoods
/// (`vec![None; 3]`, via [`NeighborSampler::full`]).
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_graph::Graph;
/// use splpg_gnn::{FullGraphAccess, NeighborSampler};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(6, &[(0,1),(1,2),(2,3),(3,4),(4,5)])?;
/// let access = FullGraphAccess::new(&g);
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
/// let sampler = NeighborSampler::full(2);
/// let batch = sampler.sample(&access, &[0], &mut rng);
/// assert_eq!(batch.blocks.len(), 2);
/// assert_eq!(batch.seeds, vec![0]);
/// batch.validate().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborSampler {
    fanouts: Vec<Option<usize>>,
}

impl NeighborSampler {
    /// Sampler with explicit per-hop fanouts (hop 1 = adjacent to seeds).
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty.
    pub fn new(fanouts: Vec<Option<usize>>) -> Self {
        assert!(!fanouts.is_empty(), "at least one layer required");
        NeighborSampler { fanouts }
    }

    /// Full-neighborhood sampler with `layers` hops.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn full(layers: usize) -> Self {
        Self::new(vec![None; layers])
    }

    /// The paper's GraphSAGE fanouts: 25, 10, 5 for hops 1, 2, 3.
    pub fn paper_sage() -> Self {
        Self::new(vec![Some(25), Some(10), Some(5)])
    }

    /// Number of layers (= blocks produced).
    pub(crate) fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// Samples a mini-batch of blocks for `seeds` using fresh scratch.
    ///
    /// Convenience wrapper over [`NeighborSampler::sample_with`]; hot
    /// loops should hold a [`SamplerScratch`] and call that instead.
    pub fn sample<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        seeds: &[NodeId],
        rng: &mut R,
    ) -> MiniBatch {
        let mut scratch = SamplerScratch::new();
        self.sample_with(access, seeds, rng, &mut scratch)
    }

    /// Samples a mini-batch of blocks for `seeds`, reusing `scratch`.
    ///
    /// Duplicate seeds are collapsed. Blocks are returned input-side
    /// first, so `batch.blocks[0].src_ids` lists the nodes whose features
    /// must be materialized.
    ///
    /// The build is cooperative in the GSplit sense: each hop expands the
    /// *globally deduplicated* frontier exactly once per distinct node,
    /// no matter how many seeds reach it. The frontier is
    /// range-partitioned over pool workers
    /// ([`splpg_par::partition_items`]); each worker fetches and
    /// fan-out-subsamples its contiguous share into its own scratch, and
    /// a single ordered reduction then merges the per-worker results by
    /// scanning frontier positions ascending — so the assembled block is
    /// a pure function of the frontier, never of the partitioning. Every
    /// frontier node shuffles with its own RNG stream keyed by
    /// `(hop seed, node id)` (see [`splpg_rng::derive_stream`]; one seed
    /// is drawn from `rng` per hop), so the sampled batch is bitwise
    /// identical at any thread count *and* to the per-seed-block
    /// reference build ([`NeighborSampler::sample_per_seed_blocks`]).
    pub fn sample_with<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        seeds: &[NodeId],
        rng: &mut R,
        scratch: &mut SamplerScratch,
    ) -> MiniBatch {
        self.sample_with_stats(access, seeds, rng, scratch).0
    }

    /// [`NeighborSampler::sample_with`] also returning expansion
    /// counters (used by the kernel bench to report cooperative-dedup
    /// savings).
    pub fn sample_with_stats<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        seeds: &[NodeId],
        rng: &mut R,
        scratch: &mut SamplerScratch,
    ) -> (MiniBatch, SampleStats) {
        let hop_seeds = self.draw_hop_seeds(rng);
        self.sample_hops(access, seeds, &hop_seeds, scratch)
    }

    /// Naive per-seed-block reference build: `num_blocks` contiguous
    /// blocks of the (deduplicated) seeds each expand their own
    /// multi-hop frontier independently, so a node reached from several
    /// blocks is expanded once *per block*. This is the redundant
    /// expansion pattern the cooperative build eliminates; it exists as
    /// the baseline for the dedup property test and the bench's
    /// expansion counters. Because RNG streams are keyed by node id (not
    /// frontier position), every block samples the same neighbors for a
    /// shared node, and the per-layer union of the returned batches'
    /// nodes and edges equals the cooperative batch's exactly.
    ///
    /// Consumes the same per-hop seed draws from `rng` as one
    /// [`NeighborSampler::sample_with`] call.
    pub fn sample_per_seed_blocks<A: GraphAccess, R: Rng + ?Sized>(
        &self,
        access: &A,
        seeds: &[NodeId],
        rng: &mut R,
        num_blocks: usize,
    ) -> (Vec<MiniBatch>, SampleStats) {
        let hop_seeds = self.draw_hop_seeds(rng);
        let mut scratch = SamplerScratch::new();
        let unique = dedup_seeds(seeds, &mut scratch, access.num_nodes());
        let ranges = splpg_par::partition_items(unique.len(), num_blocks.max(1));
        let mut batches = Vec::with_capacity(ranges.len());
        let mut stats = SampleStats::default();
        for r in ranges {
            let (batch, s) = self.sample_hops(access, &unique[r], &hop_seeds, &mut scratch);
            stats.expansions += s.expansions;
            stats.sampled_edges += s.sampled_edges;
            batches.push(batch);
        }
        (batches, stats)
    }

    /// One `u64` per layer, drawn unconditionally so every build path
    /// (cooperative, per-seed-block or layer by layer) advances `rng`
    /// identically.
    pub(crate) fn draw_hop_seeds<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        self.fanouts.iter().map(|_| rng.gen()).collect()
    }

    /// The cooperative multi-hop build over pre-drawn per-hop seeds.
    pub(crate) fn sample_hops<A: GraphAccess>(
        &self,
        access: &A,
        seeds: &[NodeId],
        hop_seeds: &[u64],
        scratch: &mut SamplerScratch,
    ) -> (MiniBatch, SampleStats) {
        let unique_seeds = dedup_seeds(seeds, scratch, access.num_nodes());
        let mut stats = SampleStats::default();

        // Build from the output side (hop 1) towards the input. Each
        // hop's frontier is the previous block's `src_ids`, borrowed in
        // place and expanded exactly once per distinct node.
        let mut blocks_rev: Vec<Block> = Vec::with_capacity(self.fanouts.len());
        for (&fanout, &hop_seed) in self.fanouts.iter().zip(hop_seeds) {
            let frontier: &[NodeId] = match blocks_rev.last() {
                Some(prev) => &prev.src_ids,
                None => &unique_seeds,
            };
            let block = expand(access, frontier, fanout, hop_seed, scratch, &mut stats);
            blocks_rev.push(block);
        }
        blocks_rev.reverse();
        (MiniBatch { blocks: blocks_rev, seeds: unique_seeds }, stats)
    }

    /// The block of layer `layer` (0 = input side) for the distinct
    /// destinations `dsts` alone: the same one-hop expansion the
    /// cooperative build runs for that layer under `hop_seeds`, so each
    /// destination keeps exactly the in-edges, in the same order, that it
    /// has in the batch [`NeighborSampler::sample_hops`] builds over any
    /// seed set reaching it at that layer.
    pub(crate) fn sample_layer_with<A: GraphAccess>(
        &self,
        access: &A,
        dsts: &[NodeId],
        layer: usize,
        hop_seeds: &[u64],
        scratch: &mut SamplerScratch,
    ) -> Block {
        let hop = self.fanouts.len() - 1 - layer;
        let mut stats = SampleStats::default();
        expand(access, dsts, self.fanouts[hop], hop_seeds[hop], scratch, &mut stats)
    }
}

/// One hop of the cooperative build: the block whose destination prefix is
/// the distinct nodes of `frontier`, each with its (fan-out-subsampled)
/// neighbor list in fetch order.
fn expand<A: GraphAccess>(
    access: &A,
    frontier: &[NodeId],
    fanout: Option<usize>,
    hop_seed: u64,
    scratch: &mut SamplerScratch,
    stats: &mut SampleStats,
) -> Block {
    let num_dst = frontier.len();
    stats.expansions += num_dst as u64;

    // Phase 1 — fetch + subsample, range-partitioned across workers.
    // Chunk boundaries decide only which worker fetches a node; its
    // sampled list is keyed by `(hop_seed, node)`.
    let parts = (num_dst / PAR_FRONTIER_THRESHOLD).clamp(1, splpg_par::effective_threads());
    let ranges = splpg_par::partition_items(num_dst, parts);
    if scratch.workers.len() < ranges.len() {
        scratch.workers.resize_with(ranges.len(), WorkerScratch::default);
    }
    let fetch = |w0: usize, workers: &mut [WorkerScratch]| {
        for (i, ws) in workers.iter_mut().enumerate() {
            ws.nbrs.clear();
            ws.segs.clear();
            for &v in &frontier[ranges[w0 + i].clone()] {
                let start = ws.nbrs.len();
                access.neighbors_into(v, &mut ws.nbrs);
                let len = ws.nbrs.len() - start;
                let mut kept = len;
                if let Some(k) = fanout {
                    if len > k {
                        let mut r = splpg_rng::derive_stream(hop_seed, u64::from(v));
                        partial_shuffle(&mut ws.nbrs[start..start + len], k, &mut r);
                        ws.nbrs.truncate(start + k);
                        kept = k;
                    }
                }
                ws.segs.push((start, kept));
            }
        }
    };
    {
        let live = &mut scratch.workers[..ranges.len()];
        if ranges.len() > 1 {
            splpg_par::Pool::new(ranges.len()).parallel_for_mut(live, 1, 1, fetch);
        } else {
            fetch(0, live);
        }
    }

    // Phase 2 — ordered reduction: scan workers (= frontier ranges) in
    // partition order, indexing discoveries first-touch into the block.
    // The scan order equals a sequential pass over the whole frontier, so
    // the result is independent of `parts`.
    let total: usize = scratch.workers[..ranges.len()]
        .iter()
        .map(|ws| ws.segs.iter().map(|&(_, kept)| kept).sum::<usize>())
        .sum();
    stats.sampled_edges += total as u64;
    let mut src_ids = Vec::with_capacity(num_dst + total);
    src_ids.extend_from_slice(frontier);
    let mut edge_src = Vec::with_capacity(total);
    let mut edge_dst = Vec::with_capacity(total);
    let mut edge_weight = Vec::with_capacity(total);
    let epoch = scratch.begin_epoch(access.num_nodes());
    // Split-borrow the scratch fields: the dense map is written while the
    // worker buffers are only read.
    let SamplerScratch { workers, node_pos, node_stamp, .. } = &mut *scratch;
    for (i, &v) in frontier.iter().enumerate() {
        node_stamp[v as usize] = epoch;
        node_pos[v as usize] =
            u32::try_from(i).expect("invariant: frontier size fits u32 (node ids are u32)");
    }
    let mut dst_idx = 0u32;
    for ws in &workers[..ranges.len()] {
        for &(start, kept) in &ws.segs {
            for &(nbr, weight) in &ws.nbrs[start..start + kept] {
                let at = nbr as usize;
                let src_idx = if node_stamp[at] == epoch {
                    node_pos[at]
                } else {
                    let idx = u32::try_from(src_ids.len())
                        .expect("invariant: batch node count fits u32 (node ids are u32)");
                    node_stamp[at] = epoch;
                    node_pos[at] = idx;
                    src_ids.push(nbr);
                    idx
                };
                edge_src.push(src_idx);
                edge_dst.push(dst_idx);
                edge_weight.push(weight);
            }
            dst_idx += 1;
        }
    }
    debug_assert_eq!(dst_idx as usize, num_dst);
    let src_degree = src_ids.iter().map(|&v| access.degree(v) as f32).collect();
    Block { src_ids, num_dst, edge_src, edge_dst, edge_weight, src_degree }
}

/// First-occurrence deduplication of `seeds` via the scratch epoch map.
fn dedup_seeds(seeds: &[NodeId], scratch: &mut SamplerScratch, num_nodes: usize) -> Vec<NodeId> {
    let epoch = scratch.begin_epoch(num_nodes);
    let mut unique = Vec::with_capacity(seeds.len());
    for &s in seeds {
        let at = s as usize;
        if scratch.node_stamp[at] != epoch {
            scratch.node_stamp[at] = epoch;
            scratch.node_pos[at] = u32::try_from(unique.len())
                .expect("invariant: unique seed count fits u32 (node ids are u32)");
            unique.push(s);
        }
    }
    unique
}

/// Fisher–Yates over the first `k` positions only: they end up holding a
/// uniform `k`-subset in uniform order, exactly as a full shuffle
/// followed by `truncate(k)` would, at `O(k)` draws instead of `O(n)`.
fn partial_shuffle<T, R: Rng + ?Sized>(items: &mut [T], k: usize, rng: &mut R) {
    let n = items.len();
    for i in 0..k.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullGraphAccess;
    use splpg_rng::SeedableRng;
    use splpg_graph::Graph;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(0)
    }

    fn star_plus_path() -> Graph {
        // Node 0 is a hub over 1..=10; path 10-11-12.
        let mut edges: Vec<(NodeId, NodeId)> = (1..=10).map(|i| (0, i)).collect();
        edges.push((10, 11));
        edges.push((11, 12));
        Graph::from_edges(13, &edges).unwrap()
    }

    #[test]
    fn full_sampler_covers_khop() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::full(2).sample(&a, &[12], &mut rng());
        batch.validate().unwrap();
        // 2 hops from 12: {12, 11, 10}.
        let mut input: Vec<NodeId> = batch.input_nodes().to_vec();
        input.sort_unstable();
        assert_eq!(input, vec![10, 11, 12]);
    }

    #[test]
    fn fanout_caps_neighbors() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::new(vec![Some(3)]).sample(&a, &[0], &mut rng());
        batch.validate().unwrap();
        assert_eq!(batch.blocks[0].num_edges(), 3);
    }

    #[test]
    fn duplicate_seeds_collapse() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::full(1).sample(&a, &[5, 5, 0, 5], &mut rng());
        assert_eq!(batch.seeds, vec![5, 0]);
        batch.validate().unwrap();
    }

    #[test]
    fn blocks_chain_correctly() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::full(3).sample(&a, &[12, 0], &mut rng());
        batch.validate().unwrap();
        assert_eq!(batch.blocks.len(), 3);
        // The last block's dst prefix is the seeds.
        assert_eq!(batch.blocks[2].dst_ids(), &[12, 0]);
    }

    #[test]
    fn isolated_seed_yields_empty_edges() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::full(2).sample(&a, &[2], &mut rng());
        batch.validate().unwrap();
        assert!(batch.blocks.iter().all(|b| b.num_edges() == 0));
        assert_eq!(batch.input_nodes(), &[2]);
    }

    #[test]
    fn degrees_recorded_for_all_srcs() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let batch = NeighborSampler::full(1).sample(&a, &[11], &mut rng());
        let b = &batch.blocks[0];
        for (i, &v) in b.src_ids.iter().enumerate() {
            assert_eq!(b.src_degree[i], g.degree(v) as f32);
        }
    }

    #[test]
    fn paper_sage_shape() {
        let s = NeighborSampler::paper_sage();
        assert_eq!(s.num_layers(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_fanouts_panic() {
        let _ = NeighborSampler::new(vec![]);
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let sampler = NeighborSampler::new(vec![Some(4), Some(2)]);
        let mut scratch = SamplerScratch::new();
        for seed in 0..8u64 {
            let mut r1 = splpg_rng::rngs::StdRng::seed_from_u64(seed);
            let mut r2 = splpg_rng::rngs::StdRng::seed_from_u64(seed);
            let fresh = sampler.sample(&a, &[0, 12, 5], &mut r1);
            let reused = sampler.sample_with(&a, &[0, 12, 5], &mut r2, &mut scratch);
            assert_eq!(fresh.seeds, reused.seeds);
            for (bf, br) in fresh.blocks.iter().zip(&reused.blocks) {
                assert_eq!(bf.src_ids, br.src_ids);
                assert_eq!(bf.edge_src, br.edge_src);
                assert_eq!(bf.edge_dst, br.edge_dst);
                assert_eq!(bf.edge_weight, br.edge_weight);
            }
        }
    }

    #[test]
    fn batches_identical_across_thread_counts() {
        // 600 hub nodes each with 8 spokes: frontier crosses the
        // parallel threshold at hop 1.
        let hubs = 600u32;
        let spokes = 8u32;
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for h in 0..hubs {
            for s in 0..spokes {
                edges.push((h, hubs + h * spokes + s));
            }
        }
        let g = Graph::from_edges((hubs + hubs * spokes) as usize, &edges).unwrap();
        let seeds: Vec<NodeId> = (0..hubs).collect();
        let sampler = NeighborSampler::new(vec![Some(3)]);
        let run = |threads: usize| {
            splpg_par::set_num_threads(threads);
            let a = FullGraphAccess::new(&g);
            let mut r = splpg_rng::rngs::StdRng::seed_from_u64(42);
            let batch = sampler.sample(&a, &seeds, &mut r);
            splpg_par::set_num_threads(0);
            batch
        };
        let single = run(1);
        let eight = run(8);
        assert_eq!(single.seeds, eight.seeds);
        for (b1, b8) in single.blocks.iter().zip(&eight.blocks) {
            assert_eq!(b1.src_ids, b8.src_ids);
            assert_eq!(b1.edge_src, b8.edge_src);
            assert_eq!(b1.edge_dst, b8.edge_dst);
            assert_eq!(b1.edge_weight, b8.edge_weight);
        }
    }

    /// Canonical per-layer view of one or more batches for set
    /// comparison: sorted distinct global node ids plus sorted global-id
    /// edge triples (src, dst, exact weight bits).
    type CanonLayer = (Vec<NodeId>, Vec<(NodeId, NodeId, u32)>);

    fn canonical_layers(batches: &[&MiniBatch]) -> Vec<CanonLayer> {
        let layers = batches[0].blocks.len();
        let mut out = Vec::with_capacity(layers);
        for l in 0..layers {
            let mut nodes: Vec<NodeId> = Vec::new();
            let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
            for b in batches {
                let blk = &b.blocks[l];
                nodes.extend_from_slice(&blk.src_ids);
                for e in 0..blk.num_edges() {
                    edges.push((
                        blk.src_ids[blk.edge_src[e] as usize],
                        blk.src_ids[blk.edge_dst[e] as usize],
                        blk.edge_weight[e].to_bits(),
                    ));
                }
            }
            nodes.sort_unstable();
            nodes.dedup();
            edges.sort_unstable();
            edges.dedup();
            out.push((nodes, edges));
        }
        out
    }

    /// Community graph where seeds share many 2-hop neighbors, so the
    /// per-seed-block build performs redundant expansions the
    /// cooperative build provably avoids.
    fn community_graph() -> (Graph, Vec<NodeId>) {
        // 40 communities of 30 members; members link to two of their
        // community's 5 ring-connected cores, cores link across
        // communities in a global cycle.
        let comms = 40u32;
        let cores = 5u32;
        let members = 30u32;
        let n = comms * (cores + members);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for c in 0..comms {
            let base = c * (cores + members);
            for k in 0..cores {
                edges.push((base + k, base + (k + 1) % cores));
            }
            for m in 0..members {
                let v = base + cores + m;
                edges.push((v, base + m % cores));
                edges.push((v, base + (m + 1) % cores));
            }
            let next = ((c + 1) % comms) * (cores + members);
            edges.push((base, next));
        }
        let g = Graph::from_edges(n as usize, &edges).unwrap();
        // Interleave communities in the seed order so every contiguous
        // seed block spans all of them — the naive per-block build then
        // re-expands each community's cores once per block.
        let seeds: Vec<NodeId> = (0..members)
            .flat_map(|m| (0..comms).map(move |c| c * (cores + members) + cores + m))
            .collect();
        (g, seeds)
    }

    #[test]
    fn cooperative_build_matches_naive_per_seed_blocks() {
        let (g, seeds) = community_graph();
        let a = FullGraphAccess::new(&g);
        let sampler = NeighborSampler::new(vec![Some(2), Some(3)]);
        let run_coop = |threads: usize| {
            splpg_par::set_num_threads(threads);
            let mut r = splpg_rng::rngs::StdRng::seed_from_u64(7);
            let mut scratch = SamplerScratch::new();
            let out = sampler.sample_with_stats(&a, &seeds, &mut r, &mut scratch);
            splpg_par::set_num_threads(0);
            out
        };
        let (coop1, stats1) = run_coop(1);
        let (coop4, stats4) = run_coop(4);
        // Bitwise identical cooperative batches at 1 vs 4 threads.
        assert_eq!(stats1, stats4);
        assert_eq!(coop1.seeds, coop4.seeds);
        for (b1, b4) in coop1.blocks.iter().zip(&coop4.blocks) {
            assert_eq!(b1.src_ids, b4.src_ids);
            assert_eq!(b1.num_dst, b4.num_dst);
            assert_eq!(b1.edge_src, b4.edge_src);
            assert_eq!(b1.edge_dst, b4.edge_dst);
            assert_eq!(
                b1.edge_weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                b4.edge_weight.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                b1.src_degree.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                b4.src_degree.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
        }
        coop1.validate().unwrap();
        // Same hop_seed draws → naive per-seed-block union must equal
        // the cooperative batch as per-layer node/edge sets.
        let mut r = splpg_rng::rngs::StdRng::seed_from_u64(7);
        let (naive, naive_stats) = sampler.sample_per_seed_blocks(&a, &seeds, &mut r, 8);
        assert_eq!(naive.len(), 8);
        for nb in &naive {
            nb.validate().unwrap();
        }
        let naive_refs: Vec<&MiniBatch> = naive.iter().collect();
        assert_eq!(canonical_layers(&[&coop1]), canonical_layers(&naive_refs));
        // Cooperation strictly reduces expansions on this graph.
        assert!(
            stats1.expansions < naive_stats.expansions,
            "cooperative {} !< naive {}",
            stats1.expansions,
            naive_stats.expansions
        );
    }

    #[test]
    fn per_seed_block_count_clamps_to_seeds() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let sampler = NeighborSampler::full(1);
        let (batches, _) = sampler.sample_per_seed_blocks(&a, &[0, 12], &mut rng(), 16);
        assert_eq!(batches.len(), 2);
        let (none, stats) = sampler.sample_per_seed_blocks(&a, &[], &mut rng(), 4);
        assert!(none.is_empty());
        assert_eq!(stats, SampleStats::default());
    }

    #[test]
    fn stats_count_distinct_frontier_expansions() {
        let g = star_plus_path();
        let a = FullGraphAccess::new(&g);
        let mut scratch = SamplerScratch::new();
        // Seeds {1, 2} both neighbor only the hub 0: hop 1 expands the 2
        // seeds, hop 2 expands {1, 2, 0} = 3 distinct nodes.
        let (batch, stats) = NeighborSampler::full(2)
            .sample_with_stats(&a, &[1, 2], &mut rng(), &mut scratch);
        batch.validate().unwrap();
        assert_eq!(stats.expansions, 2 + 3);
        let edges: usize = batch.blocks.iter().map(Block::num_edges).sum();
        assert_eq!(stats.sampled_edges, edges as u64);
    }

    #[test]
    fn partial_shuffle_matches_prefix_distribution() {
        // Every element must be reachable into the prefix.
        let mut seen = [false; 10];
        for trial in 0..200 {
            let mut v: Vec<usize> = (0..10).collect();
            let mut r = splpg_rng::rngs::StdRng::seed_from_u64(trial);
            partial_shuffle(&mut v, 3, &mut r);
            for &x in &v[..3] {
                seen[x] = true;
            }
            // Prefix stays duplicate-free.
            let mut p = v[..3].to_vec();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), 3);
        }
        assert!(seen.iter().all(|&b| b), "all elements reachable in prefix");
    }
}
