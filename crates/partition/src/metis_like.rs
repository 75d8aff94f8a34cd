//! Multilevel recursive-bisection partitioner in the spirit of METIS.
//!
//! The phases follow Karypis & Kumar's multilevel k-way scheme, specialised
//! to recursive bisection (the paper only needs p in {4, 8, 16}):
//!
//! 1. **Coarsening** — repeated heavy-edge matching contracts the graph
//!    until it is small, preserving node weights (contracted sizes) and
//!    accumulating edge weights.
//! 2. **Initial bisection** — greedy BFS region growing from a
//!    pseudo-peripheral node at the coarsest level, targeting a weight
//!    fraction.
//! 3. **Uncoarsening + refinement** — the bisection is projected back level
//!    by level, running boundary Fiduccia–Mattheyses passes (gain-ordered
//!    single-node moves with hill-climbing and a balance constraint).

use std::collections::BTreeSet;

use splpg_rng::seq::SliceRandom;
use splpg_rng::Rng;
use splpg_graph::{Graph, NodeId};

use crate::{check_part_count, Partition, PartitionError, Partitioner};

/// Tuning knobs for [`MetisLike`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MetisOptions {
    /// Stop coarsening when the graph has at most this many nodes.
    pub coarsen_threshold: usize,
    /// FM refinement passes per level.
    pub refinement_passes: usize,
    /// Allowed imbalance: a side may exceed its target weight by this
    /// multiplicative factor (1.05 = 5% slack).
    pub imbalance: f64,
}

impl Default for MetisOptions {
    fn default() -> Self {
        MetisOptions { coarsen_threshold: 64, refinement_passes: 6, imbalance: 1.05 }
    }
}

/// Multilevel recursive-bisection partitioner (METIS-like).
///
/// See the [crate documentation](crate) for the algorithm outline.
#[derive(Debug, Clone, Default)]
pub struct MetisLike {
    options: MetisOptions,
}

impl Partitioner for MetisLike {
    fn partition<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        num_parts: usize,
        rng: &mut R,
    ) -> Result<Partition, PartitionError> {
        check_part_count(graph, num_parts)?;
        let work = WorkGraph::from_graph(graph);
        let mut assignments = vec![0u32; graph.num_nodes()];
        let all: Vec<u32> = (0..graph.num_nodes() as u32).collect();
        recurse(&work, &all, 0, num_parts, &self.options, rng, &mut assignments);
        Partition::new(assignments, num_parts)
    }
}

/// Recursively bisect the node set `nodes` (ids into the original graph) into
/// parts `[first_part, first_part + parts)`.
fn recurse<R: Rng + ?Sized>(
    parent: &WorkGraph,
    nodes: &[u32],
    first_part: usize,
    parts: usize,
    options: &MetisOptions,
    rng: &mut R,
    assignments: &mut [u32],
) {
    if parts == 1 {
        for &v in nodes {
            assignments[v as usize] = first_part as u32;
        }
        return;
    }
    let left_parts = parts / 2;
    let frac = left_parts as f64 / parts as f64;
    let sub = parent.induced(nodes);
    let side = bisect(&sub, frac, options, rng);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (local, &global) in nodes.iter().enumerate() {
        if side[local] == 0 {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    recurse(parent, &left, first_part, left_parts, options, rng, assignments);
    recurse(parent, &right, first_part + left_parts, parts - left_parts, options, rng, assignments);
}

/// Internal weighted working graph (node weights from contraction, edge
/// weights accumulated).
#[derive(Debug, Clone)]
struct WorkGraph {
    adj: Vec<Vec<(u32, f64)>>,
    node_weight: Vec<f64>,
}

impl WorkGraph {
    fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut adj = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let nbrs = graph.neighbors(v);
            let row = match graph.neighbor_weights(v) {
                Some(ws) => nbrs.iter().zip(ws).map(|(&u, &w)| (u, w as f64)).collect(),
                None => nbrs.iter().map(|&u| (u, 1.0)).collect(),
            };
            adj.push(row);
        }
        WorkGraph { adj, node_weight: vec![1.0; n] }
    }

    fn len(&self) -> usize {
        self.adj.len()
    }

    fn total_weight(&self) -> f64 {
        self.node_weight.iter().sum()
    }

    /// Induced subgraph on `nodes` (global ids), relabelled 0..len.
    fn induced(&self, nodes: &[u32]) -> WorkGraph {
        let mut local_of = vec![u32::MAX; self.len()];
        for (i, &g) in nodes.iter().enumerate() {
            local_of[g as usize] = i as u32;
        }
        let mut adj = Vec::with_capacity(nodes.len());
        let mut node_weight = Vec::with_capacity(nodes.len());
        for &g in nodes {
            let row = self.adj[g as usize]
                .iter()
                .filter(|&&(u, _)| local_of[u as usize] != u32::MAX)
                .map(|&(u, w)| (local_of[u as usize], w))
                .collect();
            adj.push(row);
            node_weight.push(self.node_weight[g as usize]);
        }
        WorkGraph { adj, node_weight }
    }

    /// Heavy-edge matching contraction. Returns the coarse graph and the
    /// mapping fine node -> coarse node.
    fn coarsen<R: Rng + ?Sized>(&self, rng: &mut R) -> (WorkGraph, Vec<u32>) {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut matched = vec![u32::MAX; n];
        let mut coarse_id = vec![u32::MAX; n];
        // Fine members of each coarse node, ascending (equal for singletons).
        let mut members: Vec<(u32, u32)> = Vec::with_capacity(n);
        for &v in &order {
            if matched[v as usize] != u32::MAX {
                continue;
            }
            // Heaviest unmatched neighbor.
            let mut best: Option<(u32, f64)> = None;
            for &(u, w) in &self.adj[v as usize] {
                if u != v && matched[u as usize] == u32::MAX
                    && best.is_none_or(|(_, bw)| w > bw) {
                        best = Some((u, w));
                    }
            }
            let next = members.len() as u32;
            match best {
                Some((u, _)) => {
                    matched[v as usize] = u;
                    matched[u as usize] = v;
                    coarse_id[v as usize] = next;
                    coarse_id[u as usize] = next;
                    members.push((v.min(u), v.max(u)));
                }
                None => {
                    matched[v as usize] = v;
                    coarse_id[v as usize] = next;
                    members.push((v, v));
                }
            }
        }
        let cn = members.len();
        let mut node_weight = vec![0.0; cn];
        for v in 0..n {
            node_weight[coarse_id[v] as usize] += self.node_weight[v];
        }
        // Coarse rows through a dense accumulator: each coarse node's fine
        // members are visited in ascending order, so every `+=` sequence
        // runs in (fine node, adjacency) order, and the touched list is
        // sorted so rows come out in coarse-id order.
        let mut adj: Vec<Vec<(u32, f64)>> = Vec::with_capacity(cn);
        let mut acc = vec![0.0f64; cn];
        let mut in_row = vec![false; cn];
        let mut touched: Vec<u32> = Vec::new();
        for (cv, &(a, b)) in members.iter().enumerate() {
            let fine: &[u32] = if a == b { &[a] } else { &[a, b] };
            for &v in fine {
                for &(u, w) in &self.adj[v as usize] {
                    let cu = coarse_id[u as usize];
                    if cu as usize != cv {
                        if !in_row[cu as usize] {
                            in_row[cu as usize] = true;
                            touched.push(cu);
                        }
                        acc[cu as usize] += w;
                    }
                }
            }
            touched.sort_unstable();
            let row = touched
                .iter()
                .map(|&cu| {
                    let w = std::mem::replace(&mut acc[cu as usize], 0.0);
                    in_row[cu as usize] = false;
                    (cu, w)
                })
                .collect();
            adj.push(row);
            touched.clear();
        }
        (WorkGraph { adj, node_weight }, coarse_id)
    }
}

/// Bisects `graph` into sides 0/1 with side-0 weight targeting
/// `frac * total`. Returns the side labels.
fn bisect<R: Rng + ?Sized>(
    graph: &WorkGraph,
    frac: f64,
    options: &MetisOptions,
    rng: &mut R,
) -> Vec<u8> {
    // Multilevel: coarsen until small.
    let mut levels: Vec<(WorkGraph, Vec<u32>)> = Vec::new();
    let mut current = graph.clone();
    while current.len() > options.coarsen_threshold {
        let (coarse, mapping) = current.coarsen(rng);
        // Matching can stall on star-like graphs; stop if little progress.
        let stalled = coarse.len() as f64 > current.len() as f64 * 0.95;
        levels.push((std::mem::replace(&mut current, coarse), mapping));
        if stalled {
            break;
        }
    }
    let mut side = initial_bisection(&current, frac, rng);
    refine(&current, &mut side, frac, options);
    // Uncoarsen.
    let mut fine_side = Vec::with_capacity(graph.len());
    while let Some((fine, mapping)) = levels.pop() {
        fine_side.clear();
        fine_side.extend(mapping.iter().map(|&c| side[c as usize]));
        std::mem::swap(&mut side, &mut fine_side);
        refine(&fine, &mut side, frac, options);
    }
    side
}

/// Greedy BFS region growing from a pseudo-peripheral node.
fn initial_bisection<R: Rng + ?Sized>(graph: &WorkGraph, frac: f64, rng: &mut R) -> Vec<u8> {
    let n = graph.len();
    let total = graph.total_weight();
    let target = frac * total;
    if n == 0 {
        return Vec::new();
    }
    // Pseudo-peripheral: BFS twice.
    let start = rng.gen_range(0..n) as u32;
    let far = bfs_farthest(graph, start);
    let seed = bfs_farthest(graph, far);

    let mut side = vec![1u8; n];
    let mut weight0 = 0.0;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(seed);
    visited[seed as usize] = true;
    let mut pending: Vec<u32> = (0..n as u32).collect(); // for disconnected remainder
    pending.shuffle(rng);
    let mut pending_idx = 0usize;
    while weight0 < target {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Disconnected: seed a new component.
                let mut found = None;
                while pending_idx < pending.len() {
                    let c = pending[pending_idx];
                    pending_idx += 1;
                    if !visited[c as usize] {
                        found = Some(c);
                        break;
                    }
                }
                match found {
                    Some(c) => {
                        visited[c as usize] = true;
                        c
                    }
                    None => break,
                }
            }
        };
        side[v as usize] = 0;
        weight0 += graph.node_weight[v as usize];
        for &(u, _) in &graph.adj[v as usize] {
            if !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    side
}

fn bfs_farthest(graph: &WorkGraph, start: u32) -> u32 {
    let n = graph.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    let mut last = start;
    while let Some(v) = queue.pop_front() {
        last = v;
        for &(u, _) in &graph.adj[v as usize] {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    last
}

/// What one FM pass cost, counted rather than timed: the guard that a
/// move re-scores only the moved node's neighbours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PassWork {
    /// Tentative moves made, before the best-prefix rollback.
    moves: usize,
    /// Boundary nodes when the pass started.
    initial_boundary: usize,
    /// Calls to the gain function.
    gain_evals: usize,
}

/// A movable node inside its side's candidate set: node-weight bits first
/// (whether a move keeps the balance depends only on the weight), then
/// [`gain_key`], then the node index.
type Candidate = (u64, u64, u32);

/// Orders gains descending as `u64` keys. `-0.0` and `+0.0` share a key:
/// the selection rule compares gains with `>`, which holds them equal.
fn gain_key(g: f64) -> u64 {
    let g = if g == 0.0 { 0.0 } else { g };
    let bits = g.to_bits();
    let ascending = if bits >> 63 == 1 { !bits } else { bits | (1 << 63) };
    !ascending
}

/// The best balance-feasible candidate of one side as `(gain key, node)`:
/// the head of every node-weight class the move check admits, smallest
/// `(gain key, node)` winning.
fn best_feasible(set: &BTreeSet<Candidate>, feasible: impl Fn(f64) -> bool) -> Option<(u64, u32)> {
    let mut best: Option<(u64, u32)> = None;
    let mut from = 0u64;
    while let Some(&(weight_bits, key, v)) = set.range((from, 0, 0)..).next() {
        if feasible(f64::from_bits(weight_bits)) && best.is_none_or(|b| (key, v) < b) {
            best = Some((key, v));
        }
        from = weight_bits + 1;
    }
    best
}

/// Boundary FM refinement: repeated passes of gain-ordered single-node moves
/// with hill climbing (keep the best prefix of each pass).
///
/// Each move takes the unlocked boundary node of maximum gain whose move
/// keeps both sides within the imbalance bound, ties going to the lowest
/// index. Candidates live in one ordered set per side; a move re-scores
/// only the moved node's unlocked neighbours, so a pass costs
/// `O((boundary + moves * degree) log n)` instead of `O(moves * m)`.
fn refine(graph: &WorkGraph, side: &mut [u8], frac: f64, options: &MetisOptions) -> Vec<PassWork> {
    let n = graph.len();
    let total = graph.total_weight();
    let target0 = frac * total;
    let max0 = target0 * options.imbalance + 1e-9;
    let min0 = total - (total - target0) * options.imbalance - 1e-9;

    let mut weight0: f64 = (0..n)
        .filter(|&v| side[v] == 0)
        .map(|v| graph.node_weight[v])
        .sum();

    // gain(v) = external weight - internal weight.
    let gain = |v: usize, side: &[u8]| -> f64 {
        let mut g = 0.0;
        for &(u, w) in &graph.adj[v] {
            if side[u as usize] != side[v] {
                g += w;
            } else {
                g -= w;
            }
        }
        g
    };
    let on_boundary =
        |v: usize, side: &[u8]| graph.adj[v].iter().any(|&(u, _)| side[u as usize] != side[v]);
    let keeps_balance = |from: u8, nw: f64, w0: f64| {
        let new_w0 = if from == 0 { w0 - nw } else { w0 + nw };
        !(new_w0 > max0 || new_w0 < min0)
    };
    let candidate = |v: usize, g: f64| (graph.node_weight[v].to_bits(), gain_key(g), v as u32);

    let mut locked = vec![false; n];
    let mut gains = vec![0.0f64; n];
    let mut queued = vec![false; n];
    let mut moves: Vec<u32> = Vec::new();
    let mut sets: [BTreeSet<Candidate>; 2] = [BTreeSet::new(), BTreeSet::new()];
    let mut work = Vec::new();
    for _pass in 0..options.refinement_passes {
        locked.fill(false);
        queued.fill(false);
        moves.clear();
        sets.iter_mut().for_each(BTreeSet::clear);
        let mut pass = PassWork::default();
        for v in 0..n {
            if on_boundary(v, side) {
                pass.initial_boundary += 1;
                gains[v] = gain(v, side);
                pass.gain_evals += 1;
                sets[side[v] as usize].insert(candidate(v, gains[v]));
                queued[v] = true;
            }
        }
        let mut cumulative = 0.0;
        let mut best_prefix = 0usize;
        let mut best_gain = 0.0;
        let mut w0 = weight0;
        // Bounded number of moves per pass to keep refinement O(n log n)-ish.
        let max_moves = n.min(2 * pass.initial_boundary + 16);
        for _ in 0..max_moves {
            // Pick the best movable boundary node across both sides.
            let best = [0u8, 1]
                .into_iter()
                .filter_map(|s| best_feasible(&sets[s as usize], |nw| keeps_balance(s, nw, w0)))
                .min();
            let Some((_, v)) = best else { break };
            let v = v as usize;
            let g = gains[v];
            sets[side[v] as usize].remove(&candidate(v, g));
            queued[v] = false;
            // Apply the move tentatively.
            let nw = graph.node_weight[v];
            w0 = if side[v] == 0 { w0 - nw } else { w0 + nw };
            side[v] = 1 - side[v];
            locked[v] = true;
            moves.push(v as u32);
            cumulative += g;
            if cumulative > best_gain {
                best_gain = cumulative;
                best_prefix = moves.len();
            }
            // Only the neighbours' boundary status and gain can change.
            for &(u, _) in &graph.adj[v] {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                if queued[u] {
                    sets[side[u] as usize].remove(&candidate(u, gains[u]));
                    queued[u] = false;
                }
                if on_boundary(u, side) {
                    gains[u] = gain(u, side);
                    pass.gain_evals += 1;
                    sets[side[u] as usize].insert(candidate(u, gains[u]));
                    queued[u] = true;
                }
            }
        }
        pass.moves = moves.len();
        work.push(pass);
        // Roll back moves beyond the best prefix.
        for &v in &moves[best_prefix..] {
            let v = v as usize;
            let nw = graph.node_weight[v];
            w0 = if side[v] == 0 { w0 - nw } else { w0 + nw };
            side[v] = 1 - side[v];
        }
        weight0 = w0;
        if best_prefix == 0 {
            break; // no improving prefix: converged
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;
    use splpg_graph::GraphBuilder;

    fn rng() -> splpg_rng::rngs::StdRng {
        splpg_rng::rngs::StdRng::seed_from_u64(7)
    }

    /// Two dense clusters joined by a single bridge edge.
    fn two_cliques(k: usize) -> Graph {
        let mut b = GraphBuilder::new(2 * k);
        for i in 0..k as NodeId {
            for j in (i + 1)..k as NodeId {
                b.add_edge(i, j).unwrap();
                b.add_edge(k as NodeId + i, k as NodeId + j).unwrap();
            }
        }
        b.add_edge(0, k as NodeId).unwrap();
        b.build()
    }

    #[test]
    fn bisects_two_cliques_on_the_bridge() {
        let g = two_cliques(20);
        let p = MetisLike::default().partition(&g, 2, &mut rng()).unwrap();
        assert_eq!(p.edge_cut(&g), 1, "should cut exactly the bridge");
        assert_eq!(p.part_sizes(), vec![20, 20]);
    }

    #[test]
    fn respects_part_count_and_coverage() {
        let g = two_cliques(10);
        for parts in [2usize, 3, 4, 5] {
            let p = MetisLike::default().partition(&g, parts, &mut rng()).unwrap();
            assert_eq!(p.num_parts(), parts);
            let sizes = p.part_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 20);
            assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");
        }
    }

    #[test]
    fn path_graph_low_cut() {
        let n = 256;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (i as NodeId, (i + 1) as NodeId)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let p = MetisLike::default().partition(&g, 4, &mut rng()).unwrap();
        // Optimal cut for a path into 4 parts is 3.
        assert!(p.edge_cut(&g) <= 8, "cut {} too high", p.edge_cut(&g));
        assert!(p.balance() < 1.3, "imbalance {}", p.balance());
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(10, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]).unwrap();
        let p = MetisLike::default().partition(&g, 2, &mut rng()).unwrap();
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 10);
    }

    #[test]
    fn rejects_bad_part_counts() {
        let g = two_cliques(3);
        assert!(MetisLike::default().partition(&g, 0, &mut rng()).is_err());
        assert!(MetisLike::default().partition(&g, 100, &mut rng()).is_err());
    }

    #[test]
    fn single_part_is_identity() {
        let g = two_cliques(4);
        let p = MetisLike::default().partition(&g, 1, &mut rng()).unwrap();
        assert!(p.assignments().iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_cliques(12);
        let p1 = MetisLike::default().partition(&g, 4, &mut rng()).unwrap();
        let p2 = MetisLike::default().partition(&g, 4, &mut rng()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn fm_pass_work_is_bounded_by_moves_times_degree_not_moves_times_n() {
        // A sparse ring with chords under a striped bisection: FM makes
        // many moves per pass, and each may re-score only the moved
        // node's neighbours — where a rescan would score O(n) per move.
        let n = 2000usize;
        let mut edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)).collect();
        edges.extend((0..n).step_by(3).map(|i| (i as NodeId, ((i * 7 + 11) % n) as NodeId)));
        edges.retain(|&(u, v)| u != v);
        let g = Graph::from_edges(n, &edges).unwrap();
        let work = WorkGraph::from_graph(&g);
        let max_degree = work.adj.iter().map(Vec::len).max().unwrap();
        let mut side: Vec<u8> = (0..n).map(|v| (v / 7 % 2) as u8).collect();
        let passes = refine(&work, &mut side, 0.5, &MetisOptions::default());
        assert!(passes.iter().any(|p| p.moves > 100), "fixture must make FM work: {passes:?}");
        for p in &passes {
            assert!(
                p.gain_evals <= p.moves * max_degree + p.initial_boundary,
                "pass {p:?} exceeds moves x max degree {max_degree} + initial boundary"
            );
        }
    }

    #[test]
    fn locality_beats_random_on_community_graph() {
        // The core premise of the paper's analysis: METIS-style partitions
        // keep most edges local, random ones do not.
        let g = two_cliques(30);
        let metis = MetisLike::default().partition(&g, 2, &mut rng()).unwrap();
        let random = crate::RandomTma.partition(&g, 2, &mut rng()).unwrap();
        assert!(metis.local_edge_fraction(&g) > random.local_edge_fraction(&g));
    }
}
