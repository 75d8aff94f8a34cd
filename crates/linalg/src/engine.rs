//! Preconditioned multi-RHS Laplacian solver engine.
//!
//! The exact effective-resistance path used to be the workspace's
//! slowest kernel: one unpreconditioned CG solve *per edge*, each
//! allocating fresh vectors on every matvec. This module replaces it
//! with an engine built around three ideas:
//!
//! 1. **Jacobi-preconditioned CG with reusable workspaces.** The
//!    weighted degrees the [`LaplacianOperator`] already materializes
//!    *are* the Jacobi preconditioner; a [`CgWorkspace`] owns every
//!    vector the iteration touches, so steady-state solves perform zero
//!    heap allocations (the workspace counts its growth events, and
//!    `tests/it_solver.rs::engine_beats_the_per_edge_baseline_on_a_community_graph`
//!    asserts the count stays at zero after warm-up).
//! 2. **Blocked multi-RHS CG.** `k` right-hand sides advance through
//!    *shared* matvec sweeps
//!    ([`LaplacianOperator::apply_block_into`]): one pass over the CSR
//!    adjacency updates all `k` vectors, with per-column step sizes and
//!    convergence. A converged column is written out and compacted
//!    away, so every later pass runs over a dense block of the columns
//!    still iterating, with no per-column branch. The sweep fans out
//!    over the `splpg-par` pool under the same deterministic
//!    contiguous-range partitioning and scalar-fallback rules as
//!    `splpg-tensor`'s kernels, so results are bit-identical at every
//!    thread count.
//! 3. **Per-node solve reuse.** For a batch of edges, the engine solves
//!    for the pseudo-inverse potential vector of each *distinct
//!    endpoint* (`<= n` solves) instead of one solve per edge (`m`
//!    solves), recovering every resistance exactly as
//!    `R(u,v) = x_u[u] - x_u[v] - x_v[u] + x_v[v]` — the four-term
//!    expansion of Eq. (3)'s quadratic form, in which the solver's
//!    per-component constant offsets cancel identically.
//!
//! The engine also generalizes every solve to **disconnected** graphs
//! by projecting per connected component (the Laplacian's null space is
//! spanned by the component indicator vectors): resistances are defined
//! for any same-component pair, which is exactly what the distributed
//! setup path needs — partition-local subgraphs keep all `n` global
//! node ids and are never connected.
//!
//! Every solve runs on the **support** only: the nodes with at least one
//! edge, relabelled in increasing order. A partition-local graph leaves
//! most global ids isolated, and an isolated node's entry of every PCG
//! vector is exactly `+0.0` after the first projection, so carrying it
//! only costs time. The relabelling is monotone, so per-component sums
//! and CSR neighbour order are unchanged, and a running sum that starts
//! at `+0.0` never turns into `-0.0` under round-to-nearest, which makes
//! adding the skipped zero terms the identity: support solves are
//! bit-identical to full-width ones. Isolated nodes read back as `0.0`
//! at the API boundary.

use std::borrow::Cow;

use splpg_graph::{connected_components, Graph, GraphBuilder, NodeId};
use splpg_par::Pool;

use crate::laplacian::LaplacianOperator;
use crate::{CgOptions, LinalgError};

/// Tuning knobs for [`SolverEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Tolerance / iteration cap shared by every solve.
    pub cg: CgOptions,
    /// Right-hand sides advanced per shared matvec sweep.
    pub block_width: usize,
    /// Estimated flops per sweep below which the matvec stays scalar
    /// (same convention as `splpg-tensor::kernels::PAR_FLOP_THRESHOLD`).
    pub par_flop_threshold: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { cg: CgOptions::default(), block_width: 16, par_flop_threshold: 2_000_000 }
    }
}

impl EngineOptions {
    /// Options with a specific CG tolerance/cap and defaults elsewhere.
    pub fn with_cg(cg: CgOptions) -> Self {
        EngineOptions { cg, ..EngineOptions::default() }
    }
}

/// Cumulative counters for everything a [`SolverEngine`] has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Right-hand-side columns solved.
    pub solves: u64,
    /// Per-column CG iterations, summed.
    pub iterations: u64,
    /// Matvec work: active columns times support rows (nodes with an
    /// edge), summed over every sweep (the `iterations x n` quantity the
    /// bench gates on).
    pub matvec_rows: u64,
    /// Solves seeded from a previous solution (shared-endpoint groups).
    pub warm_start_hits: u64,
    /// Estimated iterations saved by warm starting: for each group the
    /// cold first solve's count minus each warm solve's count (clamped
    /// at zero per solve).
    pub warm_start_saved_iterations: u64,
    /// Workspace buffer growth events. Zero once warmed up — the
    /// steady-state-allocation gate in
    /// `tests/it_solver.rs::engine_beats_the_per_edge_baseline_on_a_community_graph`.
    pub workspace_allocs: u64,
}

impl SolveStats {
    /// Accumulates `other` into `self` (used when per-group stats from a
    /// parallel batch are merged in deterministic group order).
    pub(crate) fn merge(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.matvec_rows += other.matvec_rows;
        self.warm_start_hits += other.warm_start_hits;
        self.warm_start_saved_iterations += other.warm_start_saved_iterations;
        self.workspace_allocs += other.workspace_allocs;
    }
}

/// Reusable solver storage: every vector the PCG iteration touches,
/// plus the index scratch of the per-node-reuse path. Buffers grow
/// monotonically and are recycled across solves; growth events are
/// counted so benches can prove the steady state allocation-free.
#[derive(Debug, Default)]
pub(crate) struct CgWorkspace {
    x: Vec<f64>,
    /// The right-hand-side block; once the first residual is formed it
    /// is dead, and collects the solution in the caller's `n x k` layout
    /// as columns converge (it swaps into `x` at the end).
    b: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    comp_sums: Vec<f64>,
    bnorm: Vec<f64>,
    rz: Vec<f64>,
    rz_next: Vec<f64>,
    pap: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    rr: Vec<f64>,
    /// Per slot of the compacted block: still iterating.
    active: Vec<bool>,
    /// Per slot of the compacted block: the caller's column.
    cols: Vec<usize>,
    col_iters: Vec<usize>,
    distinct: Vec<NodeId>,
    partner_offsets: Vec<usize>,
    partners: Vec<NodeId>,
    entries: Vec<f64>,
    incidence: Vec<(NodeId, NodeId)>,
    grow_events: u64,
}

/// Grows `buf` to `len` zeroed entries, counting a reallocation event
/// when the capacity was insufficient.
fn grow_f64(buf: &mut Vec<f64>, len: usize, events: &mut u64) {
    if len > buf.capacity() {
        *events += 1;
    }
    buf.clear();
    buf.resize(len, 0.0);
}

fn grow_with<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T, events: &mut u64) {
    if len > buf.capacity() {
        *events += 1;
    }
    buf.clear();
    buf.resize(len, fill);
}

impl CgWorkspace {
    /// A fresh, empty workspace.
    pub(crate) fn new() -> Self {
        CgWorkspace::default()
    }

    /// Buffer growth events so far (zero after warm-up is the
    /// steady-state guarantee).
    pub(crate) fn alloc_events(&self) -> u64 {
        self.grow_events
    }

    /// Sizes every PCG buffer for an `n`-dimensional solve of `k`
    /// columns over `nc` components. `preserve_x` keeps the current
    /// solution block (warm start) when its length already matches.
    fn prepare(&mut self, n: usize, k: usize, nc: usize, preserve_x: bool) {
        let ev = &mut self.grow_events;
        if !(preserve_x && self.x.len() == n * k) {
            grow_f64(&mut self.x, n * k, ev);
        }
        grow_f64(&mut self.b, n * k, ev);
        grow_f64(&mut self.r, n * k, ev);
        grow_f64(&mut self.z, n * k, ev);
        grow_f64(&mut self.p, n * k, ev);
        grow_f64(&mut self.ap, n * k, ev);
        grow_f64(&mut self.comp_sums, nc * k, ev);
        grow_f64(&mut self.bnorm, k, ev);
        grow_f64(&mut self.rz, k, ev);
        grow_f64(&mut self.rz_next, k, ev);
        grow_f64(&mut self.pap, k, ev);
        grow_f64(&mut self.alpha, k, ev);
        grow_f64(&mut self.beta, k, ev);
        grow_f64(&mut self.rr, k, ev);
        grow_with(&mut self.active, k, true, ev);
        grow_with(&mut self.cols, k, 0usize, ev);
        grow_with(&mut self.col_iters, k, 0usize, ev);
    }
}

/// Support index of a node without edges.
pub(crate) const ISOLATED: u32 = u32::MAX;

/// Immutable solve context: operator, preconditioner, and component
/// structure on the graph's support, shared by every solve against one
/// graph (and across threads by the grouped batch path).
pub(crate) struct SolverContext<'g> {
    /// The Laplacian of the support graph: `graph` itself when no node is
    /// isolated, else its nodes with an edge, relabelled in increasing
    /// order.
    op: LaplacianOperator<'g>,
    /// Support index of every node of the input graph ([`ISOLATED`] for
    /// nodes without edges).
    local_of: Vec<u32>,
    /// Jacobi preconditioner `D^{-1}` on the support.
    inv_diag: Vec<f64>,
    /// Connected-component label per support node.
    comp_of: Vec<usize>,
    /// Support nodes per component, as `f64` divisors for the projection.
    comp_sizes: Vec<f64>,
    options: EngineOptions,
}

impl<'g> SolverContext<'g> {
    pub(crate) fn new(graph: &'g Graph, options: EngineOptions) -> Self {
        let n = graph.num_nodes();
        let mut local_of = vec![ISOLATED; n];
        let mut support = 0u32;
        for v in graph.node_ids() {
            if graph.degree(v) > 0 {
                local_of[v as usize] = support;
                support += 1;
            }
        }
        let support_graph = if support as usize == n {
            Cow::Borrowed(graph)
        } else {
            let mut b = GraphBuilder::new(support as usize);
            for v in graph.node_ids() {
                let lv = local_of[v as usize];
                let weights = graph.neighbor_weights(v);
                for (i, &u) in graph.neighbors(v).iter().enumerate() {
                    if u > v {
                        let lu = local_of[u as usize];
                        match weights {
                            Some(ws) => b.add_weighted_edge(lv, lu, ws[i]),
                            None => b.add_edge(lv, lu),
                        }
                        .expect("invariant: support ids of a valid graph's edge");
                    }
                }
            }
            Cow::Owned(b.build())
        };
        let op = LaplacianOperator::from_cow(support_graph);
        let inv_diag =
            op.degrees().iter().map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 }).collect();
        let (comp_of, num_comps) = connected_components(op.graph());
        let mut comp_sizes = vec![0.0f64; num_comps];
        for &c in &comp_of {
            comp_sizes[c] += 1.0;
        }
        SolverContext { op, local_of, inv_diag, comp_of, comp_sizes, options }
    }

    /// Solve dimension: the number of support nodes.
    fn dim(&self) -> usize {
        self.op.dim()
    }

    /// Connected components of the input graph: the support's plus one
    /// per isolated node.
    fn num_components(&self) -> usize {
        self.comp_sizes.len() + self.local_of.len() - self.dim()
    }

    /// Support index of a node that has an edge.
    fn local(&self, v: NodeId) -> usize {
        self.local_of[v as usize] as usize
    }

    /// Same-component check for a resistance query; `u == v` pairs are
    /// exempt (resistance zero without a solve). An isolated node is its
    /// own component.
    pub(crate) fn check_pair(&self, u: NodeId, v: NodeId) -> Result<(), LinalgError> {
        let n = self.local_of.len();
        if (u as usize) >= n || (v as usize) >= n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: u.max(v) as usize + 1,
            });
        }
        if u == v {
            return Ok(());
        }
        let (lu, lv) = (self.local_of[u as usize], self.local_of[v as usize]);
        let same_component = || self.comp_of[lu as usize] == self.comp_of[lv as usize];
        if lu == ISOLATED || lv == ISOLATED || !same_component() {
            return Err(LinalgError::Disconnected);
        }
        Ok(())
    }

    /// Projects each column of the `k`-wide block `buf` onto the
    /// complement of the Laplacian null space: subtracts the
    /// per-component mean within every component. For a connected graph
    /// this is plain mean removal; per-component it keeps disconnected
    /// solves consistent (`L x = b` is solvable iff `b` sums to zero on
    /// each component).
    fn project_block(&self, buf: &mut [f64], sums: &mut [f64], k: usize) {
        let nc = self.comp_sizes.len();
        let sums = &mut sums[..nc * k];
        let rows = buf[..self.dim() * k].chunks_exact_mut(k);
        sums.fill(0.0);
        for (row, &c) in rows.zip(&self.comp_of) {
            for (s, &x) in sums[c * k..(c + 1) * k].iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
        for (sc, &size) in sums.chunks_exact_mut(k).zip(&self.comp_sizes) {
            for s in sc {
                *s /= size;
            }
        }
        let rows = buf[..self.dim() * k].chunks_exact_mut(k);
        for (row, &c) in rows.zip(&self.comp_of) {
            for (x, &s) in row.iter_mut().zip(&sums[c * k..(c + 1) * k]) {
                *x -= s;
            }
        }
    }

    /// The pool the shared matvec sweep runs on: the global pool when
    /// the sweep carries enough flops *and* fan-out can actually run
    /// concurrently, else an inline single-thread pool. The kernel is
    /// bit-identical either way, so this gate affects time only.
    fn matvec_pool(&self, k_active: usize) -> Pool {
        let sweep_flops = k_active * (4 * self.op.graph().num_edges() + 2 * self.dim());
        if sweep_flops >= self.options.par_flop_threshold && splpg_par::effective_threads() > 1 {
            splpg_par::global()
        } else {
            Pool::new(1)
        }
    }

    /// Jacobi-preconditioned CG over the `k`-column block held in
    /// `ws.b`, starting from `ws.x` (zeroed unless warm-started); the
    /// solution block replaces `ws.x`. Per-column iteration counts land
    /// in `ws.col_iters`.
    ///
    /// The iteration runs on a compacted block: its `ka` slots hold the
    /// columns still iterating, in ascending column order, node-major at
    /// stride `ka`. When a column converges its solution is copied out to
    /// its column of `ws.b` (dead after the first residual) and the block
    /// closes up, so every pass is a dense loop over `ka` slots. Each column's operation sequence is that of a
    /// masked `k`-wide block: no pass mixes columns, and dropping a slot
    /// only moves values.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Breakdown`] when a search direction loses
    ///   positive curvature (`p·Ap <= 0`);
    /// * [`LinalgError::NoConvergence`] when the iteration cap is
    ///   reached with any column above tolerance.
    fn pcg_block(
        &self,
        ws: &mut CgWorkspace,
        k: usize,
        warm: bool,
        stats: &mut SolveStats,
    ) -> Result<(), LinalgError> {
        let n = self.dim();
        let CgOptions { tolerance, max_iterations } = self.options.cg;
        let CgWorkspace {
            x,
            b,
            r,
            z,
            p,
            ap,
            comp_sums,
            bnorm,
            rz,
            rz_next,
            pap,
            alpha,
            beta,
            rr,
            active,
            cols,
            col_iters,
            ..
        } = ws;
        active[..k].fill(true);
        for (c, col) in cols[..k].iter_mut().enumerate() {
            *col = c;
        }
        col_iters[..k].fill(0);

        self.project_block(b, comp_sums, k);
        col_dots(b, b, n, k, bnorm);
        for bj in bnorm[..k].iter_mut() {
            *bj = bj.sqrt().max(f64::MIN_POSITIVE);
        }
        if warm {
            self.project_block(x, comp_sums, k);
            self.op
                .apply_block_into(&x[..n * k], k, &mut ap[..n * k], &self.matvec_pool(k))
                .expect("invariant: workspace buffers sized n*k above");
            stats.matvec_rows += (n * k) as u64;
            for ((ri, &bi), &ai) in r[..n * k].iter_mut().zip(&b[..n * k]).zip(&ap[..n * k]) {
                *ri = bi - ai;
            }
        } else {
            r[..n * k].copy_from_slice(&b[..n * k]);
        }
        self.project_block(r, comp_sums, k);
        self.precondition(r, z, k);
        self.project_block(z, comp_sums, k);
        p[..n * k].copy_from_slice(&z[..n * k]);
        col_dots(r, z, n, k, rz);

        let mut ka = k;
        for _ in 0..=max_iterations {
            // Retire converged columns, then sweep only the rest.
            col_dots(r, r, n, ka, rr);
            for c in 0..ka {
                if rr[c].sqrt() <= tolerance * bnorm[c] {
                    active[c] = false;
                }
            }
            if active[..ka].contains(&false) {
                ka = retire_columns(n, ka, k, active, cols, x, b, [r, z, p], [bnorm, rz]);
            }
            if ka == 0 {
                std::mem::swap(x, b);
                return Ok(());
            }
            if cols[..ka].iter().any(|&j| col_iters[j] >= max_iterations) {
                break;
            }
            let m = n * ka;
            self.op
                .apply_block_into(&p[..m], ka, &mut ap[..m], &self.matvec_pool(ka))
                .expect("invariant: workspace buffers sized n*k above");
            stats.matvec_rows += m as u64;
            col_dots(p, ap, n, ka, pap);
            for c in 0..ka {
                if pap[c] <= 0.0 {
                    return Err(LinalgError::Breakdown {
                        iteration: col_iters[cols[c]],
                        curvature: pap[c],
                    });
                }
                alpha[c] = rz[c] / pap[c];
                col_iters[cols[c]] += 1;
            }
            stats.iterations += ka as u64;
            let alpha = &alpha[..ka];
            for (((xv, rv), pv), apv) in x[..m]
                .chunks_exact_mut(ka)
                .zip(r[..m].chunks_exact_mut(ka))
                .zip(p[..m].chunks_exact(ka))
                .zip(ap[..m].chunks_exact(ka))
            {
                for (((xj, rj), (&pj, &apj)), &aj) in
                    xv.iter_mut().zip(rv.iter_mut()).zip(pv.iter().zip(apv)).zip(alpha)
                {
                    *xj += aj * pj;
                    *rj -= aj * apj;
                }
            }
            // Numerical drift can reintroduce component-constant mass.
            self.project_block(r, comp_sums, ka);
            self.precondition(r, z, ka);
            self.project_block(z, comp_sums, ka);
            col_dots(r, z, n, ka, rz_next);
            for c in 0..ka {
                if rz_next[c] <= 0.0 {
                    // r·D^{-1}r = 0 only at an exactly-zero residual: the
                    // column converged between checks. Its iterate is
                    // final; the slot retires at the next check.
                    active[c] = false;
                    beta[c] = 0.0;
                    continue;
                }
                beta[c] = rz_next[c] / rz[c];
                rz[c] = rz_next[c];
            }
            let beta = &beta[..ka];
            for (pv, zv) in p[..m].chunks_exact_mut(ka).zip(z[..m].chunks_exact(ka)) {
                for ((pj, &zj), &bj) in pv.iter_mut().zip(zv).zip(beta) {
                    *pj = zj + bj * *pj;
                }
            }
        }
        col_dots(r, r, n, ka, rr);
        let worst = rr[..ka]
            .iter()
            .zip(&bnorm[..ka])
            .fold(0.0f64, |worst, (&rj, &bj)| worst.max(rj.sqrt() / bj));
        Err(LinalgError::NoConvergence { iterations: max_iterations, residual: worst })
    }

    /// `z = D^{-1} r` over a `k`-wide node-major block.
    fn precondition(&self, r: &[f64], z: &mut [f64], k: usize) {
        let m = self.dim() * k;
        for ((zv, rv), &s) in
            z[..m].chunks_exact_mut(k).zip(r[..m].chunks_exact(k)).zip(&self.inv_diag)
        {
            for (zj, &rj) in zv.iter_mut().zip(rv) {
                *zj = s * rj;
            }
        }
    }

    /// One pair solve `L x = e_u - e_v`, returning `(resistance,
    /// iterations)`. With `warm`, the workspace's previous solution
    /// seeds CG (valid when the previous solve shared the endpoint `u`:
    /// the potentials differ only by the sink term, so the old solution
    /// is an excellent initial guess). The pair must already be
    /// validated via [`SolverContext::check_pair`], with `u != v`.
    pub(crate) fn solve_pair(
        &self,
        ws: &mut CgWorkspace,
        u: NodeId,
        v: NodeId,
        warm: bool,
        stats: &mut SolveStats,
    ) -> Result<(f64, usize), LinalgError> {
        let (lu, lv) = (self.local(u), self.local(v));
        ws.prepare(self.dim(), 1, self.comp_sizes.len(), warm);
        ws.b[lu] = 1.0;
        ws.b[lv] = -1.0;
        self.pcg_block(ws, 1, warm, stats)?;
        stats.solves += 1;
        Ok((ws.x[lu] - ws.x[lv], ws.col_iters[0]))
    }
}

/// Per-column dot products of `k`-wide node-major blocks, accumulated
/// over nodes in ascending order (deterministic at any thread count
/// because it never fans out).
fn col_dots(a: &[f64], b: &[f64], n: usize, k: usize, out: &mut [f64]) {
    let out = &mut out[..k];
    out.fill(0.0);
    for (av, bv) in a[..n * k].chunks_exact(k).zip(b[..n * k].chunks_exact(k)) {
        for ((o, &x), &y) in out.iter_mut().zip(av).zip(bv) {
            *o += x * y;
        }
    }
}

/// Retires the slots with `active[c] == false` from a `ka`-wide
/// compacted block and returns the new width: each retired slot's
/// iterate is copied into column `cols[c]` of the `k`-wide solution
/// block `sol`, then every block and per-slot value closes up in place,
/// keeping slot order (so slots stay in ascending column order).
#[expect(clippy::too_many_arguments, reason = "the split borrows of one CgWorkspace")]
fn retire_columns(
    n: usize,
    ka: usize,
    k: usize,
    active: &mut [bool],
    cols: &mut [usize],
    x: &mut [f64],
    sol: &mut [f64],
    blocks: [&mut [f64]; 3],
    scalars: [&mut [f64]; 2],
) -> usize {
    let keep = &active[..ka];
    for c in (0..ka).filter(|&c| !keep[c]) {
        let j = cols[c];
        for v in 0..n {
            sol[v * k + j] = x[v * ka + c];
        }
    }
    close_up(&mut x[..n * ka], keep);
    for block in blocks {
        close_up(&mut block[..n * ka], keep);
    }
    for vals in scalars {
        close_up(&mut vals[..ka], keep);
    }
    let kept = close_up(&mut cols[..ka], keep);
    active[..kept].fill(true);
    kept
}

/// Closes up the rows of a node-major block of `keep.len()`-wide rows
/// in place, keeping the entries whose slot is kept, and returns the
/// number kept. A destination never passes the source it reads.
fn close_up<T: Copy>(vals: &mut [T], keep: &[bool]) -> usize {
    let mut dst = 0usize;
    for row in (0..vals.len()).step_by(keep.len()) {
        for (c, &kept) in keep.iter().enumerate() {
            if kept {
                vals[dst] = vals[row + c];
                dst += 1;
            }
        }
    }
    dst
}

/// Fast effective-resistance engine: Jacobi-preconditioned, blocked
/// multi-RHS CG over a reusable `CgWorkspace`, with per-node solve
/// reuse for edge batches and warm-started solves for shared-endpoint
/// pair batches.
///
/// Construction is `O(n + m)` (degrees + connected components), plus an
/// `O(m log m)` support-graph build when some node is isolated; every
/// subsequent solve recycles the workspace, so steady-state solves
/// allocate nothing.
///
/// # Examples
///
/// ```
/// use splpg_graph::Graph;
/// use splpg_linalg::{effective_resistance, CgOptions, EngineOptions, SolverEngine};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mut engine = SolverEngine::new(&g, EngineOptions::default());
/// let pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
/// let rs = engine.edge_resistances(&pairs)?;
/// for (i, &(u, v)) in pairs.iter().enumerate() {
///     let reference = effective_resistance(&g, u, v, CgOptions::default())?;
///     assert!((rs[i] - reference).abs() < 1e-6);
/// }
/// assert_eq!(engine.stats().solves, 4); // one per distinct endpoint
/// # Ok(())
/// # }
/// ```
pub struct SolverEngine<'g> {
    ctx: SolverContext<'g>,
    ws: CgWorkspace,
    stats: SolveStats,
}

impl<'g> SolverEngine<'g> {
    /// Builds an engine for `graph`. Disconnected graphs are fine:
    /// solves project per component, and resistance queries demand only
    /// that the two endpoints share a component.
    pub fn new(graph: &'g Graph, options: EngineOptions) -> Self {
        SolverEngine { ctx: SolverContext::new(graph, options), ws: CgWorkspace::new(), stats: SolveStats::default() }
    }

    /// Number of connected components of the underlying graph (each
    /// isolated node counts as one).
    pub fn num_components(&self) -> usize {
        self.ctx.num_components()
    }

    /// Cumulative counters (solves, iterations, matvec work, warm-start
    /// savings, workspace growth events).
    pub fn stats(&self) -> SolveStats {
        SolveStats { workspace_allocs: self.ws.alloc_events(), ..self.stats }
    }

    /// Zeroes the counters — including the workspace growth count, so a
    /// bench can warm up, reset, and then assert zero steady-state
    /// allocations.
    pub fn reset_stats(&mut self) {
        self.stats = SolveStats::default();
        self.ws.grow_events = 0;
    }

    /// Solves `L X = B` for `k` node-major columns through the blocked
    /// multi-RHS path, writing the solution block into `solutions`.
    /// Rows of isolated nodes come back `0.0` (their right-hand-side
    /// entries are projected away).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `rhs`/`solutions` are not
    /// `n * k` long; [`LinalgError::Breakdown`] /
    /// [`LinalgError::NoConvergence`] from the iteration.
    pub fn solve_block_into(
        &mut self,
        rhs: &[f64],
        k: usize,
        solutions: &mut [f64],
    ) -> Result<(), LinalgError> {
        let n = self.ctx.local_of.len();
        if rhs.len() != n * k || solutions.len() != n * k {
            return Err(LinalgError::DimensionMismatch {
                expected: n * k,
                actual: if rhs.len() != n * k { rhs.len() } else { solutions.len() },
            });
        }
        self.solve_support_block(k, |local_of, b| {
            for (v, &s) in local_of.iter().enumerate() {
                if s != ISOLATED {
                    let s = s as usize;
                    b[s * k..(s + 1) * k].copy_from_slice(&rhs[v * k..(v + 1) * k]);
                }
            }
        })?;
        let x = &self.ws.x;
        for (v, &s) in self.ctx.local_of.iter().enumerate() {
            let row = &mut solutions[v * k..(v + 1) * k];
            if s == ISOLATED {
                row.fill(0.0);
            } else {
                let s = s as usize;
                row.copy_from_slice(&x[s * k..(s + 1) * k]);
            }
        }
        Ok(())
    }

    /// Number of support nodes: the row count of
    /// [`SolverEngine::solve_support_block`]'s blocks.
    pub(crate) fn support_len(&self) -> usize {
        self.ctx.dim()
    }

    /// Support index of every node of the graph ([`ISOLATED`] for nodes
    /// without edges).
    pub(crate) fn support_index(&self) -> &[u32] {
        &self.ctx.local_of
    }

    /// Solves a `k`-column block given directly on the support: `fill`
    /// receives [`SolverEngine::support_index`] and writes the node-major
    /// right-hand sides into the zeroed `support_len() * k` block. Returns
    /// the solution block in the same layout.
    ///
    /// # Errors
    ///
    /// As [`SolverContext::pcg_block`].
    pub(crate) fn solve_support_block(
        &mut self,
        k: usize,
        fill: impl FnOnce(&[u32], &mut [f64]),
    ) -> Result<&[f64], LinalgError> {
        self.ws.prepare(self.ctx.dim(), k, self.ctx.comp_sizes.len(), false);
        fill(&self.ctx.local_of, &mut self.ws.b);
        self.ctx.pcg_block(&mut self.ws, k, false, &mut self.stats)?;
        self.stats.solves += k as u64;
        Ok(&self.ws.x)
    }

    /// Effective resistances for a batch of (typically edge) pairs via
    /// **per-node solve reuse**: one solve per distinct endpoint node
    /// (`<= n`), advanced through the blocked multi-RHS path, then every
    /// pair recovered as `R(u,v) = x_u[u] - x_u[v] - x_v[u] + x_v[v]`.
    /// Results are in input order.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] for out-of-range endpoints;
    /// * [`LinalgError::Disconnected`] for a pair spanning components;
    /// * the block PCG solve's [`LinalgError::Breakdown`] /
    ///   [`LinalgError::NoConvergence`].
    pub fn edge_resistances(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<f64>, LinalgError> {
        let mut out = Vec::with_capacity(pairs.len());
        self.edge_resistances_into(pairs, &mut out)?;
        Ok(out)
    }

    /// [`SolverEngine::edge_resistances`] writing into a caller-owned
    /// vector: with a warmed engine and a recycled `out`, the whole
    /// batch runs without a single heap allocation.
    ///
    /// # Errors
    ///
    /// As [`SolverEngine::edge_resistances`].
    pub fn edge_resistances_into(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        out.clear();
        for &(u, v) in pairs {
            self.ctx.check_pair(u, v)?;
        }
        let ctx = &self.ctx;
        let n = ctx.dim();
        let nc = ctx.comp_sizes.len();
        let ev = &mut self.ws.grow_events;
        // Every endpoint of a pair with `u != v` is on the support; the
        // index below is built in support ids (the relabelling is
        // monotone, so every sort order is unchanged).
        let local = |u: NodeId| ctx.local(u) as NodeId;

        // Distinct endpoints, sorted (solve order and lookup index).
        // Growth is detected by comparing capacity around the pushes, so
        // recycled batches of the same shape count zero events.
        let distinct = &mut self.ws.distinct;
        let cap_before = distinct.capacity();
        distinct.clear();
        for &(u, v) in pairs {
            if u != v {
                distinct.push(local(u));
                distinct.push(local(v));
            }
        }
        if distinct.capacity() > cap_before {
            *ev += 1;
        }
        distinct.sort_unstable();
        distinct.dedup();

        // Partner lists: for each distinct node `u`, the sorted set of
        // nodes whose potential entry `x_u[w]` some pair needs — always
        // `u` itself plus its pair partners.
        let incidence = &mut self.ws.incidence;
        let cap_before = incidence.capacity();
        incidence.clear();
        for &u in distinct.iter() {
            incidence.push((u, u));
        }
        for &(u, v) in pairs {
            if u != v {
                incidence.push((local(u), local(v)));
                incidence.push((local(v), local(u)));
            }
        }
        if incidence.capacity() > cap_before {
            *ev += 1;
        }
        incidence.sort_unstable();
        incidence.dedup();
        let offsets = &mut self.ws.partner_offsets;
        grow_with(offsets, distinct.len() + 1, 0usize, ev);
        let partners = &mut self.ws.partners;
        let cap_before = partners.capacity();
        partners.clear();
        {
            let mut pos = 0usize;
            for (di, &u) in distinct.iter().enumerate() {
                offsets[di] = pos;
                while pos < incidence.len() && incidence[pos].0 == u {
                    partners.push(incidence[pos].1);
                    pos += 1;
                }
            }
            offsets[distinct.len()] = pos;
        }
        if partners.capacity() > cap_before {
            *ev += 1;
        }
        let entries = &mut self.ws.entries;
        grow_f64(entries, partners.len(), ev);

        // Solve for each distinct endpoint's potential vector in blocks
        // of `block_width` columns, keeping only the partner entries.
        let kb = self.ctx.options.block_width.max(1);
        let mut start = 0usize;
        while start < self.ws.distinct.len() {
            let k = kb.min(self.ws.distinct.len() - start);
            self.ws.prepare(n, k, nc, false);
            for j in 0..k {
                let u = self.ws.distinct[start + j] as usize;
                self.ws.b[u * k + j] = 1.0; // e_u; projection supplies -1/|C|.
            }
            self.ctx.pcg_block(&mut self.ws, k, false, &mut self.stats)?;
            self.stats.solves += k as u64;
            for j in 0..k {
                let di = start + j;
                for slot in self.ws.partner_offsets[di]..self.ws.partner_offsets[di + 1] {
                    let w = self.ws.partners[slot] as usize;
                    self.ws.entries[slot] = self.ws.x[w * k + j];
                }
            }
            start += k;
        }

        // Recover every pair from the stored potentials.
        for &(u, v) in pairs {
            if u == v {
                out.push(0.0);
                continue;
            }
            let (u, v) = (self.ctx.local(u) as NodeId, self.ctx.local(v) as NodeId);
            let xu_u = self.lookup_entry(u, u);
            let xu_v = self.lookup_entry(u, v);
            let xv_u = self.lookup_entry(v, u);
            let xv_v = self.lookup_entry(v, v);
            out.push(xu_u - xu_v - xv_u + xv_v);
        }
        Ok(())
    }

    /// Stored potential entry `x_node[at]` (support ids), via binary
    /// search over the sorted distinct/partner index built by the last
    /// edge batch.
    fn lookup_entry(&self, node: NodeId, at: NodeId) -> f64 {
        let di = self
            .ws
            .distinct
            .binary_search(&node)
            .expect("invariant: every pair endpoint was inserted into distinct");
        let span = &self.ws.partners[self.ws.partner_offsets[di]..self.ws.partner_offsets[di + 1]];
        let pi = span
            .binary_search(&at)
            .expect("invariant: every queried partner was inserted into the incidence list");
        self.ws.entries[self.ws.partner_offsets[di] + pi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{effective_resistance, solve_laplacian};
    use splpg_graph::GraphBuilder;

    fn dense_ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                vec![
                    (i as NodeId, ((i + 1) % n) as NodeId),
                    (i as NodeId, ((i + 3) % n) as NodeId),
                ]
            })
            .collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn engine_matches_unpreconditioned_reference_on_edges() {
        let g = dense_ring(20);
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        let pairs: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let rs = engine.edge_resistances(&pairs).unwrap();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let reference = effective_resistance(&g, u, v, CgOptions::default()).unwrap();
            let rel = (rs[i] - reference).abs() / reference;
            assert!(rel < 1e-6, "pair ({u},{v}): engine {} vs reference {reference}", rs[i]);
        }
        assert_eq!(engine.stats().solves as usize, 20, "one solve per distinct node");
    }

    #[test]
    fn per_node_reuse_beats_per_edge_matvec_work() {
        // Circulant with 5 chord offsets: 120 edges over 24 nodes, so the
        // per-node path runs 5x fewer solves than the per-edge reference.
        let n = 24usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| {
                [1usize, 3, 5, 7, 9]
                    .into_iter()
                    .map(move |o| (i as NodeId, ((i + o) % n) as NodeId))
            })
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        engine.edge_resistances(&pairs).unwrap();
        let node_work = engine.stats().matvec_rows;
        let mut edge_work = 0u64;
        for &(u, v) in &pairs {
            let mut b = vec![0.0; g.num_nodes()];
            b[u as usize] = 1.0;
            b[v as usize] = -1.0;
            let o = solve_laplacian(&g, &b, CgOptions::default()).unwrap();
            edge_work += (o.iterations * g.num_nodes()) as u64;
        }
        assert!(
            node_work * 3 <= edge_work,
            "per-node path {node_work} rows vs per-edge {edge_work}"
        );
    }

    #[test]
    fn steady_state_solves_do_not_allocate() {
        let g = dense_ring(16);
        let pairs: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        let mut out = Vec::with_capacity(pairs.len());
        engine.edge_resistances_into(&pairs, &mut out).unwrap(); // warm-up
        let warmed = out.clone();
        engine.reset_stats();
        for _ in 0..3 {
            engine.edge_resistances_into(&pairs, &mut out).unwrap();
            assert_eq!(out, warmed, "steady-state results identical");
        }
        assert_eq!(engine.stats().workspace_allocs, 0, "no steady-state growth");
    }

    #[test]
    fn disconnected_graph_solves_per_component() {
        // Two 4-cycles: resistances within each must match a standalone
        // 4-cycle (edge of a 4-cycle: 3/4 ohm).
        let g = Graph::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)],
        )
        .unwrap();
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        assert_eq!(engine.num_components(), 2);
        let rs = engine.edge_resistances(&[(0, 1), (4, 5)]).unwrap();
        for r in rs {
            assert!((r - 0.75).abs() < 1e-6, "4-cycle edge resistance {r}");
        }
        // Cross-component pairs are rejected.
        assert_eq!(
            engine.edge_resistances(&[(0, 4)]).unwrap_err(),
            LinalgError::Disconnected
        );
    }

    #[test]
    fn block_solve_matches_single_rhs_solves() {
        let g = dense_ring(12);
        let n = g.num_nodes();
        let k = 4usize;
        let mut rhs = vec![0.0; n * k];
        for j in 0..k {
            rhs[j * 3 * k + j] = 1.0;
            rhs[(j + 5) * k + j] = -1.0;
        }
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        let mut block = vec![0.0; n * k];
        engine.solve_block_into(&rhs, k, &mut block).unwrap();
        for j in 0..k {
            let col_b: Vec<f64> = (0..n).map(|v| rhs[v * k + j]).collect();
            let mut col_x = vec![0.0; n];
            let mut single = SolverEngine::new(&g, EngineOptions::default());
            single.solve_block_into(&col_b, 1, &mut col_x).unwrap();
            for v in 0..n {
                assert!(
                    (block[v * k + j] - col_x[v]).abs() < 1e-7,
                    "column {j} node {v}"
                );
            }
        }
    }

    #[test]
    fn compacted_block_columns_match_single_rhs_solves_bitwise() {
        // Columns of very different difficulty retire at different
        // sweeps (the zero column at the first check), so the block
        // closes up several times; every column must still come out with
        // the bits and the iteration count of its own single solve.
        let g = padded(&weighted_ring(30));
        let (n, k) = (g.num_nodes(), 5usize);
        let mut rhs = vec![0.0; n * k];
        for (j, &(u, v)) in [(1usize, 4usize), (1, 46), (10, 13)].iter().enumerate() {
            rhs[u * k + j] = 1.0;
            rhs[v * k + j] = -1.0;
        }
        for v in 0..n {
            rhs[v * k + 3] = ((v * 37) % 11) as f64 - 5.0;
        }
        let mut block = vec![0.0; n * k];
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        engine.solve_block_into(&rhs, k, &mut block).unwrap();
        let mut single_iters = 0u64;
        for j in 0..k {
            let col_b: Vec<f64> = (0..n).map(|v| rhs[v * k + j]).collect();
            let mut col_x = vec![0.0; n];
            let mut single = SolverEngine::new(&g, EngineOptions::default());
            single.solve_block_into(&col_b, 1, &mut col_x).unwrap();
            single_iters += single.stats().iterations;
            for v in 0..n {
                assert_eq!(block[v * k + j].to_bits(), col_x[v].to_bits(), "column {j} node {v}");
            }
        }
        assert_eq!(engine.stats().iterations, single_iters);
    }

    #[test]
    fn thread_invariance_bitwise_through_parallel_matvec() {
        // Force the parallel matvec on a small graph by zeroing the flop
        // threshold, then demand bitwise equality across thread counts.
        let g = dense_ring(40);
        let pairs: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let opts = EngineOptions { par_flop_threshold: 0, ..EngineOptions::default() };
        let run = |threads: usize| {
            splpg_par::set_num_threads(threads);
            let mut engine = SolverEngine::new(&g, opts);
            let rs = engine.edge_resistances(&pairs).unwrap();
            splpg_par::set_num_threads(0);
            rs
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four, "engine output must be bit-identical across thread counts");
    }

    /// A weighted circulant: ring plus offset-3 chords.
    fn weighted_ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            let w = 0.37 * (i % 5 + 1) as f32;
            b.add_weighted_edge(i as NodeId, ((i + 1) % n) as NodeId, w).unwrap();
            b.add_weighted_edge(i as NodeId, ((i + 3) % n) as NodeId, 1.5 * w).unwrap();
        }
        b.build()
    }

    /// `g` with isolated nodes interleaved: node `i` becomes `3i + 1` of a
    /// `3n + 2`-node graph, so the support relabelling is not the identity.
    fn padded(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new(3 * g.num_nodes() + 2);
        for e in g.edges() {
            let w = g.edge_weight(e.src, e.dst).unwrap();
            b.add_weighted_edge(3 * e.src + 1, 3 * e.dst + 1, w).unwrap();
        }
        b.build()
    }

    #[test]
    fn isolated_padding_changes_no_bit_and_no_counter() {
        let g = weighted_ring(30);
        let big = padded(&g);
        let (n, big_n, k) = (g.num_nodes(), big.num_nodes(), 5usize);
        let rhs: Vec<f64> = (0..n * k).map(|i| (i * 37 % 11) as f64 - 5.0).collect();
        let mut big_rhs = vec![0.0; big_n * k];
        for v in 0..n {
            big_rhs[(3 * v + 1) * k..(3 * v + 2) * k].copy_from_slice(&rhs[v * k..(v + 1) * k]);
        }
        big_rhs[0] = 7.0; // an isolated row's right-hand side is projected away
        let pairs: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let big_pairs: Vec<(NodeId, NodeId)> =
            pairs.iter().map(|&(u, v)| (3 * u + 1, 3 * v + 1)).collect();
        let opts = EngineOptions { par_flop_threshold: 0, ..EngineOptions::default() };
        for threads in [1usize, 4] {
            splpg_par::set_num_threads(threads);
            let mut small = SolverEngine::new(&g, opts);
            let mut x = vec![0.0; n * k];
            small.solve_block_into(&rhs, k, &mut x).unwrap();
            let rs = small.edge_resistances(&pairs).unwrap();
            let mut large = SolverEngine::new(&big, opts);
            let mut big_x = vec![f64::NAN; big_n * k];
            large.solve_block_into(&big_rhs, k, &mut big_x).unwrap();
            let big_rs = large.edge_resistances(&big_pairs).unwrap();
            splpg_par::set_num_threads(0);

            for v in 0..big_n {
                let got: Vec<u64> = big_x[v * k..(v + 1) * k].iter().map(|x| x.to_bits()).collect();
                let want: Vec<u64> = if v % 3 == 1 && v / 3 < n {
                    x[v / 3 * k..(v / 3 + 1) * k].iter().map(|x| x.to_bits()).collect()
                } else {
                    vec![0.0f64.to_bits(); k]
                };
                assert_eq!(got, want, "node {v} at {threads} threads");
            }
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&big_rs), bits(&rs), "resistances at {threads} threads");
            let (a, b) = (small.stats(), large.stats());
            assert_eq!((b.iterations, b.matvec_rows), (a.iterations, a.matvec_rows));
            assert_eq!(large.num_components(), small.num_components() + big_n - n);
        }
    }

    #[test]
    fn isolated_nodes_keep_their_pair_semantics() {
        let g = padded(&dense_ring(6));
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        assert_eq!(engine.num_components(), 1 + 14);
        assert_eq!(engine.edge_resistances(&[(0, 0)]).unwrap(), vec![0.0]);
        assert_eq!(engine.edge_resistances(&[(0, 1)]).unwrap_err(), LinalgError::Disconnected);
        assert_eq!(engine.edge_resistances(&[(0, 2)]).unwrap_err(), LinalgError::Disconnected);
        assert_eq!(
            engine.edge_resistances(&[(1, 20)]).unwrap_err(),
            LinalgError::DimensionMismatch { expected: 20, actual: 21 }
        );
        let mut out = vec![0.0; 20];
        assert_eq!(
            engine.solve_block_into(&[0.0; 19], 1, &mut out).unwrap_err(),
            LinalgError::DimensionMismatch { expected: 20, actual: 19 }
        );
    }

    #[test]
    fn out_of_range_pair_rejected() {
        let g = dense_ring(6);
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        assert!(matches!(
            engine.edge_resistances(&[(0, 99)]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_block_dimension_checked() {
        let g = dense_ring(6);
        let mut engine = SolverEngine::new(&g, EngineOptions::default());
        let mut out = vec![0.0; 6];
        assert!(engine.solve_block_into(&[0.0; 5], 1, &mut out).is_err());
    }
}
