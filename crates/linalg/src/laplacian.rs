use std::borrow::Cow;

use splpg_graph::{Graph, NodeId};
use splpg_par::Pool;

use crate::LinalgError;

/// Matrix-free operator for the (weighted) graph Laplacian `L = D - A` and
/// its symmetric normalization `L_sym = D^{-1/2} L D^{-1/2}`.
///
/// Edge weights of the underlying graph are honoured (the sparsifier emits
/// weighted graphs), with unweighted edges treated as weight `1.0`.
#[derive(Debug)]
pub(crate) struct LaplacianOperator<'g> {
    graph: Cow<'g, Graph>,
    /// Weighted degree of each node.
    degrees: Vec<f64>,
}

/// Minimum estimated flops per chunk handed to a pool worker by
/// [`LaplacianOperator::apply_block_into`] — the same amortization floor
/// as `splpg-tensor`'s kernels.
const MIN_CHUNK_FLOPS: usize = 500_000;

impl<'g> LaplacianOperator<'g> {
    /// Wraps `graph` as a Laplacian operator.
    pub(crate) fn new(graph: &'g Graph) -> Self {
        Self::from_cow(Cow::Borrowed(graph))
    }

    /// An operator over a borrowed or an owned graph (the solver engine
    /// owns the compacted support graph it builds).
    pub(crate) fn from_cow(graph: Cow<'g, Graph>) -> Self {
        let degrees = (0..graph.num_nodes() as NodeId)
            .map(|v| match graph.neighbor_weights(v) {
                Some(ws) => ws.iter().map(|&w| w as f64).sum(),
                None => graph.degree(v) as f64,
            })
            .collect();
        LaplacianOperator { graph, degrees }
    }

    /// The graph the operator applies.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Operator dimension (number of nodes).
    pub(crate) fn dim(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Weighted degrees `D_{v,v}`.
    pub(crate) fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    fn check_dim(&self, x: &[f64]) -> Result<(), LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), actual: x.len() });
        }
        Ok(())
    }

    /// Computes `y = L x`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x.len() != dim()`.
    pub(crate) fn apply(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.dim()];
        self.apply_into(x, &mut y)?;
        Ok(y)
    }

    /// Computes `y = L x` into a caller-provided buffer — the
    /// allocation-free matvec the CG hot loop runs on (every entry of
    /// `y` is overwritten).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if either length differs from
    /// `dim()`.
    pub(crate) fn apply_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        self.check_dim(x)?;
        self.check_dim(y)?;
        for v in 0..self.dim() {
            let nbrs = self.graph.neighbors(v as NodeId);
            let mut acc = self.degrees[v] * x[v];
            match self.graph.neighbor_weights(v as NodeId) {
                Some(ws) => {
                    for (&u, &w) in nbrs.iter().zip(ws) {
                        acc -= w as f64 * x[u as usize];
                    }
                }
                None => {
                    for &u in nbrs {
                        acc -= x[u as usize];
                    }
                }
            }
            y[v] = acc;
        }
        Ok(())
    }

    /// Multi-RHS matvec: computes `Y = L X` for a block of `k`
    /// right-hand sides stored node-major (`x[v*k + j]` is column `j`'s
    /// entry at node `v`), so one sweep over the CSR adjacency advances
    /// all `k` vectors. Every column is computed: the solver engine
    /// compacts converged columns out of the block instead of masking
    /// them, so the inner loops over `j` carry no branch and vectorize.
    ///
    /// Output *rows* (nodes) are partitioned into contiguous ranges
    /// across `pool` — the same deterministic partitioning rule as
    /// `splpg-tensor`'s kernels — and each row's accumulation runs over
    /// the node's neighbor list in CSR order regardless of which thread
    /// owns it, so results are **bit-identical** at every thread count
    /// and every `k`: column `j`'s operation sequence does not depend on
    /// the other columns.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x`/`y` are not `dim() * k`
    /// long.
    pub(crate) fn apply_block_into(
        &self,
        x: &[f64],
        k: usize,
        y: &mut [f64],
        pool: &Pool,
    ) -> Result<(), LinalgError> {
        let n = self.dim();
        if x.len() != n * k || y.len() != n * k {
            return Err(LinalgError::DimensionMismatch {
                expected: n * k,
                actual: if x.len() != n * k { x.len() } else { y.len() },
            });
        }
        if k == 0 {
            return Ok(());
        }
        // ~4 flops per (edge, column) + 2 per (node, column); spawn only
        // when a chunk carries enough of them to amortize.
        let per_row = 2 * k * (1 + 2 * self.graph.num_edges() / n.max(1));
        let min_rows = (MIN_CHUNK_FLOPS / per_row.max(1)).max(1);
        let graph = &*self.graph;
        let degrees = &self.degrees;
        pool.parallel_for_mut(y, k, min_rows, |row0, chunk| {
            for (r, y_row) in chunk.chunks_exact_mut(k).enumerate() {
                let v = row0 + r;
                let d = degrees[v];
                for (yj, &xj) in y_row.iter_mut().zip(&x[v * k..(v + 1) * k]) {
                    *yj = d * xj;
                }
                let nbrs = graph.neighbors(v as NodeId);
                match graph.neighbor_weights(v as NodeId) {
                    Some(ws) => {
                        for (&u, &w) in nbrs.iter().zip(ws) {
                            let w = w as f64;
                            let xu = &x[u as usize * k..(u as usize + 1) * k];
                            for (yj, &xj) in y_row.iter_mut().zip(xu) {
                                // splpg-lint: allow(float-accum-in-par) — y_row is chunk-owned (rows are range-partitioned) and neighbors accumulate in fixed CSR order; pinned bit-identical by the it_solver thread-sweep tests
                                *yj -= w * xj;
                            }
                        }
                    }
                    None => {
                        for &u in nbrs {
                            let xu = &x[u as usize * k..(u as usize + 1) * k];
                            for (yj, &xj) in y_row.iter_mut().zip(xu) {
                                // splpg-lint: allow(float-accum-in-par) — same chunk-owned row, fixed CSR neighbor order as the weighted branch above
                                *yj -= xj;
                            }
                        }
                    }
                }
            }
        });
        Ok(())
    }

    /// Computes `y = L_sym x` where `L_sym = D^{-1/2} L D^{-1/2}`.
    ///
    /// Isolated nodes (zero degree) contribute zero rows/columns.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x.len() != dim()`.
    pub(crate) fn apply_normalized(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_dim(x)?;
        let inv_sqrt: Vec<f64> = self
            .degrees
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let scaled: Vec<f64> = x.iter().zip(&inv_sqrt).map(|(xi, s)| xi * s).collect();
        let mut y = self.apply(&scaled)?;
        for (yi, s) in y.iter_mut().zip(&inv_sqrt) {
            *yi *= s;
        }
        Ok(y)
    }
}

/// Computes the Laplacian quadratic form `x^T L x = sum_{(u,v) in E} w_{uv}
/// (x_u - x_v)^2` of `graph` at `x`.
///
/// This is the quantity bounded by Theorem 1 of the paper: a spectral
/// sparsifier satisfies `(1 - eps) x^T L x <= x^T L~ x <= (1 + eps) x^T L x`.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `x.len() != graph.num_nodes()`.
pub fn quadratic_form(graph: &Graph, x: &[f64]) -> Result<f64, LinalgError> {
    if x.len() != graph.num_nodes() {
        return Err(LinalgError::DimensionMismatch {
            expected: graph.num_nodes(),
            actual: x.len(),
        });
    }
    let mut total = 0.0;
    for e in graph.edges() {
        let w = graph.edge_weight(e.src, e.dst).unwrap_or(1.0) as f64;
        let d = x[e.src as usize] - x[e.dst as usize];
        total += w * d * d;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_graph::GraphBuilder;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        let y = lap.apply(&[5.0, 5.0, 5.0]).unwrap();
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn laplacian_matches_dense_definition() {
        // L for path 0-1-2: [[1,-1,0],[-1,2,-1],[0,-1,1]]
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        let y = lap.apply(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, 2.0]);
    }

    #[test]
    fn weighted_degrees() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 2, 3.0).unwrap();
        let g = b.build();
        let lap = LaplacianOperator::new(&g);
        assert_eq!(lap.degrees(), &[2.0, 5.0, 3.0]);
    }

    #[test]
    fn quadratic_form_matches_operator() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        let x = vec![0.3, -1.2, 2.0];
        let lx = lap.apply(&x).unwrap();
        let via_op: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let direct = quadratic_form(&g, &x).unwrap();
        assert!((via_op - direct).abs() < 1e-10);
    }

    #[test]
    fn normalized_annihilates_sqrt_degree_vector() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        // Null vector of L_sym is D^{1/2} 1.
        let x: Vec<f64> = lap.degrees().iter().map(|d| d.sqrt()).collect();
        let y = lap.apply_normalized(&x).unwrap();
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn dimension_checked() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        assert!(lap.apply(&[1.0]).is_err());
        assert!(quadratic_form(&g, &[1.0]).is_err());
    }

    #[test]
    fn apply_into_matches_apply_and_checks_dims() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        let x = vec![1.0, 2.0, 4.0];
        let mut y = vec![f64::NAN; 3];
        lap.apply_into(&x, &mut y).unwrap();
        assert_eq!(y, lap.apply(&x).unwrap());
        assert!(lap.apply_into(&x, &mut [0.0; 2]).is_err());
    }

    #[test]
    fn block_matvec_matches_columnwise_apply_bitwise() {
        let mut b = GraphBuilder::new(5);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 2, 0.5).unwrap();
        b.add_weighted_edge(2, 3, 3.0).unwrap();
        b.add_weighted_edge(3, 4, 1.0).unwrap();
        b.add_weighted_edge(4, 0, 1.5).unwrap();
        let g = b.build();
        let lap = LaplacianOperator::new(&g);
        let (n, k) = (5usize, 3usize);
        // Node-major block whose columns are distinct test vectors.
        let x: Vec<f64> = (0..n * k).map(|i| (i as f64) * 0.37 - 1.0).collect();
        let mut y1 = vec![0.0; n * k];
        let mut y4 = vec![0.0; n * k];
        lap.apply_block_into(&x, k, &mut y1, &Pool::new(1)).unwrap();
        lap.apply_block_into(&x, k, &mut y4, &Pool::new(4)).unwrap();
        assert_eq!(y1, y4, "block matvec must be thread-invariant bitwise");
        for j in 0..k {
            let col: Vec<f64> = (0..n).map(|v| x[v * k + j]).collect();
            let want = lap.apply(&col).unwrap();
            for v in 0..n {
                assert_eq!(y1[v * k + j], want[v], "column {j} node {v}");
            }
        }
    }

    #[test]
    fn block_matvec_rejects_wrong_lengths() {
        let g = path3();
        let lap = LaplacianOperator::new(&g);
        let x = vec![1.0; 3 * 2];
        let mut y = vec![f64::NAN; 3 * 2];
        assert!(lap.apply_block_into(&x, 3, &mut y, &Pool::new(1)).is_err());
        assert!(lap.apply_block_into(&x, 2, &mut y[..5], &Pool::new(1)).is_err());
        lap.apply_block_into(&x, 2, &mut y, &Pool::new(1)).unwrap();
        assert_eq!(y, vec![0.0; 6], "L annihilates the constant columns");
    }

    #[test]
    fn isolated_nodes_zero_row() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let lap = LaplacianOperator::new(&g);
        let y = lap.apply_normalized(&[0.0, 0.0, 9.0]).unwrap();
        assert_eq!(y[2], 0.0);
    }
}
