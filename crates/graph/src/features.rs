use crate::{GraphError, NodeId};

/// Dense row-major node-feature matrix (`|V| x f`, `f32`).
///
/// Mirrors the `X` matrix of the paper: row `v` is the initial feature
/// vector `x_v`. Feature rows are what the distributed engine prices when a
/// worker fetches a remote node (4 bytes per `f32`).
///
/// # Examples
///
/// ```
/// use splpg_graph::FeatureMatrix;
/// let x = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(x.num_rows(), 2);
/// assert_eq!(x.dim(), 2);
/// assert_eq!(x.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f32>,
    num_rows: usize,
    dim: usize,
}

impl FeatureMatrix {
    /// An all-zeros matrix.
    pub fn zeros(num_rows: usize, dim: usize) -> Self {
        FeatureMatrix { data: vec![0.0; num_rows * dim], num_rows, dim }
    }

    /// Builds from per-node rows.
    ///
    /// # Errors
    ///
    /// [`GraphError::DimensionMismatch`] when rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self, GraphError> {
        let num_rows = rows.len();
        let dim = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(num_rows * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(GraphError::DimensionMismatch { expected: dim, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix { data, num_rows, dim })
    }

    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Feature dimensionality `f`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature row of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_rows`.
    pub fn row(&self, v: NodeId) -> &[f32] {
        let v = v as usize;
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Appends the rows for `nodes` (in order) to `out`: what a worker does
    /// to materialise the input features of a sampled computational graph,
    /// into a buffer it reuses across batches.
    ///
    /// # Panics
    ///
    /// Panics if any node id is out of range.
    pub fn gather_into(&self, nodes: &[NodeId], out: &mut Vec<f32>) {
        out.reserve(nodes.len() * self.dim);
        for &v in nodes {
            out.extend_from_slice(self.row(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let x = FeatureMatrix::zeros(3, 4);
        assert_eq!(x.num_rows(), 3);
        assert_eq!(x.dim(), 4);
        assert!(x.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = FeatureMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, GraphError::DimensionMismatch { .. }));
    }

    #[test]
    fn gather_orders_rows() {
        let x = FeatureMatrix::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
        ])
        .unwrap();
        let mut g = Vec::new();
        x.gather_into(&[2, 0], &mut g);
        assert_eq!(g, [2.0, 2.0, 0.0, 0.0]);
    }
}
