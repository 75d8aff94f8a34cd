use crate::TensorError;

/// A dense 2-D row-major `f32` matrix.
///
/// All shapes in this workspace are 2-D: node-embedding blocks are
/// `[num_nodes, dim]`, edge scores are `[num_edges, 1]`, scalars are
/// `[1, 1]`. Operations panic on shape mismatch only where the mismatch is
/// a programming error inside this workspace; fallible constructors return
/// [`TensorError`].
///
/// # Examples
///
/// ```
/// use splpg_tensor::Tensor;
/// let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b).data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-ones tensor.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Builds from a buffer whose length is known by construction to be
    /// `rows * cols` (the tape arena's pooled storage path).
    pub(crate) fn from_raw(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), rows * cols, "raw tensor shape");
        Tensor { rows, cols, data }
    }

    /// Takes the backing buffer (for recycling into the tape arena).
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Capacity of the backing buffer in elements.
    pub(crate) fn data_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Builds element-wise from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other` (`[n,k] x [k,m] -> [n,m]`).
    ///
    /// [`crate::kernels::par_parts`] picks the worker count: products
    /// with enough flops, more than one *hardware-backed* worker, and
    /// enough output rows to feed each of them run on the
    /// register-blocked microkernel row-partitioned across that many
    /// workers; single-worker products above
    /// [`crate::kernels::MICRO_FLOP_THRESHOLD`] still run the
    /// microkernel inline (it beats the scalar loop even on one
    /// thread); only tiny products stay scalar. The result is
    /// bit-identical to [`Tensor::matmul_scalar`] on every path, at
    /// every thread count.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (n, m) = (self.rows, other.cols);
        let mut out = vec![0.0f32; n * m];
        self.matmul_into(other, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// [`Tensor::matmul`] writing into a caller-provided zero-filled
    /// buffer (the tape arena's pooled storage path).
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: [{},{}] x [{},{}]",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let parts = crate::kernels::par_parts(n, k, m);
        if parts > 1 {
            crate::kernels::matmul_nn_into(&self.data, &other.data, n, k, m, &splpg_par::Pool::new(parts), out);
        } else if 2 * n * k * m >= crate::kernels::MICRO_FLOP_THRESHOLD {
            crate::kernels::matmul_nn_into(&self.data, &other.data, n, k, m, &splpg_par::Pool::new(1), out);
        } else {
            nn_scalar_into(&self.data, &other.data, n, k, m, out);
        }
    }

    /// Scalar reference for [`Tensor::matmul`]: ikj loop order for
    /// cache-friendly row-major access. The parallel kernel is tested
    /// bit-for-bit against this.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_scalar(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: [{},{}] x [{},{}]",
            self.rows, self.cols, other.rows, other.cols
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; n * m];
        nn_scalar_into(&self.data, &other.data, n, k, m, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// `self^T @ other` (`[k,n]^T x [k,m] -> [n,m]`) without materializing
    /// the transpose; used by matmul backward.
    ///
    /// Large products run on the blocked parallel kernel, bit-identical
    /// to [`Tensor::matmul_tn_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (n, m) = (self.cols, other.cols);
        let mut out = vec![0.0f32; n * m];
        self.matmul_tn_into(other, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// [`Tensor::matmul_tn`] writing into a caller-provided zero-filled
    /// buffer.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.rows, other.rows, "matmul_tn row dims");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let parts = crate::kernels::par_parts(n, k, m);
        if parts > 1 {
            crate::kernels::matmul_tn_into(&self.data, &other.data, k, n, m, &splpg_par::Pool::new(parts), out);
        } else if 2 * n * k * m >= crate::kernels::MICRO_FLOP_THRESHOLD {
            crate::kernels::matmul_tn_into(&self.data, &other.data, k, n, m, &splpg_par::Pool::new(1), out);
        } else {
            tn_scalar_into(&self.data, &other.data, k, n, m, out);
        }
    }

    /// Scalar reference for [`Tensor::matmul_tn`].
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn matmul_tn_scalar(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn row dims");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; n * m];
        tn_scalar_into(&self.data, &other.data, k, n, m, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// `self @ other^T` (`[n,k] x [m,k]^T -> [n,m]`) without materializing
    /// the transpose; used by matmul backward.
    ///
    /// Large products run on the blocked parallel kernel, bit-identical
    /// to [`Tensor::matmul_nt_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (n, m) = (self.rows, other.rows);
        let mut out = vec![0.0f32; n * m];
        self.matmul_nt_into(other, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// [`Tensor::matmul_nt`] writing into a caller-provided buffer, every
    /// element of which is overwritten (it need not be zero-filled).
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.cols, other.cols, "matmul_nt col dims");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let parts = crate::kernels::par_parts(n, k, m);
        if parts > 1 {
            crate::kernels::matmul_nt_into(&self.data, &other.data, n, k, m, &splpg_par::Pool::new(parts), out);
        } else if 2 * n * k * m >= crate::kernels::MICRO_FLOP_THRESHOLD {
            crate::kernels::matmul_nt_into(&self.data, &other.data, n, k, m, &splpg_par::Pool::new(1), out);
        } else {
            nt_scalar_into(&self.data, &other.data, n, k, m, out);
        }
    }

    /// Scalar reference for [`Tensor::matmul_nt`].
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    pub fn matmul_nt_scalar(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt col dims");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = vec![0.0f32; n * m];
        nt_scalar_into(&self.data, &other.data, n, k, m, &mut out);
        Tensor { rows: n, cols: m, data: out }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|v| v * c)
    }

    /// Element-wise map.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "element-wise shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place `self += alpha * other`. Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Column-wise sums as a `[1, cols]` tensor.
    pub fn col_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Row-wise sums as a `[rows, 1]` tensor.
    pub fn row_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }
}

/// Scalar ikj matmul into a zero-filled `[n,m]` buffer: the bit-exact
/// reference the parallel kernel is held to.
fn nn_scalar_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * m..(i + 1) * m];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * m..(kk + 1) * m];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Scalar `a^T b` into a zero-filled `[n,m]` buffer (`a` is `[k,n]`).
fn tn_scalar_into(a: &[f32], b: &[f32], k: usize, n: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for kk in 0..k {
        let a_row = &a[kk * n..(kk + 1) * n];
        let b_row = &b[kk * m..(kk + 1) * m];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o_row = &mut out[i * m..(i + 1) * m];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Scalar `a b^T` into a `[n,m]` buffer (`b` is `[m,k]`); every element
/// is overwritten by a single left-to-right dot product.
fn nt_scalar_into(a: &[f32], b: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_eq!(out.len(), n * m, "matmul output shape");
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..m {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * m + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Tensor::ones(2, 2).sum(), 4.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert!(Tensor::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.get(1, 2), 12.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = Tensor::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        // a^T b == transpose(a).matmul(b)
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
        let d = Tensor::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.25);
        // a d^T == a.matmul(transpose(d))
        assert_eq!(a.matmul_nt(&d), a.matmul(&d.transpose()));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.norm_sq(), 30.0);
        assert_eq!(t.col_sums().data(), &[4.0, 6.0]);
        assert_eq!(t.row_sums().data(), &[3.0, 7.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::ones(1, 2);
        let b = Tensor::from_vec(1, 2, vec![2.0, 4.0]).unwrap();
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
