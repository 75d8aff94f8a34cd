use crate::{Tape, Tensor, Var};

/// Report from a numeric gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_error: f64,
    /// Largest relative difference (normalized by magnitudes).
    pub max_rel_error: f64,
    /// Number of parameters checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the analytic gradient matches numerics within `tol`
    /// (relative, with an absolute floor for near-zero entries).
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_error <= tol
    }
}

/// Verifies the analytic gradient of a scalar function against central
/// finite differences.
///
/// `build` must construct the computation on the provided tape, taking the
/// leaf variable for the (cloned) input tensor and returning the scalar
/// loss var. The same construction is replayed for every perturbed input,
/// so `build` must be deterministic (seeded dropout etc. is the caller's
/// responsibility to avoid or freeze).
///
/// # Examples
///
/// ```
/// use splpg_tensor::{grad_check, Tensor};
///
/// // Inputs away from ReLU's kink at zero keep finite differences valid.
/// let x = Tensor::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.3]).unwrap();
/// let report = grad_check(&x, 1e-3, |tape, v| {
///     let y = tape.relu(v);
///     tape.sum_all(y)
/// });
/// assert!(report.passes(1e-3));
/// ```
pub fn grad_check<F>(input: &Tensor, epsilon: f64, build: F) -> GradCheckReport
where
    F: Fn(&mut Tape, Var) -> Var,
{
    // Analytic gradient. The same tape is reset and reused for every
    // perturbed evaluation below, exercising the arena-reuse path the
    // trainers rely on.
    let mut tape = Tape::new();
    let v = tape.leaf_copy(input);
    let loss = build(&mut tape, v);
    let grads = tape.backward(loss);
    let analytic = grads.get(v).cloned().unwrap_or_else(|| {
        let (r, c) = input.shape();
        Tensor::zeros(r, c)
    });
    tape.recycle_gradients(grads);

    let mut eval = |t: &Tensor| -> f64 {
        tape.reset();
        let v = tape.leaf_copy(t);
        let loss = build(&mut tape, v);
        tape.value(loss).get(0, 0) as f64
    };

    let mut max_abs: f64 = 0.0;
    let mut max_rel: f64 = 0.0;
    let n = input.len();
    for i in 0..n {
        let mut plus = input.clone();
        plus.data_mut()[i] += epsilon as f32;
        let mut minus = input.clone();
        minus.data_mut()[i] -= epsilon as f32;
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * epsilon);
        let a = analytic.data()[i] as f64;
        let abs = (a - numeric).abs();
        // The floor keeps f32 round-off on near-zero gradients from
        // registering as a large relative error.
        let rel = abs / a.abs().max(numeric.abs()).max(1e-2);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport { max_abs_error: max_abs, max_rel_error: max_rel, checked: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::Rng;
    use splpg_rng::SeedableRng;

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 2.0 - 1.0)
    }

    #[test]
    fn matmul_gradients_check() {
        let x = random_tensor(3, 4, 1);
        let w = random_tensor(4, 2, 2);
        let report = grad_check(&x, 1e-3, |tape, v| {
            let wv = tape.leaf(w.clone());
            let y = tape.matmul(v, wv);
            tape.sum_all(y)
        });
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn leaky_relu_checks_away_from_kink() {
        // Shift inputs away from 0 so finite differences are valid.
        let mut x = random_tensor(3, 3, 4);
        for v in x.data_mut() {
            if v.abs() < 0.05 {
                *v += 0.1;
            }
        }
        let report = grad_check(&x, 1e-4, |tape, v| {
            let y = tape.leaky_relu(v, 0.2);
            tape.sum_all(y)
        });
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn segment_softmax_attention_chain_checks() {
        let x = random_tensor(6, 1, 5);
        let msgs = random_tensor(6, 3, 6);
        let seg = vec![0u32, 0, 1, 1, 1, 2];
        let report = grad_check(&x, 1e-3, |tape, v| {
            let att = tape.segment_softmax(v, &seg, 3);
            let m = tape.leaf(msgs.clone());
            let weighted = tape.mul_col_broadcast(m, att);
            let agg = tape.segment_sum(weighted, &seg, 3);
            let act = tape.leaky_relu(agg, 0.2);
            tape.sum_all(act)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn bce_with_logits_checks() {
        let x = random_tensor(8, 1, 7);
        let targets = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        let report = grad_check(&x, 1e-3, |tape, v| tape.bce_with_logits(v, &targets));
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn gather_concat_rowsum_pipeline_checks() {
        let x = random_tensor(4, 3, 8);
        let idx_a = vec![0u32, 2, 3];
        let idx_b = vec![1u32, 1, 0];
        let report = grad_check(&x, 1e-3, |tape, v| {
            let a = tape.gather_rows(v, &idx_a);
            let b = tape.gather_rows(v, &idx_b);
            let prod = tape.mul(a, b);
            let scores = tape.row_sum(prod);
            tape.bce_with_logits(scores, &[1.0, 0.0, 1.0])
        });
        assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn full_gnn_like_layer_checks() {
        // A miniature message-passing layer: gather -> scale_rows_with (norm) ->
        // segment_sum -> linear -> relu -> loss. This is the exact data
        // flow of the GCN layer in splpg-gnn.
        let x = random_tensor(5, 3, 9);
        let w = random_tensor(3, 2, 10);
        let src = vec![0u32, 1, 2, 3, 4, 0];
        let dst = vec![1u32, 0, 3, 2, 0, 4];
        let norms = vec![0.5f32, 0.5, 0.7, 0.7, 0.4, 0.4];
        let report = grad_check(&x, 1e-3, |tape, v| {
            let msgs = tape.gather_rows(v, &src);
            let scaled = tape.scale_rows_with(msgs, |f| f.extend_from_slice(&norms));
            let agg = tape.segment_sum(scaled, &dst, 5);
            let wv = tape.leaf(w.clone());
            let h = tape.matmul(agg, wv);
            let a = tape.relu(h);
            tape.sum_all(a)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }
}
