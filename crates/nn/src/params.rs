use splpg_tensor::{Gradients, Tape, Tensor, Var};

use crate::NnError;

/// An ordered, named collection of trainable parameter tensors.
///
/// Parameter order is the canonical layout for flattening
/// ([`ParamSet::to_flat`] / [`ParamSet::load_flat`]), which is how the
/// distributed engine ships models between workers for model averaging.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Registers a parameter, returning its index.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> usize {
        self.names.push(name.into());
        self.values.push(value);
        self.values.len() - 1
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Parameter tensor at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn value(&self, idx: usize) -> &Tensor {
        &self.values[idx]
    }

    /// Mutable parameter tensor at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn value_mut(&mut self, idx: usize) -> &mut Tensor {
        &mut self.values[idx]
    }

    /// Parameter name at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Total number of scalar elements across all parameters.
    pub fn num_elements(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Registers every parameter as a leaf on `tape`, returning the
    /// [`Binding`] used to address them during the forward pass and to
    /// collect their gradients afterwards.
    pub fn bind(&self, tape: &mut Tape) -> Binding {
        // leaf_copy draws the leaf storage from the tape's arena, so a
        // reused tape re-binds parameters every step without allocating.
        let vars = self.values.iter().map(|t| tape.leaf_copy(t)).collect();
        Binding { vars }
    }

    /// Serializes all parameters into one flat buffer (canonical order).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_elements());
        for t in &self.values {
            out.extend_from_slice(t.data());
        }
        out
    }

    /// Loads parameters from a flat buffer produced by [`ParamSet::to_flat`]
    /// on an identically-structured set.
    ///
    /// # Errors
    ///
    /// [`NnError::FlatSizeMismatch`] if the buffer length differs.
    pub fn load_flat(&mut self, flat: &[f32]) -> Result<(), NnError> {
        if flat.len() != self.num_elements() {
            return Err(NnError::FlatSizeMismatch {
                expected: self.num_elements(),
                actual: flat.len(),
            });
        }
        let mut offset = 0;
        for t in &mut self.values {
            let n = t.len();
            t.data_mut().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Averages a list of flat parameter buffers element-wise (FedAvg-style
    /// model averaging, the synchronization the paper's baselines use).
    ///
    /// # Errors
    ///
    /// [`NnError::FlatSizeMismatch`] when buffers disagree in length;
    /// averaging an empty list is also an error.
    pub fn average_flat(buffers: &[Vec<f32>]) -> Result<Vec<f32>, NnError> {
        let Some(first) = buffers.first() else {
            return Err(NnError::FlatSizeMismatch { expected: 1, actual: 0 });
        };
        let n = first.len();
        for b in buffers {
            if b.len() != n {
                return Err(NnError::FlatSizeMismatch { expected: n, actual: b.len() });
            }
        }
        let scale = 1.0 / buffers.len() as f32;
        let mut out = vec![0.0f32; n];
        for b in buffers {
            for (o, &x) in out.iter_mut().zip(b) {
                *o += x * scale;
            }
        }
        Ok(out)
    }
}

/// Tape handles for one binding of a [`ParamSet`], parallel to its order.
#[derive(Debug, Clone)]
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// Tape var of parameter `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn var(&self, idx: usize) -> Var {
        self.vars[idx]
    }

    /// Collects per-parameter gradients in canonical order. Parameters that
    /// did not participate in the loss get zero gradients.
    pub fn collect_grads(&self, set: &ParamSet, grads: &mut Gradients) -> Vec<Tensor> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                grads.take(v).unwrap_or_else(|| {
                    let (r, c) = set.value(i).shape();
                    Tensor::zeros(r, c)
                })
            })
            .collect()
    }
}

/// Averages per-parameter gradient lists from several workers (gradient
/// averaging, Algorithm 1 line 29).
///
/// # Errors
///
/// [`NnError::GradCountMismatch`] when workers disagree on the parameter
/// count, or the list is empty.
pub fn average_grads(worker_grads: &[Vec<Tensor>]) -> Result<Vec<Tensor>, NnError> {
    let Some(first) = worker_grads.first() else {
        return Err(NnError::GradCountMismatch { expected: 1, actual: 0 });
    };
    let count = first.len();
    for g in worker_grads {
        if g.len() != count {
            return Err(NnError::GradCountMismatch { expected: count, actual: g.len() });
        }
    }
    let scale = 1.0 / worker_grads.len() as f32;
    let mut out: Vec<Tensor> = first.iter().map(|t| t.scale(scale)).collect();
    for g in &worker_grads[1..] {
        for (o, t) in out.iter_mut().zip(g) {
            o.axpy(scale, t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_set() -> ParamSet {
        let mut set = ParamSet::new();
        set.register("a", Tensor::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
        set.register("b", Tensor::from_vec(2, 1, vec![3.0, 4.0]).unwrap());
        set
    }

    #[test]
    fn flat_round_trip() {
        let set = small_set();
        let flat = set.to_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
        let mut other = small_set();
        other.value_mut(0).data_mut()[0] = 99.0;
        other.load_flat(&flat).unwrap();
        assert_eq!(other.to_flat(), flat);
    }

    #[test]
    fn load_flat_checks_length() {
        let mut set = small_set();
        assert!(matches!(
            set.load_flat(&[1.0]),
            Err(NnError::FlatSizeMismatch { expected: 4, actual: 1 })
        ));
    }

    #[test]
    fn average_flat_is_elementwise_mean() {
        let avg = ParamSet::average_flat(&[vec![0.0, 2.0], vec![4.0, 6.0]]).unwrap();
        assert_eq!(avg, vec![2.0, 4.0]);
        assert!(ParamSet::average_flat(&[]).is_err());
        assert!(ParamSet::average_flat(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn binding_collects_zero_for_unused_params() {
        let set = small_set();
        let mut tape = Tape::new();
        let binding = set.bind(&mut tape);
        // Use only parameter 0 in the loss.
        let loss = tape.sum_all(binding.var(0));
        let mut grads = tape.backward(loss);
        let collected = binding.collect_grads(&set, &mut grads);
        assert_eq!(collected[0].data(), &[1.0, 1.0]);
        assert_eq!(collected[1].data(), &[0.0, 0.0]);
    }

    #[test]
    fn average_grads_matches_manual() {
        let g1 = vec![Tensor::from_vec(1, 2, vec![2.0, 0.0]).unwrap()];
        let g2 = vec![Tensor::from_vec(1, 2, vec![0.0, 4.0]).unwrap()];
        let avg = average_grads(&[g1, g2]).unwrap();
        assert_eq!(avg[0].data(), &[1.0, 2.0]);
    }

    #[test]
    fn names_and_counts() {
        let set = small_set();
        assert_eq!(set.len(), 2);
        assert_eq!(set.name(1), "b");
        assert_eq!(set.num_elements(), 4);
        assert!(!set.is_empty());
    }
}
