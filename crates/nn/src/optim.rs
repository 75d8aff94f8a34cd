use splpg_tensor::Tensor;

use crate::ParamSet;

/// A first-order optimizer updating a [`ParamSet`] from per-parameter
/// gradients (canonical order).
pub trait Optimizer {
    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grads.len() != params.len()` — the caller
    /// controls both and a mismatch is a programming error.
    fn step(&mut self, params: &mut ParamSet, grads: &[Tensor]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Adam (Kingma & Ba) with bias correction — the paper's optimizer
/// (lr = 0.001).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        if self.m.len() != params.len() {
            self.m = (0..params.len())
                .map(|i| {
                    let (r, c) = params.value(i).shape();
                    Tensor::zeros(r, c)
                })
                .collect();
            self.v = self.m.clone();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &[Tensor]) {
        assert_eq!(grads.len(), params.len(), "one gradient per parameter");
        self.ensure_state(params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, g) in grads.iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mi, vi), &gi) in
                m.data_mut().iter_mut().zip(v.data_mut().iter_mut()).zip(g.data())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let p = params.value_mut(i);
            for ((pi, &mi), &vi) in
                p.data_mut().iter_mut().zip(m.data()).zip(v.data())
            {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *pi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_setup() -> (ParamSet, Tensor) {
        // Minimize f(w) = ||w - target||^2 with gradient 2 (w - target).
        let mut params = ParamSet::new();
        params.register("w", Tensor::zeros(1, 3));
        let target = Tensor::from_vec(1, 3, vec![1.0, -2.0, 0.5]).unwrap();
        (params, target)
    }

    fn gradient(params: &ParamSet, target: &Tensor) -> Vec<Tensor> {
        vec![params.value(0).sub(target).scale(2.0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let (mut params, target) = quadratic_setup();
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let g = gradient(&params, &target);
            opt.step(&mut params, &g);
        }
        let err = params.value(0).sub(&target).norm_sq();
        assert!(err < 1e-4, "error {err}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut params = ParamSet::new();
        params.register("w", Tensor::zeros(1, 1));
        let mut opt = Adam::new(0.01);
        let g = vec![Tensor::from_vec(1, 1, vec![5.0]).unwrap()];
        opt.step(&mut params, &g);
        let w = params.value(0).get(0, 0);
        assert!((w + 0.01).abs() < 1e-4, "first step {w}");
    }

    #[test]
    fn learning_rate_adjustable() {
        let mut adam = Adam::new(0.1);
        adam.set_learning_rate(0.2);
        assert_eq!(adam.learning_rate(), 0.2);
    }

    #[test]
    #[should_panic(expected = "one gradient per parameter")]
    fn mismatched_grads_panic() {
        let (mut params, _) = quadratic_setup();
        let mut opt = Adam::new(0.1);
        opt.step(&mut params, &[]);
    }
}
