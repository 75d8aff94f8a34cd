use splpg_rng::Rng;

/// Walker alias table for O(1) sampling from a discrete distribution.
///
/// The sparsifier draws `L = alpha |E|` edges with replacement; building the
/// alias table costs O(|E|) once and each draw is O(1), which is what keeps
/// Table II's running times at "a few seconds for small graphs and a few
/// minutes for large ones".
///
/// # Examples
///
/// ```
/// use splpg_rng::SeedableRng;
/// use splpg_sparsify::AliasTable;
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
/// let draws: Vec<usize> = (0..1000).map(|_| table.sample(&mut rng)).collect();
/// let ones = draws.iter().filter(|&&d| d == 1).count();
/// assert!(ones > 600 && ones < 900); // ~750 expected
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
    /// Normalized weights (the exact sampling distribution).
    probabilities: Vec<f64>,
}

impl AliasTable {
    /// Builds an alias table from unnormalized non-negative weights.
    ///
    /// Returns `None` when `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return None;
        }
        if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
            return None;
        }
        let n = weights.len();
        let probabilities: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut scaled: Vec<f64> = probabilities.iter().map(|&p| p * n as f64).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let Some(s) = small.pop() {
            match large.pop() {
                Some(l) => {
                    prob[s] = scaled[s];
                    alias[s] = l;
                    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
                    if scaled[l] < 1.0 {
                        small.push(l);
                    } else {
                        large.push(l);
                    }
                }
                // Numerical leftovers: treat as certain.
                None => prob[s] = 1.0,
            }
        }
        while let Some(l) = large.pop() {
            prob[l] = 1.0;
        }
        Some(AliasTable { prob, alias, probabilities })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Normalized probability of outcome `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        self.probabilities[i]
    }

    /// Draws one outcome in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splpg_rng::SeedableRng;

    #[test]
    fn rejects_degenerate_weights() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[-1.0, 2.0]).is_none());
        assert!(AliasTable::new(&[f64::NAN, 1.0]).is_none());
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let table = AliasTable::new(&[2.0, 2.0, 2.0, 2.0]).unwrap();
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c} far from 10000");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let table = AliasTable::new(&[1.0, 9.0]).unwrap();
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(6);
        let hits1 = (0..50_000).filter(|_| table.sample(&mut rng) == 1).count();
        let frac = hits1 as f64 / 50_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn probabilities_normalized() {
        let table = AliasTable::new(&[1.0, 3.0]).unwrap();
        assert!((table.probability(0) - 0.25).abs() < 1e-12);
        assert!((table.probability(1) - 0.75).abs() < 1e-12);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn single_outcome_always_sampled() {
        let table = AliasTable::new(&[0.5]).unwrap();
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }
}
