//! Link-prediction evaluation metrics.
//!
//! The paper reports **Hits@100** following the OGB protocol: a positive
//! test edge counts as a hit if its score ranks above the K-th highest
//! negative score. AUC is provided as a secondary metric.

use crate::GnnError;

/// Rejects empty score lists and NaN scores (a NaN has no rank).
fn check_scores(metric: &str, pos_scores: &[f32], neg_scores: &[f32]) -> Result<(), GnnError> {
    if pos_scores.is_empty() || neg_scores.is_empty() {
        return Err(GnnError::EmptyInput(format!("{metric} needs positive and negative scores")));
    }
    for (side, scores) in [("positive", pos_scores), ("negative", neg_scores)] {
        if let Some(at) = scores.iter().position(|s| s.is_nan()) {
            return Err(GnnError::NanScore(format!("{metric}: {side} score {at} is NaN")));
        }
    }
    Ok(())
}

/// Hits@K: fraction of positive scores strictly greater than the K-th
/// largest negative score. With fewer than `k` negatives, every positive
/// above the minimum negative counts (degenerate but well-defined).
///
/// # Errors
///
/// [`GnnError::EmptyInput`] if either list is empty or `k == 0`;
/// [`GnnError::NanScore`] if any score is NaN.
///
/// # Examples
///
/// ```
/// use splpg_gnn::metrics::hits_at_k;
/// let pos = [0.9, 0.5, 0.1];
/// let neg = [0.8, 0.4, 0.3, 0.2];
/// // K = 2: threshold is the 2nd-highest negative (0.4).
/// let h = hits_at_k(&pos, &neg, 2).unwrap();
/// assert!((h - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn hits_at_k(pos_scores: &[f32], neg_scores: &[f32], k: usize) -> Result<f64, GnnError> {
    check_scores("hits@k", pos_scores, neg_scores)?;
    if k == 0 {
        return Err(GnnError::EmptyInput("k must be positive".into()));
    }
    let mut neg = neg_scores.to_vec();
    let at = k.min(neg.len()) - 1;
    let (_, &mut threshold, _) = neg.select_nth_unstable_by(at, |a, b| b.total_cmp(a));
    let hits = pos_scores.iter().filter(|&&s| s > threshold).count();
    Ok(hits as f64 / pos_scores.len() as f64)
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) estimator,
/// with tie correction.
///
/// # Errors
///
/// [`GnnError::EmptyInput`] if either list is empty; [`GnnError::NanScore`]
/// if any score is NaN.
pub fn auc(pos_scores: &[f32], neg_scores: &[f32]) -> Result<f64, GnnError> {
    check_scores("auc", pos_scores, neg_scores)?;
    let mut all: Vec<(f32, bool)> = pos_scores
        .iter()
        .map(|&s| (s, true))
        .chain(neg_scores.iter().map(|&s| (s, false)))
        .collect();
    all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    // Average ranks over tie groups.
    let n = all.len();
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for item in &all[i..=j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let np = pos_scores.len() as f64;
    let nn = neg_scores.len() as f64;
    Ok((rank_sum_pos - np * (np + 1.0) / 2.0) / (np * nn))
}

/// Mean reciprocal rank: for each positive, its rank among `{positive} ∪
/// negatives` by descending score (rank 1 = above every negative);
/// the metric is the mean of `1/rank`. Ties rank the positive below the
/// tied negatives (pessimistic, matching OGB's evaluator).
///
/// # Errors
///
/// [`GnnError::EmptyInput`] if either list is empty; [`GnnError::NanScore`]
/// if any score is NaN.
pub fn mrr(pos_scores: &[f32], neg_scores: &[f32]) -> Result<f64, GnnError> {
    check_scores("mrr", pos_scores, neg_scores)?;
    let mut neg = neg_scores.to_vec();
    neg.sort_unstable_by(|a, b| b.total_cmp(a));
    let total: f64 = pos_scores
        .iter()
        .map(|&p| {
            // Number of negatives with score >= p (pessimistic ties).
            let above = neg.partition_point(|&n| n >= p);
            1.0 / (above as f64 + 1.0)
        })
        .sum();
    Ok(total / pos_scores.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation() {
        let pos = [1.0, 0.9, 0.8];
        let neg = [0.1, 0.2, 0.3];
        assert_eq!(hits_at_k(&pos, &neg, 1).unwrap(), 1.0);
        assert_eq!(auc(&pos, &neg).unwrap(), 1.0);
    }

    #[test]
    fn inverted_separation() {
        let pos = [0.1, 0.2];
        let neg = [0.8, 0.9];
        assert_eq!(hits_at_k(&pos, &neg, 1).unwrap(), 0.0);
        assert_eq!(auc(&pos, &neg).unwrap(), 0.0);
    }

    #[test]
    fn random_scores_auc_half() {
        use splpg_rng::{Rng, SeedableRng};
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(0);
        let pos: Vec<f32> = (0..2000).map(|_| rng.gen()).collect();
        let neg: Vec<f32> = (0..2000).map(|_| rng.gen()).collect();
        let a = auc(&pos, &neg).unwrap();
        assert!((a - 0.5).abs() < 0.03, "auc {a}");
    }

    #[test]
    fn hits_threshold_behaviour() {
        let pos = [0.45, 0.55];
        let neg = [0.6, 0.5, 0.4];
        // K = 1: threshold 0.6 -> 0 hits.
        assert_eq!(hits_at_k(&pos, &neg, 1).unwrap(), 0.0);
        // K = 2: threshold 0.5 -> one hit (0.55).
        assert_eq!(hits_at_k(&pos, &neg, 2).unwrap(), 0.5);
        // K = 3: threshold 0.4 -> both hit.
        assert_eq!(hits_at_k(&pos, &neg, 3).unwrap(), 1.0);
    }

    #[test]
    fn k_larger_than_negatives_uses_min() {
        // With k beyond the negative count the threshold degrades to the
        // minimum negative, so both positives (0.45, 0.55 > 0.4) hit.
        let pos = [0.45, 0.55];
        let neg = [0.5, 0.4];
        assert_eq!(hits_at_k(&pos, &neg, 100).unwrap(), 1.0);
    }

    #[test]
    fn ties_are_averaged_in_auc() {
        // All scores equal: AUC must be exactly 0.5.
        let pos = [0.5, 0.5];
        let neg = [0.5, 0.5, 0.5];
        assert!((auc(&pos, &neg).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(hits_at_k(&[], &[0.1], 1).is_err());
        assert!(hits_at_k(&[0.1], &[], 1).is_err());
        assert!(hits_at_k(&[0.1], &[0.1], 0).is_err());
        assert!(auc(&[], &[0.1]).is_err());
        assert!(mrr(&[], &[0.1]).is_err());
    }

    #[test]
    fn nan_scores_are_typed_errors() {
        let nan = f32::NAN;
        for (pos, neg) in [([0.5, nan], [0.4, 0.1]), ([0.5, 0.2], [nan, 0.1])] {
            assert!(matches!(hits_at_k(&pos, &neg, 1), Err(GnnError::NanScore(_))));
            assert!(matches!(auc(&pos, &neg), Err(GnnError::NanScore(_))));
            assert!(matches!(mrr(&pos, &neg), Err(GnnError::NanScore(_))));
        }
    }

    #[test]
    fn hits_threshold_matches_a_full_sort() {
        use splpg_rng::{Rng, SeedableRng};
        let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(1);
        // Coarse values force ties around the threshold.
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n).map(|_| (rng.gen_range(0..40) as f32 - 20.0) * 0.25).collect()
        };
        let (pos, neg) = (draw(300), draw(500));
        let mut sorted = neg.clone();
        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        for k in [1, 2, 7, 100, 499, 500, 900] {
            let threshold = sorted[k.min(sorted.len()) - 1];
            let expect = pos.iter().filter(|&&s| s > threshold).count() as f64 / pos.len() as f64;
            assert_eq!(hits_at_k(&pos, &neg, k).unwrap(), expect, "k = {k}");
        }
    }

    #[test]
    fn mrr_known_ranks() {
        // Positive 0.9 ranks 1 (no negative above); positive 0.25 has two
        // negatives above -> rank 3.
        let pos = [0.9, 0.25];
        let neg = [0.5, 0.3, 0.1];
        let expect = (1.0 + 1.0 / 3.0) / 2.0;
        assert!((mrr(&pos, &neg).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn mrr_ties_are_pessimistic() {
        let pos = [0.5];
        let neg = [0.5, 0.1];
        // The tied negative counts as above -> rank 2.
        assert!((mrr(&pos, &neg).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mrr_perfect_is_one() {
        assert_eq!(mrr(&[0.9, 0.8], &[0.1, 0.2]).unwrap(), 1.0);
    }
}
