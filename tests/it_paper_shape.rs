//! Shape tests: the paper's qualitative findings must hold on the
//! synthetic stand-ins. These are the repository's reproduction acceptance
//! tests (see EXPERIMENTS.md).
//!
//! All strategies are trained once on a shared Citeseer stand-in (the
//! computation is cached in a `OnceLock` so the individual assertions can
//! run as separate tests without repeating ~2 minutes of training).

use std::sync::OnceLock;

use splpg::prelude::*;

const EPOCHS: usize = 100;
const HITS_K: usize = 30;

/// Test Hits@K and mean per-epoch communication bytes, per strategy.
struct Shape {
    rows: Vec<(Strategy, f64, u64)>,
}

impl Shape {
    fn row(&self, strategy: Strategy) -> &(Strategy, f64, u64) {
        self.rows.iter().find(|r| r.0 == strategy).expect("every strategy is trained")
    }

    fn hits(&self, strategy: Strategy) -> f64 {
        self.row(strategy).1
    }

    fn comm(&self, strategy: Strategy) -> u64 {
        self.row(strategy).2
    }
}

fn shape() -> &'static Shape {
    static SHAPE: OnceLock<Shape> = OnceLock::new();
    SHAPE.get_or_init(|| {
        let data = DatasetSpec::citeseer()
            .generate(Scale::new(0.3, 32), 11)
            .expect("generate");
        let mut rows = Vec::new();
        for strategy in [
            Strategy::Centralized,
            Strategy::PsgdPa,
            Strategy::RandomTma,
            Strategy::SpLpgMinusMinus,
            Strategy::SpLpgMinus,
            Strategy::SpLpg,
            Strategy::SpLpgPlus,
        ] {
            let out = SpLpg::builder()
                .workers(if strategy == Strategy::Centralized { 1 } else { 4 })
                .strategy(strategy)
                .epochs(EPOCHS)
                .hidden(32)
                .layers(2)
                .fanouts(vec![Some(10), Some(5)])
                .hits_k(HITS_K)
                .eval_every(4)
                .build()
                .run(ModelKind::GraphSage, &data)
                .expect("run");
            rows.push((strategy, out.test_hits, out.comm.mean_epoch_bytes()));
        }
        Shape { rows }
    })
}

#[test]
fn figure3_shape_vanilla_distributed_underperforms() {
    let s = shape();
    let central = s.hits(Strategy::Centralized);
    for strategy in [Strategy::PsgdPa, Strategy::RandomTma] {
        assert!(
            central > s.hits(strategy) + 0.05,
            "{strategy} ({:.3}) should trail Centralized ({central:.3}) clearly",
            s.hits(strategy)
        );
    }
}

#[test]
fn figure4_shape_complete_sharing_recovers_accuracy_at_high_cost() {
    let s = shape();
    let central = s.hits(Strategy::Centralized);
    let plus = s.hits(Strategy::SpLpgPlus);
    assert!(
        plus > central - 0.08,
        "complete sharing ({plus:.3}) should approach Centralized ({central:.3})"
    );
    assert!(s.comm(Strategy::SpLpgPlus) > 0);
}

#[test]
fn figure9_shape_sparsification_saves_majority_of_comm() {
    let s = shape();
    let saving = 1.0
        - s.comm(Strategy::SpLpg) as f64 / s.comm(Strategy::SpLpgPlus).max(1) as f64;
    assert!(
        (0.4..1.0).contains(&saving),
        "sparsification should save a large fraction of SpLPG+'s transfer, got {:.0}%",
        100.0 * saving
    );
}

#[test]
fn figure10_shape_splpg_beats_vanilla_baselines() {
    let s = shape();
    let splpg = s.hits(Strategy::SpLpg);
    for strategy in [Strategy::PsgdPa, Strategy::RandomTma] {
        assert!(
            splpg > s.hits(strategy),
            "SpLPG ({splpg:.3}) must beat {strategy} ({:.3})",
            s.hits(strategy)
        );
    }
}

#[test]
fn figure12_shape_ablation_ladder_is_monotone() {
    let s = shape();
    let mm = s.hits(Strategy::SpLpgMinusMinus);
    let splpg = s.hits(Strategy::SpLpg);
    let plus = s.hits(Strategy::SpLpgPlus);
    assert!(
        splpg > mm + 0.03,
        "SpLPG ({splpg:.3}) must clearly beat SpLPG-- ({mm:.3})"
    );
    assert!(
        plus > mm + 0.03,
        "SpLPG+ ({plus:.3}) must clearly beat SpLPG-- ({mm:.3})"
    );
}

#[test]
fn splpg_recovers_most_of_centralized_accuracy() {
    let s = shape();
    let ratio = s.hits(Strategy::SpLpg) / s.hits(Strategy::Centralized).max(1e-9);
    assert!(
        ratio > 0.75,
        "SpLPG should recover most of centralized accuracy, got {:.0}%",
        100.0 * ratio
    );
}

#[test]
fn comm_ordering_none_lt_sparsified_lt_full() {
    let s = shape();
    assert_eq!(s.comm(Strategy::PsgdPa), 0);
    assert!(s.comm(Strategy::SpLpg) > 0);
    assert!(s.comm(Strategy::SpLpg) < s.comm(Strategy::SpLpgPlus));
}
