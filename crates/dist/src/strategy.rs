/// Which partitioning algorithm a strategy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// METIS-like multilevel partitioning (minimum edge cut).
    Metis,
    /// RandomTMA: independent uniform node assignment.
    Random,
    /// SuperTMA: METIS mini-clusters assigned randomly.
    Super,
}

/// What remote graph data a worker may access during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemoteKind {
    /// No remote access: the worker only sees its own subgraph.
    None,
    /// Complete data sharing: the entire graph + features through the
    /// master's shared memory (every fetch metered) — the `+` variants.
    Full,
    /// SpLPG: sparsified copies of the other partitions (fetches metered).
    Sparsified,
}

/// Where negative-sample destinations are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegativeSpace {
    /// Only the worker's own partition (the pathology of Section III-B).
    Local,
    /// The entire node set of the original graph.
    Global,
}

/// A distributed training strategy from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Strategy {
    /// Single-worker training on the full graph (reference accuracy).
    Centralized,
    /// PSGD-PA: METIS partitions, periodic model averaging, local-only
    /// data and negatives.
    PsgdPa,
    /// PSGD-PA with the complete data-sharing strategy.
    PsgdPaPlus,
    /// RandomTMA (Zhu et al.).
    RandomTma,
    /// RandomTMA with complete data sharing.
    RandomTmaPlus,
    /// SuperTMA (Zhu et al.).
    SuperTma,
    /// SuperTMA with complete data sharing.
    SuperTmaPlus,
    /// LLCG: PSGD-PA plus a master-side global correction step after each
    /// synchronization (Ramezani et al.).
    Llcg,
    /// SpLPG: halo-retaining METIS partitions + sparsified remote
    /// partitions for global negative sampling (this paper).
    SpLpg,
    /// SpLPG+ ablation: SpLPG with complete (unsparsified) data sharing.
    SpLpgPlus,
    /// SpLPG- ablation: halo retention but no remote access (local
    /// negatives).
    SpLpgMinus,
    /// SpLPG-- ablation: no halo, no remote access (equivalent to
    /// PSGD-PA's data view).
    SpLpgMinusMinus,
}

/// The data-plane configuration a [`Strategy`] implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategySpec {
    /// Partitioner.
    pub partitioner: PartitionerKind,
    /// Whether partitions retain full neighbor lists + halo features
    /// (Algorithm 1 lines 2–3).
    pub halo: bool,
    /// Remote data access mode.
    pub remote: RemoteKind,
    /// Negative sample space.
    pub negatives: NegativeSpace,
    /// Whether the master runs LLCG's global correction step after each
    /// synchronization.
    pub global_correction: bool,
}

impl Strategy {
    /// Every strategy, in the paper's presentation order.
    pub const ALL: [Strategy; 12] = [
        Strategy::Centralized,
        Strategy::PsgdPa,
        Strategy::PsgdPaPlus,
        Strategy::RandomTma,
        Strategy::RandomTmaPlus,
        Strategy::SuperTma,
        Strategy::SuperTmaPlus,
        Strategy::Llcg,
        Strategy::SpLpg,
        Strategy::SpLpgPlus,
        Strategy::SpLpgMinus,
        Strategy::SpLpgMinusMinus,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Centralized => "Centralized",
            Strategy::PsgdPa => "PSGD-PA",
            Strategy::PsgdPaPlus => "PSGD-PA+",
            Strategy::RandomTma => "RandomTMA",
            Strategy::RandomTmaPlus => "RandomTMA+",
            Strategy::SuperTma => "SuperTMA",
            Strategy::SuperTmaPlus => "SuperTMA+",
            Strategy::Llcg => "LLCG",
            Strategy::SpLpg => "SpLPG",
            Strategy::SpLpgPlus => "SpLPG+",
            Strategy::SpLpgMinus => "SpLPG-",
            Strategy::SpLpgMinusMinus => "SpLPG--",
        }
    }

    /// The data-plane spec of this strategy.
    ///
    /// # Panics
    ///
    /// Panics for [`Strategy::Centralized`], which has no distributed data
    /// plane (handle it before partitioning).
    pub fn spec(&self) -> StrategySpec {
        let base = StrategySpec {
            partitioner: PartitionerKind::Metis,
            halo: false,
            remote: RemoteKind::None,
            negatives: NegativeSpace::Local,
            global_correction: false,
        };
        match self {
            Strategy::Centralized => {
                panic!("centralized training has no distributed data plane")
            }
            Strategy::PsgdPa => base,
            Strategy::PsgdPaPlus => StrategySpec {
                remote: RemoteKind::Full,
                negatives: NegativeSpace::Global,
                ..base
            },
            Strategy::RandomTma => {
                StrategySpec { partitioner: PartitionerKind::Random, ..base }
            }
            Strategy::RandomTmaPlus => StrategySpec {
                partitioner: PartitionerKind::Random,
                remote: RemoteKind::Full,
                negatives: NegativeSpace::Global,
                ..base
            },
            Strategy::SuperTma => {
                StrategySpec { partitioner: PartitionerKind::Super, ..base }
            }
            Strategy::SuperTmaPlus => StrategySpec {
                partitioner: PartitionerKind::Super,
                remote: RemoteKind::Full,
                negatives: NegativeSpace::Global,
                ..base
            },
            Strategy::Llcg => StrategySpec { global_correction: true, ..base },
            Strategy::SpLpg => StrategySpec {
                halo: true,
                remote: RemoteKind::Sparsified,
                negatives: NegativeSpace::Global,
                ..base
            },
            Strategy::SpLpgPlus => StrategySpec {
                halo: true,
                remote: RemoteKind::Full,
                negatives: NegativeSpace::Global,
                ..base
            },
            Strategy::SpLpgMinus => StrategySpec { halo: true, ..base },
            Strategy::SpLpgMinusMinus => base,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_variants_share_everything() {
        for s in [Strategy::PsgdPaPlus, Strategy::RandomTmaPlus, Strategy::SuperTmaPlus] {
            let spec = s.spec();
            assert_eq!(spec.remote, RemoteKind::Full);
            assert_eq!(spec.negatives, NegativeSpace::Global);
            assert!(!spec.halo);
        }
    }

    #[test]
    fn splpg_spec_matches_paper() {
        let spec = Strategy::SpLpg.spec();
        assert!(spec.halo, "SpLPG retains full neighbors");
        assert_eq!(spec.remote, RemoteKind::Sparsified);
        assert_eq!(spec.negatives, NegativeSpace::Global);
        assert_eq!(Strategy::SpLpgPlus.spec().remote, RemoteKind::Full);
    }

    #[test]
    fn ablations_degrade_in_order() {
        // SpLPG-- drops halo relative to SpLPG-.
        assert!(Strategy::SpLpgMinus.spec().halo);
        assert!(!Strategy::SpLpgMinusMinus.spec().halo);
        // Both lose global negatives.
        assert_eq!(Strategy::SpLpgMinus.spec().negatives, NegativeSpace::Local);
    }

    #[test]
    fn llcg_is_psgd_with_correction() {
        let llcg = Strategy::Llcg.spec();
        let psgd = Strategy::PsgdPa.spec();
        assert!(llcg.global_correction);
        assert_eq!(
            StrategySpec { global_correction: false, ..llcg },
            psgd
        );
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(Strategy::PsgdPaPlus.name(), "PSGD-PA+");
        assert_eq!(Strategy::SpLpgMinusMinus.to_string(), "SpLPG--");
        assert_eq!(Strategy::ALL.len(), 12);
    }

    #[test]
    #[should_panic(expected = "centralized")]
    fn centralized_has_no_spec() {
        let _ = Strategy::Centralized.spec();
    }
}
