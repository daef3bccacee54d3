//! `PlanSettings` — every choice besides the operands' structure and the
//! device that shapes a [`crate::ReorgPlan`].
//!
//! The paper's preprocessing is one per-structure plan; how that plan is
//! built is a per-plan decision too: the reorganizer's knobs, whether the
//! workloads are sampled (Ocean, arXiv:2604.19004) or exactly
//! precalculated, and whether `A`'s rows are reordered first
//! (arXiv:2507.21253). The merge-bin thresholds follow from these: the
//! width recommendation on the exact path, the estimator's choice on the
//! sampled one. Bundling them in one value means the plan build and the
//! plan-cache key read the same thing, and nothing reads process-wide
//! state.

use br_sparse::hash::{fnv_mix, FNV_OFFSET};
use br_spgemm::estimate::EstimatorConfig;

use crate::config::ReorganizerConfig;
use crate::reorder::ReorderStrategy;

/// Everything a plan is a function of besides structure and device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanSettings {
    /// The Block Reorganizer's classification, splitting, gathering and
    /// limiting knobs.
    pub config: ReorganizerConfig,
    /// `Some` plans from a seeded sample of the workloads, falling back to
    /// exact precalculation when the confidence band is wider than the
    /// tolerance; `None` (the default) always precalculates exactly.
    pub estimator: Option<EstimatorConfig>,
    /// Row reordering applied before the analysis. The default
    /// [`ReorderStrategy::None`] keeps the input order.
    pub reorder: ReorderStrategy,
}

impl From<ReorganizerConfig> for PlanSettings {
    /// Exact planning under `config`, with no reordering.
    fn from(config: ReorganizerConfig) -> Self {
        PlanSettings {
            config,
            ..PlanSettings::default()
        }
    }
}

impl PlanSettings {
    /// FNV fingerprint over every setting — the plan-cache key's settings
    /// part. Two settings values share a fingerprint only when they build
    /// the same plans.
    pub fn fingerprint(&self) -> u64 {
        [
            self.config.fingerprint(),
            self.estimator.map_or(0, |e| e.fingerprint()),
            self.reorder.fingerprint(),
        ]
        .iter()
        .fold(FNV_OFFSET, |h, &v| fnv_mix(h, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_setting_separates_fingerprints() {
        let base = PlanSettings::default();
        let variants = [
            PlanSettings {
                config: ReorganizerConfig {
                    alpha: 64.0,
                    ..ReorganizerConfig::default()
                },
                ..base
            },
            PlanSettings {
                estimator: Some(EstimatorConfig::default()),
                ..base
            },
            PlanSettings {
                estimator: Some(EstimatorConfig {
                    samples: 128,
                    ..EstimatorConfig::default()
                }),
                ..base
            },
            PlanSettings {
                reorder: ReorderStrategy::Degree,
                ..base
            },
            PlanSettings {
                reorder: ReorderStrategy::Auto,
                ..base
            },
        ];
        let mut prints = vec![base.fingerprint()];
        for settings in variants {
            let print = settings.fingerprint();
            assert!(!prints.contains(&print), "{settings:?} aliases");
            prints.push(print);
        }
        assert_eq!(base.fingerprint(), PlanSettings::default().fingerprint());
    }
}
