//! `PlanSettings` — every choice besides the operands' structure and the
//! device that shapes a [`crate::ReorgPlan`].
//!
//! The paper's preprocessing is one per-structure plan; how that plan is
//! built is a per-plan decision too: the reorganizer's knobs, whether the
//! workloads are sampled (Ocean, arXiv:2604.19004) or exactly
//! precalculated, which merge-bin thresholds the numeric engine uses, and
//! whether `A`'s rows are reordered first (arXiv:2507.21253). Bundling
//! them in one value means the plan build and the plan-cache key read the
//! same thing, and nothing reads process-wide state.

use br_sparse::hash::{fnv_mix, FNV_OFFSET};
use br_spgemm::accum::BinThresholds;
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
    /// Forced merge-bin thresholds. `None` (the default) uses
    /// [`BinThresholds::recommended`] for the problem's width on the exact
    /// path, and the estimator's own choice on the sampled path.
    pub bins: Option<BinThresholds>,
    /// Row reordering applied before the analysis. The default
    /// [`ReorderStrategy::None`] keeps the input order.
    pub reorder: ReorderStrategy,
}

impl From<ReorganizerConfig> for PlanSettings {
    /// Exact planning under `config`, with the default bins and no
    /// reordering.
    fn from(config: ReorganizerConfig) -> Self {
        PlanSettings {
            config,
            ..PlanSettings::default()
        }
    }
}

impl PlanSettings {
    /// The merge-bin thresholds an exactly planned problem with `ncols`
    /// output columns uses: the forced ones, else the recommendation for
    /// that width. Bins never change a numeric result.
    pub fn thresholds_for(&self, ncols: usize) -> BinThresholds {
        self.bins
            .unwrap_or_else(|| BinThresholds::recommended(ncols))
    }

    /// FNV fingerprint over every setting — the plan-cache key's settings
    /// part. Two settings values share a fingerprint only when they build
    /// the same plans.
    pub fn fingerprint(&self) -> u64 {
        let bins = self.bins.map_or(0, |t| {
            [t.tiny_max, t.heavy_min, t.kway_min]
                .iter()
                .fold(FNV_OFFSET, |h, &v| fnv_mix(h, v))
        });
        [
            self.config.fingerprint(),
            self.estimator.map_or(0, |e| e.fingerprint()),
            bins,
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
                bins: Some(BinThresholds::default()),
                ..base
            },
            PlanSettings {
                bins: Some(BinThresholds {
                    kway_min: 4096,
                    ..BinThresholds::default()
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

    #[test]
    fn forced_bins_override_the_width_recommendation() {
        let forced = BinThresholds {
            tiny_max: 4,
            heavy_min: 512,
            kway_min: u64::MAX,
        };
        let settings = PlanSettings {
            bins: Some(forced),
            ..PlanSettings::default()
        };
        assert_eq!(settings.thresholds_for(1 << 20), forced);
        assert_eq!(
            PlanSettings::default().thresholds_for(100),
            BinThresholds::recommended(100)
        );
    }
}
