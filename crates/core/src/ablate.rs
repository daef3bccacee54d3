//! Ablation runner for Figure 10: each technique alone, then all three.
//!
//! All variants run on the same [`ProblemContext`] and device; speedups are
//! reported against the outer-product baseline (Figure 10's normalization).

use br_gpu_sim::device::DeviceConfig;
use br_sparse::{Result, Scalar};
use br_spgemm::context::ProblemContext;
use br_spgemm::pipeline::{run_method, SpgemmMethod};

use crate::config::ReorganizerConfig;
use crate::pass::{BlockReorganizer, ReorganizerRun};

/// Per-dataset ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationReport<T> {
    /// Outer-product baseline time (ms).
    pub outer_ms: f64,
    /// B-Splitting-only run.
    pub split_only: ReorganizerRun<T>,
    /// B-Gathering-only run.
    pub gather_only: ReorganizerRun<T>,
    /// B-Limiting-only run.
    pub limit_only: ReorganizerRun<T>,
    /// Full Block Reorganizer run.
    pub full: ReorganizerRun<T>,
}

impl<T: Clone> AblationReport<T> {
    /// Speedup of a run versus the outer-product baseline.
    fn speedup_outer(&self, ms: f64) -> f64 {
        if ms <= 0.0 {
            0.0
        } else {
            self.outer_ms / ms
        }
    }

    /// Figure 10 bars: (B-Limiting, B-Splitting, B-Gathering, combined)
    /// speedups over the outer-product baseline.
    pub fn fig10_bars(&self) -> (f64, f64, f64, f64) {
        (
            self.speedup_outer(self.limit_only.total_ms),
            self.speedup_outer(self.split_only.total_ms),
            self.speedup_outer(self.gather_only.total_ms),
            self.speedup_outer(self.full.total_ms),
        )
    }
}

/// Runs the four reorganizer variants plus the outer-product baseline.
pub fn ablation<T: Scalar>(
    ctx: &ProblemContext<T>,
    device: &DeviceConfig,
) -> Result<AblationReport<T>> {
    let outer = run_method(ctx, SpgemmMethod::OuterProduct, device)?;
    let run_with = |cfg: ReorganizerConfig| BlockReorganizer::new(cfg).multiply_ctx(ctx, device);
    Ok(AblationReport {
        outer_ms: outer.total_ms,
        split_only: run_with(ReorganizerConfig::split_only())?,
        gather_only: run_with(ReorganizerConfig::gather_only())?,
        limit_only: run_with(ReorganizerConfig::limit_only())?,
        full: run_with(ReorganizerConfig::default())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};

    fn ctx() -> ProblemContext<f64> {
        let a = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(2500, 17_500, 123)
        })
        .to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn all_variants_produce_identical_results() {
        let ctx = ctx();
        let dev = DeviceConfig::titan_xp();
        let rep = ablation(&ctx, &dev).unwrap();
        assert_eq!(rep.split_only.result, rep.full.result);
        assert_eq!(rep.gather_only.result, rep.full.result);
        assert_eq!(rep.limit_only.result, rep.full.result);
    }

    #[test]
    fn full_reorganizer_beats_outer_baseline_on_skewed_data() {
        let ctx = ctx();
        let dev = DeviceConfig::titan_xp();
        let rep = ablation(&ctx, &dev).unwrap();
        let (_, _, _, combined) = rep.fig10_bars();
        assert!(
            combined > 1.0,
            "combined speedup over outer must exceed 1: {combined}"
        );
    }

    #[test]
    fn single_techniques_help_on_their_target_pathology() {
        let ctx = ctx();
        let dev = DeviceConfig::titan_xp();
        let rep = ablation(&ctx, &dev).unwrap();
        let (limit, split, gather, combined) = rep.fig10_bars();
        // Each lone technique must not be catastrophic, and the
        // combination should be at least as good as the best single one
        // (within a small tolerance — interactions are not perfectly
        // additive, as in the paper).
        for (name, s) in [("limit", limit), ("split", split), ("gather", gather)] {
            assert!(s > 0.5, "{name} speedup collapsed: {s}");
        }
        let best = limit.max(split).max(gather);
        assert!(
            combined > best * 0.9,
            "combined {combined} should approach best single {best}"
        );
    }
}
