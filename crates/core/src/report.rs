//! Workload report: the Figure 4 view of one problem — how the pass binned
//! the column/row pairs and what it plans to do about each bin.

use br_gpu_sim::device::DeviceConfig;
use br_sparse::Scalar;
use br_spgemm::context::ProblemContext;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::classify::Classification;
use crate::config::ReorganizerConfig;
use crate::gather::plan_gathers;
use crate::limit::LimitPlan;
use crate::split::plan_splits;

/// Aggregate view of one pair bin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinSummary {
    /// Pairs in the bin.
    pub pairs: usize,
    /// Total intermediate products the bin generates.
    pub products: u64,
    /// Share of all products in `[0, 1]`.
    pub product_share: f64,
}

/// The full pre-execution report of the Block Reorganizer's plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Dominator bin (→ B-Splitting).
    pub dominators: BinSummary,
    /// Normal bin (executed as-is).
    pub normals: BinSummary,
    /// Low-performer bin (→ B-Gathering).
    pub low_performers: BinSummary,
    /// Pairs producing nothing.
    pub empty_pairs: usize,
    /// Dominator classification threshold (products).
    pub threshold: u64,
    /// Pieces the dominators will split into.
    pub split_pieces: usize,
    /// Combined blocks gathering will emit.
    pub gathered_blocks: usize,
    /// Rows that will receive B-Limiting in the merge.
    pub limited_rows: usize,
    /// `nnz(Ĉ)`.
    pub intermediate_nnz: u64,
    /// `nnz(C)`.
    pub output_nnz: usize,
}

impl WorkloadReport {
    /// Builds the report for a problem under a configuration and device.
    pub fn of<T: Scalar>(
        ctx: &ProblemContext<T>,
        config: &ReorganizerConfig,
        device: &DeviceConfig,
    ) -> Self {
        let cls = Classification::of(ctx, config);
        let bin = |pairs: &[usize]| -> BinSummary {
            let products: u64 = pairs.iter().map(|&p| ctx.block_products[p]).sum();
            BinSummary {
                pairs: pairs.len(),
                products,
                product_share: products as f64 / ctx.intermediate_total.max(1) as f64,
            }
        };
        let plans = plan_splits(
            ctx,
            &cls.dominators,
            config.split_policy,
            device,
            cls.threshold,
        );
        let gathers = plan_gathers(ctx, &cls.low_performers, config.gather_block);
        let limits = LimitPlan::of(ctx, config);
        let nonempty = cls.dominators.len() + cls.normals.len() + cls.low_performers.len();
        WorkloadReport {
            dominators: bin(&cls.dominators),
            normals: bin(&cls.normals),
            low_performers: bin(&cls.low_performers),
            empty_pairs: ctx.inner_dim() - nonempty,
            threshold: cls.threshold,
            split_pieces: plans.iter().map(|p| p.pieces.len()).sum(),
            gathered_blocks: gathers.combined.len() + gathers.compacted.len(),
            limited_rows: limits.limited_count(),
            intermediate_nnz: ctx.intermediate_total,
            output_nnz: ctx.output_total(),
        }
    }
}

impl fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload classification (threshold {} products):",
            self.threshold
        )?;
        let row = |f: &mut fmt::Formatter<'_>, name: &str, b: &BinSummary| {
            writeln!(
                f,
                "  {:<15} {:>9} pairs  {:>13} products ({:>5.1}%)",
                name,
                b.pairs,
                b.products,
                b.product_share * 100.0
            )
        };
        row(f, "dominators", &self.dominators)?;
        row(f, "normal", &self.normals)?;
        row(f, "low performers", &self.low_performers)?;
        writeln!(f, "  {:<15} {:>9} pairs", "empty", self.empty_pairs)?;
        writeln!(
            f,
            "plan: {} split pieces | {} gathered/compacted blocks | {} limited merge rows",
            self.split_pieces, self.gathered_blocks, self.limited_rows
        )?;
        write!(
            f,
            "volume: nnz(C-hat) = {}, nnz(C) = {} (compression {:.2}x)",
            self.intermediate_nnz,
            self.output_nnz,
            self.intermediate_nnz as f64 / self.output_nnz.max(1) as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};

    fn report() -> WorkloadReport {
        let a = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(2000, 14_000, 21)
        })
        .to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        WorkloadReport::of(
            &ctx,
            &ReorganizerConfig::default(),
            &DeviceConfig::titan_xp(),
        )
    }

    #[test]
    fn bins_partition_products_exactly() {
        let r = report();
        assert_eq!(
            r.dominators.products + r.normals.products + r.low_performers.products,
            r.intermediate_nnz
        );
        let share =
            r.dominators.product_share + r.normals.product_share + r.low_performers.product_share;
        assert!((share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dominators_carry_outsized_share() {
        let r = report();
        // Few pairs, large share — the power-law signature the pass exploits.
        assert!(r.dominators.pairs < r.low_performers.pairs / 10);
        assert!(r.dominators.product_share > 0.2);
    }

    #[test]
    fn split_pieces_exceed_dominator_count() {
        let r = report();
        assert!(r.split_pieces >= r.dominators.pairs * 2);
    }

    #[test]
    fn display_is_complete_and_humane() {
        let r = report();
        let s = r.to_string();
        assert!(s.contains("dominators"));
        assert!(s.contains("low performers"));
        assert!(s.contains("compression"));
        assert!(s.lines().count() >= 6);
    }
}
