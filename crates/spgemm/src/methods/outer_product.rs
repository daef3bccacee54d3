//! Outer-product baseline (Algorithm 1): the scheme the Block Reorganizer
//! starts from, *without* any of its three optimizations.
//!
//! Perfect thread-level balance inside each block, but (a) block workloads
//! vary by orders of magnitude on skewed data — a handful of dominator
//! blocks pin their SMs while the rest idle (Figure 3(a)) — and (b) `Ĉ`
//! is produced block-major, so the merge's reads scatter (Section III-A.3).
//! On the paper's suite this lands at ~0.95× the row-product baseline:
//! better expansion, worse merge.

use crate::context::ProblemContext;
use crate::expansion::outer::{outer_expansion_launch, DEFAULT_BLOCK_SIZE};
use crate::merge::gustavson::gustavson_merge_launch;
use crate::workspace::Workspace;
use br_sparse::Scalar;

/// The method's kernel launches (expansion then merge) against a prepared
/// workspace.
pub fn launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
) -> Vec<br_gpu_sim::trace::KernelLaunch> {
    vec![
        outer_expansion_launch(ctx, ws, DEFAULT_BLOCK_SIZE, false),
        gustavson_merge_launch(ctx, ws, DEFAULT_BLOCK_SIZE, false, |_| 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn expansion_lbi_collapses_on_skewed_data() {
        let dev = DeviceConfig::titan_xp();
        let skewed = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(3000, 24_000, 8)
        })
        .to_csr();
        let regular = rmat(RmatConfig::uniform(11, 8, 8)).to_csr();
        let cs = ProblemContext::new(&skewed, &skewed).unwrap();
        let cr = ProblemContext::new(&regular, &regular).unwrap();
        let rs = run_method(&cs, SpgemmMethod::OuterProduct, &dev).unwrap();
        let rr = run_method(&cr, SpgemmMethod::OuterProduct, &dev).unwrap();
        let lbi_s = rs.profiles[0].lbi();
        let lbi_r = rr.profiles[0].lbi();
        assert!(
            lbi_s < lbi_r - 0.2,
            "skew should wreck expansion LBI: skewed {lbi_s} vs regular {lbi_r}"
        );
    }

    #[test]
    fn expansion_has_no_lane_divergence() {
        let dev = DeviceConfig::titan_xp();
        let a = rmat(RmatConfig::graph500(8, 8, 3)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::OuterProduct, &dev).unwrap();
        // The outer product's defining property (Section III): identical
        // work per thread. The row product on the same data diverges.
        let row = run_method(&ctx, SpgemmMethod::RowProduct, &dev).unwrap();
        assert!(r.profiles[0].time_ms > 0.0);
        let _ = row;
    }
}
