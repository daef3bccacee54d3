//! Row-product baseline: Gustavson expansion + dense-accumulator merge.
//!
//! This is the method every Figure 8/9 number is normalized against.
//! Expansion is one 256-thread block per row of `A` (divergent lanes on
//! skewed data); the merge enjoys row-major `Ĉ` (coalesced reads), which is
//! the row product's structural advantage over the plain outer product.

use crate::context::ProblemContext;
use crate::expansion::row::row_expansion_launch;
use crate::merge::gustavson::gustavson_merge_launch;
use crate::workspace::Workspace;
use br_sparse::Scalar;

/// Expansion/merge block size.
pub const BLOCK_SIZE: u32 = 256;

/// The method's kernel launches (expansion then merge) against a prepared
/// workspace.
pub fn launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
) -> Vec<br_gpu_sim::trace::KernelLaunch> {
    vec![
        row_expansion_launch(ctx, ws, BLOCK_SIZE),
        gustavson_merge_launch(ctx, ws, BLOCK_SIZE, true, |_| 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn skewed_data_diverges_lanes_uniform_does_not() {
        let uniform = rmat(RmatConfig::uniform(9, 8, 5)).to_csr();
        let skewed = rmat(RmatConfig::graph500(9, 8, 5)).to_csr();
        let mean_imbalance = |m: &br_sparse::CsrMatrix<f64>| {
            let ctx = ProblemContext::new(m, m).unwrap();
            let ws = Workspace::for_context(&ctx);
            let k = row_expansion_launch(&ctx, &ws, BLOCK_SIZE);
            // Work-weighted mean of the per-block divergence multiplier.
            let (mut num, mut den) = (0.0, 0.0);
            for b in &k.blocks {
                let w = b.compute_per_thread as f64 * b.effective_threads as f64;
                num += b.lane_imbalance * w;
                den += w;
            }
            num / den
        };
        let iu = mean_imbalance(&uniform);
        let is = mean_imbalance(&skewed);
        assert!(
            is > 1.5 * iu,
            "power-law hubs must diverge warps: skewed {is} vs uniform {iu}"
        );
    }

    #[test]
    fn two_kernels_expansion_then_merge() {
        let dev = DeviceConfig::titan_xp();
        let a = rmat(RmatConfig::uniform(7, 4, 2)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::RowProduct, &dev).unwrap();
        assert_eq!(r.profiles.len(), 2);
        assert!(r.profiles[0].name.contains("expansion"));
        assert!(r.profiles[1].name.contains("merge"));
    }
}
