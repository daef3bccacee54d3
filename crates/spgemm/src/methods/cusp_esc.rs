//! CUSP-like spGEMM: the Expand–Sort–Compress (ESC) pipeline.
//!
//! Expansion writes all `nnz(Ĉ)` products as explicit triples, a global
//! multi-pass radix sort orders them by (row, column), and a segmented
//! reduction compresses duplicates. Every sort pass streams the entire
//! intermediate array through DRAM, so the cost scales with
//! `passes × nnz(Ĉ)` — the paper measures CUSP at 0.22× the row-product
//! baseline, the slowest GPU method on large inputs.

use crate::context::ProblemContext;
use crate::expansion::row::row_expansion_launch;
use crate::merge::esc::esc_merge_launches;
use crate::workspace::Workspace;
use br_sparse::Scalar;

/// ESC block size.
const BLOCK_SIZE: u32 = 256;

/// The method's kernel launches (expansion, sort passes, compress) against
/// a prepared workspace.
pub fn launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
) -> Vec<br_gpu_sim::trace::KernelLaunch> {
    let mut launches = vec![row_expansion_launch(ctx, ws, BLOCK_SIZE)];
    launches.extend(esc_merge_launches(ctx, ws, BLOCK_SIZE));
    launches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn sort_passes_make_esc_slowest_on_dense_intermediates() {
        let dev = DeviceConfig::titan_xp();
        // edge factor 16 → large nnz(Ĉ) relative to nnz(A)
        let a = rmat(RmatConfig::uniform(9, 16, 9)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let esc = run_method(&ctx, SpgemmMethod::CuspEsc, &dev).unwrap();
        let rowp = run_method(&ctx, SpgemmMethod::RowProduct, &dev).unwrap();
        assert!(
            esc.total_ms > 1.5 * rowp.total_ms,
            "ESC should pay for its sort: {} vs {}",
            esc.total_ms,
            rowp.total_ms
        );
    }

    #[test]
    fn sort_dominates_the_esc_time() {
        let dev = DeviceConfig::titan_xp();
        let a = rmat(RmatConfig::uniform(9, 12, 2)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::CuspEsc, &dev).unwrap();
        let sort_ms = r.phase_ms("sort");
        assert!(
            sort_ms > r.kernel_ms() * 0.4,
            "sort {} of {} ms",
            sort_ms,
            r.kernel_ms()
        );
    }
}
