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
use crate::numeric::{default_threads, spgemm_sort_reduce_parallel};
use crate::pipeline::{assemble_run, SpgemmRun};
use crate::workspace::Workspace;
use br_gpu_sim::device::DeviceConfig;
use br_sparse::{Result, Scalar};

/// ESC block size.
const BLOCK_SIZE: u32 = 256;

/// The method's kernel launches (expansion, sort passes, compress) against
/// a prepared workspace — shared by [`run`] and the planner's method
/// dispatch.
pub fn launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
) -> Vec<br_gpu_sim::trace::KernelLaunch> {
    let mut launches = vec![row_expansion_launch(ctx, ws, BLOCK_SIZE)];
    launches.extend(esc_merge_launches(ctx, ws, BLOCK_SIZE));
    launches
}

/// Runs the CUSP-like ESC method.
pub fn run<T: Scalar>(ctx: &ProblemContext<T>, device: &DeviceConfig) -> Result<SpgemmRun<T>> {
    let ws = Workspace::for_context(ctx);
    let result = spgemm_sort_reduce_parallel(&ctx.a, &ctx.b, default_threads())?;
    Ok(assemble_run(
        "CUSP",
        result,
        &launches(ctx, &ws),
        &ws.layout,
        device,
        0.0,
        ctx.flops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::rmat::{rmat, RmatConfig};

    #[test]
    fn sort_passes_make_esc_slowest_on_dense_intermediates() {
        let dev = DeviceConfig::titan_xp();
        // edge factor 16 → large nnz(Ĉ) relative to nnz(A)
        let a = rmat(RmatConfig::uniform(9, 16, 9)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let esc = run(&ctx, &dev).unwrap();
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
        let r = run(&ctx, &dev).unwrap();
        let sort_ms = r.phase_ms("sort");
        assert!(
            sort_ms > r.kernel_ms() * 0.4,
            "sort {} of {} ms",
            sort_ms,
            r.kernel_ms()
        );
    }
}
