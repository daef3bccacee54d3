//! MKL-like CPU baseline: multithreaded Gustavson under an analytic CPU
//! cost model, in the same simulated-time domain as the GPU methods.
//!
//! `mkl_sparse_spmm` parallelises Gustavson over row blocks. The cost model
//! is roofline-style: compute time (MACs over aggregate MAC throughput,
//! degraded by indexing-heavy gathers) versus memory time (operand + output
//! traffic over socket bandwidth), plus a parallel-efficiency factor for
//! load imbalance across threads on skewed data.

use crate::accum::{spgemm_adaptive, BinThresholds};
use crate::context::ProblemContext;
use crate::numeric::default_threads;
use crate::pipeline::SpgemmRun;
use br_gpu_sim::device::{CpuConfig, DeviceConfig};
use br_sparse::{Result, Scalar};

/// Runs the MKL-like CPU baseline. The `device` argument selects the host
/// CPU paired with that GPU in Table I (we use the System 1 Xeon for all,
/// as the paper's MKL bars do not vary by system). The host merge bins rows
/// under `thresholds`.
pub fn run<T: Scalar>(
    ctx: &ProblemContext<T>,
    _device: &DeviceConfig,
    thresholds: BinThresholds,
) -> Result<SpgemmRun<T>> {
    run_on_cpu(ctx, &CpuConfig::xeon_e5_2640v4(), thresholds)
}

/// Runs the model against an explicit CPU configuration.
pub fn run_on_cpu<T: Scalar>(
    ctx: &ProblemContext<T>,
    cpu: &CpuConfig,
    thresholds: BinThresholds,
) -> Result<SpgemmRun<T>> {
    let result = spgemm_adaptive(&ctx.a, &ctx.b, default_threads(), thresholds)?;

    let macs = ctx.intermediate_total as f64;
    let clock_hz = cpu.clock_mhz as f64 * 1e6;

    // Parallel efficiency: rows are distributed across threads; the busiest
    // thread is bounded below by the single heaviest row.
    let threads = cpu.threads as f64;
    let max_row = ctx.row_products.iter().copied().max().unwrap_or(0) as f64;
    let per_thread_mean = macs / threads;
    let busiest = per_thread_mean.max(max_row);
    let efficiency = if busiest > 0.0 {
        per_thread_mean / busiest
    } else {
        1.0
    };

    let compute_s = macs / (cpu.cores as f64 * clock_hz * cpu.macs_per_cycle);

    // Traffic: read A and B (with re-reads of B rows ≈ products), write C.
    let bytes = (ctx.a.nnz() as f64 + ctx.b.nnz() as f64) * 12.0
        + ctx.intermediate_total as f64 * 12.0
        + ctx.output_total as f64 * 12.0;
    let memory_s = bytes / (cpu.mem_bandwidth_gbs * cpu.scatter_efficiency * 1e9);

    // Imbalance stretches the critical path whichever resource binds: the
    // busiest thread finishes last and its memory traffic trails with it.
    let total_ms = compute_s.max(memory_s) / efficiency.max(0.05) * 1e3;
    Ok(SpgemmRun {
        method: "MKL".to_string(),
        result,
        profiles: Vec::new(),
        preprocess_ms: 0.0,
        total_ms,
        flops: ctx.flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::rmat::{rmat, RmatConfig};

    #[test]
    fn produces_correct_result_and_positive_time() {
        let a = rmat(RmatConfig::uniform(8, 6, 7)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::MklLike, &DeviceConfig::titan_xp()).unwrap();
        let oracle = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
        assert!(r.result.approx_eq(&oracle, 1e-9));
        assert!(r.total_ms > 0.0);
        assert!(r.profiles.is_empty());
    }

    #[test]
    fn skew_reduces_parallel_efficiency() {
        // Arrow-ish matrix: row 0 spans H columns, every other row holds a
        // single entry — one thread inherits the whole hub row while the
        // rest idle.
        let n = 1000usize;
        let h = 500usize;
        let mut ptr = vec![0usize; n + 1];
        let mut idx: Vec<u32> = (0..h as u32).collect();
        ptr[1] = h;
        for r in 1..n {
            idx.push((n - 1) as u32);
            ptr[r + 1] = ptr[r] + 1;
        }
        let val = vec![1.0f64; idx.len()];
        let skewed = br_sparse::CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();
        let ctx_s = ProblemContext::new(&skewed, &skewed).unwrap();
        let rs = run_method(&ctx_s, SpgemmMethod::MklLike, &DeviceConfig::titan_xp()).unwrap();

        let uniform = br_datasets::mesh::banded(n, 16, 2, 1).to_csr();
        let ctx_u = ProblemContext::new(&uniform, &uniform).unwrap();
        let ru = run_method(&ctx_u, SpgemmMethod::MklLike, &DeviceConfig::titan_xp()).unwrap();

        // ms per byte of traffic must be worse for the skewed problem: its
        // critical path is one thread long.
        let traffic = |c: &ProblemContext<f64>| {
            (c.a.nnz() + c.b.nnz() + c.intermediate_total as usize + c.output_total) as f64
        };
        let per_s = rs.total_ms / traffic(&ctx_s);
        let per_u = ru.total_ms / traffic(&ctx_u);
        assert!(per_s > 2.0 * per_u, "{per_s} vs {per_u}");
    }

    #[test]
    fn more_cores_is_faster_on_balanced_work() {
        let a = rmat(RmatConfig::uniform(10, 8, 5)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let small = CpuConfig {
            cores: 4,
            threads: 8,
            ..CpuConfig::xeon_e5_2640v4()
        };
        let big = CpuConfig {
            cores: 20,
            threads: 40,
            mem_bandwidth_gbs: 120.0,
            ..CpuConfig::xeon_e5_2640v4()
        };
        let bins = BinThresholds::recommended(a.ncols());
        let rs = run_on_cpu(&ctx, &small, bins).unwrap();
        let rb = run_on_cpu(&ctx, &big, bins).unwrap();
        assert!(rb.total_ms < rs.total_ms);
    }
}
