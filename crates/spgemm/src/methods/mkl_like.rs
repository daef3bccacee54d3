//! MKL-like CPU baseline: multithreaded Gustavson under an analytic CPU
//! cost model, in the same simulated-time domain as the GPU methods. The
//! host result comes from the adaptive engine like every other baseline's;
//! this module owns only the cost model.
//!
//! `mkl_sparse_spmm` parallelises Gustavson over row blocks. The cost model
//! is roofline-style: compute time (MACs over aggregate MAC throughput,
//! degraded by indexing-heavy gathers) versus memory time (operand + output
//! traffic over socket bandwidth), plus a parallel-efficiency factor for
//! load imbalance across threads on skewed data.

use crate::context::ProblemContext;
use br_gpu_sim::device::CpuConfig;
use br_sparse::Scalar;

/// Modelled time in ms of the multiplication on `cpu`.
pub fn time_ms<T: Scalar>(ctx: &ProblemContext<T>, cpu: &CpuConfig) -> f64 {
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
        + ctx.output_total() as f64 * 12.0;
    let memory_s = bytes / (cpu.mem_bandwidth_gbs * cpu.scatter_efficiency * 1e9);

    // Imbalance stretches the critical path whichever resource binds: the
    // busiest thread finishes last and its memory traffic trails with it.
    compute_s.max(memory_s) / efficiency.max(0.05) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn produces_correct_result_and_positive_time() {
        let a = rmat(RmatConfig::uniform(8, 6, 7)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::MklLike, &DeviceConfig::titan_xp()).unwrap();
        let oracle = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(r.result, oracle);
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
            (c.a.nnz() + c.b.nnz() + c.intermediate_total as usize + c.output_total()) as f64
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
        assert!(time_ms(&ctx, &big) < time_ms(&ctx, &small));
    }
}
