//! Run orchestration: execute a method's kernels on a device, collect
//! phase profiles, and report the paper's metrics (time, GFLOPS).
//!
//! Timing convention follows Section V: "All experimental results include
//! the overhead, except the data transfer time between host and the device"
//! — so preprocessing (simulated on GPU or host) counts, transfers don't.

use crate::accum::BinThresholds;
use crate::context::ProblemContext;
use crate::methods;
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::profiler::KernelProfile;
use br_gpu_sim::sim::GpuSimulator;
use br_gpu_sim::trace::{KernelLaunch, MemoryLayout};
use br_sparse::{CsrMatrix, Scalar};

/// The baseline method zoo (the Block Reorganizer is added by
/// `crates/core`, which builds on the same plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpgemmMethod {
    /// Row-product expansion + Gustavson merge — the paper's primary
    /// baseline (all Figure 8 numbers are normalized to it).
    RowProduct,
    /// Outer-product expansion + matrix-form merge — the scheme the Block
    /// Reorganizer optimizes.
    OuterProduct,
    /// cuSPARSE-like: two-phase row-product, warp per row, hash merge.
    CusparseLike,
    /// CUSP-like: expand–sort–compress.
    CuspEsc,
    /// bhSPARSE-like: bin-by-upper-bound hybrid row-product.
    BhsparseLike,
    /// Intel MKL-like multithreaded CPU Gustavson.
    MklLike,
}

impl SpgemmMethod {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            SpgemmMethod::RowProduct => "row-product",
            SpgemmMethod::OuterProduct => "outer-product",
            SpgemmMethod::CusparseLike => "cuSPARSE",
            SpgemmMethod::CuspEsc => "CUSP",
            SpgemmMethod::BhsparseLike => "bhSPARSE",
            SpgemmMethod::MklLike => "MKL",
        }
    }

    /// All six baselines in Figure 8 legend order.
    pub fn all() -> [SpgemmMethod; 6] {
        [
            SpgemmMethod::RowProduct,
            SpgemmMethod::OuterProduct,
            SpgemmMethod::CusparseLike,
            SpgemmMethod::CuspEsc,
            SpgemmMethod::BhsparseLike,
            SpgemmMethod::MklLike,
        ]
    }
}

/// Outcome of one simulated multiplication.
#[derive(Debug, Clone)]
pub struct SpgemmRun<T> {
    /// Method display name.
    pub method: String,
    /// The numeric result (canonical CSR), really computed by the method's
    /// own merge arithmetic.
    pub result: CsrMatrix<T>,
    /// Per-kernel profiles (expansion, merge, preprocessing kernels …).
    pub profiles: Vec<KernelProfile>,
    /// Host-side preprocessing time in ms (0 for most methods; B-Splitting
    /// preprocessing for the reorganizer).
    pub preprocess_ms: f64,
    /// Total time in ms (kernels + preprocessing).
    pub total_ms: f64,
    /// FLOP count (`2·nnz(Ĉ)`).
    pub flops: u64,
}

impl<T> SpgemmRun<T> {
    /// Sum of kernel times in ms.
    pub fn kernel_ms(&self) -> f64 {
        self.profiles.iter().map(|p| p.time_ms).sum()
    }

    /// Achieved GFLOPS over the total time — the Figure 9 metric.
    pub fn gflops(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.flops as f64 / (self.total_ms * 1e-3) / 1e9
        }
    }

    /// Time of the profile whose name contains `tag`, in ms (0 if absent).
    pub fn phase_ms(&self, tag: &str) -> f64 {
        self.profiles
            .iter()
            .filter(|p| p.name.contains(tag))
            .map(|p| p.time_ms)
            .sum()
    }
}

/// Executes a sequence of launches (shared L2, starting cold) and
/// assembles a run.
pub fn assemble_run<T: Scalar>(
    method: &str,
    result: CsrMatrix<T>,
    launches: &[KernelLaunch],
    layout: &MemoryLayout,
    device: &DeviceConfig,
    preprocess_ms: f64,
    flops: u64,
) -> SpgemmRun<T> {
    let profiles = GpuSimulator::new(device.clone()).run_sequence(launches, layout);
    let kernel_ms: f64 = profiles.iter().map(|p| p.time_ms).sum();
    SpgemmRun {
        method: method.to_string(),
        result,
        profiles,
        preprocess_ms,
        total_ms: kernel_ms + preprocess_ms,
        flops,
    }
}

/// Runs one baseline method on one device. Methods whose host numerics
/// run the adaptive merge bin rows under [`BinThresholds::recommended`].
pub fn run_method<T: Scalar>(
    ctx: &ProblemContext<T>,
    method: SpgemmMethod,
    device: &DeviceConfig,
) -> br_sparse::Result<SpgemmRun<T>> {
    run_method_binned(
        ctx,
        method,
        device,
        BinThresholds::recommended(ctx.b.ncols()),
    )
}

/// [`run_method`] with the host merge's row-bin thresholds given. Bins
/// choose which merge kernel handles a row on the host; they never change
/// the result or the simulated launches.
pub fn run_method_binned<T: Scalar>(
    ctx: &ProblemContext<T>,
    method: SpgemmMethod,
    device: &DeviceConfig,
    thresholds: BinThresholds,
) -> br_sparse::Result<SpgemmRun<T>> {
    match method {
        SpgemmMethod::RowProduct => methods::row_product::run(ctx, device, thresholds),
        SpgemmMethod::OuterProduct => methods::outer_product::run(ctx, device, thresholds),
        SpgemmMethod::CusparseLike => methods::cusparse_like::run(ctx, device),
        SpgemmMethod::CuspEsc => methods::cusp_esc::run(ctx, device),
        SpgemmMethod::BhsparseLike => methods::bhsparse_like::run(ctx, device),
        SpgemmMethod::MklLike => methods::mkl_like::run(ctx, device, thresholds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_sparse::ops::spgemm_gustavson;

    fn problem() -> ProblemContext<f64> {
        let a = rmat(RmatConfig::snap_like(8, 6, 17)).to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn every_method_computes_the_oracle_result() {
        let ctx = problem();
        let oracle = spgemm_gustavson(&ctx.a, &ctx.b).unwrap();
        let dev = DeviceConfig::titan_xp();
        for m in SpgemmMethod::all() {
            let run = run_method(&ctx, m, &dev).unwrap();
            assert_eq!(
                run.result.ptr(),
                oracle.ptr(),
                "{} structure differs",
                m.name()
            );
            assert!(
                run.result.approx_eq(&oracle, 1e-9),
                "{} values differ",
                m.name()
            );
        }
    }

    #[test]
    fn every_gpu_method_produces_positive_time_and_profiles() {
        let ctx = problem();
        let dev = DeviceConfig::titan_xp();
        for m in SpgemmMethod::all() {
            let run = run_method(&ctx, m, &dev).unwrap();
            assert!(run.total_ms > 0.0, "{} has zero time", m.name());
            assert!(run.gflops() > 0.0);
            if m != SpgemmMethod::MklLike {
                assert!(!run.profiles.is_empty(), "{} has no profiles", m.name());
            }
        }
    }

    #[test]
    fn method_names_match_figure_legend() {
        let names: Vec<_> = SpgemmMethod::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "row-product",
                "outer-product",
                "cuSPARSE",
                "CUSP",
                "bhSPARSE",
                "MKL"
            ]
        );
    }

    #[test]
    fn phase_split_is_reported() {
        let ctx = problem();
        let dev = DeviceConfig::titan_xp();
        let run = run_method(&ctx, SpgemmMethod::OuterProduct, &dev).unwrap();
        assert!(run.phase_ms("expansion") > 0.0);
        assert!(run.phase_ms("merge") > 0.0);
        let sum = run.phase_ms("expansion") + run.phase_ms("merge");
        assert!((sum - run.kernel_ms()).abs() < 1e-9);
    }
}
