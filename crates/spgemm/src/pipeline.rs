//! Run orchestration: execute a method's kernels on a device, collect
//! phase profiles, and report the paper's metrics (time, GFLOPS).
//!
//! Timing convention follows Section V: "All experimental results include
//! the overhead, except the data transfer time between host and the device"
//! — so preprocessing (simulated on GPU or host) counts, transfers don't.
//!
//! Every baseline's simulated time comes from its own launch stream
//! ([`SpgemmMethod::launches`]); its host result comes from the one adaptive
//! engine ([`crate::accum::spgemm_adaptive`]), bit-identical to the
//! Gustavson oracle.

use crate::accum::{spgemm_adaptive, BinThresholds};
use crate::context::ProblemContext;
use crate::methods;
use crate::workspace::Workspace;
use br_gpu_sim::device::{CpuConfig, DeviceConfig};
use br_gpu_sim::profiler::KernelProfile;
use br_gpu_sim::sim::GpuSimulator;
use br_gpu_sim::trace::KernelLaunch;
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
    /// AC-spGEMM-like chunked row product — an extension beyond Figure 8,
    /// so [`SpgemmMethod::all`] leaves it out.
    AcLike,
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
            SpgemmMethod::AcLike => "AC-spGEMM",
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

    /// The method's simulated kernel launches against a prepared
    /// workspace — the one method-to-launches table, shared by
    /// [`run_method`] and the planner's method dispatch. The
    /// MKL-like baseline runs on the host CPU and launches nothing.
    pub fn launches<T: Scalar>(self, ctx: &ProblemContext<T>, ws: &Workspace) -> Vec<KernelLaunch> {
        match self {
            SpgemmMethod::RowProduct => methods::row_product::launches(ctx, ws),
            SpgemmMethod::OuterProduct => methods::outer_product::launches(ctx, ws),
            SpgemmMethod::CusparseLike => methods::cusparse_like::launches(ctx, ws),
            SpgemmMethod::CuspEsc => methods::cusp_esc::launches(ctx, ws),
            SpgemmMethod::BhsparseLike => methods::bhsparse_like::launches(ctx, ws),
            SpgemmMethod::MklLike => Vec::new(),
            SpgemmMethod::AcLike => methods::ac_like::launches(ctx, ws),
        }
    }
}

/// Outcome of one simulated multiplication.
#[derive(Debug, Clone)]
pub struct SpgemmRun<T> {
    /// Method display name.
    pub method: String,
    /// The numeric result (canonical CSR), computed by the adaptive host
    /// engine.
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

/// Runs one baseline method on one device. One simulator runs the
/// method's launches (shared L2, starting cold), and the host merge runs on
/// its thread count, binning rows under [`BinThresholds::recommended`];
/// bins never change the result or the simulated launches.
pub fn run_method<T: Scalar>(
    ctx: &ProblemContext<T>,
    method: SpgemmMethod,
    device: &DeviceConfig,
) -> br_sparse::Result<SpgemmRun<T>> {
    let sim = GpuSimulator::new(device.clone());
    let thresholds = BinThresholds::recommended(ctx.b.ncols());
    let result = spgemm_adaptive(&ctx.a, &ctx.b, sim.threads(), thresholds)?;
    let (profiles, total_ms) = if method == SpgemmMethod::MklLike {
        // The paper's MKL bars do not vary by system, so every device
        // pairs with the System 1 Xeon of Table I.
        let cpu = CpuConfig::xeon_e5_2640v4();
        (Vec::new(), methods::mkl_like::time_ms(ctx, &cpu))
    } else {
        let ws = Workspace::for_context(ctx);
        let profiles = sim.run_sequence(&method.launches(ctx, &ws), &ws.layout);
        let kernel_ms = profiles.iter().map(|p| p.time_ms).sum();
        (profiles, kernel_ms)
    };
    Ok(SpgemmRun {
        method: method.name().to_string(),
        result,
        profiles,
        preprocess_ms: 0.0,
        total_ms,
        flops: ctx.flops,
    })
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
        for m in SpgemmMethod::all()
            .into_iter()
            .chain([SpgemmMethod::AcLike])
        {
            let run = run_method(&ctx, m, &dev).unwrap();
            assert_eq!(run.result, oracle, "{} differs from the oracle", m.name());
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
