//! # br-spgemm — spGEMM kernels on the simulated GPU
//!
//! Implements every multiplication scheme the paper evaluates, all as
//! *execution-driven* kernels: each emits [`br_gpu_sim`] cost traces shaped
//! by the true operand structure, so simulated time reflects the
//! algorithm's real memory and compute behaviour, while one adaptive host
//! engine computes the true numeric result for every method.
//!
//! Methods (Figure 8's seven bars, minus the Block Reorganizer which builds
//! on this crate from `crates/core`):
//!
//! * [`methods::row_product`] — the paper's **row-product baseline**:
//!   Gustavson-style expansion (one block per row of `A`, divergent lanes)
//!   plus a dense-accumulator merge.
//! * [`methods::outer_product`] — the **outer-product baseline**: one block
//!   per column/row pair (perfect intra-block balance, block-level skew),
//!   intermediate `Ĉ` in matrix (block-major) form, hence a scatter-heavy
//!   merge.
//! * [`methods::cusparse_like`] — two-phase row-product with a global-memory
//!   hash merge, one warp per row (cuSPARSE's generalised scheme).
//! * [`methods::cusp_esc`] — CUSP's Expand–Sort–Compress: flat expansion,
//!   multi-pass radix sort of `Ĉ`, then segmented reduction.
//! * [`methods::bhsparse_like`] — bhSPARSE's hybrid: rows binned by
//!   upper-bound product count, small bins merged in shared memory, large
//!   rows in global memory.
//! * [`methods::mkl_like`] — multithreaded CPU Gustavson under an analytic
//!   CPU cost model, in the same simulated-time domain.
//! * [`methods::ac_like`] — AC-spGEMM's chunked row product, an extension
//!   beyond Figure 8 ([`SpgemmMethod::AcLike`]).
//!
//! Supporting modules: [`context`] (per-problem symbolic precomputation
//! shared across methods), [`workspace`] (device-memory layout),
//! [`expansion`] / [`merge`] (trace generators), [`accum`] (the adaptive
//! row-binned host merge engine with reusable scratch — the one numeric
//! path, bit-identical to the Gustavson oracle), [`numeric`] (its default
//! worker count), [`estimate`] (the seeded sampling estimator the planner uses
//! for per-problem method selection and bin thresholds), and [`pipeline`]
//! (the run orchestrator producing [`pipeline::SpgemmRun`], and the one
//! method-to-launches table [`SpgemmMethod::launches`]).

#![warn(missing_docs)]

pub mod accum;
pub mod context;
pub mod estimate;
pub mod expansion;
pub mod merge;
pub mod methods;
pub mod numeric;
pub mod pipeline;
pub mod workspace;

pub use accum::{BinThresholds, MergeScratch, RowBin, RowBins, ScratchPool};
pub use context::ProblemContext;
pub use estimate::{EstimatorConfig, MethodChoice, WorkloadEstimate};
pub use pipeline::{run_method, SpgemmMethod, SpgemmRun};
pub use workspace::Workspace;
