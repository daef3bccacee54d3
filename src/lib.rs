//! # blockreorg — facade crate
//!
//! One-stop re-export of the whole workspace: sparse formats, dataset
//! generators, the GPU performance model, the spGEMM kernel zoo, and the
//! Block Reorganizer optimization pass reproduced from
//! *"Optimization of GPU-based Sparse Matrix Multiplication for Large Sparse
//! Networks"* (Lee et al., ICDE 2020).
//!
//! ```
//! use blockreorg::prelude::*;
//!
//! // Build a small power-law graph, square it with the Block Reorganizer
//! // pipeline on a simulated Titan Xp, and check against the CPU oracle.
//! let a = rmat(RmatConfig::snap_like(10, 8, 42)).to_csr();
//! let device = DeviceConfig::titan_xp();
//! let run = BlockReorganizer::new(ReorganizerConfig::default())
//!     .multiply(&a, &a, &device)
//!     .unwrap();
//! let oracle = spgemm_gustavson(&a, &a).unwrap();
//! let mut c = run.result;
//! c.sort_rows();
//! assert!(c.approx_eq(&oracle, 1e-9));
//! ```

#![warn(missing_docs)]

pub use block_reorganizer;
pub use br_bench as bench;
pub use br_datasets as datasets;
pub use br_gpu_sim as gpu_sim;
pub use br_net as net;
pub use br_obs as obs;
pub use br_service as service;
pub use br_sparse as sparse;
pub use br_spgemm as spgemm;
pub use br_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use block_reorganizer::{
        AblationReport, BlockReorganizer, PlanMode, PlanSettings, ReorderStrategy, ReorgPlan,
        ReorganizerConfig, WorkloadClass,
    };
    pub use br_datasets::registry::{DatasetSpec, RealWorldRegistry};
    pub use br_datasets::rmat::{rmat, RmatConfig};
    pub use br_gpu_sim::device::DeviceConfig;
    pub use br_service::{
        BatchOutcome, CacheStats, ChainOutcome, ChainRequest, Engine, PlanCache, PlanKey,
        RequestKind, ServiceConfig, ServiceStats, SpgemmService, Worker,
    };
    pub use br_sparse::ops::{multiply_flops, spgemm_gustavson};
    pub use br_sparse::stats::DegreeStats;
    pub use br_sparse::{CooMatrix, CscMatrix, CsrMatrix, Scalar};
    pub use br_spgemm::pipeline::{SpgemmMethod, SpgemmRun};
    pub use br_workloads::{ChainProgram, ChainStep, Operand, PostOp, Workload};
}
