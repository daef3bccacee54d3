//! # br-service — a concurrent spGEMM job service with plan reuse
//!
//! The Block Reorganizer pays a preprocessing cost on every multiplication:
//! workload precalculation, dominator/low-performer classification, and the
//! B-Splitting/B-Gathering index rewrites (paper Sections IV-B/C). In the
//! large-sparse-network workloads the paper targets, the *same* matrix is
//! multiplied over and over (`A·A`, iterative link analysis) — the
//! amortization opportunity that estimation-based systems such as OCEAN
//! (arXiv:2604.19004) and reordering-based SpGEMM (arXiv:2507.21253)
//! exploit by separating analysis from execution.
//!
//! This crate is the serving layer that cashes that opportunity in:
//!
//! * [`chain::ChainRequest`] — the one request type. A plain job is the
//!   one-step program `C = A·B` ([`chain::ChainRequest::multiply`],
//!   [`chain::ChainRequest::square`]); a chain is a multi-step
//!   [`br_workloads::ChainProgram`]. Its [`chain::RequestKind`] only picks
//!   what the outside sees: the wire frame, the batch line, span names, the
//!   `br_chain_*` counts, and the wording of failures.
//! * [`engine::Engine`] — the one request path every submission takes:
//!   [`engine::Engine::run_chain`] runs a request step by step, each step
//!   plan-cache key → single-flight plan build → Cold/Cached execution
//!   ([`engine::Engine::run`]). It owns the plan cache, the
//!   [`block_reorganizer::PlanSettings`] every plan is built under, and the
//!   registry handles; a worker thread brings its own [`engine::Worker`]
//!   (simulated device plus merge scratch).
//! * [`queue::JobQueue`] — a blocking MPMC queue with two priority lanes
//!   ([`queue::Lane`]), an optional combined bound, and a held worker gate,
//!   feeding a pool of workers, one simulated device
//!   ([`br_gpu_sim::sim::GpuSimulator`]) per worker.
//! * [`cache::PlanCache`] — an LRU cache of
//!   [`block_reorganizer::plan::ReorgPlan`] artifacts keyed by the
//!   operands' sparsity signature (dims, nnz, pointer/index hash), the
//!   device, and the plan settings' fingerprint. Hits skip precalculation
//!   and the host-side B-Splitting cost entirely.
//! * [`service::SpgemmService`] — the one worker pool: a `&self`
//!   submission API whose every submission carries its submitter's reply
//!   (the batch collector, or the frame builder of a `br-net` connection),
//!   worker lifecycle, and drain.
//! * [`stats::ServiceStats`] — per-phase latency, queue depth, cache hit
//!   rate, and per-device utilization for one service run, counted per
//!   submission and aggregated per multiplication.
//! * [`job`] — job specs, plus the job-file format consumed by
//!   `blockreorg-cli batch`.
//! * [`operands::OperandCache`] — a server's byte-bounded, single-flight
//!   cache from a canonical matrix source to its loaded matrix, admitting
//!   a source on its second sighting.
//!
//! Observability: every service (and its engine's plan cache) registers
//! its instruments — lifecycle spans rooted at the request's kind
//! (`job/submit`, `job`, `job/plan`, `job/execute` for a plain job;
//! `chain/submit`, `chain`, and `chain/plan`, `chain/execute` per chain
//! step), per-lane queue gauges, the `br_chain_*` step counters (chains
//! only), and cache hit/miss/eviction/single-flight counters — in a
//! [`br_obs::Registry`]. By default each service gets a
//! private registry; pass one via
//! [`service::ServiceConfig::with_registry`] (the CLI uses
//! [`br_obs::global`]) to export them. All queue/cache locks go through
//! [`br_obs::lock_recover`], so a panicking worker can never poison the
//! service into a deadlock.
//!
//! Everything is std-only (threads + mutex/condvar); the crate adds no
//! runtime dependencies beyond the workspace.
//!
//! ```
//! use br_service::prelude::*;
//! use br_datasets::rmat::{rmat, RmatConfig};
//! use std::sync::Arc;
//!
//! let a = Arc::new(rmat(RmatConfig::snap_like(8, 6, 7)).to_csr());
//! let jobs = (0..4).map(|id| ChainRequest::square(id, a.clone()));
//! let batch = SpgemmService::run_batch(ServiceConfig::default(), jobs);
//! assert_eq!(batch.outcomes.len(), 4);
//! assert!(batch.stats.cache.hits >= 3, "repeats reuse the plan");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chain;
pub mod engine;
pub mod job;
pub mod operands;
pub mod queue;
pub mod service;
pub mod stats;

/// Convenient glob-import surface for the CLI and tests.
pub mod prelude {
    pub use crate::cache::{CacheStats, PlanCache, PlanKey};
    pub use crate::chain::{
        register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, Inputs,
        RequestKind, StepOutcome,
    };
    pub use crate::engine::{Engine, RunOutcome, Worker};
    pub use crate::job::{
        expand_submissions, parse_job_file, JobError, JobKeys, JobSpec, MatrixSource,
    };
    pub use crate::operands::OperandCache;
    pub use crate::queue::{JobQueue, Lane, PushError};
    pub use crate::service::{
        BatchOutcome, Completion, Reply, ServiceConfig, SpgemmService, SubmitError,
    };
    pub use crate::stats::{ServiceStats, WorkerStats};
}

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use chain::{
    register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, Inputs, RequestKind,
    StepOutcome,
};
pub use engine::{Engine, RunOutcome, Worker};
pub use job::JobError;
pub use operands::OperandCache;
pub use queue::{JobQueue, Lane, PushError};
pub use service::{BatchOutcome, Completion, Reply, ServiceConfig, SpgemmService, SubmitError};
pub use stats::{ServiceStats, WorkerStats};
