//! # block-reorganizer — the paper's contribution
//!
//! The **Block Reorganizer** (Lee et al., ICDE 2020) is an optimization pass
//! over outer-product spGEMM with three techniques:
//!
//! 1. **Workload classification** ([`classify`]) — precalculate per-pair
//!    workloads `nnz(a₌ᵢ)·nnz(bᵢ₌)` and bin pairs into *dominators*,
//!    *normal* blocks, and *low performers* (< 32 effective threads).
//! 2. **B-Splitting** ([`split`]) — split each dominator's column vector
//!    into `2ⁿ` pieces via pointer expansion plus a mapper array, spreading
//!    one overloaded block over many SMs and letting the divided blocks
//!    share (and therefore L2-hit) the same row vector.
//! 3. **B-Gathering** ([`gather`]) — compact underloaded blocks into
//!    micro-blocks and pack `32/2ⁿ` of them into one warp-sized block,
//!    restoring lock-step lane utilization and latency hiding.
//! 4. **B-Limiting** ([`limit`]) — during the merge, allocate extra shared
//!    memory to blocks merging long rows so fewer of them co-reside per SM,
//!    trading warp occupancy for L2 bandwidth headroom.
//!
//! [`pass::BlockReorganizer`] runs the full pipeline (precalculation →
//! classification → reorganized expansion → limited merge) on the simulated
//! GPU and returns both the numeric result and per-phase profiles;
//! [`ablate`] reruns it with each technique toggled for Figure 10.
//! [`plan::ReorgPlan`] factors all structure-dependent preprocessing into a
//! reusable, serializable artifact so a serving layer (`br-service`) can
//! cache it and skip the analysis on repeated multiplications.
//!
//! Extensions beyond the paper: [`report::WorkloadReport`] (the Figure 4
//! bins, inspectable before running anything), [`classify::auto_alpha`]
//! (data-driven dominator threshold), [`config::SplitPolicy::Greedy`]
//! (the per-vector factor selection the paper sketches), [`mod@tune`]
//! (per-matrix configuration search over the simulator), and
//! [`mod@reorder`] (deterministic row-reordering strategies — degree,
//! RCM-style, structure-hash clustering — planned once and replayed by
//! the cached plan's simulations; the numeric merge never sees the
//! permutation, so output stays bit-identical).

#![warn(missing_docs)]

pub mod ablate;
pub mod classify;
pub mod config;
pub mod gather;
pub mod limit;
pub mod pass;
pub mod plan;
pub mod reorder;
pub mod report;
pub mod settings;
pub mod split;
pub mod tune;

pub use ablate::{ablation, AblationReport};
pub use classify::{Classification, WorkloadClass};
pub use config::ReorganizerConfig;
pub use pass::{BlockReorganizer, ReorganizerRun};
pub use plan::{PlanMode, ReorgPlan};
pub use reorder::{Permutation, ReorderParseError, ReorderStrategy};
pub use report::WorkloadReport;
pub use settings::PlanSettings;
pub use tune::{tune, TuneResult};
