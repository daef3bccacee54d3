//! # br-workloads — chained & iterated multiplication workloads
//!
//! The large sparse networks the source paper targets are consumed through
//! *chains* of multiplications, not single products: `A²` reachability,
//! triangle counting (`A² ∘ A`), Markov clustering (iterated squaring with
//! column normalisation and pruning), and the AMG Galerkin triple product
//! `Pᵀ·A·P`. This crate models such chains as data — a [`ChainProgram`]
//! of [`ChainStep`]s over `Arc`-shared CSR matrices, each step one SpGEMM
//! plus deterministic element-wise [`PostOp`]s — and executes them through
//! an *injected* per-step runner, so the same program runs against the
//! sequential Gustavson oracle (tests), the plan-cached `br-service`
//! executor (per-step `PlanKey` lookup), or anything else.
//!
//! The four canonical workloads ship as typed programs
//! ([`Workload::canonical`]); generic chains parse from a line-oriented
//! text format ([`parse_chain_spec`]). Determinism contract: every
//! post-op is bit-identical at any `BR_THREADS` count, and the executor
//! adds no float reductions of its own, so chain results are byte-stable
//! across thread counts and reruns.

#![warn(missing_docs)]

pub mod canonical;
pub mod chain;
pub mod spec;

pub use canonical::{
    aggregation_prolongator, galerkin, markov_cluster, markov_seed, multiply, planted_partition,
    square_k_times, triangle_count, Workload,
};
pub use chain::{ChainError, ChainProgram, ChainRun, ChainStep, Operand, PostOp, StepRecord};
pub use spec::{parse_chain_spec, render_chain_spec};
