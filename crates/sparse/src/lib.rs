//! # br-sparse — sparse matrix substrate
//!
//! Sparse matrix formats and reference algorithms used throughout the
//! Block Reorganizer reproduction:
//!
//! * [`CooMatrix`] — coordinate (triplet) format, the assembly format.
//! * [`CsrMatrix`] — compressed sparse row, the canonical compute format.
//! * [`CscMatrix`] — compressed sparse column; the outer-product scheme reads
//!   columns of `A`, so `A` is held in CSC during expansion.
//! * Matrix Market I/O ([`io`]) so genuine SuiteSparse/SNAP files can be used
//!   where available.
//! * CPU reference kernels ([`ops`]) — most importantly a sequential
//!   Gustavson spGEMM that acts as the correctness oracle for every simulated
//!   GPU kernel in the workspace.
//! * Distribution statistics ([`stats`]) — degree skew metrics used for
//!   dataset characterisation (regular vs power-law, Table II).
//! * Deterministic host parallelism ([`par`]) — fixed-chunk scoped-thread
//!   helpers whose results are bit-identical at any thread count, used by
//!   the simulator, the numeric merge, and the benchmark runner.
//! * Element-wise chain operators ([`eltwise`]) — pattern masking, column
//!   normalisation, and threshold pruning, the deterministic post-ops of
//!   the `br-workloads` chain executor.
//! * The one hash and PRNG ([`hash`]) — FNV-1a and splitmix64, behind
//!   every fingerprint and seed in the workspace.
//!
//! Index convention: column indices are `u32` (matching what the paper's
//! CUDA kernels would use on-device); row/column pointer arrays are `usize`.
//! Values are generic over [`Scalar`] (`f32` or `f64`).

#![warn(missing_docs)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod eltwise;
pub mod error;
pub mod hash;
pub mod io;
pub mod ops;
pub mod par;
pub mod scalar;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use scalar::Scalar;

/// Result alias for fallible sparse-matrix operations.
pub type Result<T> = std::result::Result<T, SparseError>;
