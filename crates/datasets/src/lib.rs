//! # br-datasets — sparse-network generators and the paper's dataset suites
//!
//! The paper evaluates on 28 real-world matrices (Table II: 19 Florida
//! SuiteSparse + 9 SNAP graphs) and on synthetic R-MAT families (Table III).
//! We do not ship the real files; instead this crate provides:
//!
//! * [`mod@rmat`] — the R-MAT recursive generator (Chakrabarti et al., SDM'04),
//!   the same model the paper uses for Table III.
//! * [`mod@chung_lu`] — a power-law (Chung–Lu) generator used for SNAP-graph
//!   surrogates, where hub degree must be controlled independently of size.
//! * [`mod@mesh`] — quasi-regular generators (3-D stencils, banded matrices)
//!   used for Florida FEM-style surrogates.
//! * [`registry`] — the Table II registry: every dataset's *published*
//!   dimension/nnz plus a surrogate recipe in the same distribution class,
//!   generated at a configurable scale.
//! * [`synthetic`] — Table III: the S (scalability), P (skewness) and
//!   SP (sparsity) families for `C = A²` and the scale-15…18 pairs for
//!   `C = AB`.
//!
//! All generators are deterministic given a seed. If genuine `.mtx` files
//! are available, `br_sparse::io` loads them and the registry can be
//! bypassed entirely.

#![warn(missing_docs)]

pub mod chung_lu;
pub mod mesh;
pub mod registry;
pub mod rmat;
pub mod synthetic;

pub use registry::{DatasetClass, DatasetSpec, RealWorldRegistry, ScaleFactor};
pub use rmat::{rmat, RmatConfig};
