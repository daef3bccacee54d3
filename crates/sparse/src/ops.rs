//! CPU reference kernels: spGEMM oracle, symbolic analysis, spMV, addition,
//! and flop accounting.
//!
//! Everything here is *sequential reference* code. The simulated GPU kernels
//! in `br-spgemm` and the Block Reorganizer pass are all validated against
//! these implementations, and these in turn are validated against dense
//! oracles on small inputs.

pub mod flops;
pub mod spgemm_ref;
pub mod symbolic;
pub mod vecops;

pub use flops::{compression_factor, multiply_flops, multiply_ops};
pub use spgemm_ref::{sparse_add, spgemm_gustavson};
pub use symbolic::{
    block_products, intermediate_nnz, row_intermediate_nnz, row_intermediate_nnz_threaded,
    symbolic_nnz, symbolic_runs,
};
pub use vecops::{spmv, spmv_transpose};
