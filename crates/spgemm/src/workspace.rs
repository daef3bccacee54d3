//! Device-memory layout of one spGEMM invocation.
//!
//! Mirrors what the CUDA implementation would `cudaMalloc`: the operand
//! arrays, the intermediate matrix `Ĉ` (sized by the precalculated
//! `nnz(Ĉ)` — "Block reorganizer first calculates nnz(Ĉ) to allocate the
//! upper bound memory space", Section IV-B), the output `C`, and the dense
//! accumulator scratch used by the Gustavson merge.
//!
//! Sparse elements are modelled as 12 bytes (4-byte column index + 8-byte
//! value); pointer arrays as 8 bytes per entry.

use crate::context::ProblemContext;
use br_gpu_sim::trace::{MemoryLayout, RegionId};
use br_sparse::Scalar;

/// Bytes per stored sparse element (u32 index + f64 value).
pub const ELEM_BYTES: u64 = 12;
/// Bytes per row/column pointer entry.
pub const PTR_BYTES: u64 = 8;
/// Bytes per dense-accumulator slot.
pub const ACC_BYTES: u64 = 8;
/// Dense-accumulator slices allocated (bounded by resident merge blocks).
pub const ACC_SLICES: u64 = 64;

/// Region handles for one multiplication.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// The flat address map handed to the simulator.
    pub layout: MemoryLayout,
    /// `A` in CSR element order (idx+val interleaved).
    pub a_data: RegionId,
    /// `A` in CSC element order.
    pub a_csc_data: RegionId,
    /// `A` row/column pointers.
    pub a_ptr: RegionId,
    /// `B` in CSR element order.
    pub b_data: RegionId,
    /// `B` row pointers.
    pub b_ptr: RegionId,
    /// Intermediate `Ĉ` elements.
    pub chat: RegionId,
    /// Output `C` elements.
    pub c_data: RegionId,
    /// Dense accumulator scratch (`ACC_SLICES` slices of `ncols` slots).
    pub accum: RegionId,
    /// Columns of the output (accumulator slice length in slots).
    ncols: u64,
}

impl Workspace {
    /// Lays out all regions for the given problem.
    pub fn for_context<T: Scalar>(ctx: &ProblemContext<T>) -> Self {
        let mut layout = MemoryLayout::new();
        let a_data = layout.alloc(ctx.a.nnz() as u64 * ELEM_BYTES);
        let a_csc_data = layout.alloc(ctx.a.nnz() as u64 * ELEM_BYTES);
        let a_ptr = layout.alloc((ctx.a.nrows() as u64 + 1) * PTR_BYTES);
        let b_data = layout.alloc(ctx.b.nnz() as u64 * ELEM_BYTES);
        let b_ptr = layout.alloc((ctx.b.nrows() as u64 + 1) * PTR_BYTES);
        let chat = layout.alloc(ctx.intermediate_total.max(1) * ELEM_BYTES);
        let c_data = layout.alloc(ctx.output_total().max(1) as u64 * ELEM_BYTES);
        let ncols = ctx.ncols() as u64;
        let accum = layout.alloc(ncols.max(1) * ACC_BYTES * ACC_SLICES);
        Workspace {
            layout,
            a_data,
            a_csc_data,
            a_ptr,
            b_data,
            b_ptr,
            chat,
            c_data,
            accum,
            ncols,
        }
    }

    /// Byte offset of CSR row `r` of `A` within [`Workspace::a_data`].
    pub fn a_row_offset<T: Scalar>(&self, ctx: &ProblemContext<T>, r: usize) -> u64 {
        ctx.a.ptr()[r] as u64 * ELEM_BYTES
    }

    /// Byte offset of CSC column `i` of `A` within [`Workspace::a_csc_data`].
    pub fn a_col_offset<T: Scalar>(&self, ctx: &ProblemContext<T>, i: usize) -> u64 {
        ctx.a_csc.ptr()[i] as u64 * ELEM_BYTES
    }

    /// Byte offset of CSR row `i` of `B` within [`Workspace::b_data`].
    pub fn b_row_offset<T: Scalar>(&self, ctx: &ProblemContext<T>, i: usize) -> u64 {
        ctx.b.ptr()[i] as u64 * ELEM_BYTES
    }

    /// Accumulator slice for merge block `block_id`: `(offset, len_bytes)`.
    pub fn accum_slice(&self, block_id: usize) -> (u64, u64) {
        let slice_bytes = self.ncols.max(1) * ACC_BYTES;
        let slot = block_id as u64 % ACC_SLICES;
        (slot * slice_bytes, slice_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::CsrMatrix;

    fn ctx() -> ProblemContext<f64> {
        let a = CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn regions_are_distinct_and_sized() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        assert_eq!(ws.layout.size(ws.a_data), 5 * ELEM_BYTES);
        assert_eq!(ws.layout.size(ws.chat), c.intermediate_total * ELEM_BYTES);
        assert_ne!(ws.layout.base(ws.a_data), ws.layout.base(ws.b_data));
        assert_eq!(ws.layout.size(ws.accum), 3 * ACC_BYTES * ACC_SLICES);
    }

    #[test]
    fn offsets_follow_pointers() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        assert_eq!(ws.a_row_offset(&c, 0), 0);
        assert_eq!(ws.a_row_offset(&c, 2), 3 * ELEM_BYTES);
        assert_eq!(ws.b_row_offset(&c, 1), 2 * ELEM_BYTES);
        // CSC of a: col0 has 2 entries (rows 0,2), col1 has 2, col2 has 1
        assert_eq!(ws.a_col_offset(&c, 1), 2 * ELEM_BYTES);
        assert_eq!(ws.a_col_offset(&c, 2), 4 * ELEM_BYTES);
    }

    #[test]
    fn accum_slices_wrap_around() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let (o0, len) = ws.accum_slice(0);
        let (o64, _) = ws.accum_slice(ACC_SLICES as usize);
        assert_eq!(o0, o64);
        let (o1, _) = ws.accum_slice(1);
        assert_eq!(o1, len);
    }

    #[test]
    fn empty_problem_still_lays_out() {
        let a = CsrMatrix::<f64>::zeros(2, 2);
        let c = ProblemContext::new(&a, &a).unwrap();
        let ws = Workspace::for_context(&c);
        assert!(ws.layout.footprint() > 0);
    }
}
