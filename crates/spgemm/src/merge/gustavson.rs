//! Gustavson dense-accumulator merge (Section III-A.3).
//!
//! One thread block per non-empty output row: the block streams the row's
//! intermediate products from `Ĉ`, accumulates them into a dense scratch
//! array with atomics ("we used atomic functions to manage parallel
//! execution"), then writes the unique entries to `C`.
//!
//! Two knobs reproduce the paper's observations:
//!
//! * `chat_row_major` — when the expansion left `Ĉ` in block-major (plain
//!   outer product) form, the row's products are scattered across the whole
//!   intermediate array and the reads become random ("full matrix-wise
//!   accumulation may be slower than row-wise accumulation owing to the
//!   additional column address indexing").
//! * `extra_smem_for_row` — B-Limiting: extra shared memory allocated to
//!   blocks merging long rows, reducing how many such blocks co-reside on
//!   an SM (Figure 7).

use crate::context::ProblemContext;
use crate::workspace::{Workspace, ELEM_BYTES};
use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;

/// Builds the merge launch.
///
/// `extra_smem_for_row(r)` returns the *additional* shared-memory bytes for
/// the block merging row `r` (0 disables limiting for that row).
pub fn gustavson_merge_launch<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    block_size: u32,
    chat_row_major: bool,
    extra_smem_for_row: impl Fn(usize) -> u32,
) -> KernelLaunch {
    gustavson_merge_launch_filtered(
        ctx,
        ws,
        block_size,
        chat_row_major,
        extra_smem_for_row,
        |_| false,
    )
}

/// [`gustavson_merge_launch`] minus the rows `skip` claims — the
/// bin-dispatched merge routes those through the k-way tournament kernel
/// instead. Output offsets still advance over *every* productive row, so
/// each block writes to the same `C` slice it would in the unfiltered
/// launch; with a never-skip predicate the launch is identical to
/// [`gustavson_merge_launch`].
#[allow(clippy::needless_range_loop)] // r is the row id, used across several per-row arrays
pub fn gustavson_merge_launch_filtered<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    block_size: u32,
    chat_row_major: bool,
    extra_smem_for_row: impl Fn(usize) -> u32,
    skip: impl Fn(usize) -> bool,
) -> KernelLaunch {
    let chat_rows = ctx.chat_row_offsets();
    let mut c_written = 0u64;
    let mut blocks = Vec::new();
    for r in 0..ctx.nrows() {
        let products = ctx.row_products[r];
        if products == 0 {
            continue;
        }
        if skip(r) {
            c_written += ctx.row_unique()[r] as u64;
            continue;
        }
        let unique = ctx.row_unique()[r] as u64;
        let effective = products.min(block_size as u64) as u32;
        let coarsen = products.div_ceil(block_size as u64).max(1);
        let (acc_off, acc_len) = ws.accum_slice(blocks.len());
        let conflict = products as f64 / unique.max(1) as f64;

        let mut tb = TraceBuilder::new(block_size, effective)
            // Index comparison / accumulation bookkeeping per product.
            .compute(coarsen)
            .barriers(2)
            .shared_mem(extra_smem_for_row(r))
            // Accumulate every product with an atomic into the dense array.
            .atomic_scatter(ws.accum, acc_off, acc_len, products, 8, conflict)
            // Gather the unique entries back out and stream them to C.
            .gather(ws.accum, acc_off, acc_len, unique, 8)
            .write(ws.c_data, c_written * ELEM_BYTES, unique * ELEM_BYTES);
        tb = if chat_row_major {
            tb.read(ws.chat, chat_rows[r] * ELEM_BYTES, products * ELEM_BYTES)
        } else {
            // Block-major Ĉ: this row's products are strewn across the
            // entire intermediate array.
            tb.gather(
                ws.chat,
                0,
                ctx.intermediate_total.max(1) * ELEM_BYTES,
                products,
                ELEM_BYTES as u32,
            )
        };
        blocks.push(tb.build());
        c_written += unique;
    }
    KernelLaunch::new("gustavson-merge", blocks)
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
    fn one_block_per_productive_row_and_atomics_cover_products() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let k = gustavson_merge_launch(&c, &ws, 256, true, |_| 0);
        assert_eq!(k.blocks.len(), 3);
        let atomics: u64 = k.blocks.iter().map(|b| b.atomics).sum();
        assert_eq!(atomics, c.intermediate_total);
    }

    #[test]
    fn output_writes_cover_nnz_c() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let k = gustavson_merge_launch(&c, &ws, 256, true, |_| 0);
        let c_bytes: u64 = k
            .blocks
            .iter()
            .flat_map(|b| &b.segments)
            .filter(|s| s.write && !s.atomic && s.region == ws.c_data)
            .map(|s| s.bytes)
            .sum();
        assert_eq!(c_bytes, c.output_total() as u64 * ELEM_BYTES);
    }

    #[test]
    fn block_major_reads_are_random_row_major_coalesced() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let row = gustavson_merge_launch(&c, &ws, 256, true, |_| 0);
        let blockm = gustavson_merge_launch(&c, &ws, 256, false, |_| 0);
        let is_random = |b: &br_gpu_sim::trace::BlockTrace| {
            b.segments.iter().any(|s| {
                s.region == ws.chat
                    && matches!(s.pattern, br_gpu_sim::trace::AccessPattern::Random { .. })
            })
        };
        assert!(row.blocks.iter().all(|b| !is_random(b)));
        assert!(blockm.blocks.iter().all(is_random));
    }

    #[test]
    fn limiting_sets_extra_shared_memory_selectively() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        // Limit only row 0.
        let k = gustavson_merge_launch(&c, &ws, 256, true, |r| if r == 0 { 4 * 6144 } else { 0 });
        assert_eq!(k.blocks[0].shared_mem_bytes, 4 * 6144);
        assert!(k.blocks[1..].iter().all(|b| b.shared_mem_bytes == 0));
    }

    #[test]
    fn atomic_conflict_is_duplicates_per_output() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let k = gustavson_merge_launch(&c, &ws, 256, true, |_| 0);
        for (b, r) in k.blocks.iter().zip([0usize, 1, 2]) {
            let expect = c.row_products[r] as f64 / c.row_unique()[r].max(1) as f64;
            assert!((b.atomic_conflict - expect).abs() < 1e-9);
        }
    }
}
