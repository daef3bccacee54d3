//! ESC merge: sort `Ĉ` globally, then compress — CUSP's strategy.
//!
//! The sort is a multi-pass LSD radix sort over the (row, column) keys of
//! the intermediate array: every pass streams all of `Ĉ` in and out of
//! global memory, which is why ESC's cost explodes with `nnz(Ĉ)` and why
//! CUSP trails every other method on large inputs (Figure 8, 0.22×).

use crate::context::ProblemContext;
use crate::workspace::{Workspace, ELEM_BYTES};
use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;

/// Radix passes: 8 bits per pass over the 48-bit `(row, column)` composite
/// keys CUSP sorts by.
pub const RADIX_PASSES: usize = 6;

/// Work (elements of `Ĉ`) per sorting block.
const SORT_TILE: u64 = 4096;

/// Builds the ESC merge launches: `RADIX_PASSES` sort kernels followed by a
/// compress (segmented-reduction) kernel.
pub fn esc_merge_launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    block_size: u32,
) -> Vec<KernelLaunch> {
    let total = ctx.intermediate_total;
    let mut launches = Vec::with_capacity(RADIX_PASSES + 1);
    if total == 0 {
        return launches;
    }
    let tiles = total.div_ceil(SORT_TILE);

    for pass in 0..RADIX_PASSES {
        let mut blocks = Vec::with_capacity(tiles as usize);
        for t in 0..tiles {
            let start = t * SORT_TILE;
            let len = SORT_TILE.min(total - start);
            blocks.push(
                TraceBuilder::new(block_size, block_size)
                    // Histogram + rank + scatter ≈ 3 ops per element.
                    .compute(3 * len.div_ceil(block_size as u64))
                    .read(ws.chat, start * ELEM_BYTES, len * ELEM_BYTES)
                    // Scatter to radix buckets: effectively random at pass
                    // granularity (bucket destinations interleave globally).
                    .atomic_scatter(ws.chat, 0, total * ELEM_BYTES, len, ELEM_BYTES as u32, 1.0)
                    .barriers(3)
                    .shared_mem(block_size * 16)
                    .build(),
            );
        }
        launches.push(KernelLaunch::new(format!("esc-sort-pass{pass}"), blocks));
    }

    // Compress: stream the sorted array once, reduce runs, write C. Each
    // tile's share of the `output_total` unique entries is apportioned
    // proportionally to its position in the sorted stream:
    // `u_t = floor(output·(start+len)/total) − floor(output·start/total)`.
    // The telescoping sum makes Σ u_t == output_total exactly (no truncated
    // remainder), and each share is ≤ the tile's input length.
    let mut c_written = 0u64;
    let mut blocks = Vec::with_capacity(tiles as usize);
    let output = ctx.output_total() as u128;
    for t in 0..tiles {
        let start = t * SORT_TILE;
        let len = SORT_TILE.min(total - start);
        let unique = (output * (start + len) as u128 / total as u128
            - output * start as u128 / total as u128) as u64;
        let mut tb = TraceBuilder::new(block_size, block_size)
            .compute(2 * len.div_ceil(block_size as u64))
            .read(ws.chat, start * ELEM_BYTES, len * ELEM_BYTES);
        if unique > 0 {
            tb = tb.write(ws.c_data, c_written * ELEM_BYTES, unique * ELEM_BYTES);
        }
        blocks.push(tb.barriers(2).build());
        c_written += unique;
    }
    debug_assert_eq!(c_written, ctx.output_total() as u64);
    launches.push(KernelLaunch::new("esc-compress", blocks));
    launches
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_sparse::CsrMatrix;

    fn ctx() -> ProblemContext<f64> {
        let a = rmat(RmatConfig::uniform(8, 8, 3)).to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn pass_count_is_radix_plus_compress() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let launches = esc_merge_launches(&c, &ws, 256);
        assert_eq!(launches.len(), RADIX_PASSES + 1);
    }

    #[test]
    fn each_sort_pass_streams_all_of_chat() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let launches = esc_merge_launches(&c, &ws, 256);
        for pass in &launches[..RADIX_PASSES] {
            let read: u64 = pass.blocks.iter().map(|b| b.bytes_read()).sum();
            let written: u64 = pass.blocks.iter().map(|b| b.bytes_written()).sum();
            assert_eq!(read, c.intermediate_total * ELEM_BYTES);
            assert_eq!(written, c.intermediate_total * ELEM_BYTES);
        }
    }

    #[test]
    fn esc_traffic_dwarfs_single_pass_merge() {
        // Total ESC bytes ≈ (2·passes + 1) × chat — the cost blow-up the
        // paper's Figure 8 shows for CUSP.
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let launches = esc_merge_launches(&c, &ws, 256);
        let total: u64 = launches
            .iter()
            .flat_map(|k| &k.blocks)
            .map(|b| b.bytes_read() + b.bytes_written())
            .sum();
        let chat_bytes = c.intermediate_total * ELEM_BYTES;
        assert!(total >= (2 * RADIX_PASSES as u64) * chat_bytes);

        // The compress pass emits exactly nnz(C): remainder distribution
        // must not truncate (output_total % tiles used to go missing).
        let compress = launches.last().unwrap();
        let compress_written: u64 = compress.blocks.iter().map(|b| b.bytes_written()).sum();
        assert_eq!(compress_written, c.output_total() as u64 * ELEM_BYTES);
    }

    #[test]
    fn empty_problem_produces_no_launches() {
        let z = CsrMatrix::<f64>::zeros(4, 4);
        let c = ProblemContext::new(&z, &z).unwrap();
        let ws = Workspace::for_context(&c);
        assert!(esc_merge_launches(&c, &ws, 256).is_empty());
    }
}
