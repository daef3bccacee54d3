//! SpArch-style k-way tournament merge trace (the kway bin's kernel).
//!
//! One thread block per kway row: the block streams the row's sorted
//! partial-product runs from `Ĉ` (one run per A-row nonzero) through a
//! tournament (loser) tree kept in shared memory and writes the winners
//! straight to `C` in column order. Against the Gustavson dense-accumulator
//! kernel this trades:
//!
//! * **no atomics** — a single merger owns the row, so there is no
//!   conflict-serialized accumulator traffic;
//! * **no gather** — output streams out of the tree already sorted, so the
//!   unique-entry sweep over the dense array disappears;
//!
//! for `~log2(runs)` comparator levels per product and a tournament tree
//! resident in shared memory (which, like B-Limiting, lowers how many such
//! blocks co-reside on an SM). The crossover against the dense SPA
//! therefore sits where duplication is low and runs are few relative to
//! the row's product count — exactly what `select_thresholds` models,
//! and what the `kway` bench suite sweeps across the dataset grid. This
//! launch is the kway bin's only kernel: the host computes kway rows in
//! the dense accumulator, since the result is the same bits either way.

use crate::accum::{RowBin, RowBins};
use crate::context::ProblemContext;
use crate::merge::gustavson::gustavson_merge_launch_filtered;
use crate::workspace::{Workspace, ELEM_BYTES};
use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;

/// Shared-memory bytes for a tournament tree over `runs` runs: one 8-byte
/// key (the run's next column and its generation index) plus one 4-byte
/// loser index per leaf slot, padded to a power of two.
fn tree_smem_bytes(runs: u64) -> u32 {
    let slots = runs.max(1).next_power_of_two();
    (slots.saturating_mul(12)).min(u32::MAX as u64) as u32
}

/// Builds the k-way merge launch over exactly the rows `bins` puts in the
/// kway bin. Output offsets advance over every productive row, so each
/// block writes the same `C` slice as its counterpart in the (filtered)
/// Gustavson launch.
#[allow(clippy::needless_range_loop)] // r is the row id, used across several per-row arrays
pub fn kway_merge_launch<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    block_size: u32,
    chat_row_major: bool,
    bins: &RowBins,
    extra_smem_for_row: impl Fn(usize) -> u32,
) -> KernelLaunch {
    let chat_rows = ctx.chat_row_offsets();
    let mut c_written = 0u64;
    let mut blocks = Vec::new();
    for r in 0..ctx.nrows() {
        let products = ctx.row_products[r];
        if products == 0 {
            continue;
        }
        let unique = ctx.row_unique()[r] as u64;
        if bins.bin(r) != RowBin::Kway {
            c_written += unique;
            continue;
        }
        let runs = ctx.a.row_nnz(r).max(1) as u64;
        // Replay path length of the loser tree: log2 of the padded leaf
        // count, at least one comparator level per product.
        let depth = (runs.next_power_of_two().trailing_zeros() as u64).max(1);
        let effective = products.min(block_size as u64) as u32;
        let coarsen = products.div_ceil(block_size as u64).max(1);

        let mut tb = TraceBuilder::new(block_size, effective)
            // ~log2(runs) comparisons per product through the tree.
            .compute(coarsen * depth)
            .barriers(2)
            .shared_mem(extra_smem_for_row(r) + tree_smem_bytes(runs))
            // Winners stream straight to C — no accumulator, no gather.
            .write(ws.c_data, c_written * ELEM_BYTES, unique * ELEM_BYTES);
        tb = if chat_row_major {
            // Row-major Ĉ: the row's runs are contiguous, streamed once.
            tb.read(ws.chat, chat_rows[r] * ELEM_BYTES, products * ELEM_BYTES)
        } else {
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
    KernelLaunch::new("kway-merge", blocks)
}

/// The bin-dispatched merge phase: the Gustavson launch over tiny, medium,
/// and heavy rows, plus — only when the plan's bins route rows there — the
/// k-way tournament launch over kway rows. With an empty kway bin this is
/// exactly the single unfiltered Gustavson launch, byte-identical traces
/// included, so kway-off plans simulate precisely as before.
pub fn binned_merge_launches<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    block_size: u32,
    chat_row_major: bool,
    bins: &RowBins,
    extra_smem_for_row: impl Fn(usize) -> u32 + Copy,
) -> Vec<KernelLaunch> {
    if bins.kway_rows() == 0 {
        return vec![gustavson_merge_launch_filtered(
            ctx,
            ws,
            block_size,
            chat_row_major,
            extra_smem_for_row,
            |_| false,
        )];
    }
    vec![
        gustavson_merge_launch_filtered(
            ctx,
            ws,
            block_size,
            chat_row_major,
            extra_smem_for_row,
            |r| bins.bin(r) == RowBin::Kway,
        ),
        kway_merge_launch(
            ctx,
            ws,
            block_size,
            chat_row_major,
            bins,
            extra_smem_for_row,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::BinThresholds;
    use crate::merge::gustavson::gustavson_merge_launch;
    use br_datasets::rmat::{rmat, RmatConfig};

    fn ctx() -> ProblemContext<f64> {
        let a = rmat(RmatConfig::graph500(8, 8, 5)).to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    fn bins_of(ctx: &ProblemContext<f64>, thresholds: BinThresholds) -> RowBins {
        RowBins::classify(&ctx.row_products, thresholds)
    }

    #[test]
    fn empty_kway_bin_reduces_to_the_plain_gustavson_launch() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let bins = bins_of(&c, BinThresholds::default());
        assert_eq!(bins.kway_rows(), 0);
        let launches = binned_merge_launches(&c, &ws, 256, true, &bins, |_| 0);
        assert_eq!(launches.len(), 1);
        let plain = gustavson_merge_launch(&c, &ws, 256, true, |_| 0);
        assert_eq!(launches[0].blocks, plain.blocks);
        assert_eq!(launches[0].name, plain.name);
    }

    #[test]
    fn kway_rows_split_out_with_no_atomics_and_tree_smem() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let thresholds = BinThresholds {
            tiny_max: 8,
            heavy_min: 64,
            kway_min: 256,
        };
        let bins = bins_of(&c, thresholds);
        assert!(bins.kway_rows() > 0, "grid must produce kway rows");
        let launches = binned_merge_launches(&c, &ws, 256, true, &bins, |_| 0);
        assert_eq!(launches.len(), 2);
        let kway_blocks = bins.kway_rows() as usize;
        let productive = (0..c.nrows()).filter(|&r| c.row_products[r] > 0).count();
        assert_eq!(launches[1].blocks.len(), kway_blocks);
        assert_eq!(launches[0].blocks.len(), productive - kway_blocks);
        for b in &launches[1].blocks {
            assert_eq!(b.atomics, 0, "the tournament merge never uses atomics");
            assert!(b.shared_mem_bytes >= 12, "tree must reserve shared memory");
        }
    }

    #[test]
    fn output_writes_cover_nnz_c_across_both_launches() {
        let c = ctx();
        let ws = Workspace::for_context(&c);
        let thresholds = BinThresholds {
            tiny_max: 8,
            heavy_min: 64,
            kway_min: 256,
        };
        let bins = bins_of(&c, thresholds);
        let launches = binned_merge_launches(&c, &ws, 256, true, &bins, |_| 0);
        let c_bytes: u64 = launches
            .iter()
            .flat_map(|l| &l.blocks)
            .flat_map(|b| &b.segments)
            .filter(|s| s.write && !s.atomic && s.region == ws.c_data)
            .map(|s| s.bytes)
            .sum();
        assert_eq!(c_bytes, c.output_total() as u64 * ELEM_BYTES);
    }

    #[test]
    fn tree_smem_grows_with_padded_run_count() {
        assert_eq!(tree_smem_bytes(1), 12);
        assert_eq!(tree_smem_bytes(2), 24);
        assert_eq!(tree_smem_bytes(5), 96);
        assert_eq!(tree_smem_bytes(0), 12);
    }
}
