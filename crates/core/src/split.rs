//! B-Splitting (paper Section IV-C.1, Figure 5).
//!
//! A dominator pair's column vector is divided into `2ⁿ` pieces "by simply
//! expanding the pointer index of the sparse format matrix"; a **mapper
//! array** records which original pair each piece belongs to so the divided
//! blocks produce exactly the original products. The row vector is *not*
//! split ("to guarantee a sufficient number of effective threads").
//!
//! Two effects follow, both visible in the model: the dominator's work
//! spreads over many SMs (LBI recovers — Figure 11), and the divided blocks
//! all re-read the same row vector, turning its traffic into L2 hits
//! (Figure 12).

use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::trace::{BlockTrace, TraceBuilder};
use br_sparse::Scalar;
use br_spgemm::context::ProblemContext;
use br_spgemm::workspace::{Workspace, ELEM_BYTES};
use serde::{Deserialize, Serialize};

use crate::config::SplitPolicy;

/// Host-to-host copy bandwidth used to cost the preprocessing step
/// ("all preprocesses are performed on the target GPUs except for
/// B-Splitting, which is performed on host CPUs").
const HOST_COPY_GBS: f64 = 8.0;
/// Fixed host cost per dominator (pointer expansion bookkeeping), ms.
const HOST_PER_DOMINATOR_MS: f64 = 0.002;

/// The split plan of one dominator pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Original pair index.
    pub pair: usize,
    /// Number of pieces (a power of two).
    pub factor: u32,
    /// Element ranges `[start, end)` within the pair's column vector.
    pub pieces: Vec<(usize, usize)>,
}

impl SplitPlan {
    /// Builds the plan for `pair`, splitting its `col_nnz` elements into
    /// `factor` near-equal contiguous pieces (empty pieces are dropped, so
    /// `factor > col_nnz` degrades gracefully).
    pub fn new(pair: usize, col_nnz: usize, factor: u32) -> Self {
        let factor = factor.max(1);
        let mut pieces = Vec::with_capacity(factor as usize);
        let base = col_nnz / factor as usize;
        let rem = col_nnz % factor as usize;
        let mut start = 0usize;
        for p in 0..factor as usize {
            let len = base + usize::from(p < rem);
            if len > 0 {
                pieces.push((start, start + len));
                start += len;
            }
        }
        SplitPlan {
            pair,
            factor,
            pieces,
        }
    }
}

/// Picks the splitting factor under the given policy; `work_threshold` is
/// the dominator classification threshold in intermediate products (only
/// used by [`SplitPolicy::Greedy`]). Factors never exceed the number of
/// column elements (a piece needs at least one element).
pub fn choose_factor(
    policy: SplitPolicy,
    device: &DeviceConfig,
    col_nnz: usize,
    pair_products: u64,
    work_threshold: u64,
) -> u32 {
    let cap = (col_nnz.max(1) as u32).next_power_of_two();
    match policy {
        SplitPolicy::Fixed(f) => f.max(1).next_power_of_two().min(cap),
        SplitPolicy::Auto => {
            let per_sm = device.num_sms.next_power_of_two();
            (per_sm * 2).min(cap)
        }
        SplitPolicy::Greedy => {
            // Enough pieces to reach every SM…
            let by_sms = device.num_sms.next_power_of_two() as u64;
            // …and enough that each piece stops being a dominator.
            let by_work = pair_products
                .div_ceil(work_threshold.max(1))
                .next_power_of_two();
            (by_sms.max(by_work).min(cap as u64)) as u32
        }
    }
}

/// Plans splits for all dominators. `work_threshold` is the classification
/// threshold from [`crate::classify::Classification`]; Auto/Fixed policies
/// ignore it.
pub fn plan_splits<T: Scalar>(
    ctx: &ProblemContext<T>,
    dominators: &[usize],
    policy: SplitPolicy,
    device: &DeviceConfig,
    work_threshold: u64,
) -> Vec<SplitPlan> {
    dominators
        .iter()
        .map(|&pair| {
            let col_nnz = ctx.pair_thread_work(pair);
            let factor = choose_factor(
                policy,
                device,
                col_nnz,
                ctx.block_products[pair],
                work_threshold,
            );
            SplitPlan::new(pair, col_nnz, factor)
        })
        .collect()
}

/// Host-side preprocessing cost: copying the dominator vectors into the
/// temporary matrices `A′, B′` plus pointer expansion.
pub fn preprocess_ms<T: Scalar>(ctx: &ProblemContext<T>, plans: &[SplitPlan]) -> f64 {
    let elements: u64 = plans
        .iter()
        .map(|p| (ctx.pair_thread_work(p.pair) + ctx.pair_effective_threads(p.pair)) as u64)
        .sum();
    let copy_ms = elements as f64 * ELEM_BYTES as f64 / (HOST_COPY_GBS * 1e9) * 1e3;
    copy_ms + plans.len() as f64 * HOST_PER_DOMINATOR_MS
}

/// Emits the expansion blocks of one split plan. Each piece reads its slice
/// of the column and the *entire* row vector (shared across pieces — the
/// L2-reuse effect), and writes its slice of the pair's products.
pub fn split_blocks<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    plan: &SplitPlan,
    chat_elem_offset: u64,
    block_size: u32,
    row_major_chat: bool,
) -> Vec<BlockTrace> {
    let pair = plan.pair;
    let nnz_b = ctx.pair_effective_threads(pair) as u64;
    let effective = nnz_b.min(block_size as u64) as u32;
    let coarsen = nnz_b.div_ceil(block_size as u64).max(1);
    let col_off = ws.a_col_offset(ctx, pair);
    let row_off = ws.b_row_offset(ctx, pair);

    plan.pieces
        .iter()
        .map(|&(start, end)| {
            let len = (end - start) as u64;
            let products = len * nnz_b;
            let mut tb = TraceBuilder::new(block_size, effective)
                .compute(len * coarsen)
                .read(
                    ws.a_csc_data,
                    col_off + start as u64 * ELEM_BYTES,
                    len * ELEM_BYTES,
                )
                .read(ws.b_data, row_off, nnz_b * ELEM_BYTES)
                .barriers(1);
            tb = if row_major_chat {
                let chunk = (nnz_b * ELEM_BYTES).min(u32::MAX as u64) as u32;
                tb.scatter_write(
                    ws.chat,
                    0,
                    ctx.intermediate_total.max(1) * ELEM_BYTES,
                    len,
                    chunk,
                )
            } else {
                tb.write(
                    ws.chat,
                    (chat_elem_offset + start as u64 * nnz_b) * ELEM_BYTES,
                    products * ELEM_BYTES,
                )
            };
            tb.build()
        })
        .collect()
}

/// Builds an expansion launch containing **only** the dominator blocks,
/// split at a fixed factor — the Figure 11/12 experiment ("the execution
/// time of dominator blocks is only measured to show the effect of
/// block-splitting"). `factor = 1` reproduces the unsplit baseline.
pub fn dominator_only_launch<T: Scalar>(
    ctx: &ProblemContext<T>,
    ws: &Workspace,
    dominators: &[usize],
    factor: u32,
    block_size: u32,
) -> br_gpu_sim::trace::KernelLaunch {
    let chat_offsets = ctx.chat_block_offsets();
    let mut blocks = Vec::new();
    for &pair in dominators {
        let plan = SplitPlan::new(pair, ctx.pair_thread_work(pair), factor);
        blocks.extend(split_blocks(
            ctx,
            ws,
            &plan,
            chat_offsets[pair],
            block_size,
            false,
        ));
    }
    br_gpu_sim::trace::KernelLaunch::new(format!("dominators-split{factor}"), blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::CsrMatrix;

    #[test]
    fn pieces_partition_the_column_exactly() {
        for (nnz, factor) in [(100, 8), (7, 4), (3, 8), (1, 64), (1000, 32)] {
            let plan = SplitPlan::new(0, nnz, factor);
            // coverage: consecutive, disjoint, total = nnz
            let mut cursor = 0usize;
            for &(s, e) in &plan.pieces {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
            }
            assert_eq!(cursor, nnz);
            assert!(plan.pieces.len() <= factor as usize);
        }
    }

    #[test]
    fn auto_factor_spreads_over_all_sms() {
        let dev = DeviceConfig::titan_xp(); // 30 SMs
        let f = choose_factor(SplitPolicy::Auto, &dev, 1_000_000, 1 << 30, 1 << 20);
        assert_eq!(f, 64); // next_pow2(30) = 32, doubled
                           // tiny columns cannot split beyond their element count
        assert!(choose_factor(SplitPolicy::Auto, &dev, 3, 1 << 30, 1 << 20) <= 4);
    }

    #[test]
    fn fixed_factor_rounds_to_power_of_two() {
        let dev = DeviceConfig::titan_xp();
        assert_eq!(choose_factor(SplitPolicy::Fixed(6), &dev, 1 << 20, 0, 1), 8);
        assert_eq!(choose_factor(SplitPolicy::Fixed(1), &dev, 1 << 20, 0, 1), 1);
    }

    #[test]
    fn greedy_factor_scales_with_pair_workload() {
        let dev = DeviceConfig::titan_xp();
        // Pair barely over the threshold: the SM count dominates.
        let light = choose_factor(SplitPolicy::Greedy, &dev, 1 << 20, 2_000, 1_000);
        assert_eq!(light, 32); // next_pow2(30)
                               // Pair 1000x over the threshold: work dominates.
        let heavy = choose_factor(SplitPolicy::Greedy, &dev, 1 << 20, 1_000_000, 1_000);
        assert_eq!(heavy, 1024);
        // Still capped by column size.
        let capped = choose_factor(SplitPolicy::Greedy, &dev, 10, 1_000_000, 1_000);
        assert!(capped <= 16);
    }

    fn arrow_ctx() -> ProblemContext<f64> {
        // Column 0 of A is dense (dominator pair 0), B = A.
        let n = 64usize;
        let mut ptr = vec![0usize];
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in 0..n {
            idx.push(0u32);
            val.push(1.0);
            if r == 0 {
                for c in 1..n as u32 {
                    idx.push(c);
                    val.push(1.0);
                }
            }
            ptr.push(idx.len());
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn split_blocks_conserve_products_and_share_the_row() {
        let ctx = arrow_ctx();
        let ws = Workspace::for_context(&ctx);
        let plan = SplitPlan::new(0, ctx.pair_thread_work(0), 8);
        let blocks = split_blocks(&ctx, &ws, &plan, 0, 256, false);
        assert_eq!(blocks.len(), 8);
        let total_written: u64 = blocks.iter().map(|b| b.bytes_written()).sum();
        assert_eq!(total_written, ctx.block_products[0] * ELEM_BYTES);
        // every piece reads the full row vector at the same offset
        let row_reads: Vec<_> = blocks
            .iter()
            .map(|b| {
                b.segments
                    .iter()
                    .find(|s| s.region == ws.b_data)
                    .expect("row read")
                    .offset
            })
            .collect();
        assert!(row_reads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn preprocess_cost_scales_with_dominator_size() {
        let ctx = arrow_ctx();
        let small = vec![SplitPlan::new(0, 10, 2)];
        let big = vec![SplitPlan::new(0, ctx.pair_thread_work(0), 32)];
        assert!(preprocess_ms(&ctx, &big) >= preprocess_ms(&ctx, &small));
        assert!(preprocess_ms(&ctx, &[]) == 0.0);
    }
}
