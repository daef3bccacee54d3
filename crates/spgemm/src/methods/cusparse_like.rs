//! cuSPARSE-like spGEMM: two-phase row-product with a global hash merge.
//!
//! Models `cusparseXcsrgemm`'s generalised scheme: a symbolic pass sizes
//! each output row, then a numeric pass assigns **one warp per row** and
//! accumulates into a per-row hash table in global memory. The warp-per-row
//! mapping is catastrophic on power-law data — hub rows serialize over a
//! single warp — which is why cuSPARSE lands at ~0.29× the row-product
//! baseline on the paper's suite.

use crate::context::ProblemContext;
use crate::workspace::{Workspace, ELEM_BYTES, PTR_BYTES};
use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;

/// Warp-per-row block size.
const WARP: u32 = 32;

/// The method's two kernel launches (symbolic sizing, then warp-per-row
/// hash numeric) against a prepared workspace.
pub fn launches<T: Scalar>(ctx: &ProblemContext<T>, ws: &Workspace) -> Vec<KernelLaunch> {
    // ---- phase 1: symbolic ----
    // cuSPARSE's generalised csrgemm runs the *full* expansion twice: the
    // symbolic pass inserts every product's column into the hash structure
    // (values omitted) to size each output row exactly. Warp per row, like
    // the numeric pass.
    let mut sym_blocks = Vec::new();
    for row in 0..ctx.nrows() {
        let k = ctx.a.row_nnz(row) as u64;
        let products = ctx.row_products[row];
        if products == 0 {
            continue;
        }
        let (a_cols, _) = ctx.a.row(row);
        // Per-row hash tables are allocated across the whole scratch
        // arena — unlike a reused accumulator slice, probes have no
        // cross-row locality (cuSPARSE's known weakness on large outputs).
        let arena = ws.layout.size(ws.accum);
        let mut tb = TraceBuilder::new(WARP, k.min(WARP as u64) as u32)
            .compute(products.div_ceil(k.max(1)))
            .read(ws.a_data, ws.a_row_offset(ctx, row), k * ELEM_BYTES)
            .read(ws.a_ptr, row as u64 * PTR_BYTES, 2 * PTR_BYTES)
            // symbolic hash inserts: probe + insert per product
            .gather(ws.accum, 0, arena, 2 * products, 8)
            .barriers(1);
        for &col in a_cols {
            let nnz_b = ctx.b.row_nnz(col as usize) as u64;
            if nnz_b > 0 {
                tb = tb.read(
                    ws.b_data,
                    ws.b_row_offset(ctx, col as usize),
                    nnz_b * ELEM_BYTES,
                );
            }
        }
        sym_blocks.push(tb.build());
    }
    let symbolic = KernelLaunch::new("cusparse-symbolic", sym_blocks);

    // ---- phase 2: numeric (warp per row, hash merge in global) ----
    let mut num_blocks = Vec::new();
    for row in 0..ctx.nrows() {
        let k = ctx.a.row_nnz(row) as u64;
        let products = ctx.row_products[row];
        if products == 0 {
            continue;
        }
        let unique = ctx.row_unique()[row] as u64;
        // Lane j walks row b_{a_idx[j]}: divergent like the row product,
        // but with only 32 lanes the hub rows serialize hard.
        let (a_cols, _) = ctx.a.row(row);
        let mut max_work = 0u64;
        for &col in a_cols {
            max_work = max_work.max(ctx.b.row_nnz(col as usize) as u64);
        }
        let mean_work = products as f64 / k.max(1) as f64;
        let imbalance = if mean_work > 0.0 {
            (max_work as f64 / mean_work).max(1.0)
        } else {
            1.0
        };
        let coarsen = k.div_ceil(WARP as u64).max(1);
        let arena = ws.layout.size(ws.accum);
        let mut tb = TraceBuilder::new(WARP, k.min(WARP as u64) as u32)
            .compute((mean_work.ceil() as u64) * coarsen)
            .lane_imbalance(imbalance)
            .read(ws.a_data, ws.a_row_offset(ctx, row), k * ELEM_BYTES)
            // Hash insertion: a CAS per product plus a probe read, against
            // tables scattered across the whole arena (no locality).
            .atomic_scatter(
                ws.accum,
                0,
                arena,
                products,
                8,
                products as f64 / unique.max(1) as f64,
            )
            .gather(ws.accum, 0, arena, products, 8)
            .write(
                ws.c_data,
                0, // rows write disjoint slices; offset detail not modelled
                unique * ELEM_BYTES,
            )
            .barriers(1);
        for &col in a_cols {
            let nnz_b = ctx.b.row_nnz(col as usize) as u64;
            if nnz_b > 0 {
                tb = tb.read(
                    ws.b_data,
                    ws.b_row_offset(ctx, col as usize),
                    nnz_b * ELEM_BYTES,
                );
            }
        }
        num_blocks.push(tb.build());
    }
    let numeric = KernelLaunch::new("cusparse-numeric-merge", num_blocks);
    vec![symbolic, numeric]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn slower_than_row_product_on_skewed_data() {
        let dev = DeviceConfig::titan_xp();
        let a = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(4000, 32_000, 21)
        })
        .to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let cus = run_method(&ctx, SpgemmMethod::CusparseLike, &dev).unwrap();
        let rowp = run_method(&ctx, SpgemmMethod::RowProduct, &dev).unwrap();
        assert!(
            cus.total_ms > rowp.total_ms,
            "warp-per-row must lose on hubs: {} vs {}",
            cus.total_ms,
            rowp.total_ms
        );
    }

    #[test]
    fn result_matches_oracle() {
        let dev = DeviceConfig::titan_xp();
        let a = rmat(RmatConfig::snap_like(7, 6, 4)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::CusparseLike, &dev).unwrap();
        let oracle = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(r.result, oracle);
    }
}
