//! AC-spGEMM-like method (Winter et al., PPoPP'19) — an **extension**
//! beyond the paper's Figure 8 set, included because the paper's Related
//! Work singles it out: "AC-spGEMM also improved overall performance highly
//! by using thread-level load balancing on row-product-based spGEMM …
//! which often require additional control overhead to secure per-row
//! linked list structures."
//!
//! The scheme: the global stream of intermediate products is cut into
//! fixed-size *chunks* assigned to blocks regardless of row boundaries —
//! perfect thread- and block-level expansion balance by construction — at
//! the price of (a) per-chunk control metadata (the "linked list" overhead
//! the ICDE paper mentions) and (b) a cross-chunk combine pass for rows
//! that straddle chunk borders.

use crate::context::ProblemContext;
use crate::workspace::{Workspace, ELEM_BYTES, PTR_BYTES};
use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;

/// Intermediate products per chunk (the PPoPP paper's NNZ-per-block knob).
pub const CHUNK: u64 = 8192;

/// Length (in elements) of a chunk's A-side read window.
fn a_window_len(a_nnz: u64, chunk_len: u64) -> u64 {
    (chunk_len / 4).clamp(1, a_nnz.max(1))
}

/// Offset (in elements) of a chunk's A-side read window, kept in bounds.
fn a_window_offset(a_nnz: u64, chunk_start: u64, chunk_len: u64) -> u64 {
    let window = a_window_len(a_nnz, chunk_len);
    let span = a_nnz.saturating_sub(window).max(1);
    (chunk_start / 4) % span
}

/// The method's kernel launches (work assignment, balanced chunked
/// expansion, cross-chunk combine) against a prepared workspace; none for
/// an empty product.
pub fn launches<T: Scalar>(ctx: &ProblemContext<T>, ws: &Workspace) -> Vec<KernelLaunch> {
    let total = ctx.intermediate_total;
    let mut launches = Vec::new();

    if total > 0 {
        // Work-assignment pass: a scan over A's rows builds the
        // chunk → (row, offset) mapping (the control metadata).
        let n = ctx.nrows() as u64;
        launches.push(KernelLaunch::new(
            "ac-assign",
            vec![TraceBuilder::new(256, 256)
                .compute(2 * n.div_ceil(256).max(1))
                .read(ws.a_ptr, 0, (n + 1) * PTR_BYTES)
                .read(ws.b_ptr, 0, (ctx.b.nrows() as u64 + 1) * PTR_BYTES)
                .barriers(2)
                .build()],
        ));

        // Balanced expansion + local merge: every chunk is a full block of
        // identical size. Chunks gather their products' source elements
        // from B (data-dependent rows) and sort/combine locally in shared
        // memory, writing locally-merged runs plus boundary metadata.
        let chunks = total.div_ceil(CHUNK);
        let avg_unique_per_chunk = (ctx.output_total() as u64).div_ceil(chunks.max(1)).max(1);
        let mut blocks = Vec::with_capacity(chunks as usize);
        for c in 0..chunks {
            let start = c * CHUNK;
            let len = CHUNK.min(total - start);
            let log = (64 - len.max(2).leading_zeros()) as u64;
            blocks.push(
                TraceBuilder::new(256, 256)
                    // expansion MAC + local sort network per product
                    .compute((len + len * log).div_ceil(256))
                    // chunk's A elements: a small contiguous window,
                    // clamped inside the operand region
                    .read(
                        ws.a_csc_data,
                        a_window_offset(ctx.a.nnz() as u64, start, len) * ELEM_BYTES,
                        a_window_len(ctx.a.nnz() as u64, len) * ELEM_BYTES,
                    )
                    // chunk's B elements: data-dependent gather
                    .gather(
                        ws.b_data,
                        0,
                        (ctx.b.nnz().max(1) as u64) * ELEM_BYTES,
                        len,
                        ELEM_BYTES as u32,
                    )
                    // locally merged output + boundary metadata
                    .write(
                        ws.chat,
                        start * ELEM_BYTES,
                        avg_unique_per_chunk.min(total - start) * ELEM_BYTES,
                    )
                    .write(ws.c_data, 0, 64)
                    .shared_mem(32 * 1024)
                    .barriers(log as u32 + 2)
                    .build(),
            );
        }
        launches.push(KernelLaunch::new("ac-balanced-expansion", blocks));

        // Cross-chunk combine: rows straddling chunk borders are merged in
        // a final pass over the locally-merged runs (bounded by nnz(C) —
        // the final output size).
        let runs = (chunks * avg_unique_per_chunk).min(ctx.output_total().max(1) as u64);
        let mut blocks = Vec::new();
        let mut off = 0u64;
        while off < runs {
            let len = (4 * CHUNK).min(runs - off);
            blocks.push(
                TraceBuilder::new(256, 256)
                    .compute(len.div_ceil(256))
                    .read(ws.chat, off * ELEM_BYTES, len * ELEM_BYTES)
                    .write(ws.c_data, off * ELEM_BYTES, len * ELEM_BYTES)
                    .barriers(1)
                    .build(),
            );
            off += len;
        }
        launches.push(KernelLaunch::new("ac-combine", blocks));
    }
    launches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_method, SpgemmMethod};
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_gpu_sim::device::DeviceConfig;

    #[test]
    fn result_matches_oracle() {
        let a = rmat(RmatConfig::snap_like(8, 6, 31)).to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let r = run_method(&ctx, SpgemmMethod::AcLike, &DeviceConfig::titan_xp()).unwrap();
        let oracle = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(r.result, oracle);
    }

    #[test]
    fn expansion_is_perfectly_balanced_even_on_hubs() {
        // The scheme's defining property: chunking erases block-level skew,
        // so expansion LBI stays high even where the outer product's
        // collapses.
        let dev = DeviceConfig::titan_xp();
        let a = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(3000, 21_000, 5)
        })
        .to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let ac = run_method(&ctx, SpgemmMethod::AcLike, &dev).unwrap();
        let outer = run_method(&ctx, SpgemmMethod::OuterProduct, &dev).unwrap();
        let ac_lbi = ac
            .profiles
            .iter()
            .find(|p| p.name.contains("balanced-expansion"))
            .unwrap()
            .lbi();
        assert!(
            ac_lbi > outer.profiles[0].lbi() + 0.2,
            "chunked expansion must balance: {} vs outer {}",
            ac_lbi,
            outer.profiles[0].lbi()
        );
    }

    #[test]
    fn competitive_with_row_product_on_skewed_data() {
        let dev = DeviceConfig::titan_xp();
        let a = chung_lu(ChungLuConfig {
            gamma: 2.1,
            ..ChungLuConfig::social(2500, 15_000, 11)
        })
        .to_csr();
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let ac = run_method(&ctx, SpgemmMethod::AcLike, &dev).unwrap();
        let row = run_method(&ctx, SpgemmMethod::RowProduct, &dev).unwrap();
        // PPoPP'19 reports large wins over row-product on skewed inputs;
        // at minimum the balanced scheme must not lose badly.
        assert!(
            ac.total_ms < 2.0 * row.total_ms,
            "AC should be competitive: {} vs {}",
            ac.total_ms,
            row.total_ms
        );
    }
}
