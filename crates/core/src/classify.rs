//! Precalculation & workload categorization (paper Section IV-B).
//!
//! Every outer-product pair is placed in one of three bins based on its
//! precalculated workload:
//!
//! * **Dominator** — workload above `α ×` the mean pair workload; will be
//!   B-Split.
//! * **Low performer** — fewer than warp-size (32) effective threads; will
//!   be B-Gathered.
//! * **Normal** — everything else; executed as-is.
//!
//! Classification itself runs as a cheap GPU kernel (a scan over the
//! pointer arrays); [`precalc_launch`] emits its trace so the overhead is
//! charged to the pass, as in the paper's measurements.

use br_gpu_sim::trace::{KernelLaunch, TraceBuilder};
use br_sparse::Scalar;
use br_spgemm::context::ProblemContext;
use br_spgemm::workspace::{Workspace, PTR_BYTES};
use serde::{Deserialize, Serialize};

use crate::config::ReorganizerConfig;

/// The three workload bins of Section IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Overloaded pair — handled by B-Splitting.
    Dominator,
    /// Ordinary pair.
    Normal,
    /// Underloaded pair (< 32 effective threads) — handled by B-Gathering.
    LowPerformer,
    /// Pair with zero products (skipped entirely).
    Empty,
}

/// Result of precalculation + categorization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Classification {
    /// Class of every inner-dimension pair.
    pub classes: Vec<WorkloadClass>,
    /// Dominator pair indices ("Dominator bin" of Figure 4).
    pub dominators: Vec<usize>,
    /// Low-performer pair indices ("Low performer bin").
    pub low_performers: Vec<usize>,
    /// Normal pair indices.
    pub normals: Vec<usize>,
    /// The dominator workload threshold used.
    pub threshold: u64,
}

impl Classification {
    /// Categorizes all pairs of a problem under the given config.
    pub fn of<T: Scalar>(ctx: &ProblemContext<T>, config: &ReorganizerConfig) -> Self {
        let nonempty = ctx.block_products.iter().filter(|&&p| p > 0).count().max(1);
        let mean = ctx.intermediate_total as f64 / nonempty as f64;
        let threshold = (config.alpha * mean).ceil().max(1.0) as u64;

        let mut classes = Vec::with_capacity(ctx.inner_dim());
        let mut dominators = Vec::new();
        let mut low_performers = Vec::new();
        let mut normals = Vec::new();
        for i in 0..ctx.inner_dim() {
            let products = ctx.block_products[i];
            let class = if products == 0 {
                WorkloadClass::Empty
            } else if products > threshold {
                dominators.push(i);
                WorkloadClass::Dominator
            } else if ctx.pair_effective_threads(i) < 32 {
                low_performers.push(i);
                WorkloadClass::LowPerformer
            } else {
                normals.push(i);
                WorkloadClass::Normal
            };
            classes.push(class);
        }
        Classification {
            classes,
            dominators,
            low_performers,
            normals,
            threshold,
        }
    }
}

/// Data-driven α selection (Section IV-B: "the criteria for classification
/// can be changed by adjusting the value of α based on the target sparse
/// network characteristics. Highly skewed networks can have lower α values,
/// but social networks with several medium-size hub-nodes should have high
/// α values to avoid selecting too many dominator pairs").
///
/// The Gini coefficient of the pair workloads measures exactly that
/// distinction: extreme-hub networks (Gini → 1) can afford an aggressive
/// (low) α because even a low threshold catches only the few true hubs;
/// medium-hub networks need a stricter cut.
pub fn auto_alpha<T: Scalar>(ctx: &ProblemContext<T>) -> f64 {
    let workloads: Vec<usize> = ctx
        .block_products
        .iter()
        .filter(|&&p| p > 0)
        .map(|&p| p as usize)
        .collect();
    let gini = br_sparse::stats::DegreeStats::from_degrees(&workloads).gini;
    if gini > 0.85 {
        8.0
    } else if gini > 0.6 {
        16.0
    } else {
        32.0
    }
}

/// Emits the precalculation kernel trace: block-wise and row-wise nnz via
/// scans of the pointer arrays, plus the prefix sums sizing `Ĉ`.
pub fn precalc_launch<T: Scalar>(ctx: &ProblemContext<T>, ws: &Workspace) -> KernelLaunch {
    let pairs = ctx.inner_dim() as u64;
    let rows = ctx.nrows() as u64;
    let per_block = 1024u64;
    let mut blocks = Vec::new();
    let mut i = 0u64;
    while i < pairs.max(1) {
        let len = per_block.min(pairs.saturating_sub(i)).max(1);
        blocks.push(
            TraceBuilder::new(256, len.min(256) as u32)
                // degree lookup + multiply + prefix-sum step per pair, and
                // the row-wise accumulation pass.
                .compute(3 * len.div_ceil(256))
                .read(ws.a_ptr, 0, (rows + 1) * PTR_BYTES)
                .read(ws.b_ptr, i * PTR_BYTES, (len + 1) * PTR_BYTES)
                .barriers(2)
                .build(),
        );
        i += len;
    }
    KernelLaunch::new("reorganizer-precalc", blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::chung_lu::{chung_lu, ChungLuConfig};
    use br_sparse::CsrMatrix;

    fn skewed_ctx() -> ProblemContext<f64> {
        let a = chung_lu(ChungLuConfig {
            gamma: 2.0,
            ..ChungLuConfig::social(2000, 16_000, 5)
        })
        .to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn classes_partition_all_pairs() {
        let ctx = skewed_ctx();
        let c = Classification::of(&ctx, &ReorganizerConfig::default());
        assert_eq!(c.classes.len(), ctx.inner_dim());
        let empty = c
            .classes
            .iter()
            .filter(|&&x| x == WorkloadClass::Empty)
            .count();
        assert_eq!(
            c.dominators.len() + c.low_performers.len() + c.normals.len() + empty,
            ctx.inner_dim()
        );
    }

    #[test]
    fn skewed_network_has_dominators_and_many_low_performers() {
        let ctx = skewed_ctx();
        let c = Classification::of(&ctx, &ReorganizerConfig::default());
        assert!(
            !c.dominators.is_empty(),
            "gamma=2 hubs must produce dominators"
        );
        assert!(
            c.low_performers.len() > c.dominators.len() * 10,
            "the tail should dwarf the hubs: {} vs {}",
            c.low_performers.len(),
            c.dominators.len()
        );
        // The paper's youtube walkthrough: dominator count is tiny
        // relative to all non-empty pairs.
        let nonempty = c.dominators.len() + c.low_performers.len() + c.normals.len();
        assert!((c.dominators.len() as f64) < 0.05 * nonempty as f64);
    }

    #[test]
    fn dominators_exceed_threshold_and_others_dont() {
        let ctx = skewed_ctx();
        let c = Classification::of(&ctx, &ReorganizerConfig::default());
        for &d in &c.dominators {
            assert!(ctx.block_products[d] > c.threshold);
        }
        for &n in &c.normals {
            assert!(ctx.block_products[n] <= c.threshold);
        }
    }

    #[test]
    fn low_performers_have_under_warp_threads() {
        let ctx = skewed_ctx();
        let c = Classification::of(&ctx, &ReorganizerConfig::default());
        for &lp in &c.low_performers {
            assert!(ctx.pair_effective_threads(lp) < 32);
            assert!(ctx.block_products[lp] > 0);
        }
    }

    #[test]
    fn higher_alpha_selects_fewer_dominators() {
        let ctx = skewed_ctx();
        let strict = Classification::of(
            &ctx,
            &ReorganizerConfig {
                alpha: 64.0,
                ..Default::default()
            },
        );
        let loose = Classification::of(
            &ctx,
            &ReorganizerConfig {
                alpha: 4.0,
                ..Default::default()
            },
        );
        assert!(strict.dominators.len() <= loose.dominators.len());
        assert!(!loose.dominators.is_empty());
    }

    #[test]
    fn identity_matrix_has_no_dominators() {
        let i = CsrMatrix::<f64>::identity(256);
        let ctx = ProblemContext::new(&i, &i).unwrap();
        let c = Classification::of(&ctx, &ReorganizerConfig::default());
        assert!(c.dominators.is_empty());
        // every pair has exactly 1 effective thread → all low performers
        assert_eq!(c.low_performers.len(), 256);
    }

    #[test]
    fn auto_alpha_is_aggressive_on_extreme_hubs_strict_on_regular() {
        let skewed = skewed_ctx();
        let alpha_skewed = auto_alpha(&skewed);
        let regular = {
            let m = br_datasets::mesh::banded(2000, 64, 8, 3).to_csr();
            ProblemContext::new(&m, &m).unwrap()
        };
        let alpha_regular = auto_alpha(&regular);
        assert!(
            alpha_skewed < alpha_regular,
            "hub-heavy nets get lower alpha: {alpha_skewed} vs {alpha_regular}"
        );
        // Auto alpha plugs straight into the config and stays correct.
        let cfg = ReorganizerConfig {
            alpha: alpha_skewed,
            ..Default::default()
        };
        let c = Classification::of(&skewed, &cfg);
        assert!(!c.dominators.is_empty());
    }

    #[test]
    fn precalc_trace_covers_pointer_arrays() {
        let ctx = skewed_ctx();
        let ws = Workspace::for_context(&ctx);
        let k = precalc_launch(&ctx, &ws);
        assert!(!k.blocks.is_empty());
        assert!(k.blocks.iter().all(|b| b.bytes_read() > 0));
    }
}
