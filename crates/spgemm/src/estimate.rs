//! Sampling-based workload estimation for the planner (Ocean-style).
//!
//! Exact cold-path planning scans every entry of `A` for `row_products`
//! and runs a full symbolic SPA for `nnz(C)` — the dominant plan-time cost
//! the plan cache exists to amortize. This module replaces both scans with
//! a **seeded, fingerprint-derived sample**: `k` columns of `A` are drawn
//! with a splitmix64 PRNG seeded from the problem signature and the
//! estimator configuration, the sampled columns' products are scattered
//! into per-row totals and extrapolated by `n/k`, and `nnz(C)` is
//! extrapolated from an exact symbolic pass over `k` sampled *rows*.
//!
//! Determinism is load-bearing: the sample depends only on the operands'
//! structure hashes and the sample count, so the same problem yields
//! byte-identical estimates at any thread count, in any process, on any
//! rerun — which keeps `BENCH_estplan.json` reproducible and lets
//! cached plans built from estimates be value-independent artifacts.
//!
//! A normal-approximation confidence band over the sampled per-column
//! products guards accuracy: when the relative half-width exceeds the
//! configured tolerance, the caller falls back to exact precalculation.
//! The degenerate sample `k ≥ inner_dim` visits every column (and every
//! row), so the "estimates" are exactly the exact quantities.

use br_obs::{Counter, Histogram};
use br_sparse::hash::{fnv_mix, splitmix64, FNV_OFFSET};
use br_sparse::Scalar;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

use crate::accum::BinThresholds;
use crate::context::ProblemContext;
use crate::pipeline::SpgemmMethod;

/// Estimator instruments in the process-wide registry. All are pure
/// functions of the estimated work (never of wall clock or scheduling),
/// so they export by default and byte-compare across thread counts.
struct PlanInstruments {
    estimates: Counter,
    fallbacks: Counter,
    exact_samples: Counter,
    sampled_cols: Counter,
    ops: Counter,
    rel_band_ppm: Histogram,
}

fn plan_instruments() -> &'static PlanInstruments {
    static CELLS: OnceLock<PlanInstruments> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = br_obs::global();
        PlanInstruments {
            estimates: reg.counter(
                "br_plan_estimates_total",
                "Sampling-based workload estimates produced.",
                &[],
            ),
            fallbacks: reg.counter(
                "br_plan_fallbacks_total",
                "Estimates whose confidence band exceeded the tolerance.",
                &[],
            ),
            exact_samples: reg.counter(
                "br_plan_exact_total",
                "Degenerate full samples (k >= dimension; estimate is exact).",
                &[],
            ),
            sampled_cols: reg.counter(
                "br_plan_sampled_cols_total",
                "Columns of A visited by the sampling estimator.",
                &[],
            ),
            ops: reg.counter(
                "br_plan_ops_total",
                "Modeled host operations spent estimating workloads.",
                &[],
            ),
            rel_band_ppm: reg.histogram(
                "br_plan_rel_band_ppm",
                "Relative confidence-band half-width of each estimate, in ppm.",
                &[],
            ),
        }
    })
}

/// Configuration of the sampling estimator.
///
/// Part of the plan-cache key (via [`EstimatorConfig::fingerprint`]):
/// plans built under different sample sizes or tolerances are different
/// artifacts and must not alias.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Number of columns (and rows, for the output estimate) to sample.
    pub samples: usize,
    /// Maximum relative confidence-band half-width before the planner
    /// falls back to exact precalculation.
    pub tolerance: f64,
}

impl Default for EstimatorConfig {
    /// 64 samples keep the sampled scan an order of magnitude below the
    /// exact symbolic pass on the suite's problems. The fallback line is
    /// 1.0 — fall back only when the 95% band is wider than the estimate
    /// itself. That is deliberately permissive: the estimate only steers
    /// performance knobs (method, bins, limiting) whose worst case is a
    /// slower-but-correct run, and power-law degree distributions put the
    /// band near 0.5–0.9 at any affordable sample size. Tighten the
    /// tolerance (`--est-tolerance`) when a workload wants exact plans.
    fn default() -> Self {
        EstimatorConfig {
            samples: 64,
            tolerance: 1.0,
        }
    }
}

impl EstimatorConfig {
    /// FNV fingerprint over the configuration — mixed into plan-cache keys
    /// and the PRNG seed.
    pub fn fingerprint(&self) -> u64 {
        [self.samples as u64, self.tolerance.to_bits()]
            .iter()
            .fold(FNV_OFFSET, |h, &v| fnv_mix(h, v))
    }
}

/// The expansion method the estimator picked for one problem.
///
/// Per-problem selection is bhSPARSE's framework idea: no single scheme
/// wins across sparsity patterns, so the planner routes each problem by
/// its estimated shape. The choice swaps the **simulated kernel stream**
/// only — the host numeric result is always produced by the adaptive
/// row-binned engine, so output stays bit-identical to the Gustavson
/// oracle whichever method is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MethodChoice {
    /// Block-reorganized pipeline (split/gather/limit) — the default for
    /// skewed, dominator-heavy workloads.
    Reorganized,
    /// Row-product (Gustavson) baseline — cheap rows, little skew.
    RowProduct,
    /// Outer-product baseline — balanced blocks, moderate compression.
    OuterProduct,
    /// Expand–sort–compress — little duplicate compression to exploit.
    Esc,
    /// Warp-per-row hash — heavy duplicate compression.
    Hash,
}

impl MethodChoice {
    /// Stable lower-case name used in reports and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            MethodChoice::Reorganized => "reorganized",
            MethodChoice::RowProduct => "row-product",
            MethodChoice::OuterProduct => "outer-product",
            MethodChoice::Esc => "esc",
            MethodChoice::Hash => "hash",
        }
    }

    /// The baseline whose launches this choice simulates; `None` for the
    /// reorganized pipeline, which builds its own.
    pub fn baseline(self) -> Option<SpgemmMethod> {
        match self {
            MethodChoice::Reorganized => None,
            MethodChoice::RowProduct => Some(SpgemmMethod::RowProduct),
            MethodChoice::OuterProduct => Some(SpgemmMethod::OuterProduct),
            MethodChoice::Esc => Some(SpgemmMethod::CuspEsc),
            MethodChoice::Hash => Some(SpgemmMethod::CusparseLike),
        }
    }
}

/// The estimator's output: extrapolated workloads plus the bookkeeping
/// the planner and the bench suite need (band width, modeled cost).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEstimate {
    /// Extrapolated per-row intermediate-product counts.
    pub row_products: Vec<u64>,
    /// Extrapolated `nnz(C)`.
    pub output_total: usize,
    /// Columns of `A` actually visited.
    pub sampled_cols: usize,
    /// Rows of `A` given an exact symbolic pass for the output estimate.
    pub sampled_rows: usize,
    /// Relative half-width of the 95% confidence band on the intermediate
    /// total (0 for a full sample).
    pub rel_band: f64,
    /// Modeled host operations the estimate cost (selection + scatter +
    /// sampled symbolic) — the deterministic cold-plan latency metric.
    pub ops: u64,
    /// Whether the sample was degenerate (covered everything), making the
    /// estimates exactly equal to the exact quantities.
    pub exact: bool,
}

impl WorkloadEstimate {
    /// Whether the band is narrow enough for `config`, i.e. the planner
    /// may use this estimate instead of falling back to exact precalc.
    pub fn within(&self, config: &EstimatorConfig) -> bool {
        self.exact || self.rel_band <= config.tolerance
    }
}

/// Modeled host operations of the **exact** precalculation the estimator
/// replaces: the `row_products` scan (`nnz(A)`) plus the full symbolic
/// SPA (one op per intermediate product). The shared work both paths do
/// (block products, CSC view) is excluded from both sides.
pub fn exact_plan_ops<T: Scalar>(ctx: &ProblemContext<T>) -> u64 {
    ctx.a.nnz() as u64 + ctx.intermediate_total
}

/// Draws `k` distinct indices from `0..n`, sorted ascending, via Floyd's
/// algorithm over a seeded splitmix64 stream. `k >= n` returns all of
/// `0..n`.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut state = seed;
    let mut chosen = std::collections::BTreeSet::new();
    for j in (n - k)..n {
        let r = (splitmix64(&mut state) % (j as u64 + 1)) as usize;
        if !chosen.insert(r) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

/// Runs the sampling estimator over one problem.
///
/// Reads only what a lean cold-path planner would have in hand: the CSC
/// view of `A`, row lengths of `B`, and the operands' structure — never
/// `ctx.row_products` / `ctx.row_unique()` / `ctx.output_total()`.
pub fn estimate_workload<T: Scalar>(
    ctx: &ProblemContext<T>,
    config: &EstimatorConfig,
) -> WorkloadEstimate {
    let inner = ctx.inner_dim();
    let nrows = ctx.nrows();
    let sig = ctx.signature();
    // Seed from the structures and the sample COUNT only. The tolerance is
    // a decision threshold applied after measurement — folding it into the
    // seed would reshuffle the sample whenever the fallback line moves.
    let seed = [
        sig.a.structure_hash,
        sig.b.structure_hash,
        config.samples as u64,
    ]
    .iter()
    .fold(FNV_OFFSET, |h, &v| fnv_mix(h, v));

    let cols = sample_indices(inner, config.samples.max(1), seed);
    let full_cols = cols.len() == inner;
    let mut ops = cols.len() as u64; // selection cost

    // Scatter each sampled column's products into per-row totals, and
    // record the exact per-column total for the confidence band.
    let mut raw = vec![0u64; nrows];
    let mut col_totals = Vec::with_capacity(cols.len());
    for &i in &cols {
        let bn = ctx.b.row_nnz(i) as u64;
        let (rows, _) = ctx.a_csc.col(i);
        for &r in rows {
            raw[r as usize] += bn;
        }
        ops += rows.len() as u64;
        col_totals.push(rows.len() as u64 * bn);
    }

    let row_products: Vec<u64> = if full_cols {
        raw
    } else {
        // Extrapolate by n/k with half-up rounding — deterministic, and a
        // row the sample never touched keeps its honest zero (the merge
        // engine tolerates under-estimates; see `MergeScratch`).
        let n = inner as u64;
        let k = cols.len() as u64;
        raw.iter().map(|&p| (p * n + k / 2) / k).collect()
    };

    // Normal-approximation 95% band on the extrapolated intermediate
    // total, from the spread of the sampled per-column totals.
    let rel_band = if full_cols {
        0.0
    } else {
        let k = col_totals.len() as f64;
        let mean = col_totals.iter().sum::<u64>() as f64 / k;
        let var = col_totals
            .iter()
            .map(|&t| {
                let d = t as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (k - 1.0).max(1.0);
        let total_est = mean * inner as f64;
        if total_est <= 0.0 {
            0.0
        } else {
            1.96 * var.sqrt() / k.sqrt() * inner as f64 / total_est
        }
    };

    // Output-size estimate: exact symbolic SPA over sampled *rows*, then
    // extrapolate nnz(C) through the sampled compression ratio applied to
    // the exact intermediate total (which the shared block-products pass
    // already provides).
    let rows = sample_indices(nrows, config.samples.max(1), fnv_mix(seed, 0x5eed));
    let full_rows = rows.len() == nrows;
    let mut mark = vec![u32::MAX; ctx.ncols()];
    let mut sampled_products = 0u64;
    let mut sampled_unique = 0u64;
    for (stamp, &r) in rows.iter().enumerate() {
        let stamp = stamp as u32;
        let (a_cols, _) = ctx.a.row(r);
        for &k in a_cols {
            let (b_cols, _) = ctx.b.row(k as usize);
            for &j in b_cols {
                sampled_products += 1;
                if mark[j as usize] != stamp {
                    mark[j as usize] = stamp;
                    sampled_unique += 1;
                }
            }
        }
    }
    ops += sampled_products + rows.len() as u64;
    let output_total = if full_rows {
        sampled_unique as usize
    } else if sampled_products == 0 {
        0
    } else {
        let ratio = sampled_unique as f64 / sampled_products as f64;
        (ctx.intermediate_total as f64 * ratio).round() as usize
    };

    let exact = full_cols && full_rows;
    let cells = plan_instruments();
    cells.estimates.add(1);
    cells.sampled_cols.add(cols.len() as u64);
    cells.ops.add(ops);
    cells.rel_band_ppm.observe((rel_band * 1e6) as u64);
    if exact {
        cells.exact_samples.add(1);
    }
    let estimate = WorkloadEstimate {
        row_products,
        output_total,
        sampled_cols: cols.len(),
        sampled_rows: rows.len(),
        rel_band,
        ops,
        exact,
    };
    if !estimate.within(config) {
        cells.fallbacks.add(1);
    }
    estimate
}

/// Picks the expansion method for one problem from its estimated shape.
///
/// Heuristic (documented in DESIGN.md §13): dominator skew in the exact
/// block products routes to the reorganized pipeline, and so does any
/// merge-bound problem at scale (rows averaging hundreds of products with
/// enough rows for B-Limiting to matter — flat baseline mappings lose
/// there even when the blocks look balanced, e.g. FEM meshes). Otherwise
/// cheap rows go row-product, high duplicate compression goes hash,
/// near-zero compression goes ESC, and the balanced middle goes
/// outer-product.
pub fn select_method<T: Scalar>(ctx: &ProblemContext<T>, est: &WorkloadEstimate) -> MethodChoice {
    let productive = ctx.block_products.iter().filter(|&&p| p > 0).count();
    let mean_block = ctx.intermediate_total as f64 / productive.max(1) as f64;
    let max_block = ctx.block_products.iter().copied().max().unwrap_or(0) as f64;
    if productive > 0 && max_block >= 4.0 * mean_block {
        return MethodChoice::Reorganized;
    }
    let avg_row = ctx.intermediate_total as f64 / ctx.nrows().max(1) as f64;
    if avg_row <= 16.0 {
        return MethodChoice::RowProduct;
    }
    if avg_row >= 256.0 && ctx.nrows() >= 256 {
        return MethodChoice::Reorganized;
    }
    let compression = ctx.intermediate_total as f64 / est.output_total.max(1) as f64;
    if compression >= 4.0 {
        MethodChoice::Hash
    } else if compression <= 1.25 {
        MethodChoice::Esc
    } else {
        MethodChoice::OuterProduct
    }
}

/// Picks merge-bin thresholds from the estimated row-product distribution.
///
/// Starts from the width-based [`BinThresholds::recommended`] split; when
/// that width activates the hash band, the heavy cutoff is re-centred at
/// four times the estimated mean row products so typical rows stay in the
/// hash table and only true outliers pay the dense sweep. Thresholds are
/// a pure performance knob — any setting yields bit-identical output.
///
/// The kway/dense-SPA crossover (`kway_min`) chooses which rows the
/// simulated k-way tournament launch merges (the host merges kway rows in
/// the dense SPA), and is placed from the estimated *compression*
/// (intermediate products per output nonzero). The simulated tournament
/// spends ~`log2(runs)` comparator levels per product but needs neither
/// atomics nor a gather, while the simulated dense-SPA merge pays an
/// atomic per product and then gathers the row's unique entries — a
/// gather that duplication amortizes. Low compression (≲2×: nearly every
/// product is a distinct column) puts the crossover right above the dense
/// cutoff; moderate compression pushes it out so only extreme rows switch;
/// past ~8× the gather is cheap per product and the bin stays off for the
/// problem.
pub fn select_thresholds(est: &WorkloadEstimate, ncols: usize) -> BinThresholds {
    let base = BinThresholds::recommended(ncols);
    if base.heavy_min <= base.tiny_max + 1 {
        return base; // no medium band at this width
    }
    let nrows = est.row_products.len().max(1) as u64;
    let total: u64 = est.row_products.iter().sum();
    let mean = total / nrows;
    let heavy = mean
        .saturating_mul(4)
        .next_power_of_two()
        .clamp(base.tiny_max + 2, 1 << 20);
    let compression = total as f64 / est.output_total.max(1) as f64;
    let kway_min = if compression <= 2.0 {
        heavy.saturating_mul(4)
    } else if compression <= 8.0 {
        heavy.saturating_mul(16)
    } else {
        u64::MAX
    };
    BinThresholds {
        tiny_max: base.tiny_max,
        heavy_min: heavy,
        kway_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_sparse::CsrMatrix;

    fn ctx_of(seed: u64) -> ProblemContext<f64> {
        let a = rmat(RmatConfig::graph500(9, 8, seed)).to_csr();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn degenerate_full_sample_equals_exact() {
        let ctx = ctx_of(7);
        let config = EstimatorConfig {
            samples: ctx.inner_dim() + 10,
            tolerance: 0.0,
        };
        let est = estimate_workload(&ctx, &config);
        assert!(est.exact);
        assert_eq!(est.row_products, ctx.row_products);
        assert_eq!(est.output_total, ctx.output_total());
        assert_eq!(est.rel_band, 0.0);
        assert!(est.within(&config));
    }

    #[test]
    fn estimates_are_deterministic_and_structure_only() {
        let ctx = ctx_of(11);
        let config = EstimatorConfig::default();
        let e1 = estimate_workload(&ctx, &config);
        let e2 = estimate_workload(&ctx, &config);
        assert_eq!(e1, e2);
        // Same structure, different values → same estimate.
        let scaled = ctx.a.map_values(|v| v * 2.5);
        let ctx2 = ProblemContext::new(&scaled, &scaled).unwrap();
        assert_eq!(estimate_workload(&ctx2, &config), e1);
        // Different sample size → different fingerprint → (almost surely)
        // different sample.
        let other = estimate_workload(
            &ctx,
            &EstimatorConfig {
                samples: 32,
                tolerance: 0.25,
            },
        );
        assert_ne!(other.sampled_cols, e1.sampled_cols);
    }

    #[test]
    fn estimate_is_cheaper_than_exact_and_roughly_right() {
        let ctx = ctx_of(3);
        let est = estimate_workload(&ctx, &EstimatorConfig::default());
        assert!(
            est.ops * 2 <= exact_plan_ops(&ctx),
            "estimate ops {} vs exact {}",
            est.ops,
            exact_plan_ops(&ctx)
        );
        let exact_total: u64 = ctx.row_products.iter().sum();
        let est_total: u64 = est.row_products.iter().sum();
        assert!(est_total > 0);
        // Crude accuracy sanity: within 4x either way.
        assert!(est_total <= exact_total * 4 && exact_total <= est_total * 4);
    }

    #[test]
    fn sampling_indices_are_distinct_sorted_and_seed_stable() {
        let s1 = sample_indices(1000, 64, 42);
        let s2 = sample_indices(1000, 64, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 64);
        assert!(s1.windows(2).all(|w| w[0] < w[1]));
        assert!(s1.iter().all(|&i| i < 1000));
        assert_ne!(sample_indices(1000, 64, 43), s1);
        assert_eq!(sample_indices(5, 64, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn method_selection_covers_every_arm() {
        // Power-law squaring: dominator skew → Reorganized.
        let ctx = ctx_of(5);
        let est = estimate_workload(&ctx, &EstimatorConfig::default());
        assert_eq!(select_method(&ctx, &est), MethodChoice::Reorganized);

        // Identity: uniform single-product rows → RowProduct.
        let i = CsrMatrix::<f64>::identity(64);
        let ictx = ProblemContext::new(&i, &i).unwrap();
        let iest = estimate_workload(&ictx, &EstimatorConfig::default());
        assert_eq!(select_method(&ictx, &iest), MethodChoice::RowProduct);

        // Dense-ish uniform block: every product collides into few outputs
        // → Hash; same structure with no collisions → Esc is exercised via
        // a synthetic estimate below.
        let n = 64usize;
        let dense_row: Vec<u32> = (0..n as u32).collect();
        let ptr: Vec<usize> = (0..=n).map(|r| r * n).collect();
        let idx: Vec<u32> = (0..n).flat_map(|_| dense_row.clone()).collect();
        let val = vec![1.0f64; n * n];
        let d = CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();
        let dctx = ProblemContext::new(&d, &d).unwrap();
        let dest = estimate_workload(&dctx, &EstimatorConfig::default());
        assert_eq!(select_method(&dctx, &dest), MethodChoice::Hash);

        // Synthetic no-compression estimate on the same context → Esc.
        let mut esc_est = dest.clone();
        esc_est.output_total = dctx.intermediate_total as usize;
        assert_eq!(select_method(&dctx, &esc_est), MethodChoice::Esc);

        // Moderate compression → OuterProduct.
        let mut mid_est = dest.clone();
        mid_est.output_total = (dctx.intermediate_total / 2) as usize;
        assert_eq!(select_method(&dctx, &mid_est), MethodChoice::OuterProduct);
    }

    #[test]
    fn threshold_selection_tracks_the_estimated_mean() {
        let ctx = ctx_of(9);
        let est = estimate_workload(&ctx, &EstimatorConfig::default());
        let t = select_thresholds(&est, ctx.ncols());
        // Small width → recommended split (no medium band), untouched.
        assert_eq!(t, BinThresholds::recommended(ctx.ncols()));

        // Wide problem with the hash band active: cutoff follows the mean.
        let wide = WorkloadEstimate {
            row_products: vec![100; 10],
            output_total: 500,
            sampled_cols: 4,
            sampled_rows: 4,
            rel_band: 0.1,
            ops: 10,
            exact: false,
        };
        let tw = select_thresholds(&wide, 1 << 20);
        assert_eq!(tw.tiny_max, BinThresholds::default().tiny_max);
        assert_eq!(tw.heavy_min, 512); // next_power_of_two(400)

        // Compression 1000/500 = 2x: barely any duplication, so the
        // kway crossover sits right above the dense cutoff.
        assert_eq!(tw.kway_min, 512 * 4);

        // Moderate duplication pushes the crossover out 16x...
        let mid = WorkloadEstimate {
            output_total: 250,
            ..wide.clone()
        };
        assert_eq!(select_thresholds(&mid, 1 << 20).kway_min, 512 * 16);

        // ...and heavy duplication (>8x) keeps the kway bin off.
        let dup = WorkloadEstimate {
            output_total: 100,
            ..wide.clone()
        };
        assert_eq!(select_thresholds(&dup, 1 << 20).kway_min, u64::MAX);
        assert!(!select_thresholds(&dup, 1 << 20).kway_enabled());
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = EstimatorConfig::default().fingerprint();
        let b = EstimatorConfig {
            samples: 65,
            tolerance: 0.25,
        }
        .fingerprint();
        let c = EstimatorConfig {
            samples: 64,
            tolerance: 0.26,
        }
        .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, EstimatorConfig::default().fingerprint());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Property: estimator-driven thresholds and bins never change the
        /// numeric result. For arbitrary power-law matrices, sample sizes
        /// (including the degenerate full sample `k >= inner_dim`, where
        /// the estimate IS the exact precalculation), and thread counts,
        /// the adaptive merge over estimated bins is bit-for-bit the
        /// dense-SPA reference — estimation only moves performance knobs.
        #[test]
        fn prop_estimated_bins_bit_identical(
            seed in 0u64..1000,
            samples in 1usize..700,
            threads in 1usize..10,
        ) {
            let a = rmat(RmatConfig::graph500(8, 6, seed)).to_csr();
            let ctx = ProblemContext::new(&a, &a).unwrap();
            let config = EstimatorConfig { samples, tolerance: 10.0 };
            let est = estimate_workload(&ctx, &config);
            if samples >= ctx.inner_dim() {
                proptest::prop_assert!(est.exact);
                proptest::prop_assert_eq!(&est.row_products, &ctx.row_products);
                proptest::prop_assert_eq!(est.output_total, ctx.output_total());
                proptest::prop_assert_eq!(est.rel_band, 0.0);
            }
            let _ = select_method(&ctx, &est);
            let thresholds = select_thresholds(&est, ctx.b.ncols());
            let bins = crate::accum::RowBins::classify(&est.row_products, thresholds);
            let planned =
                crate::accum::spgemm_adaptive_planned(&a, &a, threads, &bins, None).unwrap();
            let reference = br_sparse::ops::spgemm_gustavson(&a, &a).unwrap();
            proptest::prop_assert_eq!(planned, reference);
        }
    }
}
