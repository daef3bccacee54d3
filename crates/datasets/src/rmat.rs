//! R-MAT recursive matrix generator (Chakrabarti, Zhan, Faloutsos — SDM'04).
//!
//! Each edge picks one of four quadrants per recursion level with
//! probabilities `(a, b, c, d)`; `a > d` concentrates edges in the top-left,
//! producing the power-law degree skew characteristic of social networks.
//! The paper's Table III uses exactly this model:
//! `(0.25,0.25,0.25,0.25)` (uniform, Erdős–Rényi-like) through
//! `(0.57,0.19,0.19,0.05)` (heavily skewed).

use br_sparse::CooMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Configuration of one R-MAT generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RmatConfig {
    /// Recursion depth; the sampling grid is `2^scale × 2^scale`.
    pub scale: u32,
    /// Number of **distinct** edges to produce.
    pub edges: usize,
    /// Quadrant probabilities `(a, b, c, d)`; must sum to ≈ 1.
    pub probs: [f64; 4],
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
    /// Per-level probability perturbation (± `noise/2` on `a`, compensated
    /// on `d`), as in the original paper's "smoothing" to avoid exact
    /// self-similarity staircases. `0.0` disables it.
    pub noise: f64,
    /// Clip coordinates to `dim` (rejection-sampled) when the target
    /// dimension is not a power of two — Table III's S family has
    /// dimensions like 250 000.
    pub dim: Option<usize>,
}

impl RmatConfig {
    /// Plain R-MAT on a `2^scale` grid with `edge_factor · 2^scale` edges and
    /// the Graph500 default probabilities `(0.57, 0.19, 0.19, 0.05)`.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges: edge_factor << scale,
            probs: [0.57, 0.19, 0.19, 0.05],
            seed,
            noise: 0.1,
            dim: None,
        }
    }

    /// SNAP-network-like skew: the paper's Table III "P" default
    /// `(0.45, 0.15, 0.15, 0.25)`.
    pub fn snap_like(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges: edge_factor << scale,
            probs: [0.45, 0.15, 0.15, 0.25],
            seed,
            noise: 0.1,
            dim: None,
        }
    }

    /// Uniform quadrants — an Erdős–Rényi-style regular random graph.
    pub fn uniform(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edges: edge_factor << scale,
            probs: [0.25; 4],
            seed,
            noise: 0.0,
            dim: None,
        }
    }

    /// Overrides the matrix dimension (coordinates outside are re-sampled).
    pub fn with_dim(mut self, dim: usize) -> Self {
        assert!(dim <= 1usize << self.scale, "dim exceeds 2^scale grid");
        self.dim = Some(dim);
        self
    }

    /// Overrides the exact distinct-edge count.
    pub fn with_edges(mut self, edges: usize) -> Self {
        self.edges = edges;
        self
    }

    /// Matrix dimension this config generates.
    pub fn dimension(&self) -> usize {
        self.dim.unwrap_or(1usize << self.scale)
    }
}

/// [`try_rmat`] drew its whole candidate budget without finding `edges`
/// distinct cells: the spec asks for nearly every cell of its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmatError {
    /// Edges asked for.
    pub edges: usize,
    /// Distinct edges drawn when the budget ran out.
    pub drawn: usize,
    /// Candidates drawn: the budget.
    pub candidates: u64,
}

impl std::fmt::Display for RmatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rmat draw budget exhausted: {} of {} distinct edges after {} candidates; \
             the grid is too dense to fill",
            self.drawn, self.edges, self.candidates
        )
    }
}

impl std::error::Error for RmatError {}

/// Candidates [`try_rmat`] may draw for `edges` distinct edges:
/// `max(2^20, 64 · edges)`. Graph500 specs draw 1.06–1.35 candidates per
/// edge from rmat 9,8 to 16,8 and at most a few thousand in all below
/// scale 9, so only a spec asking for nearly every cell of its grid runs
/// out.
fn candidate_budget(edges: usize) -> u64 {
    (1u64 << 20).max(64u64.saturating_mul(edges as u64))
}

/// Generates one R-MAT matrix, panicking where [`try_rmat`] fails.
pub fn rmat(config: RmatConfig) -> CooMatrix<f64> {
    try_rmat(config).unwrap_or_else(|e| panic!("{e}"))
}

/// Generates one R-MAT matrix. Edge weights are uniform in `[0.5, 1.5)`
/// (bounded away from zero so products never cancel in tests).
///
/// Duplicate samples are rejected until `edges` *distinct* coordinates
/// exist. Fails if `max(2^20, 64 · edges)` candidates do not find them;
/// within that budget the generator draws exactly the stream it always
/// has, so a spec that generates at all generates the same matrix.
///
/// # Panics
///
/// If the grid cannot hold `edges` cells or the quadrant probabilities do
/// not sum to 1 (caller bugs: job specs are bounded before they get here).
pub fn try_rmat(config: RmatConfig) -> Result<CooMatrix<f64>, RmatError> {
    let dim = config.dimension();
    assert!(
        config.edges <= dim.saturating_mul(dim),
        "edge count exceeds grid capacity"
    );
    let p = config.probs;
    let total = p.iter().sum::<f64>();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "quadrant probabilities must sum to 1, got {total}"
    );

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut seen: HashSet<u64> = HashSet::with_capacity(config.edges * 2);
    let mut coo = CooMatrix::with_capacity(dim, dim, config.edges);

    // Cumulative quadrant thresholds, re-perturbed per level when noisy.
    let base = [p[0], p[0] + p[1], p[0] + p[1] + p[2]];
    let budget = candidate_budget(config.edges);
    let mut candidates = 0u64;
    while coo.nnz() < config.edges {
        if candidates == budget {
            return Err(RmatError {
                edges: config.edges,
                drawn: coo.nnz(),
                candidates,
            });
        }
        candidates += 1;
        let (mut row, mut col) = (0usize, 0usize);
        for _ in 0..config.scale {
            let u: f64 = rng.gen();
            let thresholds = if config.noise > 0.0 {
                let jitter = (rng.gen::<f64>() - 0.5) * config.noise * p[0];
                [base[0] + jitter, base[1] + jitter, base[2] + jitter]
            } else {
                base
            };
            row <<= 1;
            col <<= 1;
            if u < thresholds[0] {
                // quadrant a: (0, 0)
            } else if u < thresholds[1] {
                col |= 1; // b: (0, 1)
            } else if u < thresholds[2] {
                row |= 1; // c: (1, 0)
            } else {
                row |= 1;
                col |= 1; // d: (1, 1)
            }
        }
        if row >= dim || col >= dim {
            continue;
        }
        let key = (row as u64) << 32 | col as u64;
        if seen.insert(key) {
            let w = 0.5 + rng.gen::<f64>();
            coo.push(row as u32, col as u32, w)
                .expect("rmat coordinates in bounds by construction");
        }
    }
    Ok(coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_sparse::stats::DegreeStats;

    #[test]
    fn produces_requested_distinct_edge_count() {
        let m = rmat(RmatConfig::snap_like(8, 4, 1));
        assert_eq!(m.nnz(), 4 << 8);
        // COO→CSR dedupe must not remove anything: edges were distinct.
        assert_eq!(m.to_csr().nnz(), 4 << 8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = rmat(RmatConfig::graph500(7, 8, 99)).to_csr();
        let b = rmat(RmatConfig::graph500(7, 8, 99)).to_csr();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat(RmatConfig::graph500(7, 8, 1)).to_csr();
        let b = rmat(RmatConfig::graph500(7, 8, 2)).to_csr();
        assert_ne!(a, b);
    }

    #[test]
    fn skewed_probs_make_skewed_degrees() {
        let skewed = rmat(RmatConfig::graph500(10, 8, 7)).to_csr();
        let uniform = rmat(RmatConfig::uniform(10, 8, 7)).to_csr();
        let s = DegreeStats::of_rows(&skewed);
        let u = DegreeStats::of_rows(&uniform);
        assert!(
            s.gini > u.gini + 0.2,
            "expected clear skew separation: gini {} vs {}",
            s.gini,
            u.gini
        );
        assert!(s.max > 4 * u.max);
    }

    #[test]
    fn dim_override_clips_coordinates() {
        let dim = 700; // not a power of two; grid is 1024
        let m = rmat(RmatConfig::uniform(10, 2, 3).with_dim(dim).with_edges(1000));
        assert_eq!(m.nrows(), dim);
        assert_eq!(m.ncols(), dim);
        assert_eq!(m.nnz(), 1000);
        assert!(m
            .iter()
            .all(|(r, c, _)| (r as usize) < dim && (c as usize) < dim));
    }

    #[test]
    fn weights_are_bounded_away_from_zero() {
        let m = rmat(RmatConfig::uniform(6, 4, 5));
        assert!(m.iter().all(|(_, _, v)| (0.5..1.5).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "probabilities must sum to 1")]
    fn bad_probs_rejected() {
        let mut c = RmatConfig::uniform(4, 2, 0);
        c.probs = [0.9, 0.2, 0.2, 0.2];
        let _ = rmat(c);
    }

    #[test]
    #[should_panic(expected = "edge count exceeds grid capacity")]
    fn impossible_edge_count_rejected() {
        let _ = rmat(RmatConfig::uniform(2, 2, 0).with_edges(17));
    }

    #[test]
    fn a_grid_too_dense_to_fill_runs_out_of_candidates() {
        // Every cell of a 64 × 64 grid under Graph500 skew: the last
        // corner cells are drawn with probability ~1e-8 each.
        let err = try_rmat(RmatConfig::graph500(6, 64, 1)).unwrap_err();
        assert_eq!((err.edges, err.candidates), (4096, 1 << 20));
        assert!(err.drawn < err.edges);
        assert!(err.to_string().contains("budget exhausted"), "{err}");
    }

    #[test]
    fn dense_grids_still_fill_inside_the_budget() {
        // rmat 3,8 and uniform 4,16 ask for every cell of their grids
        // (≈ 6,800 and ≈ 1,600 draws), rmat 6,32 for half of its cells.
        for config in [
            RmatConfig::graph500(3, 8, 1),
            RmatConfig::uniform(4, 16, 2),
            RmatConfig::graph500(6, 32, 1),
        ] {
            let edges = config.edges;
            assert_eq!(try_rmat(config).unwrap().nnz(), edges);
        }
    }
}
