//! Degree-distribution statistics for sparse networks.
//!
//! The paper's whole premise is that sparse networks have *power-law* degree
//! distributions — "a few rows with large numbers of non-zero elements while
//! a large number of rows have a few". These metrics quantify that skew so
//! the dataset registry can verify its surrogates fall in the intended
//! distribution class (regular Florida-style vs skewed SNAP-style).

use crate::scalar::Scalar;
use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Summary statistics of a matrix's row-degree distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Number of rows.
    pub n: usize,
    /// Total nnz.
    pub nnz: usize,
    /// Mean row degree.
    pub mean: f64,
    /// Maximum row degree.
    pub max: usize,
    /// Ratio `max / mean` — the paper's skew in its crudest form.
    pub max_over_mean: f64,
    /// Gini coefficient of the degree sequence in `[0, 1)`;
    /// 0 = perfectly regular, → 1 = all edges on one hub.
    pub gini: f64,
    /// Coefficient of variation (stddev / mean).
    pub cv: f64,
    /// Fraction of rows with degree < 32 (the warp size) — precisely the
    /// rows that make outer-product blocks *underloaded* (Fig. 3(b)).
    pub frac_below_warp: f64,
}

impl DegreeStats {
    /// Computes statistics from an explicit degree sequence.
    pub fn from_degrees(degrees: &[usize]) -> DegreeStats {
        let n = degrees.len();
        let nnz: usize = degrees.iter().sum();
        if n == 0 {
            return DegreeStats {
                n: 0,
                nnz: 0,
                mean: 0.0,
                max: 0,
                max_over_mean: 0.0,
                gini: 0.0,
                cv: 0.0,
                frac_below_warp: 0.0,
            };
        }
        let mean = nnz as f64 / n as f64;
        let max = degrees.iter().copied().max().unwrap_or(0);
        let var = degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / n as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        // Gini via the sorted-rank formula: G = (2·Σ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n.
        let mut sorted: Vec<usize> = degrees.to_vec();
        sorted.sort_unstable();
        let gini = if nnz == 0 {
            0.0
        } else {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
                .sum();
            (2.0 * weighted) / (n as f64 * nnz as f64) - (n as f64 + 1.0) / n as f64
        };
        let below = degrees.iter().filter(|&&d| d < 32).count();
        DegreeStats {
            n,
            nnz,
            mean,
            max,
            max_over_mean: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            gini,
            cv,
            frac_below_warp: below as f64 / n as f64,
        }
    }

    /// Row-degree statistics of a CSR matrix.
    pub fn of_rows<T: Scalar>(m: &CsrMatrix<T>) -> DegreeStats {
        Self::from_degrees(&m.row_degrees())
    }

    /// Column-degree statistics of a CSR matrix (single counting pass).
    pub fn of_cols<T: Scalar>(m: &CsrMatrix<T>) -> DegreeStats {
        let mut deg = vec![0usize; m.ncols()];
        for &c in m.idx() {
            deg[c as usize] += 1;
        }
        Self::from_degrees(&deg)
    }

    /// Heuristic classification used by the dataset registry: a matrix is
    /// "skewed" when its degree Gini exceeds 0.5 or max/mean exceeds 50 —
    /// thresholds that cleanly separate the paper's SNAP sets (youtube,
    /// loc-gowalla, as-caida, …) from its Florida mesh matrices.
    pub fn is_skewed(&self) -> bool {
        self.gini > 0.5 || self.max_over_mean > 50.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_sequence_has_zero_gini() {
        let s = DegreeStats::from_degrees(&[4, 4, 4, 4]);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.max_over_mean, 1.0);
        assert!(!s.is_skewed());
    }

    #[test]
    fn hub_sequence_is_skewed() {
        let mut deg = vec![1usize; 999];
        deg.push(100_000);
        let s = DegreeStats::from_degrees(&deg);
        assert!(s.gini > 0.9);
        assert!(s.is_skewed());
        assert!(s.frac_below_warp > 0.99);
    }

    #[test]
    fn empty_input_is_all_zero() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = DegreeStats::from_degrees(&[1, 2, 3, 4]);
        let b = DegreeStats::from_degrees(&[10, 20, 30, 40]);
        assert!((a.gini - b.gini).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_stats_of_symmetric_matrix_agree() {
        let m =
            CsrMatrix::<f64>::try_new(3, 3, vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], vec![1.0; 6])
                .unwrap();
        assert_eq!(DegreeStats::of_rows(&m), DegreeStats::of_cols(&m));
    }

    #[test]
    fn frac_below_warp_counts_strictly_less_than_32() {
        let s = DegreeStats::from_degrees(&[31, 32, 33]);
        assert!((s.frac_below_warp - 1.0 / 3.0).abs() < 1e-12);
    }
}
