//! Configuration-model generator: a random matrix with an *exact* target
//! row-degree sequence.
//!
//! Surrogate fidelity can go one step beyond "same distribution class":
//! given the row-degree sequence of a real matrix (e.g. extracted from a
//! genuine SuiteSparse download once), this generator reproduces it
//! exactly, with columns drawn from a (configurable-skew) column
//! distribution. The workload classification of the Block Reorganizer is a
//! pure function of these degree sequences, so a configuration-model clone
//! exercises the pass identically to the original matrix.

use br_sparse::CooMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How column targets are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnModel {
    /// Uniform over all columns.
    Uniform,
    /// Proportional to the same degree sequence (in-degree ≈ out-degree,
    /// as in most social networks).
    MatchDegrees,
}

/// Generates an `n × ncols` matrix whose row `r` has **exactly**
/// `degrees[r]` distinct entries (capped at `ncols`), with values in
/// `[0.5, 1.5)`.
pub fn configuration_model(
    degrees: &[usize],
    ncols: usize,
    columns: ColumnModel,
    seed: u64,
) -> CooMatrix<f64> {
    assert!(ncols > 0, "need at least one column");
    let n = degrees.len();
    let mut rng = SmallRng::seed_from_u64(seed);

    // Cumulative column weights for the MatchDegrees model.
    let cumulative: Option<Vec<u64>> = match columns {
        ColumnModel::Uniform => None,
        ColumnModel::MatchDegrees => {
            let mut acc = 0u64;
            let cum: Vec<u64> = degrees
                .iter()
                .chain(std::iter::repeat_n(&1, ncols.saturating_sub(n)))
                .take(ncols)
                .map(|&d| {
                    acc += d.max(1) as u64;
                    acc
                })
                .collect();
            Some(cum)
        }
    };
    let sample_col = |rng: &mut SmallRng| -> u32 {
        match &cumulative {
            None => rng.gen_range(0..ncols as u32),
            Some(cum) => {
                let total = *cum.last().expect("ncols > 0");
                let x = rng.gen_range(0..total);
                cum.partition_point(|&c| c <= x) as u32
            }
        }
    };

    let total: usize = degrees.iter().map(|&d| d.min(ncols)).sum();
    let mut coo = CooMatrix::with_capacity(n, ncols, total);
    let mut picked: Vec<u32> = Vec::new();
    for (r, &deg) in degrees.iter().enumerate() {
        let deg = deg.min(ncols);
        picked.clear();
        // Rejection sampling for distinct columns; switch to a dense
        // permutation draw when the degree is a large fraction of ncols.
        if deg * 3 >= ncols {
            let mut all: Vec<u32> = (0..ncols as u32).collect();
            for i in 0..deg {
                let j = rng.gen_range(i..ncols);
                all.swap(i, j);
            }
            picked.extend_from_slice(&all[..deg]);
        } else {
            while picked.len() < deg {
                let c = sample_col(&mut rng);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
        }
        for &c in &picked {
            let v = 0.5 + rng.gen::<f64>();
            coo.push(r as u32, c, v).expect("in bounds by construction");
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chung_lu::{chung_lu, ChungLuConfig};
    use br_sparse::stats::DegreeStats;

    #[test]
    fn degrees_are_reproduced_exactly() {
        let degrees = vec![0, 1, 5, 32, 200, 3, 3, 7];
        let m = configuration_model(&degrees, 300, ColumnModel::Uniform, 9).to_csr();
        assert_eq!(m.row_degrees(), degrees);
        m.check_invariants().unwrap();
    }

    #[test]
    fn degrees_above_ncols_are_capped() {
        let m = configuration_model(&[10, 2], 4, ColumnModel::Uniform, 1).to_csr();
        assert_eq!(m.row_degrees(), vec![4, 2]);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = vec![3usize; 50];
        let a = configuration_model(&d, 100, ColumnModel::MatchDegrees, 5).to_csr();
        let b = configuration_model(&d, 100, ColumnModel::MatchDegrees, 5).to_csr();
        let c = configuration_model(&d, 100, ColumnModel::MatchDegrees, 6).to_csr();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clone_preserves_row_profile_and_skew_class() {
        let original = chung_lu(ChungLuConfig {
            gamma: 2.1,
            ..ChungLuConfig::social(3000, 24_000, 4)
        })
        .to_csr();
        let clone = configuration_model(
            &original.row_degrees(),
            original.ncols(),
            ColumnModel::MatchDegrees,
            77,
        )
        .to_csr();
        assert_eq!(clone.row_degrees(), original.row_degrees());
        assert_eq!(clone.nrows(), original.nrows());
        assert_eq!(clone.ncols(), original.ncols());
        // column skew follows the row profile under MatchDegrees
        let orig_cols = DegreeStats::of_cols(&original);
        let clone_cols = DegreeStats::of_cols(&clone);
        assert_eq!(orig_cols.is_skewed(), clone_cols.is_skewed());
    }

    #[test]
    fn match_degrees_concentrates_columns_on_hubs() {
        // Rows 0..10 are hubs; their columns should also be hot.
        let mut degrees = vec![2usize; 2000];
        for d in degrees.iter_mut().take(10) {
            *d = 400;
        }
        let m = configuration_model(&degrees, 2000, ColumnModel::MatchDegrees, 3).to_csr();
        let col_stats = DegreeStats::of_cols(&m);
        let uni = configuration_model(&degrees, 2000, ColumnModel::Uniform, 3).to_csr();
        let uni_stats = DegreeStats::of_cols(&uni);
        assert!(
            col_stats.gini > uni_stats.gini + 0.1,
            "matched columns must be more skewed: {} vs {}",
            col_stats.gini,
            uni_stats.gini
        );
    }
}
