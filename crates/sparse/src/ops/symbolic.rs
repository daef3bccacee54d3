//! Symbolic analysis of `C = A · B` — the quantities the Block Reorganizer's
//! *precalculation* step computes before launching any numeric kernel.
//!
//! Three distinct numbers matter (Section IV-B of the paper):
//!
//! * **block-wise nnz** — for outer-product pair `i`, the number of
//!   intermediate products `nnz(a₌ᵢ) · nnz(bᵢ₌)`: the workload of thread
//!   block `i`, used to classify dominators / low performers.
//! * **row-wise intermediate nnz** — for output row `r`, the number of
//!   intermediate products landing in row `r` (duplicates counted): the
//!   merge workload of row `r`, used by B-Limiting.
//! * **exact symbolic nnz(C)** — the number of *unique* output positions,
//!   needed to size the final matrix.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::SparseError;
use crate::par;
use crate::scalar::Scalar;
use crate::{CsrMatrix, Result};

/// Counts every [`symbolic_nnz`] pass — the tripwire showing which callers
/// still pay the exact symbolic SPA.
static SYMBOLIC_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of [`symbolic_nnz`] passes so far in this process.
pub fn symbolic_runs() -> u64 {
    SYMBOLIC_RUNS.load(Ordering::SeqCst)
}

/// Total number of intermediate products `nnz(Ĉ) = Σᵢ nnz(a₌ᵢ)·nnz(bᵢ₌)`.
///
/// Equals the number of multiply operations of any product-expansion scheme,
/// and the size of the intermediate matrix before merging.
pub fn intermediate_nnz<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<u64> {
    Ok(block_products(a, b)?.iter().sum())
}

/// Per-pair workloads: `out[i] = nnz(a₌ᵢ) · nnz(bᵢ₌)` for every inner index.
///
/// `a` is given in CSR; its column degrees are obtained via a counting pass
/// (no transpose materialisation needed).
pub fn block_products<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<Vec<u64>> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "block_products",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    let mut col_deg = vec![0u64; a.ncols()];
    for &c in a.idx() {
        col_deg[c as usize] += 1;
    }
    Ok((0..a.ncols())
        .map(|i| col_deg[i] * b.row_nnz(i) as u64)
        .collect())
}

/// Per-output-row intermediate product counts (duplicates included):
/// `out[r] = Σ_{k ∈ row r of A} nnz(b_k*)`.
pub fn row_intermediate_nnz<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<Vec<u64>> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "row_intermediate_nnz",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    Ok((0..a.nrows())
        .map(|r| {
            let (cols, _) = a.row(r);
            cols.iter().map(|&k| b.row_nnz(k as usize) as u64).sum()
        })
        .collect())
}

/// [`row_intermediate_nnz`] distributed over `threads` scoped workers.
///
/// Rows are independent and assembled in index order, so the output is
/// bit-identical to the sequential scan at any thread count. This is the
/// weights pass every row-partitioned numeric merger and the adaptive
/// engine's row binning share.
pub fn row_intermediate_nnz_threaded<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
) -> Result<Vec<u64>> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "row_intermediate_nnz",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    Ok(par::ordered_index_map(a.nrows(), threads, |r| {
        let (cols, _) = a.row(r);
        cols.iter().map(|&k| b.row_nnz(k as usize) as u64).sum()
    }))
}

/// Exact `nnz(C)` per row, via a symbolic SPA (boolean accumulator).
///
/// Returns the per-row unique-column counts; `sum` gives `nnz(C)`.
pub fn symbolic_nnz<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<Vec<usize>> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "symbolic_nnz",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    SYMBOLIC_RUNS.fetch_add(1, Ordering::SeqCst);
    let mut mark = vec![u32::MAX; b.ncols()];
    let mut counts = Vec::with_capacity(a.nrows());
    for r in 0..a.nrows() {
        let stamp = r as u32;
        let mut count = 0usize;
        let (cols, _) = a.row(r);
        for &k in cols {
            let (bcols, _) = b.row(k as usize);
            for &j in bcols {
                if mark[j as usize] != stamp {
                    mark[j as usize] = stamp;
                    count += 1;
                }
            }
        }
        counts.push(count);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::spgemm_gustavson;

    fn a() -> CsrMatrix<f64> {
        // [[1, 0, 2], [0, 3, 0], [4, 5, 0]]
        CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn block_products_match_definition() {
        let m = a();
        // col degrees of A: col0 -> 2, col1 -> 2, col2 -> 1
        // row nnz of A (as B): row0 -> 2, row1 -> 1, row2 -> 2
        assert_eq!(block_products(&m, &m).unwrap(), vec![4, 2, 2]);
    }

    #[test]
    fn intermediate_equals_sum_of_blocks() {
        let m = a();
        assert_eq!(intermediate_nnz(&m, &m).unwrap(), 8);
    }

    #[test]
    fn row_intermediate_counts() {
        let m = a();
        // row0 of A hits cols {0,2}: nnz(b0*)+nnz(b2*) = 2+2 = 4
        // row1 hits col {1}: 1; row2 hits {0,1}: 2+1 = 3
        assert_eq!(row_intermediate_nnz(&m, &m).unwrap(), vec![4, 1, 3]);
    }

    #[test]
    fn row_intermediate_sums_to_total() {
        let m = a();
        let rows = row_intermediate_nnz(&m, &m).unwrap();
        assert_eq!(rows.iter().sum::<u64>(), intermediate_nnz(&m, &m).unwrap());
    }

    #[test]
    fn threaded_row_intermediate_matches_sequential() {
        let m = a();
        let seq = row_intermediate_nnz(&m, &m).unwrap();
        for threads in [1, 2, 8] {
            assert_eq!(row_intermediate_nnz_threaded(&m, &m, threads).unwrap(), seq);
        }
        let bad = CsrMatrix::<f64>::zeros(2, 3);
        assert!(row_intermediate_nnz_threaded(&bad, &bad, 4).is_err());
    }

    #[test]
    fn symbolic_matches_numeric_structure() {
        let m = a();
        let counts = symbolic_nnz(&m, &m).unwrap();
        let c = spgemm_gustavson(&m, &m).unwrap();
        let numeric: Vec<usize> = (0..3).map(|r| c.row_nnz(r)).collect();
        assert_eq!(counts, numeric);
    }

    #[test]
    fn symbolic_at_most_intermediate() {
        let m = a();
        let sym: u64 = symbolic_nnz(&m, &m)
            .unwrap()
            .iter()
            .map(|&x| x as u64)
            .sum();
        assert!(sym <= intermediate_nnz(&m, &m).unwrap());
    }

    #[test]
    fn shape_mismatch_rejected_everywhere() {
        let a = CsrMatrix::<f64>::zeros(2, 3);
        let b = CsrMatrix::<f64>::zeros(2, 3);
        assert!(block_products(&a, &b).is_err());
        assert!(intermediate_nnz(&a, &b).is_err());
        assert!(row_intermediate_nnz(&a, &b).is_err());
        assert!(symbolic_nnz(&a, &b).is_err());
    }
}
