//! Deterministic element-wise operators for chained multiplication
//! workloads (`br-workloads` post-ops).
//!
//! Each operator here is the host-side kernel behind one chain post-op:
//!
//! * [`CsrMatrix::mask_by_pattern`] — keep only the entries of `self`
//!   whose position is stored in a pattern matrix (triangle counting's
//!   `A² ∘ A`).
//! * [`CsrMatrix::column_normalize`] — divide every entry by its column
//!   sum, the Markov-cluster expansion normalisation.
//! * [`CsrMatrix::threshold_prune`] — drop entries of magnitude ≤ `tol`,
//!   the Markov-cluster inflation proxy (parallel twin of
//!   [`CsrMatrix::prune`]).
//!
//! All three parallelise over contiguous row ranges with
//! [`par::ordered_bounds_map`], and every float reduction (the column
//! sums) runs **sequentially in row-major entry order** — so results are
//! bit-identical at any `BR_THREADS` count, which the proptests below
//! check against the sequential twins. Outputs are canonical CSR by
//! construction (per-row filtering preserves column order).

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{par, Result};

/// Per-chunk filtered rows: locally-offset pointers plus the surviving
/// entries, stitched back together in chunk order.
type RowChunk<T> = (Vec<usize>, Vec<u32>, Vec<T>);

/// Applies a per-row filter `keep(row, col, val)` over row chunks on
/// `threads` workers and stitches the chunks in order — the shared engine
/// behind masking and pruning. Bit-identical at any thread count because
/// the filter is row-local and assembly order is fixed by the chunk bounds.
fn filter_rows<T: Scalar>(
    m: &CsrMatrix<T>,
    threads: usize,
    keep: impl Fn(usize, u32, T) -> bool + Sync,
) -> CsrMatrix<T> {
    let bounds = par::chunk_bounds(m.nrows(), threads);
    let chunks: Vec<RowChunk<T>> = par::ordered_bounds_map(&bounds, |range| {
        let mut ptr = Vec::with_capacity(range.len());
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in range {
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if keep(r, c, v) {
                    idx.push(c);
                    val.push(v);
                }
            }
            ptr.push(idx.len());
        }
        (ptr, idx, val)
    });
    let nnz: usize = chunks.iter().map(|(_, idx, _)| idx.len()).sum();
    let mut ptr = Vec::with_capacity(m.nrows() + 1);
    let mut idx = Vec::with_capacity(nnz);
    let mut val = Vec::with_capacity(nnz);
    ptr.push(0usize);
    for (local_ptr, local_idx, local_val) in chunks {
        let base = idx.len();
        ptr.extend(local_ptr.iter().map(|&p| base + p));
        idx.extend(local_idx);
        val.extend(local_val);
    }
    CsrMatrix::from_parts_unchecked(m.nrows(), m.ncols(), ptr, idx, val)
}

impl<T: Scalar> CsrMatrix<T> {
    /// Keeps only the entries of `self` whose `(row, col)` position is
    /// stored in `pattern` (values of `pattern` are ignored — an explicit
    /// zero still selects). This is the Hadamard-mask `self ∘ spy(pattern)`
    /// used by triangle counting (`A² ∘ A`).
    ///
    /// Fails with [`SparseError::ShapeMismatch`] when the shapes differ.
    /// Both operands must be canonical CSR; each output row is the sorted
    /// intersection of the two rows, so the result is canonical by
    /// construction and bit-identical at any thread count.
    pub fn mask_by_pattern(&self, pattern: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
        self.mask_by_pattern_threaded(pattern, par::effective_threads(None))
    }

    /// [`CsrMatrix::mask_by_pattern`] over `threads` workers.
    fn mask_by_pattern_threaded(
        &self,
        pattern: &CsrMatrix<T>,
        threads: usize,
    ) -> Result<CsrMatrix<T>> {
        if self.nrows() != pattern.nrows() || self.ncols() != pattern.ncols() {
            return Err(SparseError::ShapeMismatch {
                op: "mask_by_pattern",
                lhs: (self.nrows(), self.ncols()),
                rhs: (pattern.nrows(), pattern.ncols()),
            });
        }
        Ok(filter_rows(self, threads, |r, c, _| {
            let (cols, _) = pattern.row(r);
            cols.binary_search(&c).is_ok()
        }))
    }

    /// Divides every entry by its column's sum, making each non-degenerate
    /// column sum to one — the Markov-cluster expansion step. Columns whose
    /// sum is exactly zero (empty, or fully cancelled) are left untouched:
    /// there is no finite normaliser for them.
    ///
    /// The column sums are accumulated **sequentially in row-major entry
    /// order** (the documented float-reduction rule of [`par`]), then the
    /// per-entry divide — which needs no reduction — runs over parallel row
    /// chunks; structure is unchanged and values are bit-identical at any
    /// thread count.
    pub fn column_normalize(&self) -> CsrMatrix<T> {
        self.column_normalize_threaded(par::effective_threads(None))
    }

    /// [`CsrMatrix::column_normalize`] with the divide over `threads`
    /// workers.
    fn column_normalize_threaded(&self, threads: usize) -> CsrMatrix<T> {
        let mut colsum = vec![T::ZERO; self.ncols()];
        for r in 0..self.nrows() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                colsum[c as usize] += v;
            }
        }
        let bounds = par::chunk_bounds(self.nrows(), threads);
        let chunks: Vec<Vec<T>> = par::ordered_bounds_map(&bounds, |range| {
            let mut out = Vec::new();
            for r in range {
                let (cols, vals) = self.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    let s = colsum[c as usize];
                    out.push(if s == T::ZERO { v } else { v / s });
                }
            }
            out
        });
        let mut val = Vec::with_capacity(self.nnz());
        for chunk in chunks {
            val.extend(chunk);
        }
        CsrMatrix::from_parts_unchecked(
            self.nrows(),
            self.ncols(),
            self.ptr().to_vec(),
            self.idx().to_vec(),
            val,
        )
    }

    /// Drops entries of magnitude ≤ `tol` — the parallel twin of
    /// [`CsrMatrix::prune`], bit-identical to it at any thread count
    /// because the filter is per-entry and assembly order is fixed.
    pub fn threshold_prune(&self, tol: f64) -> CsrMatrix<T> {
        self.threshold_prune_threaded(tol, par::effective_threads(None))
    }

    /// [`CsrMatrix::threshold_prune`] over `threads` workers.
    fn threshold_prune_threaded(&self, tol: f64, threads: usize) -> CsrMatrix<T> {
        filter_rows(self, threads, |_, _, v| v.abs().to_f64() > tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [[1, 0, 2], [0, 0, 0], [3, 4, 0]]
    fn sample() -> CsrMatrix<f64> {
        CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn mask_keeps_only_pattern_positions() {
        let m = sample();
        // Pattern: {(0,0), (2,1), (1,1)} — (1,1) selects nothing in m.
        let pat =
            CsrMatrix::try_new(3, 3, vec![0, 1, 2, 3], vec![0, 1, 1], vec![9.0, 0.0, 9.0]).unwrap();
        let masked = m.mask_by_pattern(&pat).unwrap();
        masked.check_invariants().unwrap();
        assert_eq!(masked.nnz(), 2);
        assert_eq!(masked.get(0, 0), 1.0);
        assert_eq!(masked.get(2, 1), 4.0);
        assert_eq!(masked.get(0, 2), 0.0);
        // Self-mask is the identity on structure and values.
        assert_eq!(m.mask_by_pattern(&m).unwrap(), m);
    }

    #[test]
    fn mask_rejects_shape_mismatch() {
        let m = sample();
        let narrow = CsrMatrix::<f64>::zeros(3, 2);
        assert!(m.mask_by_pattern(&narrow).is_err());
    }

    #[test]
    fn column_normalize_makes_columns_stochastic() {
        let m = sample();
        let n = m.column_normalize();
        n.check_invariants().unwrap();
        assert_eq!(n.ptr(), m.ptr());
        assert_eq!(n.idx(), m.idx());
        // Column sums: c0 = 4, c1 = 4, c2 = 2.
        assert_eq!(n.get(0, 0), 0.25);
        assert_eq!(n.get(2, 0), 0.75);
        assert_eq!(n.get(2, 1), 1.0);
        assert_eq!(n.get(0, 2), 1.0);
        // Already-stochastic matrices are a fixed point.
        assert_eq!(n.column_normalize(), n);
    }

    #[test]
    fn column_normalize_leaves_zero_sum_columns_alone() {
        // Column 0 sums to exactly zero through cancellation.
        let m = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 0], vec![2.0, -2.0]).unwrap();
        let n = m.column_normalize();
        assert_eq!(n, m);
    }

    #[test]
    fn threshold_prune_matches_sequential_prune() {
        let m = CsrMatrix::try_new(
            2,
            3,
            vec![0, 3, 4],
            vec![0, 1, 2, 0],
            vec![1.0, 1e-12, -2.0, 0.0],
        )
        .unwrap();
        let p = m.threshold_prune(1e-9);
        assert_eq!(p, m.prune(1e-9));
        assert_eq!(p.nnz(), 2);
        p.check_invariants().unwrap();
    }

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_csr(rng: &mut SmallRng, nrows: usize, ncols: usize) -> CsrMatrix<f64> {
        let mut coo = crate::CooMatrix::with_capacity(nrows, ncols, 4 * nrows);
        for _ in 0..rng.gen_range(0..4 * nrows.max(1)) {
            coo.push(
                rng.gen_range(0..nrows) as u32,
                rng.gen_range(0..ncols) as u32,
                rng.gen_range(-4.0f64..4.0),
            )
            .unwrap();
        }
        coo.to_csr()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// Property: every element-wise op is bit-identical to its
        /// sequential twin at any thread count — the determinism contract
        /// the chain executor relies on. Each count goes to the operators'
        /// bodies directly, so no other test sees it.
        #[test]
        fn prop_eltwise_ops_are_thread_count_invariant(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nrows = rng.gen_range(1usize..40);
            let ncols = rng.gen_range(1usize..40);
            let m = random_csr(&mut rng, nrows, ncols);
            let pat = random_csr(&mut rng, nrows, ncols);
            let masked1 = m.mask_by_pattern_threaded(&pat, 1).unwrap();
            let norm1 = m.column_normalize_threaded(1);
            let pruned1 = m.threshold_prune_threaded(0.5, 1);
            for threads in [2usize, 3, 8] {
                proptest::prop_assert_eq!(&m.mask_by_pattern_threaded(&pat, threads).unwrap(), &masked1);
                proptest::prop_assert_eq!(&m.column_normalize_threaded(threads), &norm1);
                proptest::prop_assert_eq!(&m.threshold_prune_threaded(0.5, threads), &pruned1);
            }
            // And the parallel prune is bit-identical to the sequential
            // csr::prune at every tolerance.
            proptest::prop_assert_eq!(m.threshold_prune(0.5), m.prune(0.5));
        }

        /// Property: masking by a pattern is idempotent and never grows
        /// the entry set; normalising a strictly positive matrix makes
        /// every occupied column sum to one (within rounding).
        #[test]
        fn prop_mask_idempotent_and_normalize_stochastic(seed in 0u64..10_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nrows = rng.gen_range(1usize..24);
            let ncols = rng.gen_range(1usize..24);
            let m = random_csr(&mut rng, nrows, ncols);
            let pat = random_csr(&mut rng, nrows, ncols);
            let once = m.mask_by_pattern(&pat).unwrap();
            proptest::prop_assert_eq!(once.mask_by_pattern(&pat).unwrap(), once.clone());
            proptest::prop_assert!(once.nnz() <= m.nnz().min(pat.nnz()));
            let pos = m.map_values(|v| v.abs() + 1.0e-3);
            let n = pos.column_normalize();
            let mut colsum = vec![0.0f64; n.ncols()];
            let mut occupied = vec![false; n.ncols()];
            for (_, c, v) in n.iter() {
                colsum[c as usize] += v;
                occupied[c as usize] = true;
            }
            for (c, &s) in colsum.iter().enumerate() {
                if occupied[c] {
                    proptest::prop_assert!((s - 1.0).abs() < 1e-12, "column {} sums to {}", c, s);
                }
            }
        }
    }
}
