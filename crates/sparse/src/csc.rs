//! Compressed Sparse Column format.
//!
//! The outer-product expansion walks *columns* of the left operand `A`
//! (each thread block multiplies column `a₌ᵢ` by row `bᵢ₌`), so `A` is held
//! in CSC during expansion while `B` stays in CSR. The arrays of `CSC(A)`
//! are exactly those of `CSR(Aᵀ)`; this type keeps the column-oriented
//! labelling explicit instead of forcing callers to reason about transposes.

use crate::scalar::Scalar;
use crate::{CsrMatrix, Result};

/// A sparse matrix in Compressed Sparse Column form.
///
/// Invariants mirror [`CsrMatrix`] with rows ↔ columns exchanged: `ptr` has
/// `ncols + 1` entries and row indices within each column are strictly
/// increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Builds a CSC matrix, validating all invariants.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        ptr: Vec<usize>,
        idx: Vec<u32>,
        val: Vec<T>,
    ) -> Result<Self> {
        // Reuse the CSR validator on the transposed labelling.
        let as_csr = CsrMatrix::try_new(ncols, nrows, ptr, idx, val)?;
        Ok(as_csr.into_csc_of_transpose())
    }

    /// Builds from parts the caller guarantees to be canonical.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        ptr: Vec<usize>,
        idx: Vec<u32>,
        val: Vec<T>,
    ) -> Self {
        let m = CscMatrix {
            nrows,
            ncols,
            ptr,
            idx,
            val,
        };
        debug_assert!(
            m.clone().to_csr_of_transpose().check_invariants().is_ok(),
            "CSC invariants violated"
        );
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    #[inline]
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// Row index array.
    #[inline]
    pub fn idx(&self) -> &[u32] {
        &self.idx
    }

    /// Value array.
    #[inline]
    pub fn val(&self) -> &[T] {
        &self.val
    }

    /// Row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.ptr[c], self.ptr[c + 1]);
        (&self.idx[s..e], &self.val[s..e])
    }

    /// Number of stored entries in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        self.ptr[c + 1] - self.ptr[c]
    }

    /// Reinterprets `self` as the CSR of `Aᵀ` (zero-copy relabelling).
    pub fn to_csr_of_transpose(self) -> CsrMatrix<T> {
        CsrMatrix::from_parts_unchecked(self.ncols, self.nrows, self.ptr, self.idx, self.val)
    }

    /// Converts to CSR form of the *same* matrix.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        self.clone().to_csr_of_transpose().transpose()
    }

    /// Validates canonical-form invariants.
    pub fn check_invariants(&self) -> Result<()> {
        self.clone().to_csr_of_transpose().check_invariants()
    }

    /// Applies the same row gather as [`CsrMatrix::permute_rows`] on the
    /// column-oriented layout: row `i` of the result is row `order[i]` of
    /// `self`. The column pointer array is reused as-is (column nnz never
    /// changes under a row permutation); each stored row index `r` is
    /// relabelled to its position in `order` and the entries of every
    /// column are re-sorted to restore the strictly-increasing invariant.
    /// An identity order returns a plain clone.
    pub fn permute_rows(&self, order: &[u32]) -> CscMatrix<T> {
        assert_eq!(order.len(), self.nrows, "order must cover every row");
        if order.iter().enumerate().all(|(i, &r)| r as usize == i) {
            return self.clone();
        }
        let mut position = vec![u32::MAX; self.nrows];
        for (i, &r) in order.iter().enumerate() {
            position[r as usize] = i as u32;
        }
        let mut idx = Vec::with_capacity(self.nnz());
        let mut val = Vec::with_capacity(self.nnz());
        let mut entries: Vec<(u32, T)> = Vec::new();
        for c in 0..self.ncols {
            let (rows, vals) = self.col(c);
            entries.clear();
            entries.extend(
                rows.iter()
                    .zip(vals)
                    .map(|(&r, &v)| (position[r as usize], v)),
            );
            entries.sort_unstable_by_key(|&(r, _)| r);
            idx.extend(entries.iter().map(|&(r, _)| r));
            val.extend(entries.iter().map(|&(_, v)| v));
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, self.ptr.clone(), idx, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [[1, 0, 2], [0, 0, 0], [3, 4, 0]] in CSC.
    fn sample() -> CscMatrix<f64> {
        CscMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 2, 0],
            vec![1.0, 3.0, 4.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn col_access() {
        let m = sample();
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(1), 1);
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn try_new_rejects_unsorted_rows_within_column() {
        assert!(CscMatrix::<f64>::try_new(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn csr_csc_roundtrip() {
        let m = sample();
        let csr = m.to_csr();
        assert_eq!(csr.get(2, 1), 4.0);
        assert_eq!(csr.to_csc(), m);
    }

    #[test]
    fn transpose_relabelling_is_consistent() {
        let m = sample();
        let csr_t = m.clone().to_csr_of_transpose();
        // (r, c) of Aᵀ equals (c, r) of A.
        assert_eq!(csr_t.get(0, 2), 3.0);
        assert_eq!(csr_t.get(1, 2), 4.0);
    }

    #[test]
    fn permute_rows_agrees_with_the_csr_side() {
        let m = sample();
        let order = [2u32, 0, 1];
        let permuted = m.permute_rows(&order);
        permuted.check_invariants().unwrap();
        assert_eq!(permuted, m.to_csr().permute_rows(&order).to_csc());
        // Column nnz is invariant under row permutation; the pointer
        // array is reused untouched.
        assert!((0..3).all(|c| permuted.col_nnz(c) == m.col_nnz(c)));
        assert_eq!(permuted.ptr(), m.ptr());
        // Identity order is a plain clone.
        assert_eq!(m.permute_rows(&[0, 1, 2]), m);
    }
}
