//! Coordinate (triplet) format — the assembly format.
//!
//! Generators and the Matrix Market reader produce [`CooMatrix`]; it permits
//! unsorted and duplicate entries (duplicates are summed on compression),
//! which is exactly the contract of the Matrix Market exchange format and of
//! R-MAT style edge samplers.

use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{CscMatrix, CsrMatrix, Result};

/// A sparse matrix in coordinate (COO / triplet) form.
///
/// Entries may appear in any order and coordinates may repeat; repeated
/// coordinates are *summed* when converting to a compressed format, matching
/// Matrix Market semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Creates an empty matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension exceeds `u32::MAX` (indices are `u32`).
    pub fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows <= u32::MAX as usize && ncols <= u32::MAX as usize,
            "matrix dimensions must fit in u32 indices"
        );
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        let mut m = Self::new(nrows, ncols);
        m.rows.reserve(cap);
        m.cols.reserve(cap);
        m.vals.reserve(cap);
        m
    }

    /// Appends one entry. Out-of-bounds coordinates are an error.
    pub fn push(&mut self, row: u32, col: u32, val: T) -> Result<()> {
        if row as usize >= self.nrows || col as usize >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: row as usize,
                col: col as usize,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
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

    /// Number of stored entries *including* duplicates.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Iterates over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicate coordinates and dropping entries
    /// whose accumulated value is exactly zero? — **no**: explicit zeros are
    /// kept, because sparsity *structure* (not numeric value) drives every
    /// workload model in this workspace, and Matrix Market files may contain
    /// explicit zeros that the paper's preprocessing would still count.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        // Counting sort on rows: O(nnz + nrows), no comparison sort needed.
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let ptr = counts.clone();
        let mut idx = vec![0u32; self.nnz()];
        let mut val = vec![T::ZERO; self.nnz()];
        let mut cursor = counts;
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let p = cursor[r as usize];
            idx[p] = c;
            val[p] = v;
            cursor[r as usize] += 1;
        }
        // Sort columns within each row and sum duplicates.
        let mut out_ptr = Vec::with_capacity(self.nrows + 1);
        let mut out_idx = Vec::with_capacity(self.nnz());
        let mut out_val = Vec::with_capacity(self.nnz());
        out_ptr.push(0usize);
        let mut scratch: Vec<(u32, T)> = Vec::new();
        for r in 0..self.nrows {
            let (s, e) = (ptr[r], ptr[r + 1]);
            scratch.clear();
            scratch.extend(idx[s..e].iter().copied().zip(val[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_idx.push(c);
                out_val.push(v);
                i = j;
            }
            out_ptr.push(out_idx.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, out_ptr, out_idx, out_val)
    }

    /// Converts to CSC, summing duplicate coordinates (explicit zeros kept).
    pub fn to_csc(&self) -> CscMatrix<T> {
        self.transposed_view_coo().to_csr().into_csc_of_transpose()
    }

    /// Returns the COO of the transpose (swaps coordinate arrays; cheap).
    pub fn transposed_view_coo(&self) -> CooMatrix<T> {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 1, 1.0).unwrap();
        m.push(2, 3, 2.0).unwrap();
        m.push(0, 1, 3.0).unwrap(); // duplicate, sums to 4.0
        m.push(1, 0, 5.0).unwrap();
        m
    }

    #[test]
    fn push_and_len() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
    }

    #[test]
    fn push_out_of_bounds_is_rejected() {
        let mut m = CooMatrix::<f64>::new(2, 2);
        assert!(m.push(2, 0, 1.0).is_err());
        assert!(m.push(0, 2, 1.0).is_err());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn to_csr_sums_duplicates_and_sorts_columns() {
        let csr = sample().to_csr();
        assert_eq!(csr.nnz(), 3);
        let (idx, val) = csr.row(0);
        assert_eq!(idx, &[1]);
        assert_eq!(val, &[4.0]);
        let (idx, _) = csr.row(1);
        assert_eq!(idx, &[0]);
        let (idx, val) = csr.row(2);
        assert_eq!(idx, &[3]);
        assert_eq!(val, &[2.0]);
        csr.check_invariants().unwrap();
    }

    #[test]
    fn empty_rows_are_preserved() {
        let mut m = CooMatrix::<f64>::new(5, 5);
        m.push(4, 0, 1.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.row_nnz(0), 0);
        assert_eq!(csr.row_nnz(4), 1);
    }

    #[test]
    fn explicit_zero_entries_are_kept() {
        let mut m = CooMatrix::<f64>::new(2, 2);
        m.push(0, 0, 0.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 1);
    }

    #[test]
    fn transposed_coo_swaps_shape() {
        let t = sample().transposed_view_coo();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.nnz(), 4);
    }
}
