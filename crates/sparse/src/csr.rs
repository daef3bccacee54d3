//! Compressed Sparse Row format — the canonical compute format.
//!
//! Invariants (checked by [`CsrMatrix::try_new`] / [`CsrMatrix::check_invariants`]):
//!
//! 1. `ptr.len() == nrows + 1`, `ptr[0] == 0`, `ptr` non-decreasing,
//!    `ptr[nrows] == idx.len() == val.len()`.
//! 2. Within each row, column indices are strictly increasing (sorted, no
//!    duplicates) and `< ncols`.
//!
//! Unordered rows (the paper's merge outputs unordered rows, like
//! Gustavson's) become canonical through [`CsrMatrix::sort_rows`] when a
//! canonical form is required for comparison.

use crate::error::SparseError;
use crate::hash::{fnv_mix, FNV_OFFSET};
use crate::scalar::Scalar;
use crate::{CscMatrix, DenseMatrix, Result};

/// A sparse matrix in Compressed Sparse Row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix, validating every invariant listed at module level.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        ptr: Vec<usize>,
        idx: Vec<u32>,
        val: Vec<T>,
    ) -> Result<Self> {
        let m = CsrMatrix {
            nrows,
            ncols,
            ptr,
            idx,
            val,
        };
        m.check_invariants()?;
        Ok(m)
    }

    /// Builds a CSR matrix from parts the caller guarantees to be canonical.
    ///
    /// Used on hot paths (conversions, kernel outputs) where invariants hold
    /// by construction. Debug builds still verify them.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        ptr: Vec<usize>,
        idx: Vec<u32>,
        val: Vec<T>,
    ) -> Self {
        let m = CsrMatrix {
            nrows,
            ncols,
            ptr,
            idx,
            val,
        };
        debug_assert!(m.check_invariants().is_ok(), "CSR invariants violated");
        m
    }

    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            ptr: vec![0; nrows + 1],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            ptr: (0..=n).collect(),
            idx: (0..n as u32).collect(),
            val: vec![T::ONE; n],
        }
    }

    fn check_pointer_invariants(&self) -> Result<()> {
        if self.ptr.len() != self.nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "ptr length {} != nrows + 1 = {}",
                self.ptr.len(),
                self.nrows + 1
            )));
        }
        if self.ptr[0] != 0 {
            return Err(SparseError::InvalidStructure(
                "ptr[0] must be 0".to_string(),
            ));
        }
        if self.ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure(
                "ptr must be non-decreasing".to_string(),
            ));
        }
        if *self.ptr.last().expect("ptr non-empty") != self.idx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "ptr[nrows] = {} != idx.len() = {}",
                self.ptr.last().unwrap(),
                self.idx.len()
            )));
        }
        if self.idx.len() != self.val.len() {
            return Err(SparseError::InvalidStructure(format!(
                "idx.len() = {} != val.len() = {}",
                self.idx.len(),
                self.val.len()
            )));
        }
        Ok(())
    }

    /// Verifies every canonical-form invariant; `Ok(())` when valid.
    pub fn check_invariants(&self) -> Result<()> {
        self.check_pointer_invariants()?;
        for r in 0..self.nrows {
            let row = &self.idx[self.ptr[r]..self.ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} column indices not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has column index {last} >= ncols {}",
                        self.ncols
                    )));
                }
            }
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// Column index array.
    #[inline]
    pub fn idx(&self) -> &[u32] {
        &self.idx
    }

    /// Value array.
    #[inline]
    pub fn val(&self) -> &[T] {
        &self.val
    }

    /// Value-independent hash of the sparsity structure: one FNV word step
    /// ([`fnv_mix`]) per row pointer, then per column index. Equal
    /// structures hash equal; the plan cache's matrix signature and the
    /// chain executor's structure-churn check both use it.
    pub fn structure_hash(&self) -> u64 {
        let h = self
            .ptr
            .iter()
            .fold(FNV_OFFSET, |h, &p| fnv_mix(h, p as u64));
        self.idx.iter().fold(h, |h, &j| fnv_mix(h, j as u64))
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.ptr[r], self.ptr[r + 1]);
        (&self.idx[s..e], &self.val[s..e])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.ptr[r + 1] - self.ptr[r]
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (idx, val) = self.row(r);
            idx.iter().zip(val).map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Value at `(r, c)`, or zero when the entry is not stored.
    ///
    /// Canonical form required; binary-searches the row.
    pub fn get(&self, r: usize, c: usize) -> T {
        let (idx, val) = self.row(r);
        match idx.binary_search(&(c as u32)) {
            Ok(p) => val[p],
            Err(_) => T::ZERO,
        }
    }

    /// Sorts every row by column index in place (stable for distinct keys),
    /// turning an unordered-CSR kernel output into canonical form.
    pub fn sort_rows(&mut self) {
        let mut scratch: Vec<(u32, T)> = Vec::new();
        for r in 0..self.nrows {
            let (s, e) = (self.ptr[r], self.ptr[r + 1]);
            if self.idx[s..e].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            scratch.clear();
            scratch.extend(
                self.idx[s..e]
                    .iter()
                    .copied()
                    .zip(self.val[s..e].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for (k, &(c, v)) in scratch.iter().enumerate() {
                self.idx[s + k] = c;
                self.val[s + k] = v;
            }
        }
    }

    /// Transposes the matrix via a counting sort — O(nnz + dims).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let ptr = counts.clone();
        let mut idx = vec![0u32; self.nnz()];
        let mut val = vec![T::ZERO; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = cursor[c as usize];
                idx[p] = r as u32;
                val[p] = v;
                cursor[c as usize] += 1;
            }
        }
        // Row-major traversal writes row indices in increasing order per
        // column, so the result is canonical by construction.
        CsrMatrix::from_parts_unchecked(self.ncols, self.nrows, ptr, idx, val)
    }

    /// Reinterprets `self` (which must hold the CSR of `Aᵀ`) as the CSC of
    /// `A` — the arrays are identical, only the labelling changes.
    pub fn into_csc_of_transpose(self) -> CscMatrix<T> {
        CscMatrix::from_parts_unchecked(self.ncols, self.nrows, self.ptr, self.idx, self.val)
    }

    /// Converts to CSC (column-compressed) form.
    pub fn to_csc(&self) -> CscMatrix<T> {
        self.transpose().into_csc_of_transpose()
    }

    /// Materialises the matrix densely; intended for small test oracles.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            *d.get_mut(r as usize, c as usize) += v;
        }
        d
    }

    /// `true` when both matrices have identical structure and all values
    /// match within `tol` (canonicalise first for unordered outputs).
    pub fn approx_eq(&self, other: &CsrMatrix<T>, tol: f64) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.ptr == other.ptr
            && self.idx == other.idx
            && self
                .val
                .iter()
                .zip(&other.val)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }

    /// Per-row nnz histogram — the degree sequence used by workload
    /// classification and by dataset statistics.
    pub fn row_degrees(&self) -> Vec<usize> {
        self.ptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Returns a copy with every stored value transformed by `f`
    /// (structure unchanged — `f` returning zero keeps an explicit zero).
    pub fn map_values(&self, f: impl Fn(T) -> T) -> CsrMatrix<T> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr: self.ptr.clone(),
            idx: self.idx.clone(),
            val: self.val.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Returns a copy with entries of magnitude ≤ `tol` removed — including
    /// the explicit zeros the multiplication kernels may produce through
    /// numeric cancellation.
    pub fn prune(&self, tol: f64) -> CsrMatrix<T> {
        let mut ptr = Vec::with_capacity(self.nrows + 1);
        let mut idx = Vec::with_capacity(self.nnz());
        let mut val = Vec::with_capacity(self.nnz());
        ptr.push(0usize);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v.abs().to_f64() > tol {
                    idx.push(c);
                    val.push(v);
                }
            }
            ptr.push(idx.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr,
            idx,
            val,
        }
    }

    /// Gathers rows into a new order: row `i` of the result is row
    /// `order[i]` of `self`, so `order` must be a permutation of
    /// `0..nrows`. Within-row entries are copied verbatim — column order
    /// (and therefore any accumulation order downstream) is untouched,
    /// which is what keeps a permute → multiply → unpermute round trip
    /// bit-identical. An identity order returns a plain clone without
    /// rebuilding the arrays.
    pub fn permute_rows(&self, order: &[u32]) -> CsrMatrix<T> {
        assert_eq!(order.len(), self.nrows, "order must cover every row");
        if order.iter().enumerate().all(|(i, &r)| r as usize == i) {
            return self.clone();
        }
        let mut ptr = Vec::with_capacity(self.nrows + 1);
        let mut idx = Vec::with_capacity(self.nnz());
        let mut val = Vec::with_capacity(self.nnz());
        ptr.push(0);
        for &r in order {
            let (cols, vals) = self.row(r as usize);
            idx.extend_from_slice(cols);
            val.extend_from_slice(vals);
            ptr.push(idx.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, ptr, idx, val)
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
    fn accessors() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
    }

    #[test]
    fn try_new_rejects_bad_ptr() {
        assert!(CsrMatrix::<f64>::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::<f64>::try_new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(
            CsrMatrix::<f64>::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
        assert!(
            CsrMatrix::<f64>::try_new(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]).is_err()
        );
    }

    #[test]
    fn try_new_rejects_unsorted_or_duplicate_columns() {
        assert!(CsrMatrix::<f64>::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::<f64>::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn try_new_rejects_out_of_bounds_column() {
        assert!(CsrMatrix::<f64>::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn sort_rows_canonicalizes_unordered_rows() {
        let m = CsrMatrix::<f64> {
            nrows: 1,
            ncols: 3,
            ptr: vec![0, 2],
            idx: vec![2, 0],
            val: vec![1.0, 2.0],
        };
        assert!(m.check_invariants().is_err());
        let mut m = m;
        m.sort_rows();
        m.check_invariants().unwrap();
        assert_eq!(m.idx(), &[0, 2]);
        assert_eq!(m.val(), &[2.0, 1.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
        t.check_invariants().unwrap();
    }

    #[test]
    fn identity_multiplicative_shape() {
        let i = CsrMatrix::<f64>::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(2, 3), 0.0);
        i.check_invariants().unwrap();
    }

    #[test]
    fn zeros_has_no_entries_but_valid_ptr() {
        let z = CsrMatrix::<f64>::zeros(3, 5);
        assert_eq!(z.nnz(), 0);
        z.check_invariants().unwrap();
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let trips: Vec<_> = m.iter().collect();
        assert_eq!(
            trips,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn to_dense_matches_get() {
        let m = sample();
        let d = m.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d.get(r, c), m.get(r, c));
            }
        }
    }

    #[test]
    fn map_values_preserves_structure() {
        let m = sample();
        let doubled = m.map_values(|v| v * 2.0);
        assert_eq!(doubled.ptr(), m.ptr());
        assert_eq!(doubled.idx(), m.idx());
        assert_eq!(doubled.get(0, 2), 4.0);
        doubled.check_invariants().unwrap();
    }

    #[test]
    fn prune_drops_small_entries_and_keeps_shape() {
        let m = CsrMatrix::try_new(
            2,
            3,
            vec![0, 3, 4],
            vec![0, 1, 2, 0],
            vec![1.0, 1e-12, -2.0, 0.0],
        )
        .unwrap();
        let p = m.prune(1e-9);
        assert_eq!(p.nnz(), 2);
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(0, 2), -2.0);
        assert_eq!(p.nrows(), 2);
        assert_eq!(p.ncols(), 3);
        p.check_invariants().unwrap();
    }

    #[test]
    fn csc_roundtrip_preserves_entries() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.nrows(), 3);
        assert_eq!(csc.ncols(), 3);
        assert_eq!(csc.to_csr(), m);
    }

    #[test]
    fn permute_rows_gathers_in_order() {
        let m = sample();
        let p = m.permute_rows(&[2, 0, 1]);
        p.check_invariants().unwrap();
        // Row 0 of the result is row 2 of the original, entries verbatim.
        assert_eq!(p.row(0), m.row(2));
        assert_eq!(p.row(1), m.row(0));
        assert_eq!(p.row(2), m.row(1));
        // Inverse of [2,0,1] is [1,2,0]: applying it restores the input.
        assert_eq!(p.permute_rows(&[1, 2, 0]), m);
        // Identity order is a plain clone; zero-row matrices work.
        assert_eq!(m.permute_rows(&[0, 1, 2]), m);
        let empty = CsrMatrix::<f64>::zeros(0, 4);
        assert_eq!(empty.permute_rows(&[]), empty);
    }

    #[test]
    #[should_panic(expected = "order must cover every row")]
    fn permute_rows_rejects_wrong_length() {
        let _ = sample().permute_rows(&[0, 1]);
    }
}
