//! Minimal row-major dense matrix, used as a test oracle.
//!
//! All simulated spGEMM kernels are checked against the CPU Gustavson
//! reference, and the Gustavson reference itself is checked against plain
//! O(n³) dense multiplication on small inputs — this type exists for that
//! second link of the chain.

use crate::scalar::Scalar;

/// A row-major dense matrix; test-oracle quality, not a compute kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// An all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
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

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.ncols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        &mut self.data[r * self.ncols + c]
    }

    /// Classic O(n³) matrix product; the ground-truth oracle.
    pub fn matmul(&self, rhs: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self.get(i, k);
                if a == T::ZERO {
                    continue;
                }
                for j in 0..rhs.ncols {
                    *out.get_mut(i, j) += a * rhs.get(k, j);
                }
            }
        }
        out
    }

    /// `true` when all elements match within `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix<T>, tol: f64) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| a.approx_eq(b, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row-major matrix of `data`.
    fn dense(nrows: usize, ncols: usize, data: Vec<f64>) -> DenseMatrix<f64> {
        assert_eq!(data.len(), nrows * ncols);
        DenseMatrix { nrows, ncols, data }
    }

    #[test]
    fn matmul_known_product() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = dense(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = dense(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = dense(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut i = DenseMatrix::zeros(3, 3);
        for k in 0..3 {
            *i.get_mut(k, k) = 1.0;
        }
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn rectangular_shapes() {
        let a = dense(1, 3, vec![1.0, 0.0, 2.0]);
        let b = dense(3, 2, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.nrows(), 1);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c.get(0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_shape_mismatch() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
