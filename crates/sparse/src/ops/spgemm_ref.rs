//! Sequential Gustavson spGEMM — the correctness oracle.
//!
//! Gustavson's row-wise algorithm (TOMS 1978) with a dense accumulator
//! ("SPA"): for each row `i` of `A`, accumulate `a_ik · b_k*` into a dense
//! scratch row, then gather the touched columns. This is the same
//! accumulation scheme the paper's merge phase uses on the GPU, which makes
//! it the natural oracle: every simulated kernel must reproduce its output
//! exactly (up to row ordering and floating-point association tolerance).

use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::{CsrMatrix, Result};

/// Computes `C = A · B` with sequential Gustavson + dense accumulator.
///
/// Output is canonical CSR (sorted rows). Numerically, an output
/// element is its first product plus the rest, added in generation order
/// (`k` ascending, then `B`-row order), as every merger of the adaptive
/// engine computes it — so signed zeros agree bitwise too.
pub fn spgemm_gustavson<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "spgemm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    let n_out_cols = b.ncols();
    let mut accumulator = vec![T::ZERO; n_out_cols];
    // `occupied[c]` marks whether column c holds live data for the current
    // row; `touched` lists those columns so the accumulator is cleared in
    // O(row nnz), not O(ncols). The flag (rather than a zero-value test)
    // keeps numerically-cancelled entries in the symbolic structure, and
    // marks an entry's first product, which is written rather than added
    // to a zero: `0.0 + -0.0` is `+0.0`, so starting from zero would lose
    // the sign of an entry whose products are all `-0.0`.
    let mut occupied = vec![false; n_out_cols];
    let mut touched: Vec<u32> = Vec::new();

    let mut ptr = Vec::with_capacity(a.nrows() + 1);
    let mut idx: Vec<u32> = Vec::new();
    let mut val: Vec<T> = Vec::new();
    ptr.push(0usize);

    for i in 0..a.nrows() {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                if occupied[j as usize] {
                    accumulator[j as usize] += a_ik * b_kj;
                } else {
                    occupied[j as usize] = true;
                    touched.push(j);
                    accumulator[j as usize] = a_ik * b_kj;
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            idx.push(j);
            val.push(accumulator[j as usize]);
            occupied[j as usize] = false;
        }
        touched.clear();
        ptr.push(idx.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        n_out_cols,
        ptr,
        idx,
        val,
    ))
}

/// Computes `C = A + B` for same-shape CSR matrices (canonical output).
///
/// Used by example applications (e.g. combining 1-hop and 2-hop reachability)
/// and by tests.
pub fn sparse_add<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            op: "sparse_add",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    let mut ptr = Vec::with_capacity(a.nrows() + 1);
    let mut idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut val = Vec::with_capacity(a.nnz() + b.nnz());
    ptr.push(0usize);
    for r in 0..a.nrows() {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        let (mut i, mut j) = (0, 0);
        while i < ac.len() || j < bc.len() {
            let take_a = j >= bc.len() || (i < ac.len() && ac[i] < bc[j]);
            let take_both = i < ac.len() && j < bc.len() && ac[i] == bc[j];
            if take_both {
                idx.push(ac[i]);
                val.push(av[i] + bv[j]);
                i += 1;
                j += 1;
            } else if take_a {
                idx.push(ac[i]);
                val.push(av[i]);
                i += 1;
            } else {
                idx.push(bc[j]);
                val.push(bv[j]);
                j += 1;
            }
        }
        ptr.push(idx.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        ptr,
        idx,
        val,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small_a() -> CsrMatrix<f64> {
        // [[1, 0, 2], [0, 3, 0], [4, 0, 0]]
        CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 2, 1, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn square_matches_dense_oracle() {
        let a = small_a();
        let c = spgemm_gustavson(&a, &a).unwrap();
        let expect = a.to_dense().matmul(&a.to_dense());
        assert!(c.to_dense().approx_eq(&expect, 1e-12));
        c.check_invariants().unwrap();
    }

    #[test]
    fn rectangular_product() {
        // (2x3) * (3x2)
        let a =
            CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let b =
            CsrMatrix::try_new(3, 2, vec![0, 1, 2, 3], vec![1, 0, 0], vec![5.0, 6.0, 7.0]).unwrap();
        let c = spgemm_gustavson(&a, &b).unwrap();
        let expect = a.to_dense().matmul(&b.to_dense());
        assert!(c.to_dense().approx_eq(&expect, 1e-12));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = CsrMatrix::<f64>::zeros(2, 3);
        let b = CsrMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            spgemm_gustavson(&a, &b),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = small_a();
        let i = CsrMatrix::identity(3);
        assert!(spgemm_gustavson(&a, &i).unwrap().approx_eq(&a, 1e-12));
        assert!(spgemm_gustavson(&i, &a).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn zero_matrix_annihilates() {
        let a = small_a();
        let z = CsrMatrix::zeros(3, 3);
        assert_eq!(spgemm_gustavson(&a, &z).unwrap().nnz(), 0);
        assert_eq!(spgemm_gustavson(&z, &a).unwrap().nnz(), 0);
    }

    #[test]
    fn numeric_cancellation_keeps_explicit_zero() {
        // Row products that sum to zero stay as stored entries: structure
        // is decided symbolically, as on the GPU where the merge cannot
        // cheaply prune numerically-cancelled entries.
        let a = CsrMatrix::try_new(1, 2, vec![0, 2], vec![0, 1], vec![1.0, -1.0]).unwrap();
        let b = CsrMatrix::try_new(2, 1, vec![0, 1, 2], vec![0, 0], vec![1.0, 1.0]).unwrap();
        let c = spgemm_gustavson(&a, &b).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn an_entry_of_negative_zero_products_stays_negative_zero() {
        // [-1, 2] · [0, -0]ᵀ: both products are -0.0, and so is their sum.
        // Adding them to a +0.0 start would give +0.0.
        let a = CsrMatrix::<f64>::try_new(1, 2, vec![0, 2], vec![0, 1], vec![-1.0, 2.0]).unwrap();
        let b = CsrMatrix::try_new(2, 1, vec![0, 1, 2], vec![0, 0], vec![0.0, -0.0]).unwrap();
        let c = spgemm_gustavson(&a, &b).unwrap();
        assert_eq!(c.val()[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn random_product_matches_dense() {
        // Deterministic pseudo-random fill, no external RNG needed here.
        let mut coo_a = CooMatrix::<f64>::new(17, 23);
        let mut coo_b = CooMatrix::<f64>::new(23, 11);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..120 {
            let r = (next() % 17) as u32;
            let c = (next() % 23) as u32;
            coo_a.push(r, c, (next() % 7) as f64 - 3.0).unwrap();
        }
        for _ in 0..90 {
            let r = (next() % 23) as u32;
            let c = (next() % 11) as u32;
            coo_b.push(r, c, (next() % 5) as f64 - 2.0).unwrap();
        }
        let a = coo_a.to_csr();
        let b = coo_b.to_csr();
        let c = spgemm_gustavson(&a, &b).unwrap();
        assert!(c
            .to_dense()
            .approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-9));
    }

    #[test]
    fn sparse_add_merges_disjoint_and_overlapping() {
        let a = small_a();
        let b = CsrMatrix::try_new(3, 3, vec![0, 1, 1, 2], vec![1, 2], vec![10.0, 20.0]).unwrap();
        let c = sparse_add(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 1), 10.0);
        assert_eq!(c.get(2, 2), 20.0);
        assert_eq!(c.get(2, 0), 4.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn sparse_add_shape_mismatch_rejected() {
        let a = CsrMatrix::<f64>::zeros(2, 2);
        let b = CsrMatrix::<f64>::zeros(3, 3);
        assert!(sparse_add(&a, &b).is_err());
    }
}
