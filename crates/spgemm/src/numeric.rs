//! Three independent numeric mergers.
//!
//! Each simulated method owes the user a *real* result, and each family of
//! methods accumulates intermediate products differently: Gustavson-style
//! kernels use a dense accumulator (SPA), cuSPARSE-style kernels a hash
//! table, and ESC a sort + segmented reduction. We implement all three so
//! that every method's arithmetic path is genuinely exercised and checked
//! against the others (and against the dense oracle) rather than sharing
//! one implementation.
//!
//! All three produce canonical (sorted-row) CSR.

use std::ops::Range;

use br_sparse::ops::spgemm_gustavson;
use br_sparse::{par, CsrMatrix, Result, Scalar};

use crate::accum;

/// Dense-accumulator (SPA) merge — delegates to the crate-level reference,
/// which is exactly this algorithm.
pub fn spgemm_dense_spa<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    spgemm_gustavson(a, b)
}

/// Expand–sort–reduce merge (the ESC numeric path): per output row, gather
/// all `(column, value)` products, sort by column, reduce adjacent runs.
pub fn spgemm_sort_reduce<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    check_shapes(a, b)?;
    let (ptr, idx, val) = sort_reduce_rows(a, b, 0..a.nrows());
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        ptr,
        idx,
        val,
    ))
}

/// Range-based core of [`spgemm_sort_reduce`]: merges rows `rows` into a
/// range-local CSR triple (`ptr` starts at 0). One products buffer serves
/// the whole range.
fn sort_reduce_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: Range<usize>,
) -> (Vec<usize>, Vec<u32>, Vec<T>) {
    let mut ptr = Vec::with_capacity(rows.len() + 1);
    let mut idx: Vec<u32> = Vec::new();
    let mut val: Vec<T> = Vec::new();
    ptr.push(0usize);
    let mut products: Vec<(u32, T)> = Vec::new();
    for r in rows {
        products.clear();
        let (a_cols, a_vals) = a.row(r);
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            products.extend(
                b_cols
                    .iter()
                    .zip(b_vals)
                    .map(|(&j, &b_kj)| (j, a_rk * b_kj)),
            );
        }
        // Stable sort keeps products in B-row generation order within a
        // column, matching the SPA accumulation order bit-for-bit for the
        // common case of left-to-right addition.
        products.sort_by_key(|&(j, _)| j);
        let mut i = 0;
        while i < products.len() {
            let (j, mut acc) = products[i];
            let mut k = i + 1;
            while k < products.len() && products[k].0 == j {
                acc += products[k].1;
                k += 1;
            }
            idx.push(j);
            val.push(acc);
            i = k;
        }
        ptr.push(idx.len());
    }
    (ptr, idx, val)
}

/// Hash merge (the cuSPARSE-style numeric path): per output row, accumulate
/// into an open-addressing table sized to the next power of two above the
/// row's upper bound, then gather and sort.
///
/// The table, its used-slot list, and the gather buffer are hoisted out of
/// the row loop and grow monotonically to the largest row's capacity, so
/// the merger is no longer allocation-bound: clears touch only the slots
/// the previous row used. A larger-than-needed table changes probe paths
/// but never the per-column accumulation order, so results are unaffected.
pub fn spgemm_hash<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>> {
    check_shapes(a, b)?;
    let (ptr, idx, val) = hash_rows(a, b, 0..a.nrows());
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        ptr,
        idx,
        val,
    ))
}

/// Range-based core of [`spgemm_hash`]: merges rows `rows` into a
/// range-local CSR triple with one grow-only table for the whole range.
fn hash_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: Range<usize>,
) -> (Vec<usize>, Vec<u32>, Vec<T>) {
    let mut ptr = Vec::with_capacity(rows.len() + 1);
    let mut idx: Vec<u32> = Vec::new();
    let mut val: Vec<T> = Vec::new();
    ptr.push(0usize);

    let mut keys: Vec<u32> = Vec::new();
    let mut vals: Vec<T> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    let mut row: Vec<(u32, T)> = Vec::new();
    for r in rows {
        let (a_cols, a_vals) = a.row(r);
        let upper: usize = a_cols
            .iter()
            .map(|&k| b.row_nnz(k as usize))
            .sum::<usize>()
            .max(1);
        let cap = (upper * 2).next_power_of_two();
        if keys.len() < cap {
            keys.resize(cap, u32::MAX);
            vals.resize(cap, T::ZERO);
        }
        let mask = keys.len() - 1;
        used.clear();
        for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                // Multiplicative hashing with linear probing — the standard
                // GPU spGEMM table design.
                let mut slot = (j as usize).wrapping_mul(0x9E37_79B1) & mask;
                loop {
                    if keys[slot] == j {
                        vals[slot] += a_rk * b_kj;
                        break;
                    }
                    if keys[slot] == u32::MAX {
                        keys[slot] = j;
                        vals[slot] = a_rk * b_kj;
                        used.push(slot);
                        break;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
        row.clear();
        for &s in &used {
            row.push((keys[s], vals[s]));
            keys[s] = u32::MAX; // restore the empty invariant for the next row
        }
        row.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &row {
            idx.push(j);
            val.push(v);
        }
        ptr.push(idx.len());
    }
    (ptr, idx, val)
}

/// Multithreaded adaptive merge: rows are binned by intermediate-product
/// upper bound and dispatched to per-bin kernels (see [`crate::accum`]),
/// distributed over `threads` scoped workers with reusable scratch.
/// Produces bit-identical results to [`spgemm_dense_spa`] (same per-row,
/// per-column accumulation order) at every thread count and threshold
/// setting — this is the fast oracle path for large benchmark runs, and
/// also what the MKL-like baseline *functionally* computes.
pub fn spgemm_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
) -> Result<CsrMatrix<T>> {
    accum::spgemm_adaptive(a, b, threads, accum::BinThresholds::recommended(b.ncols()))
}

/// Parallel sort-reduce merge (the ESC arithmetic path, multithreaded).
pub fn spgemm_sort_reduce_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
) -> Result<CsrMatrix<T>> {
    spgemm_parallel_with(a, b, threads, sort_reduce_rows)
}

/// Parallel hash merge (the cuSPARSE arithmetic path, multithreaded).
pub fn spgemm_hash_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
) -> Result<CsrMatrix<T>> {
    spgemm_parallel_with(a, b, threads, hash_rows)
}

/// A sensible default worker count for the numeric mergers: the resolved
/// [`br_sparse::par`] configuration (`--threads` override, `BR_THREADS`,
/// else available cores).
pub fn default_threads() -> usize {
    par::effective_threads(None)
}

/// Row-partitioned parallel driver: any *range-based* per-row merger
/// distributes over `threads` std-scoped workers and is stitched back
/// together. Workers merge row ranges of `a` directly — no `row_slice`
/// clone per worker — and each range's scratch (hash table, products
/// buffer) is hoisted inside the range merger, so it is allocated once per
/// range rather than once per row.
///
/// Determinism: the row partition ([`par::weighted_bounds`]) is a pure
/// function of the operands' structure and `threads`, each worker runs the
/// *sequential* merger on its row range with its own scratch, and the
/// per-range CSR triples are concatenated in row order — so the output is
/// bit-for-bit the sequential result at any thread count.
fn spgemm_parallel_with<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    threads: usize,
    merger: impl Fn(&CsrMatrix<T>, &CsrMatrix<T>, Range<usize>) -> (Vec<usize>, Vec<u32>, Vec<T>)
        + Copy
        + Send
        + Sync,
) -> Result<CsrMatrix<T>> {
    check_shapes(a, b)?;
    let threads = threads.max(1).min(a.nrows().max(1));
    if threads == 1 || a.nrows() < 256 {
        let (ptr, idx, val) = merger(a, b, 0..a.nrows());
        return Ok(CsrMatrix::from_parts_unchecked(
            a.nrows(),
            b.ncols(),
            ptr,
            idx,
            val,
        ));
    }

    // Static row partition balanced by intermediate products, so one hub
    // region doesn't serialize the whole run. The weights scan itself is
    // O(nnz(A)) and parallelizes per row.
    let weights: Vec<u64> = par::ordered_index_map(a.nrows(), threads, |r| {
        let (cols, _) = a.row(r);
        cols.iter().map(|&k| b.row_nnz(k as usize) as u64).sum()
    });
    let bounds = par::weighted_bounds(&weights, threads);

    // Each worker produces the (ptr, idx, val) triple of its row range;
    // ranges come back in row order.
    let parts = par::ordered_bounds_map(&bounds, |range| merger(a, b, range));

    // Stitch the per-range outputs back together.
    let mut ptr = Vec::with_capacity(a.nrows() + 1);
    let mut idx = Vec::new();
    let mut val = Vec::new();
    ptr.push(0usize);
    for (p_ptr, p_idx, p_val) in parts {
        let base = idx.len();
        ptr.extend(p_ptr.iter().skip(1).map(|&x| base + x));
        idx.extend(p_idx);
        val.extend(p_val);
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        ptr,
        idx,
        val,
    ))
}

fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(br_sparse::SparseError::ShapeMismatch {
            op: "spgemm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};

    fn sample() -> CsrMatrix<f64> {
        rmat(RmatConfig::snap_like(7, 6, 42)).to_csr()
    }

    #[test]
    fn all_three_mergers_agree_on_structure_and_values() {
        let a = sample();
        let spa = spgemm_dense_spa(&a, &a).unwrap();
        let esc = spgemm_sort_reduce(&a, &a).unwrap();
        let hash = spgemm_hash(&a, &a).unwrap();
        assert_eq!(spa.ptr(), esc.ptr());
        assert_eq!(spa.idx(), esc.idx());
        assert_eq!(spa.ptr(), hash.ptr());
        assert_eq!(spa.idx(), hash.idx());
        assert!(spa.approx_eq(&esc, 1e-9));
        assert!(spa.approx_eq(&hash, 1e-9));
    }

    #[test]
    fn rectangular_agreement() {
        let a = rmat(RmatConfig::uniform(6, 4, 1).with_dim(50).with_edges(150)).to_csr();
        let b = rmat(RmatConfig::uniform(6, 4, 2).with_dim(50).with_edges(120)).to_csr();
        let spa = spgemm_dense_spa(&a, &b).unwrap();
        let esc = spgemm_sort_reduce(&a, &b).unwrap();
        let hash = spgemm_hash(&a, &b).unwrap();
        assert!(spa.approx_eq(&esc, 1e-9));
        assert!(spa.approx_eq(&hash, 1e-9));
    }

    #[test]
    fn empty_and_identity_edge_cases() {
        let z = CsrMatrix::<f64>::zeros(4, 4);
        assert_eq!(spgemm_sort_reduce(&z, &z).unwrap().nnz(), 0);
        assert_eq!(spgemm_hash(&z, &z).unwrap().nnz(), 0);
        let i = CsrMatrix::<f64>::identity(5);
        assert!(spgemm_hash(&i, &i).unwrap().approx_eq(&i, 1e-15));
        assert!(spgemm_sort_reduce(&i, &i).unwrap().approx_eq(&i, 1e-15));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = CsrMatrix::<f64>::zeros(2, 3);
        assert!(spgemm_sort_reduce(&a, &a).is_err());
        assert!(spgemm_hash(&a, &a).is_err());
        assert!(spgemm_parallel(&a, &a, 4).is_err());
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let a = rmat(RmatConfig::graph500(9, 8, 77)).to_csr();
        let seq = spgemm_dense_spa(&a, &a).unwrap();
        for threads in [1, 2, 3, 8, 20] {
            let par = spgemm_parallel(&a, &a, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_handles_hub_concentrated_work() {
        // All the work lives in one row: partitioning must still cover
        // every row exactly once.
        let n = 600;
        let mut ptr = vec![0usize; n + 1];
        let mut idx: Vec<u32> = (0..n as u32).collect();
        ptr[1] = n;
        for r in 1..n {
            idx.push(0);
            ptr[r + 1] = ptr[r] + 1;
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, vec![1.0; 2 * n - 1]).unwrap();
        let par = spgemm_parallel(&a, &a, 8).unwrap();
        let seq = spgemm_dense_spa(&a, &a).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_small_input_falls_back_to_sequential() {
        let i = CsrMatrix::<f64>::identity(10);
        assert_eq!(
            spgemm_parallel(&i, &i, 16).unwrap(),
            spgemm_dense_spa(&i, &i).unwrap()
        );
    }

    #[test]
    fn parallel_handles_interspersed_empty_rows() {
        // Every other row is empty (zero weight): the weighted partition
        // must still cover all rows and the stitched `ptr` must stay flat
        // across the empty ones.
        let n = 400;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        for r in 0..n {
            if r % 2 == 0 {
                idx.push((r % 7) as u32);
                idx.push((7 + r % 11) as u32);
            }
            ptr[r + 1] = idx.len();
        }
        let nnz = idx.len();
        let a = CsrMatrix::try_new(n, n, ptr, idx, vec![0.5f64; nnz]).unwrap();
        let seq = spgemm_dense_spa(&a, &a).unwrap();
        for threads in [2, 5, 16] {
            assert_eq!(spgemm_parallel(&a, &a, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_weight_cliffs_at_chunk_boundaries() {
        // Weights arranged so greedy prefix cuts land right before/after
        // huge rows: alternating runs of featherweight rows and one row
        // that multiplies against a dense hub row of B.
        let n = 512;
        let hub_width = 256u32;
        let mut ptr = vec![0usize; n + 1];
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for r in 0..n {
            if r % 64 == 63 {
                // Heavy row: points at row 0 of B (the hub) many times over
                // distinct columns 0..8, each expanding hub_width products.
                for j in 0..8 {
                    idx.push(j);
                    val.push(1.0 + j as f64);
                }
            } else {
                idx.push((r % 32) as u32 + 8);
                val.push(0.25);
            }
            ptr[r + 1] = idx.len();
        }
        let a = CsrMatrix::try_new(n, n, ptr, idx, val).unwrap();

        // B: rows 0..8 dense over `hub_width` columns, the rest singletons.
        let mut bptr = vec![0usize; n + 1];
        let mut bidx = Vec::new();
        let mut bval = Vec::new();
        for r in 0..n {
            if r < 8 {
                for j in 0..hub_width {
                    bidx.push(j);
                    bval.push(1.0 / (1.0 + j as f64));
                }
            } else {
                bidx.push((r % 300) as u32);
                bval.push(2.0);
            }
            bptr[r + 1] = bidx.len();
        }
        let b = CsrMatrix::try_new(n, n, bptr, bidx, bval).unwrap();

        let seq = spgemm_dense_spa(&a, &b).unwrap();
        for threads in [2, 3, 7, 8, 64] {
            assert_eq!(spgemm_parallel(&a, &b, threads).unwrap(), seq);
        }
    }

    #[test]
    fn parallel_all_products_collapse_to_one_column() {
        // B has a single column, so every intermediate product for a row
        // lands on the same accumulator slot — the worst case for
        // accumulation-order sensitivity. All three parallel mergers must
        // still match their sequential counterparts bit-for-bit.
        let n = 256;
        let a = rmat(RmatConfig::snap_like(8, 5, 9)).to_csr();
        let n_a = a.ncols();
        let bptr: Vec<usize> = (0..=n_a).collect();
        let b = CsrMatrix::try_new(
            n_a,
            1,
            bptr,
            vec![0u32; n_a],
            (0..n_a).map(|k| 1.0 + (k % 13) as f64 * 0.125).collect(),
        )
        .unwrap();
        assert!(a.nrows() >= n); // large enough to take the parallel path
        let spa = spgemm_dense_spa(&a, &b).unwrap();
        let esc = spgemm_sort_reduce(&a, &b).unwrap();
        let hash = spgemm_hash(&a, &b).unwrap();
        for threads in [2, 8] {
            assert_eq!(spgemm_parallel(&a, &b, threads).unwrap(), spa);
            assert_eq!(spgemm_sort_reduce_parallel(&a, &b, threads).unwrap(), esc);
            assert_eq!(spgemm_hash_parallel(&a, &b, threads).unwrap(), hash);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Property: for arbitrary power-law matrices and thread counts the
        /// parallel driver is bit-for-bit the sequential merger.
        #[test]
        fn prop_parallel_bit_identical(seed in 0u64..1000, threads in 2usize..12) {
            let a = rmat(RmatConfig::snap_like(8, 6, seed)).to_csr();
            let seq = spgemm_dense_spa(&a, &a).unwrap();
            let par = spgemm_parallel(&a, &a, threads).unwrap();
            proptest::prop_assert_eq!(par, seq);
        }
    }
}
