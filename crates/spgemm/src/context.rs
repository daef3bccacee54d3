//! Per-problem symbolic context shared by every method.
//!
//! The paper's Block Reorganizer "first precalculates the workload sizes of
//! all blocks" (Section IV-B); the baselines need the same quantities to
//! size their launches. Computing them once per `(A, B)` pair and sharing
//! across the seven methods keeps the benchmark harness honest (identical
//! inputs) and fast. A server keys and replays plans without them: its
//! request path holds a [`Problem`], which builds the context only when
//! something reads it.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use br_sparse::error::SparseError;
use br_sparse::ops::symbolic::{block_products, row_intermediate_nnz, symbolic_nnz};
use br_sparse::{CscMatrix, CsrMatrix, Result, Scalar};
use serde::{Deserialize, Serialize};

/// A compact fingerprint of one matrix's *sparsity structure*: dimensions,
/// nnz, and a hash of the row-pointer and column-index arrays.
///
/// Two matrices with equal signatures have identical structure (up to hash
/// collision), so any structure-derived plan — workload classification,
/// B-Splitting/B-Gathering index rewrites, B-Limiting row flags — built for
/// one is valid for the other. Values are deliberately excluded: plans do
/// not depend on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MatrixSignature {
    /// Number of rows.
    pub nrows: u64,
    /// Number of columns.
    pub ncols: u64,
    /// Number of stored entries.
    pub nnz: u64,
    /// FNV hash over the row-pointer and column-index arrays
    /// ([`CsrMatrix::structure_hash`]).
    pub structure_hash: u64,
}

impl MatrixSignature {
    /// Computes the signature of a CSR matrix.
    pub fn of<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        MatrixSignature {
            nrows: m.nrows() as u64,
            ncols: m.ncols() as u64,
            nnz: m.nnz() as u64,
            structure_hash: m.structure_hash(),
        }
    }
}

/// Signature of one multiplication `C = A · B`: the operand signatures.
///
/// This is the key under which reorganization plans are cached and reused
/// (`br-service`): repeated multiplications of structurally identical
/// operands map to the same `ProblemSignature`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProblemSignature {
    /// Signature of the left operand.
    pub a: MatrixSignature,
    /// Signature of the right operand.
    pub b: MatrixSignature,
}

impl ProblemSignature {
    /// Computes the signature of an operand pair.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Self {
        ProblemSignature {
            a: MatrixSignature::of(a),
            b: MatrixSignature::of(b),
        }
    }
}

/// Counts every [`ProblemContext`] analyzed from operands — the tripwire
/// showing which requests analyzed their problem. Row-permuted copies
/// ([`ProblemContext::permute_rows`]) analyze nothing and are not counted.
static CONTEXT_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of contexts analyzed from operands so far in this process.
pub fn context_builds() -> u64 {
    CONTEXT_BUILDS.load(Ordering::SeqCst)
}

/// Symbolic and structural facts about one multiplication `C = A · B`.
///
/// Operands are held behind [`Arc`], so cloning a context — or building one
/// via [`ProblemContext::from_shared`] from operands the caller already
/// shares (as `br-service` does per job) — never deep-copies a matrix.
/// Call sites keep reading `ctx.a` / `ctx.b` / `ctx.a_csc` as before via
/// `Deref`.
///
/// The public fields are computed at construction: one block-products
/// pass, one row-products pass and the CSC copy of `A`. Two quantities
/// are lazy, because they cost more than all of those together and only
/// a simulated launch stream or a report reads them:
///
/// * [`row_unique`](Self::row_unique) and
///   [`output_total`](Self::output_total), C's row lengths and nnz. An
///   execution that simulates seeds them from the C it merged just before
///   ([`seed_output`](Self::seed_output)); otherwise the first read runs
///   the exact symbolic SPA (`symbolic_nnz`). A row-permuted copy carries
///   them over if known and stays lazy if not.
/// * [`signature`](Self::signature), hashed on first read unless the
///   context came from a [`Problem`], which seeds the one it keyed with.
#[derive(Debug, Clone)]
pub struct ProblemContext<T> {
    /// Left operand in CSR (rows drive the row-product scheme).
    pub a: Arc<CsrMatrix<T>>,
    /// Left operand in CSC (columns drive the outer-product scheme).
    pub a_csc: Arc<CscMatrix<T>>,
    /// Right operand in CSR.
    pub b: Arc<CsrMatrix<T>>,
    /// Outer-product block workloads: `nnz(a₌ᵢ)·nnz(bᵢ₌)` per inner index.
    pub block_products: Vec<u64>,
    /// Intermediate products landing in each output row (duplicates in).
    pub row_products: Vec<u64>,
    /// `nnz(Ĉ)` — total intermediate products.
    pub intermediate_total: u64,
    /// FLOP count under the `2·nnz(Ĉ)` convention.
    pub flops: u64,
    /// Unique output entries per row and their sum, `nnz(C)`.
    output: OnceLock<(Vec<usize>, usize)>,
    signature: OnceLock<ProblemSignature>,
}

/// `A · B` must be defined: the one shape check every constructor makes.
fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            op: "spgemm",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

impl<T: Scalar> ProblemContext<T> {
    /// Builds the context from borrowed operands (cloned once into shared
    /// ownership); fails on shape mismatch.
    pub fn new(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<Self> {
        Self::from_shared(Arc::new(a.clone()), Arc::new(b.clone()))
    }

    /// Builds the context from already-shared operands — no matrix clone at
    /// all; only the CSC view of `A` is materialised. Fails on shape
    /// mismatch.
    pub fn from_shared(a: Arc<CsrMatrix<T>>, b: Arc<CsrMatrix<T>>) -> Result<Self> {
        check_shapes(&a, &b)?;
        Ok(Self::analyze(a, b, OnceLock::new()))
    }

    /// The eager passes over operands whose shapes agree.
    fn analyze(
        a: Arc<CsrMatrix<T>>,
        b: Arc<CsrMatrix<T>>,
        signature: OnceLock<ProblemSignature>,
    ) -> Self {
        CONTEXT_BUILDS.fetch_add(1, Ordering::SeqCst);
        let blocks = block_products(&a, &b).expect("shapes checked by the caller");
        let rows = row_intermediate_nnz(&a, &b).expect("shapes checked by the caller");
        let intermediate_total: u64 = blocks.iter().sum();
        let a_csc = Arc::new(a.to_csc());
        ProblemContext {
            a,
            a_csc,
            b,
            block_products: blocks,
            row_products: rows,
            intermediate_total,
            flops: 2 * intermediate_total,
            output: OnceLock::new(),
            signature,
        }
    }

    /// Unique output entries per row (`nnz(C)` rowwise).
    pub fn row_unique(&self) -> &[usize] {
        &self.output().0
    }

    /// `nnz(C)`.
    pub fn output_total(&self) -> usize {
        self.output().1
    }

    fn output(&self) -> &(Vec<usize>, usize) {
        self.output.get_or_init(|| {
            let rows = symbolic_nnz(&self.a, &self.b).expect("shapes checked at construction");
            let total = rows.iter().sum();
            (rows, total)
        })
    }

    /// Seeds [`row_unique`](Self::row_unique) and
    /// [`output_total`](Self::output_total) from `c`, this problem's
    /// product as merged, unless they are already known. Exact: no merger
    /// drops an explicit zero (DESIGN §8.1), so C's row lengths are what
    /// the symbolic pass counts.
    pub fn seed_output(&self, c: &CsrMatrix<T>) {
        debug_assert_eq!((c.nrows(), c.ncols()), (self.nrows(), self.ncols()));
        self.output.get_or_init(|| {
            let rows: Vec<usize> = c.ptr().windows(2).map(|w| w[1] - w[0]).collect();
            (rows, c.nnz())
        });
    }

    /// Number of output rows.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Number of output columns.
    pub fn ncols(&self) -> usize {
        self.b.ncols()
    }

    /// Inner dimension (outer-product pair count before reorganization).
    pub fn inner_dim(&self) -> usize {
        self.a.ncols()
    }

    /// Effective threads of outer-product pair `i` — `nnz(bᵢ₌)`, the number
    /// of row elements each of which is handled by one thread.
    pub fn pair_effective_threads(&self, i: usize) -> usize {
        self.b.row_nnz(i)
    }

    /// Per-thread work of outer-product pair `i` — `nnz(a₌ᵢ)`.
    pub fn pair_thread_work(&self, i: usize) -> usize {
        self.a_csc.col_nnz(i)
    }

    /// Exclusive prefix sum of `block_products` — block-major `Ĉ` offsets
    /// (in elements) for the outer-product scheme.
    pub fn chat_block_offsets(&self) -> Vec<u64> {
        let mut off = Vec::with_capacity(self.block_products.len() + 1);
        let mut acc = 0u64;
        off.push(0);
        for &p in &self.block_products {
            acc += p;
            off.push(acc);
        }
        off
    }

    /// Structural signature of this problem — the plan-cache key used by
    /// `br-service` (computed from the operands' pointer/index arrays once).
    pub fn signature(&self) -> ProblemSignature {
        *self
            .signature
            .get_or_init(|| ProblemSignature::of(&self.a, &self.b))
    }

    /// Exclusive prefix sum of `row_products` — row-major `Ĉ` offsets.
    pub fn chat_row_offsets(&self) -> Vec<u64> {
        let mut off = Vec::with_capacity(self.row_products.len() + 1);
        let mut acc = 0u64;
        off.push(0);
        for &p in &self.row_products {
            acc += p;
            off.push(acc);
        }
        off
    }

    /// The context for the row-permuted problem `P·A × B`, where row `i`
    /// of the permuted `A` is row `forward[i]` of the original (the
    /// gather convention of [`CsrMatrix::permute_rows`]), without
    /// re-running any symbolic analysis:
    ///
    /// * `block_products[i] = nnz(a₌ᵢ)·nnz(bᵢ₌)` is indexed by the inner
    ///   dimension and column nnz never changes under a row permutation,
    ///   so the per-pair workloads — and every total derived from them —
    ///   carry over verbatim;
    /// * `row_products` and, when known, `row_unique` are per-output-row
    ///   and permute elementwise; unknown, `row_unique` stays lazy;
    /// * `B` is shared untouched (an `Arc` bump, zero-copy).
    pub fn permute_rows(&self, forward: &[u32]) -> ProblemContext<T> {
        let a = Arc::new(self.a.permute_rows(forward));
        let a_csc = Arc::new(self.a_csc.permute_rows(forward));
        let output = match self.output.get() {
            Some((rows, total)) => {
                OnceLock::from((forward.iter().map(|&r| rows[r as usize]).collect(), *total))
            }
            None => OnceLock::new(),
        };
        ProblemContext {
            a,
            a_csc,
            b: Arc::clone(&self.b),
            block_products: self.block_products.clone(),
            row_products: forward
                .iter()
                .map(|&r| self.row_products[r as usize])
                .collect(),
            intermediate_total: self.intermediate_total,
            flops: self.flops,
            output,
            signature: OnceLock::new(),
        }
    }
}

/// One multiplication `C = A · B` as the request path holds it: operands
/// whose shapes agree, their signature, and — built on first use only —
/// their [`ProblemContext`].
///
/// Keying a plan and replaying one read only the operands and the
/// signature, so a request served from a plan's replay memo analyzes
/// nothing. [`Problem::context`] builds the context at most once, seeded
/// with the signature: in a plan-cache miss's build closure, whose Cold
/// execution then reuses it, or in an execution that simulates.
pub struct Problem<'a, T> {
    a: &'a Arc<CsrMatrix<T>>,
    b: &'a Arc<CsrMatrix<T>>,
    signature: ProblemSignature,
    given: Option<&'a ProblemContext<T>>,
    built: OnceCell<ProblemContext<T>>,
}

impl<'a, T: Scalar> Problem<'a, T> {
    /// Checks that `a · b` is defined and signs the operands: all a
    /// plan-cache lookup needs. Fails on shape mismatch with the error
    /// [`ProblemContext::from_shared`] gives.
    pub fn new(a: &'a Arc<CsrMatrix<T>>, b: &'a Arc<CsrMatrix<T>>) -> Result<Self> {
        check_shapes(a, b)?;
        Ok(Problem {
            a,
            b,
            signature: ProblemSignature::of(a, b),
            given: None,
            built: OnceCell::new(),
        })
    }

    /// The left operand.
    pub fn a(&self) -> &'a Arc<CsrMatrix<T>> {
        self.a
    }

    /// The right operand.
    pub fn b(&self) -> &'a Arc<CsrMatrix<T>> {
        self.b
    }

    /// The operands' signature, computed once.
    pub fn signature(&self) -> ProblemSignature {
        self.signature
    }

    /// The problem's context: the one it was made from, else the one the
    /// first call builds.
    pub fn context(&self) -> &ProblemContext<T> {
        self.given.unwrap_or_else(|| {
            self.built.get_or_init(|| {
                ProblemContext::analyze(
                    self.a.clone(),
                    self.b.clone(),
                    OnceLock::from(self.signature),
                )
            })
        })
    }
}

impl<'a, T: Scalar> From<&'a ProblemContext<T>> for Problem<'a, T> {
    /// The problem an analyzed context describes.
    fn from(ctx: &'a ProblemContext<T>) -> Self {
        Problem {
            a: &ctx.a,
            b: &ctx.b,
            signature: ctx.signature(),
            given: Some(ctx),
            built: OnceCell::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ProblemContext<f64> {
        // [[1, 0, 2], [0, 3, 0], [4, 5, 0]] squared.
        let a = CsrMatrix::try_new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        ProblemContext::new(&a, &a).unwrap()
    }

    #[test]
    fn totals_are_consistent() {
        let c = ctx();
        assert_eq!(c.intermediate_total, 8);
        assert_eq!(c.flops, 16);
        assert_eq!(c.row_products.iter().sum::<u64>(), c.intermediate_total);
        assert_eq!(c.row_unique().iter().sum::<usize>(), c.output_total());
        assert!(c.output_total() <= c.intermediate_total as usize);
    }

    #[test]
    fn pair_views_match_csc_and_csr() {
        let c = ctx();
        for i in 0..c.inner_dim() {
            assert_eq!(
                c.block_products[i],
                (c.pair_thread_work(i) * c.pair_effective_threads(i)) as u64
            );
        }
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let c = ctx();
        let off = c.chat_block_offsets();
        assert_eq!(off[0], 0);
        assert_eq!(*off.last().unwrap(), c.intermediate_total);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        let roff = c.chat_row_offsets();
        assert_eq!(*roff.last().unwrap(), c.intermediate_total);
    }

    #[test]
    fn permute_rows_matches_a_fresh_context_over_the_permuted_operand() {
        let c = ctx();
        let forward = [2u32, 0, 1];
        let permuted = c.permute_rows(&forward);
        let fresh = ProblemContext::new(&c.a.permute_rows(&forward), &c.b).unwrap();
        assert_eq!(*permuted.a, *fresh.a);
        assert_eq!(*permuted.a_csc, *fresh.a_csc);
        assert_eq!(permuted.block_products, fresh.block_products);
        assert_eq!(permuted.row_products, fresh.row_products);
        assert_eq!(permuted.row_unique(), fresh.row_unique());
        assert_eq!(permuted.intermediate_total, c.intermediate_total);
        assert_eq!(permuted.output_total(), c.output_total());
        assert_eq!(permuted.flops, c.flops);
        // B is shared, not copied.
        assert!(Arc::ptr_eq(&permuted.b, &c.b));
        // Row quantities moved with their rows.
        for (i, &r) in forward.iter().enumerate() {
            assert_eq!(permuted.row_products[i], c.row_products[r as usize]);
            assert_eq!(permuted.row_unique()[i], c.row_unique()[r as usize]);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Arc::new(CsrMatrix::<f64>::zeros(2, 3));
        let b = Arc::new(CsrMatrix::<f64>::zeros(2, 3));
        assert!(ProblemContext::new(&a, &b).is_err());
        let err = ProblemContext::from_shared(a.clone(), b.clone()).unwrap_err();
        let problem_err = Problem::new(&a, &b).err().unwrap();
        assert_eq!(problem_err.to_string(), err.to_string());
    }

    #[test]
    fn row_lengths_seeded_from_the_product_equal_the_symbolic_pass() {
        let exact = ctx();
        let (a, b) = (exact.a.clone(), exact.b.clone());
        let c = br_sparse::ops::spgemm_gustavson(&a, &b).unwrap();
        let seeded = ProblemContext::from_shared(a, b).unwrap();
        seeded.seed_output(&c);
        assert_eq!(seeded.row_unique(), exact.row_unique());
        assert_eq!(seeded.output_total(), exact.output_total());
        // A later seed changes nothing: the first value stays.
        seeded.seed_output(&CsrMatrix::<f64>::zeros(3, 3));
        assert_eq!(seeded.row_unique(), exact.row_unique());
        // Permuting carries the seeded lengths over.
        let forward = [1u32, 2, 0];
        assert_eq!(
            seeded.permute_rows(&forward).row_unique(),
            exact.permute_rows(&forward).row_unique()
        );
    }

    #[test]
    fn a_problem_builds_its_context_once_and_only_when_asked() {
        let c = ctx();
        let (a, b) = (c.a.clone(), c.b.clone());
        let problem = Problem::new(&a, &b).unwrap();
        assert_eq!(problem.signature(), c.signature());
        assert!(problem.built.get().is_none(), "keying analyzes nothing");
        let first: *const ProblemContext<f64> = problem.context();
        assert!(std::ptr::eq(first, problem.context()), "built once");
        assert_eq!(problem.context().row_products, c.row_products);
        assert_eq!(problem.context().signature.get(), Some(&c.signature()));
        // A problem made from a context hands that context back.
        let given = Problem::from(&c);
        assert!(std::ptr::eq(given.context(), &c));
        assert!(Arc::ptr_eq(given.a(), &c.a));
    }

    #[test]
    fn from_shared_reuses_operands_without_cloning() {
        let c = ctx();
        let a = Arc::new((*c.a).clone());
        let b = Arc::new((*c.b).clone());
        let shared = ProblemContext::from_shared(a.clone(), b.clone()).unwrap();
        // Same allocation, not a copy — and context clones share it too.
        assert!(Arc::ptr_eq(&shared.a, &a));
        assert!(Arc::ptr_eq(&shared.b, &b));
        let cloned = shared.clone();
        assert!(Arc::ptr_eq(&cloned.a, &shared.a));
        assert!(Arc::ptr_eq(&cloned.a_csc, &shared.a_csc));
        assert_eq!(cloned.signature(), c.signature());
        assert_eq!(shared.row_products, c.row_products);
    }

    #[test]
    fn signature_ignores_values_but_sees_structure() {
        let c = ctx();
        let sig = c.signature();
        // Same structure, different values → same signature.
        let scaled = c.a.map_values(|v| v * 3.0);
        assert_eq!(MatrixSignature::of(&scaled), sig.a);
        // Different structure (one entry pruned) → different signature.
        let mut val = c.a.val().to_vec();
        val[0] = 0.0;
        let pruned = CsrMatrix::try_new(
            c.a.nrows(),
            c.a.ncols(),
            c.a.ptr().to_vec(),
            c.a.idx().to_vec(),
            val,
        )
        .unwrap()
        .prune(1e-12);
        assert_ne!(MatrixSignature::of(&pruned), sig.a);
    }

    #[test]
    fn signature_is_deterministic_and_shape_sensitive() {
        let c = ctx();
        assert_eq!(c.signature(), c.signature());
        let z3 = CsrMatrix::<f64>::zeros(3, 3);
        let z4 = CsrMatrix::<f64>::zeros(4, 4);
        assert_ne!(MatrixSignature::of(&z3), MatrixSignature::of(&z4));
        assert_eq!(MatrixSignature::of(&z3).nnz, 0);
    }
}
