//! Host worker count for numeric multiplies.
//!
//! Every method's host result comes from one engine, the adaptive
//! row-binned merge in [`crate::accum`], which is bit-identical to the
//! Gustavson oracle ([`br_sparse::ops::spgemm_gustavson`]) at every thread
//! count. The methods differ only in the launches they simulate.

use br_sparse::par;

/// A sensible default worker count for the numeric merge: the resolved
/// [`br_sparse::par`] configuration (`BR_THREADS`, which `--threads` sets,
/// else available cores). An execution merges on its simulator's count
/// instead of calling this.
pub fn default_threads() -> usize {
    par::effective_threads(None)
}
