//! Property tests for the row-reordering stage (DESIGN.md §15): a plan
//! built under any strategy must return results bit-identical to the
//! identity ordering, across random structures, RMAT seeds, host thread
//! counts, and degenerate inputs.

use block_reorganizer::config::ReorganizerConfig;
use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::reorder::{Permutation, ReorderStrategy};
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_sparse::{CooMatrix, CsrMatrix};
use br_spgemm::context::ProblemContext;
use proptest::prelude::*;

const STRATEGIES: [ReorderStrategy; 4] = [
    ReorderStrategy::Degree,
    ReorderStrategy::Rcm,
    ReorderStrategy::Cluster,
    ReorderStrategy::Auto,
];

/// Strategy: a random square CSR matrix with at least one entry.
fn square_csr(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    (2..max_dim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.25f64..4.0), 1..max_nnz).prop_map(move |trips| {
            let mut coo = CooMatrix::new(n as usize, n as usize);
            for (r, c, v) in trips {
                coo.push(r, c, v).expect("in bounds by construction");
            }
            coo.to_csr()
        })
    })
}

/// Executes the square of `a` under every strategy on a simulator with
/// `threads` host workers, which the numeric merge also runs on, and
/// asserts the output is bitwise equal to the unreordered baseline.
fn assert_all_strategies_bit_identical(a: &CsrMatrix<f64>, threads: usize, what: &str) {
    let dev = DeviceConfig::titan_xp();
    let sim = GpuSimulator::new(dev.clone()).with_threads(threads);
    let cfg = ReorganizerConfig::default();
    let ctx = ProblemContext::new(a, a).expect("square shapes agree");
    let oracle = ReorgPlan::build(&ctx, &dev, &cfg.into())
        .execute_with_scratch(&sim, &ctx, PlanMode::Cached, None)
        .expect("baseline executes");
    for strategy in STRATEGIES {
        let plan = ReorgPlan::build_with_reorder(&ctx, &cfg, &dev, strategy);
        if let Some(p) = &plan.permutation {
            // The stored permutation must be a bijection with a consistent
            // inverse before we trust it to un-permute anything.
            assert_eq!(p.len(), a.nrows(), "{what}/{strategy:?}");
            let mut seen = vec![false; p.len()];
            for (i, &f) in p.forward().iter().enumerate() {
                assert!(!seen[f as usize], "{what}/{strategy:?}: duplicate row");
                seen[f as usize] = true;
                assert_eq!(p.inverse()[f as usize], i as u32, "{what}/{strategy:?}");
            }
        }
        let run = plan
            .execute_with_scratch(&sim, &ctx, PlanMode::Cached, None)
            .expect("reordered plan executes");
        assert_eq!(run.result.ptr(), oracle.result.ptr(), "{what}/{strategy:?}");
        assert_eq!(run.result.idx(), oracle.result.idx(), "{what}/{strategy:?}");
        let obits: Vec<u64> = oracle.result.val().iter().map(|v| v.to_bits()).collect();
        let rbits: Vec<u64> = run.result.val().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            obits, rbits,
            "{what}/{strategy:?}: values must match bitwise"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_structures_unpermute_to_the_identity_result(a in square_csr(48, 200)) {
        assert_all_strategies_bit_identical(&a, 2, "random");
    }

    #[test]
    fn permute_then_unpermute_is_the_identity(a in square_csr(48, 200)) {
        for strategy in STRATEGIES {
            let (_, permutation) =
                block_reorganizer::reorder::plan_permutation(&a, strategy);
            let Some(p) = permutation else { continue };
            let permuted = a.permute_rows(p.forward());
            let back = permuted.permute_rows(p.inverse());
            prop_assert_eq!(back.ptr(), a.ptr());
            prop_assert_eq!(back.idx(), a.idx());
            prop_assert_eq!(back.val(), a.val());
        }
    }

    #[test]
    fn rmat_seeds_unpermute_to_the_identity_result(
        seed in 0u64..1000,
        scale in 5u32..8,
    ) {
        let a = rmat(RmatConfig::graph500(scale, 6, seed)).to_csr();
        assert_all_strategies_bit_identical(&a, 2, "rmat");
    }
}

/// Thread counts sweep: the reordered pipeline keeps the bit-identity
/// contract at 1 and 8 host workers, each given to the simulator it runs
/// on, so no other test sees the count.
#[test]
fn reorder_is_bit_identical_at_any_thread_count() {
    let a = rmat(RmatConfig::graph500(9, 8, 7)).to_csr();
    for threads in [1usize, 8] {
        assert_all_strategies_bit_identical(&a, threads, "threads");
    }
}

#[test]
fn degenerate_inputs_survive_every_strategy() {
    // All-zero structure: nothing to reorder, nothing to break.
    let empty = CsrMatrix::<f64>::zeros(4, 4);
    assert_all_strategies_bit_identical(&empty, 2, "empty");

    // A single row (1×1 with one entry): every order is the identity.
    let mut coo = CooMatrix::new(1, 1);
    coo.push(0, 0, 2.5).unwrap();
    assert_all_strategies_bit_identical(&coo.to_csr(), 2, "single-row");

    // Already degree-sorted banded matrix: strategies that would produce
    // the identity must store no permutation at all.
    let n = 16u32;
    let mut coo = CooMatrix::new(n as usize, n as usize);
    for r in 0..n {
        for c in r..n.min(r + 3) {
            coo.push(r, c, 1.0 + f64::from(r + c)).unwrap();
        }
    }
    let sorted = coo.to_csr();
    assert_all_strategies_bit_identical(&sorted, 2, "banded");
    let identity = Permutation::identity(n as usize);
    assert!(identity.is_identity());
    assert_eq!(identity.forward(), identity.inverse());
}
