//! Property-based tests (proptest) over the invariants in DESIGN.md §6.

use block_reorganizer::config::SplitPolicy;
use block_reorganizer::split::SplitPlan;
use blockreorg::prelude::*;
use blockreorg::spgemm::accum::{spgemm_adaptive, BinThresholds};
use blockreorg::spgemm::numeric::default_threads;
use blockreorg::spgemm::pipeline::run_method;
use blockreorg::spgemm::ProblemContext;
use proptest::prelude::*;

/// Strategy: a random COO matrix up to `max_dim` × `max_dim` with up to
/// `max_nnz` (possibly duplicate) entries.
fn coo_strategy(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = CooMatrix<f64>> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -4.0f64..4.0), 0..max_nnz).prop_map(move |trips| {
            let mut coo = CooMatrix::new(nr as usize, nc as usize);
            for (r, c, v) in trips {
                coo.push(r, c, v).expect("in bounds by construction");
            }
            coo
        })
    })
}

/// A result's arrays, values as bits: `CsrMatrix`'s `==` compares values
/// as floats, so `-0.0 == 0.0` there.
fn bits(c: &CsrMatrix<f64>) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    (
        c.ptr().to_vec(),
        c.idx().to_vec(),
        c.val().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Strategy: a random *square* CSR matrix.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_preserves_summed_triplets(coo in coo_strategy(24, 60)) {
        let csr = coo.to_csr();
        csr.check_invariants().expect("canonical output");
        // Sum duplicates by hand and compare via dense.
        let mut dense = vec![0.0; coo.nrows() * coo.ncols()];
        for (r, c, v) in coo.iter() {
            dense[r as usize * coo.ncols() + c as usize] += v;
        }
        for r in 0..coo.nrows() {
            for c in 0..coo.ncols() {
                let want = dense[r * coo.ncols() + c];
                prop_assert!((csr.get(r, c) - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_is_involutive(coo in coo_strategy(24, 60)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn csc_roundtrip_identity(coo in coo_strategy(24, 60)) {
        let csr = coo.to_csr();
        prop_assert_eq!(csr.to_csc().to_csr(), csr);
    }

    #[test]
    fn adaptive_engine_equals_the_oracle(a in square_csr(20, 50)) {
        let oracle = spgemm_gustavson(&a, &a).expect("square shapes");
        let thresholds = BinThresholds::recommended(a.ncols());
        let c = spgemm_adaptive(&a, &a, default_threads(), thresholds).expect("square shapes");
        prop_assert_eq!(bits(&c), bits(&oracle));
    }

    #[test]
    fn oracle_matches_dense_multiplication(a in square_csr(16, 40)) {
        let c = spgemm_gustavson(&a, &a).expect("square shapes");
        let expect = a.to_dense().matmul(&a.to_dense());
        prop_assert!(c.to_dense().approx_eq(&expect, 1e-9));
    }

    #[test]
    fn symbolic_counts_match_numeric_structure(a in square_csr(20, 50)) {
        use blockreorg::sparse::ops::{row_intermediate_nnz, symbolic_nnz, block_products};
        let c = spgemm_gustavson(&a, &a).expect("square shapes");
        let sym = symbolic_nnz(&a, &a).expect("square shapes");
        for (r, &count) in sym.iter().enumerate() {
            prop_assert_eq!(count, c.row_nnz(r));
        }
        let rows = row_intermediate_nnz(&a, &a).expect("square shapes");
        let blocks = block_products(&a, &a).expect("square shapes");
        prop_assert_eq!(rows.iter().sum::<u64>(), blocks.iter().sum::<u64>());
    }

    #[test]
    fn split_plan_partitions_any_column(nnz in 1usize..5000, factor_log in 0u32..8) {
        let plan = SplitPlan::new(0, nnz, 1 << factor_log);
        let mut cursor = 0usize;
        for &(s, e) in &plan.pieces {
            prop_assert_eq!(s, cursor);
            prop_assert!(e > s);
            cursor = e;
        }
        prop_assert_eq!(cursor, nnz);
    }

    #[test]
    fn matrix_market_roundtrip_any_matrix(coo in coo_strategy(24, 60)) {
        use blockreorg::sparse::io::{read_matrix_market, write_matrix_market};
        let m = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).expect("in-memory write succeeds");
        let back = read_matrix_market::<f64, _>(buf.as_slice())
            .expect("own output parses")
            .to_csr();
        prop_assert_eq!(back.ptr(), m.ptr());
        prop_assert_eq!(back.idx(), m.idx());
        prop_assert!(m.approx_eq(&back, 1e-9));
    }

    #[test]
    fn configuration_model_reproduces_any_degree_sequence(
        degrees in proptest::collection::vec(0usize..40, 1..60),
        ncols in 40usize..200,
        seed in 0u64..1000,
    ) {
        use blockreorg::datasets::configuration::{configuration_model, ColumnModel};
        let m = configuration_model(&degrees, ncols, ColumnModel::Uniform, seed).to_csr();
        let expect: Vec<usize> = degrees.iter().map(|&d| d.min(ncols)).collect();
        prop_assert_eq!(m.row_degrees(), expect);
        m.check_invariants().expect("canonical output");
    }

    #[test]
    fn scheduler_conserves_work(durations in proptest::collection::vec(0.0f64..1000.0, 0..200),
                                sms in 1u32..128) {
        use blockreorg::gpu_sim::scheduler::schedule;
        let r = schedule(&durations, sms);
        let total: f64 = r.sm_busy.iter().sum();
        let expect: f64 = durations.iter().sum();
        prop_assert!((total - expect).abs() < 1e-6);
        let longest = durations.iter().copied().fold(0.0, f64::max);
        prop_assert!(r.makespan >= longest - 1e-9);
        let lbi = r.lbi();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&lbi));
    }
}

proptest! {
    // Heavier end-to-end cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_simulated_method_matches_oracle(a in square_csr(28, 120)) {
        let dev = DeviceConfig::titan_xp();
        let ctx = ProblemContext::new(&a, &a).expect("square shapes");
        let oracle = spgemm_gustavson(&a, &a).expect("square shapes");
        for m in SpgemmMethod::all() {
            let run = run_method(&ctx, m, &dev).expect("valid shapes");
            prop_assert!(run.result.approx_eq(&oracle, 1e-9), "{} diverged", m.name());
            prop_assert!(run.total_ms > 0.0);
        }
    }

    #[test]
    fn reorganizer_is_correct_under_any_config(
        a in square_csr(28, 120),
        alpha in 1.0f64..64.0,
        beta in 1.0f64..32.0,
        units in 0u32..8,
        split in any::<bool>(),
        gather in any::<bool>(),
        limit in any::<bool>(),
        factor_log in 0u32..7,
    ) {
        let dev = DeviceConfig::titan_xp();
        let oracle = spgemm_gustavson(&a, &a).expect("square shapes");
        let cfg = ReorganizerConfig {
            alpha,
            beta,
            limiting_units: units,
            split_policy: if split { SplitPolicy::Fixed(1 << factor_log) } else { SplitPolicy::Auto },
            enable_split: split,
            enable_gather: gather,
            enable_limit: limit,
            ..Default::default()
        };
        let run = BlockReorganizer::new(cfg).multiply(&a, &a, &dev).expect("valid shapes");
        prop_assert!(run.result.approx_eq(&oracle, 1e-9));
        prop_assert!(run.total_ms > 0.0);
    }
}
