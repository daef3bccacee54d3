//! Iterated squaring — `A^(2^k)` by `k` chained SpGEMMs, the workload
//! that defeats plan caching on purpose.
//!
//! Every squaring step multiplies a matrix whose sparsity pattern no
//! earlier step produced (fill-in changes the structure each time), so a
//! structure-keyed plan cache misses on every step. This example runs the
//! chain through the plan-cached service executor and shows the all-miss,
//! all-fresh step log — the honest baseline to contrast with
//! `galerkin_product`, where the cache pays off.
//!
//! Run with: `cargo run --release --example iterated_squaring`

use blockreorg::obs::Registry;
use blockreorg::prelude::*;
use std::sync::Arc;

fn main() {
    // A power-law web-ish graph; A^(2^k) counts length-2^k paths, the
    // classic multi-hop reachability build-up.
    let a = rmat(RmatConfig::snap_like(9, 8, 7)).to_csr();
    let k = 3;
    println!(
        "A: {}x{}, nnz {} — squaring {k} times",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let engine = Engine::new(PlanSettings::default(), 16, Arc::new(Registry::new()));
    let worker = Worker::new(0, DeviceConfig::titan_xp());

    let request = ChainRequest::workload(0, Workload::Square { k }, &a);
    let outcome = engine
        .run_chain(&worker, &request, 0.0)
        .expect("square chain executes");

    for s in &outcome.steps {
        println!(
            "  step {} {:<10} plan {:<4} structure {:<6} {:>9.4} ms  nnz {} ({:.2}x fill-in)",
            s.index,
            s.label,
            if s.cache_hit { "hit" } else { "miss" },
            if s.fresh_structure { "fresh" } else { "reused" },
            s.total_ms,
            s.output_nnz,
            s.fill_in_permille as f64 / 1000.0,
        );
    }
    println!(
        "\nA^{}: nnz {} in {:.3} ms simulated — {} cache hits out of {} steps",
        1 << k,
        outcome.result.nnz(),
        outcome.total_ms,
        outcome.cache_hits(),
        outcome.steps.len()
    );
    assert_eq!(
        outcome.cache_hits(),
        0,
        "every squaring step is a new structure"
    );
    assert_eq!(outcome.structure_churn(), k, "all {k} steps churn");
}
