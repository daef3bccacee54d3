//! The Galerkin triple product `Pᵀ·A·P` — the multigrid coarsening chain
//! where per-step plan caching pays off.
//!
//! An AMG or Newton outer loop re-assembles its operator every iteration:
//! the *values* of `A` change but the *structure* does not, and the
//! prolongator `P` is fixed. The chain runs the triple product twice —
//! once for `A`, once for a value-refreshed `A'` — and because
//! reorganization plans are keyed on operand structure, the refresh pass
//! hits the plan cache on both of its steps. Contrast with
//! `iterated_squaring`, where every step misses.
//!
//! Run with: `cargo run --release --example galerkin_product`

use blockreorg::obs::Registry;
use blockreorg::prelude::*;
use std::sync::Arc;

fn main() {
    // A fine-level operator from a power-law mesh-ish graph; the canonical
    // prolongator aggregates pairs of fine nodes into coarse ones.
    let a = rmat(RmatConfig::snap_like(12, 6, 99)).to_csr();
    println!(
        "fine operator A: {}x{}, nnz {}",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let engine = Engine::new(PlanSettings::default(), 8, Arc::new(Registry::new()));
    let worker = Worker::new(0, DeviceConfig::titan_xp());

    let request = ChainRequest::workload(0, Workload::Galerkin, &a);
    let outcome = engine
        .run_chain(&worker, &request, 0.0)
        .expect("galerkin chain executes");

    for s in &outcome.steps {
        println!(
            "  step {} {:<17} plan {:<4} structure {:<6} {:>9.4} ms  nnz {}",
            s.index,
            s.label,
            if s.cache_hit { "hit" } else { "miss" },
            if s.fresh_structure { "fresh" } else { "reused" },
            s.total_ms,
            s.output_nnz,
        );
    }
    println!(
        "\ncoarse operator: {}x{}, nnz {} — {} plan-cache hits / {} misses",
        outcome.result.nrows(),
        outcome.result.ncols(),
        outcome.result.nnz(),
        outcome.cache_hits(),
        outcome.cache_misses()
    );
    // The refresh pass repeats the first pass's operand structures, so a
    // structure-keyed plan cache serves exactly its two steps.
    let hits: Vec<bool> = outcome.steps.iter().map(|s| s.cache_hit).collect();
    assert_eq!(hits, [false, false, true, true]);
    assert_eq!(outcome.structure_churn(), 2);
}
