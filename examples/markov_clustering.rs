//! Markov clustering (MCL) — iterated expansion with column-normalise and
//! prune post-ops after every SpGEMM, converging to a block fixed point.
//!
//! The chain squares a column-stochastic seed matrix repeatedly; the
//! normalise/prune post-ops play the role of MCL's inflation, starving
//! weak cross-cluster walks until only within-cluster structure survives.
//! On a planted-partition graph the converged matrix recovers the planted
//! blocks exactly.
//!
//! Run with: `cargo run --release --example markov_clustering`

use blockreorg::obs::Registry;
use blockreorg::prelude::*;
use blockreorg::workloads::planted_partition;
use std::sync::Arc;

fn main() {
    // Four ground-truth communities of 8 nodes plus a few noisy cross
    // edges the clustering has to shrug off.
    let (blocks, per_block) = (4, 8);
    let a = planted_partition(blocks, per_block, 5, 17);
    println!(
        "graph: {} nodes, {} directed edges, {} planted communities",
        a.nrows(),
        a.nnz(),
        blocks
    );

    let engine = Engine::new(PlanSettings::default(), 16, Arc::new(Registry::new()));
    let worker = Worker::new(0, DeviceConfig::titan_xp());

    let workload = Workload::Markov {
        iters: 6,
        tol: 0.05,
    };
    let request = ChainRequest::workload(0, workload, &a);
    let outcome = engine
        .run_chain(&worker, &request, 0.0)
        .expect("markov chain executes");

    for s in &outcome.steps {
        println!(
            "  {} nnz {} -> {} after normalise+prune ({:.4} ms)",
            s.label, s.product_nnz, s.output_nnz, s.total_ms
        );
    }

    // Read the clustering off the fixed point: each column's attractor is
    // the row holding its largest transition mass.
    let m = &outcome.result;
    let mut attractor = vec![usize::MAX; m.ncols()];
    let mut best = vec![f64::NEG_INFINITY; m.ncols()];
    for (r, c, v) in m.iter() {
        if v > best[c as usize] {
            best[c as usize] = v;
            attractor[c as usize] = r as usize;
        }
    }
    let mut clusters: Vec<usize> = attractor.clone();
    clusters.sort_unstable();
    clusters.dedup();
    println!(
        "\nconverged in {} expansions: {} clusters recovered (expected {})",
        outcome.steps.len(),
        clusters.len(),
        blocks
    );
    assert_eq!(clusters.len(), blocks);
    // And nobody is attracted across a planted block boundary.
    for (node, &attr) in attractor.iter().enumerate() {
        assert_eq!(
            node / per_block,
            attr / per_block,
            "node {node} crossed blocks"
        );
    }
}
