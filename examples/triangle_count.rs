//! Triangle counting via the masked square `A² ∘ A` — one SpGEMM plus a
//! mask-by-pattern post-op, run as a single-step chain.
//!
//! Entry `(i,j)` of the masked square counts the common neighbours of the
//! stored edge `(i,j)`; for an undirected simple graph, summing all
//! entries counts each triangle six times (3 edges × 2 directions).
//!
//! Run with: `cargo run --release --example triangle_count`

use blockreorg::obs::Registry;
use blockreorg::prelude::*;
use blockreorg::workloads::planted_partition;
use std::sync::Arc;

fn main() {
    // Eight 6-cliques with no cross edges: each K6 holds C(6,3) = 20
    // triangles, so the ground truth is exactly 160.
    let (blocks, per_block) = (8, 6);
    let a = planted_partition(blocks, per_block, 0, 3);
    let expected = blocks * per_block * (per_block - 1) * (per_block - 2) / 6;
    println!(
        "graph: {} nodes, {} directed edges ({} disjoint {}-cliques)",
        a.nrows(),
        a.nnz(),
        blocks,
        per_block
    );

    let device = DeviceConfig::tesla_v100();
    let engine = Engine::new(PlanSettings::default(), 4, Arc::new(Registry::new()));
    let worker = Worker::new(0, device.clone());

    let request = ChainRequest::workload(0, Workload::Triangle, &a);
    let outcome = engine
        .run_chain(&worker, &request, 0.0)
        .expect("triangle chain executes");

    let step = &outcome.steps[0];
    println!(
        "masked square: product nnz {} -> masked nnz {} in {:.4} ms simulated on {}",
        step.product_nnz, step.output_nnz, step.total_ms, device.name
    );

    // Σ (A² ∘ A) = 6 · triangles.
    let total: f64 = outcome.result.val().iter().sum();
    let triangles = (total / 6.0).round() as usize;
    println!("triangles: {triangles} (expected {expected})");
    assert_eq!(triangles, expected);
}
