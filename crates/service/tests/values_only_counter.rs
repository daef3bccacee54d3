//! A plan's fourth and later executions compute values only: the first
//! Cached execution fills the replay memo, the first replay stores C's
//! pattern, and every execution after that scatters into it instead of
//! merging (DESIGN.md §8.1, §10.4).
//!
//! This lives in its own integration-test binary because it reads the
//! process-global values-only counter: a single `#[test]` in its own
//! process means no other test's executions pollute the count.

use std::sync::Arc;

use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::PlanSettings;
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_service::prelude::*;
use br_spgemm::accum::values_only_runs;
use br_spgemm::context::ProblemContext;

#[test]
fn the_fourth_execution_of_a_plan_computes_values_only() {
    let a = Arc::new(rmat(RmatConfig::graph500(8, 8, 55)).to_csr());

    // One plan executed directly: Cold, then Cached ones.
    let dev = DeviceConfig::titan_xp();
    let ctx = ProblemContext::new(&a, &a).unwrap();
    let plan = ReorgPlan::build(&ctx, &dev, &PlanSettings::default());
    let before = values_only_runs();
    let mut passes = Vec::new();
    for mode in [PlanMode::Cold, PlanMode::Cached, PlanMode::Cached] {
        plan.execute(&ctx, &dev, mode).unwrap();
        passes.push(values_only_runs() - before);
    }
    plan.execute(&ctx, &dev, PlanMode::Cached).unwrap();
    passes.push(values_only_runs() - before);
    // A stored pattern serves Cold executions too.
    plan.execute(&ctx, &dev, PlanMode::Cold).unwrap();
    passes.push(values_only_runs() - before);
    assert_eq!(passes, [0, 0, 0, 1, 2]);

    // Through the service on one worker: a miss, the fill, the first
    // replay, then two values-only executions.
    let before = values_only_runs();
    let batch = SpgemmService::run_batch(
        ServiceConfig::uniform(dev, 1, 8),
        (0..5).map(|id| ChainRequest::square(id, a.clone())),
    );
    assert!(batch.failures.is_empty());
    assert_eq!(values_only_runs() - before, 2);
}
