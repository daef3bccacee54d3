//! A request analyzes its problem only where something reads the
//! analysis: the miss that builds the plan (whose Cold execution reuses
//! that context) and the Cached execution that fills the plan's replay
//! memo. Every later hit replays and builds no `ProblemContext`
//! (DESIGN.md §8.3).
//!
//! This lives in its own integration-test binary because it reads the
//! process-global context counter: a single `#[test]` in its own process
//! means no other test's contexts pollute the count.

use std::sync::Arc;

use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::PlanSettings;
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_obs::Registry;
use br_service::prelude::*;
use br_sparse::ops::spgemm_gustavson;
use br_spgemm::context::context_builds;

#[test]
fn a_replaying_hit_builds_no_context() {
    let a = Arc::new(rmat(RmatConfig::graph500(8, 8, 7)).to_csr());
    let oracle = spgemm_gustavson(&a, &a).unwrap();
    let bits = |m: &br_sparse::CsrMatrix<f64>| -> Vec<u64> {
        m.val().iter().map(|v| v.to_bits()).collect()
    };
    for reorder in [ReorderStrategy::None, ReorderStrategy::Degree] {
        let settings = PlanSettings {
            reorder,
            ..PlanSettings::default()
        };
        let engine = Engine::new(settings, 4, Arc::new(Registry::new()));
        let worker = Worker::new(0, DeviceConfig::titan_xp());
        let before = context_builds();
        let mut built = Vec::new();
        for _ in 0..5 {
            let out = engine.run(&worker, &a, &a).unwrap();
            assert_eq!(out.run.result.ptr(), oracle.ptr(), "{reorder:?}");
            assert_eq!(out.run.result.idx(), oracle.idx(), "{reorder:?}");
            assert_eq!(bits(&out.run.result), bits(&oracle), "{reorder:?}");
            built.push(context_builds() - before);
        }
        // The miss builds one context for its plan and its Cold execution,
        // the first hit one to fill the replay memo, and the replays none.
        assert_eq!(built, [1, 2, 2, 2, 2], "{reorder:?}");
    }
}
