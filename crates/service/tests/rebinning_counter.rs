//! A plan-cache hit must reuse the `RowBins` stored in the plan instead of
//! re-classifying rows (ISSUE 4 satellite: counter-based, deterministic
//! across worker counts).
//!
//! This lives in its own integration-test binary because it reads the
//! process-global classification counter: a single `#[test]` in its own
//! process means no other test's classifications pollute the count.

use std::sync::Arc;

use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_service::prelude::*;
use br_spgemm::accum::classification_runs;

#[test]
fn cache_hits_skip_rebinning_at_every_worker_count() {
    const N: u64 = 8;
    let a = Arc::new(rmat(RmatConfig::graph500(8, 8, 55)).to_csr());
    for workers in [1usize, 2, 4, 8] {
        let jobs: Vec<ChainRequest> = (0..N)
            .map(|id| ChainRequest::square(id, a.clone()))
            .collect();
        let before = classification_runs();
        let batch = SpgemmService::run_batch(
            ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8),
            jobs,
        );
        let classified = classification_runs() - before;
        assert!(batch.failures.is_empty(), "workers={workers}");
        assert_eq!(batch.outcomes.len(), N as usize, "workers={workers}");
        assert_eq!(batch.stats.cache.misses, 1, "workers={workers}");
        assert_eq!(batch.stats.cache.hits, N - 1, "workers={workers}");
        // Rows were classified exactly once — by the single plan build.
        // The N−1 cache hits and all planned executions reuse the stored
        // bins, at any worker count.
        assert_eq!(
            classified, 1,
            "workers={workers}: cache hits must not re-bin rows"
        );
    }
}
