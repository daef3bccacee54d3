//! Repeat cache hits must replay the plan's memoized Cached-mode profiles
//! instead of re-simulating, and the memo must fill exactly once at any
//! worker count (DESIGN.md §8.1).
//!
//! This lives in its own integration-test binary because it reads the
//! process-global `br_sim_*` kernel counters: a single `#[test]` in its own
//! process means no other test's simulations pollute the counts.

use std::sync::Arc;

use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_obs::SampleValue;
use br_service::prelude::*;

/// Sum of a counter family over all its label sets in the global registry.
fn global_total(family: &str) -> u64 {
    br_obs::global()
        .snapshot()
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.samples)
        .map(|(_, v)| match v {
            SampleValue::Counter(n) => *n,
            other => panic!("{family} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn repeat_hits_replay_and_the_memo_fills_once_at_every_worker_count() {
    const N: u64 = 8;
    let a = Arc::new(rmat(RmatConfig::graph500(8, 8, 55)).to_csr());
    for workers in [1usize, 2, 4, 8] {
        // N repeats of one exact-planned job with default bins.
        let jobs: Vec<ChainRequest> = (0..N)
            .map(|id| ChainRequest::square(id, a.clone()))
            .collect();
        let launches = global_total("br_sim_kernel_launches_total");
        let replays = global_total("br_sim_kernel_replays_total");
        let batch = SpgemmService::run_batch(
            ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8),
            jobs,
        );
        let launches = global_total("br_sim_kernel_launches_total") - launches;
        let replays = global_total("br_sim_kernel_replays_total") - replays;
        assert!(batch.failures.is_empty(), "workers={workers}");
        assert_eq!(batch.stats.cache.misses, 1, "workers={workers}");
        assert_eq!(batch.stats.cache.hits, N - 1, "workers={workers}");
        // Simulated: the miss's Cold run (precalc + expansion + merge) and
        // the first Cached run, which fills the memo (expansion + merge).
        assert_eq!(launches, 5, "workers={workers}");
        // Every other hit replays the memo's two launches.
        assert_eq!(replays, 2 * (N - 2), "workers={workers}");
        // Replayed and simulated hits report identical times.
        let warm: Vec<u64> = batch
            .outcomes
            .iter()
            .filter(|o| o.steps[0].cache_hit)
            .map(|o| o.total_ms.to_bits())
            .collect();
        assert!(warm.windows(2).all(|w| w[0] == w[1]), "workers={workers}");
    }
}
