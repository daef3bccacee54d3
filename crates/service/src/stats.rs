//! Aggregate statistics for one service run.

use crate::cache::CacheStats;
use crate::chain::ChainOutcome;

/// Utilization of one worker (one simulated device).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Device the worker simulates.
    pub device: String,
    /// Requests the worker completed.
    pub jobs: usize,
    /// Wall-clock ms the worker spent executing requests.
    pub busy_ms: f64,
    /// `busy_ms / wall_ms` of the whole run, in `[0, 1]`.
    pub utilization: f64,
}

/// Everything `blockreorg-cli batch` prints after a run. Counts are per
/// submission (a job or a whole chain); latencies and phases are per
/// multiplication (one per chain step), the unit the plan cache counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Submissions that completed successfully.
    pub jobs: usize,
    /// Submissions that failed.
    pub failures: usize,
    /// Wall-clock duration of the batch, ms.
    pub wall_ms: f64,
    /// Plan-cache counters at the end of the run.
    pub cache: CacheStats,
    /// Highest queue depth observed.
    pub max_queue_depth: usize,
    /// Mean simulated latency across all multiplications, ms.
    pub mean_total_ms: f64,
    /// Mean simulated latency of cache-miss (cold) multiplications, ms.
    pub mean_cold_ms: f64,
    /// Mean simulated latency of cache-hit (warm) multiplications, ms.
    pub mean_warm_ms: f64,
    /// Summed simulated precalculation-kernel time, ms.
    pub precalc_ms: f64,
    /// Summed simulated expansion-kernel time, ms.
    pub expansion_ms: f64,
    /// Summed simulated merge-kernel time, ms.
    pub merge_ms: f64,
    /// Summed host-side preprocessing charged to multiplications, ms.
    pub preprocess_ms: f64,
    /// Mean wall-clock queue wait per submission, ms.
    pub mean_queue_ms: f64,
    /// Per-worker utilization.
    pub workers: Vec<WorkerStats>,
}

impl ServiceStats {
    /// Builds the report from completed outcomes and run-level counters.
    pub fn from_outcomes(
        outcomes: &[ChainOutcome],
        failures: usize,
        wall_ms: f64,
        cache: CacheStats,
        max_queue_depth: usize,
        workers: Vec<WorkerStats>,
    ) -> Self {
        let mean = |values: &[f64]| {
            if values.is_empty() {
                0.0
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            }
        };
        let steps = || outcomes.iter().flat_map(|o| &o.steps);
        let totals: Vec<f64> = steps().map(|s| s.total_ms).collect();
        let cold: Vec<f64> = steps()
            .filter(|s| !s.cache_hit)
            .map(|s| s.total_ms)
            .collect();
        let warm: Vec<f64> = steps()
            .filter(|s| s.cache_hit)
            .map(|s| s.total_ms)
            .collect();
        let queue: Vec<f64> = outcomes.iter().map(|o| o.queue_ms).collect();
        ServiceStats {
            jobs: outcomes.len(),
            failures,
            wall_ms,
            cache,
            max_queue_depth,
            mean_total_ms: mean(&totals),
            mean_cold_ms: mean(&cold),
            mean_warm_ms: mean(&warm),
            precalc_ms: steps().map(|s| s.precalc_ms).sum(),
            expansion_ms: steps().map(|s| s.expansion_ms).sum(),
            merge_ms: steps().map(|s| s.merge_ms).sum(),
            preprocess_ms: steps().map(|s| s.preprocess_ms).sum(),
            mean_queue_ms: mean(&queue),
            workers,
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} jobs ({} failed) in {:.2} ms wall",
            self.jobs, self.failures, self.wall_ms
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {}/{} entries",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
            self.cache.entries,
            self.cache.capacity
        )?;
        writeln!(
            f,
            "latency (simulated): mean {:.4} ms  cold {:.4} ms  warm {:.4} ms",
            self.mean_total_ms, self.mean_cold_ms, self.mean_warm_ms
        )?;
        writeln!(
            f,
            "phases (summed): precalc {:.4} ms  expansion {:.4} ms  merge {:.4} ms  host preprocess {:.4} ms",
            self.precalc_ms, self.expansion_ms, self.merge_ms, self.preprocess_ms
        )?;
        writeln!(
            f,
            "queue: max depth {}, mean wait {:.2} ms",
            self.max_queue_depth, self.mean_queue_ms
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "worker {} ({}): {} jobs, busy {:.2} ms, utilization {:.1}%",
                w.worker,
                w.device,
                w.jobs,
                w.busy_ms,
                w.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{RequestKind, StepOutcome};
    use br_sparse::CsrMatrix;
    use std::sync::Arc;

    fn outcome(hit: bool, total: f64, queue: f64) -> ChainOutcome {
        ChainOutcome {
            id: 0,
            label: "t".into(),
            kind: RequestKind::Job,
            worker: 0,
            device: "Titan Xp".into(),
            steps: vec![StepOutcome {
                index: 0,
                label: "C".into(),
                cache_hit: hit,
                method: "reorganized",
                total_ms: total,
                precalc_ms: if hit { 0.0 } else { 1.0 },
                expansion_ms: 2.0,
                merge_ms: 3.0,
                preprocess_ms: if hit { 0.0 } else { 0.5 },
                gflops: 1.0,
                product_nnz: 0,
                output_nnz: 0,
                fill_in_permille: 0,
                fresh_structure: true,
            }],
            total_ms: total,
            queue_ms: queue,
            host_ms: 1.0,
            result: Arc::new(CsrMatrix::<f64>::zeros(1, 1)),
        }
    }

    #[test]
    fn aggregates_cold_and_warm_separately() {
        let outcomes = vec![outcome(false, 10.0, 1.0), outcome(true, 4.0, 3.0)];
        let stats = ServiceStats::from_outcomes(
            &outcomes,
            1,
            100.0,
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                entries: 1,
                capacity: 4,
            },
            2,
            vec![],
        );
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.failures, 1);
        assert!((stats.mean_total_ms - 7.0).abs() < 1e-12);
        assert!((stats.mean_cold_ms - 10.0).abs() < 1e-12);
        assert!((stats.mean_warm_ms - 4.0).abs() < 1e-12);
        assert!((stats.precalc_ms - 1.0).abs() < 1e-12);
        assert!((stats.preprocess_ms - 0.5).abs() < 1e-12);
        assert!((stats.mean_queue_ms - 2.0).abs() < 1e-12);
        let text = stats.to_string();
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("max depth 2"), "{text}");
    }

    #[test]
    fn empty_run_does_not_divide_by_zero() {
        let stats = ServiceStats::from_outcomes(&[], 0, 0.0, CacheStats::default(), 0, vec![]);
        assert_eq!(stats.mean_total_ms, 0.0);
        assert_eq!(stats.mean_cold_ms, 0.0);
        assert_eq!(stats.mean_warm_ms, 0.0);
    }

    #[test]
    fn empty_outcomes_yield_finite_zero_means_and_nan_free_output() {
        // Zero jobs must produce 0.0 means (not NaN from 0/0), so the
        // rendered report and any JSON/exposition built from these numbers
        // stays parseable.
        let stats = ServiceStats::from_outcomes(&[], 0, 0.0, CacheStats::default(), 0, vec![]);
        for v in [
            stats.mean_total_ms,
            stats.mean_cold_ms,
            stats.mean_warm_ms,
            stats.mean_queue_ms,
            stats.precalc_ms,
            stats.expansion_ms,
            stats.merge_ms,
            stats.preprocess_ms,
            stats.cache.hit_rate(),
        ] {
            assert!(v.is_finite(), "must be finite, got {v}");
            assert_eq!(v, 0.0);
        }
        let text = stats.to_string();
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }

    #[test]
    fn zero_jobs_with_failures_still_reports_them() {
        // Every submitted job failed: no outcomes, but the failure count
        // and cache counters must survive into the report.
        let cache = CacheStats {
            hits: 0,
            misses: 3,
            evictions: 0,
            entries: 0,
            capacity: 4,
        };
        let stats = ServiceStats::from_outcomes(&[], 3, 12.0, cache, 3, vec![]);
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.failures, 3);
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache.hit_rate(), 0.0);
        assert_eq!(stats.mean_queue_ms, 0.0);
        assert_eq!(stats.precalc_ms, 0.0);
        let text = stats.to_string();
        assert!(text.contains("0 jobs (3 failed)"), "{text}");
    }

    #[test]
    fn single_worker_owns_every_job() {
        let outcomes = vec![
            outcome(false, 6.0, 0.5),
            outcome(true, 2.0, 1.5),
            outcome(true, 2.0, 2.5),
        ];
        let worker = WorkerStats {
            worker: 0,
            device: "Titan Xp".into(),
            jobs: outcomes.len(),
            busy_ms: 10.0,
            utilization: 0.5,
        };
        let stats = ServiceStats::from_outcomes(
            &outcomes,
            0,
            20.0,
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                entries: 1,
                capacity: 4,
            },
            // With one worker the queue backs up to every pending job.
            outcomes.len(),
            vec![worker],
        );
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.workers[0].jobs, stats.jobs);
        assert_eq!(stats.max_queue_depth, 3);
        assert!((stats.mean_queue_ms - 1.5).abs() < 1e-12);
        assert!((stats.mean_cold_ms - 6.0).abs() < 1e-12);
        assert!((stats.mean_warm_ms - 2.0).abs() < 1e-12);
        let text = stats.to_string();
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("utilization 50.0%"), "{text}");
    }

    #[test]
    fn all_cold_run_has_no_warm_mean() {
        // Distinct matrices only: every lookup misses, so the warm-job
        // mean must stay 0 rather than going NaN or sampling cold jobs.
        let outcomes = vec![outcome(false, 8.0, 0.0), outcome(false, 4.0, 0.0)];
        let stats = ServiceStats::from_outcomes(
            &outcomes,
            0,
            50.0,
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0,
                entries: 2,
                capacity: 4,
            },
            1,
            vec![],
        );
        assert!((stats.mean_total_ms - 6.0).abs() < 1e-12);
        assert!((stats.mean_cold_ms - 6.0).abs() < 1e-12);
        assert_eq!(stats.mean_warm_ms, 0.0, "no warm jobs → zero, not NaN");
        assert_eq!(stats.cache.hit_rate(), 0.0);
        // Per-phase sums cover all (cold) jobs.
        assert!((stats.precalc_ms - 2.0).abs() < 1e-12);
        assert!((stats.preprocess_ms - 1.0).abs() < 1e-12);
    }
}
