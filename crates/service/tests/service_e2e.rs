//! End-to-end tests for the spGEMM job service: plan-cache amortization
//! (the ISSUE acceptance criterion) and cold-vs-cached result equality.

use std::sync::Arc;

use block_reorganizer::{BlockReorganizer, PlanSettings, ReorganizerConfig};
use br_datasets::registry::{RealWorldRegistry, ScaleFactor};
use br_datasets::rmat::{rmat, RmatConfig};
use br_gpu_sim::device::DeviceConfig;
use br_service::prelude::*;
use br_sparse::CsrMatrix;
use br_spgemm::context::ProblemContext;

fn assert_bit_identical(lhs: &CsrMatrix<f64>, rhs: &CsrMatrix<f64>, what: &str) {
    assert_eq!(lhs.nrows(), rhs.nrows(), "{what}: row count");
    assert_eq!(lhs.ncols(), rhs.ncols(), "{what}: col count");
    assert_eq!(lhs.ptr(), rhs.ptr(), "{what}: row pointers");
    assert_eq!(lhs.idx(), rhs.idx(), "{what}: column indices");
    let lbits: Vec<u64> = lhs.val().iter().map(|v| v.to_bits()).collect();
    let rbits: Vec<u64> = rhs.val().iter().map(|v| v.to_bits()).collect();
    assert_eq!(lbits, rbits, "{what}: values must match bit for bit");
}

/// Cached-plan execution must produce bit-identical C to a cold run — on a
/// registry dataset and on an RMAT instance (ISSUE satellite 4).
#[test]
fn cached_execution_is_bit_identical_to_cold() {
    let registry = RealWorldRegistry::get("as-caida")
        .expect("registry dataset")
        .generate(ScaleFactor::Tiny);
    let random = rmat(RmatConfig::graph500(8, 8, 1234)).to_csr();

    for (name, a) in [("as-caida", registry), ("rmat-8-8", random)] {
        let a = Arc::new(a);
        let batch = SpgemmService::run_batch(
            ServiceConfig::default(),
            vec![
                ChainRequest::square(0, a.clone()),
                ChainRequest::square(1, a.clone()),
            ],
        );
        assert!(batch.failures.is_empty(), "{name}: {:?}", batch.failures);
        assert_eq!(batch.outcomes.len(), 2, "{name}");
        let cold = &batch.outcomes[0];
        let warm = &batch.outcomes[1];
        assert!(!cold.steps[0].cache_hit, "{name}: first run must be a miss");
        assert!(
            warm.steps[0].cache_hit,
            "{name}: second run must hit the cache"
        );
        assert_bit_identical(&cold.result, &warm.result, name);

        // And against a plain one-shot pass outside the service.
        let reorg = BlockReorganizer::new(ReorganizerConfig::default());
        let ctx = ProblemContext::new(&a, &a).unwrap();
        let oneshot = reorg.multiply_ctx(&ctx, &DeviceConfig::titan_xp()).unwrap();
        assert_bit_identical(&oneshot.result, &warm.result, name);
    }
}

/// ISSUE acceptance criterion: a batch of N ≥ 8 repeated multiplications
/// reports ≥ 1 cache hit per repeat and a lower mean simulated latency than
/// N cold runs.
#[test]
fn repeated_batch_amortizes_preprocessing() {
    const N: usize = 8;
    let a = Arc::new(rmat(RmatConfig::graph500(9, 8, 7)).to_csr());
    let jobs: Vec<ChainRequest> = (0..N as u64)
        .map(|id| ChainRequest::square(id, a.clone()))
        .collect();

    // Several workers: the single-flight cache keeps hit/miss counts a
    // function of the job multiset, not of scheduling.
    let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), 4, 8);
    let batch = SpgemmService::run_batch(config, jobs);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.outcomes.len(), N);
    assert_eq!(
        batch.stats.cache.hits,
        (N - 1) as u64,
        "every repeat after the first reuses the plan"
    );
    assert_eq!(batch.stats.cache.misses, 1);
    let hits = batch
        .outcomes
        .iter()
        .filter(|o| o.steps[0].cache_hit)
        .count();
    assert_eq!(hits, N - 1);

    // Baseline: N independent cold runs of the same multiplication.
    let reorg = BlockReorganizer::new(ReorganizerConfig::default());
    let ctx = ProblemContext::new(&a, &a).unwrap();
    let device = DeviceConfig::titan_xp();
    let cold_mean = (0..N)
        .map(|_| reorg.multiply_ctx(&ctx, &device).unwrap().total_ms)
        .sum::<f64>()
        / N as f64;

    assert!(
        batch.stats.mean_total_ms < cold_mean,
        "cached batch must beat cold runs: batch mean {} ms vs cold mean {} ms",
        batch.stats.mean_total_ms,
        cold_mean
    );
    // Warm jobs skip the precalc kernel and the host preprocessing charge.
    for warm in batch.outcomes.iter().filter(|o| o.steps[0].cache_hit) {
        assert_eq!(warm.steps[0].precalc_ms, 0.0);
        assert_eq!(warm.steps[0].preprocess_ms, 0.0);
    }
}

/// Several workers race on one queue: every job completes exactly once,
/// results stay correct, and the shared cache serves all workers.
#[test]
fn multi_worker_pool_completes_every_job_correctly() {
    const N: u64 = 12;
    let a = Arc::new(rmat(RmatConfig::snap_like(8, 6, 3)).to_csr());
    let b = Arc::new(rmat(RmatConfig::snap_like(8, 6, 4)).to_csr());

    let mut jobs = Vec::new();
    for id in 0..N {
        if id % 2 == 0 {
            jobs.push(ChainRequest::square(id, a.clone()));
        } else {
            jobs.push(ChainRequest::multiply(id, a.clone(), b.clone()));
        }
    }
    let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), 4, 8);
    let batch = SpgemmService::run_batch(config, jobs);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.outcomes.len(), N as usize);
    let ids: Vec<u64> = batch.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(ids, (0..N).collect::<Vec<u64>>(), "each job exactly once");

    // Reference results computed serially.
    let reorg = BlockReorganizer::new(ReorganizerConfig::default());
    let device = DeviceConfig::titan_xp();
    let ctx_sq = ProblemContext::new(&a, &a).unwrap();
    let ctx_ab = ProblemContext::new(&a, &b).unwrap();
    let ref_sq = reorg.multiply_ctx(&ctx_sq, &device).unwrap().result;
    let ref_ab = reorg.multiply_ctx(&ctx_ab, &device).unwrap().result;
    for outcome in &batch.outcomes {
        let reference = if outcome.id % 2 == 0 {
            &ref_sq
        } else {
            &ref_ab
        };
        assert_bit_identical(reference, &outcome.result, &outcome.label);
    }
    // Two distinct structures, all workers share one cache. The cache is
    // single-flight, so workers racing on a not-yet-published plan wait for
    // the one builder instead of missing again: exactly one miss per
    // structure, one hit for every other job, at any pool size.
    let cache = batch.stats.cache;
    assert_eq!(cache.hits + cache.misses, N, "one lookup per job");
    assert_eq!(cache.misses, 2, "{cache:?}");
    assert_eq!(cache.hits, N - 2, "{cache:?}");
    assert_eq!(batch.stats.jobs, N as usize);
    let worker_jobs: usize = batch.stats.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(worker_jobs, N as usize);
}

/// A heterogeneous pool (different device models) still answers correctly;
/// plans are cached per device name.
#[test]
fn heterogeneous_devices_cache_plans_per_device() {
    let a = Arc::new(rmat(RmatConfig::graph500(8, 6, 11)).to_csr());
    let jobs: Vec<ChainRequest> = (0..8)
        .map(|id| ChainRequest::square(id, a.clone()))
        .collect();
    let config = ServiceConfig {
        devices: vec![DeviceConfig::titan_xp(), DeviceConfig::tesla_v100()],
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    let batch = SpgemmService::run_batch(config, jobs);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.outcomes.len(), 8);
    // Same structure on two device models ⇒ at most one plan per device.
    assert!(batch.stats.cache.misses <= 2, "{:?}", batch.stats.cache);
    assert!(batch.stats.cache.hits >= 6, "{:?}", batch.stats.cache);
    for pair in batch.outcomes.windows(2) {
        assert_bit_identical(&pair[0].result, &pair[1].result, "device-agnostic C");
    }
}

/// The batch report's cache counters and aggregate simulated metrics are
/// identical at every worker count — the determinism contract the bench
/// suite's service section relies on.
#[test]
fn batch_counters_are_deterministic_across_worker_counts() {
    const N: u64 = 10;
    let a = Arc::new(rmat(RmatConfig::snap_like(8, 6, 21)).to_csr());
    let b = Arc::new(rmat(RmatConfig::snap_like(8, 6, 22)).to_csr());
    let run = |workers: usize| {
        let mut jobs = Vec::new();
        for id in 0..N {
            if id % 3 == 0 {
                jobs.push(ChainRequest::square(id, a.clone()));
            } else {
                jobs.push(ChainRequest::multiply(id, a.clone(), b.clone()));
            }
        }
        let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8);
        SpgemmService::run_batch(config, jobs)
    };
    let baseline = run(1);
    assert!(baseline.failures.is_empty());
    for workers in [2, 4, 8] {
        let batch = run(workers);
        assert_eq!(
            (batch.stats.cache.hits, batch.stats.cache.misses),
            (baseline.stats.cache.hits, baseline.stats.cache.misses),
            "workers={workers}"
        );
        assert_eq!(batch.stats.cache.evictions, 0, "workers={workers}");
        // Which job of a key group runs cold is schedule-dependent, but
        // single-flight fixes the *multiset* of simulated latencies (one
        // cold run per key, warm for the rest), so sorted latencies and the
        // aggregate mean are exact at any worker count.
        let sorted_ms = |b: &br_service::service::BatchOutcome| {
            let mut ms: Vec<u64> = b.outcomes.iter().map(|o| o.total_ms.to_bits()).collect();
            ms.sort_unstable();
            ms
        };
        assert_eq!(sorted_ms(&batch), sorted_ms(&baseline), "workers={workers}");
        for (x, y) in batch.outcomes.iter().zip(&baseline.outcomes) {
            assert_eq!(x.id, y.id);
            assert_bit_identical(&x.result, &y.result, &x.label);
        }
    }
}

/// Satellite (lock discipline): a panic inside the queue's critical section
/// poisons the queue mutex, but every lock acquisition goes through the
/// poison-recovering helper — the service must keep accepting submissions
/// and drain every job.
#[test]
fn service_drains_after_panic_inside_queue_critical_section() {
    let a = Arc::new(rmat(RmatConfig::snap_like(7, 6, 33)).to_csr());
    let service = SpgemmService::start(ServiceConfig::uniform(DeviceConfig::titan_xp(), 2, 8));
    for id in 0..3 {
        assert!(service.submit(ChainRequest::square(id, a.clone())).is_ok());
    }
    // Panic while holding the queue mutex (poisons it), then keep going.
    service.poison_queue_for_test();
    for id in 3..6 {
        assert!(
            service.submit(ChainRequest::square(id, a.clone())).is_ok(),
            "submissions must survive a poisoned queue mutex"
        );
    }
    let batch = service.drain();
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.outcomes.len(), 6, "all jobs drained after poison");
    let ids: Vec<u64> = batch.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>());
}

/// The service's non-timing exposition (cache counters, job counters, span
/// counts) is byte-identical at every worker count: the instruments are
/// pure functions of the job multiset under single-flight.
#[test]
fn service_exposition_is_byte_identical_across_worker_counts() {
    use br_obs::Registry;
    const N: u64 = 8;
    let a = Arc::new(rmat(RmatConfig::snap_like(8, 6, 44)).to_csr());
    let b = Arc::new(rmat(RmatConfig::snap_like(8, 6, 45)).to_csr());
    let run = |workers: usize| {
        let registry = Arc::new(Registry::new());
        let mut jobs = Vec::new();
        for id in 0..N {
            if id % 2 == 0 {
                jobs.push(ChainRequest::square(id, a.clone()));
            } else {
                jobs.push(ChainRequest::multiply(id, a.clone(), b.clone()));
            }
        }
        let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8)
            .with_registry(registry.clone());
        let batch = SpgemmService::run_batch(config, jobs);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        (
            registry.render_prometheus(false),
            registry.render_jsonl(false),
        )
    };
    let (base_prom, base_jsonl) = run(1);
    assert!(
        base_prom.contains("br_jobs_submitted_total 8"),
        "{base_prom}"
    );
    assert!(
        base_prom.contains("br_jobs_completed_total 8"),
        "{base_prom}"
    );
    assert!(base_prom.contains("br_cache_misses_total 2"), "{base_prom}");
    assert!(base_prom.contains("br_cache_hits_total 6"), "{base_prom}");
    assert!(
        base_prom.contains("br_span_total{path=\"job/plan\"} 8"),
        "{base_prom}"
    );
    // Timing-flagged families must be absent from the deterministic view.
    assert!(!base_prom.contains("br_queue_depth"), "{base_prom}");
    assert!(!base_prom.contains("br_job_queue_wait_ns"), "{base_prom}");
    for workers in [2, 4] {
        assert_eq!((base_prom.clone(), base_jsonl.clone()), run(workers));
    }
}

/// Failures are reported, not panicked: mismatched shapes surface in
/// `failures` with the offending job's id, and good jobs still complete.
#[test]
fn bad_jobs_fail_gracefully_without_poisoning_the_batch() {
    let a = Arc::new(rmat(RmatConfig::graph500(7, 6, 5)).to_csr());
    let skinny = Arc::new(CsrMatrix::<f64>::zeros(3, 3));
    let jobs = vec![
        ChainRequest::square(0, a.clone()),
        ChainRequest::multiply(1, a.clone(), skinny), // shape mismatch
        ChainRequest::square(2, a.clone()),
    ];
    let batch = SpgemmService::run_batch(ServiceConfig::default(), jobs);
    assert_eq!(batch.outcomes.len(), 2);
    assert_eq!(batch.failures.len(), 1);
    assert_eq!(batch.failures[0].id, 1);
    // A plain multiplication fails with its own message, unwrapped.
    let message = &batch.failures[0].message;
    assert!(message.starts_with("invalid operands: "), "{message}");
    assert_eq!(batch.stats.failures, 1);
    assert_bit_identical(
        &batch.outcomes[0].result,
        &batch.outcomes[1].result,
        "surviving jobs",
    );
}

/// Estimation-based planning, end to end: an estimator-enabled service
/// returns results bit-identical to the exact service (the estimate may
/// change the method and the bin thresholds, never the numbers), caches
/// its estimated plans like the exact path does, and the estimator
/// fingerprint in the plan key keeps the two flavors from aliasing.
#[test]
fn estimator_enabled_service_matches_exact_results() {
    use br_spgemm::estimate::EstimatorConfig;
    let a = Arc::new(rmat(RmatConfig::graph500(9, 8, 77)).to_csr());
    let jobs = |n: u64| -> Vec<ChainRequest> {
        (0..n)
            .map(|id| ChainRequest::square(id, a.clone()))
            .collect()
    };

    let exact = SpgemmService::run_batch(ServiceConfig::default(), jobs(3));
    let estimated = SpgemmService::run_batch(
        ServiceConfig::default().with_settings(PlanSettings {
            estimator: Some(EstimatorConfig::default()),
            ..PlanSettings::default()
        }),
        jobs(3),
    );
    assert!(exact.failures.is_empty(), "{:?}", exact.failures);
    assert!(estimated.failures.is_empty(), "{:?}", estimated.failures);
    for (e, s) in exact.outcomes.iter().zip(&estimated.outcomes) {
        assert_bit_identical(&e.result, &s.result, "estimated vs exact service");
    }
    // Estimated plans amortize exactly like exact ones: one miss, then hits.
    assert_eq!(
        estimated.stats.cache.misses, 1,
        "{:?}",
        estimated.stats.cache
    );
    assert_eq!(estimated.stats.cache.hits, 2, "{:?}", estimated.stats.cache);
}

/// Reordering is invisible to callers: a service configured with any
/// row-reordering strategy returns results bit-identical to the baseline
/// service (the permutation reaches only the simulated launches), and the
/// strategy fingerprint in the plan key keeps reordered plans from aliasing
/// baseline plans.
#[test]
fn reordered_service_matches_baseline_results() {
    use block_reorganizer::reorder::ReorderStrategy;
    let a = Arc::new(rmat(RmatConfig::graph500(9, 8, 41)).to_csr());
    let jobs = |n: u64| -> Vec<ChainRequest> {
        (0..n)
            .map(|id| ChainRequest::square(id, a.clone()))
            .collect()
    };

    let baseline = SpgemmService::run_batch(ServiceConfig::default(), jobs(3));
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);
    for strategy in [
        ReorderStrategy::Degree,
        ReorderStrategy::Rcm,
        ReorderStrategy::Cluster,
        ReorderStrategy::Auto,
    ] {
        let settings = PlanSettings {
            reorder: strategy,
            ..PlanSettings::default()
        };
        let reordered =
            SpgemmService::run_batch(ServiceConfig::default().with_settings(settings), jobs(3));
        assert!(
            reordered.failures.is_empty(),
            "{strategy:?}: {:?}",
            reordered.failures
        );
        for (b, r) in baseline.outcomes.iter().zip(&reordered.outcomes) {
            assert_bit_identical(&b.result, &r.result, strategy.name());
        }
        // Reordered plans amortize like baseline ones: one miss, then hits.
        assert_eq!(reordered.stats.cache.misses, 1, "{strategy:?}");
        assert_eq!(reordered.stats.cache.hits, 2, "{strategy:?}");
    }
}

/// ISSUE satellite: plan-cache eviction stress. A structure-churning mix —
/// one iterated-squaring chain (every step a fresh structure) plus distinct
/// one-shot squarings — through a cache far smaller than the number of
/// distinct keys. Every lookup misses and every insert beyond capacity
/// evicts, so hits/misses/evictions are an exact function of the submitted
/// multiset — independent of worker count and scheduling — and the results
/// stay byte-identical at 1, 2, 4, and 8 workers.
#[test]
fn eviction_stress_counters_are_deterministic_across_worker_counts() {
    use br_workloads::Workload;

    const CAPACITY: usize = 2;
    const CHAIN_STEPS: u64 = 3; // square:3 → A², A⁴, A⁸ — all fresh structures
    const SINGLES: u64 = 7;

    let chain_base = Arc::new(rmat(RmatConfig::snap_like(7, 6, 900)).to_csr());
    let singles: Vec<Arc<CsrMatrix<f64>>> = (0..SINGLES)
        .map(|k| Arc::new(rmat(RmatConfig::snap_like(7, 6, 901 + k)).to_csr()))
        .collect();

    let mut baseline: Option<(Vec<CsrMatrix<f64>>, CsrMatrix<f64>)> = None;
    for workers in [1usize, 2, 4, 8] {
        let config = ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, CAPACITY);
        let service = SpgemmService::start(config);
        for (k, a) in singles.iter().enumerate() {
            service
                .submit(ChainRequest::square(k as u64, a.clone()))
                .unwrap();
        }
        service
            .submit(ChainRequest::workload(
                SINGLES,
                Workload::Square {
                    k: CHAIN_STEPS as usize,
                },
                &chain_base,
            ))
            .unwrap();
        let batch = service.drain();
        assert!(
            batch.failures.is_empty(),
            "{workers} workers: {:?}",
            batch.failures
        );
        let (chains, jobs): (Vec<&ChainOutcome>, Vec<&ChainOutcome>) = batch
            .outcomes
            .iter()
            .partition(|o| o.kind == RequestKind::Chain);
        assert_eq!(jobs.len(), SINGLES as usize);
        assert_eq!(chains.len(), 1);

        // Every key is distinct → all misses; every insert past capacity
        // evicts exactly one plan.
        let misses = SINGLES + CHAIN_STEPS;
        let stats = &batch.stats.cache;
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.entries),
            (0, misses, misses - CAPACITY as u64, CAPACITY),
            "{workers} workers"
        );
        assert_eq!(chains[0].cache_hits(), 0, "{workers} workers");
        assert_eq!(
            chains[0].structure_churn(),
            CHAIN_STEPS as usize,
            "{workers} workers"
        );

        let job_results: Vec<CsrMatrix<f64>> = jobs.iter().map(|o| (*o.result).clone()).collect();
        let chain_result = (*chains[0].result).clone();
        match &baseline {
            None => baseline = Some((job_results, chain_result)),
            Some((jobs0, chain0)) => {
                for (l, r) in jobs0.iter().zip(&job_results) {
                    assert_bit_identical(l, r, &format!("{workers}-worker job result"));
                }
                assert_bit_identical(chain0, &chain_result, "chain result across worker counts");
            }
        }
    }
}

/// Submissions with their submitter's reply: on a held pool, an expired
/// deadline is answered without running the work and counts as no job at
/// all (it is wall-clock dependent, so the strict export must not see it);
/// a live one is answered with its outcome and lane, interactive before
/// batch; and a bound refuses the push that would exceed it, handing the
/// work back.
#[test]
fn replies_answer_each_submission_once_and_expiry_counts_no_job() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let registry = Arc::new(br_obs::Registry::new());
    let service = SpgemmService::start_held(
        ServiceConfig::default()
            .with_queue_capacity(3)
            .with_registry(registry.clone()),
    );
    assert!(service.is_held());
    let a = Arc::new(rmat(RmatConfig::snap_like(6, 4, 5)).to_csr());
    let (tx, rx) = mpsc::channel();
    let reply: Reply = Arc::new(move |lane, done| tx.send((lane, done)).unwrap());
    let submit = |id: u64, lane: Lane, deadline: Option<Instant>| {
        let job = ChainRequest::square(id, a.clone());
        service.submit_with(job, lane, deadline, reply.clone())
    };
    assert_eq!(submit(0, Lane::Batch, None).unwrap(), 1);
    assert_eq!(submit(1, Lane::Batch, Some(Instant::now())).unwrap(), 2);
    assert_eq!(submit(2, Lane::Interactive, None).unwrap(), 3);
    match submit(3, Lane::Interactive, None) {
        Err(SubmitError::QueueFull(job)) if job.kind == RequestKind::Job => {
            assert_eq!(job.id, 3)
        }
        other => panic!("expected QueueFull with the job back, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(5));
    assert!(service.release());
    let answers: Vec<(u64, Lane, &str)> = (0..3)
        .map(|_| match rx.recv().unwrap() {
            (lane, Completion::Done(outcome)) => (outcome.id, lane, outcome.kind.name()),
            (lane, Completion::Expired(id)) => (id, lane, "expired"),
            (lane, other) => panic!("{lane:?}: unexpected {other:?}"),
        })
        .collect();
    assert_eq!(
        answers,
        [
            (2, Lane::Interactive, "job"),
            (0, Lane::Batch, "job"),
            (1, Lane::Batch, "expired")
        ]
    );

    let batch = service.drain();
    assert!(
        batch.outcomes.is_empty(),
        "own replies bypass the collector"
    );
    assert_eq!(batch.stats.max_queue_depth, 3);
    let strict = registry.render_prometheus(false);
    for line in [
        "br_jobs_submitted_total 3",
        "br_jobs_completed_total 2",
        "br_jobs_failed_total 0",
    ] {
        assert!(strict.contains(line), "missing {line:?}:\n{strict}");
    }
    assert!(
        matches!(
            service.submit(ChainRequest::square(9, a.clone())),
            Err(SubmitError::Draining(_))
        ),
        "a drained service refuses new work"
    );
}

/// A batch of jobs and chains reports per submission and aggregates per
/// multiplication: one plain job plus two Galerkin chains is 3 submissions
/// and 9 multiplications (1 + 2 × 4), 3 cold and 6 warm — the same split
/// the cache counts — and every latency mean and phase sum is the one
/// computed by hand over those 9 steps.
#[test]
fn batch_report_counts_submissions_and_aggregates_every_multiplication() {
    let specs = parse_job_file("rmat=7,4\nchain=galerkin rmat=9,6 repeat=2\n").unwrap();
    let requests = expand_submissions(&specs).unwrap();
    let batch = SpgemmService::run_batch(ServiceConfig::default(), requests);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let stats = &batch.stats;
    assert_eq!(stats.jobs, 3, "one per submission");
    let kinds: Vec<RequestKind> = batch.outcomes.iter().map(|o| o.kind).collect();
    assert_eq!(
        kinds,
        [RequestKind::Job, RequestKind::Chain, RequestKind::Chain]
    );

    let steps: Vec<&StepOutcome> = batch.outcomes.iter().flat_map(|o| &o.steps).collect();
    let (cold, warm): (Vec<&StepOutcome>, Vec<&StepOutcome>) =
        steps.iter().partition(|s| !s.cache_hit);
    assert_eq!((steps.len(), cold.len(), warm.len()), (9, 3, 6));
    assert_eq!((stats.cache.misses, stats.cache.hits), (3, 6));

    let mean =
        |steps: &[&StepOutcome]| steps.iter().map(|s| s.total_ms).sum::<f64>() / steps.len() as f64;
    let sum = |phase: fn(&StepOutcome) -> f64| steps.iter().map(|s| phase(s)).sum::<f64>();
    assert_eq!(stats.mean_total_ms, mean(&steps));
    assert_eq!(stats.mean_cold_ms, mean(&cold));
    assert_eq!(stats.mean_warm_ms, mean(&warm));
    assert_eq!(stats.precalc_ms, sum(|s| s.precalc_ms));
    assert_eq!(stats.expansion_ms, sum(|s| s.expansion_ms));
    assert_eq!(stats.merge_ms, sum(|s| s.merge_ms));
    assert_eq!(stats.preprocess_ms, sum(|s| s.preprocess_ms));
    assert!(stats.expansion_ms > 0.0 && stats.merge_ms > 0.0);
    let queue = batch.outcomes.iter().map(|o| o.queue_ms).sum::<f64>() / 3.0;
    assert_eq!(stats.mean_queue_ms, queue, "queue wait is per submission");
}
