//! The one request path: plan-cache key → single-flight plan build →
//! Cold/Cached execution.
//!
//! Every multiplication this crate serves goes through [`Engine::run`],
//! called once per step of a request by [`Engine::run_chain`] — the one
//! entry for every submission: a plain job (the one-step program), a
//! chain, and every request the `br-net` front end admits. The engine
//! owns what those requests share: the [`PlanCache`], the
//! [`PlanSettings`] every plan is built under (and keyed by), and the
//! registry handles. What a worker thread owns — its simulated device and
//! warmed merge scratch — is a [`Worker`], passed in per call.
//!
//! A cache hit executes in [`PlanMode::Cached`] (no precalculation kernel,
//! no host-side B-Splitting charge), a miss builds the [`ReorgPlan`],
//! publishes it, and executes cold. The numeric result is identical either
//! way — the plan captures only structure-dependent decisions.
//!
//! Spans: `plan` and `execute` around the two halves of every run, nested
//! under `job` for a plain job and under `chain` for a chain's steps
//! ([`RequestKind::name`]).

use std::sync::Arc;
use std::time::Instant;

use block_reorganizer::plan::{PlanMode, ReorgPlan};
use block_reorganizer::{PlanSettings, ReorganizerRun};
use br_gpu_sim::device::DeviceConfig;
use br_gpu_sim::sim::GpuSimulator;
use br_obs::Registry;
use br_sparse::CsrMatrix;
use br_spgemm::accum::ScratchPool;
use br_spgemm::context::Problem;
use br_spgemm::estimate::MethodChoice;
use br_workloads::ChainError;

use crate::cache::{PlanCache, PlanKey};
use crate::chain::{
    register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, RequestKind,
    StepOutcome,
};
use crate::job::JobError;

/// One worker's execution state: a simulated device and merge scratch.
/// Each worker thread owns one, so steady-state requests reuse warmed
/// accumulators instead of allocating per execution.
pub struct Worker {
    index: usize,
    sim: GpuSimulator,
    pool: ScratchPool<f64>,
}

impl Worker {
    /// Worker `index` simulating `device`.
    pub fn new(index: usize, device: DeviceConfig) -> Self {
        Worker {
            index,
            sim: GpuSimulator::new(device),
            pool: ScratchPool::new(),
        }
    }

    /// The worker's index, echoed in outcomes.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The device this worker simulates.
    pub fn device(&self) -> &DeviceConfig {
        self.sim.device()
    }
}

/// What one multiplication through [`Engine::run`] produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Expansion method the plan selected.
    pub method: MethodChoice,
    /// The execution: numeric result, kernel profiles, modelled times.
    pub run: ReorganizerRun<f64>,
}

/// Shared request-path state: plan cache, plan settings, instruments.
pub struct Engine {
    settings: PlanSettings,
    cache: PlanCache,
    registry: Arc<Registry>,
    chain: ChainInstruments,
}

impl Engine {
    /// An engine building every plan under `settings`, caching up to
    /// `cache_capacity` of them, with its cache counters, spans, and the
    /// `br_chain_*` families (registered now, so they export at zero before
    /// any chain runs) in `registry`.
    pub fn new(settings: PlanSettings, cache_capacity: usize, registry: Arc<Registry>) -> Self {
        Engine {
            settings,
            cache: PlanCache::with_registry(cache_capacity, registry.clone()),
            chain: register_chain_instruments(&registry),
            registry,
        }
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The registry holding the engine's instruments.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One multiplication `a · b` on `worker`. Single-flight: concurrent
    /// workers racing on the same absent key produce exactly one build (one
    /// miss) and one hit per other request, so cache counters depend only
    /// on the multiset of requests — not on worker count or scheduling.
    ///
    /// Key first: the shapes are checked and the operands signed once, and
    /// the plan key is built from that signature. The problem is analyzed
    /// only where something reads the analysis — the miss's build, whose
    /// Cold execution reuses the context, or an execution that simulates —
    /// so a hit that replays its plan's memo builds no context.
    pub fn run(
        &self,
        worker: &Worker,
        a: &Arc<CsrMatrix<f64>>,
        b: &Arc<CsrMatrix<f64>>,
    ) -> Result<RunOutcome, String> {
        let problem = Problem::new(a, b).map_err(|e| format!("invalid operands: {e}"))?;
        let device = worker.device();
        let key = PlanKey::for_settings(problem.signature(), &device.name, &self.settings);
        let (plan, cache_hit) = {
            let _span = self.registry.span("plan");
            self.cache.get_or_build(&key, || {
                Arc::new(ReorgPlan::build(problem.context(), device, &self.settings))
            })
        };
        let mode = if cache_hit {
            PlanMode::Cached
        } else {
            PlanMode::Cold
        };
        let run = {
            let _span = self.registry.span("execute");
            plan.execute_problem(&worker.sim, &problem, mode, Some(&worker.pool))
                .map_err(|e| format!("execution failed: {e}"))?
        };
        Ok(RunOutcome {
            cache_hit,
            method: plan.method,
            run,
        })
    }

    /// One request on `worker`, step by step inside a `job` or `chain`
    /// span. Every step is an [`Engine::run`], so each gets its own cache
    /// hit or miss: steps that repeat an operand structure already planned
    /// (the Galerkin refresh products, repeats of a converged Markov
    /// iterate) hit, and structure-churning steps (iterated squaring) miss
    /// every time. A failed step fails a chain with a message naming the
    /// step, and a plain job with the step's own message. `queue_ms` is how
    /// long the request waited for the worker.
    pub fn run_chain(
        &self,
        worker: &Worker,
        request: &ChainRequest,
        queue_ms: f64,
    ) -> Result<ChainOutcome, JobError> {
        let t0 = Instant::now();
        let span = self.registry.span(request.kind.name());
        let run = request
            .program
            .execute_with(&request.inputs, |index, _, a, b| {
                let RunOutcome {
                    cache_hit,
                    method,
                    run,
                } = self.run(worker, a, b)?;
                // What the executor measures itself (label, sizes, churn)
                // comes from its step record below.
                let step = StepOutcome {
                    index,
                    label: String::new(),
                    cache_hit,
                    method: method.name(),
                    total_ms: run.total_ms,
                    precalc_ms: run.phase_ms("precalc"),
                    expansion_ms: run.phase_ms("expansion"),
                    merge_ms: run.phase_ms("merge"),
                    preprocess_ms: run.preprocess_ms,
                    gflops: run.gflops(),
                    product_nnz: 0,
                    output_nnz: 0,
                    fill_in_permille: 0,
                    fresh_structure: false,
                };
                Ok((run.result, step))
            })
            .map_err(|e: ChainError<String>| JobError {
                id: request.id,
                label: request.label.clone(),
                message: match (request.kind, e) {
                    (RequestKind::Job, ChainError::Step { source, .. }) => source,
                    (_, e) => format!("chain failed: {e}"),
                },
            })?;
        drop(span);

        let instruments = (request.kind == RequestKind::Chain).then_some(&self.chain);
        let mut steps = Vec::with_capacity(run.steps.len());
        let mut total_ms = 0.0;
        for record in run.steps {
            let step = StepOutcome {
                label: record.label,
                product_nnz: record.product_nnz,
                output_nnz: record.output_nnz,
                fill_in_permille: record.fill_in_permille,
                fresh_structure: record.fresh_structure,
                ..record.meta
            };
            if let Some(instruments) = instruments {
                instruments.steps.inc();
                if step.cache_hit {
                    instruments.cache_hits.inc();
                } else {
                    instruments.cache_misses.inc();
                }
                if step.fresh_structure {
                    instruments.structure_churn.inc();
                }
                instruments.fill_in.observe(step.fill_in_permille);
            }
            total_ms += step.total_ms;
            steps.push(step);
        }
        Ok(ChainOutcome {
            id: request.id,
            label: request.label.clone(),
            kind: request.kind,
            worker: worker.index,
            device: worker.device().name.clone(),
            steps,
            total_ms,
            queue_ms,
            host_ms: t0.elapsed().as_secs_f64() * 1e3,
            result: run.result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_datasets::rmat::{rmat, RmatConfig};
    use br_workloads::Workload;

    /// An engine with room for `capacity` plans and `budget` bytes of
    /// memoized patterns.
    fn engine(capacity: usize, budget: usize) -> Engine {
        let registry = Arc::new(Registry::new());
        Engine {
            cache: PlanCache::with_registry(capacity, registry.clone()).with_pattern_budget(budget),
            ..Engine::new(PlanSettings::default(), capacity, registry)
        }
    }

    fn operand(seed: u64) -> Arc<CsrMatrix<f64>> {
        Arc::new(rmat(RmatConfig::graph500(8, 8, seed)).to_csr())
    }

    #[test]
    fn one_structure_stores_one_pattern_at_its_third_execution() {
        let engine = engine(4, crate::cache::PATTERN_BUDGET_BYTES);
        let worker = Worker::new(0, DeviceConfig::titan_xp());
        let a = operand(1);
        let mut stored = Vec::new();
        for _ in 0..5 {
            engine.run(&worker, &a, &a).unwrap();
            stored.push(engine.cache().resident_patterns());
        }
        assert_eq!(stored, [0, 0, 1, 1, 1]);
    }

    #[test]
    fn a_galerkin_chain_stores_no_pattern() {
        let engine = engine(4, crate::cache::PATTERN_BUDGET_BYTES);
        let worker = Worker::new(0, DeviceConfig::titan_xp());
        let request = ChainRequest::workload(0, Workload::parse("galerkin").unwrap(), &operand(2));
        let outcome = engine.run_chain(&worker, &request, 0.0).unwrap();
        // Each of its two plans hits once and never replays.
        assert_eq!((outcome.cache_hits(), outcome.cache_misses()), (2, 2));
        assert_eq!(engine.cache().resident_patterns(), 0);
    }

    #[test]
    fn a_budget_below_one_pattern_changes_no_result_and_no_count() {
        let (x, y, z) = (operand(3), operand(4), operand(5));
        let sequence = [&x, &x, &x, &y, &x, &x, &z, &y, &x, &x, &x];
        let worker = Worker::new(0, DeviceConfig::titan_xp());
        let run_all = |engine: &Engine| -> Vec<(bool, Vec<u64>, usize)> {
            sequence
                .iter()
                .map(|m| {
                    let out = engine.run(&worker, m, m).unwrap();
                    let bits = out.run.result.val().iter().map(|v| v.to_bits()).collect();
                    (out.cache_hit, bits, engine.cache().resident_patterns())
                })
                .collect()
        };
        let (default, tiny) = (engine(2, crate::cache::PATTERN_BUDGET_BYTES), engine(2, 1));
        let with_default = run_all(&default);
        let with_tiny = run_all(&tiny);
        for (i, (d, t)) in with_default.iter().zip(&with_tiny).enumerate() {
            assert_eq!((d.0, &d.1), (t.0, &t.1), "request {i}");
        }
        let stats = |e: &Engine| {
            let s = e.cache().stats();
            (s.hits, s.misses, s.evictions)
        };
        assert_eq!(stats(&default), stats(&tiny));
        assert!(stats(&tiny).2 > 0, "the sequence evicts");
        // x stores its pattern at its third execution under both budgets;
        // y's lookup then drops it under the tiny one, leaving none.
        assert_eq!((with_default[2].2, with_tiny[2].2), (1, 1));
        assert_eq!((with_default[3].2, with_tiny[3].2), (1, 0));
        assert!(with_tiny.iter().all(|r| r.2 <= 1));
    }
}
