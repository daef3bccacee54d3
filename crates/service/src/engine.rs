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
use br_spgemm::context::ProblemContext;
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
    pub fn run(
        &self,
        worker: &Worker,
        a: &Arc<CsrMatrix<f64>>,
        b: &Arc<CsrMatrix<f64>>,
    ) -> Result<RunOutcome, String> {
        // `from_shared` bumps the operands' `Arc`s instead of deep-cloning
        // A, B, and the CSC copy per request.
        let ctx = ProblemContext::from_shared(a.clone(), b.clone())
            .map_err(|e| format!("invalid operands: {e}"))?;
        let device = worker.device();
        let key = PlanKey::for_settings(ctx.signature(), &device.name, &self.settings);
        let (plan, cache_hit) = {
            let _span = self.registry.span("plan");
            self.cache.get_or_build(&key, || {
                Arc::new(ReorgPlan::build(&ctx, device, &self.settings))
            })
        };
        let mode = if cache_hit {
            PlanMode::Cached
        } else {
            PlanMode::Cold
        };
        let run = {
            let _span = self.registry.span("execute");
            plan.execute_with_scratch(&worker.sim, &ctx, mode, Some(&worker.pool))
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
