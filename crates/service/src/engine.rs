//! The one request path: plan-cache key → single-flight plan build →
//! Cold/Cached execution.
//!
//! Every multiplication this crate serves goes through [`Engine::run`]: a
//! plain job ([`Engine::run_job`]), each step of a chain
//! ([`Engine::run_chain`]), and — through the same two calls — every
//! request the `br-net` front end admits. The engine owns what those
//! requests share: the [`PlanCache`], the [`PlanSettings`] every plan is
//! built under (and keyed by), and the registry handles. What a worker
//! thread owns — its simulated device and warmed merge scratch — is a
//! [`Worker`], passed in per call.
//!
//! A cache hit executes in [`PlanMode::Cached`] (no precalculation kernel,
//! no host-side B-Splitting charge), a miss builds the [`ReorgPlan`],
//! publishes it, and executes cold. The numeric result is identical either
//! way — the plan captures only structure-dependent decisions.
//!
//! Spans: `plan` and `execute` around the two halves of every run, nested
//! under `job` for a plain job and under `chain` for a chain's steps.

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

use crate::cache::{PlanCache, PlanKey};
use crate::chain::{
    register_chain_instruments, ChainInstruments, ChainOutcome, ChainRequest, StepOutcome,
};
use crate::job::{JobError, JobOutcome, JobRequest};

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

    /// One job on `worker`, inside a `job` span. `queue_ms` is how long the
    /// job waited for the worker.
    pub fn run_job(
        &self,
        worker: &Worker,
        job: &JobRequest,
        queue_ms: f64,
    ) -> Result<JobOutcome, JobError> {
        let t0 = Instant::now();
        let span = self.registry.span("job");
        let RunOutcome { cache_hit, run, .. } =
            self.run(worker, &job.a, &job.b)
                .map_err(|message| JobError {
                    id: job.id,
                    label: job.label.clone(),
                    message,
                })?;
        drop(span);
        Ok(JobOutcome {
            id: job.id,
            label: job.label.clone(),
            worker: worker.index,
            device: worker.device().name.clone(),
            cache_hit,
            total_ms: run.total_ms,
            precalc_ms: run.phase_ms("precalc"),
            expansion_ms: run.phase_ms("expansion"),
            merge_ms: run.phase_ms("merge"),
            preprocess_ms: run.preprocess_ms,
            queue_ms,
            host_ms: t0.elapsed().as_secs_f64() * 1e3,
            gflops: run.gflops(),
            nnz_c: run.result.nnz(),
            stats: run.stats,
            result: run.result,
        })
    }

    /// One chain on `worker`, step by step inside a `chain` span. Every
    /// step is an [`Engine::run`], so each gets its own cache hit or miss:
    /// steps that repeat an operand structure already planned (the Galerkin
    /// refresh products, repeats of a converged Markov iterate) hit, and
    /// structure-churning steps (iterated squaring) miss every time. A
    /// failed step fails the chain with a message naming the step.
    pub fn run_chain(
        &self,
        worker: &Worker,
        request: &ChainRequest,
        queue_ms: f64,
    ) -> Result<ChainOutcome, JobError> {
        let t0 = Instant::now();
        let span = self.registry.span("chain");
        let run = request
            .program
            .execute_with(&request.inputs, |_, _, a, b| {
                let RunOutcome {
                    cache_hit,
                    method,
                    run,
                } = self.run(worker, a, b)?;
                let meta = StepMeta {
                    cache_hit,
                    method: method.name(),
                    total_ms: run.total_ms,
                    precalc_ms: run.phase_ms("precalc"),
                    preprocess_ms: run.preprocess_ms,
                    gflops: run.gflops(),
                };
                Ok((run.result, meta))
            })
            .map_err(|e: br_workloads::ChainError<String>| JobError {
                id: request.id,
                label: request.label.clone(),
                message: format!("chain failed: {e}"),
            })?;
        drop(span);

        let instruments = &self.chain;
        let mut steps = Vec::with_capacity(run.steps.len());
        let mut total_ms = 0.0;
        for record in run.steps {
            instruments.steps.inc();
            if record.meta.cache_hit {
                instruments.cache_hits.inc();
            } else {
                instruments.cache_misses.inc();
            }
            if record.fresh_structure {
                instruments.structure_churn.inc();
            }
            instruments.fill_in.observe(record.fill_in_permille);
            total_ms += record.meta.total_ms;
            steps.push(StepOutcome {
                index: record.index,
                label: record.label,
                cache_hit: record.meta.cache_hit,
                method: record.meta.method,
                total_ms: record.meta.total_ms,
                precalc_ms: record.meta.precalc_ms,
                preprocess_ms: record.meta.preprocess_ms,
                gflops: record.meta.gflops,
                product_nnz: record.product_nnz,
                output_nnz: record.output_nnz,
                fill_in_permille: record.fill_in_permille,
                fresh_structure: record.fresh_structure,
            });
        }
        Ok(ChainOutcome {
            id: request.id,
            label: request.label.clone(),
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

/// What a chain step's [`Engine::run`] reports besides its product.
struct StepMeta {
    cache_hit: bool,
    method: &'static str,
    total_ms: f64,
    precalc_ms: f64,
    preprocess_ms: f64,
    gflops: f64,
}
