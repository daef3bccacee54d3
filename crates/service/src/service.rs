//! The job service: submission API, worker pool, and result collection.
//!
//! [`SpgemmService::start`] spawns one worker thread per configured device;
//! each worker owns a [`Worker`] (simulated device plus merge scratch) and
//! pulls jobs from a shared [`JobQueue`]. Every job and chain runs through
//! the service's one [`Engine`], whose plan cache makes repeats of a
//! structure skip the analysis.

use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use block_reorganizer::PlanSettings;
use br_gpu_sim::device::DeviceConfig;
use br_obs::{Counter, Gauge, Histogram, Registry};

use crate::chain::{ChainOutcome, ChainRequest};
use crate::engine::{Engine, Worker};
use crate::job::{JobError, JobOutcome, JobRequest};
use crate::queue::{JobQueue, PushError};
use crate::stats::{ServiceStats, WorkerStats};

/// How to provision the service (and, through `br-net`'s `ServerConfig`,
/// the TCP front end).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// One worker is spawned per entry; duplicates give several workers on
    /// the same device model.
    pub devices: Vec<DeviceConfig>,
    /// Plan-cache capacity (entries; clamped to ≥ 1).
    pub cache_capacity: usize,
    /// Optional job-queue bound. `None` (the default) keeps the queue
    /// unbounded; `Some(n)` makes [`SpgemmService::try_submit`] shed with
    /// a typed [`SubmitError::QueueFull`] once `n` jobs are waiting — the
    /// same admission-control rejection the wire front end (`br-net`)
    /// applies at this bound, its shed threshold.
    pub queue_capacity: Option<usize>,
    /// Metrics registry shared by the service, its plan cache, and its job
    /// lifecycle spans. `None` gives the service a private registry (so
    /// concurrent services/tests never share counters); the CLI passes
    /// [`br_obs::global`] here to fold service metrics into the process
    /// exposition.
    pub registry: Option<Arc<Registry>>,
    /// The settings every plan is built under: reorganizer knobs, sampled
    /// or exact workloads, merge bins, row reordering. They are part of
    /// every plan-cache key; results are bit-identical under any settings.
    pub settings: PlanSettings,
}

impl Default for ServiceConfig {
    /// One Titan Xp worker (the paper's primary target) and room for 32
    /// cached plans.
    fn default() -> Self {
        Self::uniform(DeviceConfig::titan_xp(), 1, 32)
    }
}

impl ServiceConfig {
    /// `workers` identical workers on one device model.
    pub fn uniform(device: DeviceConfig, workers: usize, cache_capacity: usize) -> Self {
        ServiceConfig {
            devices: vec![device; workers.max(1)],
            cache_capacity,
            queue_capacity: None,
            registry: None,
            settings: PlanSettings::default(),
        }
    }

    /// Use `registry` for all service instruments (builder-style).
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Bound the job queue at `capacity` entries (builder-style).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Build every plan under `settings` (builder-style).
    pub fn with_settings(mut self, settings: PlanSettings) -> Self {
        self.settings = settings;
        self
    }

    /// The engine these settings describe, with its cache and instruments
    /// in the configured registry (a private one when none is set).
    pub fn engine(&self) -> Engine {
        let registry = self
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(Registry::new()));
        Engine::new(self.settings, self.cache_capacity, registry)
    }
}

/// Why [`SpgemmService::try_submit`] refused a job (the job comes back).
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull(JobRequest),
    /// The service is already draining.
    Draining(JobRequest),
}

/// Why [`SpgemmService::try_submit_chain`] refused a chain (it comes back).
/// Boxed: a chain request is far bigger than the `Ok` arm of a submit.
#[derive(Debug)]
pub enum ChainSubmitError {
    /// The bounded queue is at capacity.
    QueueFull(Box<ChainRequest>),
    /// The service is already draining.
    Draining(Box<ChainRequest>),
}

impl ChainSubmitError {
    /// The refused chain.
    pub fn into_chain(self) -> ChainRequest {
        match self {
            ChainSubmitError::QueueFull(chain) | ChainSubmitError::Draining(chain) => *chain,
        }
    }
}

impl std::fmt::Display for ChainSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainSubmitError::QueueFull(chain) => {
                write!(f, "queue full, chain {} rejected", chain.id)
            }
            ChainSubmitError::Draining(chain) => {
                write!(f, "service draining, chain {} rejected", chain.id)
            }
        }
    }
}

impl SubmitError {
    /// The refused job.
    pub fn into_job(self) -> JobRequest {
        match self {
            SubmitError::QueueFull(job) | SubmitError::Draining(job) => job,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(job) => write!(f, "queue full, job {} rejected", job.id),
            SubmitError::Draining(job) => write!(f, "service draining, job {} rejected", job.id),
        }
    }
}

/// Everything a finished batch reports.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Successful jobs, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Successful chains, in submission order. Failed chains land in
    /// `failures` alongside failed jobs (ids share one namespace).
    pub chains: Vec<ChainOutcome>,
    /// Failed jobs and chains, in submission order.
    pub failures: Vec<JobError>,
    /// The aggregate report.
    pub stats: ServiceStats,
}

/// What one queue slot holds: a single multiplication or a whole chain.
enum WorkItem {
    Job(JobRequest),
    Chain(Box<ChainRequest>),
}

struct QueuedJob {
    request: WorkItem,
    enqueued: Instant,
}

// Boxed: an outcome (with its result matrix) dwarfs an error.
enum Completion {
    Ok(Box<JobOutcome>),
    Chain(Box<ChainOutcome>),
    Err(JobError),
}

struct WorkerReport {
    worker: usize,
    device: String,
    jobs: usize,
    busy_ms: f64,
}

/// Instrument handles shared by the submission side and every worker.
struct ServiceInstruments {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    /// Queue depth over time — scheduling-dependent, hence timing-flagged.
    queue_depth: Gauge,
    /// High-water queue depth — also scheduling-dependent.
    queue_max_depth: Gauge,
    /// Wall-clock queue wait per job — the "queue" stage of the lifecycle.
    queue_wait: Histogram,
}

impl ServiceInstruments {
    fn new(registry: &Registry) -> Self {
        let submitted = registry.counter(
            "br_jobs_submitted_total",
            "Jobs accepted into the service queue.",
            &[],
        );
        let completed = registry.counter(
            "br_jobs_completed_total",
            "Jobs that finished successfully.",
            &[],
        );
        let failed = registry.counter("br_jobs_failed_total", "Jobs that failed.", &[]);
        let queue_depth = registry.timing_gauge(
            "br_queue_depth",
            "Jobs waiting for a worker, sampled at push/pop (scheduling-dependent).",
            &[],
        );
        let queue_max_depth = registry.timing_gauge(
            "br_queue_max_depth",
            "Highest queue depth observed (scheduling-dependent).",
            &[],
        );
        let queue_wait = registry.timing_histogram(
            "br_job_queue_wait_ns",
            "Wall-clock nanoseconds a job waited in the queue.",
            &[],
        );
        ServiceInstruments {
            submitted,
            completed,
            failed,
            queue_depth,
            queue_max_depth,
            queue_wait,
        }
    }
}

/// A running worker pool. Submit jobs, then [`drain`](Self::drain) to
/// collect all results and the final report.
pub struct SpgemmService {
    queue: Arc<JobQueue<QueuedJob>>,
    engine: Arc<Engine>,
    instruments: Arc<ServiceInstruments>,
    workers: Vec<JoinHandle<WorkerReport>>,
    results: mpsc::Receiver<Completion>,
    started: Instant,
    submitted: usize,
}

impl SpgemmService {
    /// Spawns the worker pool and returns a service accepting submissions.
    pub fn start(config: ServiceConfig) -> Self {
        let queue: Arc<JobQueue<QueuedJob>> = Arc::new(match config.queue_capacity {
            Some(capacity) => JobQueue::bounded(capacity),
            None => JobQueue::new(),
        });
        let engine = Arc::new(config.engine());
        let instruments = Arc::new(ServiceInstruments::new(engine.registry()));
        let (tx, rx) = mpsc::channel();
        let workers = config
            .devices
            .into_iter()
            .enumerate()
            .map(|(index, device)| {
                let queue = queue.clone();
                let engine = engine.clone();
                let instruments = instruments.clone();
                let tx = tx.clone();
                thread::Builder::new()
                    .name(format!("br-service-worker-{index}"))
                    .spawn(move || {
                        worker_loop(Worker::new(index, device), queue, engine, instruments, tx)
                    })
                    .expect("failed to spawn service worker")
            })
            .collect();
        SpgemmService {
            queue,
            engine,
            instruments,
            workers,
            results: rx,
            started: Instant::now(),
            submitted: 0,
        }
    }

    /// Enqueues a job; `false` if the service is draining or the bounded
    /// queue is full (see [`try_submit`](Self::try_submit) for the typed
    /// rejection that hands the job back).
    pub fn submit(&mut self, job: JobRequest) -> bool {
        self.try_submit(job).is_ok()
    }

    /// Non-blocking admission into the service queue.
    pub fn try_submit(&mut self, job: JobRequest) -> Result<(), SubmitError> {
        let engine = self.engine.clone();
        let _span = engine.registry().span("job/submit");
        match self.push_item(WorkItem::Job(job)) {
            Ok(()) => Ok(()),
            Err(PushError::Full(WorkItem::Job(job))) => Err(SubmitError::QueueFull(job)),
            Err(PushError::Closed(WorkItem::Job(job))) => Err(SubmitError::Draining(job)),
            Err(_) => unreachable!("a refused job push hands back the job"),
        }
    }

    /// Enqueues a chain; `false` if the service is draining or the bounded
    /// queue is full. A chain occupies one queue slot and runs to
    /// completion on one worker, step by step.
    pub fn submit_chain(&mut self, chain: ChainRequest) -> bool {
        self.try_submit_chain(chain).is_ok()
    }

    /// Non-blocking admission of a chain into the service queue.
    pub fn try_submit_chain(&mut self, chain: ChainRequest) -> Result<(), ChainSubmitError> {
        let engine = self.engine.clone();
        let _span = engine.registry().span("chain/submit");
        match self.push_item(WorkItem::Chain(Box::new(chain))) {
            Ok(()) => Ok(()),
            Err(PushError::Full(WorkItem::Chain(chain))) => Err(ChainSubmitError::QueueFull(chain)),
            Err(PushError::Closed(WorkItem::Chain(chain))) => {
                Err(ChainSubmitError::Draining(chain))
            }
            Err(_) => unreachable!("a refused chain push hands back the chain"),
        }
    }

    fn push_item(&mut self, item: WorkItem) -> Result<(), PushError<WorkItem>> {
        match self.queue.try_push(QueuedJob {
            request: item,
            enqueued: Instant::now(),
        }) {
            Ok(depth) => {
                self.submitted += 1;
                self.instruments.submitted.inc();
                self.instruments.queue_depth.set_u64(depth as u64);
                Ok(())
            }
            Err(PushError::Full(queued)) => Err(PushError::Full(queued.request)),
            Err(PushError::Closed(queued)) => Err(PushError::Closed(queued.request)),
        }
    }

    /// The registry holding this service's instruments (and its cache's).
    pub fn registry(&self) -> &Arc<Registry> {
        self.engine.registry()
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Test hook: poison the queue mutex by panicking inside its critical
    /// section, to prove the service keeps draining afterwards.
    #[doc(hidden)]
    pub fn poison_queue_for_test(&self) {
        self.queue.poison_for_test();
    }

    /// Runs a whole batch: submit everything, drain, report. On a bounded
    /// queue (`queue_capacity`), jobs refused by admission control appear
    /// in `failures` with a "queue full" message instead of vanishing.
    pub fn run_batch(config: ServiceConfig, jobs: Vec<JobRequest>) -> BatchOutcome {
        let mut service = Self::start(config);
        let mut rejected = Vec::new();
        for job in jobs {
            if let Err(err) = service.try_submit(job) {
                let message = err.to_string();
                let job = err.into_job();
                rejected.push(JobError {
                    id: job.id,
                    label: job.label,
                    message,
                });
            }
        }
        let mut batch = service.drain();
        if !rejected.is_empty() {
            batch.stats.failures += rejected.len();
            batch.failures.extend(rejected);
            batch.failures.sort_by_key(|f| f.id);
        }
        batch
    }

    /// Runs a batch of chains: submit everything, drain, report. Chains
    /// refused by admission control land in `failures` like rejected jobs.
    pub fn run_chains(config: ServiceConfig, chains: Vec<ChainRequest>) -> BatchOutcome {
        let mut service = Self::start(config);
        let mut rejected = Vec::new();
        for chain in chains {
            if let Err(err) = service.try_submit_chain(chain) {
                let message = err.to_string();
                let chain = err.into_chain();
                rejected.push(JobError {
                    id: chain.id,
                    label: chain.label,
                    message,
                });
            }
        }
        let mut batch = service.drain();
        if !rejected.is_empty() {
            batch.stats.failures += rejected.len();
            batch.failures.extend(rejected);
            batch.failures.sort_by_key(|f| f.id);
        }
        batch
    }

    /// Closes the queue, waits for every worker to finish, and assembles
    /// the batch report.
    pub fn drain(self) -> BatchOutcome {
        let SpgemmService {
            queue,
            engine,
            instruments,
            workers,
            results,
            started,
            submitted,
        } = self;
        queue.close();
        let reports: Vec<WorkerReport> = workers
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect();
        instruments
            .queue_max_depth
            .set_u64(queue.max_depth() as u64);
        let mut outcomes = Vec::with_capacity(submitted);
        let mut chains = Vec::new();
        let mut failures = Vec::new();
        while let Ok(done) = results.try_recv() {
            match done {
                Completion::Ok(outcome) => outcomes.push(*outcome),
                Completion::Chain(outcome) => chains.push(*outcome),
                Completion::Err(err) => failures.push(err),
            }
        }
        outcomes.sort_by_key(|o| o.id);
        chains.sort_by_key(|c| c.id);
        failures.sort_by_key(|f| f.id);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let worker_stats = reports
            .into_iter()
            .map(|r| WorkerStats {
                worker: r.worker,
                device: r.device,
                jobs: r.jobs,
                busy_ms: r.busy_ms,
                utilization: if wall_ms > 0.0 {
                    (r.busy_ms / wall_ms).min(1.0)
                } else {
                    0.0
                },
            })
            .collect();
        let stats = ServiceStats::from_outcomes(
            &outcomes,
            failures.len(),
            wall_ms,
            engine.cache().stats(),
            queue.max_depth(),
            worker_stats,
        );
        BatchOutcome {
            outcomes,
            chains,
            failures,
            stats,
        }
    }
}

fn worker_loop(
    worker: Worker,
    queue: Arc<JobQueue<QueuedJob>>,
    engine: Arc<Engine>,
    instruments: Arc<ServiceInstruments>,
    tx: mpsc::Sender<Completion>,
) -> WorkerReport {
    let mut jobs = 0usize;
    let mut busy_ms = 0.0f64;
    while let Some(queued) = queue.pop() {
        instruments.queue_depth.set_u64(queue.depth() as u64);
        instruments
            .queue_wait
            .observe(queued.enqueued.elapsed().as_nanos() as u64);
        let queue_ms = queued.enqueued.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let done = match queued.request {
            WorkItem::Job(job) => engine
                .run_job(&worker, &job, queue_ms)
                .map(|outcome| Completion::Ok(Box::new(outcome))),
            WorkItem::Chain(chain) => engine
                .run_chain(&worker, &chain, queue_ms)
                .map(|outcome| Completion::Chain(Box::new(outcome))),
        }
        .unwrap_or_else(Completion::Err);
        busy_ms += t0.elapsed().as_secs_f64() * 1e3;
        jobs += 1;
        match &done {
            Completion::Ok(_) | Completion::Chain(_) => instruments.completed.inc(),
            Completion::Err(_) => instruments.failed.inc(),
        }
        if tx.send(done).is_err() {
            break; // collector is gone; nothing left to report to
        }
    }
    WorkerReport {
        worker: worker.index(),
        device: worker.device().name.clone(),
        jobs,
        busy_ms,
    }
}
