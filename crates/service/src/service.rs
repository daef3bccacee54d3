//! The job service: one worker pool behind one two-lane queue.
//!
//! [`SpgemmService::start`] spawns one worker thread per configured device;
//! each worker owns a [`Worker`] (simulated device plus merge scratch) and
//! pops submissions from the shared [`JobQueue`], interactive lane first.
//! Every submission is a [`ChainRequest`] — a plain job is the one-step
//! program — and runs through the service's one [`Engine`], whose plan
//! cache makes repeats of a structure skip the analysis.
//!
//! Each submission carries the [`Reply`] of its submitter, which hears how
//! it ended: [`SpgemmService::submit`] attaches the service's own
//! collector, which [`SpgemmService::drain`] turns into a [`BatchOutcome`];
//! the `br-net` front end attaches one reply per connection, which answers
//! with a frame ([`SpgemmService::submit_with`]). Submission takes `&self`,
//! so connection threads share one service.

use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use block_reorganizer::PlanSettings;
use br_gpu_sim::device::DeviceConfig;
use br_obs::{lock_recover, Counter, Gauge, Histogram, Registry};

use crate::chain::{ChainOutcome, ChainRequest, RequestKind};
use crate::engine::{Engine, Worker};
use crate::job::JobError;
use crate::queue::{JobQueue, Lane, PushError};
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
    /// Optional bound on the queue's combined depth. `None` (the default)
    /// keeps the queue unbounded; `Some(n)` makes a submission fail with a
    /// typed [`SubmitError::QueueFull`] once `n` jobs are waiting — the
    /// refusal the wire front end (`br-net`) answers with `Shed`, so this
    /// bound is its shed threshold.
    pub queue_capacity: Option<usize>,
    /// Metrics registry shared by the service, its plan cache, and its job
    /// lifecycle spans. `None` gives the service a private registry (so
    /// concurrent services/tests never share counters); the CLI passes
    /// [`br_obs::global`] here to fold service metrics into the process
    /// exposition.
    pub registry: Option<Arc<Registry>>,
    /// The settings every plan is built under: reorganizer knobs, sampled
    /// or exact workloads, row reordering. They are part of every
    /// plan-cache key; results are bit-identical under any settings.
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

/// How a submission ended: what its [`Reply`] receives.
#[derive(Debug)]
pub enum Completion {
    /// The request finished. Boxed: an outcome (with its per-step roll-up)
    /// dwarfs an error.
    Done(Box<ChainOutcome>),
    /// The request failed.
    Failed(JobError),
    /// The deadline passed while the request (of this id) was queued; it
    /// never ran.
    Expired(u64),
}

/// What a submitter attaches to hear how its work ended. It is called
/// once per submission, on the worker thread that popped the work, with
/// the lane the work waited in. One reply serves every submission of its
/// submitter, so submitting allocates nothing for it.
pub type Reply = Arc<dyn Fn(Lane, Completion) + Send + Sync>;

/// Why the service refused a submission (the request comes back).
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity.
    QueueFull(ChainRequest),
    /// The service is already draining.
    Draining(ChainRequest),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reason, request) = match self {
            SubmitError::QueueFull(request) => ("queue full", request),
            SubmitError::Draining(request) => ("service draining", request),
        };
        let (kind, id) = (request.kind.name(), request.id);
        write!(f, "{reason}, {kind} {id} rejected")
    }
}

impl From<SubmitError> for JobError {
    fn from(err: SubmitError) -> Self {
        let message = err.to_string();
        let (SubmitError::QueueFull(request) | SubmitError::Draining(request)) = err;
        JobError {
            id: request.id,
            label: request.label,
            message,
        }
    }
}

/// Everything a finished batch reports.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Successful requests, jobs and chains alike, in submission order.
    pub outcomes: Vec<ChainOutcome>,
    /// Failed requests, in submission order.
    pub failures: Vec<JobError>,
    /// The aggregate report.
    pub stats: ServiceStats,
}

/// What one queue slot holds.
struct Queued {
    request: ChainRequest,
    deadline: Option<Instant>,
    reply: Reply,
    enqueued: Instant,
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
    /// Per-lane queue depth over time — scheduling-dependent, hence
    /// timing-flagged.
    queue_depth: [Gauge; 2],
    /// Per-lane high-water queue depth — also scheduling-dependent.
    queue_max_depth: [Gauge; 2],
    /// Wall-clock queue wait per submission, per lane — the "queue" stage
    /// of the lifecycle.
    queue_wait: [Histogram; 2],
}

impl ServiceInstruments {
    fn new(registry: &Registry) -> Self {
        ServiceInstruments {
            submitted: registry.counter(
                "br_jobs_submitted_total",
                "Jobs accepted into the service queue.",
                &[],
            ),
            completed: registry.counter(
                "br_jobs_completed_total",
                "Jobs that finished successfully.",
                &[],
            ),
            failed: registry.counter("br_jobs_failed_total", "Jobs that failed.", &[]),
            queue_depth: Lane::ALL.map(|l| {
                registry.timing_gauge(
                    "br_queue_depth",
                    "Jobs waiting for a worker per lane, sampled at push/pop (scheduling-dependent).",
                    &[("lane", l.name())],
                )
            }),
            queue_max_depth: Lane::ALL.map(|l| {
                registry.timing_gauge(
                    "br_queue_max_depth",
                    "Highest per-lane queue depth observed (scheduling-dependent).",
                    &[("lane", l.name())],
                )
            }),
            queue_wait: Lane::ALL.map(|l| {
                registry.timing_histogram(
                    "br_job_queue_wait_ns",
                    "Wall-clock nanoseconds a job waited in its lane.",
                    &[("lane", l.name())],
                )
            }),
        }
    }

    /// Samples `lane`'s depth after a push to or a pop from it.
    fn sample_depth(&self, queue: &JobQueue<Queued>, lane: Lane) {
        let depth = queue.lane_depth(lane) as u64;
        self.queue_depth[lane.index()].set_u64(depth);
        self.queue_max_depth[lane.index()].set_max(depth as f64);
    }
}

/// A running worker pool. Submit work (from any thread: submission takes
/// `&self`), then [`drain`](Self::drain) to finish it and report.
pub struct SpgemmService {
    queue: Arc<JobQueue<Queued>>,
    engine: Arc<Engine>,
    instruments: Arc<ServiceInstruments>,
    workers: Mutex<Vec<JoinHandle<WorkerReport>>>,
    collector: Reply,
    results: Mutex<mpsc::Receiver<Completion>>,
    started: Instant,
}

impl SpgemmService {
    /// Spawns the worker pool and returns a service accepting submissions.
    pub fn start(config: ServiceConfig) -> Self {
        Self::spawn(config, false)
    }

    /// Like [`start`](Self::start), but with the worker gate held:
    /// submissions queue — and are refused at the bound — while nothing
    /// runs, so admission is a pure function of arrival order until
    /// [`release`](Self::release) or a drain opens the gate.
    pub fn start_held(config: ServiceConfig) -> Self {
        Self::spawn(config, true)
    }

    fn spawn(config: ServiceConfig, held: bool) -> Self {
        let queue = Arc::new(JobQueue::new(config.queue_capacity, held));
        let engine = Arc::new(config.engine());
        let instruments = Arc::new(ServiceInstruments::new(engine.registry()));
        let workers = config
            .devices
            .into_iter()
            .enumerate()
            .map(|(index, device)| {
                let queue = queue.clone();
                let engine = engine.clone();
                let instruments = instruments.clone();
                thread::Builder::new()
                    .name(format!("br-service-worker-{index}"))
                    .spawn(move || {
                        worker_loop(Worker::new(index, device), &queue, &engine, &instruments)
                    })
                    .expect("failed to spawn service worker")
            })
            .collect();
        let (tx, results) = mpsc::channel();
        let collector: Reply = Arc::new(move |_, done| {
            let _ = tx.send(done);
        });
        SpgemmService {
            queue,
            engine,
            instruments,
            workers: Mutex::new(workers),
            collector,
            results: Mutex::new(results),
            started: Instant::now(),
        }
    }

    /// Admits `request` into the batch lane; [`drain`](Self::drain)
    /// reports how it ended.
    pub fn submit(&self, request: ChainRequest) -> Result<(), SubmitError> {
        self.submit_with(request, Lane::Batch, None, self.collector.clone())
            .map(drop)
    }

    /// Admits `request` into `lane` with its submitter's `reply`, which
    /// receives the completion — or, without the request running,
    /// [`Completion::Expired`] if `deadline` passes while it is queued.
    /// Returns the combined queue depth after the push. A refused
    /// submission is never replied to.
    pub fn submit_with(
        &self,
        request: ChainRequest,
        lane: Lane,
        deadline: Option<Instant>,
        reply: Reply,
    ) -> Result<usize, SubmitError> {
        let _span = self.engine.registry().span(match request.kind {
            RequestKind::Job => "job/submit",
            RequestKind::Chain => "chain/submit",
        });
        let queued = Queued {
            request,
            deadline,
            reply,
            enqueued: Instant::now(),
        };
        match self.queue.try_push(lane, queued) {
            Ok(depth) => {
                self.instruments.submitted.inc();
                self.instruments.sample_depth(&self.queue, lane);
                Ok(depth)
            }
            Err(PushError::Full(queued)) => Err(SubmitError::QueueFull(queued.request)),
            Err(PushError::Closed(queued)) => Err(SubmitError::Draining(queued.request)),
        }
    }

    /// Opens a held worker gate; returns whether it was held.
    pub fn release(&self) -> bool {
        self.queue.release()
    }

    /// Whether the worker gate is held.
    pub fn is_held(&self) -> bool {
        self.queue.is_held()
    }

    /// Stops admission: later submissions are refused as draining, queued
    /// work still runs (a held gate opens).
    pub fn close(&self) {
        self.queue.close();
    }

    /// The registry holding this service's instruments (and its cache's).
    pub fn registry(&self) -> &Arc<Registry> {
        self.engine.registry()
    }

    /// Test hook: poison the queue mutex by panicking inside its critical
    /// section, to prove the service keeps draining afterwards.
    #[doc(hidden)]
    pub fn poison_queue_for_test(&self) {
        self.queue.poison_for_test();
    }

    /// Runs a whole batch of jobs and/or chains: submit everything, drain,
    /// report. On a bounded queue (`queue_capacity`), a request refused by
    /// admission control appears in `failures` with a "queue full" message
    /// instead of vanishing.
    pub fn run_batch(
        config: ServiceConfig,
        requests: impl IntoIterator<Item = ChainRequest>,
    ) -> BatchOutcome {
        let service = Self::start(config);
        let rejected: Vec<JobError> = requests
            .into_iter()
            .filter_map(|r| service.submit(r).err())
            .map(JobError::from)
            .collect();
        let mut batch = service.drain();
        if !rejected.is_empty() {
            batch.stats.failures += rejected.len();
            batch.failures.extend(rejected);
            batch.failures.sort_by_key(|f| f.id);
        }
        batch
    }

    /// Closes the queue, waits for every worker to finish the backlog, and
    /// assembles the report of what [`submit`](Self::submit) collected.
    /// Work submitted with another reply was answered through it; a second
    /// drain finds nothing left to wait for or report.
    pub fn drain(&self) -> BatchOutcome {
        self.close();
        let workers = std::mem::take(&mut *lock_recover(&self.workers));
        let reports: Vec<WorkerReport> = workers
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect();
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        for done in lock_recover(&self.results).try_iter() {
            match done {
                Completion::Done(outcome) => outcomes.push(*outcome),
                Completion::Failed(err) => failures.push(err),
                // Collected requests carry no deadline.
                Completion::Expired(_) => {}
            }
        }
        outcomes.sort_by_key(|o| o.id);
        failures.sort_by_key(|f| f.id);
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
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
            self.engine.cache().stats(),
            self.queue.max_depth(),
            worker_stats,
        );
        BatchOutcome {
            outcomes,
            failures,
            stats,
        }
    }
}

/// Pops submissions until the queue is closed and empty. Each one is
/// answered exactly once through its reply: an expired deadline without
/// running the work, otherwise with the engine's typed outcome or error.
fn worker_loop(
    worker: Worker,
    queue: &JobQueue<Queued>,
    engine: &Engine,
    instruments: &ServiceInstruments,
) -> WorkerReport {
    let mut jobs = 0usize;
    let mut busy_ms = 0.0f64;
    while let Some((lane, queued)) = queue.pop() {
        instruments.sample_depth(queue, lane);
        let waited = queued.enqueued.elapsed();
        instruments.queue_wait[lane.index()].observe(waited.as_nanos() as u64);
        if queued.deadline.is_some_and(|d| Instant::now() > d) {
            (queued.reply)(lane, Completion::Expired(queued.request.id));
            continue;
        }
        let queue_ms = waited.as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let done = engine
            .run_chain(&worker, &queued.request, queue_ms)
            .map_or_else(Completion::Failed, |outcome| {
                Completion::Done(Box::new(outcome))
            });
        busy_ms += t0.elapsed().as_secs_f64() * 1e3;
        jobs += 1;
        if matches!(done, Completion::Failed(_)) {
            instruments.failed.inc();
        } else {
            instruments.completed.inc();
        }
        (queued.reply)(lane, done);
    }
    WorkerReport {
        worker: worker.index(),
        device: worker.device().name.clone(),
        jobs,
        busy_ms,
    }
}
