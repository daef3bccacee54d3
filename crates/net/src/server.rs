//! The TCP serving front end: listener, connection state machine,
//! admission control, and graceful drain, in front of the job service's
//! worker pool.
//!
//! The server runs no workers of its own. It starts one
//! [`SpgemmService`] from [`ServerConfig::service`] and submits every
//! admitted request into the service's two-lane queue, with a reply that
//! turns the typed completion into this connection's response frame.
//!
//! ## Connection state machine
//!
//! ```text
//! accept ── ExpectHello ──Hello──► Ready ──Shutdown──► (drain initiated)
//!              │                    │ Submit → Result | Shed | Reject
//!              │ anything else      │ Release → open the worker gate
//!              ▼                    │ Goodbye / EOF → close
//!           Error + close           ▼
//!                                 closed
//! ```
//!
//! ## Admission decision (per `Submit`, in arrival order per connection)
//!
//! 1. no `Hello` yet → `Reject(NotReady)`
//! 2. draining → `Reject(Draining)`
//! 3. spec unparseable, naming a file (`input=` / `pair=`), or
//!    `repeat != 1` → `Reject(BadSpec)`
//! 4. client already has `quota` in-flight jobs → `Reject(QuotaExceeded)`
//! 5. the service queue's combined depth at its bound (the shed
//!    threshold) → `Shed`
//! 6. load the operands through the server's [`OperandCache`]; a spec
//!    that cannot be loaded → `Reject(BadSpec)`
//! 7. otherwise → submit to the service; exactly one `Result` (or
//!    `Reject(Failed)` / `Reject(DeadlineExpired)`) follows later. The
//!    push's own refusal at the bound is still a `Shed`.
//!
//! So a refused request loads nothing, and only an admitted one pays for
//! its operands. With the worker gate held (`ServerConfig::hold`), steps
//! 1–7 are a pure function of the offered load: nothing leaves the queue,
//! so the shed/quota/saturation and operand-cache counters are
//! byte-identical across reruns and any `BR_THREADS` setting — the
//! property `scripts/bench_gate.sh` checks.
//!
//! ## Drain protocol
//!
//! A `Shutdown` frame (from any authenticated connection) flips the
//! draining flag once: every open connection gets a `DrainNotice`, the
//! service's queue closes (queued jobs still execute; the gate opens if
//! held), the listener stops accepting, the service's workers finish and
//! are joined, remaining connections are flushed and closed, and
//! [`NetServer::run`] returns.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use br_obs::{lock_recover, Counter, Registry};
use br_service::chain::RequestKind;
use br_service::job::{parse_job_file, JobSpec, MatrixSource};
use br_service::operands::OperandCache;
use br_service::service::{Completion, Reply, ServiceConfig, SpgemmService, SubmitError};

use crate::frame::{
    read_frame, write_frame, ChainStepSummary, Frame, FrameError, Lane, RejectCode, VERSION,
};

/// How to provision the serving front end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The job service the server starts and submits into: workers, plan
    /// cache, plan settings, and registry. `service.queue_capacity` is the
    /// shed threshold: the combined depth of the service's two lanes at
    /// which submissions are shed (`None` never sheds).
    pub service: ServiceConfig,
    /// Max admitted-but-unfinished jobs per client id.
    pub quota: u64,
    /// Start with the worker gate held: admission decisions become a pure
    /// function of arrival order until a `Release` frame opens the gate.
    pub hold: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::default().with_queue_capacity(64),
            quota: 256,
            hold: false,
        }
    }
}

/// Final accounting of one serve run, read off the deterministic counters.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Connections accepted (excluding ones refused during drain).
    pub connections: u64,
    /// `Submit` frames received.
    pub requests: u64,
    /// Requests admitted into the service's queue.
    pub admitted: u64,
    /// `Result` responses sent.
    pub results: u64,
    /// Requests shed at the queue threshold.
    pub shed: u64,
    /// Requests refused by the per-client quota.
    pub quota_rejected: u64,
    /// Requests refused for other typed reasons (bad spec, draining, …).
    pub other_rejected: u64,
    /// Protocol errors observed across all connections.
    pub protocol_errors: u64,
    /// Highest combined queue depth observed (≤ the shed threshold).
    pub queue_depth_max: usize,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} connections, {} requests ({} admitted, {} shed, {} quota-rejected, {} other-rejected)",
            self.connections,
            self.requests,
            self.admitted,
            self.shed,
            self.quota_rejected,
            self.other_rejected
        )?;
        writeln!(
            f,
            "       {} results, queue depth max {}, {} protocol errors",
            self.results, self.queue_depth_max, self.protocol_errors
        )
    }
}

/// Per-lane + per-reason instrument handles. Every cell is registered at
/// server start, so the exposition's family set is identical no matter
/// which events actually occur.
struct NetInstruments {
    connections: Counter,
    requests: [Counter; 2],
    admitted: [Counter; 2],
    shed: [Counter; 2],
    saturation: [Counter; 2],
    results: [Counter; 2],
    reject_quota: Counter,
    reject_bad_spec: Counter,
    reject_draining: Counter,
    reject_not_ready: Counter,
    reject_failed: Counter,
    drain_notices: Counter,
    protocol_errors: Counter,
    /// Wall-clock dependent, hence timing-flagged (strict dumps omit it).
    deadline_expired: Counter,
}

impl NetInstruments {
    fn new(registry: &Registry) -> Self {
        let per_lane = |name: &str, help: &str| {
            Lane::ALL.map(|l| registry.counter(name, help, &[("lane", l.name())]))
        };
        let reject = |reason: &str| {
            registry.counter(
                "br_net_rejects_total",
                "Requests refused with a typed Reject response.",
                &[("reason", reason)],
            )
        };
        NetInstruments {
            connections: registry.counter(
                "br_net_connections_total",
                "Connections accepted by the listener.",
                &[],
            ),
            requests: per_lane("br_net_requests_total", "Submit frames received."),
            admitted: per_lane("br_net_admitted_total", "Requests admitted into a lane."),
            shed: per_lane(
                "br_net_shed_total",
                "Requests shed because the queue was at the shed threshold.",
            ),
            saturation: per_lane(
                "br_net_saturation_total",
                "Admissions that filled the queue to the shed threshold.",
            ),
            results: per_lane("br_net_results_total", "Result responses sent."),
            reject_quota: reject("quota"),
            reject_bad_spec: reject("bad_spec"),
            reject_draining: reject("draining"),
            reject_not_ready: reject("not_ready"),
            reject_failed: reject("failed"),
            drain_notices: registry.counter(
                "br_net_drain_notices_total",
                "DrainNotice frames sent at drain start.",
                &[],
            ),
            protocol_errors: registry.counter(
                "br_net_protocol_errors_total",
                "Malformed or unexpected frames received.",
                &[],
            ),
            deadline_expired: registry.timing_counter(
                "br_net_deadline_expired_total",
                "Admitted requests whose deadline passed before execution (wall-clock dependent).",
                &[],
            ),
        }
    }
}

/// Per-client in-flight accounting for quota enforcement.
struct Admission {
    quota: u64,
    inflight: Mutex<HashMap<String, u64>>,
}

impl Admission {
    fn new(quota: u64) -> Self {
        Admission {
            quota: quota.max(1),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Reserves one in-flight slot for `client`; `false` if at quota.
    fn try_acquire(&self, client: &str) -> bool {
        let mut map = lock_recover(&self.inflight);
        let n = map.entry(client.to_string()).or_insert(0);
        if *n >= self.quota {
            return false;
        }
        *n += 1;
        true
    }

    /// Returns `client`'s slot after its job finished (or expired),
    /// forgetting the client once it has nothing in flight.
    fn release(&self, client: &str) {
        let mut map = lock_recover(&self.inflight);
        if let Some(n) = map.get_mut(client) {
            *n -= 1;
            if *n == 0 {
                map.remove(client);
            }
        }
    }
}

struct ConnHandle {
    tx: mpsc::Sender<Frame>,
    stream: TcpStream,
}

struct Shared {
    service: SpgemmService,
    operands: OperandCache,
    admission: Admission,
    instruments: NetInstruments,
    draining: AtomicBool,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    next_conn_id: AtomicU64,
    local_addr: SocketAddr,
    shed_threshold: usize,
}

impl Shared {
    fn initiate_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let conns = lock_recover(&self.conns);
        for handle in conns.values() {
            if handle
                .tx
                .send(Frame::DrainNotice {
                    message: "server draining: finishing in-flight jobs, accepting no new work"
                        .to_string(),
                })
                .is_ok()
            {
                self.instruments.drain_notices.inc();
            }
        }
        drop(conns);
        // Queued jobs still run (close also opens a held gate); workers
        // exit once the backlog is gone.
        self.service.close();
        // Wake the accept loop so `run` can move on to joining workers.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A bound, not-yet-running server. [`bind`](Self::bind) separates listener
/// setup (whose failure the CLI maps to exit code 3) from serving.
pub struct NetServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl NetServer {
    /// Binds the listener and starts the job service's worker pool (its
    /// gate held if `config.hold`). The returned server does not accept
    /// connections until [`run`](Self::run).
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shed_threshold = config.service.queue_capacity.unwrap_or(usize::MAX).max(1);
        let service = if config.hold {
            SpgemmService::start_held(config.service)
        } else {
            SpgemmService::start(config.service)
        };
        let shared = Arc::new(Shared {
            instruments: NetInstruments::new(service.registry()),
            operands: OperandCache::new(service.registry()),
            service,
            admission: Admission::new(config.quota),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            local_addr,
            shed_threshold,
        });
        Ok(NetServer { listener, shared })
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The registry holding this server's instruments.
    pub fn registry(&self) -> &Arc<Registry> {
        self.shared.service.registry()
    }

    /// Serves until a `Shutdown` frame completes the drain, then reports.
    pub fn run(self) -> ServeReport {
        let NetServer { listener, shared } = self;
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            if shared.draining.load(Ordering::SeqCst) {
                // Refuse late arrivals (including the drain wake-up
                // connection) with a best-effort notice.
                let mut s = stream;
                let _ = write_frame(
                    &mut s,
                    &Frame::DrainNotice {
                        message: "server draining: connection refused".to_string(),
                    },
                );
                let _ = s.shutdown(SockShutdown::Both);
                break;
            }
            shared.instruments.connections.inc();
            let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&shared);
            conn_threads.push(
                thread::Builder::new()
                    .name(format!("br-net-conn-{conn_id}"))
                    .spawn(move || connection_loop(conn_id, stream, shared))
                    .expect("failed to spawn connection thread"),
            );
        }
        // Drain: the service's workers finish the closed queue's backlog,
        // then exit.
        let queue_depth_max = shared.service.drain().stats.max_queue_depth;
        // Every result is now in its connection's write channel. Close the
        // read side of surviving connections; each reader exits, its
        // writer flushes the channel backlog, and the thread finishes.
        let leftovers: Vec<ConnHandle> = {
            let mut conns = lock_recover(&shared.conns);
            conns.drain().map(|(_, h)| h).collect()
        };
        for handle in leftovers {
            let _ = handle.stream.shutdown(SockShutdown::Read);
        }
        for t in conn_threads {
            t.join().expect("connection thread panicked");
        }
        let i = &shared.instruments;
        let lane_sum = |c: &[Counter; 2]| c[0].get() + c[1].get();
        ServeReport {
            connections: i.connections.get(),
            requests: lane_sum(&i.requests),
            admitted: lane_sum(&i.admitted),
            results: lane_sum(&i.results),
            shed: lane_sum(&i.shed),
            quota_rejected: i.reject_quota.get(),
            other_rejected: i.reject_bad_spec.get()
                + i.reject_draining.get()
                + i.reject_not_ready.get()
                + i.reject_failed.get(),
            protocol_errors: i.protocol_errors.get(),
            queue_depth_max,
        }
    }
}

fn connection_loop(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel::<Frame>();
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let Ok(registry_stream) = stream.try_clone() else {
        return;
    };
    let writer = thread::Builder::new()
        .name(format!("br-net-writer-{conn_id}"))
        .spawn(move || {
            let mut w = write_stream;
            for frame in rx {
                if write_frame(&mut w, &frame).is_err() {
                    break;
                }
            }
            let _ = w.shutdown(SockShutdown::Write);
        })
        .expect("failed to spawn writer thread");
    lock_recover(&shared.conns).insert(
        conn_id,
        ConnHandle {
            tx: tx.clone(),
            stream: registry_stream,
        },
    );

    let mut reader = BufReader::new(stream);
    let mut client: Option<Client> = None;
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some(frame)) => match frame {
                Frame::Hello { client_id: id } => {
                    if client.is_some() {
                        shared.instruments.protocol_errors.inc();
                        let _ = tx.send(Frame::Error {
                            message: "duplicate Hello".to_string(),
                        });
                        break;
                    }
                    client = Some(Client::new(&shared, &tx, id));
                    let _ = tx.send(Frame::HelloAck {
                        version: VERSION,
                        held: shared.service.is_held(),
                        shed_threshold: shared.shed_threshold.min(u32::MAX as usize) as u32,
                        quota: shared.admission.quota.min(u32::MAX as u64) as u32,
                    });
                }
                Frame::Submit {
                    request_id,
                    lane,
                    deadline_ms,
                    spec,
                } => handle_submit(
                    &shared,
                    &tx,
                    client.as_ref(),
                    request_id,
                    lane,
                    deadline_ms,
                    &spec,
                    RequestKind::Job,
                ),
                Frame::SubmitChain {
                    request_id,
                    lane,
                    deadline_ms,
                    spec,
                } => handle_submit(
                    &shared,
                    &tx,
                    client.as_ref(),
                    request_id,
                    lane,
                    deadline_ms,
                    &spec,
                    RequestKind::Chain,
                ),
                Frame::Release => {
                    shared.service.release();
                }
                Frame::Shutdown => shared.initiate_drain(),
                Frame::Goodbye => break,
                unexpected => {
                    shared.instruments.protocol_errors.inc();
                    let _ = tx.send(Frame::Error {
                        message: format!("unexpected {} frame from client", unexpected.name()),
                    });
                    break;
                }
            },
            Err(FrameError::Protocol(e)) => {
                shared.instruments.protocol_errors.inc();
                let _ = tx.send(Frame::Error {
                    message: e.to_string(),
                });
                break;
            }
            Err(_) => break, // transport error or mid-frame EOF
        }
    }
    lock_recover(&shared.conns).remove(&conn_id);
    // The writer flushes until every sender is gone, the reply's included.
    drop(client);
    drop(tx);
    let _ = writer.join();
}

/// A connection's client after its `Hello`: the quota key, and the reply
/// the service answers each of its admitted requests through.
struct Client {
    id: String,
    reply: Reply,
}

impl Client {
    fn new(shared: &Arc<Shared>, tx: &mpsc::Sender<Frame>, id: String) -> Self {
        let reply: Reply = {
            let (shared, tx, id) = (Arc::clone(shared), tx.clone(), id.clone());
            Arc::new(move |lane, done| {
                let _ = tx.send(answer(&shared.instruments, lane, done));
                shared.admission.release(&id);
            })
        };
        Client { id, reply }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_submit(
    shared: &Shared,
    tx: &mpsc::Sender<Frame>,
    client: Option<&Client>,
    request_id: u64,
    lane: Lane,
    deadline_ms: u32,
    spec: &str,
    kind: RequestKind,
) {
    let i = &shared.instruments;
    i.requests[lane.index()].inc();
    let reject = |counter: &Counter, code: RejectCode, message: String| {
        counter.inc();
        let _ = tx.send(Frame::Reject {
            request_id,
            code,
            message,
        });
    };
    let draining = || {
        reject(
            &i.reject_draining,
            RejectCode::Draining,
            "server is draining; no new work accepted".to_string(),
        )
    };
    let Some(client) = client else {
        reject(
            &i.reject_not_ready,
            RejectCode::NotReady,
            "Submit before Hello handshake".to_string(),
        );
        return;
    };
    if shared.draining.load(Ordering::SeqCst) {
        draining();
        return;
    }
    let spec = match parse_spec(spec, kind) {
        Ok(spec) => spec,
        Err(message) => {
            reject(&i.reject_bad_spec, RejectCode::BadSpec, message);
            return;
        }
    };
    if !shared.admission.try_acquire(&client.id) {
        reject(
            &i.reject_quota,
            RejectCode::QuotaExceeded,
            format!(
                "client {:?} already has {} jobs in flight",
                client.id, shared.admission.quota
            ),
        );
        return;
    }
    let shed = || {
        shared.admission.release(&client.id);
        i.shed[lane.index()].inc();
        // A refusal leaves the queue at its bound: depth == threshold.
        let threshold = shared.shed_threshold.min(u32::MAX as usize) as u32;
        let _ = tx.send(Frame::Shed {
            request_id,
            lane,
            depth: threshold,
            threshold,
        });
    };
    // Shed before loading, so a shed request costs no generation; the
    // push below still refuses at the bound if the queue filled since.
    if shared.service.queue_depth() >= shared.shed_threshold {
        shed();
        return;
    }
    let request = match spec.request(request_id, Some(&shared.operands)) {
        Ok(request) => request,
        Err(message) => {
            shared.admission.release(&client.id);
            reject(&i.reject_bad_spec, RejectCode::BadSpec, message);
            return;
        }
    };
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms as u64));
    match shared
        .service
        .submit_with(request, lane, deadline, client.reply.clone())
    {
        Ok(depth) => {
            i.admitted[lane.index()].inc();
            if depth == shared.shed_threshold {
                i.saturation[lane.index()].inc();
            }
        }
        Err(SubmitError::QueueFull(_)) => shed(),
        Err(SubmitError::Draining(_)) => {
            shared.admission.release(&client.id);
            draining();
        }
    }
}

/// The one message for every wire spec naming a file, so the answer says
/// nothing about the server's filesystem.
const NO_FILE_SOURCES: &str =
    "file sources (input=, pair=) are not accepted over the wire; use dataset= or rmat=";

/// Parses a one-line job spec for a frame of `kind`, refusing what the
/// wire does not carry: more than one job, `repeat`, a `chain=` key that
/// disagrees with the frame type, and any file (the server opens nothing
/// on a client's behalf). Loads nothing.
fn parse_spec(spec: &str, kind: RequestKind) -> Result<JobSpec, String> {
    let specs = parse_job_file(spec)?;
    let [one] = specs.as_slice() else {
        return Err("a Submit frame carries exactly one job line".to_string());
    };
    if one.repeat != 1 {
        return Err("repeat must be 1 over the wire (send one Submit per job)".to_string());
    }
    let names_a_file = |source: &MatrixSource| matches!(source, MatrixSource::File(_));
    if names_a_file(&one.source) || one.pair.as_ref().is_some_and(names_a_file) {
        return Err(NO_FILE_SOURCES.to_string());
    }
    match (kind, one.chain) {
        (RequestKind::Job, Some(_)) => {
            Err("chain= specs travel in SubmitChain frames, not Submit".to_string())
        }
        (RequestKind::Chain, None) => Err(
            "a SubmitChain spec needs a chain= key (use Submit for one multiplication)".to_string(),
        ),
        _ => Ok(one.clone()),
    }
}

/// The one frame that answers an admitted request, counted by how it
/// ended: the engine's typed outcome becomes a `Result` for a plain job
/// and a `ChainResult` for a chain, its error a `Reject(Failed)` naming
/// what went wrong, and an expired deadline a `Reject(DeadlineExpired)`.
fn answer(i: &NetInstruments, lane: Lane, done: Completion) -> Frame {
    match done {
        Completion::Done(outcome) if outcome.kind == RequestKind::Job => {
            i.results[lane.index()].inc();
            let step = &outcome.steps[0];
            Frame::Result {
                request_id: outcome.id,
                worker: outcome.worker as u32,
                cache_hit: step.cache_hit,
                total_ms: outcome.total_ms,
                gflops: step.gflops,
                nnz_c: outcome.result.nnz() as u64,
                label: outcome.label,
            }
        }
        Completion::Done(outcome) => {
            i.results[lane.index()].inc();
            Frame::ChainResult {
                request_id: outcome.id,
                worker: outcome.worker as u32,
                total_ms: outcome.total_ms,
                nnz_c: outcome.result.nnz() as u64,
                steps: outcome
                    .steps
                    .iter()
                    .map(|s| ChainStepSummary {
                        label: s.label.clone(),
                        cache_hit: s.cache_hit,
                        fresh_structure: s.fresh_structure,
                        total_ms: s.total_ms,
                        fill_in_permille: s.fill_in_permille,
                        output_nnz: s.output_nnz as u64,
                    })
                    .collect(),
                label: outcome.label,
            }
        }
        Completion::Failed(e) => {
            i.reject_failed.inc();
            Frame::Reject {
                request_id: e.id,
                code: RejectCode::Failed,
                message: e.message,
            }
        }
        // Wall-clock dependent: counted by the timing-flagged
        // deadline_expired counter only, so strict metric dumps stay a
        // pure function of the offered load.
        Completion::Expired(request_id) => {
            i.deadline_expired.inc();
            Frame::Reject {
                request_id,
                code: RejectCode::DeadlineExpired,
                message: "deadline passed while queued".to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_forgets_clients_with_nothing_in_flight() {
        let admission = Admission::new(1);
        for id in 0..1000 {
            let client = format!("client-{id}");
            assert!(admission.try_acquire(&client));
            assert!(!admission.try_acquire(&client), "quota of one");
            admission.release(&client);
        }
        assert!(lock_recover(&admission.inflight).is_empty());
    }
}
