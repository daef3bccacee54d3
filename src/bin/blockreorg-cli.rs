//! `blockreorg-cli` — run any spGEMM method on a Matrix Market file, a
//! registry surrogate, or a generated matrix, on any modelled device; run a
//! batch of jobs through the `br-service` worker pool; serve that pool over
//! TCP or submit to it; run a chained workload; or run the benchmark
//! suites. `blockreorg-cli --help` prints every mode's flags.
//!
//! The operand flags (`--input`, `--dataset`, `--rmat`, `--scale`,
//! `--seed`, `--pair-with`, and chain mode's `--workload`) are the keys of
//! a job-file line, read by the same [`JobKeys`] parser and held to the
//! same bounds.
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, failed jobs, failed
//! verification), 2 usage error, 3 bind/listen failure in serve mode.

use std::io::{self, Write};
use std::process::exit;
use std::str::FromStr;

use blockreorg::prelude::*;
use blockreorg::service::job::{expand_submissions, parse_job_file, JobKeys, MatrixSource};
use blockreorg::spgemm::pipeline::run_method;
use blockreorg::spgemm::ProblemContext;

const METHOD_CHOICES: &str = "row, outer, cusparse, cusp, bhsparse, mkl, reorganizer, all";
const DEVICE_CHOICES: &str = "titanxp, v100, 2080ti";

/// Writes to a standard stream. A reader that went away (`| head`,
/// `| true`) is no failure of the command, so a closed pipe is ignored and
/// the exit code stays what the work decides; any other write error is a
/// runtime failure.
fn emit(mut stream: impl Write, args: std::fmt::Arguments) {
    if let Err(e) = stream.write_fmt(args) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            let _ = writeln!(io::stderr(), "error: cannot write output: {e}");
            exit(1)
        }
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(io::stdout(), format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// `eprintln!` through [`emit`].
macro_rules! errln {
    ($($arg:tt)*) => { emit(io::stderr(), format_args!("{}\n", format_args!($($arg)*))) };
}

fn print_usage() {
    out!(
        "\
usage: blockreorg-cli (--input <mtx> | --dataset <name> | --rmat <scale,ef>)
                      [--method {METHOD_CHOICES}]
                      [--device {DEVICE_CHOICES}] [--scale <divisor>]
                      [--pair-with <mtx>] [--verify] [--report] [--tune] [--list]
       blockreorg-cli batch --jobs <file> [--device <d1,d2,..>] [--workers <n>]
                      [--cache <entries>] [--queue-cap <n>] [--threads <n>]
                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
                      [--reorder none|degree|rcm|cluster|auto]
                      [--metrics <path>] [--metrics-timing]
       blockreorg-cli serve --listen <addr> [--workers <n>] [--device <name>]
                      [--cache <entries>] [--shed-threshold <n>] [--quota <n>]
                      [--hold] [--port-file <path>] [--threads <n>]
                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
                      [--reorder none|degree|rcm|cluster|auto]
                      [--metrics <path>] [--metrics-timing]
       blockreorg-cli client --connect <addr> [--client-id <id>] --spec '<jobline>'
                      [--count <n>] [--lane interactive|batch|alternate]
                      [--deadline-ms <n>] [--chain] [--release] [--shutdown]
                      [--quiet]
       blockreorg-cli chain (--workload <spec> | --spec-file <path>)
                      (--dataset <name> [--scale <div>] | --rmat <scale,ef>
                       [--seed <n>] | --input <file.mtx>)
                      [--device <name>] [--cache <entries>] [--threads <n>]
                      [--reorder none|degree|rcm|cluster|auto]
                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
                      [--metrics <path>] [--metrics-timing]
       blockreorg-cli bench run [--suite quick|full|scaling|estplan|kway|reorder|chain]
                      [--out <path>]
                      [--threads <n>] [--no-host]
                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
                      [--metrics <path>] [--metrics-timing]

--metrics <path> dumps the process-wide observability registry on exit:
Prometheus text to <path>, JSONL to <path>.jsonl. The default dump contains
only deterministic families (counters/histograms keyed by content), so the
files byte-compare across repeated runs and any --threads / BR_THREADS
setting. --metrics-timing adds wall-clock families (queue waits, span
durations, LBI/L2 gauges) — informational, not byte-stable.

bench mode runs a fixed (dataset x method x device) grid on the simulator
and writes a deterministic BENCH_<suite>.json report.

--threads <n> (or the BR_THREADS env var) sets the host worker count for
the suite grid, the per-block simulator passes, and the numeric merge;
1 = exact sequential path. Every simulated metric is bit-identical at any
thread count; only wall clock changes. --no-host omits the wall-clock
'host' section from the report so files byte-compare across runs.

--est-samples <n> / --est-tolerance <f> configure the sampling estimator
that replaces exact cold-plan precalculation (defaults 64 / 1.0); in batch
and serve mode any --est-* flag opts the worker pool into estimation,
while bench run's estplan suite estimates by default. --no-estimate forces
exact precalculation everywhere. Results are bit-identical either way —
estimation changes only plan-time cost and performance-knob choices.

--reorder <strategy> (batch / serve) permutes A's rows before planning:
'degree' sorts by descending row nnz, 'rcm' reduces bandwidth via reverse
Cuthill-McKee, 'cluster' groups rows with similar column structure, 'auto'
picks per problem, 'none' (default) keeps the input order. The permutation
is stored in the cached plan and reaches only the simulated launch stream:
the numeric multiply runs on the operands as given, so results are never
permuted and stay bit-identical at any setting — only the simulated launch
schedule (LBI, L2 hit rate) changes. bench run's reorder suite sweeps every
strategy.

batch mode runs every job in <file> through the br-service worker pool
(one simulated device per worker) with an LRU reorganization-plan cache,
then prints per-phase latency, cache hit rate, and per-device utilization.
Job-file lines: 'dataset=<name> [scale=<div>] [repeat=<n>]',
'rmat=<scale,ef> [seed=<n>] [repeat=<n>]', or 'input=<mtx> [pair=<mtx>]';
adding 'chain=<workload>' (e.g. 'chain=galerkin rmat=9,6') runs that chain
mode workload over the line's source instead of one multiplication.
'#' starts a comment. --queue-cap bounds the submission queue; jobs beyond
the bound are reported as failures instead of queued.

chain mode runs a multiplication workload — a DAG of SpGEMM steps with
optional element-wise post-ops — through the plan-cached service executor
and prints a per-step table (cache hit/miss, fresh vs reused structure,
method, time, output size). --workload takes a canonical spec:
'square:<k>' (iterated squaring), 'triangle' (masked A^2 count),
'markov:<iters>,<tol>' (MCL expansion/inflation), or 'galerkin'
(P'AP restriction, run twice to demonstrate plan-cache reuse).
--spec-file loads the generic chain format (see DESIGN.md section 16);
generic files must declare exactly one input, bound to the loaded matrix.
Chain results are bit-identical at any --threads / --reorder setting.

serve mode hosts the br-net TCP front end (length-prefixed binary frames,
interactive/batch priority lanes, per-client quotas, load shedding at
--shed-threshold, per-request deadlines, graceful drain on a Shutdown
frame). --hold keeps the worker gate closed until a client sends Release,
making shed/quota accounting a pure function of arrival order. --port-file
writes the bound address (useful with ':0' ephemeral listens). client mode
submits --count copies of the --spec job line and prints the response tally;
--chain sends SubmitChain frames instead (the spec needs a chain=<workload>
key, e.g. 'chain=galerkin rmat=8,6'), answered with per-step ChainResults.

exit codes: 0 success, 1 runtime failure, 2 usage error, 3 bind/listen
failure in serve mode
"
    );
}

fn help() -> ! {
    print_usage();
    exit(0)
}

fn usage_and_exit(msg: &str) -> ! {
    errln!("error: {msg}\n");
    print_usage();
    exit(2)
}

fn runtime_error(msg: &str) -> ! {
    errln!("error: {msg}");
    exit(1)
}

/// The one flag reader: every mode walks its command line through it.
struct Args {
    argv: std::iter::Peekable<std::iter::Skip<std::env::Args>>,
    /// The mode named in the unknown-flag message; empty when multiplying.
    mode: &'static str,
}

impl Args {
    fn flag(&mut self) -> Option<String> {
        self.argv.next()
    }

    /// The value after `flag`; a missing one is a usage error.
    fn value(&mut self, flag: &str) -> String {
        self.argv
            .next()
            .unwrap_or_else(|| usage_and_exit(&format!("missing value for {flag}")))
    }

    /// The value after `flag` as a `T` that `ok` accepts; anything else is
    /// the usage error "`flag` must be `what`".
    fn parsed<T: FromStr>(&mut self, flag: &str, what: &str, ok: impl Fn(&T) -> bool) -> T {
        self.value(flag)
            .parse()
            .ok()
            .filter(|v| ok(v))
            .unwrap_or_else(|| usage_and_exit(&format!("{flag} must be {what}")))
    }

    /// A count of at least 1.
    fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> T {
        self.parsed(flag, "a positive integer", |n| *n >= T::from(1))
    }

    /// An operand flag: its value is the job-spec `key`'s, read by the
    /// job-spec parser.
    fn operand(&mut self, keys: &mut JobKeys, flag: &str, key: &str) {
        let value = self.value(flag);
        if let Err(e) = keys.set(key, &value) {
            usage_and_exit(&format!("{flag} {e}"))
        }
    }

    fn unknown(&self, flag: &str) -> ! {
        match self.mode {
            "" => usage_and_exit(&format!("unknown flag {flag:?}")),
            mode => usage_and_exit(&format!("unknown flag {flag:?} in {mode} mode")),
        }
    }
}

/// `--metrics <path>` and `--metrics-timing`.
#[derive(Default)]
struct Metrics {
    path: Option<String>,
    timing: bool,
}

impl Metrics {
    /// Runs a mode's work under the metrics flags: `--metrics-timing`
    /// installs the wall clock first, and `--metrics` then dumps the
    /// process-wide registry — Prometheus text to `path`, one JSON object
    /// per line to `path.jsonl`. Without `--metrics-timing` only the
    /// deterministic families are written, so the files byte-compare across
    /// repeated runs and any `BR_THREADS` setting.
    fn around<T>(&self, work: impl FnOnce() -> T) -> T {
        let reg = blockreorg::obs::global();
        if self.timing {
            blockreorg::obs::install_wall_clock(reg);
        }
        let done = work();
        if let Some(path) = &self.path {
            // Pre-register every merge, reorder, and chain instrument cell so
            // the exported cell set is byte-identical whether or not the run
            // exercised each bin, reorder strategy, or chain step.
            blockreorg::spgemm::accum::register_merge_instruments();
            blockreorg::block_reorganizer::reorder::register_reorder_instruments();
            blockreorg::service::chain::register_chain_instruments(reg);
            if let Err(e) = std::fs::write(path, reg.render_prometheus(self.timing)) {
                runtime_error(&format!("cannot write {path}: {e}"));
            }
            let jsonl = format!("{path}.jsonl");
            if let Err(e) = std::fs::write(&jsonl, reg.render_jsonl(self.timing)) {
                runtime_error(&format!("cannot write {jsonl}: {e}"));
            }
            outln!("wrote metrics: {path} (Prometheus), {jsonl} (JSONL)");
        }
        done
    }
}

/// The flags batch, serve, chain and bench run share, read once into the
/// plan settings and service configuration they fill. Each mode names the
/// ones it takes.
struct ServiceFlags {
    device: String,
    workers: Option<usize>,
    cache: usize,
    settings: PlanSettings,
    no_estimate: bool,
    metrics: Metrics,
}

impl ServiceFlags {
    /// One Titan Xp and 32 cached plans, planning under `settings`.
    fn new(settings: PlanSettings) -> Self {
        ServiceFlags {
            device: "titanxp".to_string(),
            workers: None,
            cache: 32,
            settings,
            no_estimate: false,
            metrics: Metrics::default(),
        }
    }

    /// Reads `flag` and its value. The group is the last a mode tries, so
    /// a flag outside it is unknown to the mode.
    fn read(&mut self, flag: &str, args: &mut Args) {
        match flag {
            "--device" => self.device = args.value(flag),
            "--workers" => self.workers = Some(args.positive(flag)),
            "--cache" => self.cache = args.parsed(flag, "a positive integer", |_| true),
            // Overrides BR_THREADS by setting it: flags are read before any
            // thread starts. 1 is the exact sequential path.
            "--threads" => std::env::set_var(
                blockreorg::sparse::par::THREADS_ENV_VAR,
                args.positive::<usize>(flag).to_string(),
            ),
            "--reorder" => {
                self.settings.reorder = ReorderStrategy::parse(&args.value(flag))
                    .unwrap_or_else(|e| usage_and_exit(&format!("bad --reorder value: {e}")))
            }
            // Any --est-* flag plans from samples, over the estimator's
            // defaults; --no-estimate wins over both.
            "--est-samples" => {
                self.settings.estimator.get_or_insert_default().samples = args.positive(flag)
            }
            "--est-tolerance" => {
                self.settings.estimator.get_or_insert_default().tolerance =
                    args.parsed(flag, "a finite number >= 0", |t: &f64| {
                        t.is_finite() && *t >= 0.0
                    })
            }
            "--no-estimate" => self.no_estimate = true,
            "--metrics" => self.metrics.path = Some(args.value(flag)),
            "--metrics-timing" => self.metrics.timing = true,
            _ => args.unknown(flag),
        }
    }

    fn settings(&self) -> PlanSettings {
        PlanSettings {
            estimator: self.settings.estimator.filter(|_| !self.no_estimate),
            ..self.settings
        }
    }

    /// A service on `devices` whose instruments land in the process-wide
    /// registry with the spgemm / gpu-sim ones, so one `--metrics` dump
    /// covers the whole pipeline.
    fn service(&self, devices: Vec<DeviceConfig>, queue_capacity: Option<usize>) -> ServiceConfig {
        ServiceConfig {
            devices,
            cache_capacity: self.cache,
            queue_capacity,
            registry: Some(blockreorg::obs::global_arc()),
            settings: self.settings(),
        }
    }
}

/// A job spec's matrix; a file that cannot be read is a runtime failure.
fn load(source: &MatrixSource) -> CsrMatrix<f64> {
    source.load().unwrap_or_else(|e| runtime_error(&e))
}

fn device_of(name: &str) -> DeviceConfig {
    match name.to_ascii_lowercase().as_str() {
        "titanxp" | "titan-xp" | "pascal" => DeviceConfig::titan_xp(),
        "v100" | "volta" => DeviceConfig::tesla_v100(),
        "2080ti" | "turing" => DeviceConfig::rtx_2080_ti(),
        other => usage_and_exit(&format!(
            "unknown device {other:?}; valid devices: {DEVICE_CHOICES}"
        )),
    }
}

fn method_of(name: &str) -> Option<SpgemmMethod> {
    match name.to_ascii_lowercase().as_str() {
        "row" | "row-product" => Some(SpgemmMethod::RowProduct),
        "outer" | "outer-product" => Some(SpgemmMethod::OuterProduct),
        "cusparse" => Some(SpgemmMethod::CusparseLike),
        "cusp" => Some(SpgemmMethod::CuspEsc),
        "bhsparse" => Some(SpgemmMethod::BhsparseLike),
        "mkl" => Some(SpgemmMethod::MklLike),
        _ => None,
    }
}

fn report(name: &str, total_ms: f64, gflops: f64, nnz_c: usize) {
    outln!(
        "{:<20} {:>10.3} ms  {:>8.2} GFLOPS  nnz(C) = {}",
        name,
        total_ms,
        gflops,
        nnz_c
    );
}

fn run_batch(mut args: Args) -> ! {
    let mut group = ServiceFlags::new(PlanSettings::default());
    let (mut jobs, mut queue_cap) = (None, None);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "-h" | "--help" => help(),
            "--jobs" => jobs = Some(args.value(&flag)),
            "--queue-cap" => queue_cap = Some(args.positive(&flag)),
            f => group.read(f, &mut args),
        }
    }
    let path = jobs.unwrap_or_else(|| usage_and_exit("batch mode requires --jobs <file>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| runtime_error(&format!("cannot read job file {path}: {e}")));
    let specs = parse_job_file(&text).unwrap_or_else(|e| runtime_error(&e));
    let requests = expand_submissions(&specs).unwrap_or_else(|e| runtime_error(&e));

    let mut devices: Vec<DeviceConfig> = group.device.split(',').map(device_of).collect();
    if let Some(workers) = group.workers {
        if devices.len() == 1 {
            devices = vec![devices[0].clone(); workers];
        } else if devices.len() != workers {
            usage_and_exit("--workers must match the --device list length (or give one device)");
        }
    }
    outln!(
        "batch: {} jobs from {path}, {} workers, plan cache {} entries",
        requests.len(),
        devices.len(),
        group.cache
    );
    for (i, d) in devices.iter().enumerate() {
        outln!("  worker {i}: {}", d.name);
    }
    outln!();

    let config = group.service(devices, queue_cap);
    let batch = group.metrics.around(|| {
        let batch = SpgemmService::run_batch(config, requests);
        for outcome in &batch.outcomes {
            let (label, worker, nnz) = (&outcome.label, outcome.worker, outcome.result.nnz());
            match outcome.kind {
                RequestKind::Job => {
                    let step = &outcome.steps[0];
                    outln!(
                        "{label:<24} worker {worker}  {}  {:>10.4} ms  {:>8.2} GFLOPS  nnz(C) = {nnz}",
                        if step.cache_hit { "hit " } else { "miss" },
                        outcome.total_ms,
                        step.gflops,
                    )
                }
                RequestKind::Chain => outln!(
                    "{label:<24} worker {worker}  {}/{} plan hits  {:>10.4} ms  nnz(C) = {nnz}",
                    outcome.cache_hits(),
                    outcome.steps.len(),
                    outcome.total_ms,
                ),
            }
        }
        outln!();
        out!("{}", batch.stats);
        batch
    });
    if batch.failures.is_empty() {
        exit(0)
    }
    for failure in &batch.failures {
        errln!(
            "job {} ({}) failed: {}",
            failure.id,
            failure.label,
            failure.message
        );
    }
    exit(1)
}

/// `serve` — hosts the br-net TCP front end over a worker pool, runs
/// until a client's `Shutdown` frame completes the graceful drain, then
/// prints the serve report and exits 0. Bind/listen failures exit 3 so
/// scripts can tell "port taken" from "jobs failed".
fn run_serve(mut args: Args) -> ! {
    use blockreorg::net::server::{NetServer, ServerConfig};

    let mut group = ServiceFlags::new(PlanSettings::default());
    let (mut listen, mut port_file, mut hold) = (None, None, false);
    let (mut shed_threshold, mut quota) = (64, 256);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "-h" | "--help" => help(),
            "--listen" => listen = Some(args.value(&flag)),
            "--port-file" => port_file = Some(args.value(&flag)),
            "--hold" => hold = true,
            "--shed-threshold" => shed_threshold = args.positive(&flag),
            "--quota" => quota = args.positive(&flag),
            f => group.read(f, &mut args),
        }
    }
    let listen = listen.unwrap_or_else(|| usage_and_exit("serve mode requires --listen <addr>"));
    let workers = group.workers.unwrap_or(1);
    let devices = vec![device_of(&group.device); workers];
    let config = ServerConfig {
        service: group.service(devices, Some(shed_threshold)),
        quota,
        hold,
    };
    group.metrics.around(|| {
        let server = match NetServer::bind(&listen, config) {
            Ok(server) => server,
            Err(e) => {
                errln!("error: cannot bind/listen on {listen}: {e}");
                exit(3)
            }
        };
        let addr = server.local_addr();
        if let Some(path) = &port_file {
            if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
                runtime_error(&format!("cannot write port file {path}: {e}"));
            }
        }
        outln!(
            "serving on {addr}: {workers} workers, shed threshold {shed_threshold}, quota {quota}{}",
            if hold { ", worker gate held" } else { "" }
        );
        let report = server.run();
        out!("{report}");
    });
    exit(0)
}

/// `client` — submits `--count` copies of a job line over the wire,
/// collects exactly one response per request, and prints the tally.
fn run_client(mut args: Args) -> ! {
    use blockreorg::net::client::NetClient;
    use blockreorg::net::frame::Lane;

    let (mut connect, mut spec) = (None, None);
    let mut client_id = "cli".to_string();
    // Request `id`'s lane: one lane for every request, or alternating from
    // interactive.
    let mut lane_of: fn(u64) -> Lane = |_| Lane::Interactive;
    let (mut count, mut deadline_ms) = (1u64, 0u32);
    let (mut chain, mut release, mut shutdown, mut quiet) = (false, false, false, false);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "-h" | "--help" => help(),
            "--connect" => connect = Some(args.value(&flag)),
            "--client-id" => client_id = args.value(&flag),
            "--spec" => spec = Some(args.value(&flag)),
            "--lane" => {
                lane_of = match args.value(&flag).as_str() {
                    "interactive" => |_| Lane::Interactive,
                    "batch" => |_| Lane::Batch,
                    "alternate" => |id| Lane::ALL[(id % 2) as usize],
                    other => usage_and_exit(&format!(
                        "unknown lane {other:?}; valid lanes: interactive, batch, alternate"
                    )),
                }
            }
            "--chain" => chain = true,
            "--release" => release = true,
            "--shutdown" => shutdown = true,
            "--quiet" => quiet = true,
            "--count" => count = args.positive(&flag),
            "--deadline-ms" => deadline_ms = args.parsed(&flag, "an integer", |_| true),
            _ => args.unknown(&flag),
        }
    }
    let addr = connect.unwrap_or_else(|| usage_and_exit("client mode requires --connect <addr>"));
    let spec = spec.unwrap_or_else(|| usage_and_exit("client mode requires --spec '<jobline>'"));
    let mut client = NetClient::connect(&addr, &client_id)
        .unwrap_or_else(|e| runtime_error(&format!("cannot connect to {addr}: {e}")));
    let info = client.server_info();
    if !quiet {
        outln!(
            "connected to {addr}: protocol v{}, shed threshold {}, quota {}{}",
            info.version,
            info.shed_threshold,
            info.quota,
            if info.held { ", worker gate held" } else { "" }
        );
    }
    let fail = |e: blockreorg::net::client::ClientError| -> ! {
        runtime_error(&format!("client error: {e}"))
    };
    for id in 0..count {
        if chain {
            client
                .submit_chain(id, lane_of(id), deadline_ms, &spec)
                .unwrap_or_else(|e| fail(e));
        } else {
            client
                .submit(id, lane_of(id), deadline_ms, &spec)
                .unwrap_or_else(|e| fail(e));
        }
    }
    if release {
        client.release().unwrap_or_else(|e| fail(e));
    }
    let mut summary = client
        .collect_responses(count as usize)
        .unwrap_or_else(|e| fail(e));
    if shutdown {
        client.shutdown().unwrap_or_else(|e| fail(e));
        client
            .drain_to_eof(&mut summary)
            .unwrap_or_else(|e| fail(e));
    } else {
        client.goodbye().ok();
    }
    let counts = summary.counts();
    let tally: Vec<String> = counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    outln!(
        "client {client_id}: {count} submitted, {} responses ({}){}",
        summary.total(),
        tally.join(", "),
        if summary.drain_notice {
            ", drain notice received"
        } else {
            ""
        }
    );
    if !quiet {
        for (id, cache_hit) in &summary.results {
            outln!(
                "  request {id}: result ({})",
                if *cache_hit { "hit" } else { "miss" }
            );
        }
        for (id, steps, cached) in &summary.chain_results {
            outln!("  request {id}: chain result ({steps} steps, {cached} plan-cache hits)");
        }
        for id in &summary.shed {
            outln!("  request {id}: shed");
        }
        for (id, reason) in &summary.rejected {
            outln!("  request {id}: rejected ({reason})");
        }
    }
    exit(0)
}

/// `chain` — runs one multiplication workload (a DAG of SpGEMM steps with
/// element-wise post-ops) through the plan-cached chain executor and
/// prints the per-step table: which steps hit the plan cache, which saw a
/// fresh operand structure, and what each step cost.
fn run_chain(mut args: Args) -> ! {
    use blockreorg::bench::report::Table;
    use blockreorg::workloads::parse_chain_spec;
    use std::sync::Arc;

    let mut group = ServiceFlags::new(PlanSettings::default());
    let mut keys = JobKeys::default();
    let mut spec_file = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "-h" | "--help" => help(),
            "--input" | "--dataset" | "--rmat" | "--scale" | "--seed" => {
                args.operand(&mut keys, &flag, &flag[2..])
            }
            "--workload" => args.operand(&mut keys, &flag, "chain"),
            "--spec-file" => spec_file = Some(args.value(&flag)),
            "--workers" => args.unknown(&flag),
            f => group.read(f, &mut args),
        }
    }
    let spec = keys.finish().unwrap_or_else(|e| usage_and_exit(&e));
    let a = load(&spec.source);
    outln!("A: {}x{}, nnz {}", a.nrows(), a.ncols(), a.nnz());

    let request = match (spec.chain, &spec_file) {
        (Some(_), Some(_)) => usage_and_exit("--workload and --spec-file are mutually exclusive"),
        (None, None) => usage_and_exit("chain mode needs --workload <spec> or --spec-file <path>"),
        (Some(workload), None) => ChainRequest::workload(0, workload, &a),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| runtime_error(&format!("cannot read {path}: {e}")));
            let program =
                parse_chain_spec(&text).unwrap_or_else(|e| runtime_error(&format!("{path}: {e}")));
            if program.inputs.len() != 1 {
                runtime_error(&format!(
                    "{path}: generic spec files must declare exactly one input (found {}); \
                     multi-input workloads go through --workload",
                    program.inputs.len()
                ));
            }
            ChainRequest::program(0, program, vec![Arc::new(a)])
        }
    };

    let device = device_of(&group.device);
    group.metrics.around(|| {
        let engine = Engine::new(group.settings(), group.cache, blockreorg::obs::global_arc());
        outln!(
            "chain {}: {} steps on {}, plan cache {} entries\n",
            request.label,
            request.program.steps.len(),
            device.name,
            group.cache
        );
        let outcome = engine
            .run_chain(&Worker::new(0, device), &request, 0.0)
            .unwrap_or_else(|e| runtime_error(&e.message));

        let mut table = Table::new(vec![
            "step",
            "plan",
            "structure",
            "method",
            "time (ms)",
            "product nnz",
            "output nnz",
            "fill-in",
        ]);
        for s in &outcome.steps {
            table.row(vec![
                format!("{}:{}", s.index, s.label),
                if s.cache_hit { "hit" } else { "miss" }.to_string(),
                if s.fresh_structure { "fresh" } else { "reused" }.to_string(),
                s.method.to_string(),
                format!("{:.4}", s.total_ms),
                s.product_nnz.to_string(),
                s.output_nnz.to_string(),
                format!("{:.3}x", s.fill_in_permille as f64 / 1000.0),
            ]);
        }
        out!("{}", table.render());
        outln!();
        outln!(
            "chain {}: {} steps, {} plan-cache hits / {} misses, {} fresh structures, \
             {:.4} ms simulated, result nnz {}",
            outcome.label,
            outcome.steps.len(),
            outcome.cache_hits(),
            outcome.cache_misses(),
            outcome.structure_churn(),
            outcome.total_ms,
            outcome.result.nnz()
        );
    });
    exit(0)
}

/// `bench run` — the front end over `br_bench::suite` (see EXPERIMENTS.md
/// "Benchmarking & regression tracking").
fn run_bench(mut args: Args) -> ! {
    match args.flag().as_deref() {
        Some("run") => {
            args.mode = "bench run";
            run_bench_suite(args)
        }
        Some(other) => usage_and_exit(&format!("unknown bench subcommand {other:?}; expected run")),
        None => usage_and_exit("bench needs a subcommand: run"),
    }
}

fn run_bench_suite(mut args: Args) -> ! {
    use blockreorg::bench::suite::{default_settings, run_suite, Suite};

    let mut group = ServiceFlags::new(default_settings());
    let (mut suite, mut out, mut no_host) = (Suite::Quick, None, false);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--suite" => {
                let v = args.value(&flag);
                suite = Suite::parse(&v).unwrap_or_else(|| {
                    usage_and_exit(&format!(
                        "unknown suite {v:?}; valid suites: quick, full, scaling, estplan, kway, reorder, chain"
                    ))
                });
            }
            "--out" => out = Some(args.value(&flag)),
            "--no-host" => no_host = true,
            "--device" | "--workers" | "--cache" | "--reorder" => args.unknown(&flag),
            f => group.read(f, &mut args),
        }
    }
    let settings = group.settings();
    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", suite.name()));
    let report = group.metrics.around(|| {
        let mut report = run_suite(suite, &settings, |line| outln!("{line}"));
        // The wall-clock line is always printed; --no-host only keeps
        // it out of the file so reports byte-compare across runs.
        if let Some(host) = &report.host {
            outln!(
                "host: {} threads, {:.0} ms wall ({:.2} cases/s, {:.2} jobs/s)",
                host.threads,
                host.wall_ms,
                host.cases_per_sec,
                host.jobs_per_sec
            );
        }
        if no_host {
            report.host = None;
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            runtime_error(&format!("cannot write {path}: {e}"));
        }
        report
    });
    let chain_cases = report.chain.as_ref().map_or(0, |c| c.cases.len());
    outln!(
        "\nwrote {path}: {} cases ({chain_cases} chain), model v{}, git {}",
        report.cases.len(),
        report.model_version,
        report.git_sha
    );
    exit(0)
}

/// The default mode: one multiplication `A · B` (`B = A` unless
/// `--pair-with` names B) by one method or by all of them.
fn run_multiply(mut args: Args) -> ! {
    let mut keys = JobKeys::default();
    let mut method = "reorganizer".to_string();
    let mut device = "titanxp".to_string();
    let (mut verify, mut show_report, mut tune) = (false, false, false);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "-h" | "--help" => help(),
            "--input" | "--dataset" | "--rmat" | "--scale" => {
                args.operand(&mut keys, &flag, &flag[2..])
            }
            "--pair-with" => args.operand(&mut keys, &flag, "pair"),
            "--method" => method = args.value(&flag),
            "--device" => device = args.value(&flag),
            "--verify" => verify = true,
            "--report" => show_report = true,
            "--tune" => tune = true,
            "--square" => {} // the default
            "--list" => {
                outln!("registry datasets (Table II):");
                for spec in RealWorldRegistry::all() {
                    outln!(
                        "  {:<18} {:?}  dim {:>9}  nnz(A) {:>11}",
                        spec.name,
                        spec.class,
                        spec.paper_dim,
                        spec.paper_nnz_a
                    );
                }
                exit(0)
            }
            _ => args.unknown(&flag),
        }
    }
    let spec = keys.finish().unwrap_or_else(|e| usage_and_exit(&e));
    let a = load(&spec.source);
    let b = spec.pair.as_ref().map_or_else(|| a.clone(), load);
    let device = device_of(&device);
    outln!(
        "A: {}x{}, nnz {} | B: {}x{}, nnz {} | device: {}\n",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        b.nrows(),
        b.ncols(),
        b.nnz(),
        device.name
    );
    let ctx = ProblemContext::new(&a, &b)
        .unwrap_or_else(|e| usage_and_exit(&format!("incompatible shapes: {e}")));

    if show_report {
        let report =
            block_reorganizer::WorkloadReport::of(&ctx, &ReorganizerConfig::default(), &device);
        outln!("{report}\n");
    }

    let oracle = if verify {
        Some(spgemm_gustavson(&a, &b).expect("shapes validated above"))
    } else {
        None
    };
    let check = |result: &CsrMatrix<f64>| {
        if let Some(oracle) = &oracle {
            if !result.approx_eq(oracle, 1e-9) {
                runtime_error("verification FAILED: result differs from CPU reference");
            }
            outln!("  verified against CPU reference ✓");
        }
    };

    let run_one = |m: SpgemmMethod| {
        let run = run_method(&ctx, m, &device).expect("shapes validated above");
        report(m.name(), run.total_ms, run.gflops(), run.result.nnz());
        check(&run.result);
    };
    let run_reorg = || {
        let config = if tune {
            let t = block_reorganizer::tune(&ctx, &device).expect("shapes validated above");
            outln!(
                "tuned in {} runs: {:.3} ms -> {:.3} ms (alpha={}, policy={:?}, units={})",
                t.evaluations,
                t.default_ms,
                t.best_ms,
                t.config.alpha,
                t.config.split_policy,
                t.config.limiting_units
            );
            t.config
        } else {
            ReorganizerConfig::default()
        };
        let run = BlockReorganizer::new(config)
            .multiply_ctx(&ctx, &device)
            .expect("shapes validated above");
        report(
            "Block-Reorganizer",
            run.total_ms,
            run.gflops(),
            run.result.nnz(),
        );
        outln!(
            "  dominators {} | low performers {} | gathered {} | limited rows {}",
            run.stats.dominators,
            run.stats.low_performers,
            run.stats.gathered_blocks,
            run.stats.limited_rows
        );
        check(&run.result);
    };

    match method.to_ascii_lowercase().as_str() {
        "all" => {
            for m in SpgemmMethod::all() {
                run_one(m);
            }
            run_reorg();
        }
        "reorganizer" | "block-reorganizer" => run_reorg(),
        name => match method_of(name) {
            Some(m) => run_one(m),
            None => usage_and_exit(&format!(
                "unknown method {name:?}; valid methods: {METHOD_CHOICES}"
            )),
        },
    }
    exit(0)
}

fn main() {
    let mut args = Args {
        argv: std::env::args().skip(1).peekable(),
        mode: "",
    };
    let (mode, run): (&'static str, fn(Args) -> !) = match args.argv.peek().map(String::as_str) {
        Some("batch") => ("batch", run_batch),
        Some("serve") => ("serve", run_serve),
        Some("client") => ("client", run_client),
        Some("chain") => ("chain", run_chain),
        Some("bench") => ("bench", run_bench),
        _ => ("", run_multiply),
    };
    if !mode.is_empty() {
        args.argv.next();
    }
    args.mode = mode;
    run(args)
}
