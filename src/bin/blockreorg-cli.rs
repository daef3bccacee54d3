//! `blockreorg-cli` — run any spGEMM method on a Matrix Market file, a
//! registry surrogate, or a generated matrix, on any modelled device; or
//! run a whole batch of jobs through the `br-service` worker pool.
//!
//! ```text
//! USAGE:
//!   blockreorg-cli --input <file.mtx> | --dataset <name> | --rmat <scale,ef>
//!                  [--method <name>] [--device <name>] [--scale <div>]
//!                  [--square | --pair-with <file.mtx>] [--verify] [--list]
//!   blockreorg-cli batch --jobs <file> [--device <d1,d2,..>] [--workers <n>]
//!                  [--cache <entries>] [--queue-cap <n>] [--threads <n>]
//!                  [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
//!                  [--metrics <path>] [--metrics-timing]
//!   blockreorg-cli serve --listen <addr> [--workers <n>] [--device <name>]
//!                  [--cache <entries>] [--shed-threshold <n>] [--quota <n>]
//!                  [--hold] [--port-file <path>] [--threads <n>]
//!                  [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
//!                  [--reorder none|degree|rcm|cluster|auto]
//!                  [--metrics <path>] [--metrics-timing]
//!   blockreorg-cli client --connect <addr> [--client-id <id>] --spec '<jobline>'
//!                  [--count <n>] [--lane interactive|batch|alternate]
//!                  [--deadline-ms <n>] [--release] [--shutdown] [--quiet]
//!   blockreorg-cli chain (--workload <spec> | --spec-file <path>)
//!                  (--dataset <name> [--scale <div>] | --rmat <scale,ef> [--seed <n>]
//!                   | --input <file.mtx>)
//!                  [--device <name>] [--cache <entries>] [--threads <n>]
//!                  [--reorder none|degree|rcm|cluster|auto]
//!                  [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
//!                  [--metrics <path>] [--metrics-timing]
//!   blockreorg-cli bench run [--suite quick|full|scaling|estplan|kway|reorder|chain] [--out <path>]
//!                  [--threads <n>] [--no-host] [--bins <tiny>,<heavy>[,<kway>]]
//!                  [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]
//!                  [--metrics <path>] [--metrics-timing]
//!   blockreorg-cli bench compare <baseline.json> <current.json>
//!                  [--cycles-pct <pct>] [--plan-pct <pct>]
//!
//! EXAMPLES:
//!   blockreorg-cli --dataset youtube --method reorganizer --verify --report
//!   blockreorg-cli --rmat 14,8 --method all --device v100
//!   blockreorg-cli batch --jobs jobs.txt --device titanxp --workers 4
//!   blockreorg-cli serve --listen 127.0.0.1:7474 --workers 2 --shed-threshold 64
//!   blockreorg-cli client --connect 127.0.0.1:7474 --spec 'rmat=8,6' --count 4 --shutdown
//!   blockreorg-cli chain --workload galerkin --rmat 9,6
//!   blockreorg-cli chain --workload markov:4,0.001 --dataset emailEnron
//!   blockreorg-cli --list
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, failed jobs, failed
//! verification), 2 usage error, 3 bind/listen failure in serve mode.

use blockreorg::block_reorganizer::reorder::ReorderStrategy;
use blockreorg::datasets::registry::ScaleFactor;
use blockreorg::prelude::*;
use blockreorg::service::job::{expand_jobs, parse_job_file};
use blockreorg::sparse::io::read_matrix_market_file;
use blockreorg::spgemm::estimate::EstimatorConfig;
use blockreorg::spgemm::pipeline::run_method;
use blockreorg::spgemm::ProblemContext;
use std::process::exit;

const METHOD_CHOICES: &str = "row, outer, cusparse, cusp, bhsparse, mkl, reorganizer, all";
const DEVICE_CHOICES: &str = "titanxp, v100, 2080ti";

struct Options {
    input: Option<String>,
    dataset: Option<String>,
    rmat: Option<(u32, usize)>,
    pair_with: Option<String>,
    method: String,
    device: String,
    scale: usize,
    verify: bool,
    report: bool,
    tune: bool,
}

struct BatchOptions {
    jobs: Option<String>,
    devices: String,
    workers: usize,
    cache: usize,
    queue_cap: Option<usize>,
    metrics: Option<String>,
    metrics_timing: bool,
    settings: PlanSettings,
}

struct ServeOptions {
    listen: Option<String>,
    workers: usize,
    device: String,
    cache: usize,
    shed_threshold: usize,
    quota: u64,
    hold: bool,
    port_file: Option<String>,
    metrics: Option<String>,
    metrics_timing: bool,
    settings: PlanSettings,
}

struct ClientOptions {
    connect: Option<String>,
    client_id: String,
    spec: Option<String>,
    count: u64,
    lane: String,
    deadline_ms: u32,
    chain: bool,
    release: bool,
    shutdown: bool,
    quiet: bool,
}

struct ChainOptions {
    workload: Option<String>,
    spec_file: Option<String>,
    dataset: Option<String>,
    rmat: Option<(u32, usize)>,
    input: Option<String>,
    scale: usize,
    seed: u64,
    device: String,
    cache: usize,
    metrics: Option<String>,
    metrics_timing: bool,
    settings: PlanSettings,
}

fn print_usage() {
    println!("usage: blockreorg-cli (--input <mtx> | --dataset <name> | --rmat <scale,ef>)");
    println!("                      [--method {METHOD_CHOICES}]");
    println!("                      [--device {DEVICE_CHOICES}] [--scale <divisor>]");
    println!("                      [--pair-with <mtx>] [--verify] [--report] [--tune] [--list]");
    println!("       blockreorg-cli batch --jobs <file> [--device <d1,d2,..>] [--workers <n>]");
    println!("                      [--cache <entries>] [--queue-cap <n>] [--threads <n>]");
    println!("                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]");
    println!("                      [--reorder none|degree|rcm|cluster|auto]");
    println!("                      [--metrics <path>] [--metrics-timing]");
    println!("       blockreorg-cli serve --listen <addr> [--workers <n>] [--device <name>]");
    println!("                      [--cache <entries>] [--shed-threshold <n>] [--quota <n>]");
    println!("                      [--hold] [--port-file <path>] [--threads <n>]");
    println!("                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]");
    println!("                      [--reorder none|degree|rcm|cluster|auto]");
    println!("                      [--metrics <path>] [--metrics-timing]");
    println!("       blockreorg-cli client --connect <addr> [--client-id <id>] --spec '<jobline>'");
    println!("                      [--count <n>] [--lane interactive|batch|alternate]");
    println!("                      [--deadline-ms <n>] [--chain] [--release] [--shutdown]");
    println!("                      [--quiet]");
    println!("       blockreorg-cli chain (--workload <spec> | --spec-file <path>)");
    println!("                      (--dataset <name> [--scale <div>] | --rmat <scale,ef>");
    println!("                       [--seed <n>] | --input <file.mtx>)");
    println!("                      [--device <name>] [--cache <entries>] [--threads <n>]");
    println!("                      [--reorder none|degree|rcm|cluster|auto]");
    println!("                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]");
    println!("                      [--metrics <path>] [--metrics-timing]");
    println!(
        "       blockreorg-cli bench run [--suite quick|full|scaling|estplan|kway|reorder|chain]"
    );
    println!("                      [--out <path>]");
    println!("                      [--threads <n>] [--no-host] [--bins <tiny>,<heavy>[,<kway>]]");
    println!("                      [--est-samples <n>] [--est-tolerance <f>] [--no-estimate]");
    println!("                      [--metrics <path>] [--metrics-timing]");
    println!("       blockreorg-cli bench compare <baseline.json> <current.json>");
    println!("                      [--cycles-pct <pct>] [--plan-pct <pct>]");
    println!();
    println!("--metrics <path> dumps the process-wide observability registry on exit:");
    println!("Prometheus text to <path>, JSONL to <path>.jsonl. The default dump contains");
    println!("only deterministic families (counters/histograms keyed by content), so the");
    println!("files byte-compare across repeated runs and any --threads / BR_THREADS");
    println!("setting. --metrics-timing adds wall-clock families (queue waits, span");
    println!("durations, LBI/L2 gauges) — informational, not byte-stable.");
    println!();
    println!("bench mode runs a fixed (dataset x method x device) grid on the simulator,");
    println!("writes a deterministic BENCH_<suite>.json report, and compares reports with");
    println!("per-metric tolerances (nonzero exit on regression) — the CI perf gate.");
    println!();
    println!("--threads <n> (or the BR_THREADS env var) sets the host worker count for");
    println!("the suite grid, the per-block simulator passes, and the numeric merge;");
    println!("1 = exact sequential path. Every simulated metric is bit-identical at any");
    println!("thread count; only wall clock changes. --no-host omits the wall-clock");
    println!("'host' section from the report so files byte-compare across runs.");
    println!("--bins <tiny_max>,<heavy_min>[,<kway_min>] overrides the adaptive numeric");
    println!("engine's row-bin thresholds (default 16,2048, kway off); the optional third");
    println!("field routes rows with at least that many intermediate products through the");
    println!("k-way tournament merge. Inverted/overlapping spellings are rejected (exit 2).");
    println!("Results are bit-identical at any setting — bins change only which merge");
    println!("kernel runs, never the numbers.");
    println!();
    println!("--est-samples <n> / --est-tolerance <f> configure the sampling estimator");
    println!("that replaces exact cold-plan precalculation (defaults 64 / 1.0); in batch");
    println!("and serve mode any --est-* flag opts the worker pool into estimation,");
    println!("while bench run's estplan suite estimates by default. --no-estimate forces");
    println!("exact precalculation everywhere. Results are bit-identical either way —");
    println!("estimation changes only plan-time cost and performance-knob choices.");
    println!("bench compare gates per-case plan ops with --plan-pct (default 10%).");
    println!();
    println!("--reorder <strategy> (batch / serve) permutes A's rows before planning:");
    println!("'degree' sorts by descending row nnz, 'rcm' reduces bandwidth via reverse");
    println!("Cuthill-McKee, 'cluster' groups rows with similar column structure, 'auto'");
    println!("picks per problem, 'none' (default) keeps the input order. The permutation");
    println!("is stored in the cached plan and undone on output, so results are");
    println!("bit-identical at any setting — only the simulated launch schedule (LBI,");
    println!("L2 hit rate) changes. bench run's reorder suite sweeps every strategy.");
    println!();
    println!("batch mode runs every job in <file> through the br-service worker pool");
    println!("(one simulated device per worker) with an LRU reorganization-plan cache,");
    println!("then prints per-phase latency, cache hit rate, and per-device utilization.");
    println!("Job-file lines: 'dataset=<name> [scale=<div>] [repeat=<n>]',");
    println!("'rmat=<scale,ef> [seed=<n>] [repeat=<n>]', or 'input=<mtx> [pair=<mtx>]';");
    println!("'#' starts a comment. --queue-cap bounds the submission queue; jobs beyond");
    println!("the bound are reported as failures instead of queued.");
    println!();
    println!("chain mode runs a multiplication workload — a DAG of SpGEMM steps with");
    println!("optional element-wise post-ops — through the plan-cached service executor");
    println!("and prints a per-step table (cache hit/miss, fresh vs reused structure,");
    println!("method, time, output size). --workload takes a canonical spec:");
    println!("'square:<k>' (iterated squaring), 'triangle' (masked A^2 count),");
    println!("'markov:<iters>,<tol>' (MCL expansion/inflation), or 'galerkin'");
    println!("(P'AP restriction, run twice to demonstrate plan-cache reuse).");
    println!("--spec-file loads the generic chain format (see DESIGN.md section 16);");
    println!("generic files must declare exactly one input, bound to the loaded matrix.");
    println!("Chain results are bit-identical at any --threads / --reorder setting.");
    println!();
    println!("serve mode hosts the br-net TCP front end (length-prefixed binary frames,");
    println!("interactive/batch priority lanes, per-client quotas, load shedding at");
    println!("--shed-threshold, per-request deadlines, graceful drain on a Shutdown");
    println!("frame). --hold keeps the worker gate closed until a client sends Release,");
    println!("making shed/quota accounting a pure function of arrival order. --port-file");
    println!("writes the bound address (useful with ':0' ephemeral listens). client mode");
    println!("submits --count copies of the --spec job line and prints the response tally;");
    println!("--chain sends SubmitChain frames instead (the spec needs a chain=<workload>");
    println!("key, e.g. 'chain=galerkin rmat=8,6'), answered with per-step ChainResults.");
    println!();
    println!("exit codes: 0 success, 1 runtime failure, 2 usage error, 3 bind/listen");
    println!("failure in serve mode");
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_usage();
    exit(2)
}

fn runtime_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

fn parse_options(args: &mut dyn Iterator<Item = String>) -> Options {
    let mut o = Options {
        input: None,
        dataset: None,
        rmat: None,
        pair_with: None,
        method: "reorganizer".to_string(),
        device: "titanxp".to_string(),
        scale: 16,
        verify: false,
        report: false,
        tune: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_usage();
                exit(0)
            }
            "--input" => o.input = Some(next_value(args, "--input")),
            "--dataset" => o.dataset = Some(next_value(args, "--dataset")),
            "--pair-with" => o.pair_with = Some(next_value(args, "--pair-with")),
            "--method" => o.method = next_value(args, "--method"),
            "--device" => o.device = next_value(args, "--device"),
            "--verify" => o.verify = true,
            "--report" => o.report = true,
            "--tune" => o.tune = true,
            "--square" => {} // the default
            "--scale" => {
                o.scale = next_value(args, "--scale")
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage_and_exit("--scale must be a positive integer"))
            }
            "--rmat" => {
                let v = next_value(args, "--rmat");
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    usage_and_exit("--rmat expects <scale,edge-factor>");
                }
                let s = parts[0]
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad rmat scale"));
                let ef = parts[1]
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad rmat edge factor"));
                o.rmat = Some((s, ef));
            }
            "--list" => {
                println!("registry datasets (Table II):");
                for spec in RealWorldRegistry::all() {
                    println!(
                        "  {:<18} {:?}  dim {:>9}  nnz(A) {:>11}",
                        spec.name, spec.class, spec.paper_dim, spec.paper_nnz_a
                    );
                }
                exit(0)
            }
            other => usage_and_exit(&format!("unknown flag {other:?}")),
        }
    }
    o
}

fn parse_batch_options(args: &mut dyn Iterator<Item = String>) -> BatchOptions {
    let mut o = BatchOptions {
        jobs: None,
        devices: "titanxp".to_string(),
        workers: 0,
        cache: 32,
        queue_cap: None,
        metrics: None,
        metrics_timing: false,
        settings: PlanSettings::default(),
    };
    let mut est = EstimatorFlags::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_usage();
                exit(0)
            }
            "--jobs" => o.jobs = Some(next_value(args, "--jobs")),
            "--device" => o.devices = next_value(args, "--device"),
            "--metrics" => o.metrics = Some(next_value(args, "--metrics")),
            "--metrics-timing" => o.metrics_timing = true,
            "--workers" => {
                o.workers = next_value(args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--workers must be a positive integer"));
                if o.workers == 0 {
                    usage_and_exit("--workers must be >= 1");
                }
            }
            "--cache" => {
                o.cache = next_value(args, "--cache")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--cache must be a positive integer"));
            }
            "--queue-cap" => {
                let cap: usize = next_value(args, "--queue-cap")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--queue-cap must be a positive integer"));
                if cap == 0 {
                    usage_and_exit("--queue-cap must be >= 1");
                }
                o.queue_cap = Some(cap);
            }
            "--threads" => apply_threads_flag(&next_value(args, "--threads")),
            "--reorder" => o.settings.reorder = parse_reorder_flag(&next_value(args, "--reorder")),
            other => {
                if !est.try_parse(other, args) {
                    usage_and_exit(&format!("unknown flag {other:?} in batch mode"))
                }
            }
        }
    }
    o.settings.estimator = est.service_estimator();
    o
}

fn parse_serve_options(args: &mut dyn Iterator<Item = String>) -> ServeOptions {
    let mut o = ServeOptions {
        listen: None,
        workers: 1,
        device: "titanxp".to_string(),
        cache: 32,
        shed_threshold: 64,
        quota: 256,
        hold: false,
        port_file: None,
        metrics: None,
        metrics_timing: false,
        settings: PlanSettings::default(),
    };
    let mut est = EstimatorFlags::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_usage();
                exit(0)
            }
            "--listen" => o.listen = Some(next_value(args, "--listen")),
            "--device" => o.device = next_value(args, "--device"),
            "--port-file" => o.port_file = Some(next_value(args, "--port-file")),
            "--metrics" => o.metrics = Some(next_value(args, "--metrics")),
            "--metrics-timing" => o.metrics_timing = true,
            "--hold" => o.hold = true,
            "--workers" => {
                o.workers = next_value(args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--workers must be a positive integer"));
                if o.workers == 0 {
                    usage_and_exit("--workers must be >= 1");
                }
            }
            "--cache" => {
                o.cache = next_value(args, "--cache")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--cache must be a positive integer"));
            }
            "--shed-threshold" => {
                o.shed_threshold =
                    next_value(args, "--shed-threshold")
                        .parse()
                        .unwrap_or_else(|_| {
                            usage_and_exit("--shed-threshold must be a positive integer")
                        });
                if o.shed_threshold == 0 {
                    usage_and_exit("--shed-threshold must be >= 1");
                }
            }
            "--quota" => {
                o.quota = next_value(args, "--quota")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--quota must be a positive integer"));
                if o.quota == 0 {
                    usage_and_exit("--quota must be >= 1");
                }
            }
            "--threads" => apply_threads_flag(&next_value(args, "--threads")),
            "--reorder" => o.settings.reorder = parse_reorder_flag(&next_value(args, "--reorder")),
            other => {
                if !est.try_parse(other, args) {
                    usage_and_exit(&format!("unknown flag {other:?} in serve mode"))
                }
            }
        }
    }
    o.settings.estimator = est.service_estimator();
    o
}

fn parse_client_options(args: &mut dyn Iterator<Item = String>) -> ClientOptions {
    let mut o = ClientOptions {
        connect: None,
        client_id: "cli".to_string(),
        spec: None,
        count: 1,
        lane: "interactive".to_string(),
        deadline_ms: 0,
        chain: false,
        release: false,
        shutdown: false,
        quiet: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_usage();
                exit(0)
            }
            "--connect" => o.connect = Some(next_value(args, "--connect")),
            "--client-id" => o.client_id = next_value(args, "--client-id"),
            "--spec" => o.spec = Some(next_value(args, "--spec")),
            "--lane" => o.lane = next_value(args, "--lane"),
            "--chain" => o.chain = true,
            "--release" => o.release = true,
            "--shutdown" => o.shutdown = true,
            "--quiet" => o.quiet = true,
            "--count" => {
                o.count = next_value(args, "--count")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--count must be a positive integer"));
                if o.count == 0 {
                    usage_and_exit("--count must be >= 1");
                }
            }
            "--deadline-ms" => {
                o.deadline_ms = next_value(args, "--deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--deadline-ms must be an integer"));
            }
            other => usage_and_exit(&format!("unknown flag {other:?} in client mode")),
        }
    }
    o
}

fn parse_chain_options(args: &mut dyn Iterator<Item = String>) -> ChainOptions {
    let mut o = ChainOptions {
        workload: None,
        spec_file: None,
        dataset: None,
        rmat: None,
        input: None,
        scale: 16,
        seed: 42,
        device: "titanxp".to_string(),
        cache: 32,
        metrics: None,
        metrics_timing: false,
        settings: PlanSettings::default(),
    };
    let mut est = EstimatorFlags::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_usage();
                exit(0)
            }
            "--workload" => o.workload = Some(next_value(args, "--workload")),
            "--spec-file" => o.spec_file = Some(next_value(args, "--spec-file")),
            "--dataset" => o.dataset = Some(next_value(args, "--dataset")),
            "--input" => o.input = Some(next_value(args, "--input")),
            "--device" => o.device = next_value(args, "--device"),
            "--metrics" => o.metrics = Some(next_value(args, "--metrics")),
            "--metrics-timing" => o.metrics_timing = true,
            "--scale" => {
                o.scale = next_value(args, "--scale")
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage_and_exit("--scale must be a positive integer"))
            }
            "--seed" => {
                o.seed = next_value(args, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--seed must be an integer"))
            }
            "--cache" => {
                o.cache = next_value(args, "--cache")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--cache must be a positive integer"));
            }
            "--rmat" => {
                let v = next_value(args, "--rmat");
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    usage_and_exit("--rmat expects <scale,edge-factor>");
                }
                let s = parts[0]
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad rmat scale"));
                let ef = parts[1]
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad rmat edge factor"));
                o.rmat = Some((s, ef));
            }
            "--threads" => apply_threads_flag(&next_value(args, "--threads")),
            "--reorder" => o.settings.reorder = parse_reorder_flag(&next_value(args, "--reorder")),
            other => {
                if !est.try_parse(other, args) {
                    usage_and_exit(&format!("unknown flag {other:?} in chain mode"))
                }
            }
        }
    }
    o.settings.estimator = est.service_estimator();
    o
}

/// Accumulates the estimator flag group shared by batch / serve / bench
/// run: `--est-samples <n>`, `--est-tolerance <f>`, `--no-estimate`.
#[derive(Default)]
struct EstimatorFlags {
    samples: Option<usize>,
    tolerance: Option<f64>,
    disabled: bool,
}

impl EstimatorFlags {
    /// Consumes `arg` (and its value) when it belongs to the estimator
    /// group; returns false so the caller can try its own flags.
    fn try_parse(&mut self, arg: &str, args: &mut dyn Iterator<Item = String>) -> bool {
        match arg {
            "--no-estimate" => self.disabled = true,
            "--est-samples" => {
                let v = next_value(args, "--est-samples");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => self.samples = Some(n),
                    _ => usage_and_exit("--est-samples must be a positive integer"),
                }
            }
            "--est-tolerance" => {
                let v = next_value(args, "--est-tolerance");
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => self.tolerance = Some(t),
                    _ => usage_and_exit("--est-tolerance must be a finite number >= 0"),
                }
            }
            _ => return false,
        }
        true
    }

    /// The configured values over the defaults.
    fn config(&self) -> EstimatorConfig {
        let mut config = EstimatorConfig::default();
        if let Some(samples) = self.samples {
            config.samples = samples;
        }
        if let Some(tolerance) = self.tolerance {
            config.tolerance = tolerance;
        }
        config
    }

    /// batch / serve semantics: estimation is opt-in (`None` = exact
    /// precalculation, the historical default); any `--est-*` flag turns
    /// it on, `--no-estimate` wins over both.
    fn service_estimator(&self) -> Option<EstimatorConfig> {
        if self.disabled || (self.samples.is_none() && self.tolerance.is_none()) {
            None
        } else {
            Some(self.config())
        }
    }

    /// bench-run semantics: the estplan suite estimates by default, so the
    /// configured estimator applies unless `--no-estimate` forces exact
    /// precalculation.
    fn bench_estimator(&self) -> Option<EstimatorConfig> {
        (!self.disabled).then(|| self.config())
    }
}

fn next_value(args: &mut dyn Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_and_exit(&format!("missing value for {flag}")))
}

/// Parses and installs a `--threads <n>` override. `n = 0` is a usage
/// error (exit 2): the sequential path is requested with `--threads 1`,
/// not zero workers. The override takes precedence over `BR_THREADS`.
fn apply_threads_flag(value: &str) {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => blockreorg::sparse::par::set_global_threads(n),
        Ok(_) => usage_and_exit("--threads must be >= 1 (use 1 for the sequential path)"),
        Err(_) => usage_and_exit(&format!(
            "--threads expects a positive integer, got {value:?}"
        )),
    }
}

/// Parses a `--reorder <strategy>` value through the typed
/// `ReorderParseError` path, so a bad spelling exits 2 with the valid
/// strategy list in the message.
fn parse_reorder_flag(value: &str) -> ReorderStrategy {
    ReorderStrategy::parse(value)
        .unwrap_or_else(|e| usage_and_exit(&format!("bad --reorder value: {e}")))
}

fn load_a(o: &Options) -> CsrMatrix<f64> {
    if let Some(path) = &o.input {
        read_matrix_market_file::<f64, _>(path)
            .unwrap_or_else(|e| runtime_error(&format!("cannot read {path}: {e}")))
    } else if let Some(name) = &o.dataset {
        RealWorldRegistry::get(name)
            .unwrap_or_else(|| {
                let valid: Vec<&str> = RealWorldRegistry::all().iter().map(|s| s.name).collect();
                usage_and_exit(&format!(
                    "unknown dataset {name:?}; valid datasets: {}",
                    valid.join(", ")
                ))
            })
            .generate(ScaleFactor::Div(o.scale))
    } else if let Some((scale, ef)) = o.rmat {
        rmat(RmatConfig::graph500(scale, ef, 42)).to_csr()
    } else {
        usage_and_exit("one of --input / --dataset / --rmat is required")
    }
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
    println!(
        "{:<20} {:>10.3} ms  {:>8.2} GFLOPS  nnz(C) = {}",
        name, total_ms, gflops, nnz_c
    );
}

/// Dumps the process-wide observability registry: Prometheus text to
/// `path`, one JSON object per line to `path.jsonl`. With `timing = false`
/// (the default) only deterministic families are written, so the files
/// byte-compare across repeated runs and any `BR_THREADS` setting;
/// `--metrics-timing` adds the timing families (queue depths, wall-clock
/// histograms, span durations) for human inspection.
fn write_metrics(path: &str, timing: bool) {
    // Pre-register every merge, reorder, and chain instrument cell so the
    // exported cell set is byte-identical whether or not the run exercised
    // each bin, reorder strategy, or chain step.
    blockreorg::spgemm::accum::register_merge_instruments();
    blockreorg::block_reorganizer::reorder::register_reorder_instruments();
    blockreorg::service::chain::register_chain_instruments(blockreorg::obs::global());
    let reg = blockreorg::obs::global();
    if let Err(e) = std::fs::write(path, reg.render_prometheus(timing)) {
        runtime_error(&format!("cannot write {path}: {e}"));
    }
    let jsonl = format!("{path}.jsonl");
    if let Err(e) = std::fs::write(&jsonl, reg.render_jsonl(timing)) {
        runtime_error(&format!("cannot write {jsonl}: {e}"));
    }
    println!("wrote metrics: {path} (Prometheus), {jsonl} (JSONL)");
}

fn run_batch_mode(o: BatchOptions) -> ! {
    let path = o
        .jobs
        .unwrap_or_else(|| usage_and_exit("batch mode requires --jobs <file>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| runtime_error(&format!("cannot read job file {path}: {e}")));
    let specs = parse_job_file(&text).unwrap_or_else(|e| runtime_error(&e));
    let jobs = expand_jobs(&specs).unwrap_or_else(|e| runtime_error(&e));

    let mut devices: Vec<DeviceConfig> = o.devices.split(',').map(device_of).collect();
    if o.workers > 0 {
        if devices.len() == 1 {
            devices = vec![devices[0].clone(); o.workers];
        } else if devices.len() != o.workers {
            usage_and_exit("--workers must match the --device list length (or give one device)");
        }
    }
    println!(
        "batch: {} jobs from {path}, {} workers, plan cache {} entries",
        jobs.len(),
        devices.len(),
        o.cache
    );
    for (i, d) in devices.iter().enumerate() {
        println!("  worker {i}: {}", d.name);
    }
    println!();

    if o.metrics_timing {
        blockreorg::obs::install_wall_clock(blockreorg::obs::global());
    }
    let batch = SpgemmService::run_batch(
        ServiceConfig {
            devices,
            cache_capacity: o.cache,
            queue_capacity: o.queue_cap,
            // Job-lifecycle spans and cache counters land in the same
            // process-wide registry as the spgemm / gpu-sim instruments,
            // so one --metrics dump covers the whole pipeline.
            registry: Some(blockreorg::obs::global_arc()),
            settings: o.settings,
        },
        jobs,
    );
    for outcome in &batch.outcomes {
        println!(
            "{:<24} worker {}  {}  {:>10.4} ms  {:>8.2} GFLOPS  nnz(C) = {}",
            outcome.label,
            outcome.worker,
            if outcome.cache_hit { "hit " } else { "miss" },
            outcome.total_ms,
            outcome.gflops,
            outcome.nnz_c
        );
    }
    println!();
    print!("{}", batch.stats);
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_timing);
    }
    if batch.failures.is_empty() {
        exit(0)
    }
    for failure in &batch.failures {
        eprintln!(
            "job {} ({}) failed: {}",
            failure.id, failure.label, failure.message
        );
    }
    exit(1)
}

/// `serve` — hosts the br-net TCP front end over a worker pool, runs
/// until a client's `Shutdown` frame completes the graceful drain, then
/// prints the serve report and exits 0. Bind/listen failures exit 3 so
/// scripts can tell "port taken" from "jobs failed".
fn run_serve_mode(o: ServeOptions) -> ! {
    use blockreorg::net::server::{NetServer, ServerConfig};

    let listen = o
        .listen
        .unwrap_or_else(|| usage_and_exit("serve mode requires --listen <addr>"));
    let device = device_of(&o.device);
    let devices = vec![device; o.workers];
    if o.metrics_timing {
        blockreorg::obs::install_wall_clock(blockreorg::obs::global());
    }
    let config = ServerConfig {
        service: ServiceConfig {
            devices,
            cache_capacity: o.cache,
            queue_capacity: Some(o.shed_threshold),
            // Net admission counters share the process-wide registry with
            // the spgemm / gpu-sim instruments, so one --metrics dump
            // covers the whole serving path.
            registry: Some(blockreorg::obs::global_arc()),
            settings: o.settings,
        },
        quota: o.quota,
        hold: o.hold,
    };
    let server = match NetServer::bind(&listen, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind/listen on {listen}: {e}");
            exit(3)
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &o.port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            runtime_error(&format!("cannot write port file {path}: {e}"));
        }
    }
    println!(
        "serving on {addr}: {} workers, shed threshold {}, quota {}{}",
        o.workers,
        o.shed_threshold,
        o.quota,
        if o.hold { ", worker gate held" } else { "" }
    );
    let report = server.run();
    print!("{report}");
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_timing);
    }
    exit(0)
}

/// `client` — submits `--count` copies of a job line over the wire,
/// collects exactly one response per request, and prints the tally.
fn run_client_mode(o: ClientOptions) -> ! {
    use blockreorg::net::client::NetClient;
    use blockreorg::net::frame::Lane;

    let addr = o
        .connect
        .unwrap_or_else(|| usage_and_exit("client mode requires --connect <addr>"));
    let spec = o
        .spec
        .unwrap_or_else(|| usage_and_exit("client mode requires --spec '<jobline>'"));
    let lane_of = |id: u64| match o.lane.as_str() {
        "interactive" => Lane::Interactive,
        "batch" => Lane::Batch,
        "alternate" => {
            if id.is_multiple_of(2) {
                Lane::Interactive
            } else {
                Lane::Batch
            }
        }
        other => usage_and_exit(&format!(
            "unknown lane {other:?}; valid lanes: interactive, batch, alternate"
        )),
    };
    let mut client = NetClient::connect(&addr, &o.client_id)
        .unwrap_or_else(|e| runtime_error(&format!("cannot connect to {addr}: {e}")));
    let info = client.server_info();
    if !o.quiet {
        println!(
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
    for id in 0..o.count {
        if o.chain {
            client
                .submit_chain(id, lane_of(id), o.deadline_ms, &spec)
                .unwrap_or_else(|e| fail(e));
        } else {
            client
                .submit(id, lane_of(id), o.deadline_ms, &spec)
                .unwrap_or_else(|e| fail(e));
        }
    }
    if o.release {
        client.release().unwrap_or_else(|e| fail(e));
    }
    let mut summary = client
        .collect_responses(o.count as usize)
        .unwrap_or_else(|e| fail(e));
    if o.shutdown {
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
    println!(
        "client {}: {} submitted, {} responses ({}){}",
        o.client_id,
        o.count,
        summary.total(),
        tally.join(", "),
        if summary.drain_notice {
            ", drain notice received"
        } else {
            ""
        }
    );
    if !o.quiet {
        for (id, cache_hit) in &summary.results {
            println!(
                "  request {id}: result ({})",
                if *cache_hit { "hit" } else { "miss" }
            );
        }
        for (id, steps, cached) in &summary.chain_results {
            println!("  request {id}: chain result ({steps} steps, {cached} plan-cache hits)");
        }
        for id in &summary.shed {
            println!("  request {id}: shed");
        }
        for (id, reason) in &summary.rejected {
            println!("  request {id}: rejected ({reason})");
        }
    }
    exit(0)
}

/// `chain` — runs one multiplication workload (a DAG of SpGEMM steps with
/// element-wise post-ops) through the plan-cached chain executor and
/// prints the per-step table: which steps hit the plan cache, which saw a
/// fresh operand structure, and what each step cost.
fn run_chain_mode(o: ChainOptions) -> ! {
    use blockreorg::bench::report::Table;
    use blockreorg::workloads::{parse_chain_spec, Workload};
    use std::sync::Arc;

    let a: CsrMatrix<f64> = if let Some(path) = &o.input {
        read_matrix_market_file::<f64, _>(path)
            .unwrap_or_else(|e| runtime_error(&format!("cannot read {path}: {e}")))
    } else if let Some(name) = &o.dataset {
        RealWorldRegistry::get(name)
            .unwrap_or_else(|| {
                let valid: Vec<&str> = RealWorldRegistry::all().iter().map(|s| s.name).collect();
                usage_and_exit(&format!(
                    "unknown dataset {name:?}; valid datasets: {}",
                    valid.join(", ")
                ))
            })
            .generate(ScaleFactor::Div(o.scale))
    } else if let Some((scale, ef)) = o.rmat {
        rmat(RmatConfig::graph500(scale, ef, o.seed)).to_csr()
    } else {
        usage_and_exit("chain mode needs one of --dataset / --rmat / --input")
    };
    println!("A: {}x{}, nnz {}", a.nrows(), a.ncols(), a.nnz());

    let request = match (&o.workload, &o.spec_file) {
        (Some(_), Some(_)) => usage_and_exit("--workload and --spec-file are mutually exclusive"),
        (None, None) => usage_and_exit("chain mode needs --workload <spec> or --spec-file <path>"),
        (Some(w), None) => {
            let workload = Workload::parse(w).unwrap_or_else(|e| usage_and_exit(&e));
            ChainRequest::workload(0, workload, &a)
        }
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

    let device = device_of(&o.device);
    if o.metrics_timing {
        blockreorg::obs::install_wall_clock(blockreorg::obs::global());
    }
    // Chain counters land in the process-wide registry, so one --metrics
    // dump covers the plan cache, the simulator, and the chain roll-up.
    let engine = Engine::new(o.settings, o.cache, blockreorg::obs::global_arc());
    println!(
        "chain {}: {} steps on {}, plan cache {} entries\n",
        request.label,
        request.program.steps.len(),
        device.name,
        o.cache
    );

    let outcome = engine
        .run_chain(&Worker::new(0, device), &request, 0.0)
        .unwrap_or_else(|e| runtime_error(&format!("chain failed: {}", e.message)));

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
    table.print();
    println!();
    println!(
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
    if let Some(path) = &o.metrics {
        write_metrics(path, o.metrics_timing);
    }
    exit(0)
}

/// `bench run` / `bench compare` — the regression-tracking front end over
/// `br-bench::{suite, compare}` (see EXPERIMENTS.md "Benchmarking &
/// regression tracking").
fn run_bench_mode(args: &mut dyn Iterator<Item = String>) -> ! {
    use blockreorg::bench::compare::{compare, Thresholds};
    use blockreorg::bench::schema::BenchReport;
    use blockreorg::bench::suite::{default_settings, run_suite, Suite};

    match args.next().as_deref() {
        Some("run") => {
            let mut suite = Suite::Quick;
            let mut out: Option<String> = None;
            let mut no_host = false;
            let mut metrics: Option<String> = None;
            let mut metrics_timing = false;
            let mut settings = default_settings();
            let mut est = EstimatorFlags::default();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--suite" => {
                        let v = args
                            .next()
                            .unwrap_or_else(|| usage_and_exit("missing --suite value"));
                        suite = Suite::parse(&v).unwrap_or_else(|| {
                            usage_and_exit(&format!(
                                "unknown suite {v:?}; valid suites: quick, full, scaling, estplan, kway, reorder, chain"
                            ))
                        });
                    }
                    "--out" => {
                        out = Some(
                            args.next()
                                .unwrap_or_else(|| usage_and_exit("missing --out path")),
                        );
                    }
                    "--threads" => {
                        let v = args
                            .next()
                            .unwrap_or_else(|| usage_and_exit("missing --threads value"));
                        apply_threads_flag(&v);
                    }
                    "--no-host" => no_host = true,
                    "--metrics" => {
                        metrics = Some(
                            args.next()
                                .unwrap_or_else(|| usage_and_exit("missing --metrics path")),
                        );
                    }
                    "--metrics-timing" => metrics_timing = true,
                    "--bins" => {
                        use blockreorg::spgemm::accum::BinThresholds;
                        let v = args
                            .next()
                            .unwrap_or_else(|| usage_and_exit("missing --bins value"));
                        let thresholds = BinThresholds::parse(&v)
                            .unwrap_or_else(|e| usage_and_exit(&format!("bad --bins value: {e}")));
                        settings.bins = Some(thresholds);
                    }
                    other => {
                        if !est.try_parse(other, args) {
                            usage_and_exit(&format!("unknown bench run flag {other:?}"))
                        }
                    }
                }
            }
            settings.estimator = est.bench_estimator();
            if metrics_timing {
                blockreorg::obs::install_wall_clock(blockreorg::obs::global());
            }
            let path = out.unwrap_or_else(|| format!("BENCH_{}.json", suite.name()));
            let mut report = run_suite(suite, &settings, |line| println!("{line}"));
            // The wall-clock line is always printed; --no-host only keeps
            // it out of the file so reports byte-compare across runs.
            if let Some(host) = &report.host {
                println!(
                    "host: {} threads, {:.0} ms wall ({:.2} cases/s, {:.2} jobs/s)",
                    host.threads, host.wall_ms, host.cases_per_sec, host.jobs_per_sec
                );
            }
            if no_host {
                report.host = None;
            }
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                runtime_error(&format!("cannot write {path}: {e}"));
            }
            if let Some(metrics_path) = &metrics {
                write_metrics(metrics_path, metrics_timing);
            }
            let chain_cases = report.chain.as_ref().map_or(0, |c| c.cases.len());
            println!(
                "\nwrote {path}: {} cases ({chain_cases} chain), model v{}, git {}",
                report.cases.len(),
                report.model_version,
                report.git_sha
            );
            exit(0)
        }
        Some("compare") => {
            let mut paths = Vec::new();
            let mut thresholds = Thresholds::default();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--cycles-pct" => {
                        let v = args
                            .next()
                            .unwrap_or_else(|| usage_and_exit("missing --cycles-pct value"));
                        thresholds.cycles_pct = v.parse().unwrap_or_else(|_| {
                            usage_and_exit(&format!("bad --cycles-pct value {v:?}"))
                        });
                    }
                    "--plan-pct" => {
                        let v = args
                            .next()
                            .unwrap_or_else(|| usage_and_exit("missing --plan-pct value"));
                        thresholds.plan_ops_pct = v.parse().unwrap_or_else(|_| {
                            usage_and_exit(&format!("bad --plan-pct value {v:?}"))
                        });
                    }
                    other if other.starts_with("--") => {
                        usage_and_exit(&format!("unknown bench compare flag {other:?}"))
                    }
                    path => paths.push(path.to_string()),
                }
            }
            let [baseline_path, current_path] = paths.as_slice() else {
                usage_and_exit("bench compare needs exactly <baseline.json> <current.json>");
            };
            let load = |path: &str| -> BenchReport {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| runtime_error(&format!("cannot read {path}: {e}")));
                BenchReport::from_json(&text)
                    .unwrap_or_else(|e| runtime_error(&format!("{path}: {e}")))
            };
            let baseline = load(baseline_path);
            let current = load(current_path);
            let cmp = compare(&baseline, &current, &thresholds);
            print!("{}", cmp.render());
            if cmp.has_regressions() {
                eprintln!(
                    "regression gate FAILED: suite {:?}, baseline {baseline_path} \
                     (cycle threshold {:.1}%, plan threshold {:.1}%)",
                    baseline.suite, thresholds.cycles_pct, thresholds.plan_ops_pct
                );
                exit(1)
            }
            println!("regression gate passed");
            exit(0)
        }
        Some(other) => usage_and_exit(&format!(
            "unknown bench subcommand {other:?}; expected run or compare"
        )),
        None => usage_and_exit("bench needs a subcommand: run or compare"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("batch") => {
            args.next();
            let o = parse_batch_options(&mut args);
            run_batch_mode(o)
        }
        Some("serve") => {
            args.next();
            let o = parse_serve_options(&mut args);
            run_serve_mode(o)
        }
        Some("client") => {
            args.next();
            let o = parse_client_options(&mut args);
            run_client_mode(o)
        }
        Some("chain") => {
            args.next();
            let o = parse_chain_options(&mut args);
            run_chain_mode(o)
        }
        Some("bench") => {
            args.next();
            run_bench_mode(&mut args)
        }
        _ => {}
    }
    let o = parse_options(&mut args);
    let a = load_a(&o);
    let b = match &o.pair_with {
        Some(path) => read_matrix_market_file::<f64, _>(path)
            .unwrap_or_else(|e| runtime_error(&format!("cannot read {path}: {e}"))),
        None => a.clone(),
    };
    let device = device_of(&o.device);
    println!(
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

    if o.report {
        let report =
            block_reorganizer::WorkloadReport::of(&ctx, &ReorganizerConfig::default(), &device);
        println!("{report}\n");
    }

    let oracle = if o.verify {
        Some(spgemm_gustavson(&a, &b).expect("shapes validated above"))
    } else {
        None
    };
    let check = |result: &CsrMatrix<f64>| {
        if let Some(oracle) = &oracle {
            if !result.approx_eq(oracle, 1e-9) {
                runtime_error("verification FAILED: result differs from CPU reference");
            }
            println!("  verified against CPU reference ✓");
        }
    };

    let run_one = |m: SpgemmMethod| {
        let run = run_method(&ctx, m, &device).expect("shapes validated above");
        report(m.name(), run.total_ms, run.gflops(), run.result.nnz());
        check(&run.result);
    };
    let run_reorg = || {
        let config = if o.tune {
            let t = block_reorganizer::tune(&ctx, &device).expect("shapes validated above");
            println!(
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
        println!(
            "  dominators {} | low performers {} | gathered {} | limited rows {}",
            run.stats.dominators,
            run.stats.low_performers,
            run.stats.gathered_blocks,
            run.stats.limited_rows
        );
        check(&run.result);
    };

    match o.method.to_ascii_lowercase().as_str() {
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
}
