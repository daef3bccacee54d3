//! One benchmark run, shared by both binaries: argument parsing, server
//! start-ups, the timed phase, output checks and the report.
//!
//! `--trace 0` starts the server, warms it up, drives it in a closed loop
//! for `--seconds` and prints the end-to-end metrics. `--trace 1` drives a
//! fixed number of requests instead, so every exported count repeats
//! exactly for a seed, and hands the run to the traced binary's per-layer
//! pass. Both check every output against the oracle after the timed phase.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use crate::oracle;
use crate::stats::{median_of, Sample};
use crate::wire::{self, closed_loop, server_args, Conn, Outcome, Record, Server, Stop};
use crate::workload::{by_name, Workload, WARMUP, WORKLOADS};

/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests per second of `--seconds` the traced run sends: its untraced
/// phase is a fixed count, so every exported count repeats exactly for a
/// seed. About half the closed-loop rate here, which leaves time for the
/// replay (about twice a request's work) within the run's budget.
const TRACE_RPS: u64 = 25;

/// `sim_ms_per_req` averages the first this many timed requests, so it is
/// a pure function of the seed however many requests a run completes.
const SIM_PREFIX: usize = 100;

const USAGE: &str = "usage: hostbench --server <blockreorg-cli> --workload <name> --seed <n> \
                     --seconds <s> --trace <0|1> [--workdir <dir>]";

/// Command-line arguments of one run.
pub struct Args {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed every request's inputs derive from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `blockreorg-cli` binary.
    pub server: PathBuf,
    /// Where run files (ports, exports, latencies, spans) go.
    pub workdir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !["workload", "seed", "seconds", "trace", "server", "workdir"].contains(&key) {
            return Err(format!("unknown option {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} needs a whole number"))
    };
    let name = get("workload")?;
    let workload = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; choose one of {}",
            names.join(", ")
        )
    })?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        server: PathBuf::from(get("server")?),
        workdir: PathBuf::from(kv.get("workdir").copied().unwrap_or("hostbench/.run")),
    })
}

/// One metric of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric named `name`, measured as `value` in `unit`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// JSON has no infinity: an unbounded value (a percentile that landed on
/// a failure) is written as 1e9, far beyond any measured one.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1000000000".to_string()
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Starts the server `SETUPS` times, timing spawn to the end of warm-up,
/// and keeps the last one running for the timed phase.
fn start(args: &Args) -> Result<(Server, Conn, Vec<f64>), String> {
    let w = &args.workload;
    let mut setup_s = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let tag = format!("{}-{}-{k}", w.name, args.seed);
        let server = Server::spawn(&args.server, w, &args.workdir, &tag)?;
        let mut conn = server.connect()?;
        for req in w.warmup(args.seed) {
            let record = conn.call(&req);
            if !matches!(record.outcome, Outcome::Done(_)) {
                return Err(format!(
                    "warm-up {:?} failed: {:?}",
                    req.spec, record.outcome
                ));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            return Ok((server, conn, setup_s));
        }
        server.drain(conn)?;
    }
    unreachable!("SETUPS is at least one")
}

/// What the timed phase observed, before any check ran.
pub struct Phase {
    /// Every timed request, in order.
    pub records: Vec<Record>,
    wall_s: f64,
    /// Server CPU time over the phase, ms.
    cpu_ms: Option<f64>,
    peak_rss_mb: Option<f64>,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: Option<f64>,
    /// The server's exported counters, read at drain.
    pub export: Result<BTreeMap<String, f64>, String>,
}

/// The timed phase: the closed loop against the warmed-up server, then
/// drain. Only `closed_loop` runs between the clock reads.
fn timed_phase(server: Server, mut conn: Conn, args: &Args) -> Phase {
    let stop = if args.trace {
        Stop::Count(TRACE_RPS * args.seconds)
    } else {
        Stop::After(Duration::from_secs(args.seconds))
    };
    let cpu0 = server.cpu_ms();
    let steal0 = wire::steal_ticks();
    let t0 = Instant::now();
    let records = closed_loop(&mut conn, &args.workload, args.seed, stop);
    let wall_s = t0.elapsed().as_secs_f64();
    let steal1 = wire::steal_ticks();
    let cpu1 = server.cpu_ms();
    let peak_rss_mb = server.peak_rss_mb();
    let steal = match (steal0, steal1) {
        (Some((s0, n0)), Some((s1, n1))) if n1 > n0 => Some((s1 - s0) as f64 / (n1 - n0) as f64),
        _ => None,
    };
    Phase {
        records,
        wall_s,
        cpu_ms: cpu0.zip(cpu1).map(|(a, b)| b - a),
        peak_rss_mb,
        steal,
        export: server.drain(conn),
    }
}

/// Checks the server's own export against what the client sent and saw.
fn export_problems(export: &BTreeMap<String, f64>, records: &[Record]) -> Vec<String> {
    let count = |pred: fn(&Outcome) -> bool| records.iter().filter(|r| pred(&r.outcome)).count();
    let done = count(|o| matches!(o, Outcome::Done(_)));
    let refused = count(|o| matches!(o, Outcome::Refused(_)));
    let family = |f: &str| export.get(f).copied().unwrap_or(f64::NAN);
    let checks = [
        (
            "br_net_requests_total",
            family("br_net_requests_total"),
            WARMUP as usize + records.len(),
        ),
        (
            "br_net_results_total",
            family("br_net_results_total"),
            WARMUP as usize + done,
        ),
        (
            "br_net_rejects_total + br_net_shed_total",
            family("br_net_rejects_total") + family("br_net_shed_total"),
            refused,
        ),
    ];
    checks
        .into_iter()
        .filter(|&(_, got, want)| got != want as f64)
        .map(|(what, got, want)| format!("server exported {what} = {got}, client counted {want}"))
        .collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    phase: &Phase,
    sample: &Sample,
    failed: usize,
    setups: &[f64],
    out: &mut String,
) -> Vec<Metric> {
    let attempted = phase.records.len().max(1) as f64;
    let mut metrics = Vec::new();
    if let Some(p) = sample.median() {
        let _ = writeln!(out, "  latency_p50_ms over n={} samples", sample.count());
        metrics.push(Metric::new("latency_p50_ms", p.value, "ms"));
    }
    // Printed, not in the result line: its run-to-run spread here is wider
    // than any bound a gated metric may have (see README.md).
    match sample.tail(0.99) {
        Some(p) => {
            let _ = writeln!(
                out,
                "  latency_p99_ms {} ms: p{:.2} over n={} samples, {} beyond it",
                json_number(p.value),
                p.q * 100.0,
                sample.count(),
                p.beyond
            );
        }
        None => {
            let _ = writeln!(out, "  only {} samples: no tail percentile", sample.count());
        }
    }
    let cpu = phase.cpu_ms.map_or(f64::NAN, |ms| ms / attempted);
    metrics.push(Metric::new("server_cpu_ms_per_req", cpu, "ms"));
    let rss = phase.peak_rss_mb.unwrap_or(f64::NAN);
    metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    let sims: Vec<f64> = phase
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Done(reply) => Some(reply.sim_ms),
            _ => None,
        })
        .take(SIM_PREFIX)
        .collect();
    let sim = sims.iter().sum::<f64>() / sims.len() as f64;
    metrics.push(Metric::new("sim_ms_per_req", sim, "sim_ms"));
    let success = 1.0 - failed as f64 / attempted;
    metrics.push(Metric::new("success_rate", success, "ratio"));
    metrics.push(Metric::new("setup_s", median_of(setups), "s"));
    metrics
}

/// The traced run's per-layer pass: given the run's arguments and its
/// timed phase, returns the per-layer metrics and the number of traced
/// products that differed from the oracle, appending any table lines to
/// the report.
pub type Layers = fn(&Args, &Phase, &mut String) -> Result<(Vec<Metric>, u64), String>;

fn run(args: &Args, layers: Option<Layers>) -> Result<String, String> {
    let w = &args.workload;
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("cannot create {:?}: {e}", args.workdir))?;
    let (server, conn, setups) = start(args)?;
    let phase = timed_phase(server, conn, args);

    // Everything below is outside the timed phase.
    let records = &phase.records;
    let expected = oracle::expected_for(records)?;
    let verdicts = oracle::judge(records, &expected, w);
    let failed = verdicts.iter().flatten().count();
    let wrong = records
        .iter()
        .zip(&verdicts)
        .filter(|(r, v)| matches!(r.outcome, Outcome::Done(_)) && v.is_some())
        .count();
    let mut problems: Vec<String> = records
        .iter()
        .zip(&verdicts)
        .filter_map(|(r, v)| {
            let why = v.as_ref()?;
            Some(format!(
                "request {} ({}): {why}",
                r.request.id, r.request.spec
            ))
        })
        .take(5)
        .collect();
    let export_bad = match &phase.export {
        Ok(e) => export_problems(e, records),
        Err(e) => vec![e.clone()],
    };
    let export_ok = export_bad.is_empty();
    problems.extend(export_bad);
    let attempted = records.len();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "hostbench {} seed {} trace {}: {attempted} requests in {:.2} s, {failed} failed \
         (error_rate {}), one request outstanding",
        w.name,
        args.seed,
        u8::from(args.trace),
        phase.wall_s,
        failed as f64 / attempted.max(1) as f64,
    );
    for p in &problems {
        let _ = writeln!(out, "  problem: {p}");
    }

    let (metrics, mismatches) = match layers.filter(|_| args.trace) {
        Some(layers) => layers(args, &phase, &mut out)?,
        None => {
            // A failed request, a wrong output included, misses every
            // latency limit: it enters the percentiles at +∞.
            let sample = Sample::new(
                records
                    .iter()
                    .zip(&verdicts)
                    .map(|(r, v)| r.latency_ms.filter(|_| v.is_none())),
            );
            (end_to_end(&phase, &sample, failed, &setups, &mut out), 0)
        }
    };
    if mismatches > 0 {
        let _ = writeln!(
            out,
            "  problem: {mismatches} traced products differ from the oracle"
        );
    }

    for m in &metrics {
        let _ = writeln!(
            out,
            "  {:<40} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    let flags = server_args(w, "<port-file>".as_ref(), "<metrics>".as_ref()).join(" ");
    let steal = phase
        .steal
        .map_or("unknown".to_string(), |s| format!("{:.1}%", s * 100.0));
    let _ = writeln!(
        out,
        "# env nproc={} BR_THREADS=unset (effective {}) server=\"{flags}\" git_sha={} \
         steal_during_timed_phase={steal}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        br_sparse::par::effective_threads(None),
        git_sha()
    );

    let correct = wrong == 0 && mismatches == 0 && export_ok;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let failed_total = (failed + mismatches as usize).min(attempted);
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed_total}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(out)
}

/// Parses the arguments, runs, prints the report and exits: 0 with a
/// result line, 1 when the run could not complete, 2 on a usage error.
/// `layers` is the traced binary's per-layer pass; without it, `--trace 1`
/// is a usage error.
pub fn main_with(layers: Option<Layers>) -> ! {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    if args.trace && layers.is_none() {
        eprintln!("error: --trace 1 runs through the hostbench-trace binary");
        exit(2)
    }
    // The server runs with BR_THREADS unset; so does the traced replay.
    std::env::remove_var("BR_THREADS");
    match run(&args, layers) {
        Ok(report) => {
            print!("{report}");
            exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}
