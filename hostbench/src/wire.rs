//! The server under test, as a child process, and the closed-loop client
//! that drives it over one TCP connection.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use br_net::frame::{read_frame, write_frame, Frame, FrameError, Lane};

use crate::workload::{Kind, Request, Workload};

/// Longest a request may take before the client gives up on the server.
/// Requests here take tens of milliseconds; a reply this late means the
/// server hung or died.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest the server may take to bind, or to drain and exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// The server's command line: defaults plus the workload's flags, the
/// deterministic metrics export, and nothing that installs a wall clock.
pub fn server_args(w: &Workload, port_file: &Path, metrics: &Path) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0", "--port-file"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(port_file.display().to_string());
    args.push("--metrics".to_string());
    args.push(metrics.display().to_string());
    args.extend(w.server_flags.iter().map(|s| s.to_string()));
    args
}

/// A running `blockreorg-cli serve` child.
pub struct Server {
    child: Child,
    addr: String,
    metrics: PathBuf,
}

impl Server {
    /// Spawns the server with `BR_THREADS` unset and waits until it has
    /// bound its listener.
    pub fn spawn(bin: &Path, w: &Workload, dir: &Path, tag: &str) -> Result<Server, String> {
        let port_file = dir.join(format!("{tag}.port"));
        let metrics = dir.join(format!("{tag}.prom"));
        let log = dir.join(format!("{tag}.log"));
        let _ = fs::remove_file(&port_file);
        let _ = fs::remove_file(&metrics);
        let log_file = File::create(&log).map_err(|e| format!("cannot create {log:?}: {e}"))?;
        let err_file = log_file
            .try_clone()
            .map_err(|e| format!("cannot share {log:?}: {e}"))?;
        let child = Command::new(bin)
            .args(server_args(w, &port_file, &metrics))
            .env_remove("BR_THREADS")
            .stdin(Stdio::null())
            .stdout(log_file)
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("cannot start {bin:?}: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
            metrics,
        };
        let start = Instant::now();
        loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited before binding ({status}); see {log:?}"
                ));
            }
            if start.elapsed() > PROCESS_TIMEOUT {
                server.kill();
                return Err("server did not bind within 30 s".to_string());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Connects and performs the handshake.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Server CPU time so far (all threads, user + system), ms.
    pub fn cpu_ms(&self) -> Option<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / USER_HZ * 1e3)
    }

    /// Peak resident set so far (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to drain over `conn`, waits for it to exit, and
    /// returns its exported counter families (summed over labels).
    pub fn drain(mut self, mut conn: Conn) -> Result<BTreeMap<String, f64>, String> {
        let sent = write_frame(&mut conn.writer, &Frame::Shutdown).is_ok();
        if sent {
            // Read until the server closes the connection.
            while let Ok(Some(_)) = read_frame(&mut conn.reader) {}
        }
        drop(conn);
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if start.elapsed() > PROCESS_TIMEOUT => {
                    self.kill();
                    return Err("server did not drain within 30 s".to_string());
                }
                Ok(None) => thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot wait for server: {e}")),
            }
        }
        let text = fs::read_to_string(&self.metrics)
            .map_err(|e| format!("cannot read {:?}: {e}", self.metrics))?;
        Ok(parse_export(&text))
    }

    /// Kills the server and waits for it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Cumulative (steal, total) ticks of the whole machine from `/proc/stat`:
/// time the hypervisor ran something else while this VM wanted a CPU.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Sums every sample of each family in a Prometheus text exposition.
pub fn parse_export(text: &str) -> BTreeMap<String, f64> {
    let mut families = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *families.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    families
}

/// A successful reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Plan-cache hit per step (one entry for a single multiplication).
    pub hits: Vec<bool>,
    /// Modelled device time, ms.
    pub sim_ms: f64,
    /// `nnz` of the (final) product.
    pub nnz: u64,
}

/// What one request came back with.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A `Result` or `ChainResult`.
    Done(Reply),
    /// `Reject` or `Shed`: the server answered but did not do the work.
    Refused(String),
    /// No answer within [`REQUEST_TIMEOUT`], or the connection broke.
    Lost(String),
}

/// One timed request and what happened to it.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request sent.
    pub request: Request,
    /// Submit-to-reply wall time, ms; `None` unless the work was done.
    pub latency_ms: Option<f64>,
    /// The reply.
    pub outcome: Outcome,
}

/// One handshaken connection with exactly one request outstanding at a
/// time.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        };
        let hello = Frame::Hello {
            client_id: "hostbench".to_string(),
        };
        write_frame(&mut conn.writer, &hello)?;
        match read_frame(&mut conn.reader) {
            Ok(Some(Frame::HelloAck { .. })) => Ok(conn),
            other => Err(io::Error::other(format!("handshake failed: {other:?}"))),
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Request) -> Record {
        let frame = match req.kind {
            Kind::Single => Frame::Submit {
                request_id: req.id,
                lane: Lane::Interactive,
                deadline_ms: 0,
                spec: req.spec.clone(),
            },
            Kind::Chain => Frame::SubmitChain {
                request_id: req.id,
                lane: Lane::Interactive,
                deadline_ms: 0,
                spec: req.spec.clone(),
            },
        };
        let t0 = Instant::now();
        let sent = write_frame(&mut self.writer, &frame);
        let reply = sent
            .map_err(FrameError::from)
            .and_then(|_| read_frame(&mut self.reader));
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let outcome = match reply {
            Ok(Some(Frame::Result {
                request_id,
                cache_hit,
                total_ms,
                nnz_c,
                ..
            })) if request_id == req.id => Outcome::Done(Reply {
                hits: vec![cache_hit],
                sim_ms: total_ms,
                nnz: nnz_c,
            }),
            Ok(Some(Frame::ChainResult {
                request_id,
                total_ms,
                nnz_c,
                steps,
                ..
            })) if request_id == req.id => Outcome::Done(Reply {
                hits: steps.iter().map(|s| s.cache_hit).collect(),
                sim_ms: total_ms,
                nnz: nnz_c,
            }),
            Ok(Some(Frame::Reject { code, message, .. })) => {
                Outcome::Refused(format!("reject {}: {message}", code.name()))
            }
            Ok(Some(Frame::Shed { depth, .. })) => {
                Outcome::Refused(format!("shed at depth {depth}"))
            }
            Ok(Some(other)) => Outcome::Lost(format!("unexpected {} frame", other.name())),
            Ok(None) => Outcome::Lost("server closed the connection".to_string()),
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Outcome::Lost(format!("no reply within {} s", REQUEST_TIMEOUT.as_secs()))
            }
            Err(e) => Outcome::Lost(format!("transport error: {e}")),
        };
        Record {
            request: req.clone(),
            latency_ms: matches!(outcome, Outcome::Done(_)).then_some(elapsed_ms),
            outcome,
        }
    }
}

/// When the timed phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time (the untraced, timed run).
    After(Duration),
    /// After exactly this many requests (the traced run, whose counts must
    /// repeat exactly for a seed).
    Count(u64),
}

/// The closed loop: request `i + 1` is sent only after reply `i` arrived.
/// A lost request ends the phase, since the connection is then unusable.
pub fn closed_loop(conn: &mut Conn, w: &Workload, seed: u64, stop: Stop) -> Vec<Record> {
    let start = Instant::now();
    let mut records = Vec::new();
    for i in 0.. {
        let more = match stop {
            Stop::After(d) => start.elapsed() < d,
            Stop::Count(n) => i < n,
        };
        if !more {
            break;
        }
        let req = w.timed(seed, i);
        let record = conn.call(&req);
        let lost = matches!(record.outcome, Outcome::Lost(_));
        records.push(record);
        if lost {
            break;
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn the_timed_server_never_installs_a_wall_clock() {
        for w in WORKLOADS {
            let args = server_args(&w, Path::new("p"), Path::new("m"));
            assert!(!args.iter().any(|a| a == "--metrics-timing"), "{args:?}");
            let at = args.iter().position(|a| a == "--metrics").unwrap();
            assert_eq!(args[at + 1], "m");
            // Defaults otherwise: no worker, cache or thread overrides.
            for flag in ["--workers", "--cache", "--threads", "--hold"] {
                assert!(!args.iter().any(|a| a == flag), "{flag} in {args:?}");
            }
        }
    }

    #[test]
    fn export_families_sum_over_labels() {
        let text = "# HELP br_x help\n# TYPE br_x counter\nbr_x{lane=\"a\"} 3\nbr_x{lane=\"b\"} 4\nbr_y 0\n";
        let f = parse_export(text);
        assert_eq!(f["br_x"], 7.0);
        assert_eq!(f["br_y"], 0.0);
        assert_eq!(f.len(), 2);
    }
}
