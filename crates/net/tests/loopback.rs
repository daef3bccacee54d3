//! End-to-end loopback tests for the TCP front end: flood a held server
//! and check that admission accounting (shed, quota, saturation) is a
//! pure function of the offered load — byte-identical metric exports at
//! any worker count — plus lane priority, graceful drain, and the
//! exactly-one-response-per-request guarantee.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use br_gpu_sim::device::DeviceConfig;
use br_net::client::NetClient;
use br_net::frame::{read_frame, write_frame, Frame, Lane, RejectCode};
use br_net::server::{NetServer, ServeReport, ServerConfig};
use br_service::service::ServiceConfig;

const SPEC: &str = "rmat=6,4";

fn held_config(workers: usize, shed_threshold: usize, quota: u64) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig::uniform(DeviceConfig::titan_xp(), workers, 8)
            .with_queue_capacity(shed_threshold),
        quota,
        hold: true,
    }
}

/// One deterministic flood against a held server: client "a" overruns its
/// quota, client "b" overruns the shed threshold, then the gate opens and
/// everything admitted executes. Returns the serve report and the strict
/// (deterministic-only) metrics export.
fn run_flood(workers: usize) -> (ServeReport, String) {
    let server = NetServer::bind("127.0.0.1:0", held_config(workers, 8, 6)).unwrap();
    let addr = server.local_addr().to_string();
    let registry = server.registry().clone();
    let server = thread::spawn(move || server.run());

    let mut a = NetClient::connect(&addr, "client-a").unwrap();
    assert!(a.server_info().held, "HelloAck advertises the held gate");
    assert_eq!(a.server_info().shed_threshold, 8);
    assert_eq!(a.server_info().quota, 6);
    // 20 submissions on alternating lanes: 6 admitted (quota), 14 quota-
    // rejected. The gate is held, so the 14 rejections are the only
    // responses available yet — collecting them is also a barrier proving
    // the server processed all 20 before client "b" starts.
    for id in 0..20u64 {
        let lane = if id.is_multiple_of(2) {
            Lane::Interactive
        } else {
            Lane::Batch
        };
        a.submit(id, lane, 0, SPEC).unwrap();
    }
    let a_rejects = a.collect_responses(14).unwrap();
    assert_eq!(a_rejects.rejected.len(), 14);
    assert!(a_rejects.rejected.iter().all(|(_, r)| *r == "quota"));
    assert_eq!(
        a_rejects
            .rejected
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>(),
        (6..20).collect::<Vec<_>>(),
        "first 6 submissions hold the quota; the rest reject in order"
    );

    let mut b = NetClient::connect(&addr, "client-b").unwrap();
    // Depth is 6; two more admissions saturate the queue at the threshold
    // of 8, then 18 submissions shed.
    for id in 0..20u64 {
        b.submit(id, Lane::Batch, 0, SPEC).unwrap();
    }
    let b_shed = b.collect_responses(18).unwrap();
    assert_eq!(b_shed.shed.len(), 18);
    assert_eq!(b_shed.shed, (2..20).collect::<Vec<u64>>());

    // Open the gate: the 8 admitted jobs execute and answer.
    a.release().unwrap();
    let a_results = a.collect_responses(6).unwrap();
    let a_ids: Vec<u64> = a_results.results.iter().map(|(id, _)| *id).collect();
    if workers == 1 {
        assert_eq!(
            a_ids,
            vec![0, 2, 4, 1, 3, 5],
            "interactive submissions answer before batch ones"
        );
    } else {
        // Completion order races across workers; the admitted *set* is
        // still exact.
        let mut sorted = a_ids;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }
    let b_results = b.collect_responses(2).unwrap();
    let mut b_ids: Vec<u64> = b_results.results.iter().map(|(id, _)| *id).collect();
    b_ids.sort_unstable();
    assert_eq!(b_ids, vec![0, 1]);

    // Same operands throughout: exactly one cold build, every other
    // execution reuses the cached plan (single-flight keeps this true at
    // any worker count).
    let hits = a_results.results.iter().chain(&b_results.results);
    assert_eq!(hits.filter(|(_, hit)| *hit).count(), 7);

    let mut summary = b_results;
    b.shutdown().unwrap();
    b.drain_to_eof(&mut summary).unwrap();
    let mut a_summary = a_results;
    a.drain_to_eof(&mut a_summary).unwrap();
    assert!(summary.drain_notice || a_summary.drain_notice);

    let report = server.join().unwrap();
    (report, registry.render_prometheus(false))
}

#[test]
fn flood_accounting_is_deterministic_across_worker_counts() {
    let (report1, metrics1) = run_flood(1);
    let (report4, metrics4) = run_flood(4);
    let (rerun, metrics_rerun) = run_flood(4);

    assert_eq!(report1.connections, 2);
    assert_eq!(report1.requests, 40);
    assert_eq!(report1.admitted, 8);
    assert_eq!(report1.results, 8);
    assert_eq!(report1.shed, 18);
    assert_eq!(report1.quota_rejected, 14);
    assert_eq!(report1.other_rejected, 0);
    assert_eq!(report1.protocol_errors, 0);
    assert_eq!(
        report1.queue_depth_max, 8,
        "bounded lanes cap the depth at the shed threshold"
    );
    assert_eq!(
        report1.requests,
        report1.admitted + report1.shed + report1.quota_rejected + report1.other_rejected,
        "every request is accounted for exactly once"
    );

    for other in [&report4, &rerun] {
        assert_eq!(report1.requests, other.requests);
        assert_eq!(report1.admitted, other.admitted);
        assert_eq!(report1.results, other.results);
        assert_eq!(report1.shed, other.shed);
        assert_eq!(report1.quota_rejected, other.quota_rejected);
        assert_eq!(report1.queue_depth_max, other.queue_depth_max);
    }

    assert!(metrics1.contains("br_net_shed_total"));
    assert!(metrics1.contains("br_net_saturation_total"));
    assert!(metrics1.contains("br_net_rejects_total{reason=\"quota\"} 14"));
    assert!(
        !metrics1.contains("br_net_lane_depth"),
        "strict export omits timing-flagged gauges"
    );
    assert_eq!(
        metrics1, metrics4,
        "admission accounting must not depend on worker count"
    );
    assert_eq!(metrics4, metrics_rerun, "and must be stable across reruns");
}

#[test]
fn drain_finishes_queued_jobs_before_exit() {
    let server = NetServer::bind("127.0.0.1:0", held_config(1, 8, 8)).unwrap();
    let addr = server.local_addr().to_string();
    let server = thread::spawn(move || server.run());

    let mut c = NetClient::connect(&addr, "drainer").unwrap();
    for id in 0..3u64 {
        c.submit(id, Lane::Batch, 0, SPEC).unwrap();
    }
    // Shutdown without ever releasing: the drain opens the held gate, so
    // the queued jobs still execute and answer before the server exits.
    c.shutdown().unwrap();
    let summary = c.collect_responses(3).unwrap();
    assert_eq!(summary.results.len(), 3);
    assert!(summary.drain_notice, "drain notice precedes the results");
    let mut summary = summary;
    c.drain_to_eof(&mut summary).unwrap();

    let report = server.join().unwrap();
    assert_eq!(report.admitted, 3);
    assert_eq!(report.results, 3);
    assert_eq!(report.shed, 0);
}

#[test]
fn submissions_after_drain_are_rejected_and_late_connects_refused() {
    use std::io::Write;

    let server = NetServer::bind("127.0.0.1:0", held_config(1, 8, 8)).unwrap();
    let addr = server.local_addr().to_string();
    let server = thread::spawn(move || server.run());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = std::io::BufReader::new(stream);
    write_frame(
        &mut w,
        &Frame::Hello {
            client_id: "late".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut r).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    // One write carrying Shutdown + Submit: the reader pulls both frames
    // into its buffer together, so the Submit is guaranteed to be
    // processed after the draining flag flips (same-connection ordering)
    // and before the drain closes the read side.
    let mut bytes = Frame::Shutdown.encode();
    bytes.extend_from_slice(
        &Frame::Submit {
            request_id: 99,
            lane: Lane::Interactive,
            deadline_ms: 0,
            spec: SPEC.to_string(),
        }
        .encode(),
    );
    w.write_all(&bytes).unwrap();
    w.flush().unwrap();
    match read_frame(&mut r).unwrap() {
        Some(Frame::DrainNotice { .. }) => {}
        other => panic!("expected DrainNotice first, got {other:?}"),
    }
    match read_frame(&mut r).unwrap() {
        Some(Frame::Reject {
            request_id, code, ..
        }) => {
            assert_eq!(request_id, 99);
            assert_eq!(code, RejectCode::Draining);
        }
        other => panic!("expected Reject(Draining), got {other:?}"),
    }
    let report = server.join().unwrap();
    assert_eq!(report.other_rejected, 1, "the draining reject is counted");

    // The listener is gone; a fresh connect (or handshake) must fail
    // rather than hang.
    assert!(NetClient::connect(&addr, "too-late").is_err());
}

#[test]
fn submit_before_hello_is_not_ready() {
    let server = NetServer::bind("127.0.0.1:0", held_config(1, 4, 4)).unwrap();
    let addr = server.local_addr();
    let server = thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = std::io::BufReader::new(stream);
    write_frame(
        &mut w,
        &Frame::Submit {
            request_id: 7,
            lane: Lane::Interactive,
            deadline_ms: 0,
            spec: SPEC.to_string(),
        },
    )
    .unwrap();
    match read_frame(&mut r).unwrap() {
        Some(Frame::Reject {
            request_id, code, ..
        }) => {
            assert_eq!(request_id, 7);
            assert_eq!(code, RejectCode::NotReady);
        }
        other => panic!("expected Reject(NotReady), got {other:?}"),
    }

    // An unparseable spec after the handshake rejects as BadSpec.
    write_frame(
        &mut w,
        &Frame::Hello {
            client_id: "raw".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut r).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    write_frame(
        &mut w,
        &Frame::Submit {
            request_id: 8,
            lane: Lane::Interactive,
            deadline_ms: 0,
            spec: "no-such-key=1".to_string(),
        },
    )
    .unwrap();
    match read_frame(&mut r).unwrap() {
        Some(Frame::Reject { code, .. }) => assert_eq!(code, RejectCode::BadSpec),
        other => panic!("expected Reject(BadSpec), got {other:?}"),
    }

    write_frame(&mut w, &Frame::Shutdown).unwrap();
    server.join().unwrap();
}

#[test]
fn garbage_on_the_wire_gets_a_typed_error_frame() {
    let server = NetServer::bind("127.0.0.1:0", held_config(1, 4, 4)).unwrap();
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    {
        use std::io::Write;
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
        match read_frame(&mut r).unwrap() {
            Some(Frame::Error { message }) => {
                assert!(message.contains("bad magic"), "got: {message}")
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        // The server closes the connection after a protocol error.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    let mut c = NetClient::connect(&addr.to_string(), "closer").unwrap();
    c.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.protocol_errors, 1);
}

#[test]
fn chains_round_trip_with_per_step_cache_accounting() {
    let server = NetServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let registry = server.registry().clone();
    let server = thread::spawn(move || server.run());

    let mut c = NetClient::connect(&addr, "chains").unwrap();
    // The Galerkin triple product: restrict/coarsen build plans, the two
    // refresh steps (same structures, new values) reuse them.
    c.submit_chain(0, Lane::Batch, 0, "chain=galerkin rmat=7,6 seed=11")
        .unwrap();
    match c.next_response().unwrap() {
        Some(Frame::ChainResult {
            request_id,
            label,
            steps,
            nnz_c,
            total_ms,
            ..
        }) => {
            assert_eq!(request_id, 0);
            assert!(label.contains("galerkin"), "got label {label:?}");
            assert_eq!(steps.len(), 4);
            let hits: Vec<bool> = steps.iter().map(|s| s.cache_hit).collect();
            assert_eq!(
                hits,
                [false, false, true, true],
                "the refresh products reuse the restrict/coarsen plans"
            );
            let fresh: Vec<bool> = steps.iter().map(|s| s.fresh_structure).collect();
            assert_eq!(fresh, [true, true, false, false]);
            assert_eq!(steps.last().unwrap().output_nnz, nnz_c);
            assert!(nnz_c > 0);
            assert!(total_ms > 0.0);
            assert!(steps.iter().all(|s| s.fill_in_permille > 0));
        }
        other => panic!("expected ChainResult, got {other:?}"),
    }

    // Iterated squaring churns structure: every step builds a new plan.
    c.submit_chain(1, Lane::Interactive, 0, "chain=square:3 rmat=7,6 seed=12")
        .unwrap();
    match c.next_response().unwrap() {
        Some(Frame::ChainResult { steps, .. }) => {
            assert_eq!(steps.len(), 3);
            assert!(steps.iter().all(|s| !s.cache_hit && s.fresh_structure));
        }
        other => panic!("expected ChainResult, got {other:?}"),
    }

    // A spec must ride the matching frame type, and repeat stays 1.
    c.submit(2, Lane::Batch, 0, "chain=square:2 rmat=6,4")
        .unwrap();
    c.submit_chain(3, Lane::Batch, 0, "rmat=6,4").unwrap();
    c.submit_chain(4, Lane::Batch, 0, "chain=galerkin rmat=6,4 repeat=2")
        .unwrap();
    let rejects = c.collect_responses(3).unwrap();
    assert_eq!(rejects.rejected.len(), 3);
    assert!(rejects.rejected.iter().all(|(_, r)| *r == "bad_spec"));

    let mut summary = rejects;
    c.shutdown().unwrap();
    c.drain_to_eof(&mut summary).unwrap();
    let report = server.join().unwrap();
    assert_eq!(report.requests, 5);
    assert_eq!(report.admitted, 2);
    assert_eq!(report.results, 2, "chain results count as results");
    assert_eq!(report.other_rejected, 3);

    let metrics = registry.render_prometheus(false);
    assert!(
        metrics.contains("br_chain_steps_total 7"),
        "4 + 3 steps ran"
    );
    assert!(metrics.contains("br_chain_step_cache_hits_total 2"));
    assert!(metrics.contains("br_chain_step_cache_misses_total 5"));
    assert!(metrics.contains("br_chain_structure_churn_total 5"));
}

#[test]
fn chain_families_export_at_zero_before_any_chain_runs() {
    let server = NetServer::bind("127.0.0.1:0", held_config(1, 4, 4)).unwrap();
    let addr = server.local_addr().to_string();
    let registry = server.registry().clone();
    let server = thread::spawn(move || server.run());

    let metrics = registry.render_prometheus(false);
    for family in [
        "br_chain_steps_total 0",
        "br_chain_step_cache_hits_total 0",
        "br_chain_step_cache_misses_total 0",
        "br_chain_structure_churn_total 0",
        "br_chain_fill_in_permille_count 0",
    ] {
        assert!(metrics.contains(family), "missing {family:?} in export");
    }

    let mut c = NetClient::connect(&addr, "idle").unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn chain_deadline_expires_while_queued() {
    let server = NetServer::bind("127.0.0.1:0", held_config(1, 4, 4)).unwrap();
    let addr = server.local_addr().to_string();
    let server = thread::spawn(move || server.run());

    let mut c = NetClient::connect(&addr, "deadline").unwrap();
    // The gate is held, so the chain sits queued past its 1 ms deadline;
    // the worker refuses it without executing any step.
    c.submit_chain(9, Lane::Batch, 1, "chain=square:2 rmat=6,4")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(30));
    c.release().unwrap();
    let summary = c.collect_responses(1).unwrap();
    assert_eq!(summary.rejected, vec![(9, "deadline")]);

    let mut summary = summary;
    c.shutdown().unwrap();
    c.drain_to_eof(&mut summary).unwrap();
    let report = server.join().unwrap();
    assert_eq!(report.admitted, 1);
    assert_eq!(report.results, 0);
}

#[test]
fn bind_failure_is_an_error_not_a_panic() {
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    assert!(NetServer::bind(&addr, ServerConfig::default()).is_err());
}

/// A handshaken raw connection whose reads time out, so a server that
/// never answers fails the test instead of hanging it.
fn connect_with_timeout(addr: &str, client_id: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    write_frame(
        &mut w,
        &Frame::Hello {
            client_id: client_id.to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut r).unwrap(),
        Some(Frame::HelloAck { .. })
    ));
    (w, r)
}

/// Sends one `Submit` and returns the frame that answers it.
fn submit_and_read(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    request_id: u64,
    spec: &str,
) -> Frame {
    write_frame(
        w,
        &Frame::Submit {
            request_id,
            lane: Lane::Interactive,
            deadline_ms: 0,
            spec: spec.to_string(),
        },
    )
    .unwrap();
    read_frame(r)
        .unwrap_or_else(|e| panic!("request {request_id} ({spec}): no answer: {e}"))
        .unwrap_or_else(|| panic!("request {request_id} ({spec}): connection closed"))
}

/// `rmat=6,64` parses (the edges fit the grid) but asks for every cell of
/// a 64 × 64 grid, which the generator's candidate budget refuses: it is
/// answered within the read timeout, after the quota check, and releases
/// its slot — with a quota of one, the valid Submit after it still runs.
#[test]
fn out_of_range_rmat_is_a_bad_spec_and_the_connection_keeps_serving() {
    let config = ServerConfig {
        quota: 1,
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let server = thread::spawn(move || server.run());

    let (mut w, mut r) = connect_with_timeout(&addr, "rmat-bounds");
    for (id, spec) in [
        "rmat=1,8",
        "rmat=32,1",
        "rmat=63,1",
        "rmat=64,1",
        "rmat=6,64",
    ]
    .into_iter()
    .enumerate()
    {
        match submit_and_read(&mut w, &mut r, id as u64, spec) {
            Frame::Reject {
                request_id, code, ..
            } => {
                assert_eq!(request_id, id as u64);
                assert_eq!(code, RejectCode::BadSpec, "{spec}");
            }
            other => panic!("{spec}: expected Reject(BadSpec), got {other:?}"),
        }
    }
    match submit_and_read(&mut w, &mut r, 9, SPEC) {
        Frame::Result { request_id, .. } => assert_eq!(request_id, 9),
        other => panic!("expected the valid Submit's Result, got {other:?}"),
    }

    write_frame(&mut w, &Frame::Shutdown).unwrap();
    let report = server.join().unwrap();
    assert_eq!(report.other_rejected, 5);
    assert_eq!(report.quota_rejected, 0);
    assert_eq!(report.results, 1);
}

#[test]
fn wire_specs_never_open_files() {
    const MARKER: &str = "secret-token-123";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_specs_never_open_files");
    std::fs::create_dir_all(&dir).unwrap();
    let marker = dir.join("marker.mtx");
    std::fs::write(&marker, format!("first line {MARKER}\n")).unwrap();
    let missing = dir.join("does-not-exist.mtx");

    let server = NetServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let server = thread::spawn(move || server.run());

    let (mut w, mut r) = connect_with_timeout(&addr, "files");
    let specs = [
        format!("input={}", marker.display()),
        format!("rmat=6,4 pair={}", marker.display()),
        format!("input={}", missing.display()),
    ];
    let mut messages = Vec::new();
    for (id, spec) in specs.iter().enumerate() {
        match submit_and_read(&mut w, &mut r, id as u64, spec) {
            Frame::Reject { code, message, .. } => {
                assert_eq!(code, RejectCode::BadSpec, "{spec}");
                assert!(!message.contains(MARKER), "{spec}: {message}");
                messages.push(message);
            }
            other => panic!("{spec}: expected Reject(BadSpec), got {other:?}"),
        }
    }
    assert!(
        messages.iter().all(|m| *m == messages[0]),
        "one message for every path, so existence does not leak: {messages:?}"
    );

    write_frame(&mut w, &Frame::Shutdown).unwrap();
    let report = server.join().unwrap();
    assert_eq!(report.other_rejected, 3);
    assert_eq!(report.admitted, 0);
}
