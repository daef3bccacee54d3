//! One request path: the job service and a loopback TCP server built from
//! the same plan settings answer the same specs with the same plan-cache
//! hits, the same modelled times bit for bit, and the same output sizes —
//! and, because wire requests enter through the service, the server's
//! spans and job counters equal the service's exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::PlanSettings;
use br_net::client::NetClient;
use br_net::frame::{Frame, Lane};
use br_net::server::{NetServer, ServerConfig};
use br_obs::{Registry, SampleValue};
use br_service::job::{expand_submissions, parse_job_file};
use br_service::service::{ServiceConfig, SpgemmService};
use br_spgemm::estimate::EstimatorConfig;

/// Repeats hit the plan cache, fresh seeds miss, and the Galerkin chain
/// hits on its refresh steps.
const SPECS: [&str; 5] = [
    "rmat=7,6 seed=1",
    "rmat=7,6 seed=1",
    "chain=galerkin rmat=7,6 seed=3",
    "rmat=7,6 seed=2",
    "rmat=7,6 seed=1",
];

/// What one request reported: per step (a single job is one step) the
/// cache hit and the bits of the modelled time, then the bits of the total
/// and the output's nnz.
type Answer = (Vec<(bool, u64)>, u64, u64);

fn settings() -> PlanSettings {
    PlanSettings {
        estimator: Some(EstimatorConfig::default()),
        reorder: ReorderStrategy::Degree,
        ..PlanSettings::default()
    }
}

/// Completed spans by path, then the `br_jobs_*` counters by name.
type Counts = (BTreeMap<String, u64>, BTreeMap<String, u64>);

fn counts(registry: &Registry) -> Counts {
    let mut spans = BTreeMap::new();
    let mut jobs = BTreeMap::new();
    for family in registry.snapshot() {
        for (labels, value) in family.samples {
            let SampleValue::Counter(n) = value else {
                continue;
            };
            if family.name == "br_span_total" {
                spans.insert(labels[0].1.clone(), n);
            } else if family.name.starts_with("br_jobs_") {
                jobs.insert(family.name.clone(), n);
            }
        }
    }
    (spans, jobs)
}

/// The specs through one service worker, in order.
fn through_the_service() -> (Vec<Answer>, Counts) {
    let registry = Arc::new(Registry::new());
    let service = SpgemmService::start(
        ServiceConfig::default()
            .with_settings(settings())
            .with_registry(registry.clone()),
    );
    for (id, line) in SPECS.iter().enumerate() {
        let mut requests = expand_submissions(&parse_job_file(line).unwrap()).unwrap();
        let mut request = requests.pop().unwrap();
        request.id = id as u64;
        service.submit(request).unwrap();
    }
    let batch = service.drain();
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let mut answers: BTreeMap<u64, Answer> = BTreeMap::new();
    for chain in &batch.outcomes {
        let steps = chain
            .steps
            .iter()
            .map(|s| (s.cache_hit, s.total_ms.to_bits()))
            .collect();
        let answer = (steps, chain.total_ms.to_bits(), chain.result.nnz() as u64);
        answers.insert(chain.id, answer);
    }
    (answers.into_values().collect(), counts(&registry))
}

/// The specs over the wire to one server worker, one request at a time.
fn through_the_server() -> (Vec<Answer>, Counts) {
    let config = ServerConfig {
        service: ServiceConfig::default()
            .with_settings(settings())
            .with_queue_capacity(64),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let registry = server.registry().clone();
    let server = thread::spawn(move || server.run());
    let mut client = NetClient::connect(&addr, "one-path").unwrap();
    let mut answers = Vec::new();
    for (id, line) in SPECS.iter().enumerate() {
        let id = id as u64;
        if line.starts_with("chain=") {
            client.submit_chain(id, Lane::Interactive, 0, line).unwrap();
        } else {
            client.submit(id, Lane::Interactive, 0, line).unwrap();
        }
        let answer = match client.next_response().unwrap() {
            Some(Frame::Result {
                request_id,
                cache_hit,
                total_ms,
                nnz_c,
                ..
            }) => {
                assert_eq!(request_id, id);
                (
                    vec![(cache_hit, total_ms.to_bits())],
                    total_ms.to_bits(),
                    nnz_c,
                )
            }
            Some(Frame::ChainResult {
                request_id,
                total_ms,
                nnz_c,
                steps,
                ..
            }) => {
                assert_eq!(request_id, id);
                let steps = steps
                    .iter()
                    .map(|s| (s.cache_hit, s.total_ms.to_bits()))
                    .collect();
                (steps, total_ms.to_bits(), nnz_c)
            }
            other => panic!("request {id}: unexpected response {other:?}"),
        };
        answers.push(answer);
    }
    client.shutdown().unwrap();
    client.drain_to_eof(&mut Default::default()).unwrap();
    server.join().unwrap();
    (answers, counts(&registry))
}

#[test]
fn service_and_server_share_one_request_path() {
    let (service, (service_spans, service_jobs)) = through_the_service();
    let (server, (server_spans, server_jobs)) = through_the_server();
    assert_eq!(service, server);
    // The specs exercise hits and misses on both paths.
    let hits: Vec<bool> = server.iter().flat_map(|a| &a.0).map(|s| s.0).collect();
    assert!(hits.contains(&true) && hits.contains(&false), "{hits:?}");

    // Wire requests enter through the service: the server records every
    // one of its spans, submission included, and counts the same jobs.
    for path in [
        "job/submit",
        "job/plan",
        "job/execute",
        "chain/submit",
        "chain/plan",
        "chain/execute",
    ] {
        assert!(server_spans.contains_key(path), "{path}: {server_spans:?}");
    }
    assert_eq!(server_spans, service_spans);
    let expected: BTreeMap<String, u64> = [
        ("br_jobs_completed_total", 5),
        ("br_jobs_failed_total", 0),
        ("br_jobs_submitted_total", 5),
    ]
    .map(|(name, n)| (name.to_string(), n))
    .into();
    assert_eq!(service_jobs, expected);
    assert_eq!(server_jobs, expected);
}
