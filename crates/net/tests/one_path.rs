//! One request path: the job service and a loopback TCP server built from
//! the same plan settings answer the same specs with the same plan-cache
//! hits, the same modelled times bit for bit, and the same output sizes —
//! and the server's spans carry the service's paths and counts.

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

/// Completed spans by path.
fn span_totals(registry: &Registry) -> BTreeMap<String, u64> {
    registry
        .snapshot()
        .into_iter()
        .filter(|f| f.name == "br_span_total")
        .flat_map(|f| f.samples)
        .map(|(labels, value)| match value {
            SampleValue::Counter(n) => (labels[0].1.clone(), n),
            other => panic!("br_span_total is a counter, got {other:?}"),
        })
        .collect()
}

/// The specs through one service worker, in order.
fn through_the_service() -> (Vec<Answer>, BTreeMap<String, u64>) {
    let registry = Arc::new(Registry::new());
    let mut service = SpgemmService::start(
        ServiceConfig::default()
            .with_settings(settings())
            .with_registry(registry.clone()),
    );
    for (id, line) in SPECS.iter().enumerate() {
        let mut subs = expand_submissions(&parse_job_file(line).unwrap()).unwrap();
        if let Some(mut chain) = subs.chains.pop() {
            chain.id = id as u64;
            assert!(service.submit_chain(chain));
        } else {
            let mut job = subs.jobs.pop().unwrap();
            job.id = id as u64;
            assert!(service.submit(job));
        }
    }
    let batch = service.drain();
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let mut answers: BTreeMap<u64, Answer> = BTreeMap::new();
    for job in &batch.outcomes {
        let answer = (
            vec![(job.cache_hit, job.total_ms.to_bits())],
            job.total_ms.to_bits(),
            job.nnz_c as u64,
        );
        answers.insert(job.id, answer);
    }
    for chain in &batch.chains {
        let steps = chain
            .steps
            .iter()
            .map(|s| (s.cache_hit, s.total_ms.to_bits()))
            .collect();
        let answer = (steps, chain.total_ms.to_bits(), chain.result.nnz() as u64);
        answers.insert(chain.id, answer);
    }
    (answers.into_values().collect(), span_totals(&registry))
}

/// The specs over the wire to one server worker, one request at a time.
fn through_the_server() -> (Vec<Answer>, BTreeMap<String, u64>) {
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
    (answers, span_totals(&registry))
}

#[test]
fn service_and_server_share_one_request_path() {
    let (service, service_spans) = through_the_service();
    let (server, server_spans) = through_the_server();
    assert_eq!(service, server);
    // The specs exercise hits and misses on both paths.
    let hits: Vec<bool> = server.iter().flat_map(|a| &a.0).map(|s| s.0).collect();
    assert!(hits.contains(&true) && hits.contains(&false), "{hits:?}");

    // The server runs the service's spans; only the submission spans are
    // the service's own.
    for path in ["job/plan", "job/execute", "chain/plan", "chain/execute"] {
        assert!(server_spans.contains_key(path), "{path}: {server_spans:?}");
    }
    let mut expected = service_spans;
    expected.remove("job/submit");
    expected.remove("chain/submit");
    assert_eq!(server_spans, expected);
}
