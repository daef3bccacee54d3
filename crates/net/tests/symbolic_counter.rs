//! No request a server serves runs the exact symbolic pass
//! (`symbolic_nnz`): a plan's analysis reads only block and row product
//! counts, and every execution that simulates takes C's row lengths from
//! the C it merged just before (DESIGN.md §8.3). Shown on a loopback
//! server under `--reorder degree` serving a repeated spec (misses, a memo
//! fill, replays and values-only hits), fresh seeds (cold misses) and
//! Galerkin chains; the operand-cache counters show the repeated spec
//! loaded twice.
//!
//! This lives in its own integration-test binary because it reads the
//! process-global symbolic-pass counter.

use std::thread;

use block_reorganizer::reorder::ReorderStrategy;
use block_reorganizer::PlanSettings;
use br_net::client::NetClient;
use br_net::frame::{Frame, Lane};
use br_net::server::{NetServer, ServerConfig};
use br_obs::SampleValue;
use br_service::service::ServiceConfig;
use br_sparse::ops::symbolic_runs;

const SPECS: [&str; 10] = [
    "rmat=8,8 seed=1",
    "rmat=8,8 seed=1",
    "rmat=8,8 seed=1",
    "rmat=8,8 seed=1",
    "rmat=8,8 seed=1",
    "rmat=8,8 seed=2",
    "rmat=8,8 seed=3",
    "chain=galerkin rmat=8,8 seed=4",
    "chain=galerkin rmat=8,8 seed=4",
    "chain=galerkin rmat=8,8 seed=5",
];

#[test]
fn a_server_runs_no_symbolic_pass() {
    let config = ServerConfig {
        service: ServiceConfig::default()
            .with_settings(PlanSettings {
                reorder: ReorderStrategy::Degree,
                ..PlanSettings::default()
            })
            .with_queue_capacity(64),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let registry = server.registry().clone();
    let server = thread::spawn(move || server.run());
    let before = symbolic_runs();
    let mut client = NetClient::connect(&addr, "symbolic").unwrap();
    let mut hits = Vec::new();
    for (id, line) in SPECS.iter().enumerate() {
        let id = id as u64;
        if line.starts_with("chain=") {
            client.submit_chain(id, Lane::Interactive, 0, line).unwrap();
        } else {
            client.submit(id, Lane::Interactive, 0, line).unwrap();
        }
        match client.next_response().unwrap() {
            Some(Frame::Result { cache_hit, .. }) => hits.push(cache_hit),
            Some(Frame::ChainResult { steps, .. }) => {
                hits.extend(steps.iter().map(|s| s.cache_hit))
            }
            other => panic!("{line}: unexpected response {other:?}"),
        }
    }
    client.shutdown().unwrap();
    server.join().unwrap();
    assert_eq!(
        symbolic_runs() - before,
        0,
        "a served request ran symbolic_nnz"
    );
    // The repeated spec missed once and then hit every time.
    assert_eq!(hits[..5], [false, true, true, true, true]);

    let counter = |name: &str| {
        registry
            .snapshot()
            .into_iter()
            .find(|f| f.name == name)
            .and_then(|f| match f.samples[0].1 {
                SampleValue::Counter(n) => Some(n),
                _ => None,
            })
            .unwrap()
    };
    // Ten requests over five sources: the five-times-sent spec loads on
    // its first two sightings and hits three times, the twice-sent chain
    // spec loads twice, and the three sent once load once each.
    assert_eq!(counter("br_operand_loads_total"), 7);
    assert_eq!(counter("br_operand_cache_hits_total"), 3);
}
