//! Served results stay exact whether their operands were loaded for the
//! request or shared from the operand cache: every job equals the
//! sequential Gustavson oracle and every chain `execute_reference`, bit
//! for bit, and cached operands are the very matrices a fresh load
//! generates.

use std::sync::Arc;

use br_obs::Registry;
use br_service::job::parse_job_file;
use br_service::prelude::*;
use br_sparse::ops::spgemm_gustavson;
use br_sparse::CsrMatrix;

/// `(ptr, idx, value bits)`: equality that sees signed zeros and NaNs.
fn bits(m: &CsrMatrix<f64>) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    (
        m.ptr().to_vec(),
        m.idx().to_vec(),
        m.val().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn results_are_exact_with_cached_and_uncached_operands() {
    let lines = [
        "rmat=7,6 seed=1",
        "chain=galerkin rmat=7,6 seed=2",
        "rmat=7,6 seed=1",
        "chain=galerkin rmat=7,6 seed=2",
        "rmat=7,6 seed=1",
        "rmat=7,6 seed=3",
        "chain=galerkin rmat=7,6 seed=2",
        "rmat=7,6 seed=1",
    ];
    let cache = OperandCache::new(&Registry::new());
    let service = SpgemmService::start(ServiceConfig::default());
    let mut requests = Vec::new();
    for (id, line) in lines.iter().enumerate() {
        let spec = parse_job_file(line).unwrap().pop().unwrap();
        let cached = spec.request(id as u64, Some(&cache)).unwrap();
        let fresh = spec.request(id as u64, None).unwrap();
        for (c, f) in cached.inputs.iter().zip(fresh.inputs.iter()) {
            assert_eq!(bits(c), bits(f), "{line}: cached operand differs");
        }
        service.submit(cached.clone()).unwrap();
        requests.push(cached);
    }
    // The third and later sightings of a source shared the stored matrix.
    assert!(Arc::ptr_eq(&requests[2].inputs[0], &requests[4].inputs[0]));
    assert!(!Arc::ptr_eq(&requests[0].inputs[0], &requests[2].inputs[0]));
    let batch = service.drain();
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.outcomes.len(), lines.len());
    for (outcome, request) in batch.outcomes.iter().zip(&requests) {
        let expected = match request.kind {
            RequestKind::Job => {
                Arc::new(spgemm_gustavson(&request.inputs[0], &request.inputs[1]).unwrap())
            }
            RequestKind::Chain => {
                request
                    .program
                    .execute_reference(&request.inputs)
                    .unwrap()
                    .result
            }
        };
        assert_eq!(
            bits(&outcome.result),
            bits(&expected),
            "{}",
            lines[outcome.id as usize]
        );
    }
}
